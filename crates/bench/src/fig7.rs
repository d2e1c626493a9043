//! Fig. 7 — events received by the active logic node around an induced
//! process crash.
//!
//! One sensor at 10 events/s, five processes all receiving, the
//! application-bearing process crashed at t = 24 s, failure-detection
//! threshold 2 s. Under Gap the new primary simply picks up the next
//! events (≈ 20 events lost); under Gapless the promotion replays the
//! replicated-but-unprocessed backlog, visible as a catch-up spike.

use std::collections::BTreeSet;

use rivulet_core::delivery::Delivery;
use rivulet_obs::ObsSnapshot;
use rivulet_types::{Duration, Time};

use crate::common::{run_delivery, DeliveryScenario};

/// Result of one failover run. Every field below is derived from the
/// run's [`ObsSnapshot`] — the `app.delivery` and `exec.promoted`
/// timeline events — not from probe internals.
#[derive(Debug, Clone)]
pub struct FailoverOutcome {
    /// Events delivered per one-second bucket.
    pub per_second: Vec<u64>,
    /// Total unique events delivered.
    pub unique_delivered: usize,
    /// Total emitted.
    pub emitted: u64,
    /// When the replacement primary promoted itself.
    pub promoted_at: Option<Time>,
    /// The first delivery at or after the crash. No process is active
    /// between the crash and the promotion, so this is the replacement
    /// primary resuming service: the failover interrupted delivery
    /// from the crash until here (§8.4).
    pub resumed_at: Option<Time>,
    /// The full observability snapshot of the run (crash and delivery
    /// events, delay histograms, …).
    pub obs: ObsSnapshot,
}

/// Runs the crash experiment.
#[must_use]
pub fn run(delivery: Delivery, crash_at: Time, duration: Duration, seed: u64) -> FailoverOutcome {
    let mut cfg = DeliveryScenario::paper_default(delivery);
    cfg.receivers = vec![0, 1, 2, 3, 4];
    cfg.crash_app_at = Some(crash_at);
    cfg.duration = duration;
    cfg.seed = seed;
    cfg.obs = true;
    let out = run_delivery(&cfg);
    let seconds = duration.as_micros().div_ceil(1_000_000) as usize;
    let mut per_second = vec![0u64; seconds];
    let mut unique: BTreeSet<(u64, u64)> = BTreeSet::new();
    let mut resumed_at = None;
    for d in out.obs.events_named("app.delivery") {
        unique.insert((d.key, d.value));
        if d.at >= crash_at {
            resumed_at = resumed_at.or(Some(d.at));
        }
        let bucket = (d.at.as_micros() / 1_000_000) as usize;
        if bucket < seconds {
            per_second[bucket] += 1;
        }
    }
    let promoted_at = out
        .obs
        .events_named("exec.promoted")
        .iter()
        .filter(|e| e.at > crash_at)
        .map(|e| e.at)
        .min();
    FailoverOutcome {
        per_second,
        unique_delivered: unique.len(),
        emitted: out.emitted,
        promoted_at,
        resumed_at,
        obs: out.obs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CRASH: Time = Time::from_secs(24);
    const LEN: Duration = Duration::from_secs(50);

    #[test]
    fn failover_happens_within_detection_threshold() {
        let out = run(Delivery::Gapless, CRASH, LEN, 11);
        let promoted = out.promoted_at.expect("replacement promoted");
        let lag = promoted - CRASH;
        assert!(
            lag <= Duration::from_millis(3_500),
            "promotion took {lag} (2s threshold + keep-alive period expected)"
        );
    }

    #[test]
    fn gap_loses_roughly_the_detection_window() {
        let out = run(Delivery::Gap, CRASH, LEN, 11);
        let lost = out.emitted as i64 - out.unique_delivered as i64;
        // ~2s detection at 10 ev/s ≈ 20 events; allow 10–35.
        assert!(
            (10..=35).contains(&lost),
            "gap lost {lost} events (expected ≈20)"
        );
    }

    #[test]
    fn gapless_loses_nothing_and_spikes_on_catchup() {
        let out = run(Delivery::Gapless, CRASH, LEN, 11);
        let lost = out.emitted as i64 - out.unique_delivered as i64;
        assert!(lost <= 2, "gapless lost {lost} events");
        // The promotion second (or its neighbour) shows a burst well
        // above the steady 10/s.
        let promoted = out.promoted_at.expect("promoted");
        let bucket = (promoted.as_micros() / 1_000_000) as usize;
        let spike = (bucket.saturating_sub(1)..=bucket + 1)
            .filter_map(|b| out.per_second.get(b))
            .copied()
            .max()
            .unwrap_or(0);
        assert!(spike >= 20, "expected catch-up spike, saw {spike}/s");
    }

    #[test]
    fn failover_interval_matches_fig7_timeline() {
        let out = run(Delivery::Gapless, CRASH, LEN, 11);
        let crashes = out.obs.events_named("net.crash");
        assert_eq!(crashes.len(), 1, "one crash: {crashes:?}");
        assert_eq!(crashes[0].at, CRASH);
        // Service resumes with the replacement's first post-promotion
        // delivery, i.e. essentially at promotion time (replay starts
        // there).
        let resumed = out.resumed_at.expect("delivery resumed after the crash");
        let promoted = out.promoted_at.expect("promoted");
        assert!(
            resumed >= promoted && resumed <= promoted + Duration::from_millis(500),
            "resumed at {resumed}, promotion at {promoted}"
        );
        // The whole interruption sits inside the §8.4 envelope:
        // 2 s detection threshold plus keep-alive slack.
        let gap = resumed - CRASH;
        assert!(
            gap >= Duration::from_secs(2) && gap <= Duration::from_millis(3_500),
            "failover interrupted delivery for {gap}"
        );
    }

    #[test]
    fn steady_state_rate_is_ten_per_second() {
        let out = run(Delivery::Gapless, CRASH, LEN, 11);
        // Seconds 5..20 are pre-crash steady state.
        for s in 5..20 {
            assert!(
                (8..=12).contains(&out.per_second[s]),
                "second {s}: {} events",
                out.per_second[s]
            );
        }
    }
}
