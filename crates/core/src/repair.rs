//! Device-fault detection and self-healing.
//!
//! The platform's crash/partition machinery cannot see *device* faults:
//! a stuck thermometer keeps beaconing perfectly valid-looking frames.
//! This module layers a per-sensor health model over the delivery path
//! of each active logic node:
//!
//! * **Stuck detection** — a scalar sensor repeating the exact same
//!   reading [`STUCK_RUN`] times in a row is flagged untrusted.
//! * **Outlier detection** — a reading disagreeing with the
//!   Marzullo midpoint of its *redundant peers* (the other sensors
//!   feeding the same fault-tolerant combiner) by more than
//!   [`DISAGREEMENT`] is an outlier. This catches drift,
//!   flapping, and ghost readings without modelling any of them.
//! * **Substitution** — outlier/untrusted readings are replaced by the
//!   peer midpoint when enough healthy peers exist (the
//!   `FTCombiner` contract: `tolerate + 1` independent witnesses),
//!   so the app still sees an event with a plausible value.
//! * **Quarantine** — a sensor accumulating [`OUTLIER_QUARANTINE`]
//!   outliers is quarantined: every further event from it (including
//!   ghosts) is dropped before reaching any app.
//! * **Re-poll** — a pollable sensor silent for [`STALL_TIMEOUT`]
//!   is re-polled through the existing polling service (missed events
//!   and battery decay look like silence, and a fresh poll repairs
//!   them).
//!
//! Everything is gated behind [`crate::config::RivuletConfig::repair`]
//! (default **off**): disabled, no health state exists and no
//! `repair.*` counter is written, so runs are bit-identical to builds
//! without this module.
//!
//! Verdicts are deduplicated per event id: the same event routed to
//! several apps (or replayed after a promotion) is health-checked once
//! and every route sees the same verdict — detection state never
//! double-counts.

use std::collections::HashMap;

use rivulet_obs::Recorder;
use rivulet_types::{Duration, Event, Payload, SensorId, Time};

use crate::app::{marzullo_midpoint, AppSpec, CombinerSpec};

/// Exact-repeat run length after which a scalar sensor is judged stuck
/// and its readings become untrusted (a single repeat is normal).
pub const STUCK_RUN: u32 = 6;
/// Absolute disagreement from the healthy-peer midpoint (Marzullo)
/// beyond which a reading is an outlier and is substituted/dropped.
pub const DISAGREEMENT: f64 = 4.0;
/// Outliers tolerated from one sensor before it is quarantined (all
/// further events from it are dropped at delivery).
pub const OUTLIER_QUARANTINE: u32 = 10;
/// Silence after which a *pollable* sensor is considered stalled and
/// re-polled through the polling service.
pub const STALL_TIMEOUT: Duration = Duration::from_secs(2);

/// What the health model decided about one delivered event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RepairVerdict {
    /// The reading is healthy (or unverifiable): deliver as-is.
    Accept,
    /// The reading is corrupt but repairable: deliver with this value
    /// substituted from the healthy-peer midpoint.
    Substitute(f64),
    /// The reading is corrupt and unrepairable: drop it.
    DropOutlier,
    /// The sensor is quarantined: drop everything it sends.
    DropQuarantined,
}

/// A group of redundant sensors feeding one fault-tolerant combiner.
#[derive(Debug, Clone)]
struct PeerGroup {
    sensors: Vec<SensorId>,
    tolerate: usize,
}

/// Health state for one sensor at one process.
#[derive(Debug, Default)]
struct SensorHealth {
    /// Most recently *seen* raw value (stuck detection).
    last_raw: Option<f64>,
    /// Length of the current exact-repeat run.
    repeat_run: u32,
    /// Most recently *accepted* value (peer-midpoint input) — outlier
    /// readings are excluded so a corrupt sensor cannot poison the
    /// midpoint its peers are judged against.
    accepted: Option<(Time, f64)>,
    /// Outliers accumulated toward quarantine.
    outliers: u32,
    /// Quarantined: all further events are dropped.
    quarantined: bool,
    /// Last arrival (any event), for stall detection.
    last_arrival: Option<Time>,
    /// Highest event seq already health-checked, with its verdict —
    /// makes [`HealthModel::observe`] idempotent per event.
    checked: Option<(u64, RepairVerdict)>,
}

/// Per-process sensor health model (see module docs).
#[derive(Debug)]
pub struct HealthModel {
    /// Sensor → its redundancy group (first fault-tolerant operator
    /// naming it wins).
    groups: HashMap<SensorId, PeerGroup>,
    sensors: HashMap<SensorId, SensorHealth>,
    /// Where each decision is counted (`repair.*`), as it is made.
    obs: Recorder,
}

impl HealthModel {
    /// Builds the model from the process's deployed apps: every
    /// operator with a [`CombinerSpec::FaultTolerant`] combiner and at
    /// least two sensor inputs contributes a redundancy group. Every
    /// decision the model takes is counted into `obs`.
    #[must_use]
    pub fn from_apps(apps: &[std::sync::Arc<AppSpec>], obs: Recorder) -> Self {
        let mut groups: HashMap<SensorId, PeerGroup> = HashMap::new();
        for app in apps {
            for op in &app.operators {
                let CombinerSpec::FaultTolerant { tolerate } = op.combiner else {
                    continue;
                };
                if op.inputs.len() < 2 {
                    continue;
                }
                let sensors: Vec<SensorId> = op.inputs.iter().map(|i| i.sensor).collect();
                for s in &sensors {
                    groups.entry(*s).or_insert_with(|| PeerGroup {
                        sensors: sensors.clone(),
                        tolerate,
                    });
                }
            }
        }
        Self {
            groups,
            sensors: HashMap::new(),
            obs,
        }
    }

    /// Whether `sensor` is currently quarantined.
    #[must_use]
    pub fn is_quarantined(&self, sensor: SensorId) -> bool {
        self.sensors.get(&sensor).is_some_and(|h| h.quarantined)
    }

    /// Health-checks one event at delivery time. Idempotent per event
    /// id: re-observing an already-checked seq returns the cached
    /// verdict without touching detection state.
    pub fn observe(&mut self, now: Time, event: &Event) -> RepairVerdict {
        let sensor = event.id.sensor;
        if let Some((seq, verdict)) = self.sensors.get(&sensor).and_then(|h| h.checked) {
            if seq == event.id.seq {
                return verdict;
            }
        }
        let verdict = self.check(now, event);
        let h = self.sensors.entry(sensor).or_default();
        h.checked = Some((event.id.seq, verdict));
        verdict
    }

    fn check(&mut self, now: Time, event: &Event) -> RepairVerdict {
        let sensor = event.id.sensor;
        // Peer midpoint first (immutable pass over the group), so the
        // borrow of this sensor's own state can stay disjoint.
        let midpoint = self.peer_midpoint(sensor, event.payload.as_scalar());
        let h = self.sensors.entry(sensor).or_default();
        h.last_arrival = Some(now);
        if h.quarantined {
            self.obs.inc("repair.quarantined_drops");
            return RepairVerdict::DropQuarantined;
        }
        let Some(value) = event.payload.as_scalar() else {
            // Kind-only / blob events carry nothing to verify.
            return RepairVerdict::Accept;
        };
        // Stuck detection: exact repeats of a scalar reading.
        if h.last_raw.is_some_and(|prev| prev == value) {
            h.repeat_run += 1;
        } else {
            h.repeat_run = 1;
        }
        h.last_raw = Some(value);
        let stuck = h.repeat_run >= STUCK_RUN;
        if h.repeat_run == STUCK_RUN {
            self.obs.inc("repair.stuck_flagged");
        }
        // Outlier detection: disagreement with the healthy-peer
        // midpoint.
        let outlier = midpoint.is_some_and(|m| (value - m).abs() > DISAGREEMENT);
        if !stuck && !outlier {
            h.accepted = Some((now, value));
            return RepairVerdict::Accept;
        }
        if outlier {
            h.outliers += 1;
            if h.outliers >= OUTLIER_QUARANTINE {
                h.quarantined = true;
                self.obs.inc("repair.quarantines");
            }
        }
        match midpoint {
            Some(m) => {
                self.obs.inc("repair.substitutions");
                RepairVerdict::Substitute(m)
            }
            None => {
                if outlier {
                    self.obs.inc("repair.outlier_drops");
                    RepairVerdict::DropOutlier
                } else {
                    // Stuck but unwitnessed: nothing better to offer.
                    RepairVerdict::Accept
                }
            }
        }
    }

    /// Marzullo midpoint of the *other* sensors in this sensor's
    /// redundancy group, using their most recently accepted readings.
    /// Requires at least `tolerate + 1` healthy witnesses — the same
    /// bar the fault-tolerant combiner itself sets.
    fn peer_midpoint(&self, sensor: SensorId, _value: Option<f64>) -> Option<f64> {
        let group = self.groups.get(&sensor)?;
        let values: Vec<f64> = group
            .sensors
            .iter()
            .filter(|s| **s != sensor)
            .filter_map(|s| {
                let h = self.sensors.get(s)?;
                if h.quarantined {
                    return None;
                }
                h.accepted.map(|(_, v)| v)
            })
            .collect();
        if values.len() < group.tolerate + 1 {
            return None;
        }
        marzullo_midpoint(&values, DISAGREEMENT, group.tolerate.min(values.len() - 1))
    }

    /// Stall check, run from the process tick for pollable sensors:
    /// returns `true` when `sensor` has been silent past the stall
    /// timeout (and arms a fresh window so re-polls are rate-limited
    /// to one per timeout).
    pub fn check_stall(&mut self, sensor: SensorId, now: Time) -> bool {
        let h = self.sensors.entry(sensor).or_default();
        if h.quarantined {
            return false;
        }
        match h.last_arrival {
            None => {
                // First sighting: start the clock, don't re-poll yet.
                h.last_arrival = Some(now);
                false
            }
            Some(last) if now.duration_since(last) > STALL_TIMEOUT => {
                h.last_arrival = Some(now);
                true
            }
            Some(_) => false,
        }
    }

    /// Builds the substituted event for a [`RepairVerdict::Substitute`]
    /// verdict: same identity, epoch, and timing, repaired value.
    #[must_use]
    pub fn substituted(event: &Event, value: f64) -> Event {
        let mut repaired = event.clone();
        repaired.payload = Payload::Scalar(value);
        repaired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppBuilder, CombinedWindows, OpCtx, WindowSpec};
    use crate::delivery::Delivery;
    use rivulet_types::{AppId, EventId, EventKind};
    use std::sync::Arc;

    fn ft_app(sensors: &[u32], tolerate: usize) -> Arc<AppSpec> {
        let mut op = AppBuilder::new(AppId(1), "ft").operator(
            "op",
            CombinerSpec::FaultTolerant { tolerate },
            |_: &mut OpCtx, _: &CombinedWindows| {},
        );
        for s in sensors {
            op = op.sensor(SensorId(*s), Delivery::Gap, WindowSpec::count(1));
        }
        Arc::new(op.done().build().expect("valid test app"))
    }

    /// A model over `app` counting into an enabled recorder, returned
    /// beside it so a test reads the counts the process would export.
    fn model(app: Arc<AppSpec>) -> (HealthModel, Recorder) {
        let obs = Recorder::enabled();
        (HealthModel::from_apps(&[app], obs.clone()), obs)
    }

    fn ev(sensor: u32, seq: u64, value: f64, at: Time) -> Event {
        Event::with_payload(
            EventId::new(SensorId(sensor), seq),
            EventKind::Reading,
            Payload::Scalar(value),
            at,
        )
    }

    fn feed_peers(h: &mut HealthModel, at: Time, seq: u64, value: f64) {
        assert_eq!(h.observe(at, &ev(2, seq, value, at)), RepairVerdict::Accept);
        assert_eq!(
            h.observe(at, &ev(3, seq, value + 0.1, at)),
            RepairVerdict::Accept
        );
    }

    #[test]
    fn healthy_readings_are_accepted() {
        let (mut h, obs) = model(ft_app(&[1, 2, 3], 1));
        for seq in 0..20 {
            let at = Time::from_secs(seq);
            feed_peers(&mut h, at, seq, 20.0 + seq as f64 * 0.01);
            let v = h.observe(at, &ev(1, seq, 20.0 + seq as f64 * 0.01, at));
            assert_eq!(v, RepairVerdict::Accept, "seq {seq}");
        }
        assert!(obs.snapshot().counters.is_empty(), "no repair key written");
    }

    #[test]
    fn outliers_are_substituted_from_peer_midpoint() {
        let (mut h, obs) = model(ft_app(&[1, 2, 3], 1));
        let at = Time::from_secs(1);
        feed_peers(&mut h, at, 0, 20.0);
        let v = h.observe(at, &ev(1, 0, 400.0, at));
        let RepairVerdict::Substitute(sub) = v else {
            panic!("expected substitution, got {v:?}");
        };
        assert!((sub - 20.0).abs() < 1.0, "midpoint near peers, got {sub}");
        assert_eq!(obs.snapshot().counter("repair.substitutions"), 1);
    }

    #[test]
    fn repeated_outliers_quarantine_the_sensor() {
        let (mut h, obs) = model(ft_app(&[1, 2, 3], 1));
        for seq in 0..u64::from(OUTLIER_QUARANTINE) + 2 {
            let at = Time::from_secs(seq + 1);
            feed_peers(&mut h, at, seq, 20.0);
            let _ = h.observe(at, &ev(1, seq, 900.0 + seq as f64, at));
        }
        assert!(h.is_quarantined(SensorId(1)));
        let at = Time::from_secs(100);
        let v = h.observe(at, &ev(1, 99, 20.0, at));
        assert_eq!(v, RepairVerdict::DropQuarantined, "even healthy values");
        let counts = obs.snapshot();
        assert_eq!(counts.counter("repair.quarantines"), 1);
        assert!(counts.counter("repair.quarantined_drops") >= 1);
    }

    #[test]
    fn stuck_run_is_flagged_and_substituted() {
        let (mut h, obs) = model(ft_app(&[1, 2, 3], 1));
        let mut verdicts = Vec::new();
        for seq in 0..10 {
            let at = Time::from_secs(seq + 1);
            feed_peers(&mut h, at, seq, 21.0 + seq as f64 * 0.01);
            verdicts.push(h.observe(at, &ev(1, seq, 25.0, at)));
        }
        // 25.0 repeats forever; within the disagreement threshold of
        // the 21.0 peers, so only the stuck detector can catch it.
        assert!(verdicts[..5].iter().all(|v| *v == RepairVerdict::Accept));
        assert!(
            matches!(verdicts[5], RepairVerdict::Substitute(_)),
            "6th repeat crosses the default stuck run, got {:?}",
            verdicts[5]
        );
        assert_eq!(obs.snapshot().counter("repair.stuck_flagged"), 1);
    }

    #[test]
    fn observe_is_idempotent_per_event() {
        let (mut h, obs) = model(ft_app(&[1, 2, 3], 1));
        let at = Time::from_secs(1);
        feed_peers(&mut h, at, 0, 20.0);
        let e = ev(1, 0, 400.0, at);
        let first = h.observe(at, &e);
        let counts = obs.snapshot();
        for _ in 0..5 {
            assert_eq!(h.observe(at, &e), first, "cached verdict");
        }
        assert_eq!(obs.snapshot(), counts, "no double count");
        assert_eq!(counts.counter("repair.substitutions"), 1);
    }

    #[test]
    fn stall_detection_rate_limits() {
        let (mut h, _) = model(ft_app(&[1, 2], 1));
        assert!(
            !h.check_stall(SensorId(1), Time::from_secs(1)),
            "arms clock"
        );
        assert!(
            !h.check_stall(SensorId(1), Time::from_secs(2)),
            "within timeout"
        );
        assert!(h.check_stall(SensorId(1), Time::from_secs(4)), "stalled");
        assert!(
            !h.check_stall(SensorId(1), Time::from_secs(5)),
            "rate-limited"
        );
    }

    #[test]
    fn lone_sensor_without_peers_is_accepted() {
        let (mut h, _) = model(ft_app(&[1], 1));
        for seq in 0..20 {
            let at = Time::from_secs(seq);
            let v = h.observe(at, &ev(1, seq, 42.0, at));
            assert_eq!(v, RepairVerdict::Accept, "no witnesses, no drops");
        }
    }

    #[test]
    fn substituted_event_keeps_identity() {
        let e = ev(1, 7, 400.0, Time::from_secs(3));
        let s = HealthModel::substituted(&e, 20.5);
        assert_eq!(s.id, e.id);
        assert_eq!(s.emitted_at, e.emitted_at);
        assert_eq!(s.payload.as_scalar(), Some(20.5));
    }
}
