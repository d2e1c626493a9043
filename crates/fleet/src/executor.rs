//! Parallel fleet execution.
//!
//! A fleet run is embarrassingly parallel — every home is an isolated,
//! seeded, single-threaded simulation — so the executor is a
//! fixed-size pool of worker threads stealing homes off one shared
//! queue (an atomic cursor over the expanded spec list: an idle worker
//! claims the next unclaimed home, so load balances at home
//! granularity no matter how skewed individual home durations are).
//!
//! Determinism contract: everything derived from simulation state —
//! per-home outcomes, verdicts, and the merged fleet
//! [`ObsSnapshot`] — is a pure function of the manifest and fleet
//! seed. Each home's snapshot is merged into the fleet's as soon as
//! the home finishes, in whatever order the workers finish them:
//! every snapshot family (counters, histograms, timeline events)
//! merges regardless of order ([`ObsSnapshot::merge`]), so the merged
//! snapshot is byte-identical across `--threads 1` and `--threads N`
//! and the run never holds more than one snapshot per worker. Only
//! the wall-clock throughput figures vary run to run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rivulet_bench::common::run_delivery;
use rivulet_core::probe::Verdict;
use rivulet_obs::ObsSnapshot;

use crate::manifest::{FleetManifest, HomeSpec};

/// What a fleet run keeps per home: the verdict and the counts the
/// axis breakdown needs. The home's `ObsSnapshot` is folded into the
/// merged snapshot as soon as the home completes, so fleet memory does
/// not grow with one snapshot per home.
#[derive(Debug, Clone, PartialEq)]
pub struct HomeSummary {
    /// The spec that produced this result.
    pub spec: HomeSpec,
    /// Events the home's sensor emitted.
    pub emitted: u64,
    /// Distinct events the application processed.
    pub delivered: u64,
    /// The checker's judgement of the home ([`rivulet_core::probe::check`]).
    pub verdict: Verdict,
}

/// Aggregated outcome of a whole fleet run.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Fleet name from the manifest.
    pub name: String,
    /// Fleet seed from the manifest.
    pub seed: u64,
    /// Worker threads used (not part of the merged snapshot).
    pub threads: usize,
    /// Slim per-home results in `home_index` order (snapshots are
    /// folded into `merged` as homes complete, not retained here).
    pub homes: Vec<HomeSummary>,
    /// All per-home snapshots merged, plus the `fleet.*` counters.
    pub merged: ObsSnapshot,
    /// Wall-clock seconds the pool took to drain the fleet.
    pub wall_secs: f64,
}

impl FleetOutcome {
    /// Total events emitted across the fleet.
    #[must_use]
    pub fn events_emitted(&self) -> u64 {
        self.homes.iter().map(|h| h.emitted).sum()
    }

    /// Total events delivered across the fleet.
    #[must_use]
    pub fn events_delivered(&self) -> u64 {
        self.homes.iter().map(|h| h.delivered).sum()
    }

    /// Total events owed across the fleet.
    #[must_use]
    pub fn events_owed(&self) -> u64 {
        self.homes.iter().map(|h| h.verdict.owed).sum()
    }

    /// Homes that broke a guarantee.
    #[must_use]
    pub fn homes_failed(&self) -> u64 {
        self.homes.iter().filter(|h| !h.verdict.passed()).count() as u64
    }

    /// The fleet-scale throughput figure: delivered events per
    /// wall-clock second, summed across all homes (homes × events/s).
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        self.events_delivered() as f64 / self.wall_secs.max(1e-9)
    }

    /// Homes completed per wall-clock second.
    #[must_use]
    pub fn homes_per_sec(&self) -> f64 {
        self.homes.len() as f64 / self.wall_secs.max(1e-9)
    }
}

/// Runs one home to completion; its verdict is the checker's.
/// Returns the home's summary and its full observability snapshot.
#[must_use]
pub fn run_home(spec: &HomeSpec) -> (HomeSummary, ObsSnapshot) {
    let out = run_delivery(&spec.params.to_scenario(spec.seed));
    let summary = HomeSummary {
        spec: spec.clone(),
        emitted: out.emitted,
        delivered: out.unique_delivered as u64,
        verdict: out.verdict,
    };
    (summary, out.obs)
}

/// Runs the whole fleet on `threads` workers (0 = one per available
/// core). Panics inside a home propagate after the pool drains.
#[must_use]
pub fn run_fleet(manifest: &FleetManifest, threads: usize) -> FleetOutcome {
    let specs = manifest.expand().expect("manifest validated at parse time");
    // Record the thread count the pool actually runs with (clamped to
    // the home count) — `FleetOutcome::threads` feeds the scaling
    // report, which must not claim parallelism that never happened.
    let threads = match threads {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
    .min(specs.len().max(1));
    let started = Instant::now();
    let (results, mut merged) = run_pool(&specs, threads);
    let wall_secs = started.elapsed().as_secs_f64();

    let emitted: u64 = results.iter().map(|h| h.emitted).sum();
    let delivered: u64 = results.iter().map(|h| h.delivered).sum();
    let failed = results.iter().filter(|h| !h.verdict.passed()).count() as u64;
    merged.set_counter("fleet.homes", results.len() as u64);
    merged.set_counter("fleet.configs", manifest.config_count() as u64);
    merged.set_counter("fleet.homes_failed", failed);
    merged.set_counter("fleet.events_emitted", emitted);
    merged.set_counter("fleet.events_total", delivered);

    FleetOutcome {
        name: manifest.name.clone(),
        seed: manifest.seed,
        threads,
        homes: results,
        merged,
        wall_secs,
    }
}

/// The worker pool: `threads` workers self-schedule over the spec list
/// through one shared atomic cursor. Each completed home's snapshot is
/// merged into the shared snapshot at once; only the slim
/// [`HomeSummary`] is kept per home.
fn run_pool(specs: &[HomeSpec], threads: usize) -> (Vec<HomeSummary>, ObsSnapshot) {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<HomeSummary>>> = specs.iter().map(|_| Mutex::new(None)).collect();
    let merged = Mutex::new(ObsSnapshot::default());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // Claim (steal) the next unclaimed home off the queue.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                let (summary, obs) = run_home(spec);
                *slots[i]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(summary);
                merged
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .merge(&obs);
            });
        }
    });
    let summaries = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every home ran to completion")
        })
        .collect();
    let merged = merged
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    (summaries, merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::FleetManifest;

    const SMALL: &str = r#"
[fleet]
name = "exec-test"
seed = 9
homes_per_config = 2

[base]
processes = 3
rate_per_sec = 10
duration_secs = 4.0

[axes]
forwarding = ["ring", "broadcast"]
"#;

    #[test]
    fn fleet_runs_all_homes_and_passes() {
        let m = FleetManifest::from_text(SMALL).unwrap();
        let out = run_fleet(&m, 2);
        assert_eq!(out.homes.len(), 4);
        assert_eq!(out.homes_failed(), 0, "failure-free homes must pass");
        assert!(out.events_delivered() > 0);
        assert_eq!(out.merged.counter("fleet.homes"), 4);
        assert_eq!(out.merged.counter("fleet.homes_failed"), 0);
        assert_eq!(
            out.merged.counter("fleet.events_total"),
            out.events_delivered()
        );
        // Per-home app deliveries fold into the merged counter even
        // though homes no longer retain their snapshots: re-run each
        // home standalone and sum.
        let specs = m.expand().unwrap();
        assert_eq!(
            out.merged.counter("app.deliveries"),
            specs
                .iter()
                .map(|s| run_home(s).1.counter("app.deliveries"))
                .sum::<u64>()
        );
    }

    #[test]
    fn incremental_fold_is_thread_count_independent() {
        // Homes are merged in the order they finish, which differs
        // between thread counts; the merged result must not.
        let m = FleetManifest::from_text(SMALL).unwrap();
        let serial = run_fleet(&m, 1);
        let pooled = run_fleet(&m, 3);
        assert_eq!(serial.merged, pooled.merged);
        assert_eq!(serial.merged.to_json(), pooled.merged.to_json());
    }

    #[test]
    fn single_home_rerun_matches_fleet_member() {
        // The debugging contract: re-running one home standalone
        // reproduces exactly what it did inside the fleet. The fleet
        // keeps only the summary per home, so the check compares
        // summaries — and verifies the standalone run's full snapshot
        // is consistent with its own verdict.
        let m = FleetManifest::from_text(SMALL).unwrap();
        let fleet = run_fleet(&m, 3);
        let spec = m.expand().unwrap()[2].clone();
        let (solo, obs) = run_home(&spec);
        assert_eq!(solo, fleet.homes[2]);
        assert_eq!(obs.counter("app.deliveries") > 0, solo.delivered > 0);
    }
}
