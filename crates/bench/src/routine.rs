//! Routines-under-crash correctness experiment: the execution-integrity
//! suite behind `BENCH_routines.json`.
//!
//! The home under test runs a "leaving-home" routine — lights off,
//! thermostat down, door locked — staged across three actuators that
//! only the coordinating host adapts. A motion sensor triggers the
//! routine every fifth reading, and the sweep crashes the coordinator
//! (actor **and** its disk's unsynced tail) at millisecond offsets
//! around a trigger so the crash lands before staging, mid-staging,
//! between stage acks, and after the durable commit decision.
//!
//! For every run the harness judges the two paper-level invariants with
//! [`rivulet_core::probe::check`] (`tests/routine_suite.rs` asserts
//! them):
//!
//! 1. **All-or-nothing**: cross-checking each ledger instance's staged
//!    [`rivulet_types::CommandId`]s against the actuator probes' effect
//!    logs, a firing either applied *every* step or *none* — and
//!    nothing fired for instances the ledger shows aborted.
//! 2. **Tamper-evident ledger**: reopening the coordinator's WAL after
//!    the run (including recovered runs) yields a hash chain that
//!    [`LedgerVerifier::verify`] accepts end to end; tampering with any
//!    single entry is detected at its exact index.
//!
//! Every number is reproducible bit-exactly from `(seed, crash
//! offset)` — the CI job runs the sweep twice and `cmp`s the JSON.

use std::sync::Arc;

use rivulet_core::app::{AppBuilder, CombinedWindows, CombinerSpec, OpCtx, WindowSpec};
use rivulet_core::delivery::Delivery;
use rivulet_core::deploy::{Home, HomeBuilder};
use rivulet_core::probe::{check, ProbeData, Violation};
use rivulet_core::routine::RoutineSpec;
use rivulet_core::RivuletConfig;
use rivulet_devices::sensor::{EmissionSchedule, PayloadSpec};
use rivulet_net::sim::{SimConfig, SimNet};
use rivulet_obs::ObsSnapshot;
use rivulet_storage::{
    LedgerEntry, LedgerVerifier, RoutineTransition, SimBackend, StorageBackend, Wal, WalOptions,
};
use rivulet_types::{
    ActuationState, AppId, CommandKind, Duration, EventKind, ProcessId, RoutineId, Time,
};

/// The routine under test.
pub const ROUTINE: RoutineId = RoutineId(1);

/// Virtual instant of the trigger emission the crash sweep brackets
/// (the sensor's fifth-reading trigger closest to 10 s).
pub const CRASH_BASE: Time = Time::from_secs(10);

/// One routines-under-crash run configuration.
#[derive(Debug, Clone)]
pub struct RoutineScenario {
    /// Coordinator crash offset from [`CRASH_BASE`]; `None` runs the
    /// crash-free baseline.
    pub crash_offset: Option<Duration>,
    /// Virtual run length.
    pub duration: Duration,
    /// Seed for the simulator, the disks, and the ledger chain.
    pub seed: u64,
}

/// Measurements of one run.
#[derive(Debug, Clone)]
pub struct RoutineOutcome {
    /// Firings triggered at any coordinator (incl. refused ones).
    pub triggered: u64,
    /// Firings that committed.
    pub committed: u64,
    /// Firings that aborted.
    pub aborted: u64,
    /// Aborted firings whose compensation was issued.
    pub compensated: u64,
    /// Triggers refused because the acting coordinator could not reach
    /// every target (the post-crash stand-in, here).
    pub unreachable: u64,
    /// Ledger instances staged (probe ground truth).
    pub instances: usize,
    /// Instances that fired *some but not all* staged steps — the
    /// atomicity violation the suite exists to rule out.
    pub partial_firings: usize,
    /// Non-committed instances that fired anything at all.
    pub phantom_firings: usize,
    /// Entries read back from the coordinator's reopened WAL.
    pub ledger_entries: usize,
    /// First broken chain link, if verification failed.
    pub ledger_broken: Option<usize>,
    /// The recovered ledger itself (for corruption probes downstream).
    pub ledger: Vec<LedgerEntry>,
    /// Full observability snapshot of the run.
    pub obs: ObsSnapshot,
}

/// Runs one routines-under-crash scenario.
///
/// # Panics
///
/// Panics on malformed deployments (a harness bug, not a measurement).
#[must_use]
pub fn run_routine_scenario(cfg: &RoutineScenario) -> RoutineOutcome {
    let mut net = SimNet::new(SimConfig::with_seed(cfg.seed));
    net.recorder().set_enabled(true);
    let config = RivuletConfig::default()
        .with_routines(true)
        .with_routine_ledger_seed(cfg.seed)
        .with_routine_stage_timeout(Duration::from_secs(1));
    let mut home = HomeBuilder::new(&mut net).with_config(config);
    let hosts: Vec<ProcessId> = (0..3).map(|i| home.add_host(format!("host{i}"))).collect();
    let backends: Vec<Arc<SimBackend>> = (0..3)
        .map(|i| Arc::new(SimBackend::new(cfg.seed.wrapping_mul(131).wrapping_add(i))))
        .collect();
    let wal_options = WalOptions {
        segment_max_bytes: 64 * 1024,
        ..WalOptions::default()
    };
    let for_factory = backends.clone();
    let mut home = home.with_storage(
        wal_options,
        Duration::from_secs(5),
        move |pid: ProcessId| {
            Arc::clone(&for_factory[pid.as_u32() as usize]) as Arc<dyn StorageBackend>
        },
    );

    let (sensor, _emissions) = home.add_push_sensor(
        "motion",
        PayloadSpec::KindOnly(EventKind::Motion),
        EmissionSchedule::Periodic(Duration::from_secs(1)),
        &hosts,
    );
    // All three targets are adapted by host 0 only: it is the routine
    // coordinator, and a post-crash stand-in can never stage.
    let reachers = [hosts[0]];
    let (lights, lights_probe) =
        home.add_actuator("lights", ActuationState::Switch(true), &reachers);
    let (thermostat, thermostat_probe) =
        home.add_actuator("thermostat", ActuationState::Level(21.0), &reachers);
    let (lock, lock_probe) = home.add_actuator("lock", ActuationState::Switch(false), &reachers);

    let probe = home.add_routine(
        RoutineSpec::new(ROUTINE, "leaving-home")
            .step_compensated(
                lights,
                CommandKind::Set(ActuationState::Switch(false)),
                CommandKind::Set(ActuationState::Switch(true)),
            )
            .step(thermostat, CommandKind::Set(ActuationState::Level(16.0)))
            .step_compensated(
                lock,
                CommandKind::Set(ActuationState::Switch(true)),
                CommandKind::Set(ActuationState::Switch(false)),
            ),
    );

    // Every fifth reading requests the routine; the anchor keeps the
    // active logic node on host 0 while it is alive.
    let app = AppBuilder::new(AppId(1), "scene")
        .operator(
            "leaving",
            CombinerSpec::Any,
            |ctx: &mut OpCtx, w: &CombinedWindows| {
                if w.all_events().any(|e| e.id.seq % 5 == 4) {
                    ctx.run_routine(ROUTINE);
                }
            },
        )
        .sensor(sensor, Delivery::Gapless, WindowSpec::count(1))
        .actuator(lights, Delivery::Gapless)
        .done()
        .build()
        .expect("valid app");
    let _app_probe = home.add_app(app);
    let home: Home = home.build();

    if let Some(offset) = cfg.crash_offset {
        let h0 = home.actor_of(hosts[0]);
        let crash_at = CRASH_BASE + offset;
        net.crash_at(h0, crash_at);
        net.run_until(crash_at + Duration::from_millis(1));
        // The power loss hits the disk too: everything unsynced is
        // gone. Ledger appends sync per entry, so the chain survives.
        backends[0].crash();
        net.recover_at(h0, crash_at + Duration::from_secs(5));
    }
    net.run_until(Time::ZERO + cfg.duration);

    // Reopen the coordinator's WAL (recovered runs included); the
    // checker verifies its hash chain end to end and cross-checks each
    // instance's staged command ids against the actuators' effects.
    let (_wal, recovered) = Wal::open(
        Arc::clone(&backends[0]) as Arc<dyn StorageBackend>,
        wal_options,
    )
    .expect("reopen coordinator wal");
    let ledger = recovered.ledger;
    let instances = probe.instances();
    let staged = instances.len();
    let reached = |finals: &[RoutineTransition]| {
        let reached = instances.iter().filter(|r| finals.contains(&r.state));
        reached.count() as u64
    };
    let committed = reached(&[RoutineTransition::Committed]);
    let aborted = reached(&[RoutineTransition::Aborted, RoutineTransition::Compensated]);
    let compensated = reached(&[RoutineTransition::Compensated]);
    let verdict = check(&ProbeData {
        applied: [&lights_probe, &thermostat_probe, &lock_probe]
            .iter()
            .flat_map(|p| p.effects().into_iter().map(|(_, c, _)| c))
            .collect(),
        instances,
        ledger: Some((cfg.seed, ledger.clone())),
        ..ProbeData::default()
    });
    let count =
        |rule: fn(&Violation) -> bool| verdict.violations.iter().filter(|v| rule(v)).count();

    RoutineOutcome {
        triggered: probe.triggered(),
        committed,
        aborted,
        compensated,
        unreachable: probe.unreachable(),
        instances: staged,
        partial_firings: count(|v| matches!(v, Violation::PartialFiring(_))),
        phantom_firings: count(|v| matches!(v, Violation::UncommittedFiring(_))),
        ledger_entries: ledger.len(),
        ledger_broken: verdict.violations.iter().find_map(|v| match v {
            Violation::BrokenLedger(index) => Some(*index),
            _ => None,
        }),
        ledger,
        obs: net.obs_snapshot(),
    }
}

/// One row of the routines-under-crash table.
#[derive(Debug, Clone)]
pub struct RoutineRow {
    /// Crash offset from [`CRASH_BASE`] in milliseconds; `None` is the
    /// crash-free baseline.
    pub crash_ms: Option<u64>,
    /// The run's measurements.
    pub outcome: RoutineOutcome,
}

/// The crash offsets (ms after [`CRASH_BASE`]) the full sweep visits:
/// before the trigger reading is delivered, during staging, between
/// stage acks, and after the durable commit decision.
pub const CRASH_OFFSETS_MS: [u64; 10] = [0, 1, 2, 3, 4, 5, 6, 8, 10, 20];

/// Runs the sweep: the crash-free baseline plus one run per crash
/// offset.
#[must_use]
pub fn routines_table(offsets_ms: &[u64], duration: Duration, seed: u64) -> Vec<RoutineRow> {
    let mut rows = vec![RoutineRow {
        crash_ms: None,
        outcome: run_routine_scenario(&RoutineScenario {
            crash_offset: None,
            duration,
            seed,
        }),
    }];
    for &ms in offsets_ms {
        rows.push(RoutineRow {
            crash_ms: Some(ms),
            outcome: run_routine_scenario(&RoutineScenario {
                crash_offset: Some(Duration::from_millis(ms)),
                duration,
                seed,
            }),
        });
    }
    rows
}

/// Tampers with every entry of `ledger` in turn and counts how many
/// corruptions [`LedgerVerifier::verify`] pinpoints at the exact
/// tampered index. Returns `(entries, exact_detections)` —
/// `tests/routine_suite.rs` requires them equal.
#[must_use]
pub fn corruption_exactness(seed: u64, ledger: &[LedgerEntry]) -> (usize, usize) {
    let mut exact = 0usize;
    for k in 0..ledger.len() {
        let mut tampered = ledger.to_vec();
        tampered[k].instance ^= 1;
        if LedgerVerifier::verify(seed, &tampered)
            .err()
            .is_some_and(|broken| broken.index == k)
        {
            exact += 1;
        }
    }
    (ledger.len(), exact)
}

/// Renders the sweep as a markdown table (EXPERIMENTS.md format).
#[must_use]
pub fn render_table(rows: &[RoutineRow]) -> String {
    let mut out = String::from(
        "| crash | staged | committed | aborted | compensated | partial | phantom | ledger | verified |\n\
         |-------|--------|-----------|---------|-------------|---------|---------|--------|----------|\n",
    );
    for r in rows {
        let o = &r.outcome;
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            r.crash_ms
                .map_or_else(|| "none".to_owned(), |ms| format!("+{ms}ms")),
            o.instances,
            o.committed,
            o.aborted,
            o.compensated,
            o.partial_firings,
            o.phantom_firings,
            o.ledger_entries,
            if o.ledger_broken.is_none() {
                "ok"
            } else {
                "BROKEN"
            },
        ));
    }
    out
}

/// Renders the sweep plus the corruption probe as the
/// `BENCH_routines.json` document.
#[must_use]
pub fn render_json(rows: &[RoutineRow], corruption: (usize, usize)) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            let o = &r.outcome;
            format!(
                concat!(
                    "{{\"crash_ms\": {}, \"triggered\": {}, \"staged\": {}, ",
                    "\"committed\": {}, \"aborted\": {}, \"compensated\": {}, ",
                    "\"unreachable\": {}, \"partial_firings\": {}, ",
                    "\"phantom_firings\": {}, \"ledger_entries\": {}, ",
                    "\"ledger_ok\": {}, \"recovered_aborts\": {}, \"recommits\": {}}}"
                ),
                r.crash_ms
                    .map_or_else(|| "null".to_owned(), |ms| ms.to_string()),
                o.triggered,
                o.instances,
                o.committed,
                o.aborted,
                o.compensated,
                o.unreachable,
                o.partial_firings,
                o.phantom_firings,
                o.ledger_entries,
                o.ledger_broken.is_none(),
                o.obs.counter("routine.recovered_aborts"),
                o.obs.counter("routine.recommits"),
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n  \"rows\": [\n    {}\n  ],\n",
            "  \"corruption\": {{\"entries\": {}, \"exact_detections\": {}}}\n}}\n"
        ),
        body.join(",\n    "),
        corruption.0,
        corruption.1,
    )
}
