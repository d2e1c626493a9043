//! Routine execution engine & execution-integrity ledger suite.
//!
//! Four contracts, end to end:
//!
//! 1. **Toggle invariance** — registering a routine and an app that
//!    requests it changes *nothing* while `Config::routines` is off:
//!    the full delivery trace and the exported `ObsSnapshot` JSON are
//!    byte-identical to a seed-matched baseline that never heard of
//!    routines (the pattern of `tests/fault_suite.rs`).
//! 2. **Atomicity** — crashing the coordinating process (actor *and*
//!    disk tail) at every boundary of the staged two-phase protocol
//!    never yields a partial firing: each instance applies all of its
//!    steps or none, and non-committed instances apply nothing.
//! 3. **Ledger integrity** — the coordinator's hash-chained ledger
//!    verifies end to end after every run, including recovered ones;
//!    tampering with any single entry is detected at its exact index.
//! 4. **Reproducibility** — a routines-under-crash run is a pure
//!    function of its seed.
//!
//! The crash runs reuse the `rivulet-bench` routine harness, so every
//! asserted number is the same one `BENCH_routines.json` commits.

use rivulet::core::app::{AppBuilder, CombinedWindows, CombinerSpec, OpCtx, WindowSpec};
use rivulet::core::delivery::Delivery;
use rivulet::core::deploy::{Home, HomeBuilder};
use rivulet::core::{InstanceRecord, RivuletConfig, RoutineProbe, RoutineSpec};
use rivulet::devices::sensor::{EmissionSchedule, PayloadSpec};
use rivulet::devices::{ActuatorProbe, FaultKind, FaultPlan, FaultSpec};
use rivulet::net::sim::{SimConfig, SimNet};
use rivulet::storage::{LedgerVerifier, RoutineTransition};
use rivulet::types::{
    ActuationState, ActuatorId, AppId, CommandId, CommandKind, Duration, EventKind, ProcessId,
    RoutineId, Time,
};
use rivulet_bench::routine::{
    corruption_exactness, run_routine_scenario, RoutineScenario, CRASH_BASE, CRASH_OFFSETS_MS,
};
use std::sync::Arc;

/// One delivery as `(at, by, seq)` — bit-comparable.
type TraceEntry = (Time, ProcessId, u64);

/// A three-host home with one periodic sensor and an anchor actuator.
/// With `register` set, a one-step routine on the anchor is declared
/// and the app requests it on every fifth reading — but the platform
/// config leaves `routines` at its default (off), so the request must
/// be dropped before it has any observable effect. Returns the full
/// delivery trace plus the obs JSON export.
fn routines_off_trace(register: bool, seed: u64) -> (Vec<TraceEntry>, String) {
    let mut net = SimNet::new(SimConfig::with_seed(seed));
    net.recorder().set_enabled(true);
    let mut home = HomeBuilder::new(&mut net).with_config(RivuletConfig::default());
    let hosts: Vec<ProcessId> = (0..3).map(|i| home.add_host(format!("host{i}"))).collect();
    let (sensor, _) = home.add_push_sensor(
        "motion",
        PayloadSpec::KindOnly(EventKind::Motion),
        EmissionSchedule::Periodic(Duration::from_secs(1)),
        &hosts,
    );
    let (anchor, anchor_probe) =
        home.add_actuator("anchor", ActuationState::Switch(false), &[hosts[0]]);
    if register {
        let _ = home.add_routine(
            RoutineSpec::new(RoutineId(1), "scene")
                .step(anchor, CommandKind::Set(ActuationState::Switch(true))),
        );
    }
    let app = AppBuilder::new(AppId(1), "scene")
        .operator(
            "leaving",
            CombinerSpec::Any,
            move |ctx: &mut OpCtx, w: &CombinedWindows| {
                if register && w.all_events().any(|e| e.id.seq % 5 == 4) {
                    ctx.run_routine(RoutineId(1));
                }
            },
        )
        .sensor(sensor, Delivery::Gapless, WindowSpec::count(1))
        .actuator(anchor, Delivery::Gapless)
        .done()
        .build()
        .expect("valid app");
    let probe = home.add_app(app);
    let _home: Home = home.build();
    net.run_until(Time::from_secs(60));

    assert_eq!(
        anchor_probe.effect_count(),
        0,
        "with routines off nothing may actuate"
    );
    let trace: Vec<TraceEntry> = probe
        .deliveries()
        .iter()
        .map(|d| (d.at, d.by, d.event.seq))
        .collect();
    (trace, net.obs_snapshot().to_json())
}

#[test]
fn routines_off_is_byte_invariant() {
    let baseline = routines_off_trace(false, 7);
    let toggled = routines_off_trace(true, 7);
    assert!(!baseline.0.is_empty(), "the run delivered something");
    assert_eq!(
        baseline.0, toggled.0,
        "a registered-but-disabled routine must not perturb the delivery trace"
    );
    assert_eq!(
        baseline.1, toggled.1,
        "a registered-but-disabled routine must not perturb the obs JSON"
    );
    assert!(
        !baseline.1.contains("routine."),
        "no routine.* keys may exist on a routines-off run"
    );
    assert!(
        !baseline.1.contains("ledger."),
        "no ledger.* keys may exist on a routines-off run"
    );
}

#[test]
fn crash_free_run_commits_every_instance() {
    let o = run_routine_scenario(&RoutineScenario {
        crash_offset: None,
        duration: Duration::from_secs(30),
        seed: 42,
    });
    assert!(o.instances >= 4, "staged {} instances", o.instances);
    assert_eq!(o.committed as usize, o.instances, "every staging commits");
    assert_eq!(o.aborted, 0);
    assert_eq!(o.partial_firings, 0);
    assert_eq!(o.phantom_firings, 0);
    assert_eq!(
        o.ledger_entries,
        o.instances * 2,
        "one Staged + one Committed entry per instance"
    );
    assert_eq!(o.ledger_broken, None);
    assert_eq!(o.obs.counter("routine.committed"), o.committed);
    assert!(o.obs.counter("ledger.appends") >= o.ledger_entries as u64);
}

#[test]
fn crash_at_every_stage_boundary_never_fires_partially() {
    for ms in CRASH_OFFSETS_MS {
        let o = run_routine_scenario(&RoutineScenario {
            crash_offset: Some(Duration::from_millis(ms)),
            duration: Duration::from_secs(30),
            seed: 42,
        });
        assert_eq!(
            o.partial_firings, 0,
            "crash at +{ms}ms: an instance fired some but not all steps"
        );
        assert_eq!(
            o.phantom_firings, 0,
            "crash at +{ms}ms: a non-committed instance fired"
        );
        assert_eq!(
            o.ledger_broken, None,
            "crash at +{ms}ms: recovered ledger chain broken"
        );
    }
}

#[test]
fn interrupted_staging_aborts_and_compensates_on_recovery() {
    // +2 ms lands inside the staging round trip (radio ≈1 ms/hop):
    // the Staged entry is durable, no commit was decided, so recovery
    // must abort the instance and issue its compensation.
    let o = run_routine_scenario(&RoutineScenario {
        crash_offset: Some(Duration::from_millis(2)),
        duration: Duration::from_secs(30),
        seed: 42,
    });
    assert!(o.aborted >= 1, "the interrupted staging aborted");
    assert!(o.compensated >= 1, "its compensation was issued");
    assert!(o.obs.counter("routine.recovered_aborts") >= 1);
    assert!(o.obs.counter("ledger.recovered_entries") > 0);
    assert_eq!(o.ledger_broken, None, "recovered chain verifies");
    // The recovered coordinator still commits later firings.
    assert!(o.committed >= 4, "committed {} after recovery", o.committed);
}

#[test]
fn corrupted_ledger_entry_is_detected_at_exact_index() {
    let o = run_routine_scenario(&RoutineScenario {
        crash_offset: None,
        duration: Duration::from_secs(30),
        seed: 42,
    });
    assert!(o.ledger.len() >= 8, "ledger has {} entries", o.ledger.len());
    // The untampered chain verifies and yields the full audit trail.
    let trail = LedgerVerifier::verify(42, &o.ledger).expect("clean chain verifies");
    assert_eq!(trail.len(), o.ledger.len());
    // Tampering with any single entry breaks the chain at that index.
    let (entries, exact) = corruption_exactness(42, &o.ledger);
    assert_eq!(
        exact, entries,
        "every tampered entry must be pinpointed at its own index"
    );
}

#[test]
fn routines_under_crash_are_reproducible() {
    let cfg = RoutineScenario {
        crash_offset: Some(Duration::from_millis(3)),
        duration: Duration::from_secs(30),
        seed: 42,
    };
    let a = run_routine_scenario(&cfg);
    let b = run_routine_scenario(&cfg);
    assert_eq!(a.ledger, b.ledger, "the ledger is a pure function of seed");
    assert_eq!(a.triggered, b.triggered);
    assert_eq!(a.committed, b.committed);
    assert_eq!(a.aborted, b.aborted);
    assert_eq!(a.compensated, b.compensated);
    assert_eq!(a.obs.to_json(), b.obs.to_json(), "obs JSON is byte-stable");
}

/// The home of the coordinator-change tests below: three hosts, a
/// motion sensor every second, and an app on host 0 that runs routine
/// 1 — lights off, lock on — on every fifth reading. Routines on,
/// nothing durable, failure timeout 2 s, seed 11. The lights are
/// adapted by `lights_by`, the lock by hosts 0 and 1.
struct RoutineHome {
    net: SimNet,
    home: Home,
    hosts: Vec<ProcessId>,
    routine: Arc<RoutineProbe>,
    actuators: [Arc<ActuatorProbe>; 2],
}

fn routine_home(lights_by: &[usize], faults: FaultPlan) -> RoutineHome {
    let mut net = SimNet::new(SimConfig::with_seed(11));
    let config = RivuletConfig::default()
        .with_routines(true)
        .with_failure_timeout(Duration::from_secs(2));
    let mut home = HomeBuilder::new(&mut net)
        .with_config(config)
        .with_faults(faults);
    let hosts: Vec<ProcessId> = (0..3).map(|i| home.add_host(format!("host{i}"))).collect();
    let (sensor, _) = home.add_push_sensor(
        "motion",
        PayloadSpec::KindOnly(EventKind::Motion),
        EmissionSchedule::Periodic(Duration::from_secs(1)),
        &hosts,
    );
    let lights_by: Vec<ProcessId> = lights_by.iter().map(|i| hosts[*i]).collect();
    let (lights, lights_probe) =
        home.add_actuator("lights", ActuationState::Switch(true), &lights_by);
    let lock_by = [hosts[0], hosts[1]];
    let (lock, lock_probe) = home.add_actuator("lock", ActuationState::Switch(false), &lock_by);
    let routine = home.add_routine(
        RoutineSpec::new(RoutineId(1), "leaving-home")
            .step(lights, CommandKind::Set(ActuationState::Switch(false)))
            .step(lock, CommandKind::Set(ActuationState::Switch(true))),
    );
    let app = AppBuilder::new(AppId(1), "scene")
        .operator(
            "leaving",
            CombinerSpec::Any,
            |ctx: &mut OpCtx, w: &CombinedWindows| {
                if w.all_events().any(|e| e.id.seq % 5 == 4) {
                    ctx.run_routine(RoutineId(1));
                }
            },
        )
        .sensor(sensor, Delivery::Gapless, WindowSpec::count(1))
        .actuator(lights, Delivery::Gapless)
        .done()
        .build()
        .expect("valid app");
    let _ = home.add_app(app);
    let home = home.build();
    RoutineHome {
        net,
        home,
        hosts,
        routine,
        actuators: [lights_probe, lock_probe],
    }
}

impl RoutineHome {
    /// The ids of every command an actuator applied.
    fn applied(&self) -> Vec<CommandId> {
        let effects = self.actuators.iter().flat_map(|p| p.effects());
        effects.map(|(_, id, _)| id).collect()
    }

    /// Host 0 is down from 12 s to 20 s; the lights are adapted by
    /// host 0 only, so no other host can coordinate the routine, and
    /// host 0 coordinates again once it is back. Runs to 40 s and
    /// returns the instances staged after the restart.
    fn restart_host_0(&mut self) -> Vec<InstanceRecord> {
        let host_0 = self.home.actor_of(self.hosts[0]);
        self.net.crash_at(host_0, Time::from_secs(12));
        self.net.recover_at(host_0, Time::from_secs(20));
        self.net.run_until(Time::from_secs(20));
        let before = self.routine.instances().len();
        assert!(before >= 2, "host 0 staged {before} instances first");
        self.net.run_until(Time::from_secs(40));
        let after = self.routine.instances().split_off(before);
        assert!(after.len() >= 2, "host 0 staged {} after", after.len());
        assert!(after.iter().all(|r| r.coordinator == self.hosts[0]));
        after
    }
}

/// Every coordinator numbers its routine instances from 0 at its first
/// start, so a failover coordinator's instance 0 must not meet its
/// predecessor's at the actuators. Hosts 0 and 1 both adapt the
/// routine's two actuators; host 0 coordinates until it crashes at
/// 12 s, host 1 takes over, and every instance host 1's probe shows
/// committed must have fired all of its steps.
#[test]
fn a_failover_coordinator_fires_every_instance_it_commits() {
    let mut s = routine_home(&[0, 1], FaultPlan::new(11));
    s.net
        .crash_at(s.home.actor_of(s.hosts[0]), Time::from_secs(12));
    s.net.run_until(Time::from_secs(40));

    let applied = s.applied();
    let instances = s.routine.instances();
    let committed_by = |host: ProcessId| {
        let by_host = instances.iter().filter(move |r| r.coordinator == host);
        by_host.filter(|r| r.state == RoutineTransition::Committed)
    };
    assert!(
        committed_by(s.hosts[0]).count() >= 2,
        "host 0 committed first"
    );
    assert!(committed_by(s.hosts[1]).count() >= 4, "host 1 took over");
    for record in committed_by(s.hosts[1]) {
        let missing: Vec<_> = record
            .commands
            .iter()
            .filter(|(_, id)| !applied.contains(id))
            .collect();
        assert!(
            missing.is_empty(),
            "host 1's committed instance {} never fired {missing:?}",
            record.instance
        );
    }
}

/// A volatile coordinator that restarts numbers its instances above
/// every instance it numbered before, as it does its command ids: the
/// actuators still hold the earlier instances as committed, and an
/// instance that came back would never fire.
#[test]
fn a_restarted_coordinator_fires_every_instance_it_stages() {
    let mut s = routine_home(&[0], FaultPlan::new(11));
    let after = s.restart_host_0();
    let applied = s.applied();
    for record in &after {
        let fired = record.commands.iter().all(|(_, id)| applied.contains(id));
        assert!(
            record.state == RoutineTransition::Committed && fired,
            "instance {} staged after the restart reads {:?}, fired = {fired}",
            record.instance,
            record.state
        );
    }
}

/// A restarted coordinator's staging timer finds its instance although
/// the instance no longer fits the timer token's 32 bits: the lights
/// drop every stage frame, and every instance staged after the restart
/// times out and aborts.
#[test]
fn a_restarted_coordinators_staging_times_out_and_aborts() {
    let lights_deaf =
        FaultPlan::new(11).actuator(ActuatorId(0), FaultSpec::new(FaultKind::Missed, 1.0));
    let mut s = routine_home(&[0], lights_deaf);
    let after = s.restart_host_0();
    assert!(after.iter().any(|r| r.instance > u64::from(u32::MAX)));
    for record in &after {
        assert_eq!(
            record.state,
            RoutineTransition::Aborted,
            "instance {} staged after the restart",
            record.instance
        );
    }
    assert!(s.applied().is_empty(), "nothing fired");
}

/// A coordinator recovered from its log mints step and compensation
/// ids above every id its ledger already holds, without reading them
/// back: in chain order, each `(issuer, operator)`'s ids strictly
/// increase. The crash at +2 ms interrupts a staging, so recovery
/// compensates it and later firings stage afresh.
#[test]
fn a_recovered_coordinator_mints_ids_its_ledger_never_held() {
    let o = run_routine_scenario(&RoutineScenario {
        crash_offset: Some(Duration::from_millis(2)),
        duration: Duration::from_secs(30),
        seed: 42,
    });
    let recovered = CRASH_BASE + Duration::from_secs(5);
    let after = |t: RoutineTransition| {
        let entries = o.ledger.iter().filter(|e| e.at >= recovered);
        entries.filter(|e| e.transition == t).count()
    };
    assert!(after(RoutineTransition::Compensated) >= 1, "compensated");
    assert!(after(RoutineTransition::Staged) >= 2, "staged anew");
    let mut last = std::collections::BTreeMap::new();
    for entry in &o.ledger {
        for (_, id) in &entry.commands {
            if let Some(prev) = last.insert((id.issuer, id.operator), id.seq) {
                assert!(
                    id.seq > prev,
                    "{id} at {} follows {prev} in the ledger",
                    entry.at
                );
            }
        }
    }
    assert_eq!(o.partial_firings, 0);
    assert_eq!(o.ledger_broken, None);
}
