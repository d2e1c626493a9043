//! Device-fault injection & self-healing suite.
//!
//! Three contracts, end to end:
//!
//! 1. **Toggle invariance** — attaching a rate-0 [`FaultPlan`] and/or
//!    enabling the repair layer on a clean run changes *nothing*: the
//!    full delivery trace and the exported `ObsSnapshot` JSON are
//!    byte-identical to a seed-matched baseline.
//! 2. **Reproducibility** — a faulty run is a pure function of its
//!    seed: same `(seed, kind, rate, repair)` twice → identical
//!    outcome fields and byte-identical obs JSON.
//! 3. **Correctness floors** — at a fixed fault rate, switching the
//!    repair layer on never lowers delivery correctness for any fault
//!    kind, strictly raises it for stuck/flapping/drift/ghost, and a
//!    quarantined ghost-storming sensor stops contributing events.
//!
//! The runs here reuse the `rivulet-bench` fault harness, so every
//! asserted number is the same one `BENCH_fault.json` commits.

use rivulet::core::app::{AppBuilder, CombinedWindows, CombinerSpec, OpCtx, WindowSpec};
use rivulet::core::delivery::Delivery;
use rivulet::core::deploy::{Home, HomeBuilder};
use rivulet::core::RivuletConfig;
use rivulet::devices::fault::{FaultKind, FaultPlan, FaultSpec};
use rivulet::devices::sensor::{EmissionSchedule, PayloadSpec};
use rivulet::devices::value::ValueModel;
use rivulet::net::sim::{SimConfig, SimNet};
use rivulet::types::{ActuationState, AppId, Duration, ProcessId, Time};
use rivulet_bench::fault::{run_fault, run_repoll, FaultOutcome, FaultScenario};

fn noop() -> impl Fn(&mut OpCtx, &CombinedWindows) + Send + Sync {
    |_: &mut OpCtx, _: &CombinedWindows| {}
}

/// One delivery as `(at, by, seq, value bits)` — bit-comparable.
type TraceEntry = (Time, ProcessId, u64, Option<u64>);

/// A three-host home with three redundant scalar (sine) sensors and an
/// FT operator — the shape where the repair layer's detectors actually
/// observe values — optionally wrapped in a fault plan. Returns the
/// full delivery trace plus the obs JSON export.
fn scalar_trace(plan: Option<FaultPlan>, repair: bool, seed: u64) -> (Vec<TraceEntry>, String) {
    let mut net = SimNet::new(SimConfig::with_seed(seed));
    net.recorder().set_enabled(true);
    let config = RivuletConfig::default().with_repair(repair);
    let mut home = HomeBuilder::new(&mut net).with_config(config);
    let hosts: Vec<ProcessId> = (0..3).map(|i| home.add_host(format!("host{i}"))).collect();
    let model = ValueModel::Sine {
        base: 21.0,
        amplitude: 5.0,
        period_secs: 120.0,
    };
    let mut sensors = Vec::new();
    for i in 0..3 {
        let (id, _) = home.add_push_sensor(
            format!("thermo{i}"),
            PayloadSpec::Scalar(model.clone()),
            EmissionSchedule::Periodic(Duration::from_secs(1)),
            &hosts,
        );
        sensors.push(id);
    }
    let (anchor, _) = home.add_actuator("anchor", ActuationState::Switch(false), &[hosts[0]]);
    let mut op = AppBuilder::new(AppId(1), "ft").operator(
        "Average",
        CombinerSpec::FaultTolerant { tolerate: 1 },
        noop(),
    );
    for s in &sensors {
        op = op.sensor(*s, Delivery::Gapless, WindowSpec::count(1));
    }
    let app = op
        .actuator(anchor, Delivery::Gapless)
        .done()
        .build()
        .expect("valid app");
    let probe = home.add_app(app);
    if let Some(plan) = plan {
        home = home.with_faults(plan);
    }
    let _home: Home = home.build();
    net.run_until(Time::from_secs(60));

    let trace: Vec<(Time, ProcessId, u64, Option<u64>)> = probe
        .deliveries()
        .iter()
        .map(|d| (d.at, d.by, d.event.seq, d.value.map(f64::to_bits)))
        .collect();
    (trace, net.obs_snapshot().to_json())
}

/// A rate-0 plan still *wraps* every device in its fault shim; nothing
/// may leak from the wrapping itself.
fn rate_zero_plan() -> FaultPlan {
    let mut plan = FaultPlan::new(7);
    for (i, kind) in FaultKind::ALL.iter().enumerate() {
        plan = plan.sensor(
            rivulet::types::SensorId(i as u32 % 3),
            FaultSpec::new(*kind, 0.0),
        );
    }
    plan
}

#[test]
fn rate_zero_fault_plan_is_byte_invariant() {
    let baseline = scalar_trace(None, false, 7);
    let planned = scalar_trace(Some(rate_zero_plan()), false, 7);
    assert!(!baseline.0.is_empty(), "the run delivered something");
    assert_eq!(
        baseline.0, planned.0,
        "rate-0 plan must not perturb the delivery trace"
    );
    assert_eq!(
        baseline.1, planned.1,
        "rate-0 plan must not perturb the obs JSON"
    );
}

#[test]
fn repair_toggle_on_a_clean_run_is_byte_invariant() {
    let off = scalar_trace(None, false, 7);
    let on = scalar_trace(None, true, 7);
    assert_eq!(
        off.0, on.0,
        "repair on a clean run must not perturb the delivery trace"
    );
    assert_eq!(
        off.1, on.1,
        "repair on a clean run must not perturb the obs JSON"
    );
    // And both toggles together against the same baseline.
    let both = scalar_trace(Some(rate_zero_plan()), true, 7);
    assert_eq!(off.0, both.0);
    assert_eq!(off.1, both.1);
}

#[test]
fn faulty_runs_are_reproducible_from_their_seed() {
    let cfg = FaultScenario::new(FaultKind::Flapping, 0.5, true);
    let a = run_fault(&cfg);
    let b = run_fault(&cfg);
    assert_eq!(a.emitted, b.emitted);
    assert_eq!(a.delivered, b.delivered);
    assert_eq!(a.correct, b.correct);
    assert_eq!(a.ghosts_injected, b.ghosts_injected);
    assert_eq!(a.suppressed, b.suppressed);
    assert_eq!(
        a.obs.to_json(),
        b.obs.to_json(),
        "same seed must export byte-identical obs JSON"
    );
    assert!(a.delivered > 0, "the faulty run still delivered");
}

/// Runs one kind at the given rate with repair off and on.
fn off_on(kind: FaultKind, rate: f64) -> (FaultOutcome, FaultOutcome) {
    let off = run_fault(&FaultScenario::new(kind, rate, false));
    let on = run_fault(&FaultScenario::new(kind, rate, true));
    (off, on)
}

#[test]
fn repair_never_lowers_correctness_for_any_fault_kind() {
    for kind in FaultKind::ALL {
        let (off, on) = off_on(kind, 0.5);
        assert!(
            on.correctness() >= off.correctness(),
            "{kind:?}: repair on {:.4} < off {:.4}",
            on.correctness(),
            off.correctness()
        );
    }
}

#[test]
fn repair_strictly_improves_value_fault_correctness() {
    for kind in [FaultKind::StuckAt, FaultKind::Flapping, FaultKind::Drift] {
        let (off, on) = off_on(kind, 0.5);
        assert!(
            off.correctness() < 1.0,
            "{kind:?}: the fault must actually hurt (off {:.4})",
            off.correctness()
        );
        assert!(
            on.correctness() > off.correctness(),
            "{kind:?}: repair on {:.4} must beat off {:.4}",
            on.correctness(),
            off.correctness()
        );
        assert!(
            on.obs.counter("repair.substitutions") > 0,
            "{kind:?}: the improvement must come from substitutions"
        );
        assert!(
            on.obs.counter(kind.counter_name()) > 0,
            "{kind:?}: injection must surface in fault.* counters"
        );
    }
}

#[test]
fn quarantined_ghost_sensor_stops_contributing() {
    let (off, on) = off_on(FaultKind::Ghost, 0.5);
    assert!(
        off.ghosts_injected > 20,
        "the plan injected ghosts: {}",
        off.ghosts_injected
    );
    assert!(
        off.ghosts_delivered > 0,
        "without repair, ghosts reach the app"
    );
    assert!(
        on.correctness() > off.correctness(),
        "repair on {:.4} must beat off {:.4}",
        on.correctness(),
        off.correctness()
    );
    assert!(
        on.obs.counter("repair.quarantines") > 0,
        "the ghost storm must trip quarantine"
    );
    assert!(
        on.obs.counter("repair.quarantined_drops") > 0,
        "post-quarantine events must be dropped, not delivered"
    );
    assert!(
        on.ghosts_delivered < off.ghosts_delivered,
        "quarantine must cut ghost deliveries ({} vs {})",
        on.ghosts_delivered,
        off.ghosts_delivered
    );
}

#[test]
fn stall_repolls_recover_missed_poll_answers() {
    let off = run_repoll(0.6, false, 42);
    let on = run_repoll(0.6, true, 42);
    assert!(off.suppressed > 0, "the fault suppressed poll answers");
    assert!(
        on.obs.counter("repair.repolls") > 0,
        "the stall detector must issue re-polls"
    );
    assert!(
        on.delivered > off.delivered,
        "re-polls must recover readings ({} vs {})",
        on.delivered,
        off.delivered
    );
    assert!(
        on.correct >= off.correct,
        "recovered readings are correct ones"
    );
}
