//! Correctness-vs-fault-rate experiment: the fault-injection &
//! self-healing figure family.
//!
//! The home under test has three redundant scalar sensors sharing one
//! deterministic diurnal [`ValueModel::Sine`] (pure in emission time,
//! so ground truth is recomputable from any delivery record), one
//! fault-tolerant operator (`FTCombiner`, tolerate 1) subscribing to
//! all three, and an actuator anchoring the active logic node. Sensor
//! 0 carries the injected fault; its peers stay clean and act as the
//! repair layer's witnesses.
//!
//! **Delivery correctness** of a run is the fraction of the faulted
//! sensor's *delivered* readings that lie within [`TOLERANCE`] of the
//! ground-truth model at their emission instant — exactly what an app
//! computing on the readings would experience. Every number is
//! reproducible bit-exactly from `(seed, fault kind, rate, repair)`;
//! `tests/fault_suite.rs` asserts (not just prints) that switching
//! repair on strictly improves correctness for the stuck, flapping,
//! drift, and ghost fault kinds.

use std::collections::BTreeSet;

use rivulet_core::app::{AppBuilder, CombinerSpec, PollSpec, WindowSpec};
use rivulet_core::delivery::Delivery;
use rivulet_core::deploy::{Home, HomeBuilder};
use rivulet_core::RivuletConfig;
use rivulet_devices::fault::{FaultKind, FaultPlan, FaultSpec};
use rivulet_devices::sensor::{EmissionSchedule, PayloadSpec};
use rivulet_devices::value::ValueModel;
use rivulet_net::sim::{SimConfig, SimNet};
use rivulet_obs::ObsSnapshot;
use rivulet_types::{AppId, Duration, EventId, ProcessId, Time};

/// Ground-truth sine parameters (shared by all three sensors).
const BASE: f64 = 21.0;
const AMPLITUDE: f64 = 5.0;
const PERIOD_SECS: f64 = 120.0;

/// A delivered reading within this distance of the model is "correct".
/// Wide enough for peer-midpoint substitution error (the sine moves
/// ~0.26/s, peers emit in the same 1 s slot), narrow enough that every
/// fault kind's corruption lands outside it.
pub const TOLERANCE: f64 = 1.0;

/// The ground-truth reading at emission instant `t`.
#[must_use]
pub fn ground_truth(t: Time) -> f64 {
    let raw = BASE + AMPLITUDE * (2.0 * std::f64::consts::PI * t.as_secs_f64() / PERIOD_SECS).sin();
    raw.max(0.0)
}

/// One correctness-vs-fault-rate run configuration.
#[derive(Debug, Clone)]
pub struct FaultScenario {
    /// The fault injected into sensor 0.
    pub kind: FaultKind,
    /// Per-attempt (or per-window) fault rate.
    pub rate: f64,
    /// Whether the platform's repair layer is on.
    pub repair: bool,
    /// Virtual run length.
    pub duration: Duration,
    /// Seed for both the simulator and the fault plan.
    pub seed: u64,
}

impl FaultScenario {
    /// The default experiment shape: 2 sine periods at 1 event/s.
    #[must_use]
    pub fn new(kind: FaultKind, rate: f64, repair: bool) -> Self {
        Self {
            kind,
            rate,
            repair,
            duration: Duration::from_secs(240),
            seed: 42,
        }
    }
}

/// Measurements of one run, restricted to the faulted sensor.
#[derive(Debug, Clone)]
pub struct FaultOutcome {
    /// Genuine (non-ghost) events the faulted sensor emitted.
    pub emitted: u64,
    /// Distinct delivered events from the faulted sensor.
    pub delivered: usize,
    /// Delivered events within [`TOLERANCE`] of ground truth.
    pub correct: usize,
    /// Ghost events the plan injected at the faulted sensor.
    pub ghosts_injected: usize,
    /// Ghost events that reached the app.
    pub ghosts_delivered: usize,
    /// Emissions the plan suppressed (missed + battery).
    pub suppressed: u64,
    /// Full observability snapshot of the run.
    pub obs: ObsSnapshot,
}

impl FaultOutcome {
    /// Delivery correctness: fraction of delivered faulted-sensor
    /// readings matching ground truth (1.0 when nothing arrived — an
    /// empty delivery set contains no wrong readings).
    #[must_use]
    pub fn correctness(&self) -> f64 {
        if self.delivered == 0 {
            return 1.0;
        }
        self.correct as f64 / self.delivered as f64
    }
}

/// Runs one correctness-vs-fault-rate scenario.
#[must_use]
pub fn run_fault(cfg: &FaultScenario) -> FaultOutcome {
    let mut net = SimNet::new(SimConfig::with_seed(cfg.seed));
    net.recorder().set_enabled(true);
    let config = RivuletConfig::default().with_repair(cfg.repair);
    let mut home = HomeBuilder::new(&mut net).with_config(config);
    let hosts: Vec<ProcessId> = (0..3).map(|i| home.add_host(format!("host{i}"))).collect();

    let model = ValueModel::Sine {
        base: BASE,
        amplitude: AMPLITUDE,
        period_secs: PERIOD_SECS,
    };
    let mut sensors = Vec::new();
    let mut probes = Vec::new();
    for i in 0..3 {
        let (id, probe) = home.add_push_sensor(
            format!("thermo{i}"),
            PayloadSpec::Scalar(model.clone()),
            EmissionSchedule::Periodic(Duration::from_secs(1)),
            &hosts,
        );
        sensors.push(id);
        probes.push(probe);
    }
    let (anchor, _) = home.add_actuator(
        "anchor",
        rivulet_types::ActuationState::Switch(false),
        &[hosts[0]],
    );

    let mut op = AppBuilder::new(AppId(1), "ft-average").operator(
        "Average",
        CombinerSpec::FaultTolerant { tolerate: 1 },
        |_: &mut rivulet_core::app::OpCtx, _: &rivulet_core::app::CombinedWindows| {},
    );
    for s in &sensors {
        op = op.sensor(*s, Delivery::Gapless, WindowSpec::count(1));
    }
    let app = op
        .actuator(anchor, Delivery::Gapless)
        .done()
        .build()
        .expect("valid app");
    let app_probe = home.add_app(app);

    let plan = FaultPlan::new(cfg.seed).sensor(sensors[0], FaultSpec::new(cfg.kind, cfg.rate));
    let home = home.with_faults(plan);
    let fault_probe = home.fault_probe();
    let _home: Home = home.build();

    net.run_until(Time::ZERO + cfg.duration);

    let faulted = sensors[0];
    let ghost_ids: BTreeSet<EventId> = fault_probe.ghosts().into_iter().collect();
    let mut seen: BTreeSet<EventId> = BTreeSet::new();
    let mut correct = 0usize;
    for record in app_probe.deliveries() {
        if record.event.sensor != faulted || !seen.insert(record.event) {
            continue;
        }
        let Some(value) = record.value else { continue };
        if (value - ground_truth(record.emitted_at)).abs() <= TOLERANCE {
            correct += 1;
        }
    }
    let delivered = seen.len();
    let obs = net.obs_snapshot();
    let ghosts_delivered = seen.iter().filter(|id| ghost_ids.contains(id)).count();
    FaultOutcome {
        emitted: probes[0].emitted().saturating_sub(ghost_ids.len() as u64),
        delivered,
        correct,
        ghosts_injected: ghost_ids.len(),
        ghosts_delivered,
        suppressed: obs.counter("fault.missed") + obs.counter("fault.battery"),
        obs,
    }
}

/// Stall-repair scenario: one poll sensor whose answers are suppressed
/// with probability `rate` per attempt. With repair on, the health
/// model's stall detector issues out-of-band re-polls (extra attempts,
/// so more chances at an unsuppressed answer).
#[must_use]
pub fn run_repoll(rate: f64, repair: bool, seed: u64) -> FaultOutcome {
    let mut net = SimNet::new(SimConfig::with_seed(seed));
    net.recorder().set_enabled(true);
    let config = RivuletConfig::default().with_repair(repair);
    let mut home = HomeBuilder::new(&mut net).with_config(config);
    let hosts: Vec<ProcessId> = (0..2).map(|i| home.add_host(format!("host{i}"))).collect();
    let (sensor, poll_probe) = home.add_poll_sensor(
        "meter",
        ValueModel::Constant(21.0),
        Duration::from_millis(30),
        &hosts,
    );
    let (anchor, _) = home.add_actuator(
        "anchor",
        rivulet_types::ActuationState::Switch(false),
        &[hosts[0]],
    );
    let app = AppBuilder::new(AppId(1), "poll-sink")
        .operator(
            "sink",
            CombinerSpec::Any,
            |_: &mut rivulet_core::app::OpCtx, _: &rivulet_core::app::CombinedWindows| {},
        )
        .polled_sensor(
            sensor,
            Delivery::Gapless,
            WindowSpec::count(1),
            PollSpec::every(Duration::from_secs(5)),
        )
        .actuator(anchor, Delivery::Gapless)
        .done()
        .build()
        .expect("valid app");
    let app_probe = home.add_app(app);

    let plan = FaultPlan::new(seed).sensor(sensor, FaultSpec::new(FaultKind::Missed, rate));
    let home = home.with_faults(plan);
    let _home: Home = home.build();

    net.run_until(Time::from_secs(120));

    let mut seen: BTreeSet<EventId> = BTreeSet::new();
    let mut correct = 0usize;
    for record in app_probe.deliveries() {
        if record.event.sensor != sensor || !seen.insert(record.event) {
            continue;
        }
        if record.value.is_some_and(|v| (v - 21.0).abs() <= TOLERANCE) {
            correct += 1;
        }
    }
    let obs = net.obs_snapshot();
    FaultOutcome {
        emitted: poll_probe.answered(),
        delivered: seen.len(),
        correct,
        ghosts_injected: 0,
        ghosts_delivered: 0,
        suppressed: obs.counter("fault.missed"),
        obs,
    }
}

/// One row of the correctness-vs-fault-rate table: the same `(kind,
/// rate, seed)` run with repair off and on.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Fault kind injected.
    pub kind: FaultKind,
    /// Fault rate.
    pub rate: f64,
    /// Repair-off outcome.
    pub off: FaultOutcome,
    /// Repair-on outcome.
    pub on: FaultOutcome,
}

/// Runs the full sweep: every value-carrying fault kind at each rate,
/// repair off vs on, plus the missed-kind re-poll row.
#[must_use]
pub fn correctness_table(rates: &[f64], duration: Duration, seed: u64) -> Vec<FaultRow> {
    let mut rows = Vec::new();
    for kind in [
        FaultKind::StuckAt,
        FaultKind::Flapping,
        FaultKind::Drift,
        FaultKind::Ghost,
    ] {
        for &rate in rates {
            let mut base = FaultScenario::new(kind, rate, false);
            base.duration = duration;
            base.seed = seed;
            let mut healed = base.clone();
            healed.repair = true;
            rows.push(FaultRow {
                kind,
                rate,
                off: run_fault(&base),
                on: run_fault(&healed),
            });
        }
    }
    for &rate in rates {
        rows.push(FaultRow {
            kind: FaultKind::Missed,
            rate,
            off: run_repoll(rate, false, seed),
            on: run_repoll(rate, true, seed),
        });
    }
    rows
}

/// Renders the sweep as a markdown table (EXPERIMENTS.md format).
#[must_use]
pub fn render_table(rows: &[FaultRow]) -> String {
    let mut out = String::from(
        "| kind | rate | delivered (off/on) | correctness off | correctness on | repairs |\n\
         |------|------|--------------------|-----------------|----------------|---------|\n",
    );
    for r in rows {
        let repairs = r.on.obs.counter("repair.substitutions")
            + r.on.obs.counter("repair.outlier_drops")
            + r.on.obs.counter("repair.quarantined_drops")
            + r.on.obs.counter("repair.repolls");
        out.push_str(&format!(
            "| {} | {:.2} | {}/{} | {:.4} | {:.4} | {} |\n",
            r.kind.name(),
            r.rate,
            r.off.delivered,
            r.on.delivered,
            r.off.correctness(),
            r.on.correctness(),
            repairs,
        ));
    }
    out
}

/// Renders the sweep as the `BENCH_fault.json` document.
#[must_use]
pub fn render_json(rows: &[FaultRow]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "{{\"kind\": \"{}\", \"rate\": {:.2}, ",
                    "\"off\": {{\"delivered\": {}, \"correct\": {}, \"correctness\": {:.4}}}, ",
                    "\"on\": {{\"delivered\": {}, \"correct\": {}, \"correctness\": {:.4}, ",
                    "\"substitutions\": {}, \"repolls\": {}, \"quarantines\": {}}}}}"
                ),
                r.kind.name(),
                r.rate,
                r.off.delivered,
                r.off.correct,
                r.off.correctness(),
                r.on.delivered,
                r.on.correct,
                r.on.correctness(),
                r.on.obs.counter("repair.substitutions"),
                r.on.obs.counter("repair.repolls"),
                r.on.obs.counter("repair.quarantines"),
            )
        })
        .collect();
    format!(
        "{{\n  \"tolerance\": {TOLERANCE},\n  \"rows\": [\n    {}\n  ]\n}}\n",
        body.join(",\n    ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_is_fully_correct_with_and_without_repair() {
        let mut base = FaultScenario::new(FaultKind::StuckAt, 0.0, false);
        base.duration = Duration::from_secs(120);
        let mut healed = base.clone();
        healed.repair = true;
        let (off, on) = (run_fault(&base), run_fault(&healed));
        assert!(off.delivered > 100, "delivered {}", off.delivered);
        assert_eq!(off.correct, off.delivered, "no fault, no error");
        assert_eq!(on.correct, on.delivered, "repair harmless when clean");
        assert_eq!(on.delivered, off.delivered, "repair toggles nothing");
        assert_eq!(on.obs.counter("repair.substitutions"), 0);
    }
}
