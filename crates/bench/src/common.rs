//! Shared scenario machinery for the §8 experiments.
//!
//! The paper's testbed is five Raspberry Pis plus an "IP-based software
//! sensor" whose reachability and loss are controlled per link (§8.1).
//! [`DeliveryScenario`] is exactly that: `n` processes, one software
//! push sensor reaching a chosen subset, one no-op application whose
//! probe measures deliveries, and knobs for loss, event size, crash
//! injection, and the forwarding protocol.

use std::sync::Arc;

use rivulet_core::app::{AppBuilder, CombinerSpec, WindowSpec};
use rivulet_core::config::ForwardingMode;
use rivulet_core::delivery::Delivery;
use rivulet_core::deploy::{Home, HomeBuilder};
use rivulet_core::probe::{check, ProbeData, Stream, Verdict};
use rivulet_core::RivuletConfig;
use rivulet_devices::fault::{FaultKind, FaultPlan, FaultSpec};
use rivulet_devices::sensor::{EmissionSchedule, PayloadSpec};
use rivulet_net::sim::{SimConfig, SimNet};
use rivulet_obs::ObsSnapshot;
use rivulet_types::{AppId, Duration, EventKind, ProcSet, ProcessId, Time};

/// Event payload sizes studied in Figs. 4–6 (Table 3 classes).
pub const EVENT_SIZES: [(&str, usize); 4] =
    [("4B", 4), ("8B", 8), ("1KB", 1024), ("20KB", 20 * 1024)];

/// Builds a [`PayloadSpec`] producing events of roughly `bytes` payload.
#[must_use]
pub fn payload_of(bytes: usize) -> PayloadSpec {
    match bytes {
        0..=4 => PayloadSpec::KindOnly(EventKind::Motion),
        5..=8 => PayloadSpec::Scalar(rivulet_devices::value::ValueModel::Constant(21.0)),
        _ => PayloadSpec::Blob {
            kind: EventKind::Image,
            len: bytes,
        },
    }
}

/// Configuration of one §8 delivery run.
#[derive(Debug, Clone)]
pub struct DeliveryScenario {
    /// Number of Rivulet processes (hosts).
    pub n_processes: usize,
    /// Indices of processes able to hear the sensor. The
    /// application-bearing process is always index 0 (it wins the
    /// placement tie-break), so `vec![1]` is the paper's "receiver
    /// placed farthest from the application-bearing process" (one full
    /// ring traversal), and `vec![0]` is Fig. 4b's direct receipt.
    pub receivers: Vec<usize>,
    /// Event payload bytes.
    pub event_bytes: usize,
    /// Delivery guarantee under test.
    pub delivery: Delivery,
    /// Gapless forwarding protocol (ring or the broadcast baseline).
    pub forwarding: ForwardingMode,
    /// Sensor event rate per second.
    pub rate_per_sec: u64,
    /// Virtual run length.
    pub duration: Duration,
    /// Loss probability applied on each sensor→receiver link.
    pub loss: f64,
    /// Crash the application-bearing process at this time, if set.
    pub crash_app_at: Option<Time>,
    /// Failure-detection threshold (2 s in §8.4).
    pub failure_timeout: Duration,
    /// Enable the observability recorder for this run (figures read
    /// their numbers from the resulting [`ObsSnapshot`]).
    pub obs: bool,
    /// Attach per-process durable storage (an in-memory simulated
    /// backend), exercising the WAL append/flush/recovery path.
    pub durable: bool,
    /// Device fault injected into the sensor, if any (with
    /// [`DeliveryScenario::fault_rate`] > 0). The fault plan derives
    /// from the run seed, so injection is reproducible per home.
    pub fault_kind: Option<FaultKind>,
    /// Per-attempt (or per-window) rate of the injected fault.
    pub fault_rate: f64,
    /// Enable the platform's device-fault repair layer.
    pub repair: bool,
    /// Enable the routine execution engine: the measurement app fires
    /// a one-step routine on the anchor actuator every tenth event,
    /// exercising staging, the hash-chained ledger, and (on crashing
    /// homes) recovery re-drive. Off leaves the run byte-identical to
    /// a build without routines.
    pub routines: bool,
    /// RNG seed.
    pub seed: u64,
}

impl DeliveryScenario {
    /// The paper's default setup: five processes, 4-byte events at
    /// 10 events/s for 200 seconds, receiver farthest from the app.
    #[must_use]
    pub fn paper_default(delivery: Delivery) -> Self {
        Self {
            n_processes: 5,
            receivers: vec![1],
            event_bytes: 4,
            delivery,
            forwarding: ForwardingMode::Ring,
            rate_per_sec: 10,
            duration: Duration::from_secs(200),
            loss: 0.0,
            crash_app_at: None,
            failure_timeout: Duration::from_secs(2),
            obs: false,
            durable: false,
            fault_kind: None,
            fault_rate: 0.0,
            repair: false,
            routines: false,
            seed: 42,
        }
    }
}

/// Measurements extracted from one run.
#[derive(Debug, Clone)]
pub struct DeliveryOutcome {
    /// Events the sensor emitted.
    pub emitted: u64,
    /// Distinct events processed by active logic nodes.
    pub unique_delivered: usize,
    /// Mean sensor→logic delay.
    pub mean_delay: Option<Duration>,
    /// The checker's judgement of the run ([`check`]).
    pub verdict: Verdict,
    /// Full observability snapshot (empty unless
    /// [`DeliveryScenario::obs`] was set).
    pub obs: ObsSnapshot,
}

impl DeliveryOutcome {
    /// Fraction of emitted events that reached the application.
    #[must_use]
    pub fn delivered_fraction(&self) -> f64 {
        if self.emitted == 0 {
            return 0.0;
        }
        self.unique_delivered as f64 / self.emitted as f64
    }
}

/// Runs one delivery scenario to completion.
///
/// # Panics
///
/// Panics on malformed configuration (no processes, receiver index out
/// of range).
#[must_use]
pub fn run_delivery(cfg: &DeliveryScenario) -> DeliveryOutcome {
    assert!(cfg.n_processes > 0, "need at least one process");
    assert!(
        cfg.receivers.iter().all(|r| *r < cfg.n_processes),
        "receiver index out of range"
    );
    let mut net = SimNet::new(SimConfig::with_seed(cfg.seed));
    net.recorder().set_enabled(cfg.obs);
    let mut config = RivuletConfig::default()
        .with_failure_timeout(cfg.failure_timeout)
        .with_forwarding(cfg.forwarding)
        .with_repair(cfg.repair);
    if cfg.routines {
        config = config
            .with_routines(true)
            .with_routine_ledger_seed(cfg.seed);
    }
    let mut home = HomeBuilder::new(&mut net).with_config(config);
    if let Some(kind) = cfg.fault_kind {
        if cfg.fault_rate > 0.0 {
            // The sensor declared below is always SensorId(0).
            home = home.with_faults(FaultPlan::new(cfg.seed).sensor(
                rivulet_types::SensorId(0),
                FaultSpec::new(kind, cfg.fault_rate),
            ));
        }
    }
    if cfg.durable {
        let seed = cfg.seed;
        home = home.with_storage(
            rivulet_storage::WalOptions::default(),
            Duration::from_secs(10),
            move |pid| {
                Arc::new(rivulet_storage::SimBackend::new(seed ^ u64::from(pid.0)))
                    as Arc<dyn rivulet_storage::StorageBackend>
            },
        );
    }
    let pids: Vec<ProcessId> = (0..cfg.n_processes)
        .map(|i| home.add_host(format!("host{i}")))
        .collect();
    let receivers: Vec<ProcessId> = cfg.receivers.iter().map(|r| pids[*r]).collect();
    let ingest = home.with_ingest_probe();

    let period = Duration::from_micros(1_000_000 / cfg.rate_per_sec.max(1));
    let (sensor, emission_probe) = home.add_push_sensor(
        "software-sensor",
        payload_of(cfg.event_bytes),
        EmissionSchedule::Periodic(period),
        &receivers,
    );
    // An actuator reachable only from host 0 pins the active logic
    // node there (placement prefers the best device score, ties by
    // id), reproducing the paper's fixed application-bearing process.
    let (anchor, anchor_probe) = home.add_actuator(
        "app-anchor",
        rivulet_types::ActuationState::Switch(false),
        &[pids[0]],
    );
    // With routines on, every tenth event fires a one-step routine on
    // the anchor, driving staging + ledger (and recovery on crashing
    // homes). With routines off the trigger request is dropped before
    // it has any effect, so the closure below is byte-neutral.
    let routine_probe = cfg.routines.then(|| {
        home.add_routine(
            rivulet_core::RoutineSpec::new(rivulet_types::RoutineId(1), "fleet-scene")
                .step_compensated(
                    anchor,
                    rivulet_types::CommandKind::Set(rivulet_types::ActuationState::Switch(true)),
                    rivulet_types::CommandKind::Set(rivulet_types::ActuationState::Switch(false)),
                ),
        )
    });

    // A no-op measurement app (unless routines are on); the probe
    // records every delivery.
    let routines_on = cfg.routines;
    let app = AppBuilder::new(AppId(1), "measurement")
        .operator(
            "sink",
            CombinerSpec::Any,
            move |ctx: &mut rivulet_core::app::OpCtx, w: &rivulet_core::app::CombinedWindows| {
                if routines_on && w.all_events().any(|e| e.id.seq % 10 == 9) {
                    ctx.run_routine(rivulet_types::RoutineId(1));
                }
            },
        )
        .sensor(sensor, cfg.delivery, WindowSpec::count(1))
        .actuator(anchor, cfg.delivery)
        .done()
        .build()
        .expect("valid app");
    let app_probe = home.add_app(app);
    let home: Home = home.build();

    // Sensor→process loss on the receiving links.
    if cfg.loss > 0.0 {
        let sensor_actor = home.sensor_actor(sensor);
        for r in &receivers {
            net.topology_mut()
                .set_loss(sensor_actor, home.actor_of(*r), cfg.loss);
        }
    }
    if let Some(at) = cfg.crash_app_at {
        net.crash_at(home.actor_of(pids[0]), at);
    }

    net.run_until(Time::ZERO + cfg.duration);

    // Events of the last second may still be in flight; after a crash
    // of the app host, so may those of the failure timeout before it.
    let second = Duration::from_secs(1);
    let (crashed, in_flight) = match cfg.crash_app_at {
        Some(_) => (ProcSet::singleton(pids[0]), second + cfg.failure_timeout),
        None => (ProcSet::EMPTY, second),
    };
    let verdict = check(&ProbeData {
        streams: vec![Stream {
            sensor,
            delivery: cfg.delivery,
            emitted: emission_probe.log(),
        }],
        heard: ingest.heard(),
        deliveries: app_probe.deliveries(),
        crashed,
        owed_before: Time::ZERO + (cfg.duration - in_flight),
        instances: routine_probe.map_or_else(Vec::new, |p| p.instances()),
        applied: anchor_probe
            .effects()
            .into_iter()
            .map(|(_, c, _)| c)
            .collect(),
        ..ProbeData::default()
    });
    DeliveryOutcome {
        emitted: emission_probe.emitted(),
        unique_delivered: app_probe.unique_delivered(),
        mean_delay: app_probe.mean_delay(),
        verdict,
        obs: net.obs_snapshot(),
    }
}

/// WiFi bytes of a run identical to `cfg` except that delivering an
/// event costs nothing: the same sensor emits the same events, heard
/// only by the application's own process under Gap, which forwards
/// nothing. What is left is the platform's background traffic — the
/// keep-alives, whose possession summaries are empty under Gap —
/// subtracted when computing per-event network overhead (Fig. 5). The
/// summaries a Gapless home's keep-alives carry once events flow (what
/// each process holds, what was processed) stay in the Gapless and
/// broadcast totals.
#[must_use]
pub fn background_wifi_bytes(cfg: &DeliveryScenario) -> u64 {
    let mut quiet = cfg.clone();
    quiet.delivery = Delivery::Gap;
    quiet.receivers = vec![0];
    quiet.obs = true;
    run_delivery(&quiet).obs.counter("net.wifi_bytes")
}

/// Renders a duration as fractional milliseconds for table output.
#[must_use]
pub fn ms(d: Option<Duration>) -> String {
    match d {
        None => "-".to_owned(),
        Some(d) => format!("{:.2}", d.as_micros() as f64 / 1_000.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_free_gapless_delivers_everything() {
        let mut cfg = DeliveryScenario::paper_default(Delivery::Gapless);
        cfg.duration = Duration::from_secs(20);
        let out = run_delivery(&cfg);
        assert!(out.emitted >= 195, "emitted {}", out.emitted);
        // Every event except possibly in-flight tail ones arrives.
        assert!(
            out.unique_delivered as u64 >= out.emitted - 2,
            "delivered {}/{}",
            out.unique_delivered,
            out.emitted
        );
        assert!(out.mean_delay.is_some());
    }

    #[test]
    fn failure_free_gap_delivers_everything() {
        let mut cfg = DeliveryScenario::paper_default(Delivery::Gap);
        cfg.duration = Duration::from_secs(20);
        let out = run_delivery(&cfg);
        assert!(out.unique_delivered as u64 >= out.emitted - 2);
    }

    #[test]
    fn gap_is_no_slower_than_gapless_at_farthest_placement() {
        let mut gap_cfg = DeliveryScenario::paper_default(Delivery::Gap);
        gap_cfg.duration = Duration::from_secs(20);
        let mut gapless_cfg = DeliveryScenario::paper_default(Delivery::Gapless);
        gapless_cfg.duration = Duration::from_secs(20);
        let gap = run_delivery(&gap_cfg).mean_delay.unwrap();
        let gapless = run_delivery(&gapless_cfg).mean_delay.unwrap();
        assert!(gap <= gapless, "gap {gap} vs gapless {gapless}");
    }

    #[test]
    fn direct_receipt_is_fast() {
        let mut cfg = DeliveryScenario::paper_default(Delivery::Gapless);
        cfg.receivers = vec![0];
        cfg.duration = Duration::from_secs(20);
        let out = run_delivery(&cfg);
        let mean = out.mean_delay.unwrap();
        // Fig. 4b: ~1–2 ms when the app-bearing process hears the
        // sensor directly.
        assert!(mean <= Duration::from_millis(3), "mean {mean}");
    }
}
