//! Determinism contract of the observability layer: two simulation
//! runs with the same seed, topology, and fault script must export
//! byte-identical `ObsSnapshot` JSON.

use std::sync::Arc;

use rivulet_bench::common::{run_delivery, DeliveryScenario};
use rivulet_core::app::{AppBuilder, CombinedWindows, CombinerSpec, OpCtx, WindowSpec};
use rivulet_core::delivery::Delivery;
use rivulet_core::deploy::HomeBuilder;
use rivulet_devices::sensor::{EmissionSchedule, PayloadSpec};
use rivulet_net::sim::{SimConfig, SimNet};
use rivulet_obs::ObsSnapshot;
use rivulet_storage::{FlushPolicy, SimBackend, StorageBackend, WalOptions};
use rivulet_types::{ActuationState, AppId, Duration, EventKind, ProcessId, Time};

/// The Fig. 7-shaped scenario used for determinism checks: crash plus
/// replay exercises counters, histograms and events at once.
fn crash_scenario() -> DeliveryScenario {
    let mut cfg = DeliveryScenario::paper_default(Delivery::Gapless);
    cfg.receivers = vec![0, 1, 2, 3, 4];
    cfg.crash_app_at = Some(Time::from_secs(24));
    cfg.duration = Duration::from_secs(40);
    cfg.obs = true;
    cfg.durable = true;
    cfg.seed = 11;
    cfg
}

#[test]
fn same_seed_runs_export_identical_json() {
    let cfg = crash_scenario();
    let a = run_delivery(&cfg).obs;
    let b = run_delivery(&cfg).obs;
    assert_eq!(a, b, "snapshots must be structurally equal");
    assert_eq!(a.to_json(), b.to_json(), "JSON must be byte-identical");
}

/// A durable ring home under group commit: the sensor (Poisson, so the
/// run consumes randomness) is heard four hops up-ring of the app and
/// every process flushes on a 10 ms timer, so deliveries really wait at
/// the durability gate.
fn durable_ring_snapshot(seed: u64) -> ObsSnapshot {
    let mut net = SimNet::new(SimConfig::with_seed(seed));
    net.recorder().set_enabled(true);
    let options = WalOptions {
        flush_policy: FlushPolicy::EveryInterval(Duration::from_millis(10)),
        ..WalOptions::default()
    };
    let disk = move |pid: ProcessId| {
        Arc::new(SimBackend::new(seed ^ u64::from(pid.0))) as Arc<dyn StorageBackend>
    };
    let mut home = HomeBuilder::new(&mut net).with_storage(options, Duration::from_secs(5), disk);
    let pids: Vec<_> = (0..5).map(|i| home.add_host(format!("host{i}"))).collect();
    let (sensor, _) = home.add_push_sensor(
        "motion",
        PayloadSpec::KindOnly(EventKind::Motion),
        EmissionSchedule::Poisson {
            mean: Duration::from_millis(7),
        },
        &[pids[1]],
    );
    let (anchor, _) = home.add_actuator("anchor", ActuationState::Switch(false), &[pids[0]]);
    let app = AppBuilder::new(AppId(1), "sink")
        .operator(
            "sink",
            CombinerSpec::Any,
            |_: &mut OpCtx, _: &CombinedWindows| {},
        )
        .sensor(sensor, Delivery::Gapless, WindowSpec::count(1))
        .actuator(anchor, Delivery::Gapless)
        .done()
        .build()
        .expect("valid app");
    let _ = home.add_app(app);
    let _ = home.build();
    net.run_until(Time::from_secs(12));
    net.obs_snapshot()
}

#[test]
fn same_seed_durable_ring_runs_export_identical_gate_waits() {
    let a = durable_ring_snapshot(11);
    let waits = a
        .histogram("wal.gate_wait_us")
        .expect("gate waits recorded");
    // One sample per released delivery; the last tick's are still held.
    let appends = a.counter("wal.appends");
    assert!(waits.count() <= appends && waits.count() + 50 > appends);
    assert!(waits.max() > Some(1_000), "deliveries waited for the timer");
    assert_eq!(a.to_json(), durable_ring_snapshot(11).to_json());
    assert_ne!(a.to_json(), durable_ring_snapshot(12).to_json());
}

#[test]
fn different_seeds_differ() {
    // Link loss makes the run actually consume randomness; a loss-free
    // schedule is identical under every seed.
    let mut cfg = crash_scenario();
    cfg.loss = 0.3;
    let mut other = cfg.clone();
    other.seed = 12;
    let a = run_delivery(&cfg).obs;
    let b = run_delivery(&other).obs;
    assert_ne!(
        a.to_json(),
        b.to_json(),
        "a different seed should perturb at least the timeline"
    );
}

#[test]
fn snapshot_contains_every_migrated_layer() {
    let snap = run_delivery(&crash_scenario()).obs;
    // Network layer.
    assert!(snap.counter("net.messages_sent") > 0);
    assert!(snap.counter("net.wifi_bytes") > 0);
    assert!(snap.histogram("net.payload_bytes").is_some());
    assert_eq!(snap.events_named("net.crash").len(), 1);
    // Application layer.
    assert!(snap.counter("app.deliveries") > 0);
    assert!(snap.histogram("app.delay_us").is_some());
    assert!(!snap.events_named("app.delivery").is_empty());
    assert!(!snap.events_named("exec.promoted").is_empty());
    // Storage layer (Gapless runs the WAL).
    assert!(snap.counter("wal.appends") > 0);
    assert!(snap.counter("wal.flushes") > 0);
    assert!(snap.counter("wal.recoveries") > 0);
    // Store residency sampled on ticks.
    assert!(snap.histogram("store.len").is_some());
    // The replacement app resumed delivery after the induced crash.
    let crash = snap.events_named("net.crash")[0].at;
    let deliveries = snap.events_named("app.delivery");
    assert!(
        deliveries.iter().any(|d| d.at >= crash),
        "delivery resumed after the crash"
    );
}

#[test]
fn disabled_recorder_exports_empty_snapshot() {
    let mut cfg = crash_scenario();
    cfg.obs = false;
    let snap = run_delivery(&cfg).obs;
    assert_eq!(snap, rivulet_obs::ObsSnapshot::default());
}
