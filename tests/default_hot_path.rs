//! Integration tests of the Gapless hot path as every process runs
//! it: inline delivery, arena-homed blob payloads, and adaptive WAL
//! gating. A seeded run must be fully deterministic, and a durable
//! home under group commit must still deliver every event.

mod common;

use rivulet::core::app::{AppBuilder, CombinedWindows, CombinerSpec, OpCtx, WindowSpec};
use rivulet::core::delivery::Delivery;
use rivulet::core::deploy::{Home, HomeBuilder};
use rivulet::core::probe::{check, AppProbe, ProbeData};
use rivulet::devices::sensor::{EmissionSchedule, PayloadSpec};
use rivulet::net::sim::{SimConfig, SimNet};
use rivulet::storage::{FlushPolicy, SimBackend, StorageBackend, WalOptions};
use rivulet::types::{ActuationState, AppId, Duration, EventKind, ProcessId, SensorId, Time};
use std::sync::Arc;

struct Setup {
    net: SimNet,
    home: Home,
    probe: Arc<AppProbe>,
    sensor: SensorId,
    pids: Vec<ProcessId>,
}

fn noop() -> impl Fn(&mut OpCtx, &CombinedWindows) + Send + Sync {
    |_: &mut OpCtx, _: &CombinedWindows| {}
}

/// Three hosts; a scripted door sensor with 512-byte payloads heard by
/// hosts 1 and 2; app anchored at host 0. Blob payloads matter here:
/// they arrive as zero-copy views into network frames, which is what
/// the store's arena re-homes.
fn scripted_home(script: Vec<Time>, seed: u64) -> Setup {
    let mut net = SimNet::new(SimConfig::with_seed(seed));
    let mut home = HomeBuilder::new(&mut net);
    let pids: Vec<ProcessId> = ["hub", "tv", "fridge"]
        .iter()
        .map(|n| home.add_host(*n))
        .collect();
    let (sensor, _) = home.add_push_sensor(
        "door",
        PayloadSpec::Blob {
            kind: EventKind::DoorOpen,
            len: 512,
        },
        EmissionSchedule::Script(script),
        &[pids[1], pids[2]],
    );
    let (anchor, _) = home.add_actuator("anchor", ActuationState::Switch(false), &[pids[0]]);
    let app = AppBuilder::new(AppId(1), "trace")
        .operator("sink", CombinerSpec::Any, noop())
        .sensor(sensor, Delivery::Gapless, WindowSpec::count(1))
        .actuator(anchor, Delivery::Gapless)
        .done()
        .build()
        .expect("valid app");
    let probe = home.add_app(app);
    let home = home.build();
    Setup {
        net,
        home,
        probe,
        sensor,
        pids,
    }
}

#[test]
fn seeded_blob_run_under_crash_and_loss_is_byte_identical() {
    // Full determinism: two same-seed runs must agree on every delivery
    // timestamp and every network counter, not just the delivered set.
    let trace = |seed: u64| {
        let script: Vec<Time> = (1..=15).map(|i| Time::from_millis(600 * i)).collect();
        let mut s = scripted_home(script, seed);
        let dev = s.home.sensor_actor(s.sensor);
        let tv = s.home.actor_of(s.pids[1]);
        s.net.topology_mut().set_loss(dev, tv, 0.3);
        s.net.crash_at(tv, Time::from_secs(5));
        s.net.recover_at(tv, Time::from_secs(9));
        s.net.run_until(Time::from_secs(14));
        let deliveries: Vec<(Time, ProcessId, u64)> = s
            .probe
            .deliveries()
            .iter()
            .map(|d| (d.at, d.by, d.event.seq))
            .collect();
        let m = s.net.metrics();
        (deliveries, m.messages_sent, m.wifi_bytes)
    };
    assert_eq!(trace(99), trace(99));
}

/// A durable home (per-process WAL on a simulated disk, group commit on
/// a 400 ms beat): deliveries gate behind WAL appends, and what no app
/// waits on is released only by the beat.
#[test]
fn durable_home_under_group_commit_delivers_every_event() {
    let seed = 31;
    let mut net = SimNet::new(SimConfig::with_seed(seed));
    let mut home = HomeBuilder::new(&mut net);
    let ingest = home.with_ingest_probe();
    let pids: Vec<ProcessId> = (0..3).map(|i| home.add_host(format!("host{i}"))).collect();
    let backends: Vec<Arc<SimBackend>> = (0..3)
        .map(|i| Arc::new(SimBackend::new(seed.wrapping_mul(31).wrapping_add(i))))
        .collect();
    let mut home = home.with_storage(
        WalOptions {
            flush_policy: FlushPolicy::EveryInterval(Duration::from_millis(400)),
            segment_max_bytes: 64 * 1024,
        },
        Duration::from_secs(5),
        move |pid: ProcessId| {
            Arc::clone(&backends[pid.as_u32() as usize]) as Arc<dyn StorageBackend>
        },
    );
    let (sensor, emission) = home.add_push_sensor(
        "motion",
        PayloadSpec::KindOnly(EventKind::Motion),
        EmissionSchedule::Periodic(Duration::from_millis(100)),
        &pids,
    );
    let (anchor, _) = home.add_actuator("anchor", ActuationState::Switch(false), &[pids[0]]);
    let app = AppBuilder::new(AppId(1), "activity")
        .operator("sink", CombinerSpec::Any, noop())
        .sensor(sensor, Delivery::Gapless, WindowSpec::count(1))
        .actuator(anchor, Delivery::Gapless)
        .done()
        .build()
        .expect("valid app");
    let probe = home.add_app(app);
    let _home = home.build();
    net.run_until(Time::from_secs(20));
    let seqs = common::distinct_seqs(&probe);
    let prefix: Vec<u64> = (0..seqs.len() as u64).collect();
    assert_eq!(seqs, prefix, "delivery has no gap");
    // Only the five events of the last beat (19.6–20 s) may still sit
    // in an unflushed batch when the run stops.
    let verdict = check(&ProbeData {
        owed_before: Time::from_millis(19_600),
        ..common::probe_data(sensor, Delivery::Gapless, &emission, &ingest, &probe)
    });
    common::assert_all_but_tail_owed(&verdict, emission.emitted(), 5);
    assert!(verdict.passed(), "{}", common::describe(&verdict));
}
