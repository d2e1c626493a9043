//! Integration test for encode-once fan-out, frame coalescing, and
//! cumulative acks: a seeded run must stay fully deterministic.

use rivulet::core::app::{AppBuilder, CombinedWindows, CombinerSpec, OpCtx, WindowSpec};
use rivulet::core::delivery::Delivery;
use rivulet::core::deploy::{Home, HomeBuilder};
use rivulet::core::probe::AppProbe;
use rivulet::core::RivuletConfig;
use rivulet::devices::sensor::{EmissionSchedule, PayloadSpec};
use rivulet::net::sim::{SimConfig, SimNet};
use rivulet::types::{ActuationState, AppId, EventKind, ProcessId, SensorId, Time};
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

/// Three hosts; a scripted door sensor heard by hosts 1 and 2; app
/// anchored at host 0 (same shape as the delivery-semantics tests).
fn scripted_home(script: Vec<Time>, config: RivuletConfig, seed: u64) -> Setup {
    let mut net = SimNet::new(SimConfig::with_seed(seed));
    let mut home = HomeBuilder::new(&mut net).with_config(config);
    let pids: Vec<ProcessId> = ["hub", "tv", "fridge"]
        .iter()
        .map(|n| home.add_host(*n))
        .collect();
    let (sensor, _) = home.add_push_sensor(
        "door",
        PayloadSpec::KindOnly(EventKind::DoorOpen),
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
fn seeded_coalesced_run_is_byte_identical() {
    // Full determinism: two same-seed runs must agree on every delivery
    // timestamp and every counter, not just the delivered set.
    let trace = |seed: u64| {
        let script: Vec<Time> = (1..=15).map(|i| Time::from_millis(600 * i)).collect();
        let mut s = scripted_home(script, RivuletConfig::default(), seed);
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
        (
            deliveries,
            m.messages_sent,
            m.wifi_bytes,
            m.fanout.snapshot(),
        )
    };
    assert_eq!(trace(99), trace(99));
}
