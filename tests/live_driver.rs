//! Integration test of the full platform on the **live threaded
//! driver**: the same protocol code that all simulation tests
//! exercise, running on real OS threads and wall-clock time.

use std::time::{Duration as StdDuration, Instant};

use rivulet::core::app::{AppBuilder, CombinerSpec, SwitchOnEvents, WindowSpec};
use rivulet::core::delivery::Delivery;
use rivulet::core::deploy::HomeBuilder;
use rivulet::core::RivuletConfig;
use rivulet::devices::sensor::{EmissionSchedule, PayloadSpec};
use rivulet::net::live::{LiveConfig, LiveNet};
use rivulet::types::{ActuationState, AppId, Duration, EventKind};

fn wait_until(limit: StdDuration, mut done: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < limit {
        if done() {
            return true;
        }
        std::thread::sleep(StdDuration::from_millis(20));
    }
    done()
}

#[test]
fn door_light_pipeline_runs_on_threads() {
    let mut net = LiveNet::new(LiveConfig::default());
    let mut home = HomeBuilder::new(&mut net);
    let hub = home.add_host("hub");
    let tv = home.add_host("tv");
    let (door, _) = home.add_push_sensor(
        "door",
        PayloadSpec::KindOnly(EventKind::DoorOpen),
        EmissionSchedule::Periodic(Duration::from_millis(150)),
        &[tv],
    );
    let (light, light_probe) = home.add_actuator("light", ActuationState::Switch(false), &[hub]);
    let app = AppBuilder::new(AppId(1), "door-light")
        .operator(
            "TurnLightOnOff",
            CombinerSpec::Any,
            SwitchOnEvents {
                on_kinds: vec![EventKind::DoorOpen],
                off_kinds: vec![EventKind::DoorClose],
                actuator: light,
            },
        )
        .sensor(door, Delivery::Gapless, WindowSpec::count(1))
        .actuator(light, Delivery::Gapless)
        .done()
        .build()
        .expect("valid app");
    let probe = home.add_app(app);
    let _home = home.build();

    assert!(
        wait_until(StdDuration::from_secs(10), || probe.unique_delivered() >= 5),
        "events must flow end to end on threads (got {})",
        probe.unique_delivered()
    );
    assert!(
        wait_until(StdDuration::from_secs(5), || light_probe.effect_count()
            >= 5),
        "the light must actuate"
    );
    assert_eq!(light_probe.state(), ActuationState::Switch(true));
    net.shutdown();
}

/// A process thread runs `Start`, and with it its first keep-alive
/// round to every peer, while `HomeBuilder::build` is still registering
/// the actors after it. No such send may kill its sender. A dead actor
/// thread drops its inbox, so every later send to it counts as
/// `net.drops.destination_down`; with no crash injected, that count
/// stays 0 only while every actor is up.
#[test]
fn every_actor_survives_start_up_sends() {
    for _ in 0..5 {
        let mut net = LiveNet::new(LiveConfig::default());
        net.recorder().set_enabled(true);
        let mut home = HomeBuilder::new(&mut net);
        let hosts: Vec<_> = (0..6).map(|i| home.add_host(format!("h{i}"))).collect();
        let (motion, _) = home.add_push_sensor(
            "motion",
            PayloadSpec::KindOnly(EventKind::Motion),
            EmissionSchedule::Periodic(Duration::from_millis(20)),
            &hosts,
        );
        let (anchor, _) = home.add_actuator("a", ActuationState::Switch(false), &hosts[..1]);
        let app = AppBuilder::new(AppId(1), "watch")
            .operator(
                "sink",
                CombinerSpec::Any,
                |_: &mut rivulet::core::app::OpCtx, _: &rivulet::core::app::CombinedWindows| {},
            )
            .sensor(motion, Delivery::Gapless, WindowSpec::count(1))
            .actuator(anchor, Delivery::Gapless)
            .done()
            .build()
            .expect("valid app");
        let probe = home.add_app(app);
        let _home = home.build();

        assert!(wait_until(StdDuration::from_secs(10), || {
            probe.unique_delivered() >= 5
        }));
        // Two more keep-alive rounds (500 ms apart) reach every process.
        std::thread::sleep(StdDuration::from_millis(1_100));
        let snap = net.obs_snapshot();
        assert!(snap.counter("net.messages_delivered") > 0);
        assert_eq!(
            snap.counter("net.drops.destination_down"),
            0,
            "an actor thread died"
        );
        net.shutdown();
    }
}

#[test]
fn live_crash_recovery_failover() {
    let mut net = LiveNet::new(LiveConfig::default());
    // Three keep-alive periods of silence: short, so the test completes
    // quickly.
    let config = RivuletConfig::default().with_failure_timeout(Duration::from_millis(1_500));
    let mut home = HomeBuilder::new(&mut net).with_config(config);
    let h0 = home.add_host("h0");
    let h1 = home.add_host("h1");
    let (motion, _) = home.add_push_sensor(
        "motion",
        PayloadSpec::KindOnly(EventKind::Motion),
        EmissionSchedule::Periodic(Duration::from_millis(100)),
        &[h0, h1],
    );
    let (anchor, _) = home.add_actuator("a", ActuationState::Switch(false), &[h0]);
    let app = AppBuilder::new(AppId(1), "watch")
        .operator(
            "sink",
            CombinerSpec::Any,
            |_: &mut rivulet::core::app::OpCtx, _: &rivulet::core::app::CombinedWindows| {},
        )
        .sensor(motion, Delivery::Gapless, WindowSpec::count(1))
        .actuator(anchor, Delivery::Gapless)
        .done()
        .build()
        .expect("valid app");
    let probe = home.add_app(app);
    let home = home.build();

    // Wait for steady state, then crash the app host.
    assert!(wait_until(StdDuration::from_secs(10), || {
        probe.unique_delivered() >= 5
    }));
    net.crash(home.actor_of(h0));
    // h1 must promote and keep processing.
    assert!(
        wait_until(StdDuration::from_secs(10), || {
            probe.deliveries().iter().any(|d| d.by == h1)
        }),
        "h1 must take over processing"
    );
    // Recover h0: it should eventually reclaim the primary role.
    net.recover(home.actor_of(h0));
    assert!(
        wait_until(StdDuration::from_secs(10), || {
            probe
                .transitions()
                .iter()
                .filter(|(_, p, active)| *p == h0 && *active)
                .count()
                >= 2
        }),
        "h0 must re-promote after recovery: {:?}",
        probe.transitions()
    );
    net.shutdown();
}
