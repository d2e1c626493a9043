//! Integration tests for poll-based sensing (paper §4.1, §8.5):
//! coordinated polling end to end, poller failover, sensor failure
//! surfacing as epoch misses, and staleness bounds.

use rivulet::core::app::{
    AppBuilder, CombinedWindows, CombinerSpec, OpCtx, OperatorLogic, PollSpec, WindowSpec,
};
use rivulet::core::delivery::polling::PollStrategy;
use rivulet::core::delivery::Delivery;
use rivulet::core::deploy::HomeBuilder;
use rivulet::core::probe::DeliveryRecord;
use rivulet::core::RivuletConfig;
use rivulet::devices::value::ValueModel;
use rivulet::net::sim::{SimConfig, SimNet};
use rivulet::types::{ActuationState, AppId, Duration, SensorId, Time};

struct MissLogger;
impl OperatorLogic for MissLogger {
    fn on_windows(&self, _: &mut OpCtx, _: &CombinedWindows) {}
    fn on_epoch_miss(&self, ctx: &mut OpCtx, sensor: SensorId) {
        ctx.alert(format!("epoch missed for {sensor}"));
    }
}

#[test]
fn coordinated_polling_delivers_one_event_per_epoch() {
    let mut net = SimNet::new(SimConfig::with_seed(31));
    let mut home = HomeBuilder::new(&mut net);
    let pids: Vec<_> = (0..3).map(|i| home.add_host(format!("h{i}"))).collect();
    let (temp, poll_probe) = home.add_poll_sensor(
        "temp",
        ValueModel::indoor_temperature(),
        Duration::from_millis(600),
        &pids,
    );
    let (anchor, _) = home.add_actuator("a", ActuationState::Switch(false), &[pids[0]]);
    let app = AppBuilder::new(AppId(1), "thermo")
        .operator("sink", CombinerSpec::Any, MissLogger)
        .polled_sensor(
            temp,
            Delivery::Gapless,
            WindowSpec::count(1).sliding(),
            PollSpec::every(Duration::from_secs(5)),
        )
        .actuator(anchor, Delivery::Gapless)
        .done()
        .build()
        .unwrap();
    let probe = home.add_app(app);
    let _home = home.build();
    net.run_until(Time::from_secs(100));

    // 20 epochs → ≈20 distinct events delivered, ~1 poll per epoch.
    let delivered = probe.unique_delivered();
    assert!((18..=21).contains(&delivered), "delivered {delivered}");
    assert!(
        (19..=24).contains(&poll_probe.received()),
        "polls {}",
        poll_probe.received()
    );
    assert_eq!(probe.epoch_misses(), 0);
    assert!(probe.alerts().is_empty());
}

#[test]
fn poller_failover_keeps_epochs_flowing() {
    // The slot-0 poller crashes; the slot-1 node's scheduled poll picks
    // up the epoch without any coordination message (§4.1's liveness
    // argument for slotted polling).
    let mut net = SimNet::new(SimConfig::with_seed(32));
    let mut home = HomeBuilder::new(&mut net);
    let pids: Vec<_> = (0..3).map(|i| home.add_host(format!("h{i}"))).collect();
    let (temp, _) = home.add_poll_sensor(
        "temp",
        ValueModel::indoor_temperature(),
        Duration::from_millis(600),
        &pids,
    );
    let (anchor, _) = home.add_actuator("a", ActuationState::Switch(false), &[pids[0]]);
    let app = AppBuilder::new(AppId(1), "thermo")
        .operator("sink", CombinerSpec::Any, MissLogger)
        .polled_sensor(
            temp,
            Delivery::Gapless,
            WindowSpec::count(1).sliding(),
            PollSpec::every(Duration::from_secs(5)),
        )
        .actuator(anchor, Delivery::Gapless)
        .done()
        .build()
        .unwrap();
    let probe = home.add_app(app);
    let home = home.build();

    // pids[0] is both app host and slot-0 poller: crash it mid-run.
    net.crash_at(home.actor_of(pids[0]), Time::from_secs(42));
    net.run_until(Time::from_secs(100));

    // After failover the new primary keeps receiving epoch events.
    let late = probe
        .deliveries()
        .iter()
        .filter(|d| d.at > Time::from_secs(50))
        .count();
    assert!(late >= 8, "epochs after failover: {late}");
    assert!(probe.epoch_misses() <= 2, "misses {}", probe.epoch_misses());
}

#[test]
fn dead_sensor_raises_epoch_miss_exceptions() {
    let mut net = SimNet::new(SimConfig::with_seed(33));
    let mut home = HomeBuilder::new(&mut net);
    let pids: Vec<_> = (0..3).map(|i| home.add_host(format!("h{i}"))).collect();
    let (temp, _) = home.add_poll_sensor(
        "temp",
        ValueModel::indoor_temperature(),
        Duration::from_millis(600),
        &pids,
    );
    let (anchor, _) = home.add_actuator("a", ActuationState::Switch(false), &[pids[0]]);
    let app = AppBuilder::new(AppId(1), "thermo")
        .operator("sink", CombinerSpec::Any, MissLogger)
        .polled_sensor(
            temp,
            Delivery::Gapless,
            WindowSpec::count(1).sliding(),
            PollSpec::every(Duration::from_secs(5)),
        )
        .actuator(anchor, Delivery::Gapless)
        .done()
        .build()
        .unwrap();
    let probe = home.add_app(app);
    let home = home.build();

    // The sensor's battery dies from t=30 to t=70: epochs 6..13 miss.
    let sensor_actor = home.sensor_actor(temp);
    net.crash_at(sensor_actor, Time::from_secs(30));
    net.recover_at(sensor_actor, Time::from_secs(70));
    net.run_until(Time::from_secs(100));

    let misses = probe.epoch_misses();
    assert!((6..=9).contains(&misses), "≈8 dead epochs, got {misses}");
    assert_eq!(
        probe.alerts().len() as u64,
        misses,
        "each miss surfaced to the app as an exception"
    );
    // Delivery resumes after recovery.
    let late = probe
        .deliveries()
        .iter()
        .filter(|d| d.at > Time::from_secs(72))
        .count();
    assert!(late >= 4, "post-recovery epochs: {late}");
}

#[test]
fn staleness_bound_filters_failover_backlog() {
    // An app that cannot use old data (e.g. real-time HVAC) sets a
    // staleness bound; the Gapless failover backlog replay is filtered
    // to fresh events only.
    let mut net = SimNet::new(SimConfig::with_seed(34));
    let config = RivuletConfig::default().with_failure_timeout(Duration::from_secs(2));
    let mut home = HomeBuilder::new(&mut net).with_config(config);
    let pids: Vec<_> = (0..3).map(|i| home.add_host(format!("h{i}"))).collect();
    let (motion, _) = home.add_push_sensor(
        "motion",
        rivulet::devices::sensor::PayloadSpec::KindOnly(rivulet::types::EventKind::Motion),
        rivulet::devices::sensor::EmissionSchedule::Periodic(Duration::from_millis(200)),
        &pids,
    );
    let (anchor, _) = home.add_actuator("a", ActuationState::Switch(false), &[pids[0]]);
    let app = AppBuilder::new(AppId(1), "fresh-only")
        .operator(
            "sink",
            CombinerSpec::Any,
            |_: &mut OpCtx, _: &CombinedWindows| {},
        )
        .sensor(motion, Delivery::Gapless, WindowSpec::count(1))
        .staleness_bound(Duration::from_millis(500))
        .actuator(anchor, Delivery::Gapless)
        .done()
        .build()
        .unwrap();
    let probe = home.add_app(app);
    let home = home.build();

    net.crash_at(home.actor_of(pids[0]), Time::from_secs(20));
    net.run_until(Time::from_secs(40));

    // The ~2s failover backlog (≈10 events) is replayed but rejected
    // by the 500ms bound.
    assert!(
        probe.stale_drops() >= 5,
        "backlog should be filtered: {} stale drops",
        probe.stale_drops()
    );
}

/// Six polled sensors on three hosts for 60 virtual seconds: what the
/// app saw, in order.
fn polled_home_deliveries(strategy: Option<PollStrategy>) -> Vec<DeliveryRecord> {
    let mut net = SimNet::new(SimConfig::with_seed(5));
    let mut home = HomeBuilder::new(&mut net);
    let pids: Vec<_> = (0..3).map(|i| home.add_host(format!("h{i}"))).collect();
    let (anchor, _) = home.add_actuator("a", ActuationState::Switch(false), &[pids[0]]);
    let mut op = AppBuilder::new(AppId(1), "six-polled").operator(
        "sink",
        CombinerSpec::Any,
        |_: &mut OpCtx, _: &CombinedWindows| {},
    );
    for i in 0..6 {
        let latency = Duration::from_millis(100 + 50 * i);
        let model = ValueModel::indoor_temperature();
        let (sensor, _) = home.add_poll_sensor(format!("s{i}"), model, latency, &pids);
        let mut poll = PollSpec::every(Duration::from_secs(1));
        if let Some(strategy) = strategy {
            poll = poll.with_strategy(strategy);
        }
        op = op.polled_sensor(
            sensor,
            Delivery::Gapless,
            WindowSpec::count(1).sliding(),
            poll,
        );
    }
    let app = op
        .actuator(anchor, Delivery::Gapless)
        .done()
        .build()
        .unwrap();
    let probe = home.add_app(app);
    let _home = home.build();
    net.run_until(Time::from_secs(60));
    probe.deliveries()
}

#[test]
fn same_seed_polled_runs_deliver_identically() {
    // Every process opens its sensors' first epochs in one activation;
    // the order it walks them in hands out timer sequence numbers and
    // RNG draws, so it must not depend on a per-run hash seed.
    for strategy in [None, Some(PollStrategy::Uncoordinated)] {
        let first = polled_home_deliveries(strategy);
        assert!(
            first.len() > 200,
            "{strategy:?}: {} deliveries",
            first.len()
        );
        for _ in 0..3 {
            let again = polled_home_deliveries(strategy);
            assert!(again == first, "{strategy:?}: same seed, different run");
        }
    }
}
