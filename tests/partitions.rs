//! Integration tests for network partitions (paper §5): dual actives,
//! idempotent vs Test&Set actuation, and post-heal reconciliation.

mod common;

use rivulet::core::app::{
    AppBuilder, CombinedWindows, CombinerSpec, OpCtx, OperatorLogic, WindowSpec,
};
use rivulet::core::delivery::Delivery;
use rivulet::core::deploy::HomeBuilder;
use rivulet::core::probe::{check, ProbeData};
use rivulet::core::RivuletConfig;
use rivulet::devices::sensor::{EmissionSchedule, PayloadSpec};
use rivulet::net::sim::{SimConfig, SimNet};
use rivulet::types::{ActuationState, ActuatorId, AppId, Duration, EventKind, Time};

/// Logic that unconditionally sets a switch on every event (idempotent
/// actuation).
struct SetOn {
    light: ActuatorId,
}
impl OperatorLogic for SetOn {
    fn on_windows(&self, ctx: &mut OpCtx, input: &CombinedWindows) {
        for _ in input.all_events() {
            ctx.set_switch(self.light, true);
        }
    }
}

/// Logic that dispenses via Test&Set (non-idempotent actuation guarded
/// as §5 prescribes).
struct DispenseOnce {
    dispenser: ActuatorId,
}
impl OperatorLogic for DispenseOnce {
    fn on_windows(&self, ctx: &mut OpCtx, input: &CombinedWindows) {
        for _ in input.all_events() {
            ctx.test_and_set(
                self.dispenser,
                ActuationState::Pulse(0),
                ActuationState::Pulse(1),
            );
        }
    }
}

#[test]
fn full_partition_promotes_both_sides_and_heals() {
    let mut net = SimNet::new(SimConfig::with_seed(21));
    let mut home = HomeBuilder::new(&mut net).with_config(RivuletConfig::default());
    let a = home.add_host("side-a");
    let b = home.add_host("side-b");
    let (sensor, _) = home.add_push_sensor(
        "motion",
        PayloadSpec::KindOnly(EventKind::Motion),
        EmissionSchedule::Periodic(Duration::from_millis(500)),
        &[a, b],
    );
    let (anchor, _) = home.add_actuator("anchor", ActuationState::Switch(false), &[a]);
    let app = AppBuilder::new(AppId(1), "watch")
        .operator(
            "sink",
            CombinerSpec::Any,
            |_: &mut OpCtx, _: &CombinedWindows| {},
        )
        .sensor(sensor, Delivery::Gapless, WindowSpec::count(1))
        .actuator(anchor, Delivery::Gapless)
        .done()
        .build()
        .unwrap();
    let probe = home.add_app(app);
    let home = home.build();

    net.partition_at(
        Time::from_secs(10),
        vec![vec![home.actor_of(a)], vec![home.actor_of(b)]],
    );
    net.heal_at(Time::from_secs(25));
    net.run_until(Time::from_secs(40));

    let transitions = probe.transitions();
    // b promotes inside the partition and demotes after healing.
    assert!(
        transitions
            .iter()
            .any(|(t, p, act)| *act && *p == b && *t > Time::from_secs(10)),
        "side-b promotes during the partition: {transitions:?}"
    );
    assert!(
        transitions
            .iter()
            .any(|(t, p, act)| !*act && *p == b && *t > Time::from_secs(25)),
        "side-b demotes after healing: {transitions:?}"
    );
    // During the partition both sides process their locally received
    // events: deliveries attributed to both processes.
    let by_b = probe.deliveries().iter().filter(|d| d.by == b).count();
    assert!(by_b > 10, "side-b processed during the partition: {by_b}");
    common::assert_deliveries_only_from_active(&probe, &[]);
}

#[test]
fn idempotent_actuation_is_safe_under_dual_actives() {
    let mut net = SimNet::new(SimConfig::with_seed(22));
    let mut home = HomeBuilder::new(&mut net).with_config(RivuletConfig::default());
    let a = home.add_host("side-a");
    let b = home.add_host("side-b");
    let (sensor, _) = home.add_push_sensor(
        "motion",
        PayloadSpec::KindOnly(EventKind::Motion),
        EmissionSchedule::Periodic(Duration::from_secs(1)),
        &[a, b],
    );
    // The light is reachable from both sides (it is a device, not a
    // WiFi participant).
    let (light, light_probe) = home.add_actuator("light", ActuationState::Switch(false), &[a, b]);
    let app = AppBuilder::new(AppId(1), "lights")
        .operator("on", CombinerSpec::Any, SetOn { light })
        .sensor(sensor, Delivery::Gapless, WindowSpec::count(1))
        .actuator(light, Delivery::Gapless)
        .done()
        .build()
        .unwrap();
    let _probe = home.add_app(app);
    let home = home.build();

    net.partition_at(
        Time::from_secs(5),
        vec![vec![home.actor_of(a)], vec![home.actor_of(b)]],
    );
    net.run_until(Time::from_secs(20));

    // Both actives set the light repeatedly — redundant but harmless:
    // the final state is simply on.
    assert_eq!(light_probe.state(), ActuationState::Switch(true));
    assert!(light_probe.effect_count() > 10, "both sides actuated");
    assert_eq!(
        light_probe.duplicates_suppressed(),
        0,
        "plain Set never refuses"
    );
}

#[test]
fn test_and_set_suppresses_duplicate_dispensing() {
    let mut net = SimNet::new(SimConfig::with_seed(23));
    let mut home = HomeBuilder::new(&mut net).with_config(RivuletConfig::default());
    let a = home.add_host("side-a");
    let b = home.add_host("side-b");
    // One scripted "plant is dry" event, heard on both sides.
    let (sensor, _) = home.add_push_sensor(
        "moisture",
        PayloadSpec::KindOnly(EventKind::WaterDetected),
        EmissionSchedule::Script(vec![Time::from_secs(10)]),
        &[a, b],
    );
    let (dispenser, dispenser_probe) =
        home.add_actuator("dispenser", ActuationState::Pulse(0), &[a, b]);
    let app = AppBuilder::new(AppId(1), "watering")
        .operator("dispense", CombinerSpec::Any, DispenseOnce { dispenser })
        .sensor(sensor, Delivery::Gapless, WindowSpec::count(1))
        .actuator(dispenser, Delivery::Gapless)
        .done()
        .build()
        .unwrap();
    let _probe = home.add_app(app);
    let home = home.build();

    // Partition before the event: both sides will be active and both
    // will try to dispense.
    net.partition_at(
        Time::from_secs(5),
        vec![vec![home.actor_of(a)], vec![home.actor_of(b)]],
    );
    net.run_until(Time::from_secs(20));

    assert_eq!(
        dispenser_probe.effect_count(),
        1,
        "exactly one dispense despite two active logic nodes"
    );
    assert_eq!(dispenser_probe.state(), ActuationState::Pulse(1));
    assert!(
        dispenser_probe.duplicates_suppressed() >= 1,
        "the loser's Test&Set must be refused"
    );
}

#[test]
fn events_ingested_during_partition_survive_the_heal() {
    // Sensor heard only by side-b; app anchored at side-a. During the
    // partition side-b promotes and processes; after healing, side-a
    // resumes and the backlog replicated at b reaches a via
    // anti-entropy — no event is ever lost.
    let mut net = SimNet::new(SimConfig::with_seed(24));
    let mut home = HomeBuilder::new(&mut net).with_config(RivuletConfig::default());
    let ingest = home.with_ingest_probe();
    let a = home.add_host("side-a");
    let b = home.add_host("side-b");
    let (sensor, emissions) = home.add_push_sensor(
        "motion",
        PayloadSpec::KindOnly(EventKind::Motion),
        EmissionSchedule::Periodic(Duration::from_millis(500)),
        &[b],
    );
    let (anchor, _) = home.add_actuator("anchor", ActuationState::Switch(false), &[a]);
    let app = AppBuilder::new(AppId(1), "watch")
        .operator(
            "sink",
            CombinerSpec::Any,
            |_: &mut OpCtx, _: &CombinedWindows| {},
        )
        .sensor(sensor, Delivery::Gapless, WindowSpec::count(1))
        .actuator(anchor, Delivery::Gapless)
        .done()
        .build()
        .unwrap();
    let probe = home.add_app(app);
    let home = home.build();

    net.partition_at(
        Time::from_secs(10),
        vec![vec![home.actor_of(a)], vec![home.actor_of(b)]],
    );
    net.heal_at(Time::from_secs(20));
    net.run_until(Time::from_secs(35));

    let verdict = check(&ProbeData {
        partitioned: true,
        // Emissions fall on multiples of the period, so only the one
        // at the run's last instant may still be in flight.
        owed_before: Time::from_secs(35),
        ..common::probe_data(sensor, Delivery::Gapless, &emissions, &ingest, &probe)
    });
    common::assert_all_but_tail_owed(&verdict, emissions.emitted(), 1);
    assert!(verdict.passed(), "{}", common::describe(&verdict));
}

/// A healed partition leaves no lasting mark on who answers whom. Side
/// b alone hears the sensor; the sides are cut from 10 s to 20 s, and
/// from 30.4 s to 30.6 s the b → a link loses everything, so the ring
/// copy of the event emitted at 30.5 s never reaches a. Once each side
/// hears the other's beacons again, a's beacons name b as its ring
/// predecessor and b ships a the lost event. When a beacon said only
/// who its sender hears both ways, each side left the other out because
/// the other had left it out, for ever after the heal, and the event
/// was owed and never delivered.
#[test]
fn a_ring_copy_lost_long_after_a_healed_partition_is_repaired_by_the_beacon_sync() {
    let mut net = SimNet::new(SimConfig::with_seed(24));
    let mut home = HomeBuilder::new(&mut net).with_config(RivuletConfig::default());
    let ingest = home.with_ingest_probe();
    let a = home.add_host("side-a");
    let b = home.add_host("side-b");
    let (sensor, emissions) = home.add_push_sensor(
        "motion",
        PayloadSpec::KindOnly(EventKind::Motion),
        EmissionSchedule::Periodic(Duration::from_millis(500)),
        &[b],
    );
    let (anchor, _) = home.add_actuator("anchor", ActuationState::Switch(false), &[a]);
    let app = AppBuilder::new(AppId(1), "watch")
        .operator(
            "sink",
            CombinerSpec::Any,
            |_: &mut OpCtx, _: &CombinedWindows| {},
        )
        .sensor(sensor, Delivery::Gapless, WindowSpec::count(1))
        .actuator(anchor, Delivery::Gapless)
        .done()
        .build()
        .unwrap();
    let probe = home.add_app(app);
    let home = home.build();

    let (side_a, side_b) = (home.actor_of(a), home.actor_of(b));
    net.partition_at(Time::from_secs(10), vec![vec![side_a], vec![side_b]]);
    net.heal_at(Time::from_secs(20));
    net.set_blocked_at(Time::from_millis(30_400), side_b, side_a, true);
    net.set_blocked_at(Time::from_millis(30_600), side_b, side_a, false);
    net.run_until(Time::from_secs(35));

    let verdict = check(&ProbeData {
        partitioned: true,
        owed_before: Time::from_secs(35),
        ..common::probe_data(sensor, Delivery::Gapless, &emissions, &ingest, &probe)
    });
    common::assert_all_but_tail_owed(&verdict, emissions.emitted(), 1);
    assert!(verdict.passed(), "{}", common::describe(&verdict));
}
