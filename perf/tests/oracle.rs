//! The oracle fails a run fed a deliberately broken trace.

use rivulet_perf::home::SimHome;
use rivulet_perf::oracle::judge;
use rivulet_perf::rep::{level_code, RepData};
use rivulet_perf::workloads::{by_name, Kind};
use rivulet_types::{ActuationState, EventId};

fn real_trace(name: &str) -> RepData {
    let workload = by_name(name, 11, 0.1).expect("known workload");
    let mut home = match &workload.kind {
        Kind::Ring(shape) => SimHome::ring(shape, 11, false),
        Kind::Dag(shape) => SimHome::dag(shape, 11, false),
        _ => unreachable!("simulated workloads only"),
    };
    home.run();
    let rep = home.collect();
    let verdict = judge(&rep);
    assert!(verdict.correct(), "{name}: {:#?}", verdict.violations);
    assert_eq!(verdict.failed, 0);
    assert!(verdict.attempted > 1_000);
    rep
}

fn assert_violates(rep: &RepData, rule: &str) {
    let verdict = judge(rep);
    assert!(
        verdict.violations.iter().any(|v| v.starts_with(rule)),
        "expected `{rule}`, got {:#?}",
        verdict.violations
    );
}

/// A mid-run event of sensor 0, well inside the owed window.
fn victim(rep: &RepData) -> EventId {
    let sensor = &rep.sensors[0];
    EventId::new(sensor.id, sensor.emissions[sensor.emissions.len() / 2].1)
}

#[test]
fn a_lost_gapless_event_is_a_gap_and_a_failure() {
    let mut rep = real_trace("ring_steady");
    let lost = victim(&rep);
    rep.deliveries.retain(|d| d.event != lost);
    let verdict = judge(&rep);
    assert!(verdict.failed >= 1);
    assert_violates(&rep, "gapless event never delivered");
    assert_violates(&rep, "gap after first delivery");
    // Its effect now has no delivered cause.
    assert_violates(&rep, "effect without a delivered causing event");
    let line = verdict
        .violations
        .iter()
        .find(|v| v.starts_with("gapless event never delivered"))
        .expect("reported");
    assert!(
        line.contains(&lost.to_string()),
        "offending id printed: {line}"
    );
}

#[test]
fn a_missing_effect_is_a_failure() {
    let mut rep = real_trace("ring_steady");
    let code = level_code(victim(&rep));
    for actuator in &mut rep.actuators {
        actuator
            .effects
            .retain(|(_, _, state)| *state != ActuationState::Level(code));
    }
    assert!(judge(&rep).failed >= 1);
    assert_violates(&rep, "delivered event never acted on");
}

#[test]
fn a_repeated_or_reordered_effect_breaks_one_to_one() {
    let mut rep = real_trace("ring_steady");
    let zone = rep
        .actuators
        .iter_mut()
        .find(|a| a.effects.len() > 4)
        .expect("a busy zone");
    let again = zone.effects[2];
    zone.effects.push(again);
    assert_violates(&rep, "event acted on more than once");
    assert_violates(&rep, "effects out of per-sensor order");
}

#[test]
fn a_phantom_delivery_is_caught() {
    let mut rep = real_trace("ring_steady");
    let mut phantom = rep.deliveries[rep.deliveries.len() / 2];
    phantom.event = EventId::new(phantom.event.sensor, 9_999_999);
    rep.deliveries.push(phantom);
    assert_violates(&rep, "delivered event was never emitted");
}

#[test]
fn a_gap_stream_out_of_order_is_caught() {
    let mut rep = real_trace("dag_poll");
    let sensor = rep.sensors[0].id;
    let positions: Vec<usize> = rep
        .deliveries
        .iter()
        .enumerate()
        .filter(|(_, d)| d.event.sensor == sensor)
        .map(|(i, _)| i)
        .skip(100)
        .take(2)
        .collect();
    rep.deliveries.swap(positions[0], positions[1]);
    assert_violates(&rep, "gap stream delivered out of order");
}

#[test]
fn a_dropped_command_is_caught() {
    let mut rep = real_trace("dag_poll");
    let zone = rep
        .actuators
        .iter_mut()
        .find(|a| a.effects.len() > 4)
        .expect("a busy zone");
    zone.effects.remove(zone.effects.len() / 2);
    assert!(judge(&rep).failed >= 1);
    assert_violates(&rep, "command not applied exactly once");
}

#[test]
fn a_partial_routine_or_a_tampered_ledger_is_caught() {
    let mut rep = real_trace("durable_routine");
    let routine = rep.routine.as_ref().expect("the workload runs routines");
    assert!(routine.instances.len() > 50);
    // Un-apply one step of a committed, settled instance.
    let (_, command) = routine.instances[10].commands[0];
    for actuator in &mut rep.actuators {
        actuator.effects.retain(|(_, id, _)| *id != command);
    }
    assert_violates(&rep, "routine fired some but not all of its steps");

    let mut rep = real_trace("durable_routine");
    let routine = rep.routine.as_mut().expect("the workload runs routines");
    let (pid, ledger) = routine
        .ledgers
        .iter_mut()
        .find(|(_, ledger)| ledger.len() > 5)
        .expect("the coordinator's chain");
    ledger[3].instance ^= 1;
    let pid = *pid;
    let verdict = judge(&rep);
    let line = verdict
        .violations
        .iter()
        .find(|v| v.starts_with("ledger chain broken"))
        .expect("tampering detected");
    assert!(
        line.contains(&format!("{pid} entry 3")),
        "exact index: {line}"
    );
}
