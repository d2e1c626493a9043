//! The output oracle: is what the platform did correct?
//!
//! The oracle is a pure function of a [`RepData`]. It counts the
//! operations a user attempted (events to deliver and act on, polling
//! epochs, routine firings) and those that failed, and separately lists
//! every broken guarantee with the offending ids:
//!
//! * **Gapless** streams deliver everything emitted once the home is up
//!   and before the grace cut, deliver nothing that was not emitted, and
//!   have no gap after the first delivery per sensor.
//! * **Gap** streams deliver in order.
//! * **Actuation** is 1:1 with causing events: no effect without a
//!   delivered cause, every delivered event acted on; without a crash,
//!   exactly once and in per-sensor order.
//! * **Routines** are all-or-nothing against the actuators' effect
//!   logs, and every process's ledger chain verifies.
//!
//! Any violation makes the run exit non-zero.

use std::collections::{BTreeMap, HashMap, HashSet};

use rivulet_storage::{LedgerVerifier, RoutineTransition};
use rivulet_types::{ActuationState, CommandId, EventId, SensorId, Time};

use crate::rep::{decode_level, Actuation, Guarantee, RepData};

/// At most this many offending ids are printed per broken rule.
const MAX_IDS: usize = 8;

/// The oracle's judgement of one repetition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Broken guarantees, one line each, naming offending ids.
    pub violations: Vec<String>,
}

impl Verdict {
    /// Whether every guarantee held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    fn violate<T: std::fmt::Display>(&mut self, rule: &str, offenders: &[T]) {
        if offenders.is_empty() {
            return;
        }
        let shown: Vec<String> = offenders.iter().take(MAX_IDS).map(T::to_string).collect();
        self.violations.push(format!(
            "{rule}: {} offender(s): {}{}",
            offenders.len(),
            shown.join(", "),
            if offenders.len() > MAX_IDS {
                ", …"
            } else {
                ""
            }
        ));
    }
}

/// Judges one repetition.
#[must_use]
pub fn judge(rep: &RepData) -> Verdict {
    let mut v = Verdict::default();
    let firsts = rep.first_deliveries();
    let delivered: HashMap<EventId, Time> = firsts.iter().map(|(id, _, at)| (*id, *at)).collect();

    // Which delivered events are owed an actuator effect, and got one.
    let acted: Option<HashSet<EventId>> = (rep.actuation == Actuation::PerEvent).then(|| {
        rep.zone_effects()
            .filter_map(|(_, _, state)| match state {
                ActuationState::Level(level) => decode_level(*level),
                _ => None,
            })
            .collect()
    });

    let mut emitted_at: HashMap<EventId, Time> = HashMap::new();
    for sensor in &rep.sensors {
        let mut undelivered = Vec::new();
        let mut unacted = Vec::new();
        for (at, seq) in &sensor.emissions {
            let id = EventId::new(sensor.id, *seq);
            emitted_at.insert(id, *at);
            if !rep.owed(*at) {
                continue;
            }
            v.attempted += 1;
            if !delivered.contains_key(&id) {
                v.failed += 1;
                undelivered.push(id);
            } else if acted.as_ref().is_some_and(|a| !a.contains(&id)) {
                v.failed += 1;
                unacted.push(id);
            }
        }
        if sensor.guarantee == Guarantee::Gapless {
            v.violate("gapless event never delivered", &undelivered);
        }
        v.violate("delivered event never acted on", &unacted);
    }

    // Nothing is delivered that was not emitted, when it was emitted.
    let phantom: Vec<EventId> = firsts
        .iter()
        .filter(|(id, emitted, _)| {
            let polled = rep.polls.iter().any(|p| p.id == id.sensor);
            !polled && emitted_at.get(id) != Some(emitted)
        })
        .map(|(id, _, _)| *id)
        .collect();
    v.violate("delivered event was never emitted", &phantom);

    // Per-sensor stream shape.
    let mut seqs: BTreeMap<SensorId, Vec<u64>> = BTreeMap::new();
    for (id, _, _) in &firsts {
        seqs.entry(id.sensor).or_default().push(id.seq);
    }
    for sensor in &rep.sensors {
        let Some(order) = seqs.get(&sensor.id) else {
            continue;
        };
        match sensor.guarantee {
            Guarantee::Gapless => {
                let set: HashSet<u64> = order.iter().copied().collect();
                let (lo, hi) = (order[0], *order.iter().max().expect("non-empty"));
                // A hole among the last second's emissions is an event
                // still in flight, not a gap.
                let gaps: Vec<EventId> = (lo..=hi)
                    .filter(|s| !set.contains(s))
                    .map(|s| EventId::new(sensor.id, s))
                    .filter(|id| emitted_at.get(id).is_some_and(|at| *at < rep.grace_cut()))
                    .collect();
                v.violate("gap after first delivery", &gaps);
            }
            Guarantee::Gap => {
                let disorder: Vec<EventId> = order
                    .windows(2)
                    .filter(|w| w[1] <= w[0])
                    .map(|w| EventId::new(sensor.id, w[1]))
                    .collect();
                v.violate("gap stream delivered out of order", &disorder);
            }
        }
    }

    // Polling: one event per epoch, or a reported miss.
    for poll in &rep.polls {
        v.attempted += poll.epochs;
        let got = seqs.get(&poll.id).map_or(0, Vec::len) as u64;
        // The first epoch's poll and the last one's answer straddle the
        // run's edges.
        if got + rep.epoch_misses + 2 < poll.epochs {
            v.violate(
                "polling epochs lost without a reported miss",
                &[format!("{}: {got} of {} epochs", poll.id, poll.epochs)],
            );
        }
    }
    v.failed += rep.epoch_misses;

    judge_actuation(rep, &delivered, &mut v);
    judge_routines(rep, &mut v);
    v
}

fn judge_actuation(rep: &RepData, delivered: &HashMap<EventId, Time>, v: &mut Verdict) {
    match rep.actuation {
        Actuation::PerEvent => {
            let mut uncaused = Vec::new();
            let mut early = Vec::new();
            let mut repeated = Vec::new();
            let mut disorder = Vec::new();
            let mut seen: HashSet<EventId> = HashSet::new();
            // Order is a per-device property: each zone applies its
            // commands in the order it received them.
            let mut last_seq: HashMap<(usize, SensorId), u64> = HashMap::new();
            let zones = rep.actuators.iter().take(crate::home::ZONES).enumerate();
            for (zone, (at, command, state)) in
                zones.flat_map(|(z, a)| a.effects.iter().map(move |e| (z, e)))
            {
                let cause = match state {
                    ActuationState::Level(level) => decode_level(*level),
                    _ => None,
                };
                let Some((id, processed)) = cause.and_then(|id| Some((id, *delivered.get(&id)?)))
                else {
                    uncaused.push(format!("{command:?}"));
                    continue;
                };
                if *at < processed {
                    early.push(id);
                }
                if !seen.insert(id) {
                    repeated.push(id);
                }
                if last_seq
                    .insert((zone, id.sensor), id.seq)
                    .is_some_and(|prev| prev >= id.seq)
                {
                    disorder.push(id);
                }
            }
            v.violate("effect without a delivered causing event", &uncaused);
            v.violate("effect applied before its cause was processed", &early);
            // A failover legitimately replays: idempotent actuation may
            // repeat and step back. Without a crash it may not.
            if rep.crash.is_none() {
                v.violate("event acted on more than once", &repeated);
                v.violate("effects out of per-sensor order", &disorder);
            }
        }
        Actuation::AppDecides => {
            let issued: HashMap<CommandId, Time> = rep
                .commands
                .iter()
                .map(|(_, c)| (c.id, c.issued_at))
                .collect();
            let mut applied: HashMap<CommandId, u32> = HashMap::new();
            let mut unissued = Vec::new();
            for actuator in &rep.actuators {
                for (at, id, _) in &actuator.effects {
                    match issued.get(id) {
                        Some(t) if t <= at => *applied.entry(*id).or_default() += 1,
                        _ => unissued.push(format!("{id:?}")),
                    }
                }
            }
            v.violate("effect without an issued command", &unissued);
            let wrong: Vec<String> = rep
                .commands
                .iter()
                .filter(|(_, c)| rep.owed(c.issued_at))
                .filter(|(_, c)| applied.get(&c.id).copied().unwrap_or(0) != 1)
                .map(|(_, c)| format!("{:?}", c.id))
                .collect();
            v.attempted += rep
                .commands
                .iter()
                .filter(|(_, c)| rep.owed(c.issued_at))
                .count() as u64;
            v.failed += wrong.len() as u64;
            v.violate("command not applied exactly once", &wrong);
        }
    }
}

fn judge_routines(rep: &RepData, v: &mut Verdict) {
    let Some(routine) = &rep.routine else {
        return;
    };
    let fired: HashSet<CommandId> = rep
        .actuators
        .iter()
        .flat_map(|a| a.effects.iter().map(|(_, id, _)| *id))
        .collect();
    let mut partial = Vec::new();
    let mut phantom = Vec::new();
    let mut unfinished = 0u64;
    // The last firings may still be staging, or their fire frames in
    // flight, when the run ends.
    let settled = routine.instances.len().saturating_sub(2);
    for (i, rec) in routine.instances.iter().enumerate() {
        let applied = rec
            .commands
            .iter()
            .filter(|(_, c)| fired.contains(c))
            .count();
        let committed = rec.state == RoutineTransition::Committed;
        if applied != 0 && applied != rec.commands.len() {
            partial.push(rec.instance);
        }
        if applied > 0 && !committed {
            phantom.push(rec.instance);
        }
        if i >= settled {
            continue;
        }
        if committed && applied == 0 {
            partial.push(rec.instance);
        }
        // Aborted with its compensation issued is a clean outcome;
        // aborted without, or stuck staged, is a failed firing.
        if !committed && rec.state != RoutineTransition::Compensated {
            unfinished += 1;
        }
    }
    v.attempted += routine.triggered;
    v.failed += unfinished + routine.unreachable;
    v.violate("routine fired some but not all of its steps", &partial);
    v.violate("uncommitted routine instance fired", &phantom);
    for (pid, ledger) in &routine.ledgers {
        if let Err(broken) = LedgerVerifier::verify(routine.ledger_seed, ledger) {
            v.violate(
                "ledger chain broken",
                &[format!("{pid} entry {}: {}", broken.index, broken.reason)],
            );
        }
    }
}
