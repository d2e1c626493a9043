//! The routine execution engine: all-or-nothing multi-actuator
//! command sequences.
//!
//! A *routine* is an ordered list of actuator commands ("leaving home":
//! lights off, thermostat down, door locked) that must fire **all or
//! nothing** — a crash of the coordinating logic node halfway through
//! must never leave the thermostat down but the door unlocked. The
//! engine achieves this with a staged two-phase protocol over the
//! existing radio adapters:
//!
//! 1. **Stage** — every step's command is sent to its actuator as a
//!    [`rivulet_devices::frame::RadioFrame::Stage`]; the actuator
//!    *withholds* it (nothing fires) and replies `StageAck`.
//! 2. **Commit** — once every step is acknowledged, the coordinator
//!    sends `CommitRoutine` to every target in a single activation;
//!    each actuator fires its held steps in step order. Commits are
//!    idempotent, so a recovered coordinator may re-send them.
//! 3. **Abort** — a staging timeout, a refused stage, or a recovered
//!    crash mid-staging sends `AbortRoutine` (actuators discard their
//!    held steps) and issues any declared *compensation* commands.
//!
//! Every state transition — `Staged`, `Committed`, `Aborted`,
//! `Compensated` — is recorded in the hash-chained execution-integrity
//! ledger ([`rivulet_storage::ledger`]) **before** the transition's
//! protocol frames are sent (write-ahead). On a durable home the entry
//! goes through the WAL and survives crashes; recovery classifies each
//! instance by its last ledger entry and either re-commits (idempotent)
//! or aborts and compensates. [`rivulet_storage::LedgerVerifier`] can
//! then audit the recovered chain for tampering.
//!
//! Compensation is a declared safe-state restore, not a rollback:
//! nothing fires before commit, so there is nothing to roll back.
//! A step may declare a `compensate` command (e.g. "unlock the door")
//! issued as a plain actuation after an abort, moving the instance to
//! `Compensated`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rivulet_storage::{LedgerChain, LedgerEntry, RoutineTransition};
use rivulet_types::{ActuatorId, Command, CommandId, CommandKind, ProcessId, RoutineId, Time};

/// One step of a routine: a command for one actuator, with an optional
/// compensation command issued if the routine aborts.
#[derive(Debug, Clone)]
pub struct RoutineStep {
    /// The actuator this step drives.
    pub actuator: ActuatorId,
    /// The command staged (and fired on commit).
    pub kind: CommandKind,
    /// Declared safe-state restore issued as a plain actuation after
    /// an abort. `None` means the step needs no compensation.
    pub compensate: Option<CommandKind>,
}

/// A deployed routine: an ordered multi-actuator command sequence
/// executed all-or-nothing.
#[derive(Debug, Clone)]
pub struct RoutineSpec {
    /// The routine's identity.
    pub id: RoutineId,
    /// Human-readable name ("leaving-home").
    pub name: String,
    /// Steps in firing order.
    pub steps: Vec<RoutineStep>,
}

impl RoutineSpec {
    /// Starts a routine spec with no steps.
    #[must_use]
    pub fn new(id: RoutineId, name: impl Into<String>) -> Self {
        Self {
            id,
            name: name.into(),
            steps: Vec::new(),
        }
    }

    /// Appends a step without compensation.
    #[must_use]
    pub fn step(mut self, actuator: ActuatorId, kind: CommandKind) -> Self {
        self.steps.push(RoutineStep {
            actuator,
            kind,
            compensate: None,
        });
        self
    }

    /// Appends a step with a declared compensation command.
    #[must_use]
    pub fn step_compensated(
        mut self,
        actuator: ActuatorId,
        kind: CommandKind,
        compensate: CommandKind,
    ) -> Self {
        self.steps.push(RoutineStep {
            actuator,
            kind,
            compensate: Some(compensate),
        });
        self
    }

    /// The distinct actuators this routine drives.
    #[must_use]
    pub fn actuators(&self) -> Vec<ActuatorId> {
        let mut out: Vec<ActuatorId> = self.steps.iter().map(|s| s.actuator).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Final (or latest) state of one routine firing, as the probe saw it.
#[derive(Debug, Clone)]
pub struct InstanceRecord {
    /// The process that coordinated the firing. Every coordinator
    /// numbers its own instances, so a firing is `(coordinator,
    /// instance)`.
    pub coordinator: ProcessId,
    /// The firing instance.
    pub instance: u64,
    /// The latest transition recorded for it.
    pub state: RoutineTransition,
    /// The staged commands `(actuator, command id)` — the ground truth
    /// a harness cross-checks against actuator effects to detect
    /// partial firings.
    pub commands: Vec<(ActuatorId, CommandId)>,
}

/// Ground truth about one routine's firings, shared with the harness.
/// Like the actuator probes, it survives coordinator crashes.
#[derive(Debug, Default)]
pub struct RoutineProbe {
    unreachable: AtomicU64,
    instances: Mutex<Vec<InstanceRecord>>,
}

impl RoutineProbe {
    /// Creates an empty probe.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Firings triggered: every staged instance plus every trigger
    /// refused as unreachable.
    #[must_use]
    pub fn triggered(&self) -> u64 {
        let staged = self.instances.lock().expect("probe lock").len() as u64;
        staged + self.unreachable()
    }

    /// Triggers refused because a target actuator was not reachable
    /// from the coordinator.
    #[must_use]
    pub fn unreachable(&self) -> u64 {
        self.unreachable.load(Ordering::SeqCst)
    }

    /// Per-instance records, in staging order.
    #[must_use]
    pub fn instances(&self) -> Vec<InstanceRecord> {
        self.instances.lock().expect("probe lock").clone()
    }

    fn record_staged(
        &self,
        coordinator: ProcessId,
        instance: u64,
        commands: Vec<(ActuatorId, CommandId)>,
    ) {
        self.instances
            .lock()
            .expect("probe lock")
            .push(InstanceRecord {
                coordinator,
                instance,
                state: RoutineTransition::Staged,
                commands,
            });
    }

    fn record_transition(&self, coordinator: ProcessId, instance: u64, state: RoutineTransition) {
        let mut instances = self.instances.lock().expect("probe lock");
        let ours = |r: &&mut InstanceRecord| r.coordinator == coordinator && r.instance == instance;
        if let Some(rec) = instances.iter_mut().find(ours) {
            rec.state = state;
        }
    }

    fn record_unreachable(&self) {
        self.unreachable.fetch_add(1, Ordering::SeqCst);
    }
}

/// An in-flight firing: staged, awaiting acks.
#[derive(Debug)]
struct Inflight {
    routine: RoutineId,
    /// `(step, actuator, command)` in step order.
    commands: Vec<(u32, ActuatorId, Command)>,
    acked: Vec<bool>,
}

/// What the coordinator must do after a stage ack arrived.
#[derive(Debug)]
pub enum AckOutcome {
    /// Not ours / duplicate / already resolved: nothing to do.
    Ignored,
    /// Every step acknowledged: the `Committed` entry (make it durable,
    /// then send `CommitRoutine` to every target).
    Commit {
        /// The appended ledger entry.
        entry: LedgerEntry,
        /// Distinct actuators to send `CommitRoutine` to.
        targets: Vec<ActuatorId>,
    },
    /// A stage was refused: abort the firing.
    Abort(AbortPlan),
}

/// Everything the coordinator needs to abort a firing: the `Aborted`
/// ledger entry (make it durable first), the targets to send
/// `AbortRoutine` to, and the declared compensations to issue as plain
/// actuations.
#[derive(Debug)]
pub struct AbortPlan {
    /// The aborted routine.
    pub routine: RoutineId,
    /// The aborted instance.
    pub instance: u64,
    /// The appended `Aborted` ledger entry.
    pub entry: LedgerEntry,
    /// Distinct actuators holding staged steps.
    pub targets: Vec<ActuatorId>,
    /// Declared safe-state restores `(actuator, command kind)`.
    pub compensations: Vec<(ActuatorId, CommandKind)>,
}

/// A freshly staged firing: the `Staged` ledger entry (make it durable
/// first) and the stage frames to send.
#[derive(Debug)]
pub struct StagePlan {
    /// The new firing instance.
    pub instance: u64,
    /// The appended `Staged` ledger entry.
    pub entry: LedgerEntry,
    /// `(actuator, step, command)` to send as `Stage` frames.
    pub stages: Vec<(ActuatorId, u32, Command)>,
}

/// What a recovered coordinator must do for one unresolved instance
/// found in the ledger.
#[derive(Debug)]
pub enum RecoveryAction {
    /// The instance committed before the crash: re-send (idempotent)
    /// `CommitRoutine` frames so actuators that missed the original
    /// commit still fire.
    Recommit {
        /// The committed routine.
        routine: RoutineId,
        /// The committed instance.
        instance: u64,
        /// Distinct actuators that held staged steps.
        targets: Vec<ActuatorId>,
    },
    /// The crash interrupted staging: the instance is aborted (nothing
    /// ever fired) and compensated.
    AbortStaged(AbortPlan),
}

/// The per-process routine coordinator. Owned by the process actor;
/// allocated only when [`crate::config::RivuletConfig::routines`] is
/// on.
///
/// The engine keeps no copy of the ledger: every transition returns its
/// entry, and the caller makes it durable (the WAL is the record).
#[derive(Debug)]
pub struct RoutineEngine {
    /// The process this engine coordinates for.
    coordinator: ProcessId,
    /// Each deployed routine with its probe.
    routines: HashMap<RoutineId, (Arc<RoutineSpec>, Arc<RoutineProbe>)>,
    chain: LedgerChain,
    inflight: HashMap<u64, Inflight>,
}

impl RoutineEngine {
    /// Creates the engine of process `coordinator`, with the ledger
    /// chain seeded from `seed`.
    #[must_use]
    pub fn new(
        coordinator: ProcessId,
        seed: u64,
        routines: &[(Arc<RoutineSpec>, Arc<RoutineProbe>)],
    ) -> Self {
        Self {
            coordinator,
            routines: routines
                .iter()
                .map(|(s, p)| (s.id, (Arc::clone(s), Arc::clone(p))))
                .collect(),
            chain: LedgerChain::seeded(seed),
            inflight: HashMap::new(),
        }
    }

    /// The deployed spec of `routine`, if any.
    #[must_use]
    pub fn spec(&self, routine: RoutineId) -> Option<&Arc<RoutineSpec>> {
        self.routines.get(&routine).map(|(spec, _)| spec)
    }

    /// The probe of `routine`, if it is deployed.
    fn probe(&self, routine: RoutineId) -> Option<&RoutineProbe> {
        self.routines.get(&routine).map(|(_, probe)| probe.as_ref())
    }

    /// Records a trigger refused because a target actuator is
    /// unreachable from this coordinator.
    pub fn note_unreachable(&mut self, routine: RoutineId) {
        if let Some(probe) = self.probe(routine) {
            probe.record_unreachable();
        }
    }

    /// Stages firing `instance` of `routine`. The caller numbers the
    /// instances, as it mints the command `make_command` makes per step:
    /// an actuator keeps what each `(coordinator, routine, instance)` did,
    /// so an instance must not come back, across restarts either.
    /// Returns `None` for unknown routines or empty specs.
    pub fn trigger(
        &mut self,
        routine: RoutineId,
        instance: u64,
        at: Time,
        mut make_command: impl FnMut(ActuatorId, CommandKind) -> Command,
    ) -> Option<StagePlan> {
        let (spec, probe) = self.routines.get(&routine)?;
        if spec.steps.is_empty() {
            return None;
        }
        let commands: Vec<(u32, ActuatorId, Command)> = spec
            .steps
            .iter()
            .enumerate()
            .map(|(i, step)| {
                (
                    i as u32,
                    step.actuator,
                    make_command(step.actuator, step.kind),
                )
            })
            .collect();
        let ledger_cmds: Vec<(ActuatorId, CommandId)> =
            commands.iter().map(|(_, a, c)| (*a, c.id)).collect();
        let entry = self.chain.append(
            routine,
            instance,
            RoutineTransition::Staged,
            at,
            ledger_cmds.clone(),
        );
        probe.record_staged(self.coordinator, instance, ledger_cmds);
        let stages = commands
            .iter()
            .map(|(step, actuator, cmd)| (*actuator, *step, cmd.clone()))
            .collect();
        self.inflight.insert(
            instance,
            Inflight {
                routine,
                acked: vec![false; commands.len()],
                commands,
            },
        );
        Some(StagePlan {
            instance,
            entry,
            stages,
        })
    }

    /// Handles a `StageAck`: when the last step acks, the firing
    /// commits; a refused stage aborts it.
    pub fn on_stage_ack(
        &mut self,
        routine: RoutineId,
        instance: u64,
        step: u32,
        accepted: bool,
        at: Time,
    ) -> AckOutcome {
        let Some(fl) = self.inflight.get_mut(&instance) else {
            return AckOutcome::Ignored;
        };
        if fl.routine != routine {
            return AckOutcome::Ignored;
        }
        if !accepted {
            return AckOutcome::Abort(self.abort(instance, at).expect("inflight"));
        }
        let Some(pos) = fl.commands.iter().position(|(s, ..)| *s == step) else {
            return AckOutcome::Ignored;
        };
        if fl.acked[pos] {
            return AckOutcome::Ignored; // duplicate ack
        }
        fl.acked[pos] = true;
        if !fl.acked.iter().all(|a| *a) {
            return AckOutcome::Ignored;
        }
        let fl = self.inflight.remove(&instance).expect("inflight");
        let entry = self.append_transition(&fl, instance, RoutineTransition::Committed, at);
        AckOutcome::Commit {
            entry,
            targets: Self::targets_of(&fl),
        }
    }

    /// Handles the staging-timeout timer for `instance`. `None` when
    /// the firing already resolved (the timer raced the last ack).
    pub fn on_timeout(&mut self, instance: u64, at: Time) -> Option<AbortPlan> {
        self.abort(instance, at)
    }

    /// Records that an aborted instance's compensation commands were
    /// issued, returning the `Compensated` ledger entry.
    pub fn record_compensated(
        &mut self,
        routine: RoutineId,
        instance: u64,
        at: Time,
        commands: Vec<(ActuatorId, CommandId)>,
    ) -> LedgerEntry {
        let entry = self.chain.append(
            routine,
            instance,
            RoutineTransition::Compensated,
            at,
            commands,
        );
        if let Some(probe) = self.probe(routine) {
            probe.record_transition(self.coordinator, instance, RoutineTransition::Compensated);
        }
        entry
    }

    /// Adopts a recovered ledger (chain order, from
    /// [`rivulet_storage::Recovered::ledger`]): resumes the chain head
    /// and classifies every unresolved instance. Crash-interrupted
    /// stagings produce fresh `Aborted` entries (append them to the WAL
    /// before sending their frames).
    pub fn recover(&mut self, entries: &[LedgerEntry], at: Time) -> Vec<RecoveryAction> {
        if let Some(last) = entries.last() {
            self.chain = LedgerChain::from_head(last.hash);
        }
        // Last transition per (routine, instance), in first-seen order.
        type LastState = (RoutineTransition, Vec<(ActuatorId, CommandId)>);
        let mut order: Vec<(RoutineId, u64)> = Vec::new();
        let mut last: HashMap<(RoutineId, u64), LastState> = HashMap::new();
        for e in entries {
            let key = (e.routine, e.instance);
            if !last.contains_key(&key) {
                order.push(key);
            }
            let staged_cmds = match e.transition {
                // Staged entries carry the authoritative command list.
                RoutineTransition::Staged => e.commands.clone(),
                _ => last.get(&key).map(|(_, c)| c.clone()).unwrap_or_default(),
            };
            last.insert(key, (e.transition, staged_cmds));
        }
        let mut actions = Vec::new();
        for (routine, instance) in order {
            let (transition, commands) = &last[&(routine, instance)];
            let targets: Vec<ActuatorId> = {
                let mut t: Vec<ActuatorId> = commands.iter().map(|(a, _)| *a).collect();
                t.sort_unstable();
                t.dedup();
                t
            };
            match transition {
                RoutineTransition::Committed => actions.push(RecoveryAction::Recommit {
                    routine,
                    instance,
                    targets,
                }),
                RoutineTransition::Staged => {
                    let entry = self.chain.append(
                        routine,
                        instance,
                        RoutineTransition::Aborted,
                        at,
                        Vec::new(),
                    );
                    if let Some(probe) = self.probe(routine) {
                        probe.record_transition(
                            self.coordinator,
                            instance,
                            RoutineTransition::Aborted,
                        );
                    }
                    actions.push(RecoveryAction::AbortStaged(AbortPlan {
                        routine,
                        instance,
                        entry,
                        targets,
                        compensations: self.compensations_of(routine),
                    }));
                }
                RoutineTransition::Aborted | RoutineTransition::Compensated => {}
            }
        }
        actions
    }

    fn compensations_of(&self, routine: RoutineId) -> Vec<(ActuatorId, CommandKind)> {
        self.spec(routine)
            .map(|spec| {
                spec.steps
                    .iter()
                    .filter_map(|s| s.compensate.map(|k| (s.actuator, k)))
                    .collect()
            })
            .unwrap_or_default()
    }

    fn targets_of(fl: &Inflight) -> Vec<ActuatorId> {
        let mut t: Vec<ActuatorId> = fl.commands.iter().map(|(_, a, _)| *a).collect();
        t.sort_unstable();
        t.dedup();
        t
    }

    fn append_transition(
        &mut self,
        fl: &Inflight,
        instance: u64,
        transition: RoutineTransition,
        at: Time,
    ) -> LedgerEntry {
        // Commands are carried by the Staged entry; terminal entries
        // reference the instance only (see LedgerEntry::commands).
        let entry = self
            .chain
            .append(fl.routine, instance, transition, at, Vec::new());
        if let Some(probe) = self.probe(fl.routine) {
            probe.record_transition(self.coordinator, instance, transition);
        }
        entry
    }

    fn abort(&mut self, instance: u64, at: Time) -> Option<AbortPlan> {
        let fl = self.inflight.remove(&instance)?;
        let entry = self.append_transition(&fl, instance, RoutineTransition::Aborted, at);
        Some(AbortPlan {
            routine: fl.routine,
            instance,
            entry,
            compensations: self.compensations_of(fl.routine),
            targets: Self::targets_of(&fl),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rivulet_storage::LedgerVerifier;
    use rivulet_types::{ActuationState, OperatorId, ProcessId};

    fn spec() -> RoutineSpec {
        RoutineSpec::new(RoutineId(1), "leaving-home")
            .step(
                ActuatorId(0),
                CommandKind::Set(ActuationState::Switch(false)),
            )
            .step_compensated(
                ActuatorId(1),
                CommandKind::Set(ActuationState::Switch(true)),
                CommandKind::Set(ActuationState::Switch(false)),
            )
    }

    fn engine() -> (RoutineEngine, Arc<RoutineProbe>) {
        let probe = RoutineProbe::new();
        let eng = RoutineEngine::new(ProcessId(0), 7, &[(Arc::new(spec()), Arc::clone(&probe))]);
        (eng, probe)
    }

    /// Each firing's latest state, in staging order.
    fn states(probe: &RoutineProbe) -> Vec<RoutineTransition> {
        probe.instances().iter().map(|r| r.state).collect()
    }

    fn minter() -> impl FnMut(ActuatorId, CommandKind) -> Command {
        minter_for(ProcessId(0))
    }

    fn minter_for(issuer: ProcessId) -> impl FnMut(ActuatorId, CommandKind) -> Command {
        let mut seq = 0u64;
        move |actuator, kind| {
            let cmd = Command::new(
                CommandId::new(issuer, OperatorId(0), seq),
                actuator,
                kind,
                Time::ZERO,
            );
            seq += 1;
            cmd
        }
    }

    #[test]
    fn full_commit_cycle_chains_and_verifies() {
        let (mut eng, probe) = engine();
        let plan = eng
            .trigger(RoutineId(1), 0, Time::from_secs(1), minter())
            .expect("staged");
        assert_eq!(plan.stages.len(), 2);
        assert!(matches!(
            eng.on_stage_ack(RoutineId(1), plan.instance, 0, true, Time::from_secs(1)),
            AckOutcome::Ignored
        ));
        let AckOutcome::Commit { entry, targets } =
            eng.on_stage_ack(RoutineId(1), plan.instance, 1, true, Time::from_secs(1))
        else {
            panic!("expected commit after last ack");
        };
        assert_eq!(targets, vec![ActuatorId(0), ActuatorId(1)]);
        assert!(
            eng.on_timeout(plan.instance, Time::from_secs(2)).is_none(),
            "the committed instance is no longer in flight"
        );
        assert_eq!(states(&probe), [RoutineTransition::Committed]);
        let trail = LedgerVerifier::verify(7, &[plan.entry, entry]).expect("chain intact");
        assert_eq!(trail.len(), 2);
    }

    #[test]
    fn refused_stage_aborts_with_compensation() {
        let (mut eng, probe) = engine();
        let plan = eng
            .trigger(RoutineId(1), 0, Time::ZERO, minter())
            .expect("staged");
        let AckOutcome::Abort(abort) =
            eng.on_stage_ack(RoutineId(1), plan.instance, 1, false, Time::ZERO)
        else {
            panic!("expected abort on refusal");
        };
        assert_eq!(
            abort.compensations,
            vec![(
                ActuatorId(1),
                CommandKind::Set(ActuationState::Switch(false))
            )]
        );
        assert_eq!(states(&probe), [RoutineTransition::Aborted]);
        let entry = eng.record_compensated(RoutineId(1), plan.instance, Time::ZERO, vec![]);
        assert_eq!(entry.transition, RoutineTransition::Compensated);
        assert_eq!(states(&probe), [RoutineTransition::Compensated]);
        LedgerVerifier::verify(7, &[plan.entry, abort.entry, entry]).expect("chain intact");
    }

    #[test]
    fn timeout_aborts_once() {
        let (mut eng, _) = engine();
        let plan = eng
            .trigger(RoutineId(1), 0, Time::ZERO, minter())
            .expect("staged");
        assert!(eng.on_timeout(plan.instance, Time::from_secs(2)).is_some());
        assert!(
            eng.on_timeout(plan.instance, Time::from_secs(2)).is_none(),
            "second timeout is a no-op"
        );
        // A straggling ack after the abort is ignored.
        assert!(matches!(
            eng.on_stage_ack(RoutineId(1), plan.instance, 0, true, Time::from_secs(2)),
            AckOutcome::Ignored
        ));
    }

    #[test]
    fn recover_reaborts_staged_and_recommits_committed() {
        let (mut eng, _) = engine();
        // Instance 0 commits; instance 1 is left staged (simulated
        // crash before acks).
        let p0 = eng
            .trigger(RoutineId(1), 0, Time::ZERO, minter())
            .expect("staged");
        let _ = eng.on_stage_ack(RoutineId(1), p0.instance, 0, true, Time::ZERO);
        let AckOutcome::Commit {
            entry: committed, ..
        } = eng.on_stage_ack(RoutineId(1), p0.instance, 1, true, Time::ZERO)
        else {
            panic!("expected commit after last ack");
        };
        let p1 = eng
            .trigger(RoutineId(1), 1, Time::ZERO, minter())
            .expect("staged");
        let entries = vec![p0.entry, committed, p1.entry];

        let probe = RoutineProbe::new();
        let mut recovered = RoutineEngine::new(ProcessId(0), 7, &[(Arc::new(spec()), probe)]);
        let actions = recovered.recover(&entries, Time::from_secs(5));
        assert_eq!(actions.len(), 2);
        assert!(matches!(
            &actions[0],
            RecoveryAction::Recommit { instance: 0, .. }
        ));
        let RecoveryAction::AbortStaged(abort) = &actions[1] else {
            panic!("staged instance must abort");
        };
        assert_eq!(abort.instance, 1);
        assert_eq!(abort.compensations.len(), 1);
        // The freshly appended Aborted entry extends the recovered
        // chain and still verifies end to end.
        let chain = [entries.as_slice(), std::slice::from_ref(&abort.entry)].concat();
        let trail = LedgerVerifier::verify(7, &chain).expect("chain intact");
        assert_eq!(trail.len(), entries.len() + 1);
    }

    #[test]
    fn unknown_routine_does_not_stage() {
        let (mut eng, _) = engine();
        assert!(eng
            .trigger(RoutineId(99), 0, Time::ZERO, minter())
            .is_none());
        // Nothing was chained: the next firing links to the genesis
        // hash.
        let plan = eng
            .trigger(RoutineId(1), 0, Time::ZERO, minter())
            .expect("staged");
        LedgerVerifier::verify(7, &[plan.entry]).expect("chain starts at genesis");
    }

    #[test]
    fn a_transition_updates_only_its_own_coordinators_record() {
        // Every engine numbers its first start's firings from 0 and all
        // share the routine's probe: after a failover, the new
        // coordinator's commit of its instance 0 must leave the old
        // one's alone.
        let probe = RoutineProbe::new();
        let routines = [(Arc::new(spec()), Arc::clone(&probe))];
        let mut old = RoutineEngine::new(ProcessId(0), 7, &routines);
        let mut new = RoutineEngine::new(ProcessId(1), 7, &routines);
        let staged = old
            .trigger(RoutineId(1), 0, Time::ZERO, minter_for(ProcessId(0)))
            .expect("staged");
        let plan = new
            .trigger(
                RoutineId(1),
                0,
                Time::from_secs(3),
                minter_for(ProcessId(1)),
            )
            .expect("staged");
        assert_eq!((staged.instance, plan.instance), (0, 0));
        for step in 0..2 {
            let _ = new.on_stage_ack(RoutineId(1), plan.instance, step, true, Time::from_secs(3));
        }
        let states: Vec<_> = probe
            .instances()
            .iter()
            .map(|r| (r.coordinator, r.state))
            .collect();
        assert_eq!(
            states,
            vec![
                (ProcessId(0), RoutineTransition::Staged),
                (ProcessId(1), RoutineTransition::Committed),
            ]
        );
    }

    #[test]
    fn probe_instances_track_final_state() {
        let (mut eng, probe) = engine();
        let plan = eng
            .trigger(RoutineId(1), 0, Time::ZERO, minter())
            .expect("staged");
        let _ = eng.on_stage_ack(RoutineId(1), plan.instance, 0, true, Time::ZERO);
        let _ = eng.on_stage_ack(RoutineId(1), plan.instance, 1, true, Time::ZERO);
        let instances = probe.instances();
        assert_eq!(instances.len(), 1);
        assert_eq!(instances[0].state, RoutineTransition::Committed);
        assert_eq!(instances[0].commands.len(), 2);
    }
}
