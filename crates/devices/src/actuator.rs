//! Actuator devices: idempotent and Test&Set.
//!
//! The execution service may legitimately run multiple active logic
//! nodes during a partition (paper §5). Whether that is safe depends on
//! the actuator: *idempotent* actuations (light on, thermostat
//! set-point, lock) can be repeated harmlessly, while *non-idempotent*
//! ones (dispense water, brew coffee) need the `Test&Set` command to
//! suppress duplicates. [`ActuatorDevice`] implements both and records
//! every physical effect so experiments can count duplicate actuations.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rivulet_net::actor::{Actor, ActorEvent, Context};
use rivulet_types::wire::{Wire, WriterPool};
use rivulet_types::{ActuationState, ActuatorId, Command, CommandId, CommandKind, RoutineId, Time};

use crate::fault::{DeviceFaults, FaultKind};
use crate::frame::RadioFrame;

/// Ground truth about an actuator's behaviour, shared with the harness.
#[derive(Debug)]
pub struct ActuatorProbe {
    effects: Mutex<Vec<(Time, CommandId, ActuationState)>>,
    duplicates_suppressed: AtomicU64,
    state: Mutex<ActuationState>,
}

impl ActuatorProbe {
    /// Creates a probe with the given initial state.
    #[must_use]
    pub fn new(initial: ActuationState) -> Arc<Self> {
        Arc::new(Self {
            effects: Mutex::new(Vec::new()),
            duplicates_suppressed: AtomicU64::new(0),
            state: Mutex::new(initial),
        })
    }

    /// Every physical effect applied, in order.
    #[must_use]
    pub fn effects(&self) -> Vec<(Time, CommandId, ActuationState)> {
        self.effects.lock().expect("probe lock").clone()
    }

    /// Number of physical effects applied.
    #[must_use]
    pub fn effect_count(&self) -> usize {
        self.effects.lock().expect("probe lock").len()
    }

    /// Commands refused by Test&Set mismatch or duplicate id.
    #[must_use]
    pub fn duplicates_suppressed(&self) -> u64 {
        self.duplicates_suppressed.load(Ordering::SeqCst)
    }

    /// The actuator's current state.
    #[must_use]
    pub fn state(&self) -> ActuationState {
        *self.state.lock().expect("probe lock")
    }
}

/// An emulated physical actuator.
///
/// Commands arrive as [`RadioFrame::Actuate`]; every command is
/// acknowledged with [`RadioFrame::ActuateAck`] reporting whether it
/// was applied and the resulting state. Exactly-once per command id is
/// enforced (hardware debounces retransmissions), but *distinct*
/// commands with the same effect are deliberately applied again — that
/// duplication hazard is the subject of the paper's idempotence
/// discussion.
///
/// The debounce memory (applied command ids, committed routine
/// instances) is hashed, so a command costs O(1) expected however many
/// the actuator has already applied.
#[derive(Debug)]
pub struct ActuatorDevice {
    actuator: ActuatorId,
    state: ActuationState,
    probe: Arc<ActuatorProbe>,
    /// Ids of commands that took effect; a repeat is refused.
    applied_ids: HashSet<CommandId>,
    /// Commands withheld for staged routine steps, fired in step order
    /// on [`RadioFrame::CommitRoutine`] or discarded on
    /// [`RadioFrame::AbortRoutine`].
    staged: Vec<(RoutineId, u64, u32, Command)>,
    /// Instances already committed here — repeated commit frames (e.g.
    /// re-sent after coordinator recovery) apply nothing.
    committed: HashSet<(RoutineId, u64)>,
    /// Seeded fault schedule (empty unless a
    /// [`crate::fault::FaultPlan`] names this actuator). `Missed` drops
    /// commands before they are seen; `StuckAt` acks them without
    /// applying.
    faults: DeviceFaults,
    /// Acknowledgements are encoded into recycled buffers.
    pool: WriterPool,
}

impl ActuatorDevice {
    /// Creates an actuator in `initial` state.
    #[must_use]
    pub fn new(actuator: ActuatorId, initial: ActuationState, probe: Arc<ActuatorProbe>) -> Self {
        Self {
            actuator,
            state: initial,
            probe,
            applied_ids: HashSet::new(),
            staged: Vec::new(),
            committed: HashSet::new(),
            faults: DeviceFaults::default(),
            pool: WriterPool::new(),
        }
    }

    /// Attaches a seeded fault schedule (see [`crate::fault`]).
    #[must_use]
    pub fn with_faults(mut self, faults: DeviceFaults) -> Self {
        self.faults = faults;
        self
    }

    fn states_equal(a: ActuationState, b: ActuationState) -> bool {
        match (a, b) {
            (ActuationState::Switch(x), ActuationState::Switch(y)) => x == y,
            (ActuationState::Level(x), ActuationState::Level(y)) => (x - y).abs() < f64::EPSILON,
            (ActuationState::Pulse(x), ActuationState::Pulse(y)) => x == y,
            _ => false,
        }
    }

    /// Applies `cmd` to the physical state, honouring exactly-once per
    /// command id and Test&Set. Returns whether it took effect.
    fn apply_locally(&mut self, now: Time, cmd: &Command) -> bool {
        if self.applied_ids.contains(&cmd.id) {
            self.probe
                .duplicates_suppressed
                .fetch_add(1, Ordering::SeqCst);
            return false;
        }
        match cmd.kind {
            CommandKind::Set(desired) => {
                self.state = desired;
                self.applied_ids.insert(cmd.id);
                self.probe
                    .effects
                    .lock()
                    .expect("probe lock")
                    .push((now, cmd.id, desired));
                *self.probe.state.lock().expect("probe lock") = desired;
                true
            }
            CommandKind::TestAndSet { expected, desired } => {
                if Self::states_equal(self.state, expected) {
                    self.state = desired;
                    self.applied_ids.insert(cmd.id);
                    self.probe
                        .effects
                        .lock()
                        .expect("probe lock")
                        .push((now, cmd.id, desired));
                    *self.probe.state.lock().expect("probe lock") = desired;
                    true
                } else {
                    self.probe
                        .duplicates_suppressed
                        .fetch_add(1, Ordering::SeqCst);
                    false
                }
            }
            // Future command kinds: refuse rather than guess.
            _ => false,
        }
    }

    fn on_actuate(
        &mut self,
        ctx: &mut Context<'_>,
        from: rivulet_net::actor::ActorId,
        cmd: &Command,
    ) {
        let decision = self.faults.decide_next();
        if decision.suppress.is_some() {
            // The command is lost at the radio: no ack, no state
            // change, the issuer sees a timeout.
            self.faults.record_dropped(false);
            return;
        }
        let stuck = decision.corrupt == Some(FaultKind::StuckAt);

        let applied = if stuck && !self.applied_ids.contains(&cmd.id) {
            // Mechanically stuck: the actuator hears the command but
            // cannot move. It honestly acks `applied = false` with its
            // real (unchanged) state.
            self.faults.record_refused(false);
            false
        } else {
            self.apply_locally(ctx.now(), cmd)
        };
        let ack = RadioFrame::ActuateAck {
            command: cmd.id,
            applied,
            state: self.state,
        };
        ctx.send(from, self.pool.encode(&ack));
    }

    /// Holds a routine step for later commit and acks the staging.
    ///
    /// Fault semantics mirror plain actuation, but shifted to the
    /// staging handshake so a faulty device fails the routine *before*
    /// anything fires: a `Missed` fault swallows the stage frame (no
    /// ack — the coordinator times out and aborts), a `StuckAt` fault
    /// acks `accepted = false` (instant abort). Commit and abort frames
    /// are then processed unconditionally, preserving all-or-nothing.
    fn on_stage(
        &mut self,
        ctx: &mut Context<'_>,
        from: rivulet_net::actor::ActorId,
        routine: RoutineId,
        instance: u64,
        step: u32,
        command: Command,
    ) {
        if command.actuator != self.actuator {
            return;
        }
        let decision = self.faults.decide_next();
        if decision.suppress.is_some() {
            self.faults.record_dropped(true);
            return;
        }
        let stuck = decision.corrupt == Some(FaultKind::StuckAt);
        let accepted = !stuck;
        if stuck {
            self.faults.record_refused(true);
        } else if self.committed.contains(&(routine, instance)) {
            // A retransmitted stage for an instance that already
            // committed here: the effect happened, just re-ack.
        } else {
            // Replace rather than duplicate on retransmission.
            self.staged
                .retain(|(r, i, s, _)| !(*r == routine && *i == instance && *s == step));
            self.staged.push((routine, instance, step, command));
        }
        let ack = RadioFrame::StageAck {
            routine,
            instance,
            step,
            accepted,
        };
        ctx.send(from, self.pool.encode(&ack));
    }

    /// Fires every held step of `(routine, instance)` in step order.
    fn on_commit(&mut self, now: Time, routine: RoutineId, instance: u64) {
        if self.committed.contains(&(routine, instance)) {
            return;
        }
        let mut held: Vec<(u32, Command)> = Vec::new();
        self.staged.retain(|(r, i, s, c)| {
            if *r == routine && *i == instance {
                held.push((*s, c.clone()));
                false
            } else {
                true
            }
        });
        held.sort_by_key(|(s, _)| *s);
        for (_, cmd) in &held {
            let _ = self.apply_locally(now, cmd);
        }
        self.committed.insert((routine, instance));
    }

    /// Discards every held step of `(routine, instance)` unfired.
    fn on_abort(&mut self, routine: RoutineId, instance: u64) {
        self.staged
            .retain(|(r, i, _, _)| !(*r == routine && *i == instance));
    }
}

impl Actor for ActuatorDevice {
    fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent) {
        let ActorEvent::Message { from, payload } = event else {
            return;
        };
        let Ok(frame) = RadioFrame::from_bytes(&payload) else {
            return;
        };
        match frame {
            RadioFrame::Actuate(cmd) if cmd.actuator == self.actuator => {
                self.on_actuate(ctx, from, &cmd);
            }
            RadioFrame::Stage {
                routine,
                instance,
                step,
                command,
            } => self.on_stage(ctx, from, routine, instance, step, command),
            RadioFrame::CommitRoutine { routine, instance } => {
                self.on_commit(ctx.now(), routine, instance);
            }
            RadioFrame::AbortRoutine { routine, instance } => self.on_abort(routine, instance),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rivulet_net::actor::{ActorId, Context};
    use rivulet_net::link::ActorClass;
    use rivulet_net::sim::{SimConfig, SimNet};
    use rivulet_obs::ObsSnapshot;
    use rivulet_types::{Command, OperatorId, ProcessId};

    use crate::fault::{FaultPlan, FaultProbe, FaultSpec};

    type AckLog = Arc<Mutex<Vec<(CommandId, bool, ActuationState)>>>;

    /// Issues a scripted series of commands — the first after
    /// `first_ms`, then one every `period_ms` — and records acks.
    struct Issuer {
        target: ActorId,
        script: Vec<Command>,
        acks: AckLog,
        idx: usize,
        first_ms: u64,
        period_ms: u64,
    }

    impl Actor for Issuer {
        fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent) {
            match event {
                ActorEvent::Start => {
                    ctx.set_timer(rivulet_types::Duration::from_millis(self.first_ms), 1);
                }
                ActorEvent::Timer { .. } => {
                    if let Some(cmd) = self.script.get(self.idx) {
                        self.idx += 1;
                        ctx.send(self.target, RadioFrame::Actuate(cmd.clone()).to_bytes());
                        ctx.set_timer(rivulet_types::Duration::from_millis(self.period_ms), 1);
                    }
                }
                ActorEvent::Message { payload, .. } => {
                    if let Ok(RadioFrame::ActuateAck {
                        command,
                        applied,
                        state,
                    }) = RadioFrame::from_bytes(&payload)
                    {
                        self.acks
                            .lock()
                            .expect("lock")
                            .push((command, applied, state));
                    }
                }
            }
        }
    }

    fn cmd(seq: u64, kind: CommandKind) -> Command {
        Command::new(
            CommandId::new(ProcessId(0), OperatorId(0), seq),
            ActuatorId(1),
            kind,
            Time::ZERO,
        )
    }

    fn run_script(
        script: Vec<Command>,
    ) -> (Arc<ActuatorProbe>, Vec<(CommandId, bool, ActuationState)>) {
        let mut net = SimNet::new(SimConfig::with_seed(1));
        let probe = ActuatorProbe::new(ActuationState::Switch(false));
        let p = Arc::clone(&probe);
        let dev = net.add_actor("light", ActorClass::Device, move || {
            Box::new(ActuatorDevice::new(
                ActuatorId(1),
                ActuationState::Switch(false),
                Arc::clone(&p),
            ))
        });
        let acks = Arc::new(Mutex::new(Vec::new()));
        let a = Arc::clone(&acks);
        let s = script.clone();
        net.add_actor("issuer", ActorClass::Process, move || {
            Box::new(Issuer {
                target: dev,
                script: s.clone(),
                acks: Arc::clone(&a),
                idx: 0,
                first_ms: 10,
                period_ms: 10,
            })
        });
        net.run_until(Time::from_secs(5));
        let collected = acks.lock().unwrap().clone();
        (probe, collected)
    }

    #[test]
    fn set_commands_apply_and_ack() {
        let (probe, acks) = run_script(vec![
            cmd(0, CommandKind::Set(ActuationState::Switch(true))),
            cmd(1, CommandKind::Set(ActuationState::Switch(false))),
        ]);
        assert_eq!(probe.effect_count(), 2);
        assert_eq!(probe.state(), ActuationState::Switch(false));
        assert_eq!(acks.len(), 2);
        assert!(acks.iter().all(|(_, applied, _)| *applied));
    }

    #[test]
    fn repeated_set_is_reapplied_distinct_ids() {
        // Idempotent actuator: issuing "on" twice with distinct command
        // ids re-applies harmlessly — both count as effects.
        let (probe, _) = run_script(vec![
            cmd(0, CommandKind::Set(ActuationState::Switch(true))),
            cmd(1, CommandKind::Set(ActuationState::Switch(true))),
        ]);
        assert_eq!(probe.effect_count(), 2);
        assert_eq!(probe.duplicates_suppressed(), 0);
    }

    #[test]
    fn same_command_id_debounced() {
        let c = cmd(0, CommandKind::Set(ActuationState::Switch(true)));
        let (probe, acks) = run_script(vec![c.clone(), c]);
        assert_eq!(probe.effect_count(), 1);
        assert_eq!(probe.duplicates_suppressed(), 1);
        assert!(acks[0].1);
        assert!(!acks[1].1, "second identical command must be refused");
    }

    #[test]
    fn test_and_set_suppresses_concurrent_duplicates() {
        // Two logic nodes both try to dispense: pulse 0 -> 1. The
        // second must fail the expectation check (§5).
        let (probe, acks) = run_script(vec![
            Command::new(
                CommandId::new(ProcessId(1), OperatorId(0), 0),
                ActuatorId(1),
                CommandKind::TestAndSet {
                    expected: ActuationState::Switch(false),
                    desired: ActuationState::Switch(true),
                },
                Time::ZERO,
            ),
            Command::new(
                CommandId::new(ProcessId(2), OperatorId(0), 0),
                ActuatorId(1),
                CommandKind::TestAndSet {
                    expected: ActuationState::Switch(false),
                    desired: ActuationState::Switch(true),
                },
                Time::ZERO,
            ),
        ]);
        assert_eq!(probe.effect_count(), 1, "exactly one dispense");
        assert_eq!(probe.duplicates_suppressed(), 1);
        assert!(acks[0].1);
        assert!(!acks[1].1);
        assert_eq!(
            acks[1].2,
            ActuationState::Switch(true),
            "ack reports real state"
        );
    }

    #[test]
    fn replayed_streams_match_a_vec_based_reference() {
        // Two issuers, 40 command ids each, every id sent three times
        // (three passes over the script, so replays are far apart), the
        // issuers' frames alternating at the actuator 10 ms apart. The
        // mix has plain `Set`s, `TestAndSet`s whose expectation holds
        // and `TestAndSet`s whose expectation is stale — a refused
        // Test&Set is not remembered, so its replay is judged afresh.
        let initial = ActuationState::Level(0.0);
        let script_of = |issuer: u32| -> Vec<Command> {
            let once: Vec<Command> = (0..40u64)
                .map(|seq| {
                    let kind = match seq % 4 {
                        0 | 1 => CommandKind::Set(ActuationState::Level((seq % 8) as f64)),
                        2 => CommandKind::TestAndSet {
                            // What the other issuer's previous `Set`
                            // left behind, or not, depending on phase.
                            expected: ActuationState::Level(((seq - 1) % 8) as f64),
                            desired: ActuationState::Level(100.0 + seq as f64),
                        },
                        _ => CommandKind::TestAndSet {
                            expected: ActuationState::Level(-1.0), // never true
                            desired: ActuationState::Level(200.0),
                        },
                    };
                    Command::new(
                        CommandId::new(ProcessId(issuer), OperatorId(0), seq),
                        ActuatorId(1),
                        kind,
                        Time::ZERO,
                    )
                })
                .collect();
            [once.clone(), once.clone(), once].concat()
        };
        let scripts = [script_of(1), script_of(2)];

        // The reference: the device's rules over a `Vec` of applied ids,
        // fed the arrival order (issuer 1 at 10, 30, … ms; issuer 2 at
        // 20, 40, … ms; the radio is far faster than 10 ms).
        let mut state = initial;
        let mut applied_ids: Vec<CommandId> = Vec::new();
        let mut want_effects = Vec::new();
        let mut want_acks: [Vec<(CommandId, bool, ActuationState)>; 2] = [Vec::new(), Vec::new()];
        let mut want_suppressed = 0u64;
        for i in 0..scripts[0].len() {
            for (issuer, script) in scripts.iter().enumerate() {
                let cmd = &script[i];
                let applied = if applied_ids.contains(&cmd.id) {
                    want_suppressed += 1;
                    false
                } else {
                    match cmd.kind {
                        CommandKind::Set(desired) => {
                            state = desired;
                            true
                        }
                        CommandKind::TestAndSet { expected, desired } => {
                            if expected == state {
                                state = desired;
                                true
                            } else {
                                want_suppressed += 1;
                                false
                            }
                        }
                        _ => unreachable!("script only issues Set and TestAndSet"),
                    }
                };
                if applied {
                    applied_ids.push(cmd.id);
                    want_effects.push((cmd.id, state));
                }
                want_acks[issuer].push((cmd.id, applied, state));
            }
        }
        assert!(
            want_suppressed > 160,
            "replays and stale Test&Sets both occur"
        );
        assert!(
            want_effects
                .iter()
                .any(|(_, s)| matches!(s, ActuationState::Level(l) if *l > 100.0)),
            "some Test&Set succeeds"
        );

        let mut net = SimNet::new(SimConfig::with_seed(1));
        let probe = ActuatorProbe::new(initial);
        let p = Arc::clone(&probe);
        let dev = net.add_actor("dimmer", ActorClass::Device, move || {
            Box::new(ActuatorDevice::new(ActuatorId(1), initial, Arc::clone(&p)))
        });
        let logs: [AckLog; 2] = [AckLog::default(), AckLog::default()];
        for (issuer, script) in scripts.iter().enumerate() {
            let (script, log) = (script.clone(), Arc::clone(&logs[issuer]));
            net.add_actor("issuer", ActorClass::Process, move || {
                Box::new(Issuer {
                    target: dev,
                    script: script.clone(),
                    acks: Arc::clone(&log),
                    idx: 0,
                    first_ms: 10 * (issuer as u64 + 1),
                    period_ms: 20,
                })
            });
        }
        net.run_until(Time::from_secs(5));

        let got_effects: Vec<(CommandId, ActuationState)> = probe
            .effects()
            .into_iter()
            .map(|(_, id, state)| (id, state))
            .collect();
        assert_eq!(got_effects, want_effects);
        assert_eq!(probe.duplicates_suppressed(), want_suppressed);
        for (issuer, log) in logs.iter().enumerate() {
            assert_eq!(*log.lock().unwrap(), want_acks[issuer], "issuer {issuer}");
        }
    }

    #[test]
    fn wrong_actuator_ignored() {
        let mut wrong = cmd(0, CommandKind::Set(ActuationState::Switch(true)));
        wrong.actuator = ActuatorId(99);
        let (probe, acks) = run_script(vec![wrong]);
        assert_eq!(probe.effect_count(), 0);
        assert!(acks.is_empty());
    }

    /// A captured `StageAck`: `(routine, instance, step, accepted)`.
    type StageAckRec = (RoutineId, u64, u32, bool);

    /// Sends a scripted series of raw frames, 10 ms apart, and logs
    /// every frame sent back.
    struct FrameIssuer {
        target: ActorId,
        script: Vec<RadioFrame>,
        replies: Arc<Mutex<Vec<RadioFrame>>>,
        idx: usize,
    }

    impl Actor for FrameIssuer {
        fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent) {
            match event {
                ActorEvent::Start => ctx.set_timer(rivulet_types::Duration::from_millis(10), 1),
                ActorEvent::Timer { .. } => {
                    if let Some(frame) = self.script.get(self.idx) {
                        self.idx += 1;
                        ctx.send(self.target, frame.to_bytes());
                        ctx.set_timer(rivulet_types::Duration::from_millis(10), 1);
                    }
                }
                ActorEvent::Message { payload, .. } => {
                    if let Ok(frame) = RadioFrame::from_bytes(&payload) {
                        self.replies.lock().expect("lock").push(frame);
                    }
                }
            }
        }
    }

    /// Sends `script` to a light carrying `faults`, with the recorder
    /// on; returns its probe, the frames it sent back and the run's obs
    /// snapshot.
    fn run_faulted(
        script: Vec<RadioFrame>,
        faults: DeviceFaults,
    ) -> (Arc<ActuatorProbe>, Vec<RadioFrame>, ObsSnapshot) {
        let mut net = SimNet::new(SimConfig::with_seed(1));
        net.recorder().set_enabled(true);
        let faults = faults.reporting_to(FaultProbe::new(), net.recorder());
        let probe = ActuatorProbe::new(ActuationState::Switch(false));
        let p = Arc::clone(&probe);
        let dev = net.add_actor("light", ActorClass::Device, move || {
            let dev =
                ActuatorDevice::new(ActuatorId(1), ActuationState::Switch(false), Arc::clone(&p));
            Box::new(dev.with_faults(faults.clone()))
        });
        let replies = Arc::new(Mutex::new(Vec::new()));
        let r = Arc::clone(&replies);
        net.add_actor("coordinator", ActorClass::Process, move || {
            Box::new(FrameIssuer {
                target: dev,
                script: script.clone(),
                replies: Arc::clone(&r),
                idx: 0,
            })
        });
        net.run_until(Time::from_secs(5));
        let collected = replies.lock().unwrap().clone();
        (probe, collected, net.obs_snapshot())
    }

    fn run_frames(script: Vec<RadioFrame>) -> (Arc<ActuatorProbe>, Vec<StageAckRec>) {
        let (probe, replies, _) = run_faulted(script, DeviceFaults::default());
        let acks = replies
            .into_iter()
            .filter_map(|frame| match frame {
                RadioFrame::StageAck {
                    routine,
                    instance,
                    step,
                    accepted,
                } => Some((routine, instance, step, accepted)),
                _ => None,
            })
            .collect();
        (probe, acks)
    }

    /// Dropped and refused commands and stages are counted once each,
    /// under their `fault.*` keys.
    #[test]
    fn dropped_and_refused_commands_are_counted_under_their_fault_keys() {
        let commands = (0..4).map(|seq| {
            RadioFrame::Actuate(cmd(seq, CommandKind::Set(ActuationState::Switch(true))))
        });
        let stages =
            (0..3).map(|step| stage(0, step, 10 + u64::from(step), ActuationState::Switch(true)));
        let script: Vec<RadioFrame> = commands.chain(stages).collect();
        let faulted = |kind| {
            FaultPlan::new(1)
                .actuator(ActuatorId(1), FaultSpec::new(kind, 1.0))
                .for_actuator(ActuatorId(1))
        };

        let (probe, replies, obs) = run_faulted(script.clone(), faulted(FaultKind::Missed));
        assert!(replies.is_empty(), "a dropped frame is never acked");
        assert_eq!(probe.effect_count(), 0);
        assert_eq!(obs.counter("fault.actuation_dropped"), 4);
        assert_eq!(obs.counter("fault.stage_dropped"), 3);

        let (probe, replies, obs) = run_faulted(script, faulted(FaultKind::StuckAt));
        assert_eq!(replies.len(), 7, "a stuck actuator acks every frame");
        assert!(replies.iter().all(|frame| matches!(
            frame,
            RadioFrame::ActuateAck { applied: false, .. }
                | RadioFrame::StageAck {
                    accepted: false,
                    ..
                }
        )));
        assert_eq!(probe.effect_count(), 0);
        assert_eq!(obs.counter("fault.actuation_refused"), 4);
        assert_eq!(obs.counter("fault.stage_refused"), 3);
    }

    fn stage(instance: u64, step: u32, seq: u64, state: ActuationState) -> RadioFrame {
        RadioFrame::Stage {
            routine: RoutineId(1),
            instance,
            step,
            command: cmd(seq, CommandKind::Set(state)),
        }
    }

    #[test]
    fn staged_commands_withheld_until_commit() {
        let (probe, acks) = run_frames(vec![
            stage(0, 0, 10, ActuationState::Switch(true)),
            stage(0, 1, 11, ActuationState::Switch(false)),
        ]);
        assert_eq!(
            acks,
            vec![(RoutineId(1), 0, 0, true), (RoutineId(1), 0, 1, true)]
        );
        assert_eq!(probe.effect_count(), 0, "nothing fires before commit");
    }

    #[test]
    fn commit_fires_held_steps_in_step_order() {
        // Stage steps out of order; commit must apply them sorted.
        let (probe, _) = run_frames(vec![
            stage(0, 1, 11, ActuationState::Level(21.0)),
            stage(0, 0, 10, ActuationState::Level(19.0)),
            RadioFrame::CommitRoutine {
                routine: RoutineId(1),
                instance: 0,
            },
        ]);
        assert_eq!(probe.effect_count(), 2);
        assert_eq!(
            probe.state(),
            ActuationState::Level(21.0),
            "step 1 fires last"
        );
    }

    #[test]
    fn commit_is_idempotent() {
        let (probe, _) = run_frames(vec![
            stage(0, 0, 10, ActuationState::Switch(true)),
            RadioFrame::CommitRoutine {
                routine: RoutineId(1),
                instance: 0,
            },
            RadioFrame::CommitRoutine {
                routine: RoutineId(1),
                instance: 0,
            },
        ]);
        assert_eq!(probe.effect_count(), 1, "re-sent commit applies nothing");
    }

    #[test]
    fn abort_discards_without_firing() {
        let (probe, _) = run_frames(vec![
            stage(0, 0, 10, ActuationState::Switch(true)),
            stage(0, 1, 11, ActuationState::Switch(false)),
            RadioFrame::AbortRoutine {
                routine: RoutineId(1),
                instance: 0,
            },
            // A late commit for the aborted instance finds nothing held.
            RadioFrame::CommitRoutine {
                routine: RoutineId(1),
                instance: 0,
            },
        ]);
        assert_eq!(probe.effect_count(), 0);
    }

    #[test]
    fn instances_are_isolated() {
        // Committing instance 1 must not fire instance 0's held steps.
        let (probe, _) = run_frames(vec![
            stage(0, 0, 10, ActuationState::Switch(true)),
            stage(1, 0, 20, ActuationState::Level(25.0)),
            RadioFrame::CommitRoutine {
                routine: RoutineId(1),
                instance: 1,
            },
        ]);
        assert_eq!(probe.effect_count(), 1);
        assert_eq!(probe.state(), ActuationState::Level(25.0));
    }

    #[test]
    fn level_and_pulse_states() {
        let (probe, _) = run_script(vec![
            cmd(0, CommandKind::Set(ActuationState::Level(19.5))),
            cmd(
                1,
                CommandKind::TestAndSet {
                    expected: ActuationState::Level(19.5),
                    desired: ActuationState::Level(21.0),
                },
            ),
            cmd(
                2,
                CommandKind::TestAndSet {
                    expected: ActuationState::Level(19.5), // stale expectation
                    desired: ActuationState::Level(25.0),
                },
            ),
        ]);
        assert_eq!(probe.state(), ActuationState::Level(21.0));
        assert_eq!(probe.effect_count(), 2);
        assert_eq!(probe.duplicates_suppressed(), 1);
    }
}
