//! Routine coordinator glue (§4.7): staging, commit, abort and
//! compensation of all-or-nothing multi-actuator firings. Every
//! transition's ledger entry is durable before its frames leave.

use rivulet_devices::frame::RadioFrame;
use rivulet_net::actor::Context;
use rivulet_types::{Command, OperatorId, RoutineId};

use super::{token, Running, KIND_ROUTINE};
use crate::routine::{AbortPlan, AckOutcome, RecoveryAction};

/// Synthetic operator identity under which routine compensation
/// commands are sequenced: compensations restore declared safe states
/// after an abort and belong to no application operator.
const OP_COMPENSATION: OperatorId = OperatorId(u32::MAX);

/// Synthetic operator identity under which routine instances are
/// numbered: an instance is the `seq` of an id minted under it, so it
/// starts above every instance an earlier start numbered, as command
/// ids do.
const OP_INSTANCE: OperatorId = OperatorId(u32::MAX - 1);

impl Running {
    /// Triggers a staged all-or-nothing firing of `routine` (§4.7).
    /// Silently ignored when [`crate::config::RivuletConfig::routines`]
    /// is off or the id is undeployed, so apps can request routines
    /// unconditionally.
    pub(super) fn run_routine(
        &mut self,
        ctx: &mut Context<'_>,
        operator: OperatorId,
        routine: RoutineId,
    ) {
        let now = ctx.now();
        let Some(engine) = self.routines.as_mut() else {
            return;
        };
        let Some(spec) = engine.spec(routine) else {
            return;
        };
        // Staging frames go over local radio links only: if any target
        // actuator is not adapted by this coordinator, refuse the
        // trigger outright — nothing staged, nothing to clean up.
        let targets = spec.actuators();
        let (dir, me) = (&self.directory, self.me);
        if targets
            .iter()
            .any(|a| dir.adapted_actuator(*a, me).is_none())
        {
            engine.note_unreachable(routine);
            self.obs.inc("routine.unreachable");
            return;
        }
        let ids = &mut self.command_ids;
        let instance = ids.mint(OP_INSTANCE).seq;
        let Some(plan) = engine.trigger(routine, instance, now, |actuator, kind| {
            Command::new(ids.mint(operator), actuator, kind, now)
        }) else {
            return;
        };
        // Write-ahead: the Staged entry is durable before any stage
        // frame leaves, so a crash mid-staging recovers to a clean
        // abort instead of orphaned held commands.
        self.gate.append_ledger(&plan.entry);
        self.obs.inc("routine.triggered");
        for (actuator, step, command) in plan.stages {
            let stage = RadioFrame::Stage {
                routine,
                instance,
                step,
                command,
            };
            self.radio(ctx, actuator, &stage);
        }
        let timeout = self.config.routine_stage_timeout;
        ctx.set_timer(timeout, self.routine_timer(instance));
    }

    /// The staging-timeout timer of `instance`, one this start numbered:
    /// a token holds 32 bits, so it carries the instance's offset from
    /// the start's id base ([`Self::routine_timeout_fired`] adds it
    /// back).
    fn routine_timer(&self, instance: u64) -> u64 {
        let offset = u32::try_from(instance - self.command_ids.base);
        token(KIND_ROUTINE, offset.expect("2^32 instances in one start"))
    }

    /// An actuator acknowledged (or refused) a staged routine step.
    pub(super) fn on_stage_ack(
        &mut self,
        ctx: &mut Context<'_>,
        routine: RoutineId,
        instance: u64,
        step: u32,
        accepted: bool,
    ) {
        let Some(engine) = self.routines.as_mut() else {
            return;
        };
        let outcome = engine.on_stage_ack(routine, instance, step, accepted, ctx.now());
        self.obs.inc("routine.stage_acks");
        match outcome {
            AckOutcome::Ignored => {}
            AckOutcome::Commit { entry, targets } => {
                ctx.cancel_timer(self.routine_timer(instance));
                // Write-ahead: the commit decision is durable before
                // any fire frame leaves; recovery re-drives the
                // idempotent commit if we crash mid-burst.
                self.gate.append_ledger(&entry);
                let commit = RadioFrame::CommitRoutine { routine, instance };
                for actuator in targets {
                    self.radio(ctx, actuator, &commit);
                }
                self.obs.inc("routine.committed");
            }
            AckOutcome::Abort(plan) => {
                ctx.cancel_timer(self.routine_timer(instance));
                self.abort_routine(ctx, plan);
            }
        }
    }

    /// The staging timeout fired for the instance `offset` above the
    /// start's id base: abort it unless the last ack raced the timer
    /// and already resolved the firing.
    pub(super) fn routine_timeout_fired(&mut self, ctx: &mut Context<'_>, offset: u64) {
        let instance = self.command_ids.base + offset;
        let engine = self.routines.as_mut();
        let Some(plan) = engine.and_then(|e| e.on_timeout(instance, ctx.now())) else {
            return;
        };
        self.obs.inc("routine.timeouts");
        self.abort_routine(ctx, plan);
    }

    /// Aborts a firing: makes the `Aborted` entry durable, tells every
    /// target to discard its held steps, and issues the declared
    /// compensation commands as plain actuations (recorded as a
    /// `Compensated` entry *before* they are routed — write-ahead).
    fn abort_routine(&mut self, ctx: &mut Context<'_>, plan: AbortPlan) {
        let now = ctx.now();
        self.gate.append_ledger(&plan.entry);
        let abort = RadioFrame::AbortRoutine {
            routine: plan.routine,
            instance: plan.instance,
        };
        for actuator in &plan.targets {
            self.radio(ctx, *actuator, &abort);
        }
        self.obs.inc("routine.aborted");
        if plan.compensations.is_empty() {
            return;
        }
        let Some(engine) = self.routines.as_mut() else {
            return;
        };
        let ids = &mut self.command_ids;
        let commands: Vec<Command> = plan
            .compensations
            .into_iter()
            .map(|(actuator, kind)| Command::new(ids.mint(OP_COMPENSATION), actuator, kind, now))
            .collect();
        let issued = commands.iter().map(|c| (c.actuator, c.id)).collect();
        let entry = engine.record_compensated(plan.routine, plan.instance, now, issued);
        self.gate.append_ledger(&entry);
        for command in commands {
            self.route_command(ctx, command);
        }
        self.obs.inc("routine.compensated");
    }

    /// Replays the routine-recovery verdicts computed while the state
    /// was being rebuilt from the log.
    pub(super) fn replay_routine_recovery(
        &mut self,
        ctx: &mut Context<'_>,
        actions: Vec<RecoveryAction>,
    ) {
        for action in actions {
            match action {
                RecoveryAction::Recommit {
                    routine,
                    instance,
                    targets,
                } => {
                    self.obs.inc("routine.recommits");
                    let commit = RadioFrame::CommitRoutine { routine, instance };
                    for actuator in targets {
                        self.radio(ctx, actuator, &commit);
                    }
                }
                RecoveryAction::AbortStaged(plan) => {
                    self.obs.inc("routine.recovered_aborts");
                    self.abort_routine(ctx, plan);
                }
            }
        }
    }
}
