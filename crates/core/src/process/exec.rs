//! Execution glue: electing active logic nodes, routing events into app
//! runtimes, and turning operator outputs into commands.

use std::sync::Arc;

use rivulet_devices::frame::RadioFrame;
use rivulet_net::actor::Context;
use rivulet_obs::Recorder;
use rivulet_types::{Command, Event};

use super::{advance, token, Running, KIND_WINDOW};
use crate::app::{AppRuntime, OpOutput, RuntimeOutput};
use crate::execution::Transition;
use crate::messages::ProcMsg;
use crate::probe::DeliveryRecord;
use crate::repair::{HealthModel, RepairCounts, RepairVerdict};

/// Folds a repair-counter delta into the recorder. A clean delta (the
/// overwhelmingly common case) writes nothing, so healthy homes pay
/// one comparison per delivery and the obs snapshot carries no
/// `repair.*` keys at all when the layer never acted.
fn record_repair_counts(obs: &Recorder, counts: RepairCounts) {
    if counts == RepairCounts::default() {
        return;
    }
    if counts.substitutions > 0 {
        obs.add("repair.substitutions", counts.substitutions);
    }
    if counts.outlier_drops > 0 {
        obs.add("repair.outlier_drops", counts.outlier_drops);
    }
    if counts.quarantines > 0 {
        obs.add("repair.quarantines", counts.quarantines);
    }
    if counts.quarantined_drops > 0 {
        obs.add("repair.quarantined_drops", counts.quarantined_drops);
    }
    if counts.stuck_flagged > 0 {
        obs.add("repair.stuck_flagged", counts.stuck_flagged);
    }
}

impl Running {
    /// Re-evaluates the election for every app, handling promotion
    /// replay and demotion teardown.
    pub(super) fn election(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let me = self.me;
        for idx in 0..self.apps.len() {
            let membership = &self.membership;
            let app = &mut self.apps[idx];
            let window_timers = self.window_timers.iter().enumerate();
            let mine = window_timers.filter(|(_, (a, ..))| *a == idx);
            match app.exec.reevaluate(|p| membership.is_alive(p, now)) {
                Some(Transition::Promoted) => {
                    app.probe.record_transition(now, me, true);
                    self.obs
                        .event("exec.promoted", now, u64::from(me.0), idx as u64);
                    app.runtime =
                        Some(AppRuntime::new(Arc::clone(&app.spec)).expect("validated app"));
                    app.stale_reported = 0;
                    for (i, (.., period)) in mine {
                        ctx.set_timer(*period, token(KIND_WINDOW, i as u32));
                    }
                    self.replay_outstanding(ctx, idx);
                }
                Some(Transition::Demoted) => {
                    self.obs
                        .event("exec.demoted", now, u64::from(me.0), idx as u64);
                    app.runtime = None;
                    app.probe.record_transition(now, me, false);
                    for (i, _) in mine {
                        ctx.cancel_timer(token(KIND_WINDOW, i as u32));
                    }
                }
                None => {}
            }
        }
    }

    /// On promotion: feed replicated-but-unprocessed events (above the
    /// merged processed watermarks) into the fresh runtime, in
    /// per-sensor sequence order — this produces the Fig. 7 catch-up
    /// spike under Gapless delivery.
    fn replay_outstanding(&mut self, ctx: &mut Context<'_>, app_idx: usize) {
        let mut events = Vec::new();
        for sensor in self.apps[app_idx].spec.sensors() {
            // Only Gapless inputs are replicated in the store.
            let after = self.processed.get(&sensor).copied();
            events.extend(self.gapless.store().events_after(sensor, after));
        }
        for event in events {
            self.process_at_app(ctx, app_idx, &event);
        }
    }

    /// Routes a newly known event to every active app (Gapless
    /// delivery path and Gap local delivery path).
    pub(super) fn deliver_to_apps(&mut self, ctx: &mut Context<'_>, event: &Event) {
        self.note_epoch_event(ctx, event);
        for idx in 0..self.apps.len() {
            if self.apps[idx].exec.is_active() {
                self.process_at_app(ctx, idx, event);
            }
        }
    }

    /// Routes one newly known event to a specific active app runtime.
    fn process_at_app(&mut self, ctx: &mut Context<'_>, app_idx: usize, event: &Event) {
        let now = ctx.now();
        // Repair layer: health-check the reading before any app sees
        // it. The verdict is cached per event id, so routing the same
        // event to several apps (or replaying it after a promotion)
        // consults the detectors exactly once.
        let mut substituted: Option<Event> = None;
        if let Some(health) = self.repair.as_mut() {
            let verdict = health.observe(now, event);
            record_repair_counts(&self.obs, health.take_counts());
            match verdict {
                RepairVerdict::Accept => {}
                RepairVerdict::Substitute(value) => {
                    substituted = Some(HealthModel::substituted(event, value));
                }
                RepairVerdict::DropOutlier | RepairVerdict::DropQuarantined => {
                    // The platform consumed the event even though
                    // no app will: advance the watermark so the
                    // drop is not replayed forever.
                    advance(&mut self.processed, event.id.sensor, event.id.seq);
                    return;
                }
            }
        }
        let event = substituted.as_ref().unwrap_or(event);
        let app = &mut self.apps[app_idx];
        let Some(runtime) = app.runtime.as_mut() else {
            return;
        };
        if !runtime.subscribes_to(event.id.sensor) {
            return;
        }
        app.probe.record_delivery(DeliveryRecord {
            at: now,
            by: self.me,
            event: event.id,
            emitted_at: event.emitted_at,
            value: event.payload.as_scalar(),
        });
        self.obs.inc("app.deliveries");
        let sensor = u64::from(event.id.sensor.as_u32());
        self.obs.event("app.delivery", now, sensor, event.id.seq);
        let delay = now.duration_since(event.emitted_at);
        self.obs.observe("app.delay_us", delay.as_micros());
        let outputs = runtime.on_event(now, event);
        let stale = runtime.stale_drops();
        if stale > app.stale_reported {
            app.probe.record_stale_drops(stale - app.stale_reported);
            self.obs.add("app.stale_drops", stale - app.stale_reported);
            app.stale_reported = stale;
        }
        advance(&mut self.processed, event.id.sensor, event.id.seq);
        self.handle_outputs(ctx, app_idx, outputs);
    }

    /// Handles operator outputs: actuation routing and alerts.
    pub(super) fn handle_outputs(
        &mut self,
        ctx: &mut Context<'_>,
        app_idx: usize,
        outputs: Vec<RuntimeOutput>,
    ) {
        let now = ctx.now();
        for out in outputs {
            match out.output {
                OpOutput::Actuate { actuator, kind } => {
                    let id = self.command_ids.mint(out.operator);
                    let command = Command::new(id, actuator, kind, now);
                    let probe = &self.apps[app_idx].probe;
                    probe.record_command(now, command.clone());
                    self.obs.inc("app.commands");
                    self.route_command(ctx, command);
                }
                OpOutput::Alert { message } => {
                    let probe = &self.apps[app_idx].probe;
                    probe.record_alert(now, self.me, message);
                    self.obs.inc("app.alerts");
                }
                OpOutput::RunRoutine { routine } => {
                    self.run_routine(ctx, out.operator, routine);
                }
                OpOutput::Emit { .. } => {
                    // Internal cascades were resolved inside the runtime.
                }
            }
        }
    }

    /// Sends a command to the actuator: directly via the local adapter
    /// when reachable, otherwise forwarded to the closest live process
    /// with an active actuator node (§4's "analogous" command path).
    pub(super) fn route_command(&mut self, ctx: &mut Context<'_>, command: Command) {
        if let Some(device) = self.actuators.local(command.actuator) {
            let frame = RadioFrame::Actuate(command);
            self.actuators.send(ctx, device, &frame);
            return;
        }
        let now = ctx.now();
        let reachers = self.actuators.reachers(command.actuator).iter();
        let target = reachers
            .copied()
            .find(|p| self.membership.is_alive(*p, now));
        if let Some(target) = target {
            self.send_proc(target, &ProcMsg::CmdForward { command });
        }
    }

    pub(super) fn window_fired(&mut self, ctx: &mut Context<'_>, idx: usize) {
        let Some((app_idx, op, stream, period)) = self.window_timers.get(idx).cloned() else {
            return;
        };
        let Some(runtime) = self.apps[app_idx].runtime.as_mut() else {
            return;
        };
        let outputs = runtime.on_time_trigger(ctx.now(), op, stream);
        self.handle_outputs(ctx, app_idx, outputs);
        ctx.set_timer(period, token(KIND_WINDOW, idx as u32));
    }
}
