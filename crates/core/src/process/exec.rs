//! Execution glue: electing active logic nodes, routing events into app
//! runtimes, and turning operator outputs into commands.

use std::sync::Arc;

use rivulet_devices::frame::RadioFrame;
use rivulet_net::actor::Context;
use rivulet_types::{ActuatorId, Command, Event, EventId, Time};

use super::{token, Running, KIND_WINDOW};
use crate::app::{AppRuntime, OpOutput, RuntimeOutput};
use crate::delivery::Delivery;
use crate::execution::active_logic;
use crate::messages::ProcMsg;
use crate::probe::DeliveryRecord;
use crate::repair::{HealthModel, RepairVerdict};

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
            let should_be_active =
                active_logic(&app.chain, |p| membership.is_alive(p, now)) == Some(me);
            if should_be_active && app.runtime.is_none() {
                app.probe.record_transition(now, me, true);
                self.obs
                    .event("exec.promoted", now, u64::from(me.0), idx as u64);
                app.runtime = Some(AppRuntime::new(Arc::clone(&app.spec)).expect("validated app"));
                app.stale_reported = 0;
                for (i, (.., period)) in mine {
                    ctx.set_timer(*period, token(KIND_WINDOW, i as u32));
                }
                self.replay_outstanding(ctx, idx);
            } else if !should_be_active && app.runtime.is_some() {
                self.obs
                    .event("exec.demoted", now, u64::from(me.0), idx as u64);
                app.runtime = None;
                app.probe.record_transition(now, me, false);
                for (i, _) in mine {
                    ctx.cancel_timer(token(KIND_WINDOW, i as u32));
                }
            }
        }
    }

    /// On promotion: feed every stored event of the app's sensors that
    /// the processed summary lacks into the fresh runtime, holes
    /// included, in per-sensor sequence order — this produces the
    /// Fig. 7 catch-up spike under Gapless delivery. (Only Gapless
    /// inputs are replicated in the store.)
    fn replay_outstanding(&mut self, ctx: &mut Context<'_>, app_idx: usize) {
        let sensors = self.apps[app_idx].spec.sensors();
        let mut events = self.gapless.store().diff_for(&self.processed, Time::MAX);
        events.retain(|e| sensors.contains(&e.id.sensor));
        for event in events {
            self.process_at_app(ctx, app_idx, &event);
        }
    }

    /// Routes a newly known event to every active app (Gapless
    /// delivery path and Gap local delivery path).
    pub(super) fn deliver_to_apps(&mut self, ctx: &mut Context<'_>, event: &Event) {
        self.note_epoch_event(ctx, event);
        for idx in 0..self.apps.len() {
            if self.apps[idx].runtime.is_some() {
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
            match health.observe(now, event) {
                RepairVerdict::Accept => {}
                RepairVerdict::Substitute(value) => {
                    substituted = Some(HealthModel::substituted(event, value));
                }
                RepairVerdict::DropOutlier | RepairVerdict::DropQuarantined => {
                    // The platform consumed the event even though
                    // no app will: note it processed so the drop is
                    // not replayed forever.
                    self.note_processed(event.id);
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
        self.note_processed(event.id);
        self.handle_outputs(ctx, app_idx, outputs);
    }

    /// Notes `id` in the processed summary if its sensor is delivered
    /// Gapless: nothing replays, collects or checkpoints a Gap event.
    fn note_processed(&mut self, id: EventId) {
        let rt = self.sensors.get(&id.sensor);
        if rt.is_some_and(|rt| rt.delivery == Delivery::Gapless) {
            self.processed.note(id);
        }
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
        if let Some(device) = self.directory.adapted_actuator(command.actuator, self.me) {
            let frame = RadioFrame::Actuate(command);
            ctx.send(device, self.radio_pool.encode(&frame));
            return;
        }
        let now = ctx.now();
        let entry = self.directory.actuator(command.actuator);
        let reachers = entry.iter().flat_map(|a| &a.reachers);
        let target = reachers
            .copied()
            .find(|p| self.membership.is_alive(*p, now));
        if let Some(target) = target {
            self.send_proc(target, &ProcMsg::CmdForward { command });
        }
    }

    /// Sends `frame` to `actuator` if this process adapts it; stays
    /// silent otherwise. A command or routine frame reaches a device
    /// only over the radio of a process that adapts it.
    pub(super) fn radio(
        &mut self,
        ctx: &mut Context<'_>,
        actuator: ActuatorId,
        frame: &RadioFrame,
    ) {
        if let Some(device) = self.directory.adapted_actuator(actuator, self.me) {
            ctx.send(device, self.radio_pool.encode(frame));
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
