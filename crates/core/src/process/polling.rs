//! Polling glue: the epoch, slot and re-poll timers of poll-based
//! sensors (§4.1), and the repair layer's stall re-polls.

use rivulet_devices::frame::RadioFrame;
use rivulet_net::actor::Context;
use rivulet_types::wire::Wire;
use rivulet_types::{Duration, Event, SensorId, Time};

use super::{token, PollRt, Running, KIND_EPOCH, KIND_REPOLL, KIND_SLOT};
use crate::delivery::gap;
use crate::delivery::polling::PollStrategy;
use crate::delivery::Delivery;
use crate::execution::active_logic;

/// Extra wait beyond a sensor's poll latency before a poll is
/// considered failed and retried (Gapless polling only).
const REPOLL_MARGIN: Duration = Duration::from_millis(200);

impl Running {
    fn poll_of(&mut self, sensor: SensorId) -> Option<&mut PollRt> {
        self.sensors.get_mut(&sensor)?.poll.as_mut()
    }

    /// Marks polling-epoch satisfaction and cancels pending poll timers
    /// when an event for the current epoch arrives by any path.
    pub(super) fn note_epoch_event(&mut self, ctx: &mut Context<'_>, event: &Event) {
        let Some(epoch) = event.epoch else { return };
        let sensor = event.id.sensor;
        if self
            .poll_of(sensor)
            .is_some_and(|p| p.state.on_event(epoch))
        {
            ctx.cancel_timer(token(KIND_SLOT, sensor.as_u32()));
            ctx.cancel_timer(token(KIND_REPOLL, sensor.as_u32()));
        }
    }

    /// Epoch boundary for a polled sensor: close the previous epoch,
    /// open the next, and arm the slot timer.
    pub(super) fn epoch_boundary(&mut self, ctx: &mut Context<'_>, sensor: SensorId) {
        let now = ctx.now();
        let Some(rt) = self.sensors.get_mut(&sensor) else {
            return;
        };
        let Some(poll) = rt.poll.as_mut() else { return };
        let epoch_len = poll.state.plan().epoch;
        // Close the previous epoch (skipped on the very first call at
        // time zero).
        let mut missed_for_apps: Vec<usize> = Vec::new();
        if now > Time::ZERO && poll.participates {
            let missed = poll.state.on_epoch_end();
            if missed && rt.delivery == Delivery::Gapless {
                missed_for_apps.clone_from(&rt.subscribed_apps);
            }
        }
        // Which epoch starts now?
        let epoch_idx = now.as_micros() / epoch_len.as_micros().max(1);
        // Participation: Gapless strategies involve every reacher;
        // GapSingle only the designated poller.
        let participates = match poll.state.plan().strategy {
            PollStrategy::Coordinated | PollStrategy::Uncoordinated => true,
            PollStrategy::GapSingle => rt.subscribed_apps.first().is_some_and(|&idx| {
                let app = &self.apps[idx];
                let alive = |p| self.membership.is_alive(p, now);
                active_logic(&app.chain, alive).is_some_and(|active| {
                    gap::forwarder(&app.chain, rt.reachers, alive, active) == Some(self.me)
                })
            }),
        };
        poll.participates = participates;
        let slot_delay = poll
            .state
            .on_epoch_start(epoch_idx, participates, ctx.rng());
        // Stale poll timers from the previous epoch must not leak.
        ctx.cancel_timer(token(KIND_SLOT, sensor.as_u32()));
        ctx.cancel_timer(token(KIND_REPOLL, sensor.as_u32()));
        if let (true, Some(delay)) = (participates, slot_delay) {
            ctx.set_timer(delay, token(KIND_SLOT, sensor.as_u32()));
        }
        // Surface misses to active apps (the Gapless exception).
        for idx in missed_for_apps {
            let app = &mut self.apps[idx];
            let outputs = match app.runtime.as_mut() {
                Some(runtime) => {
                    app.probe.record_epoch_miss();
                    self.obs.inc("app.epoch_misses");
                    runtime.on_epoch_miss(now, sensor)
                }
                None => Vec::new(),
            };
            self.handle_outputs(ctx, idx, outputs);
        }
        // Next boundary.
        ctx.set_timer(epoch_len, token(KIND_EPOCH, sensor.as_u32()));
    }

    fn send_poll(&self, ctx: &mut Context<'_>, sensor: SensorId) {
        let Some(rt) = self.sensors.get(&sensor) else {
            return;
        };
        let Some(poll) = rt.poll.as_ref() else { return };
        let epoch = poll.state.current_epoch();
        let Some(device) = self.directory.sensor(sensor) else {
            return;
        };
        let request = RadioFrame::PollRequest { sensor, epoch };
        ctx.send(device.actor, request.to_bytes());
    }

    pub(super) fn slot_fired(&mut self, ctx: &mut Context<'_>, sensor: SensorId) {
        let Some(poll) = self.poll_of(sensor) else {
            return;
        };
        let coordinated = poll.state.plan().strategy == PollStrategy::Coordinated;
        let latency = poll.state.plan().poll_latency;
        if poll.state.on_slot() {
            self.send_poll(ctx, sensor);
            if coordinated {
                ctx.set_timer(latency + REPOLL_MARGIN, token(KIND_REPOLL, sensor.as_u32()));
            }
        }
    }

    pub(super) fn repoll_fired(&mut self, ctx: &mut Context<'_>, sensor: SensorId) {
        let Some(poll) = self.poll_of(sensor) else {
            return;
        };
        let latency = poll.state.plan().poll_latency;
        if poll.state.on_repoll() {
            self.send_poll(ctx, sensor);
            ctx.set_timer(latency + REPOLL_MARGIN, token(KIND_REPOLL, sensor.as_u32()));
        }
    }

    /// Repair-layer stall check, ridden on the periodic tick: pollable
    /// sensors this process coordinates that have been silent past the
    /// stall timeout get an immediate out-of-band re-poll (rate-limited
    /// to one per timeout by the health model). No-op unless
    /// [`crate::config::RivuletConfig::repair`] is on.
    pub(super) fn repair_tick(&mut self, ctx: &mut Context<'_>) {
        let Some(health) = self.repair.as_mut() else {
            return;
        };
        let now = ctx.now();
        let stalled: Vec<SensorId> = self
            .sensors
            .iter()
            .filter(|(_, rt)| rt.poll.as_ref().is_some_and(|p| p.participates))
            .map(|(id, _)| *id)
            .filter(|s| health.check_stall(*s, now))
            .collect();
        for sensor in stalled {
            self.obs.inc("repair.repolls");
            self.send_poll(ctx, sensor);
        }
    }
}
