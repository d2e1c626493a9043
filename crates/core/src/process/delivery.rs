//! Delivery glue: sensor ingest, the peer protocol, and the one path a
//! newly stored event takes — delivery state machine → durability gate
//! → [`Running::apply_actions`] → outbox.

use rivulet_devices::frame::RadioFrame;
use rivulet_net::actor::Context;
use rivulet_types::wire::Wire;
use rivulet_types::{Event, ProcSet, ProcessId, SensorId};

use super::{advance, Running};
use crate::config::ForwardingMode;
use crate::delivery::gap::{self, GapRole};
use crate::delivery::{Action, Delivery};
use crate::deploy::DirectoryData;
use crate::execution::active_logic;
use crate::gating::Released;
use crate::messages::{PeerMsg, ProcMsg, RingMsg};

impl Running {
    /// Whether any deployed app subscribes to `sensor`. Events of
    /// unsubscribed sensors are dropped at ingest instead of being
    /// stored and replicated: no app will ever process them, so their
    /// watermarks never advance and the store would retain them until
    /// the per-sensor cap — unbounded residency in practice.
    fn sensor_subscribed(&self, sensor: SensorId) -> bool {
        let rt = self.sensors.get(&sensor);
        rt.is_some_and(|rt| !rt.subscribed_apps.is_empty())
    }

    /// An event arrived from a physical sensor via the local adapter.
    pub(super) fn on_sensor_event(&mut self, ctx: &mut Context<'_>, event: Event) {
        let now = ctx.now();
        if let Some(probe) = &self.ingest_probe {
            probe.record(self.me, event.id);
        }
        self.note_epoch_event(ctx, &event);
        let Some(rt) = self.sensors.get(&event.id.sensor) else {
            return; // unknown device: ignore
        };
        let Some(&first_app) = rt.subscribed_apps.first() else {
            return; // no app will ever process it: do not store/replicate
        };
        match rt.delivery {
            Delivery::Gapless if self.config.forwarding == ForwardingMode::EagerBroadcast => {
                // Fig. 5 baseline: flood to all peers unless the event
                // already arrived from another process. A lost copy is
                // left to the beacon sync, as on the ring.
                if self.gapless.on_copies([event.clone()], &mut self.actions) {
                    let view = self.membership.view(now);
                    self.actions.extend(self.gapless.flood(event, view));
                    self.admit(ctx, true);
                }
            }
            Delivery::Gapless => {
                let view = self.membership.view(now);
                let successor = self.membership.successor_in(view);
                // The express copy goes where a Gap event would: the
                // believed-active host of the first subscribing app.
                let alive = |p| self.membership.is_alive(p, now);
                let host = active_logic(&self.apps[first_app].chain, alive);
                let express = host.and_then(|h| {
                    let (sender, seen) = gap::express_sender(view, rt.reachers, h)?;
                    (sender == self.me).then_some((h, seen))
                });
                let sends_express = express.is_some();
                let fresh = self.gapless.on_local_ingest(
                    event,
                    view,
                    successor,
                    express,
                    &mut self.actions,
                );
                if fresh && sends_express {
                    self.obs.inc("ring.express");
                }
                self.admit(ctx, true);
            }
            Delivery::Gap => {
                // The Gap chain follows the placement chain of the
                // first subscribing app.
                let app = &self.apps[first_app];
                let alive = |p| self.membership.is_alive(p, now);
                let Some(active) = active_logic(&app.chain, alive) else {
                    return;
                };
                match gap::role_of(self.me, &app.chain, rt.reachers, alive, active) {
                    GapRole::DeliverLocally => self.deliver_to_apps(ctx, &event),
                    GapRole::ForwardTo(target) => {
                        self.send_proc(target, &ProcMsg::GapForward { event });
                    }
                    GapRole::Discard => {}
                }
            }
        }
    }

    /// A message arrived from a peer process.
    pub(super) fn on_peer_msg(&mut self, ctx: &mut Context<'_>, msg: PeerMsg) {
        match msg {
            PeerMsg::Ring(ring) => self.on_ring(ctx, ring),
            PeerMsg::Other(msg) => self.on_proc_msg(ctx, msg),
        }
    }

    /// A Gapless ring message arrived.
    fn on_ring(&mut self, ctx: &mut Context<'_>, ring: RingMsg) {
        if !self.sensor_subscribed(ring.event.id.sensor) {
            return;
        }
        let view = self.membership.view(ctx.now());
        let successor = self.membership.successor_in(view);
        let outcome = self
            .gapless
            .on_ring(ring, view, successor, &mut self.actions);
        // Gate first, relay second: a transparent gate applies the
        // delivery at once, so a volatile home keeps the send order it
        // has always had.
        self.admit(ctx, false);
        if let Some(relay) = outcome.relay {
            self.send_action(relay);
        }
        if outcome.closed {
            self.obs.inc("ring.closed");
        }
    }

    /// Any other protocol message arrived.
    fn on_proc_msg(&mut self, ctx: &mut Context<'_>, msg: ProcMsg) {
        let now = ctx.now();
        // Any traffic proves liveness.
        match &msg {
            ProcMsg::KeepAlive { from, .. } | ProcMsg::Broadcast { origin: from, .. } => {
                self.membership.heard_from(*from, now);
            }
            _ => {}
        }
        match msg {
            ProcMsg::KeepAlive {
                from,
                view,
                processed,
                received,
            } => {
                for (sensor, seq) in processed {
                    advance(&mut self.processed, sensor, seq);
                }
                // The peer's holdings are a sync query to its ring
                // predecessor, as its view or ours has it.
                self.membership.heard_view(from, view);
                let mine = self.membership.mutual_view(now);
                let sync = self
                    .gapless
                    .on_peer_beacon(from, view, mine, &received, now);
                if let Some(sync) = sync {
                    self.send_action(sync);
                }
            }
            ProcMsg::Ring { .. } => unreachable!("ring messages decode as `PeerMsg::Ring`"),
            ProcMsg::Broadcast { event, .. } => {
                if !self.sensor_subscribed(event.id.sensor) {
                    return;
                }
                // A flood copy is not relayed: a peer it missed is
                // repaired by the beacon sync.
                self.gapless.on_copies([event], &mut self.actions);
                self.admit(ctx, false);
            }
            ProcMsg::GapForward { event } => self.deliver_to_apps(ctx, &event),
            ProcMsg::SyncEvents { mut events } => {
                events.retain(|e| self.sensor_subscribed(e.id.sensor));
                self.gapless.on_copies(events, &mut self.actions);
                self.admit(ctx, false);
            }
            ProcMsg::CmdForward { command } => {
                let actuator = command.actuator;
                self.radio(ctx, actuator, &RadioFrame::Actuate(command));
            }
        }
    }

    /// Passes the buffered delivery-service actions through the
    /// durability gate and applies whatever it releases. Their appends
    /// start a flush at once when the actions are this process's
    /// `ingested` sensor event or deliver to an app running here.
    fn admit(&mut self, ctx: &mut Context<'_>, ingested: bool) {
        let actions = std::mem::take(&mut self.actions);
        let (sensors, apps) = (&self.sensors, &self.apps);
        let local = |sensor| {
            let subscribers = sensors.get(&sensor).map(|rt| &rt.subscribed_apps);
            subscribers.is_some_and(|idx| idx.iter().any(|&a| apps[a].runtime.is_some()))
        };
        let released = self.gate.admit(ctx.now(), actions, ingested, local);
        self.apply_actions(ctx, released);
    }

    /// Applies released actions (sends + local deliveries) in list
    /// order, then keeps their emptied buffer for the next input.
    pub(super) fn apply_actions(&mut self, ctx: &mut Context<'_>, released: Released) {
        let emptied = released.apply(|action| match action {
            Action::Deliver { event } => {
                // The holdings advertise durable possession; past the
                // gate is the only place they grow, so they never run
                // ahead of the WAL.
                self.holdings.note(event.id);
                self.deliver_to_apps(ctx, &event);
            }
            send => self.send_action(send),
        });
        self.actions = emptied;
    }

    /// Queues a send: one the durability gate released, or one it has
    /// no say in — control traffic that carries no newly stored event
    /// (beacons, anti-entropy) and a ring relay, whose event a peer's
    /// disk already backs (DESIGN §4.2).
    pub(super) fn send_action(&mut self, action: Action) {
        match action {
            Action::Send { to, msg } => self.send_proc(to, &msg),
            Action::Ring { to, ring } => self.send_proc(to, &ring),
            Action::Fanout { to, msg } => self.send_fanout(to, &msg),
            Action::Deliver { .. } => unreachable!("deliveries leave the durability gate only"),
        }
    }

    /// Queues one protocol message to one peer; it leaves with the rest
    /// of the activation's traffic in [`Running::flush_outbox`].
    pub(super) fn send_proc(&mut self, to: ProcessId, msg: &impl Wire) {
        if is_peer(self.me, &self.directory, to) {
            self.outbox.queue(to, msg);
        }
    }

    /// Queues one protocol message to several peers, encoded once.
    pub(super) fn send_fanout(&mut self, to: ProcSet, msg: &ProcMsg) {
        let (me, dir) = (self.me, &self.directory);
        let known = to.iter().filter(|p| is_peer(me, dir, *p));
        self.outbox.fanout(known, msg);
    }

    /// Sends everything queued during this activation, same-destination
    /// messages coalesced into frames.
    pub(super) fn flush_outbox(&mut self, ctx: &mut Context<'_>) {
        let dir = &self.directory;
        self.outbox.flush(|to, payload| {
            if let Some(actor) = dir.process_actor(to) {
                ctx.send(actor, payload);
            }
        });
    }
}

/// Whether `p` is another process of the home than `me`.
fn is_peer(me: ProcessId, dir: &DirectoryData, p: ProcessId) -> bool {
    p != me && dir.process_actor(p).is_some()
}
