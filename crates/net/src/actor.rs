//! The actor interface shared by the simulated and live drivers.
//!
//! Everything that participates in a home deployment — Rivulet
//! processes, sensors, actuators — is an [`Actor`]: a state machine
//! that reacts to [`ActorEvent`]s and interacts with the world only
//! through its [`Context`]. Keeping the capability surface this narrow
//! is what lets the same protocol code run deterministically under the
//! simulator and concurrently under the live driver.

use std::fmt;

use bytes::Bytes;
use rand::rngs::StdRng;
use rivulet_types::{Duration, Time};

/// Identity of an actor within one driver instance.
///
/// Distinct from [`rivulet_types::ProcessId`]: every Rivulet process is
/// an actor, but so is every emulated sensor and actuator. The mapping
/// between the two identifier spaces is maintained by the deployment
/// layer in `rivulet-core`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub u32);

impl ActorId {
    /// Returns the raw index of this actor.
    #[must_use]
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor{}", self.0)
    }
}

/// Inputs an actor can receive from its driver.
#[derive(Debug)]
pub enum ActorEvent {
    /// The actor has just (re)started. Received once at driver start
    /// and again after each crash–recovery.
    Start,
    /// A message arrived from another actor.
    Message {
        /// The sending actor.
        from: ActorId,
        /// Opaque payload (protocol messages use the wire codec).
        payload: Bytes,
    },
    /// A timer previously set via [`Context::set_timer`] fired.
    Timer {
        /// The token the actor chose when setting the timer.
        token: u64,
    },
}

/// A state machine executed by one of the drivers.
///
/// Implementations must be deterministic given the event sequence and
/// the RNG provided by the context; this is what makes simulated runs
/// reproducible from a seed.
pub trait Actor: Send {
    /// Reacts to one input event. All side effects go through `ctx`.
    fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent);
}

/// Side effects an actor requests from its driver.
///
/// Collected by the [`Context`] during an `on_event` call and applied
/// by the driver afterwards.
#[derive(Debug)]
pub(crate) enum Effect {
    Send { to: ActorId, payload: Bytes },
    SetTimer { token: u64, after: Duration },
    CancelTimer { token: u64 },
}

/// The capability surface through which actors interact with the world.
///
/// A fresh context is constructed for every event delivery; effects are
/// buffered and applied by the driver once the handler returns, so an
/// actor never observes its own sends in the same step.
pub struct Context<'a> {
    self_id: ActorId,
    now: Time,
    rng: &'a mut StdRng,
    pub(crate) effects: Vec<Effect>,
}

impl fmt::Debug for Context<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("self_id", &self.self_id)
            .field("now", &self.now)
            .field("pending_effects", &self.effects.len())
            .finish()
    }
}

impl<'a> Context<'a> {
    pub(crate) fn new(self_id: ActorId, now: Time, rng: &'a mut StdRng) -> Self {
        Self {
            self_id,
            now,
            rng,
            effects: Vec::new(),
        }
    }

    /// This actor's own identity.
    #[must_use]
    pub fn id(&self) -> ActorId {
        self.self_id
    }

    /// The current time (virtual under the simulator, wall-clock under
    /// the live driver).
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The driver's seeded random-number generator. Actors must draw
    /// all randomness from here to stay reproducible.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Sends `payload` to `to` over the connecting link. Under the
    /// simulator, delivery is subject to the link's latency, loss, and
    /// partition state.
    pub fn send(&mut self, to: ActorId, payload: Bytes) {
        self.effects.push(Effect::Send { to, payload });
    }

    /// Arms a timer that will fire as `ActorEvent::Timer { token }`
    /// after `after` elapses. Multiple timers may share a token; a
    /// token identifies a *class* of timers for cancellation.
    pub fn set_timer(&mut self, after: Duration, token: u64) {
        self.effects.push(Effect::SetTimer { token, after });
    }

    /// Cancels every pending timer of this actor carrying `token`.
    pub fn cancel_timer(&mut self, token: u64) {
        self.effects.push(Effect::CancelTimer { token });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn context_buffers_effects_in_order() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ctx = Context::new(ActorId(0), Time::from_secs(1), &mut rng);
        ctx.send(ActorId(1), Bytes::from_static(b"a"));
        ctx.set_timer(Duration::from_millis(10), 7);
        ctx.cancel_timer(7);
        assert_eq!(ctx.effects.len(), 3);
        assert!(matches!(
            ctx.effects[0],
            Effect::Send { to: ActorId(1), .. }
        ));
        assert!(matches!(ctx.effects[1], Effect::SetTimer { token: 7, .. }));
        assert!(matches!(ctx.effects[2], Effect::CancelTimer { token: 7 }));
    }

    #[test]
    fn context_reports_identity_and_time() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ctx = Context::new(ActorId(3), Time::from_millis(250), &mut rng);
        assert_eq!(ctx.id(), ActorId(3));
        assert_eq!(ctx.now(), Time::from_millis(250));
        // RNG is usable and deterministic for a fixed seed.
        use rand::Rng;
        let v: u64 = ctx.rng().gen();
        let mut rng2 = StdRng::seed_from_u64(1);
        let mut ctx2 = Context::new(ActorId(3), Time::from_millis(250), &mut rng2);
        let v2: u64 = ctx2.rng().gen();
        assert_eq!(v, v2);
    }

    #[test]
    fn actor_id_display() {
        assert_eq!(ActorId(5).to_string(), "actor5");
        assert_eq!(ActorId(5).as_u32(), 5);
    }
}
