//! Network substrates for the Rivulet smart-home platform.
//!
//! The paper evaluates Rivulet on five Raspberry Pi hosts sharing one
//! home WiFi router, with Z-Wave/Zigbee radios linking sensors to a
//! subset of the hosts (paper §8.1). This crate provides the equivalent
//! substrate in software, twice:
//!
//! * [`sim`] — a **deterministic discrete-event simulator**. Virtual
//!   time, a seeded RNG, per-link latency/loss/partition models, and
//!   process crash–recovery. Every experiment in the repository runs on
//!   this driver, making the paper's fault-injection studies (Figs 3,
//!   6, 7) exactly reproducible from a seed.
//! * [`live`] — a **threaded wall-clock driver** with the same actor
//!   interface, used by the runnable examples to demonstrate real
//!   concurrent operation. Crash and recovery are its only faults; link
//!   loss, blocking and partitions are modelled once, in the
//!   simulator's [`link::Topology`].
//!
//! Protocol code is written once against the [`actor::Actor`] trait and
//! the [`actor::Context`] capability surface, and runs unchanged on
//! either driver.
//!
//! # Fault model
//!
//! Matching the paper's assumptions (§3.1):
//!
//! * Inter-process links are reliable and in-order while up (TCP), but
//!   the network may partition arbitrarily; messages in flight across a
//!   partition are lost.
//! * Sensor–process links are lossy best-effort multicast.
//! * Processes are crash–recovery: a crashed actor loses its volatile
//!   state and is rebuilt by its factory on recovery.
//!
//! # Example
//!
//! ```
//! use rivulet_net::actor::{Actor, ActorEvent, Context};
//! use rivulet_net::sim::{SimConfig, SimNet};
//! use rivulet_net::link::ActorClass;
//! use bytes::Bytes;
//!
//! struct Echo;
//! impl Actor for Echo {
//!     fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent) {
//!         if let ActorEvent::Message { from, payload } = event {
//!             ctx.send(from, payload); // echo back
//!         }
//!     }
//! }
//!
//! struct Pinger { peer: rivulet_net::actor::ActorId, got: bool }
//! impl Actor for Pinger {
//!     fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent) {
//!         match event {
//!             ActorEvent::Start => ctx.send(self.peer, Bytes::from_static(b"ping")),
//!             ActorEvent::Message { .. } => self.got = true,
//!             _ => {}
//!         }
//!     }
//! }
//!
//! let mut net = SimNet::new(SimConfig::with_seed(42));
//! let echo = net.add_actor("echo", ActorClass::Process, || Box::new(Echo));
//! let _ping = net.add_actor("ping", ActorClass::Process, move || {
//!     Box::new(Pinger { peer: echo, got: false })
//! });
//! net.run_until(rivulet_types::Time::from_secs(1));
//! assert!(net.metrics().messages_sent >= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod actor;
pub mod link;
pub mod live;
pub mod metrics;
pub mod sim;
