//! Core vocabulary types for the Rivulet smart-home platform.
//!
//! This crate defines the identifiers, timestamps, events, actuation
//! commands, and the binary wire codec shared by every other Rivulet
//! crate. It corresponds to the "custom serialization for events and
//! other messages" layer of the original prototype (paper §7).
//!
//! # Overview
//!
//! * [`ProcessId`], [`SensorId`], [`ActuatorId`] — identities of the
//!   participants in a home deployment; [`ProcSet`] — a set of
//!   processes (a local view, the ring's `S` and `V`) as one bitmask.
//! * [`Time`] — an instant of virtual (or wall-clock) time with
//!   microsecond resolution.
//! * [`Event`] — a sensed value flowing from a sensor toward logic
//!   nodes; [`EventId`] makes each event globally unique and
//!   gap-detectable via per-sensor sequence numbers.
//! * [`Holdings`] — which `seq`s of each sensor a process holds (or its
//!   home has processed), holes included: the possession summary a
//!   keep-alive carries and a checkpoint stores.
//! * [`Command`] — an actuation command flowing from logic nodes toward
//!   actuators.
//! * [`wire`] — the length-delimited binary codec used on the
//!   inter-process network, with exact size accounting so experiments
//!   can measure network overhead (paper Fig. 5).
//!
//! # Example
//!
//! ```
//! use rivulet_types::{Event, EventKind, EventId, SensorId, Time};
//! use rivulet_types::wire::{Wire, WireError};
//!
//! # fn main() -> Result<(), WireError> {
//! let sensor = SensorId(7);
//! let event = Event::new(
//!     EventId::new(sensor, 42),
//!     EventKind::DoorOpen,
//!     Time::from_millis(1_500),
//! );
//! let bytes = event.to_bytes();
//! let decoded = Event::from_bytes(&bytes)?;
//! assert_eq!(decoded, event);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod command;
mod event;
mod holdings;
mod id;
mod procset;
mod time;

pub mod arena;
pub mod wire;

pub use arena::PayloadArena;
pub use command::{ActuationState, Command, CommandId, CommandKind};
pub use event::{Event, EventKind, Payload, SizeClass};
pub use holdings::Holdings;
pub use id::{ActuatorId, AppId, EventId, OperatorId, ProcessId, RoutineId, SensorId};
pub use procset::{ProcSet, ProcSetIter};
pub use time::{Duration, Time};
