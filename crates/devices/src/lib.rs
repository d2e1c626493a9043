//! Emulated smart-home devices for the Rivulet platform.
//!
//! The paper's testbed used real Z-Wave/Zigbee sensors plus an
//! "IP-based software sensor" for controlled experiments (§8.1). This
//! crate is the software equivalent of that device layer:
//!
//! * [`frame`] — the radio frame vocabulary spoken between devices and
//!   Rivulet processes (events, poll requests/responses, actuation
//!   commands and acks).
//! * [`sensor`] — push-based sensors (door, motion, camera, …) that
//!   emit spontaneously, and poll-based sensors (temperature,
//!   luminance, …) that answer poll requests with the paper's
//!   "one outstanding poll, silently drop the rest" semantics (§4.1,
//!   Fig. 8).
//! * [`actuator`] — idempotent and `Test&Set` actuators (§5), with
//!   duplicate-actuation detection for experiments.
//! * [`fault`] — seeded per-device fault schedules (stuck-at,
//!   flapping, drift, ghost, missed, battery decay) whose every
//!   decision is a pure function of `(seed, device id, attempt)`. Each
//!   fault that fires is counted once, under its `fault.*` obs key;
//!   only ghost event ids are also logged, to a [`FaultProbe`].
//! * [`radio`] — a home floor plan that composes ambient interference
//!   and obstructions into per-link loss rates (§2.1, Fig. 1). Which
//!   processes a device reaches is the `reachers` list it is deployed
//!   with; loss is applied by the simulator's `Topology`; multicast is
//!   a [`PushSensor`] sending each emission to every target.
//! * [`catalog`] — the off-the-shelf sensor survey of Table 3 and the
//!   Z-Wave polling characteristics used in Fig. 8.
//! * [`value`] — synthetic physical-phenomenon models (random walks,
//!   diurnal sines) so poll-based sensors report plausible readings.
//!
//! Devices are [`rivulet_net::actor::Actor`]s like everything else, so
//! they run under both the simulator and the live driver, and can be
//! crashed/recovered to emulate battery drain and plug disconnections
//! (the sensor failures of §2.1).

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod actuator;
pub mod catalog;
pub mod fault;
pub mod frame;
pub mod radio;
pub mod sensor;
pub mod value;

pub use actuator::{ActuatorDevice, ActuatorProbe};
pub use fault::{DeviceFaults, FaultDecision, FaultKind, FaultPlan, FaultProbe, FaultSpec};
pub use frame::RadioFrame;
pub use radio::{FloorPlan, Position};
pub use sensor::{EmissionProbe, EmissionSchedule, PayloadSpec, PollProbe, PollSensor, PushSensor};
pub use value::ValueModel;
