//! The Rivulet platform core.
//!
//! Rivulet is a fault-tolerant distributed platform for smart-home
//! applications (Middleware 2017). Instead of funnelling everything
//! through a single hub, it spreads sensing, event delivery, and app
//! execution across the home's smart appliances, and keeps apps running
//! through link losses, sensor failures, process crashes, and network
//! partitions.
//!
//! # Services
//!
//! * [`delivery`] — the **delivery service**: configurable per-sensor
//!   guarantees. [`delivery::Delivery::Gap`] is best-effort and cheap;
//!   [`delivery::Delivery::Gapless`] replicates every ingested event at
//!   all available processes through a light-weight ring protocol with
//!   a flood fallback and anti-entropy on every keep-alive, plus
//!   coordinated polling for
//!   poll-based sensors.
//! * [`execution`] — the **execution service**: active/shadow logic
//!   nodes with bully-style failover over a deterministic placement
//!   chain.
//! * [`app`] — the **programming model**: operator DAGs over windows
//!   with trigger/evictor policies, combiners (including `FTCombiner`
//!   and Marzullo fault-tolerant averaging), and declarative delivery
//!   guarantees.
//! * [`process`] + [`deploy`] — the **runtime**: one actor per host
//!   gluing it all together, deployable on the deterministic simulator
//!   or the threaded live driver.
//!
//! # Quickstart
//!
//! ```
//! use rivulet_core::app::{AppBuilder, CombinerSpec, SwitchOnEvents, WindowSpec};
//! use rivulet_core::delivery::Delivery;
//! use rivulet_core::deploy::HomeBuilder;
//! use rivulet_devices::sensor::{EmissionSchedule, PayloadSpec};
//! use rivulet_net::sim::{SimConfig, SimNet};
//! use rivulet_types::{ActuationState, AppId, Duration, EventKind, Time};
//!
//! let mut net = SimNet::new(SimConfig::with_seed(7));
//! let mut home = HomeBuilder::new(&mut net);
//! let hub = home.add_host("hub");
//! let tv = home.add_host("tv");
//! let (door, _) = home.add_push_sensor(
//!     "door",
//!     PayloadSpec::KindOnly(EventKind::DoorOpen),
//!     EmissionSchedule::Periodic(Duration::from_secs(5)),
//!     &[tv],
//! );
//! let (light, light_probe) =
//!     home.add_actuator("light", ActuationState::Switch(false), &[hub]);
//! let app = AppBuilder::new(AppId(1), "door-light")
//!     .operator(
//!         "TurnLightOnOff",
//!         CombinerSpec::Any,
//!         SwitchOnEvents {
//!             on_kinds: vec![EventKind::DoorOpen],
//!             off_kinds: vec![EventKind::DoorClose],
//!             actuator: light,
//!         },
//!     )
//!     .sensor(door, Delivery::Gapless, WindowSpec::count(1))
//!     .actuator(light, Delivery::Gapless)
//!     .done()
//!     .build()
//!     .expect("valid app");
//! let _probe = home.add_app(app);
//! let _home = home.build();
//! net.run_until(Time::from_secs(30));
//! assert!(light_probe.effect_count() > 0, "the light was switched");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod app;
pub mod config;
pub mod delivery;
pub mod deploy;
pub mod execution;
pub mod gating;
pub mod holdings;
pub mod membership;
pub mod messages;
pub mod probe;
pub mod process;
pub mod repair;
pub mod routine;
pub mod store;

pub use config::{ForwardingMode, RivuletConfig};
pub use delivery::Delivery;
pub use deploy::{Home, HomeBuilder};
pub use probe::{AppProbe, StoreProbe};
pub use process::DurabilitySpec;
pub use routine::{InstanceRecord, RoutineProbe, RoutineSpec, RoutineStep};
