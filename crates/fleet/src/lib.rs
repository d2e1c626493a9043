//! Fleet-scale multi-home orchestration for Rivulet.
//!
//! One Rivulet run simulates one home. The platform's north star is a
//! deployment serving *millions* of homes — and the unit of scale for
//! that claim is the fleet, not the home. This crate turns a single
//! declarative **scenario manifest** into a bulk experiment:
//!
//! 1. **Manifest** ([`manifest`]): a TOML-subset file
//!    declaring a base home plus sweep axes (home size, device mix,
//!    link quality, failure schedule, storage). The axes
//!    expand into the deterministic cartesian set of per-home
//!    configurations, each with a seed derived purely from
//!    `(fleet_seed, home_index)` — so any home of a 100 000-home
//!    fleet re-runs standalone, bit-exactly.
//! 2. **Executor** ([`executor`]): a fixed-size worker pool stealing
//!    homes off a shared queue runs every home to completion — each
//!    an isolated seeded simulation exercising Gapless delivery,
//!    anti-entropy, the WAL, and the event store at once — and
//!    judges each home with `rivulet_core::probe::check`.
//! 3. **Report** ([`report`]): per-home [`ObsSnapshot`]s merge as
//!    homes finish (every family merges regardless of order, so the
//!    result is byte-identical across thread counts) into one
//!    fleet-wide snapshot with `fleet.*` counters, and a per-axis
//!    breakdown table.
//!
//! ```text
//! cargo run -p rivulet-fleet --release -- run manifests/fleet_smoke.toml
//! ```
//!
//! [`ObsSnapshot`]: rivulet_obs::ObsSnapshot

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod executor;
pub mod manifest;
pub mod report;
pub mod value;

pub use executor::{run_fleet, run_home, FleetOutcome, HomeSummary};
pub use manifest::{derive_home_seed, FleetManifest, HomeParams, HomeSpec};
pub use report::render_summary;
pub use value::{ParseError, Value};
