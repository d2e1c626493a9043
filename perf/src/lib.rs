//! The Rivulet benchmark harness.
//!
//! One instrument for every later performance or simplicity change:
//! seven workloads, end-to-end metrics a home's user would feel,
//! per-layer metrics that say where the time went, an output oracle,
//! and a traced run. It measures each layer from outside — by timing
//! calls into public functions and reading the counters the platform
//! already exports — and edits nothing outside `perf/`.
//!
//! See `perf/README.md` for the catalogue and the run protocol.

#![warn(missing_docs, missing_debug_implementations)]

pub mod alloc;
pub mod calib;
pub mod compare;
pub mod home;
pub mod host;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod oracle;
pub mod probes;
pub mod rep;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
