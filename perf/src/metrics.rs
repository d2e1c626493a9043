//! The metric catalogue: every name the benchmark prints, with its
//! unit, direction and (end to end) regression bound. `BENCHMARK.json`
//! is generated from this file (`perf benchmark-json`) and a test keeps
//! the two equal.

use crate::json::Json;
use crate::workloads;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[must_use]
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the home would see. Each is
/// defined in `perf/README.md` and computed in `run::end_to_end`.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Name, `<layer>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

use Better::{Higher, Lower};

/// The end-to-end metrics, in table order.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "events_per_s",
        unit: "events/s",
        better: Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "deliver_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.04,
    },
    EndToEnd {
        name: "deliver_p99_ms",
        unit: "ms",
        better: Lower,
        bound: 0.08,
    },
    EndToEnd {
        name: "actuate_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.04,
    },
    EndToEnd {
        name: "actuate_p99_ms",
        unit: "ms",
        better: Lower,
        bound: 0.08,
    },
    EndToEnd {
        name: "wifi_bytes_per_event",
        unit: "bytes",
        better: Lower,
        bound: 0.03,
    },
    EndToEnd {
        name: "failover_gap_ms",
        unit: "ms",
        better: Lower,
        bound: 0.12,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

macro_rules! layers {
    ($( $name:literal, $unit:literal, $better:expr; )*) => {
        /// The per-layer metrics, in table order.
        pub const PER_LAYER: &[Layer] = &[
            $( Layer { name: $name, unit: $unit, better: $better }, )*
        ];
    };
}

layers! {
    "types.wire.encode_ns", "ns", Lower;
    "types.wire.decode_ns", "ns", Lower;
    "types.wire.bytes_per_msg", "bytes", Lower;
    "types.wire.share", "share", Lower;
    "net.sim.dispatch_ns", "ns", Lower;
    "net.sim.msgs_per_event", "count", Lower;
    "net.sim.timers_per_event", "count", Lower;
    "net.sim.share", "share", Lower;
    "net.live.deliver_p50_us", "us", Lower;
    "net.live.deliver_p99_us", "us", Lower;
    "net.live.actuate_p50_us", "us", Lower;
    "net.live.cpu_us_per_event", "us", Lower;
    "net.live.emit_lag_share", "share", Lower;
    "devices.radio_bytes_per_event", "bytes", Lower;
    "devices.poll_answered_share", "share", Higher;
    "devices.poll_dropped_busy", "count", Lower;
    "devices.actuator_dups_suppressed", "count", Lower;
    "core.delivery.hops_per_event", "count", Lower;
    "core.delivery.dup_share", "share", Lower;
    "core.delivery.acks_avoided_per_event", "count", Higher;
    "core.delivery.frames_coalesced", "count", Higher;
    "core.delivery.rbcast_pending_max", "count", Lower;
    "core.delivery.polls_per_epoch", "count", Lower;
    "core.store.insert_ns", "ns", Lower;
    "core.store.len_max", "count", Lower;
    "core.store.arena_recycle_share", "share", Higher;
    "core.store.share", "share", Lower;
    "core.gating.forced_flush_share", "share", Lower;
    "core.gating.depth_max", "count", Lower;
    "core.execution.promotions", "count", Lower;
    "core.execution.demotions", "count", Lower;
    "core.execution.ring_batch_mean", "count", Higher;
    "core.execution.ring_fallbacks", "count", Lower;
    "core.app.fire_ns", "ns", Lower;
    "core.app.commands_per_event", "count", Lower;
    "core.app.stale_drops", "count", Lower;
    "core.app.epoch_miss_share", "share", Lower;
    "core.app.share", "share", Lower;
    "core.routine.commit_share", "share", Higher;
    "core.routine.aborted", "count", Lower;
    "core.routine.fire_p50_ms", "ms", Lower;
    "core.routine.fire_p99_ms", "ms", Lower;
    "storage.wal.append_ns", "ns", Lower;
    "storage.wal.flush_us", "us", Lower;
    "storage.wal.appends_per_event", "count", Lower;
    "storage.wal.events_per_flush", "count", Higher;
    "storage.wal.bytes_per_event", "bytes", Lower;
    "storage.wal.recovered_events", "count", Lower;
    "storage.wal.share", "share", Lower;
    "storage.ledger.append_us", "us", Lower;
    "storage.ledger.appends_per_instance", "count", Lower;
    "storage.ledger.share", "share", Lower;
    "obs.inc_ns", "ns", Lower;
    "obs.overhead_share", "share", Lower;
    "fleet.expand_ms", "ms", Lower;
    "fleet.home_ms_p50", "ms", Lower;
    "fleet.home_ms_p99", "ms", Lower;
    "fleet.homes_per_s", "homes/s", Higher;
    "fleet.thread_efficiency", "share", Higher;
    "process.cpu_us_per_event", "us", Lower;
    "process.allocs_per_event", "count", Lower;
    "process.alloc_bytes_per_event", "bytes", Lower;
    "process.unattributed_share", "share", Lower;
}

/// Workloads the driver gates on: every one but `live_ring`, whose
/// wall-clock numbers on a shared two-core host spread wider than any
/// bound the contract allows (see the README's noise findings). The
/// harness still runs it (`--workload live_ring`, and in the full
/// table).
pub const GATED: [&str; 6] = [
    "ring_steady",
    "broadcast_blob",
    "durable_routine",
    "crash_failover",
    "dag_poll",
    "fleet_sweep",
];

/// Seconds one driver run measures.
pub const RUN_SECONDS: u64 = 10;

/// `BENCHMARK.json`, generated from the catalogue.
#[must_use]
pub fn benchmark_json() -> Json {
    let s = |v: &str| Json::Str(v.to_owned());
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "perf/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj([
        ("command", Json::Arr(command.iter().map(|c| s(c)).collect())),
        ("paths", Json::Arr(vec![s("perf")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                GATED
                    .iter()
                    .map(|name| {
                        let w = workloads::by_name(name, 0, 1.0).expect("gated workloads exist");
                        Json::obj([("name", s(w.name)), ("why", s(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.word())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.word())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
