//! Per-layer metrics: counts from the traced repetition, unit costs
//! from the layer probes, and the shares the two give.
//!
//! `<layer>.share` = (count from the traced repetition x probed unit
//! cost) / the traced repetition's CPU time. With one simulated CPU and
//! nothing contending, a faster layer saves at most its share of
//! `events_per_s`. What no layer accounts for is
//! `process.unattributed_share`: glue, mostly `core::process`.
//!
//! Counts come from the platform's own `ObsSnapshot`, the driver's
//! `NetMetrics` and the device probes; a counter the platform does not
//! export (any more) reads 0 and never fails the run.

use std::collections::BTreeMap;

use rivulet_storage::RoutineTransition;

use crate::rep::{Guarantee, RepData, Virtual};

/// Events a home's replicated stores took in: Gapless events are
/// stored at every process, Gap events nowhere.
#[must_use]
pub fn stored_events(rep: &RepData) -> f64 {
    rep.sensors
        .iter()
        .filter(|s| s.guarantee == Guarantee::Gapless)
        .map(|s| (s.emissions.len() * rep.processes) as f64)
        .sum::<f64>()
        // An empty float sum is -0.0.
        + 0.0
}
use crate::stats::LatencySummary;

/// Unit costs from the layer probes; 0 for a probe that was not run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Probed {
    /// `ProcMsg::to_bytes`, ns.
    pub encode_ns: f64,
    /// `ProcMsg::from_bytes`, ns.
    pub decode_ns: f64,
    /// Simulator dispatch, ns per actor activation.
    pub dispatch_ns: f64,
    /// `EventStore::insert`, ns.
    pub insert_ns: f64,
    /// `Wal::append_event`, ns.
    pub append_ns: f64,
    /// `Wal::flush`, µs.
    pub flush_us: f64,
    /// Ledger entry (chain link + flushed record), µs.
    pub ledger_us: f64,
    /// `AppRuntime::on_event`, ns.
    pub fire_ns: f64,
    /// `Recorder::inc` / `observe`, ns.
    pub inc_ns: f64,
}

/// Everything the layer formulas read.
#[derive(Debug)]
pub struct LayerInputs<'a> {
    /// The traced repetition.
    pub rep: &'a RepData,
    /// Its virtual-time results.
    pub virt: &'a Virtual,
    /// Probed unit costs.
    pub probed: &'a Probed,
    /// Events the home's replicated stores took in: every Gapless event
    /// is stored at every process.
    pub stored: f64,
    /// CPU seconds of the traced repetition's timed region.
    pub cpu_s: f64,
    /// `(allocations, bytes)` of the traced repetition's timed region.
    pub allocs: (u64, u64),
    /// Median wall of the untraced repetitions.
    pub untraced_wall_s: f64,
    /// Median wall of the traced repetitions.
    pub traced_wall_s: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The count-only metrics of a repetition (no probe, no timing).
#[must_use]
pub fn counts(rep: &RepData, virt: &Virtual) -> BTreeMap<&'static str, f64> {
    let obs = &rep.obs;
    let counter = |name: &str| obs.counter(name) as f64;
    let delivered = virt.delivered as f64;
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();

    let payload = obs.histogram("net.payload_bytes");
    v.insert(
        "types.wire.bytes_per_msg",
        payload.map_or(0.0, |h| ratio(h.sum() as f64, h.count() as f64)),
    );
    v.insert(
        "net.sim.msgs_per_event",
        ratio(rep.net.messages_sent as f64, delivered),
    );
    v.insert(
        "net.sim.timers_per_event",
        ratio(rep.net.timers_fired as f64, delivered),
    );

    v.insert(
        "devices.radio_bytes_per_event",
        ratio(rep.net.radio_bytes as f64, delivered),
    );
    let (received, answered, busy) = rep.polls.iter().fold((0, 0, 0), |acc, p| {
        (
            acc.0 + p.received,
            acc.1 + p.answered,
            acc.2 + p.dropped_busy,
        )
    });
    v.insert(
        "devices.poll_answered_share",
        ratio(answered as f64, received as f64),
    );
    v.insert("devices.poll_dropped_busy", busy as f64);
    v.insert(
        "devices.actuator_dups_suppressed",
        rep.actuators
            .iter()
            .map(|a| a.duplicates_suppressed)
            .sum::<u64>() as f64,
    );

    // A WiFi message is one hop; the payload histogram counts radio
    // frames too, so hops come from the byte split.
    let wifi_msgs = payload.map_or(0.0, |h| {
        h.count() as f64
            * ratio(
                rep.net.wifi_bytes as f64,
                (rep.net.wifi_bytes + rep.net.radio_bytes) as f64,
            )
    });
    v.insert("core.delivery.hops_per_event", ratio(wifi_msgs, delivered));
    v.insert(
        "core.delivery.dup_share",
        ratio(virt.duplicate_deliveries as f64, delivered),
    );
    v.insert(
        "core.delivery.acks_avoided_per_event",
        ratio(rep.net.fanout.acks_avoided as f64, delivered),
    );
    v.insert(
        "core.delivery.frames_coalesced",
        rep.net.fanout.frames_coalesced as f64,
    );
    v.insert(
        "core.delivery.rbcast_pending_max",
        obs.histogram("rbcast.pending")
            .and_then(|h| h.max())
            .unwrap_or(0) as f64,
    );
    let epochs: u64 = rep.polls.iter().map(|p| p.epochs).sum();
    v.insert(
        "core.delivery.polls_per_epoch",
        ratio(received as f64, epochs as f64),
    );

    v.insert("core.store.len_max", rep.store_len_max as f64);
    v.insert(
        "core.store.arena_recycle_share",
        ratio(counter("arena.recycled"), counter("arena.chunks")),
    );
    v.insert(
        "core.gating.forced_flush_share",
        ratio(counter("wal.forced_flushes"), counter("wal.flushes")),
    );
    v.insert(
        "core.gating.depth_max",
        obs.histogram("wal.gated_max_shard")
            .and_then(|h| h.max())
            .unwrap_or(0) as f64,
    );
    v.insert(
        "core.execution.promotions",
        rep.transitions.iter().filter(|(_, _, up)| *up).count() as f64,
    );
    v.insert(
        "core.execution.demotions",
        rep.transitions.iter().filter(|(_, _, up)| !*up).count() as f64,
    );
    v.insert(
        "core.execution.ring_batch_mean",
        ratio(counter("ring.pops"), counter("ring.batches")),
    );
    v.insert("core.execution.ring_fallbacks", counter("ring.fallbacks"));

    v.insert(
        "core.app.commands_per_event",
        ratio(rep.commands.len() as f64, delivered),
    );
    v.insert("core.app.stale_drops", rep.stale_drops as f64);
    v.insert(
        "core.app.epoch_miss_share",
        ratio(rep.epoch_misses as f64, epochs as f64),
    );

    if let Some(routine) = &rep.routine {
        let committed = routine
            .instances
            .iter()
            .filter(|r| r.state == RoutineTransition::Committed)
            .count();
        v.insert(
            "core.routine.commit_share",
            ratio(committed as f64, routine.triggered as f64),
        );
        v.insert(
            "core.routine.aborted",
            (routine.instances.len() - committed) as f64,
        );
        if let Some(fire) = routine_fire_latency(rep) {
            v.insert("core.routine.fire_p50_ms", fire.p50 as f64 / 1e3);
            v.insert("core.routine.fire_p99_ms", fire.p99 as f64 / 1e3);
        }
        v.insert(
            "storage.ledger.appends_per_instance",
            ratio(counter("ledger.appends"), routine.instances.len() as f64),
        );
    }

    v.insert(
        "storage.wal.appends_per_event",
        ratio(counter("wal.appends"), delivered),
    );
    v.insert(
        "storage.wal.events_per_flush",
        ratio(counter("wal.appends"), counter("wal.flushes")),
    );
    v.insert(
        "storage.wal.bytes_per_event",
        ratio(counter("wal.bytes_flushed"), delivered),
    );
    v.insert(
        "storage.wal.recovered_events",
        counter("wal.recovered_events"),
    );
    v
}

/// Trigger event emission → last effect of the committed instance it
/// fired, µs. The k-th staged instance answers the k-th trigger event
/// delivered.
fn routine_fire_latency(rep: &RepData) -> Option<LatencySummary> {
    let routine = rep.routine.as_ref()?;
    let triggers = rep.first_deliveries().into_iter().filter(|(id, _, _)| {
        id.sensor == routine.trigger_sensor && id.seq % routine.every == routine.every - 1
    });
    let applied: std::collections::HashMap<_, _> = rep
        .actuators
        .iter()
        .flat_map(|a| a.effects.iter().map(|(at, id, _)| (*id, *at)))
        .collect();
    let mut latencies: Vec<u64> = triggers
        .zip(&routine.instances)
        .filter(|(_, rec)| rec.state == RoutineTransition::Committed)
        .filter_map(|((_, emitted, _), rec)| {
            let last = rec
                .commands
                .iter()
                .filter_map(|(_, c)| applied.get(c))
                .max()?;
            Some(last.duration_since(emitted).as_micros())
        })
        .collect();
    LatencySummary::of(&mut latencies)
}

/// Every per-layer metric of a simulated workload's traced run.
#[must_use]
pub fn sim_layers(inputs: &LayerInputs<'_>) -> BTreeMap<&'static str, f64> {
    let LayerInputs {
        rep, virt, probed, ..
    } = inputs;
    let obs = &rep.obs;
    let counter = |name: &str| obs.counter(name) as f64;
    let delivered = virt.delivered as f64;
    let cpu_ns = inputs.cpu_s * 1e9;
    let mut v = counts(rep, virt);

    v.insert("types.wire.encode_ns", probed.encode_ns);
    v.insert("types.wire.decode_ns", probed.decode_ns);
    v.insert("net.sim.dispatch_ns", probed.dispatch_ns);
    v.insert("core.store.insert_ns", probed.insert_ns);
    v.insert("core.app.fire_ns", probed.fire_ns);
    v.insert("storage.wal.append_ns", probed.append_ns);
    v.insert("storage.wal.flush_us", probed.flush_us);
    v.insert("storage.ledger.append_us", probed.ledger_us);
    v.insert("obs.inc_ns", probed.inc_ns);

    // Every message is encoded once by its sender and decoded once by
    // each receiver.
    let shares = [
        (
            "types.wire.share",
            rep.net.messages_sent as f64 * probed.encode_ns
                + rep.net.messages_delivered as f64 * probed.decode_ns,
        ),
        (
            "net.sim.share",
            rep.net.sim_events as f64 * probed.dispatch_ns,
        ),
        ("core.store.share", inputs.stored * probed.insert_ns),
        ("core.app.share", counter("app.deliveries") * probed.fire_ns),
        (
            "storage.wal.share",
            counter("wal.appends") * probed.append_ns
                + counter("wal.flushes") * probed.flush_us * 1e3,
        ),
        (
            "storage.ledger.share",
            counter("ledger.appends") * probed.ledger_us * 1e3,
        ),
    ];
    let mut attributed = 0.0;
    for (name, ns) in shares {
        let share = ratio(ns, cpu_ns);
        attributed += share;
        v.insert(name, share);
    }
    v.insert("process.unattributed_share", 1.0 - attributed);
    v.insert(
        "process.cpu_us_per_event",
        ratio(inputs.cpu_s * 1e6, delivered),
    );
    v.insert(
        "process.allocs_per_event",
        ratio(inputs.allocs.0 as f64, delivered),
    );
    v.insert(
        "process.alloc_bytes_per_event",
        ratio(inputs.allocs.1 as f64, delivered),
    );
    v.insert(
        "obs.overhead_share",
        ratio(inputs.traced_wall_s, inputs.untraced_wall_s) - 1.0,
    );
    v
}
