//! Fan-out benchmark runner: measures the encode-once / coalescing
//! send path against the per-peer re-encode it replaced and writes the
//! results to `BENCH_fanout.json` (plus a human-readable summary on
//! stdout).
//!
//! ```text
//! cargo run --release -p rivulet-bench --bin bench \
//!     [-- --out PATH] [--quick] [--assert-baseline PATH] [--tolerance FRACTION]
//! ```
//!
//! `--quick` shrinks the iteration counts for CI smoke runs.
//! `--assert-baseline PATH` enables the regression gate: the fresh
//! coalesced throughput (measured with a *disabled* observability
//! recorder on the hot path) must stay within `--tolerance` of the
//! committed `BENCH_fanout.json` (default 0.25 — wide enough for
//! cross-machine noise in CI; tighten locally to verify the < 3%
//! acceptance bound on stable hardware). Whole-platform throughput,
//! latency and bytes per event are the `perf/` harness's job.
//!
//! `--fleet-fresh PATH` (with `--fleet-baseline PATH`) gates a fresh
//! `BENCH_fleet.json` from the fleet orchestrator: any home failing
//! delivery correctness is fatal (exact — `homes_failed` must be 0),
//! and the aggregate fleet events/s must stay within `--tolerance` of
//! the committed fleet baseline. `--fleet-only` runs just that gate,
//! skipping the fan-out benchmarks.

use rivulet_bench::fanout::{run_micro, MicroPoint, MicroWorkload};
use rivulet_bench::fault::{correctness_table, render_json, render_table};
use rivulet_bench::routine::{
    corruption_exactness, render_json as routine_json, render_table as routine_md, routines_table,
    CRASH_OFFSETS_MS,
};
use rivulet_types::Duration;

/// Runs the correctness-vs-fault-rate sweep, prints the table, writes
/// `out_path`, and asserts the self-healing floor: repair-on must be
/// at least as correct as repair-off on every row, and strictly better
/// for at least three fault kinds at the highest rate.
fn fault_table(out_path: &str, quick: bool) {
    let rates = if quick {
        vec![0.25, 0.5]
    } else {
        vec![0.1, 0.25, 0.5]
    };
    let duration = Duration::from_secs(if quick { 120 } else { 240 });
    let rows = correctness_table(&rates, duration, 42);
    print!("{}", render_table(&rows));
    let top_rate = *rates.last().expect("non-empty rates");
    let mut strictly_better = std::collections::BTreeSet::new();
    for r in &rows {
        assert!(
            r.on.correctness() >= r.off.correctness(),
            "repair made {} at rate {:.2} worse: on {:.4} < off {:.4}",
            r.kind.name(),
            r.rate,
            r.on.correctness(),
            r.off.correctness()
        );
        if r.rate == top_rate && r.on.correctness() > r.off.correctness() {
            strictly_better.insert(r.kind.name());
        }
    }
    assert!(
        strictly_better.len() >= 3,
        "repair strictly improved only {:?} at rate {top_rate:.2}; need >= 3 fault kinds",
        strictly_better
    );
    println!(
        "fault gate: repair-on >= repair-off on all {} rows; strictly better for {:?} at rate {top_rate:.2}",
        rows.len(),
        strictly_better
    );
    std::fs::write(out_path, render_json(&rows)).expect("write BENCH_fault.json");
    println!("wrote {out_path}");
}

/// Runs the routines-under-crash sweep, prints the table, writes
/// `out_path`, and asserts the execution-integrity gates:
///
/// 1. zero partial and zero phantom firings on every row (exact — one
///    is an atomicity violation);
/// 2. the coordinator's recovered ledger chain verifies on every row,
///    including the recovered crash runs;
/// 3. the sweep exercises both outcomes: some crash row aborted a
///    staging and some row committed after recovery;
/// 4. the crash-free baseline commits every staged instance;
/// 5. tampering with any single ledger entry of the baseline run is
///    detected at its exact index.
fn routine_table(out_path: &str, quick: bool) {
    let offsets: &[u64] = if quick { &[0, 2, 4] } else { &CRASH_OFFSETS_MS };
    let duration = Duration::from_secs(30);
    let seed = 42;
    let rows = routines_table(offsets, duration, seed);
    print!("{}", routine_md(&rows));
    let mut aborted_total = 0u64;
    let mut committed_after_crash = 0u64;
    for r in &rows {
        let o = &r.outcome;
        let label = r
            .crash_ms
            .map_or_else(|| "baseline".to_owned(), |ms| format!("crash +{ms}ms"));
        assert!(
            o.partial_firings == 0,
            "{label}: {} routine instance(s) fired partially — atomicity violated",
            o.partial_firings
        );
        assert!(
            o.phantom_firings == 0,
            "{label}: {} non-committed instance(s) fired — staging leaked",
            o.phantom_firings
        );
        assert!(
            o.ledger_broken.is_none(),
            "{label}: recovered ledger chain broken at index {:?}",
            o.ledger_broken
        );
        if r.crash_ms.is_some() {
            aborted_total += o.aborted;
            committed_after_crash += o.committed;
        } else {
            assert!(
                o.committed as usize == o.instances && o.instances > 0,
                "baseline must commit every staged instance ({} of {})",
                o.committed,
                o.instances
            );
        }
    }
    assert!(
        aborted_total > 0,
        "no crash offset interrupted a staging; the sweep missed the window"
    );
    assert!(
        committed_after_crash > 0,
        "no crash row committed anything; recovery is not re-driving routines"
    );
    let baseline = &rows[0].outcome;
    let (entries, exact) = corruption_exactness(seed, &baseline.ledger);
    assert!(
        entries > 0 && exact == entries,
        "ledger corruption pinpointing failed: {exact} of {entries} tampered \
         entries detected at their exact index"
    );
    println!(
        "routine gate: {} rows, 0 partial/phantom firings, all ledgers verified, \
         {aborted_total} crash-interrupted abort(s), {committed_after_crash} \
         post-crash commit(s), {exact}/{entries} corruptions pinpointed",
        rows.len()
    );
    std::fs::write(out_path, routine_json(&rows, (entries, exact)))
        .expect("write BENCH_routines.json");
    println!("wrote {out_path}");
}

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "0.0".to_owned()
    }
}

fn micro_json(p: &MicroPoint) -> String {
    format!(
        "{{\"events_per_sec\": {}, \"bytes_per_event\": {}}}",
        json_f(p.events_per_sec),
        json_f(p.bytes_per_event)
    )
}

/// Extracts `micro.after.events_per_sec` from a `BENCH_fanout.json`
/// document without a JSON parser dependency: finds the `"after"` key
/// and reads the first `"events_per_sec"` number inside it.
fn baseline_events_per_sec(json: &str) -> Option<f64> {
    let after = json.find("\"after\"")?;
    let tail = &json[after..];
    let key = tail.find("\"events_per_sec\"")?;
    let tail = &tail[key + "\"events_per_sec\"".len()..];
    let colon = tail.find(':')?;
    let tail = tail[colon + 1..].trim_start();
    let end = tail
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Extracts the first number after `"key":` inside the `"fleet"`
/// object of a `BENCH_fleet.json` document — same parser-free idiom
/// as [`baseline_events_per_sec`].
fn fleet_number(json: &str, key: &str) -> Option<f64> {
    let fleet = json.find("\"fleet\"")?;
    let tail = &json[fleet..];
    let quoted = format!("\"{key}\"");
    let at = tail.find(&quoted)?;
    let tail = &tail[at + quoted.len()..];
    let colon = tail.find(':')?;
    let tail = tail[colon + 1..].trim_start();
    let end = tail
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Extracts `scaling.full.threads` from a `BENCH_fleet.json`
/// document: finds the `"scaling"` block, then `"full"` inside it,
/// then the first `"threads"` number. Returns `None` when the
/// document carries no scaling section.
fn scaling_full_threads(json: &str) -> Option<f64> {
    let scaling = json.find("\"scaling\"")?;
    let tail = &json[scaling..];
    let full = tail.find("\"full\"")?;
    let tail = &tail[full..];
    let at = tail.find("\"threads\"")?;
    let tail = &tail[at + "\"threads\"".len()..];
    let colon = tail.find(':')?;
    let tail = tail[colon + 1..].trim_start();
    let end = tail
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// The fleet regression gate: delivery correctness is exact,
/// throughput is tolerance-banded against the committed baseline.
fn fleet_gate(fresh_path: &str, baseline_path: Option<&str>, tolerance: f64) {
    let fresh = std::fs::read_to_string(fresh_path)
        .unwrap_or_else(|e| panic!("read fleet results {fresh_path}: {e}"));
    let homes =
        fleet_number(&fresh, "homes").unwrap_or_else(|| panic!("no fleet.homes in {fresh_path}"));
    let failed = fleet_number(&fresh, "homes_failed")
        .unwrap_or_else(|| panic!("no fleet.homes_failed in {fresh_path}"));
    let fresh_eps = fleet_number(&fresh, "events_per_sec")
        .unwrap_or_else(|| panic!("no fleet.events_per_sec in {fresh_path}"));
    println!("fleet gate: {homes:.0} homes, {failed:.0} failed, {fresh_eps:.0} events/s aggregate");
    assert!(
        failed == 0.0,
        "{failed:.0} of {homes:.0} fleet homes failed delivery correctness \
         (see {fresh_path}); any delivery failure is CI-fatal"
    );
    // Scaling honesty: on a multi-core host the "full" point of the
    // scaling sweep must have actually run with more than one worker.
    // A full.threads of 1 there means the sweep silently measured the
    // single-thread configuration twice and reported speedup ≈ 1.0 as
    // if it were a real parallelism result. A 1-core host is exempt —
    // one worker is all the parallelism it has.
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    if let Some(full_threads) = scaling_full_threads(&fresh) {
        println!("fleet gate: scaling.full.threads = {full_threads:.0} (host cores: {host_cores})");
        assert!(
            full_threads > 1.0 || host_cores == 1,
            "fleet scaling block is bogus: the full-core point ran with \
             {full_threads:.0} thread(s) on a {host_cores}-core host — the sweep \
             measured single-thread twice; regenerate with a real worker pool"
        );
    }
    let Some(baseline_path) = baseline_path else {
        println!("fleet gate: no --fleet-baseline given; correctness-only gate passed");
        return;
    };
    let baseline = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("read fleet baseline {baseline_path}: {e}"));
    let base_eps = fleet_number(&baseline, "events_per_sec")
        .unwrap_or_else(|| panic!("no fleet.events_per_sec in {baseline_path}"));
    let floor = base_eps * (1.0 - tolerance);
    println!(
        "fleet gate: fresh {fresh_eps:.0} events/s vs committed {base_eps:.0} \
         (floor {floor:.0}, tolerance {tolerance:.2})"
    );
    assert!(
        fresh_eps >= floor,
        "fleet aggregate throughput regressed: {fresh_eps:.0} events/s < floor \
         {floor:.0} ({base_eps:.0} - {tolerance:.2})"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_fanout.json".to_owned());
    let baseline_path = args
        .iter()
        .position(|a| a == "--assert-baseline")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let tolerance: f64 = args
        .iter()
        .position(|a| a == "--tolerance")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25);
    let fleet_fresh = args
        .iter()
        .position(|a| a == "--fleet-fresh")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let fleet_baseline = args
        .iter()
        .position(|a| a == "--fleet-baseline")
        .and_then(|i| args.get(i + 1))
        .cloned();
    if let Some(fresh) = &fleet_fresh {
        fleet_gate(fresh, fleet_baseline.as_deref(), tolerance);
        if args.iter().any(|a| a == "--fleet-only") {
            return;
        }
    }
    if args.iter().any(|a| a == "--fault-table") {
        let fault_out = args
            .iter()
            .position(|a| a == "--fault-out")
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| "BENCH_fault.json".to_owned());
        fault_table(&fault_out, quick);
        if args.iter().any(|a| a == "--fault-only") {
            return;
        }
    }
    if args.iter().any(|a| a == "--routine-table") {
        let routine_out = args
            .iter()
            .position(|a| a == "--routine-out")
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| "BENCH_routines.json".to_owned());
        routine_table(&routine_out, quick);
        if args.iter().any(|a| a == "--routine-only") {
            return;
        }
    }
    let activations: u64 = if quick { 2_000 } else { 20_000 };

    // Micro: the fan-out encode path, before (per-peer re-encode) vs
    // after (encode-once + coalesced frames), same binary.
    let w = MicroWorkload::broadcast_heavy();
    // Warm up both paths so allocator state is comparable, then keep
    // the best of three repetitions per variant (max throughput — the
    // run least disturbed by scheduler/frequency noise).
    let _ = run_micro(&w, activations / 10, false);
    let _ = run_micro(&w, activations / 10, true);
    let best = |coalesced: bool| {
        (0..3)
            .map(|_| run_micro(&w, activations, coalesced))
            .max_by(|a, b| a.events_per_sec.total_cmp(&b.events_per_sec))
            .expect("three repetitions")
    };
    let before = best(false);
    let after = best(true);
    let speedup = after.events_per_sec / before.events_per_sec.max(1e-9);
    println!(
        "micro_fanout (broadcast-heavy: {} peers x {} msgs of {} B):",
        w.peers, w.batch, w.payload_bytes
    );
    println!(
        "  before (per-peer encode): {:>12.0} events/s  {:>8.1} B/event",
        before.events_per_sec, before.bytes_per_event
    );
    println!(
        "  after  (encode-once)    : {:>12.0} events/s  {:>8.1} B/event",
        after.events_per_sec, after.bytes_per_event
    );
    println!("  speedup: {speedup:.2}x");

    // Baseline gate: the coalesced path now carries a disabled
    // observability recorder; its throughput must stay within
    // tolerance of the committed pre-instrumentation number.
    if let Some(path) = &baseline_path {
        let doc =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        let base = baseline_events_per_sec(&doc)
            .unwrap_or_else(|| panic!("no micro.after.events_per_sec in {path}"));
        let floor = base * (1.0 - tolerance);
        println!(
            "baseline gate: fresh {:.0} events/s vs committed {base:.0} \
             (floor {floor:.0}, tolerance {tolerance:.2})",
            after.events_per_sec
        );
        assert!(
            after.events_per_sec >= floor,
            "disabled-recorder fan-out regressed: {:.0} events/s < floor {floor:.0} \
             ({base:.0} - {tolerance:.2})",
            after.events_per_sec
        );
    }

    let json = format!(
        concat!(
            "{{\n  \"micro\": {{\n    \"workload\": \"broadcast_heavy\",\n",
            "    \"peers\": {}, \"batch\": {}, \"payload_bytes\": {},\n",
            "    \"before\": {},\n    \"after\": {},\n    \"speedup\": {}\n  }}\n}}\n"
        ),
        w.peers,
        w.batch,
        w.payload_bytes,
        micro_json(&before),
        micro_json(&after),
        format_args!("{speedup:.2}"),
    );
    std::fs::write(&out_path, json).expect("write BENCH_fanout.json");
    println!("wrote {out_path}");
}
