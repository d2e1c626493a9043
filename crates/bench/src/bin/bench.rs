//! Gate-table runner: regenerates the two committed correctness tables
//! and asserts their floors (a failed floor panics, so CI fails).
//!
//! ```text
//! cargo run --release -p rivulet-bench --bin bench -- \
//!     [--fault-table [--fault-out PATH]] [--routine-table [--routine-out PATH]] [--quick]
//! ```
//!
//! `--fault-table` runs the correctness-vs-fault-rate sweep and writes
//! `BENCH_fault.json`; `--routine-table` runs the routines-under-crash
//! sweep and writes `BENCH_routines.json`. `--quick` shrinks both for
//! CI smoke runs. Throughput, latency and bytes per event are the
//! `perf/` harness's job.

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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let quick = flag("--quick");
    let path = |name: &str, default: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| default.to_owned())
    };
    if !flag("--fault-table") && !flag("--routine-table") {
        eprintln!(
            "usage: bench [--fault-table [--fault-out PATH]] \
             [--routine-table [--routine-out PATH]] [--quick]"
        );
        std::process::exit(2);
    }
    if flag("--fault-table") {
        fault_table(&path("--fault-out", "BENCH_fault.json"), quick);
    }
    if flag("--routine-table") {
        routine_table(&path("--routine-out", "BENCH_routines.json"), quick);
    }
}
