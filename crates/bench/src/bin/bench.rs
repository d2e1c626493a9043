//! Gate-table runner: regenerates the two committed correctness tables.
//!
//! ```text
//! cargo run --release -p rivulet-bench --bin bench -- \
//!     [--fault-table [--fault-out PATH]] [--routine-table [--routine-out PATH]]
//! ```
//!
//! `--fault-table` runs the correctness-vs-fault-rate sweep, asserts
//! its floor (a failed floor panics, so CI fails) and writes
//! `BENCH_fault.json`. `--routine-table` runs the routines-under-crash
//! sweep and writes `BENCH_routines.json`; its gates are
//! `tests/routine_suite.rs` and the byte comparison against the
//! committed file. Throughput, latency and bytes per event are the
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
fn fault_table(out_path: &str) {
    let rates = [0.1, 0.25, 0.5];
    let rows = correctness_table(&rates, Duration::from_secs(240), 42);
    print!("{}", render_table(&rows));
    let top_rate = rates[rates.len() - 1];
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

/// Runs the routines-under-crash sweep (seed 42, 30 s, every crash
/// offset), prints the table and writes `out_path`.
fn routine_table(out_path: &str) {
    let seed = 42;
    let rows = routines_table(&CRASH_OFFSETS_MS, Duration::from_secs(30), seed);
    print!("{}", routine_md(&rows));
    let corruption = corruption_exactness(seed, &rows[0].outcome.ledger);
    std::fs::write(out_path, routine_json(&rows, corruption)).expect("write BENCH_routines.json");
    println!("wrote {out_path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
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
             [--routine-table [--routine-out PATH]]"
        );
        std::process::exit(2);
    }
    if flag("--fault-table") {
        fault_table(&path("--fault-out", "BENCH_fault.json"));
    }
    if flag("--routine-table") {
        routine_table(&path("--routine-out", "BENCH_routines.json"));
    }
}
