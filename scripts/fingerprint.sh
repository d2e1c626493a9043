#!/usr/bin/env bash
# Virtual-time fingerprint of the benchmark's gated workloads: the
# numbers a change that should not alter behaviour must leave as they
# are, one table row per workload, seed and metric.
#
# For each workload in BENCHMARK.json at seeds 42, 7 and 100 it runs the
# benchmark harness (`perf run --seconds 1`) twice:
#
#   --trace 0  every virtual-time end-to-end metric (delivery and
#              actuation latency, WiFi bytes per event, failover gap)
#              and the run's `attempted` and `failed` counts;
#   --trace 1  the exact per-layer counts: messages, timers and ring hops
#              per event, coalesced frames, WAL appends and bytes per
#              event, events per flush, the store's and rbcast's peaks.
#
# Same seed, same virtual time: each of these is bit-identical between
# runs and hosts. Nothing measured in host time is recorded (throughput,
# latencies in ns/µs, RSS, set-up time, shares of CPU).
#
# Allocation counts are left out too: they depend on the Rust toolchain
# and its standard library, and no toolchain is pinned, so a new rustc
# could move them with no change here. `tests/app_alloc_budget.rs`
# already gates allocations per event, as budgets.
#
# Writes the table to BENCH_virtual.md at the repository root, or to the
# path given as the one argument. Run from anywhere inside the
# repository (about two minutes on two cores):
#
#     scripts/fingerprint.sh                 # rewrites BENCH_virtual.md
#     scripts/fingerprint.sh OUT.md          # writes OUT.md instead
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-BENCH_virtual.md}"
workloads="ring_steady broadcast_blob durable_routine crash_failover dag_poll fleet_sweep"
seeds="42 7 100"
untraced="deliver_p50_ms deliver_p99_ms actuate_p50_ms actuate_p99_ms wifi_bytes_per_event failover_gap_ms"
traced="net.sim.msgs_per_event net.sim.timers_per_event core.delivery.hops_per_event
    core.delivery.frames_coalesced storage.wal.appends_per_event storage.wal.bytes_per_event
    storage.wal.events_per_flush core.store.len_max core.delivery.rbcast_pending_max"

cargo build --release --offline --locked --quiet --manifest-path perf/Cargo.toml
perf=perf/target/release/perf

# Prints `| workload | seed | name | value |` for each metric named in
# $4 of one run's output ($3), in that order, and fails on a missing one.
rows() {
    local workload=$1 seed=$2 run=$3 name value
    for name in $4; do
        value=$(awk -v n="$name" '$1 == n { print $2 }' <<<"$run")
        [ -n "$value" ] || { echo "$workload seed $seed: no $name" >&2; exit 1; }
        echo "| $workload | $seed | $name | $value |"
    done
}

{
    echo "# Virtual-time fingerprint"
    echo
    echo "Written by \`scripts/fingerprint.sh\`; CI regenerates it and compares the bytes."
    echo
    echo "| workload | seed | metric | value |"
    echo "|---|---|---|---|"
    for workload in $workloads; do
        for seed in $seeds; do
            run=$("$perf" run --workload "$workload" --seed "$seed" --seconds 1 --trace 0)
            rows "$workload" "$seed" "$run" "$untraced"
            for field in attempted failed; do
                value=$(tail -n 1 <<<"$run" | grep -o "\"$field\":[0-9]*" | cut -d: -f2)
                echo "| $workload | $seed | $field | $value |"
            done
            run=$("$perf" run --workload "$workload" --seed "$seed" --seconds 1 --trace 1)
            rows "$workload" "$seed" "$run" "$traced"
        done
    done
} >"$out"
