//! Micro-benchmark of the WAL flush policies: per-event fsync vs
//! group commit.
//!
//! The interesting numbers are in *virtual* disk time (the
//! deterministic [`SimBackend`] latency model), printed as a table
//! before the wall-clock loops: appends per virtual second and the p99
//! virtual append latency. Per-event fsync pays the ~500 µs flush on
//! every append; group commit amortizes it across the batch, which is
//! exactly why the runtime defaults to batching with a tick-driven
//! backstop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rivulet_storage::{FlushPolicy, SimBackend, StorageBackend, Wal, WalOptions};
use rivulet_types::{Duration, Event, EventId, EventKind, SensorId, Time};
use std::hint::black_box;
use std::sync::Arc;

fn ev(seq: u64) -> Event {
    Event::new(
        EventId::new(SensorId(1), seq),
        EventKind::Motion,
        Time::from_millis(seq),
    )
}

fn wal_with(policy: FlushPolicy) -> (Wal, Arc<SimBackend>) {
    let backend = Arc::new(SimBackend::new(1));
    let options = WalOptions {
        flush_policy: policy,
        segment_max_bytes: 4 * 1024 * 1024,
    };
    let (wal, _) =
        Wal::open(Arc::clone(&backend) as Arc<dyn StorageBackend>, options).expect("open wal");
    (wal, backend)
}

const POLICIES: [(&str, FlushPolicy); 3] = [
    ("per_event", FlushPolicy::EveryN(1)),
    ("every_8", FlushPolicy::EveryN(8)),
    ("every_64", FlushPolicy::EveryN(64)),
];

/// Deterministic virtual-time comparison: appends/sec against the
/// simulated disk and the p99 latency an appender observes.
fn virtual_time_report() {
    const N: u64 = 10_000;
    println!("wal flush policy comparison over {N} appends (virtual disk time):");
    for (name, policy) in POLICIES {
        let (mut wal, backend) = wal_with(policy);
        let mut latencies: Vec<Duration> = Vec::with_capacity(N as usize);
        let mut prev = Duration::ZERO;
        for seq in 0..N {
            wal.append_event(&ev(seq)).expect("append");
            let busy = backend.busy();
            latencies.push(busy - prev);
            prev = busy;
        }
        wal.flush().expect("drain final batch");
        let total = backend.busy();
        latencies.sort_unstable();
        let p50 = latencies[latencies.len() / 2];
        let p99 = latencies[(latencies.len() * 99) / 100];
        let appends_per_vsec = N as f64 * 1e6 / total.as_micros() as f64;
        let (_, syncs, _) = backend.op_counts();
        println!(
            "  {name:>9}: {appends_per_vsec:>10.0} appends/s  append p50 {p50} p99 {p99}  \
             total disk {total}  fsyncs {syncs}"
        );
    }
}

fn bench_micro_wal(c: &mut Criterion) {
    virtual_time_report();

    // Wall-clock loops: CPU cost of the append path (framing, CRC,
    // buffering, simulated backend bookkeeping) per policy.
    let mut group = c.benchmark_group("micro_wal");
    group.throughput(Throughput::Elements(1));
    for (name, policy) in POLICIES {
        group.bench_with_input(BenchmarkId::new("append", name), &policy, |b, &policy| {
            let (mut wal, _backend) = wal_with(policy);
            let mut seq = 0u64;
            b.iter(|| {
                seq += 1;
                black_box(wal.append_event(&ev(seq)).expect("append"))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_micro_wal);
criterion_main!(benches);
