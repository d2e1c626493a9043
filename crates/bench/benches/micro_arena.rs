//! Micro-benchmark of the event-payload arena ([`PayloadArena`]).
//!
//! The arena replaces per-event `Bytes::from(Vec<u8>)` payload copies
//! with bump allocation into shared chunks, so it is pinned against
//! exactly that baseline at typical sensor-payload sizes.
//!
//! CI runs this in smoke mode (`cargo bench --bench micro_arena --
//! --test`) so the loops stay wired without paying full sample counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rivulet_types::PayloadArena;
use std::hint::black_box;

const ITEMS: u64 = 4096;

fn bench_arena_alloc(c: &mut Criterion) {
    let mut g = c.benchmark_group("arena_alloc");
    // 1 KiB is the paper's sensor-event payload size; 64 B covers the
    // scalar-reading end.
    for payload_bytes in [64usize, 1024] {
        g.throughput(Throughput::Bytes(ITEMS * payload_bytes as u64));
        let data = vec![0xA5u8; payload_bytes];
        g.bench_with_input(
            BenchmarkId::new("arena", payload_bytes),
            &data,
            |b, data| {
                b.iter(|| {
                    let mut arena = PayloadArena::new();
                    let mut held = Vec::with_capacity(ITEMS as usize);
                    for _ in 0..ITEMS {
                        held.push(arena.alloc(black_box(data)));
                    }
                    black_box(held.len())
                });
            },
        );
        g.bench_with_input(
            BenchmarkId::new("bytes_from_vec", payload_bytes),
            &data,
            |b, data| {
                b.iter(|| {
                    let mut held = Vec::with_capacity(ITEMS as usize);
                    for _ in 0..ITEMS {
                        held.push(bytes::Bytes::from(black_box(data).clone()));
                    }
                    black_box(held.len())
                });
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_arena_alloc);
criterion_main!(benches);
