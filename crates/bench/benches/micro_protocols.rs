//! Micro-benchmarks of the protocol building blocks: wire codec
//! throughput, ring-message handling, event-store operations, and
//! Marzullo interval intersection. These bound the per-event CPU cost
//! that the paper attributes to its "wimpy" in-home compute devices.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rivulet_core::app::marzullo;
use rivulet_core::delivery::gapless::GaplessState;
use rivulet_core::messages::ProcMsg;
use rivulet_core::store::EventStore;
use rivulet_types::wire::Wire;
use rivulet_types::{Event, EventId, EventKind, Payload, ProcSet, ProcessId, SensorId, Time};
use std::hint::black_box;

fn event_of(bytes: usize, seq: u64) -> Event {
    let payload = match bytes {
        0..=4 => Payload::Empty,
        5..=8 => Payload::Scalar(21.5),
        n => Payload::zeros(n),
    };
    Event::with_payload(
        EventId::new(SensorId(1), seq),
        EventKind::Reading,
        payload,
        Time::from_millis(seq),
    )
}

fn bench_wire_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");
    for bytes in [4usize, 1024, 20 * 1024] {
        let event = event_of(bytes, 7);
        let msg = ProcMsg::Ring {
            event,
            seen: vec![ProcessId(0), ProcessId(1)],
            need: (0..5).map(ProcessId).collect(),
        };
        let encoded = msg.to_bytes();
        group.throughput(Throughput::Bytes(encoded.len() as u64));
        group.bench_with_input(BenchmarkId::new("encode", bytes), &msg, |b, msg| {
            b.iter(|| black_box(msg.to_bytes()))
        });
        group.bench_with_input(BenchmarkId::new("decode", bytes), &encoded, |b, buf| {
            b.iter(|| black_box(ProcMsg::from_bytes(buf).expect("valid")))
        });
    }
    group.finish();
}

fn bench_ring_handling(c: &mut Criterion) {
    c.bench_function("gapless_ring_step", |b| {
        let everyone: Vec<ProcessId> = (0..5).map(ProcessId).collect();
        let view: ProcSet = everyone.iter().copied().collect();
        let mut seq = 0u64;
        let mut state = GaplessState::new(ProcessId(1), 1_000_000, true);
        b.iter(|| {
            seq += 1;
            let outcome = state.on_ring(
                event_of(4, seq),
                vec![ProcessId(0)],
                everyone.clone(),
                view,
                Some(ProcessId(2)),
            );
            black_box((outcome.actions.len(), outcome.relay.is_some()))
        })
    });
}

fn bench_event_store(c: &mut Criterion) {
    c.bench_function("event_store_insert", |b| {
        let mut store = EventStore::new(100_000);
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            black_box(store.insert(event_of(4, seq)))
        })
    });
    c.bench_function("event_store_diff_1k_behind", |b| {
        let mut store = EventStore::new(1_000_000);
        for seq in 0..10_000 {
            store.insert(event_of(4, seq));
        }
        let peer = vec![(SensorId(1), 9_000u64)];
        b.iter(|| black_box(store.diff_for(&peer).len()))
    });
}

fn bench_marzullo(c: &mut Criterion) {
    let mut group = c.benchmark_group("marzullo");
    for n in [4usize, 16, 64] {
        let intervals: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let base = 20.0 + (i as f64) * 0.01;
                (base, base + 1.0)
            })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &intervals, |b, iv| {
            b.iter(|| black_box(marzullo(iv, iv.len() / 4)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_wire_codec,
    bench_ring_handling,
    bench_event_store,
    bench_marzullo
);
criterion_main!(benches);
