//! Micro-benchmark of the per-process [`EventStore`] hot paths —
//! insert and anti-entropy diffing against a peer's holdings — plus the
//! age-guarded garbage collector every process runs from `tick`.
//!
//! Each sensor's events are a `seq`-sorted deque, so the steady state
//! is an append at the back and a pop at the front
//! (`store_steady_window`). The one operation a deque does worse than
//! the ordered tree it replaced is an insert into the middle: O(min(i,
//! n − i)) moves against O(log n). `store_fill_below_back` prices it at
//! distance d ∈ {1, 64, 4 096, 50 000} below the back, the last one a
//! fill in the middle of a log at the per-sensor cap. No `perf`
//! workload makes such fills far from the back: counted at seed 42,
//! only `crash_failover` inserts below the back at all (0.3 % of its
//! inserts, ring messages and one broadcast copy, d ≤ 99), so these
//! groups are the only measure of a stream that arrives far out of
//! order (EXPERIMENTS.md, "Index, don't search").
//! `store_duplicate_below_back` prices the lookup alone, for a
//! duplicate copy at the same distances: the path every relay takes
//! for a broadcast copy of an event the ring already stored.
//!
//! CI runs this in smoke mode (`cargo bench --bench micro_store --
//! --test`) so the loops stay wired without paying full sample counts.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rivulet_core::store::EventStore;
use rivulet_types::{Event, EventId, EventKind, Holdings, SensorId, Time};
use std::hint::black_box;

const SENSORS: u32 = 64;
const EVENTS_PER_SENSOR: u64 = 64;
const CAP_PER_SENSOR: usize = 128;

fn ev(sensor: u32, seq: u64) -> Event {
    Event::new(
        EventId::new(SensorId(sensor), seq),
        EventKind::Motion,
        Time::from_millis(seq),
    )
}

/// A store pre-filled with `EVENTS_PER_SENSOR` events on each of
/// `SENSORS` sensors, interleaved the way ring traffic arrives
/// (round-robin across sensors, ascending sequence).
fn filled() -> EventStore {
    let mut store = EventStore::new(CAP_PER_SENSOR);
    for seq in 0..EVENTS_PER_SENSOR {
        for sensor in 0..SENSORS {
            store.insert(ev(sensor, seq));
        }
    }
    store
}

fn bench_insert(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_insert");
    g.throughput(Throughput::Elements(u64::from(SENSORS) * EVENTS_PER_SENSOR));
    g.bench_function("flat", |b| {
        b.iter(|| {
            let mut store = EventStore::new(CAP_PER_SENSOR);
            for seq in 0..EVENTS_PER_SENSOR {
                for sensor in 0..SENSORS {
                    store.insert(black_box(ev(sensor, seq)));
                }
            }
            black_box(store.len())
        });
    });
    g.finish();
}

fn bench_diff(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_diff_for");
    g.throughput(Throughput::Elements(u64::from(SENSORS)));
    let store = filled();
    // A peer that is halfway behind on every sensor, and one that holds
    // every other event: either diff has to materialize about
    // EVENTS_PER_SENSOR / 2 events per sensor, all of them settled.
    let held = |keep: fn(u64) -> bool| -> Holdings {
        let ids = (0..SENSORS).flat_map(|s| {
            let seqs = (0..EVENTS_PER_SENSOR).filter(move |&q| keep(q));
            seqs.map(move |q| EventId::new(SensorId(s), q))
        });
        ids.collect()
    };
    let behind = held(|q| q <= EVENTS_PER_SENSOR / 2);
    g.bench_function("flat", |b| {
        b.iter(|| black_box(store.diff_for(&behind, Time::MAX)));
    });
    let holed = held(|q| q % 2 == 0);
    g.bench_function("holes", |b| {
        b.iter(|| black_box(store.diff_for(&holed, Time::MAX)));
    });
    g.finish();
}

/// The GC call `tick` makes per sensor, against a sensor that retains
/// 20 k events (the straggler window of a 600 ev/s stream). Its cost
/// must follow what it removes, not what is retained: `noop` (all
/// processed, none old enough) is the common tick and should cost one
/// look at the oldest entry; `one_percent_old` is the steady-state
/// tick, which collects the 200 events that aged out and — to keep the
/// window full, as the stream does — takes in 200 fresh ones.
fn bench_prune_processed(c: &mut Criterion) {
    const RETAINED: u64 = 20_000;
    const AGED_OUT: u64 = RETAINED / 100;
    let sensor = SensorId(0);
    let window = || {
        let mut store = EventStore::new(RETAINED as usize * 2);
        for seq in 0..RETAINED {
            store.insert(ev(0, seq));
        }
        store
    };
    let mut g = c.benchmark_group("store_prune_processed");

    let mut store = window();
    g.throughput(Throughput::Elements(1));
    g.bench_function("noop", |b| {
        b.iter(|| black_box(store.prune_processed(sensor, |_| black_box(true), Time::ZERO)));
    });
    assert_eq!(store.len(), RETAINED as usize);

    // `ev` stamps `emitted_at = seq` ms, so the window slides by
    // advancing the cutoff and the head together.
    let mut store = window();
    let mut oldest = 0u64;
    g.throughput(Throughput::Elements(AGED_OUT));
    g.bench_function("one_percent_old", |b| {
        b.iter(|| {
            oldest += AGED_OUT;
            let pruned = store.prune_processed(sensor, |_| true, Time::from_millis(oldest));
            for seq in oldest + RETAINED - AGED_OUT..oldest + RETAINED {
                store.insert(ev(0, seq));
            }
            black_box(pruned)
        });
    });
    assert_eq!(store.len(), RETAINED as usize);
    g.finish();
}

/// The replica's steady state: a 20 k-event window per sensor, one
/// event appended at the back and one aged out of the front per
/// iteration, the way every process runs a stream between its `tick`s.
fn bench_steady_window(c: &mut Criterion) {
    const RETAINED: u64 = 20_000;
    let sensor = SensorId(0);
    let mut store = EventStore::new(RETAINED as usize * 2);
    for seq in 0..RETAINED {
        store.insert(ev(0, seq));
    }
    let mut next = RETAINED;
    let mut g = c.benchmark_group("store_steady_window");
    g.throughput(Throughput::Elements(1));
    g.bench_function("append_and_pop", |b| {
        b.iter(|| {
            store.insert(black_box(ev(0, next)));
            next += 1;
            // `ev` stamps `emitted_at = seq` ms: everything older than
            // the window's first event ages out.
            let cutoff = Time::from_millis(next - RETAINED);
            black_box(store.prune_processed(sensor, |_| true, cutoff))
        });
    });
    assert_eq!(store.len(), RETAINED as usize);
    g.finish();
}

/// A late event inserted `d` events below the back of a window of at
/// least 8 k events. The ordinary stream appends the even `seq`s;
/// iteration `k` appends `2(k + d)` and then fills the odd `2k + 1`,
/// which sits below exactly the `d` even `seq`s `2k + 2 ..= 2(k + d)`
/// and above the `2w` events of the window's older part. Collection
/// keeps the window's length fixed, so the fill shifts the same `d`
/// events every time. The append and the two pops are what the steady
/// window costs; the rest is the fill. `d50000` is the ceiling: a
/// window of 100 000 events, the per-sensor cap the platform runs with,
/// filled in its middle.
fn bench_fill_below_back(c: &mut Criterion) {
    let sensor = SensorId(0);
    let mut g = c.benchmark_group("store_fill_below_back");
    g.throughput(Throughput::Elements(1));
    for d in [1u64, 64, 4_096, 50_000] {
        // The older part is at least as long as `d`, so the shorter
        // side a fill shifts is the `d` events above it.
        let w = (d / 2).max(4_096);
        // The window as `w` iterations leave it, built in `seq` order:
        // every `seq` below `2w`, then the even ones up to `2(w - 1 + d)`.
        let mut store = EventStore::new(usize::MAX);
        for seq in (0..2 * w).chain((w..w + d).map(|k| 2 * k)) {
            store.insert(ev(0, seq));
        }
        let mut k = w;
        let mut step = |store: &mut EventStore| {
            store.insert(ev(0, 2 * (k + d)));
            assert!(store.insert(ev(0, 2 * k + 1)));
            let upto = 2 * (k - w) + 1;
            store.prune_processed(sensor, |seq| seq <= upto, Time::MAX);
            k += 1;
        };
        g.bench_function(format!("d{d}"), |b| b.iter(|| step(black_box(&mut store))));
        assert_eq!(store.len() as u64, 2 * w + d);
    }
    g.finish();
}

/// A duplicate copy of the event `d` slots below the back of a window
/// of at least 8 k events — what a relay does with every broadcast copy
/// of an event the ring already brought it. `insert` answers `false`
/// and the window never changes. The lookup gallops back from the
/// newest entry and binary-searches the bracket it lands in, so its
/// cost follows `log d`, not the window's length; `d50000` sits in the
/// middle of a window at the per-sensor cap.
fn bench_duplicate_below_back(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_duplicate_below_back");
    g.throughput(Throughput::Elements(1));
    for d in [1u64, 64, 4_096, 50_000] {
        let len = (2 * d).max(8_192);
        let mut store = EventStore::new(usize::MAX);
        for seq in 0..len {
            store.insert(ev(0, seq));
        }
        let copy = ev(0, len - 1 - d);
        g.bench_function(format!("d{d}"), |b| {
            b.iter(|| assert!(!store.insert(black_box(copy.clone()))));
        });
        assert_eq!(store.len() as u64, len);
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_insert,
    bench_diff,
    bench_prune_processed,
    bench_steady_window,
    bench_fill_below_back,
    bench_duplicate_below_back
);
criterion_main!(benches);
