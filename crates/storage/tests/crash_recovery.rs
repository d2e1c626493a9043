//! Property tests for WAL crash recovery.
//!
//! The contract under test: for *any* crash point mid-append, recovery
//! replays exactly the durable prefix of the log — nothing more than
//! what was appended, nothing less than what was fsynced — and the
//! whole scenario is byte-identical when re-run with the same seed.

use std::sync::Arc;

use proptest::prelude::*;
use rivulet_storage::{Checkpoint, FaultConfig, SimBackend, StorageBackend, Wal, WalOptions};
use rivulet_types::{Event, EventId, EventKind, SensorId, Time};

fn ev(i: u64) -> Event {
    Event::new(
        EventId::new(SensorId((i % 3) as u32), i),
        EventKind::Motion,
        Time::from_millis(i),
    )
}

struct Outcome {
    /// Events handed to `append_event`, in order.
    appended: Vec<Event>,
    /// How many of them the WAL had confirmed durable (flushed) before
    /// the crash.
    durable: usize,
    /// Events `Wal::open` recovered after the crash.
    recovered: Vec<Event>,
    /// Raw bytes of every surviving segment after recovery truncated
    /// the torn tail.
    segments: Vec<(u64, Vec<u8>)>,
}

/// Appends `n` events, flushing after every `flush_every`-th, crashes
/// the disk, and reopens the log.
fn run(seed: u64, n: usize, flush_every: usize, seg_max: usize, faults: FaultConfig) -> Outcome {
    let backend = Arc::new(SimBackend::new(seed).with_faults(faults));
    let options = WalOptions {
        segment_max_bytes: seg_max,
        ..WalOptions::default()
    };
    let (mut wal, fresh) =
        Wal::open(Arc::clone(&backend) as Arc<dyn StorageBackend>, options).expect("open");
    assert!(fresh.events.is_empty(), "a fresh log recovers nothing");

    let mut appended = Vec::with_capacity(n);
    let mut durable = 0;
    for i in 0..n {
        let event = ev(i as u64);
        wal.append_event(&event).expect("append");
        appended.push(event);
        if (i + 1) % flush_every == 0 {
            wal.flush().expect("flush");
            durable = i + 1;
        }
    }

    backend.crash();
    drop(wal);

    let (wal, recovered) =
        Wal::open(Arc::clone(&backend) as Arc<dyn StorageBackend>, options).expect("reopen");
    let segments: Vec<(u64, Vec<u8>)> = wal
        .segments()
        .into_iter()
        .map(|id| (id, backend.read_segment(id).expect("segment")))
        .collect();
    Outcome {
        appended,
        durable,
        recovered: recovered.events,
        segments,
    }
}

proptest! {
    /// With an honest fsync, recovery returns a prefix of the appended
    /// events that covers at least everything confirmed durable. The
    /// torn tail may contribute extra *complete* frames beyond the last
    /// fsync, but never reorders, invents, or drops interior events.
    #[test]
    fn recovery_is_exactly_the_durable_prefix(
        seed in 0u64..10_000,
        n in 1usize..120,
        flush_every in 1usize..8,
        seg_max in 64usize..2048,
    ) {
        let faults = FaultConfig { torn_tail: true, corrupt_tail: 0.0, partial_fsync: 0.0 };
        let out = run(seed, n, flush_every, seg_max, faults);
        prop_assert!(
            out.recovered.len() >= out.durable,
            "lost durable events: recovered {} < durable {}",
            out.recovered.len(),
            out.durable
        );
        prop_assert!(out.recovered.len() <= out.appended.len());
        prop_assert_eq!(&out.recovered[..], &out.appended[..out.recovered.len()]);
    }

    /// Under a hostile disk (bit rot in the torn tail, firmware that
    /// lies about fsync) the durability *guarantee* is gone, but
    /// recovery must still return a clean prefix — the CRC framing has
    /// to catch whatever the fault model mangled.
    #[test]
    fn recovery_is_a_prefix_even_with_corruption_and_lying_fsync(
        seed in 0u64..10_000,
        n in 1usize..120,
        flush_every in 1usize..8,
        seg_max in 64usize..2048,
    ) {
        let faults = FaultConfig { torn_tail: true, corrupt_tail: 0.8, partial_fsync: 0.5 };
        let out = run(seed, n, flush_every, seg_max, faults);
        prop_assert!(out.recovered.len() <= out.appended.len());
        prop_assert_eq!(&out.recovered[..], &out.appended[..out.recovered.len()]);
    }

    /// The same seed reproduces the same crash, the same surviving
    /// bytes, and the same recovery — the determinism the simulator's
    /// crash schedules rely on.
    #[test]
    fn same_seed_recovery_is_byte_identical(
        seed in 0u64..10_000,
        n in 1usize..100,
        flush_every in 1usize..8,
    ) {
        let faults = FaultConfig { torn_tail: true, corrupt_tail: 0.3, partial_fsync: 0.2 };
        let a = run(seed, n, flush_every, 512, faults);
        let b = run(seed, n, flush_every, 512, faults);
        prop_assert_eq!(a.segments, b.segments);
        prop_assert_eq!(a.recovered, b.recovered);
    }

    /// Checkpoints interleaved with events never disturb the event
    /// prefix, and the recovered checkpoint is one that was written.
    #[test]
    fn checkpoints_ride_along_without_breaking_the_prefix(
        seed in 0u64..10_000,
        n in 2usize..100,
        every in 2usize..10,
    ) {
        let backend = Arc::new(SimBackend::new(seed));
        let options = WalOptions {
            segment_max_bytes: 512,
            ..WalOptions::default()
        };
        let (mut wal, _) =
            Wal::open(Arc::clone(&backend) as Arc<dyn StorageBackend>, options).expect("open");
        let mut appended = Vec::new();
        let mut checkpoint_times = Vec::new();
        for i in 0..n {
            let event = ev(i as u64);
            wal.append_event(&event).expect("append");
            appended.push(event);
            if i % 3 == 2 {
                wal.flush().expect("flush");
            }
            if i % every == every - 1 {
                let at = Time::from_millis(i as u64);
                wal.append_checkpoint(&Checkpoint {
                    at,
                    processed: appended.iter().map(|e| e.id).collect(),
                })
                .expect("checkpoint");
                checkpoint_times.push(at);
            }
        }
        backend.crash();
        drop(wal);
        let (_, recovered) =
            Wal::open(Arc::clone(&backend) as Arc<dyn StorageBackend>, options).expect("reopen");
        prop_assert_eq!(&recovered.events[..], &appended[..recovered.events.len()]);
        if let Some(cp) = recovered.checkpoint {
            prop_assert!(checkpoint_times.contains(&cp.at), "unknown checkpoint {:?}", cp.at);
        }
    }
}
