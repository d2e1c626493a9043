//! Deterministic in-memory storage backend for simulation.
//!
//! Models the two things a real disk does that matter to a WAL:
//!
//! 1. **The page-cache / durability split.** Appended bytes sit in a
//!    volatile buffer until [`sync`](StorageBackend::sync); a
//!    [`crash`](SimBackend::crash) discards (or tears) the unsynced
//!    tail, exactly the state a process finds on restart after a power
//!    loss.
//! 2. **Latency.** One `sync` takes a fixed 500 µs of *virtual time*,
//!    reported by [`StorageBackend::sync_cost`]; appends, which land in
//!    the page cache, take none. The backend keeps no clock of its own:
//!    the process's durability gate is the one place disk time passes,
//!    releasing nothing a flush covers until one sync after the flush
//!    started. Benchmarks compare per-event fsync with group commit
//!    by the syncs [`SimBackend::op_counts`] counts.
//!
//! The fault model is seeded, so a given seed produces the identical
//! sequence of torn writes and corruptions on every run — the property
//! the crash-recovery test suite depends on.

use std::collections::BTreeMap;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rivulet_types::Duration;

use crate::backend::{Result, SegmentId, StorageBackend, StorageError};

/// Virtual-time cost of one `sync` (fdatasync), loosely modeled on a
/// consumer SSD: the dominant term on real hardware, and the reason
/// group commit wins.
const FSYNC: Duration = Duration::from_micros(500);

/// Knobs of the crash/corruption fault model.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// On crash, let a random prefix of the unsynced tail survive
    /// (a torn write that partially reached the platter). When false
    /// the entire unsynced tail is lost.
    pub torn_tail: bool,
    /// Probability that a surviving torn tail also has one byte
    /// flipped (media corruption caught only by the record CRC).
    pub corrupt_tail: f64,
    /// Probability that a `sync` call persists only part of the
    /// buffered bytes while still reporting success (lying-fsync
    /// firmware). Recovery must still produce a valid prefix.
    pub partial_fsync: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            torn_tail: true,
            corrupt_tail: 0.0,
            partial_fsync: 0.0,
        }
    }
}

#[derive(Debug, Default)]
struct Segment {
    data: Vec<u8>,
    durable_len: usize,
}

#[derive(Debug)]
struct Inner {
    segments: BTreeMap<SegmentId, Segment>,
    rng: StdRng,
    appends: u64,
    syncs: u64,
    bytes_appended: u64,
}

/// Deterministic simulated disk. Share it between a process factory's
/// incarnations via `Arc` so durable state outlives crashes.
#[derive(Debug)]
pub struct SimBackend {
    faults: FaultConfig,
    inner: Mutex<Inner>,
}

impl SimBackend {
    /// Creates a backend whose fault model draws from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            faults: FaultConfig::default(),
            inner: Mutex::new(Inner {
                segments: BTreeMap::new(),
                rng: StdRng::seed_from_u64(seed),
                appends: 0,
                syncs: 0,
                bytes_appended: 0,
            }),
        }
    }

    /// Replaces the fault configuration.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// `(appends, syncs, bytes_appended)` counters.
    #[must_use]
    pub fn op_counts(&self) -> (u64, u64, u64) {
        let inner = self.inner.lock();
        (inner.appends, inner.syncs, inner.bytes_appended)
    }

    /// Bytes of segment `id` guaranteed to survive a crash.
    #[must_use]
    pub fn durable_len(&self, id: SegmentId) -> Option<usize> {
        self.inner.lock().segments.get(&id).map(|s| s.durable_len)
    }

    /// Simulates a power loss: every segment's unsynced tail is
    /// discarded, except that with [`FaultConfig::torn_tail`] a random
    /// prefix of it survives (possibly corrupted per
    /// [`FaultConfig::corrupt_tail`]).
    pub fn crash(&self) {
        let inner = &mut *self.inner.lock();
        for segment in inner.segments.values_mut() {
            let tail = segment.data.len() - segment.durable_len;
            if tail == 0 {
                continue;
            }
            let keep = if self.faults.torn_tail {
                inner.rng.gen_range(0..=tail)
            } else {
                0
            };
            segment.data.truncate(segment.durable_len + keep);
            if keep > 0
                && self.faults.corrupt_tail > 0.0
                && inner.rng.gen_bool(self.faults.corrupt_tail)
            {
                let off = inner.rng.gen_range(segment.durable_len..segment.data.len());
                segment.data[off] ^= 1 << inner.rng.gen_range(0u32..8);
            }
        }
    }

    /// Flips one bit at `offset` of segment `id` (targeted corruption
    /// for tests). Does nothing if the segment or offset is absent.
    pub fn inject_corruption(&self, id: SegmentId, offset: usize) {
        let mut inner = self.inner.lock();
        if let Some(segment) = inner.segments.get_mut(&id) {
            if offset < segment.data.len() {
                segment.data[offset] ^= 0x01;
            }
        }
    }
}

impl StorageBackend for SimBackend {
    fn create_segment(&self, id: SegmentId) -> Result<()> {
        let mut inner = self.inner.lock();
        if inner.segments.contains_key(&id) {
            return Err(StorageError::SegmentExists(id));
        }
        inner.segments.insert(id, Segment::default());
        Ok(())
    }

    fn append(&self, id: SegmentId, data: &[u8]) -> Result<()> {
        let inner = &mut *self.inner.lock();
        let Some(segment) = inner.segments.get_mut(&id) else {
            return Err(StorageError::MissingSegment(id));
        };
        segment.data.extend_from_slice(data);
        inner.appends += 1;
        inner.bytes_appended += data.len() as u64;
        Ok(())
    }

    fn sync(&self, id: SegmentId) -> Result<()> {
        let inner = &mut *self.inner.lock();
        let Some(segment) = inner.segments.get_mut(&id) else {
            return Err(StorageError::MissingSegment(id));
        };
        let unsynced = segment.data.len() - segment.durable_len;
        let persisted = if unsynced > 0
            && self.faults.partial_fsync > 0.0
            && inner.rng.gen_bool(self.faults.partial_fsync)
        {
            inner.rng.gen_range(0..unsynced)
        } else {
            unsynced
        };
        segment.durable_len += persisted;
        inner.syncs += 1;
        Ok(())
    }

    fn sync_cost(&self) -> Duration {
        FSYNC
    }

    fn read_segment(&self, id: SegmentId) -> Result<Vec<u8>> {
        self.inner
            .lock()
            .segments
            .get(&id)
            .map(|s| s.data.clone())
            .ok_or(StorageError::MissingSegment(id))
    }

    fn truncate_segment(&self, id: SegmentId, len: u64) -> Result<()> {
        let mut inner = self.inner.lock();
        let Some(segment) = inner.segments.get_mut(&id) else {
            return Err(StorageError::MissingSegment(id));
        };
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        if len < segment.data.len() {
            segment.data.truncate(len);
            segment.durable_len = segment.durable_len.min(len);
        }
        Ok(())
    }

    fn delete_segment(&self, id: SegmentId) -> Result<()> {
        match self.inner.lock().segments.remove(&id) {
            Some(_) => Ok(()),
            None => Err(StorageError::MissingSegment(id)),
        }
    }

    fn list_segments(&self) -> Result<Vec<SegmentId>> {
        Ok(self.inner.lock().segments.keys().copied().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsynced_tail_lost_on_crash_without_torn_writes() {
        let be = SimBackend::new(1).with_faults(FaultConfig {
            torn_tail: false,
            corrupt_tail: 0.0,
            partial_fsync: 0.0,
        });
        be.create_segment(0).unwrap();
        be.append(0, b"durable").unwrap();
        be.sync(0).unwrap();
        be.append(0, b" volatile").unwrap();
        be.crash();
        assert_eq!(be.read_segment(0).unwrap(), b"durable");
    }

    #[test]
    fn torn_tail_is_a_prefix_of_the_unsynced_bytes() {
        let be = SimBackend::new(7);
        be.create_segment(0).unwrap();
        be.append(0, b"base|").unwrap();
        be.sync(0).unwrap();
        be.append(0, b"tail-bytes").unwrap();
        be.crash();
        let data = be.read_segment(0).unwrap();
        assert!(data.starts_with(b"base|"));
        assert!(b"base|tail-bytes".starts_with(&data[..]));
    }

    #[test]
    fn same_seed_same_crash_outcome() {
        let run = |seed| {
            let be = SimBackend::new(seed);
            be.create_segment(0).unwrap();
            be.append(0, b"synced!").unwrap();
            be.sync(0).unwrap();
            be.append(0, b"0123456789abcdef").unwrap();
            be.crash();
            be.read_segment(0).unwrap()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn partial_fsync_advances_durability_partially() {
        let be = SimBackend::new(3).with_faults(FaultConfig {
            torn_tail: false,
            corrupt_tail: 0.0,
            partial_fsync: 1.0,
        });
        be.create_segment(0).unwrap();
        be.append(0, &[7u8; 64]).unwrap();
        be.sync(0).unwrap();
        assert!(be.durable_len(0).unwrap() < 64);
    }

    #[test]
    fn inject_corruption_flips_one_bit() {
        let be = SimBackend::new(0);
        be.create_segment(0).unwrap();
        be.append(0, b"abcd").unwrap();
        be.inject_corruption(0, 2);
        assert_eq!(be.read_segment(0).unwrap(), b"ab\x62d");
    }
}
