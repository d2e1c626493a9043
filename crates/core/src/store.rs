//! The per-process replicated event store.
//!
//! Gapless delivery replicates every ingested event at all available
//! processes (§4.1). [`EventStore`] is one process's replica: it
//! deduplicates (the ring revisits processes) and computes the events a
//! lagging successor's [`Holdings`] lack.

use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};

use rivulet_types::{Event, Holdings, PayloadArena, SensorId, Time};

/// A bounded, per-sensor-ordered store of replicated events. Sensors
/// live in a `BTreeMap`, so cross-sensor queries (diffs) iterate in
/// ascending sensor order and the wire encoding is deterministic
/// without a separate sort.
///
/// Each sensor's events are a `VecDeque` kept sorted by `seq`. Events
/// arrive almost in `seq` order and leave (cap eviction, garbage
/// collection) from the low end, so the common insert is a push at the
/// back and the common removal a pop at the front; an out-of-order
/// arrival is a search back from the newest entry (`locate`) and a
/// shift of the shorter side. Every query answers exactly as a
/// `seq`-keyed ordered map would, whatever the input order.
/// Garbage collection hands back a buffer it leaves under a quarter
/// full, so memory follows what is retained, not the largest burst.
#[derive(Debug)]
pub struct EventStore {
    sensors: BTreeMap<SensorId, VecDeque<Event>>,
    cap_per_sensor: usize,
    /// Blob payloads that pin a larger backing buffer (views into
    /// arrival frames) are re-homed into dense arena chunks on
    /// insert, so a retained 40-byte payload stops holding a kilobyte
    /// frame alive.
    arena: PayloadArena,
}

/// Where `seq` sits in a sensor's log, strictly increasing by `seq`:
/// `Ok` at the equal entry, `Err` at the insertion point — the answer of
/// `binary_search_by_key`. The search gallops back from the newest
/// entry (gaps of 1, 2, 4, …) and binary-searches the bracket it lands
/// in, so an entry `d` slots below the back costs O(log d) comparisons:
/// one for the common arrival above the back, a handful for a
/// duplicate copy of a recent event, wherever the deque's length.
fn locate(sorted: &VecDeque<Event>, seq: u64) -> Result<usize, usize> {
    // Every entry at `hi` or above has a key above `seq`.
    let mut hi = sorted.len();
    let mut gap = 1;
    let mut lo = loop {
        if hi == 0 {
            break 0;
        }
        let probe = hi.saturating_sub(gap);
        match sorted[probe].id.seq.cmp(&seq) {
            Ordering::Less => break probe + 1,
            Ordering::Equal => return Ok(probe),
            Ordering::Greater => {
                hi = probe;
                gap *= 2;
            }
        }
    };
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match sorted[mid].id.seq.cmp(&seq) {
            Ordering::Less => lo = mid + 1,
            Ordering::Equal => return Ok(mid),
            Ordering::Greater => hi = mid,
        }
    }
    Err(lo)
}

/// Capacity a deque keeps however far it drains, so a log that swings
/// below it (a polled sensor's short log) never reallocates.
const SLACK_FLOOR: usize = 1024;

/// Hands back most of a deque's buffer once garbage collection has left
/// it under a quarter full. A deque never shrinks by itself, so without
/// this a burst (a partition, a processing lag, up to the per-sensor
/// cap) would hold its peak size for the life of the process. A window
/// that stays above a quarter of the capacity it grew to is left alone.
fn release_slack(sorted: &mut VecDeque<Event>) {
    if sorted.capacity() > SLACK_FLOOR && sorted.len() < sorted.capacity() / 4 {
        sorted.shrink_to((sorted.len() * 2).max(SLACK_FLOOR));
    }
}

impl EventStore {
    /// Creates a store retaining at most `cap_per_sensor` events per
    /// sensor (oldest evicted first).
    ///
    /// # Panics
    ///
    /// Panics if `cap_per_sensor` is zero.
    #[must_use]
    pub fn new(cap_per_sensor: usize) -> Self {
        assert!(cap_per_sensor > 0, "store capacity must be positive");
        Self {
            sensors: BTreeMap::new(),
            cap_per_sensor,
            arena: PayloadArena::new(),
        }
    }

    /// Inserts `event`; returns `true` if it was new, `false` if it was
    /// a duplicate (in which case the store is unchanged). An event
    /// above the sensor's watermark is pushed at the back; anything
    /// else is one `locate`, which is also the duplicate check.
    pub fn insert(&mut self, mut event: Event) -> bool {
        let cap = self.cap_per_sensor;
        let per = self.sensors.entry(event.id.sensor).or_default();
        let Err(at) = locate(per, event.id.seq) else {
            return false;
        };
        // Re-home only *retained* payloads (duplicates bailed out
        // above): the copy happens once per stored event, off the
        // dedup fast path.
        event.payload = self.arena.rehome(event.payload);
        per.insert(at, event);
        while per.len() > cap {
            per.pop_front();
        }
        true
    }

    /// Computes the events emitted at or before `settled` that a peer
    /// holding `peer` lacks, ascending per sensor: for every sensor we
    /// know, what we store in the peer's holes and above its highest
    /// held seq. This is the paper's Bayou-style sync (§4.1); it fills
    /// the successor's holes and brings it up to our high-water mark,
    /// less the events too young to have finished their ring walk.
    #[must_use]
    pub fn diff_for(&self, peer: &Holdings, settled: Time) -> Vec<Event> {
        let mut out = Vec::new();
        for (sensor, per) in &self.sensors {
            for (first, last) in peer.lacks(*sensor) {
                let from = per.partition_point(|e| e.id.seq < first);
                let to = per.partition_point(|e| e.id.seq <= last);
                let lacked = per.range(from..to);
                out.extend(lacked.filter(|e| e.emitted_at <= settled).cloned());
            }
        }
        out
    }

    /// Removes events of `sensor` that are both `processed` **and** old
    /// (`emitted_at < emitted_before`), from the lowest `seq` up to the
    /// first that is not, returning the highest `seq` removed, if any.
    ///
    /// This is the garbage collection of the processed summary: once
    /// every process has learned (via keep-alives) that an active logic
    /// node processed an event, no failover replay needs it again. The
    /// walk stops at the first unprocessed event, so an event a hole of
    /// the summary names stays until it is processed. The age guard
    /// keeps recently processed events around so that a straggling
    /// duplicate copy (a late ring message, flood copy, or anti-entropy
    /// refill) still hits the store's duplicate check instead of being
    /// re-delivered to applications.
    ///
    /// Costs O(removed), independent of how many events are retained:
    /// events are popped from the low-`seq` end and the walk stops at
    /// the first one that is unprocessed or too young. Sensors stamp
    /// `emitted_at` with the clock while incrementing `seq`, so
    /// `emitted_at` is non-decreasing in `seq` and everything behind
    /// that first young event survives the age guard too. On a stream
    /// whose timestamps run backwards the walk still removes only events
    /// that are processed and old, just fewer of them: collection is
    /// delayed to a later call (or to the per-sensor cap), never
    /// widened.
    pub fn prune_processed(
        &mut self,
        sensor: SensorId,
        processed: impl Fn(u64) -> bool,
        emitted_before: Time,
    ) -> Option<u64> {
        let per = self.sensors.get_mut(&sensor)?;
        let mut removed = None;
        while let Some(first) = per.front() {
            if !processed(first.id.seq) || first.emitted_at >= emitted_before {
                break;
            }
            removed = per.pop_front().map(|e| e.id.seq);
        }
        release_slack(per);
        removed
    }

    /// Current number of retained events across all sensors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sensors.values().map(VecDeque::len).sum()
    }

    /// Whether the store holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
impl EventStore {
    fn events(&self, sensor: SensorId) -> Vec<Event> {
        let per = self.sensors.get(&sensor);
        per.map(|per| per.iter().cloned().collect())
            .unwrap_or_default()
    }

    pub(crate) fn retained_seqs(&self, sensor: SensorId) -> Vec<u64> {
        self.sensors
            .get(&sensor)
            .map(|per| per.iter().map(|e| e.id.seq).collect())
            .unwrap_or_default()
    }

    fn capacity(&self, sensor: SensorId) -> usize {
        self.sensors.get(&sensor).map_or(0, VecDeque::capacity)
    }
}

/// The store as it was before the per-sensor logs became deques: one
/// `seq`-keyed `BTreeMap` per sensor. Verbatim but for `diff_for`,
/// which reads a peer's [`Holdings`], for `prune_processed`, which
/// takes a "processed?" predicate and returns the highest `seq` it
/// removed, and for `events`, which lists a sensor's log; the counters
/// and lookups only tests read and the doc comments are left out. It
/// keeps two garbage collectors the deque store no longer has:
/// `prune_prefix`, the plain prefix removal
/// [`EventStore::prune_processed`] performs at `Time::MAX`, and the
/// pre-front-stop collector, a full scan of the processed range that
/// removes every event older than the cutoff. `proptests` checks the
/// deque store against it step by step.
#[cfg(test)]
mod reference {
    use std::collections::btree_map::Entry;
    use std::collections::BTreeMap;

    use rivulet_types::{Event, Holdings, PayloadArena, SensorId, Time};

    #[derive(Debug)]
    pub struct EventStore {
        sensors: BTreeMap<SensorId, BTreeMap<u64, Event>>,
        cap_per_sensor: usize,
        arena: PayloadArena,
    }

    impl EventStore {
        pub fn new(cap_per_sensor: usize) -> Self {
            assert!(cap_per_sensor > 0, "store capacity must be positive");
            Self {
                sensors: BTreeMap::new(),
                cap_per_sensor,
                arena: PayloadArena::new(),
            }
        }

        pub fn insert(&mut self, mut event: Event) -> bool {
            let cap = self.cap_per_sensor;
            let per = self.sensors.entry(event.id.sensor).or_default();
            let Entry::Vacant(slot) = per.entry(event.id.seq) else {
                return false;
            };
            event.payload = self.arena.rehome(event.payload);
            slot.insert(event);
            while per.len() > cap {
                per.pop_first();
            }
            true
        }

        pub fn watermarks(&self) -> Vec<(SensorId, u64)> {
            self.sensors
                .iter()
                .filter_map(|(s, m)| m.keys().next_back().map(|q| (*s, *q)))
                .collect()
        }

        pub fn events(&self, sensor: SensorId) -> Vec<Event> {
            self.sensors
                .get(&sensor)
                .map(|per| per.values().cloned().collect())
                .unwrap_or_default()
        }

        pub fn diff_for(&self, peer: &Holdings, settled: Time) -> Vec<Event> {
            let mut out = Vec::new();
            for (sensor, per) in &self.sensors {
                for (first, last) in peer.lacks(*sensor) {
                    let lacked = per.range(first..=last).map(|(_, e)| e);
                    out.extend(lacked.filter(|e| e.emitted_at <= settled).cloned());
                }
            }
            out
        }

        pub fn prune_prefix(&mut self, sensor: SensorId, upto: u64) -> usize {
            let Some(per) = self.sensors.get_mut(&sensor) else {
                return 0;
            };
            if upto == u64::MAX {
                let n = per.len();
                per.clear();
                n
            } else {
                let keep = per.split_off(&(upto + 1));
                let n = per.len();
                *per = keep;
                n
            }
        }

        pub fn prune_processed(
            &mut self,
            sensor: SensorId,
            processed: impl Fn(u64) -> bool,
            emitted_before: Time,
        ) -> Option<u64> {
            let per = self.sensors.get_mut(&sensor)?;
            let mut removed = None;
            while let Some(first) = per.first_entry() {
                if !processed(*first.key()) || first.get().emitted_at >= emitted_before {
                    break;
                }
                removed = Some(*first.key());
                first.remove();
            }
            removed
        }

        pub fn prune_processed_full_scan(
            &mut self,
            sensor: SensorId,
            upto: u64,
            emitted_before: Time,
        ) -> usize {
            let Some(per) = self.sensors.get_mut(&sensor) else {
                return 0;
            };
            let doomed: Vec<u64> = per
                .range(..=upto)
                .filter(|(_, e)| e.emitted_at < emitted_before)
                .map(|(seq, _)| *seq)
                .collect();
            for seq in &doomed {
                per.remove(seq);
            }
            doomed.len()
        }

        pub fn len(&self) -> usize {
            self.sensors.values().map(BTreeMap::len).sum()
        }

        pub fn retained_seqs(&self, sensor: SensorId) -> Vec<u64> {
            self.sensors
                .get(&sensor)
                .map(|per| per.keys().copied().collect())
                .unwrap_or_default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rivulet_types::{EventId, EventKind, Time};

    fn ev(sensor: u32, seq: u64) -> Event {
        Event::new(
            EventId::new(SensorId(sensor), seq),
            EventKind::Motion,
            Time::from_millis(seq),
        )
    }

    /// A peer holding exactly `ids`, as `(sensor, seq)`.
    fn peer(ids: &[(u32, u64)]) -> Holdings {
        let ids = ids.iter().map(|&(s, q)| EventId::new(SensorId(s), q));
        ids.collect()
    }

    /// How many events one collection call removed.
    fn pruned(s: &mut EventStore, sensor: u32, upto: u64, before: Time) -> usize {
        let len = s.len();
        s.prune_processed(SensorId(sensor), |seq| seq <= upto, before);
        len - s.len()
    }

    #[test]
    fn insert_dedups() {
        let mut s = EventStore::new(10);
        assert!(s.insert(ev(1, 0)));
        assert!(!s.insert(ev(1, 0)), "duplicate rejected");
        assert_eq!(s.retained_seqs(SensorId(1)), vec![0]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn diff_for_covers_unknown_sensors_and_lagging_peers() {
        let mut s = EventStore::new(10);
        s.insert(ev(1, 0));
        s.insert(ev(1, 1));
        s.insert(ev(2, 4));
        // Peer knows sensor 1 up to 0, nothing of sensor 2.
        let diff = s.diff_for(&peer(&[(1, 0)]), Time::MAX);
        let ids: Vec<(u32, u64)> = diff
            .iter()
            .map(|e| (e.id.sensor.as_u32(), e.id.seq))
            .collect();
        assert_eq!(ids, vec![(1, 1), (2, 4)]);
        // Peer caught up → empty diff, whatever holes we cannot fill.
        assert!(s
            .diff_for(&peer(&[(1, 0), (1, 1), (2, 4)]), Time::MAX)
            .is_empty());
    }

    #[test]
    fn diff_for_fills_the_peers_holes() {
        let mut s = EventStore::new(20);
        for seq in 0..10 {
            s.insert(ev(1, seq));
        }
        let diff = s.diff_for(&peer(&[(1, 1), (1, 4), (1, 5), (1, 9)]), Time::MAX);
        let seqs: Vec<u64> = diff.iter().map(|e| e.id.seq).collect();
        assert_eq!(seqs, vec![0, 2, 3, 6, 7, 8]);
    }

    #[test]
    fn diff_for_ships_nothing_emitted_after_the_settled_instant() {
        let mut s = EventStore::new(20);
        for seq in 0..10 {
            s.insert(ev(1, seq));
        }
        let settled = ev(1, 6).emitted_at;
        let diff = s.diff_for(&peer(&[(1, 1), (1, 4)]), settled);
        let seqs: Vec<u64> = diff.iter().map(|e| e.id.seq).collect();
        assert_eq!(seqs, vec![0, 2, 3, 5, 6]);
    }

    #[test]
    fn diff_for_streams_in_sensor_order() {
        let mut s = EventStore::new(10);
        // Insert sensors out of order; output must be sensor-ascending.
        for sensor in [7u32, 2, 5, 1] {
            s.insert(ev(sensor, 0));
            s.insert(ev(sensor, 1));
        }
        let diff = s.diff_for(&peer(&[(5, 0)]), Time::MAX);
        let ids: Vec<(u32, u64)> = diff
            .iter()
            .map(|e| (e.id.sensor.as_u32(), e.id.seq))
            .collect();
        assert_eq!(
            ids,
            vec![(1, 0), (1, 1), (2, 0), (2, 1), (5, 1), (7, 0), (7, 1)]
        );
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut s = EventStore::new(3);
        for seq in 0..5 {
            s.insert(ev(1, seq));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.retained_seqs(SensorId(1)), vec![2, 3, 4]);
    }

    #[test]
    fn prune_processed_removes_only_the_processed_prefix() {
        let mut s = EventStore::new(100);
        for seq in 0..10 {
            s.insert(ev(1, seq));
        }
        s.insert(ev(2, 3));
        let removed = s.prune_processed(SensorId(1), |seq| seq <= 4, Time::MAX);
        assert_eq!(removed, Some(4), "seqs 0..=4 removed");
        assert_eq!(s.retained_seqs(SensorId(1)), vec![5, 6, 7, 8, 9]);
        // Other sensors untouched.
        assert_eq!(s.retained_seqs(SensorId(2)), vec![3]);
        // Pruning an unknown sensor is a no-op.
        assert_eq!(
            s.prune_processed(SensorId(9), |seq| seq <= 100, Time::MAX),
            None
        );
        // Re-pruning is idempotent.
        assert_eq!(
            s.prune_processed(SensorId(1), |seq| seq <= 4, Time::MAX),
            None
        );
    }

    #[test]
    fn prune_processed_age_guards() {
        let mut s = EventStore::new(100);
        for seq in 0..10 {
            s.insert(ev(1, seq)); // emitted at seq milliseconds
        }
        // Processed through 9, but only events emitted before t=5ms are
        // old enough to collect.
        assert_eq!(pruned(&mut s, 1, 9, Time::from_millis(5)), 5);
        assert_eq!(
            s.retained_seqs(SensorId(1)),
            vec![5, 6, 7, 8, 9],
            "recent events retained"
        );
        // Unprocessed events are never collected regardless of age.
        assert_eq!(pruned(&mut s, 1, 6, Time::MAX), 2, "only seqs 5 and 6");
        assert_eq!(s.retained_seqs(SensorId(1)), vec![7, 8, 9]);
    }

    #[test]
    fn prune_processed_matches_full_scan_on_monotone_stream() {
        // Three sensors, bursts sharing a timestamp, holes in `seq`,
        // and a GC cursor that advances like `tick` does.
        let mut new = EventStore::new(10_000);
        let mut reference = reference::EventStore::new(10_000);
        for sensor in 1..=3u32 {
            for seq in (0..600u64).filter(|q| q % 7 != 3) {
                let e = Event::new(
                    EventId::new(SensorId(sensor), seq),
                    EventKind::Motion,
                    Time::from_millis(seq / 4 * u64::from(sensor)),
                );
                assert!(new.insert(e.clone()));
                assert!(reference.insert(e));
            }
        }
        let total = new.len();
        for step in 0..40u64 {
            for sensor in 1..=3u32 {
                let upto = step * 17;
                let cutoff = Time::from_millis(step * 9);
                assert_eq!(
                    pruned(&mut new, sensor, upto, cutoff),
                    reference.prune_processed_full_scan(SensorId(sensor), upto, cutoff),
                    "step {step} sensor {sensor}"
                );
                assert_eq!(
                    new.retained_seqs(SensorId(sensor)),
                    reference.retained_seqs(SensorId(sensor))
                );
            }
            assert_eq!(new.len(), reference.len());
        }
        assert!(new.len() < total && !new.is_empty(), "partial collection");
        assert_eq!(
            new.prune_processed(SensorId(9), |seq| seq <= 10, Time::MAX),
            None
        );
    }

    #[test]
    fn prune_processed_stops_at_first_young_event() {
        // seq 1 carries a timestamp from the future of seq 2..: the
        // front-stop keeps everything behind it (the full scan would
        // take 2 and 3) until the cutoff passes it.
        let mut s = EventStore::new(100);
        for (seq, ms) in [(0u64, 1u64), (1, 50), (2, 3), (3, 4), (4, 60)] {
            s.insert(Event::new(
                EventId::new(SensorId(1), seq),
                EventKind::Motion,
                Time::from_millis(ms),
            ));
        }
        assert_eq!(pruned(&mut s, 1, 4, Time::from_millis(10)), 1);
        assert_eq!(s.retained_seqs(SensorId(1)), vec![1, 2, 3, 4]);
        // Delayed, not lost: once seq 1 ages out the rest follow.
        assert_eq!(
            s.prune_processed(SensorId(1), |seq| seq <= 4, Time::from_millis(55)),
            Some(3)
        );
        assert_eq!(s.retained_seqs(SensorId(1)), vec![4]);
    }

    #[test]
    fn prune_at_u64_max_clears_sensor() {
        let mut s = EventStore::new(100);
        s.insert(Event::new(
            EventId::new(SensorId(1), u64::MAX),
            EventKind::Motion,
            Time::ZERO,
        ));
        s.insert(ev(1, 0));
        assert_eq!(
            s.prune_processed(SensorId(1), |_| true, Time::MAX),
            Some(u64::MAX)
        );
        assert!(s.is_empty());
    }

    #[test]
    fn collection_hands_back_a_drained_burst() {
        let sensor = SensorId(1);
        let mut s = EventStore::new(100_000);
        for seq in 0..20_000 {
            s.insert(ev(1, seq));
        }
        let burst = s.capacity(sensor);
        // Collection that leaves the log over a quarter full keeps it.
        assert_eq!(pruned(&mut s, 1, 9_999, Time::MAX), 10_000);
        assert_eq!(s.capacity(sensor), burst);
        // Under a quarter full, most of the buffer goes back.
        assert_eq!(pruned(&mut s, 1, 19_899, Time::MAX), 9_900);
        assert_eq!(s.len(), 100);
        assert!(s.capacity(sensor) < burst / 4);
        assert_eq!(s.capacity(sensor), SLACK_FLOOR);
        // A swing below the floor neither shrinks nor regrows it.
        for seq in 20_000..20_900 {
            s.insert(ev(1, seq));
        }
        assert_eq!(pruned(&mut s, 1, u64::MAX, Time::MAX), 1_000);
        assert_eq!(s.capacity(sensor), SLACK_FLOOR);
    }

    fn top(sensor: u32) -> Event {
        Event::new(
            EventId::new(SensorId(sensor), u64::MAX),
            EventKind::Motion,
            Time::ZERO,
        )
    }

    /// No summary holds `u64::MAX`, so an event there is lacked by every
    /// peer: a sync ships it each time, and nothing else of its sensor.
    #[test]
    fn an_event_at_u64_max_is_lacked_by_every_peer() {
        let mut s = EventStore::new(100);
        s.insert(top(1));
        s.insert(ev(1, 7));
        s.insert(ev(2, 7));
        let peer = peer(&[(1, u64::MAX), (1, 7), (2, 7)]);
        assert_eq!(s.diff_for(&peer, Time::MAX), vec![top(1)]);
    }

    #[test]
    #[should_panic(expected = "store capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = EventStore::new(0);
    }

    #[test]
    fn arena_rehomes_frame_pinning_payloads() {
        use bytes::Bytes;
        use rivulet_types::Payload;
        let mut s = EventStore::new(10);
        // A payload sliced out of a big "frame" (larger than an arena
        // chunk, so the chunk's own backing is the smaller home) pins
        // the whole frame until re-homed.
        let frame = Bytes::from(vec![3u8; 128 * 1024]);
        let view = frame.slice_ref(&frame[10..50]);
        let mut e = ev(1, 0);
        e.payload = Payload::Blob(view.clone());
        assert!(s.insert(e));
        let stored = &s.events(SensorId(1))[0];
        let Payload::Blob(b) = &stored.payload else {
            panic!("blob stays blob");
        };
        assert_eq!(*b, view, "payload bytes preserved");
        assert!(
            b.backing_len() < frame.len(),
            "stored payload no longer pins the arrival frame"
        );
        // A duplicate is rejected before any arena work: the next new
        // payload is copied in right behind the first one.
        let mut dup = ev(1, 0);
        dup.payload = Payload::Blob(frame.slice_ref(&frame[10..50]));
        assert!(!s.insert(dup));
        let mut next = ev(1, 1);
        next.payload = Payload::Blob(frame.slice_ref(&frame[60..70]));
        assert!(s.insert(next));
        let Payload::Blob(n) = &s.events(SensorId(1))[1].payload else {
            panic!("blob stays blob");
        };
        assert_eq!(
            n.as_ref().as_ptr() as usize,
            b.as_ref().as_ptr() as usize + b.len(),
            "no copy for duplicates"
        );
    }

    #[test]
    fn empty_store_reports_empty() {
        let s = EventStore::new(1);
        assert!(s.is_empty());
        assert!(s.diff_for(&Holdings::default(), Time::MAX).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rivulet_types::{EventId, EventKind, Time};

    fn ev(sensor: u32, seq: u64) -> Event {
        Event::new(
            EventId::new(SensorId(sensor), seq),
            EventKind::Motion,
            Time::from_millis(seq),
        )
    }

    /// How many events of sensor 1 one collection call removed.
    fn pruned(s: &mut EventStore, upto: u64, before: Time) -> usize {
        let len = s.len();
        s.prune_processed(SensorId(1), |seq| seq <= upto, before);
        len - s.len()
    }

    /// Each sensor's highest stored `seq`, ascending by sensor.
    fn wms(s: &EventStore) -> Vec<(SensorId, u64)> {
        let highs = s
            .sensors
            .iter()
            .map(|(s, per)| per.back().map(|e| (*s, e.id.seq)));
        highs.flatten().collect()
    }

    proptest! {
        /// A sync fills every hole the peer reports: after the peer
        /// takes `diff_for` of its holdings, it holds every event we
        /// store, and the diff carried nothing it already held (the
        /// Bayou guarantee the ring sync relies on, holes included).
        #[test]
        fn a_sync_fills_every_hole_the_peer_reports(
            ours in proptest::collection::vec((0u32..4, 0u64..40), 0..80),
            theirs in proptest::collection::vec((0u32..4, 0u64..40), 0..80),
        ) {
            let mut a = EventStore::new(1000);
            let mut b = EventStore::new(1000);
            for (s, q) in ours {
                a.insert(ev(s, q));
            }
            // The peer holds a subset of globally emitted events, and
            // says so in its holdings.
            let mut held = Holdings::default();
            for &(s, q) in &theirs {
                b.insert(ev(s, q));
                held.note(ev(s, q).id);
            }
            for e in a.diff_for(&held, Time::MAX) {
                prop_assert!(!held.holds(e.id), "{} shipped, already held", e.id);
                prop_assert!(b.insert(e));
            }
            for sensor in (0..4).map(SensorId) {
                let ours = a.events(sensor);
                let theirs = b.events(sensor);
                prop_assert!(ours.iter().all(|e| theirs.contains(e)), "{} left a hole", sensor);
            }
        }

        /// `locate` answers exactly as `binary_search_by_key` on every
        /// strictly increasing deque, empty ones and ones whose ring
        /// buffer wraps (`rotated` pops at the front, each followed by
        /// a push at the back) included, for every probe from below
        /// the front, through every entry and gap, to above the back.
        #[test]
        fn locate_matches_binary_search(
            first in 0u64..3,
            gaps in proptest::collection::vec(1u64..4, 0..200),
            rotated in 0usize..200,
        ) {
            let keys: Vec<u64> = gaps
                .iter()
                .scan(first, |key, gap| {
                    *key += gap;
                    Some(*key)
                })
                .collect();
            let len = keys.len().saturating_sub(rotated);
            let mut sorted: VecDeque<Event> = VecDeque::with_capacity(len);
            sorted.extend(keys[..len].iter().map(|&q| ev(1, q)));
            for &key in &keys[len..] {
                if len > 0 {
                    sorted.pop_front();
                    sorted.push_back(ev(1, key));
                }
            }
            let above_back = sorted.back().map_or(1, |back| back.id.seq + 2);
            for seq in 0..=above_back {
                prop_assert_eq!(
                    locate(&sorted, seq),
                    sorted.binary_search_by_key(&seq, |e| e.id.seq),
                    "seq {} in {:?}",
                    seq,
                    sorted.iter().map(|e| e.id.seq).collect::<Vec<_>>()
                );
            }
        }

        /// Insert order never affects the retained set (same events,
        /// any order, same store contents).
        #[test]
        fn insert_order_irrelevant(mut seqs in proptest::collection::vec(0u64..100, 1..50)) {
            let mut a = EventStore::new(1000);
            for &q in &seqs {
                a.insert(ev(1, q));
            }
            seqs.reverse();
            let mut b = EventStore::new(1000);
            for &q in &seqs {
                b.insert(ev(1, q));
            }
            prop_assert_eq!(wms(&a), wms(&b));
            prop_assert_eq!(a.len(), b.len());
            let ia: Vec<u64> = a.events(SensorId(1)).iter().map(|e| e.id.seq).collect();
            let ib: Vec<u64> = b.events(SensorId(1)).iter().map(|e| e.id.seq).collect();
            prop_assert_eq!(ia, ib);
        }

        /// On a stream whose `emitted_at` never decreases with `seq`
        /// (what every shipped sensor produces) the front-stop GC is
        /// indistinguishable from the full scan: same counts and same
        /// survivors, call after call.
        #[test]
        fn prune_processed_equals_full_scan_when_timestamps_are_monotone(
            steps in proptest::collection::vec((0u64..3, 0u64..4), 1..120),
            calls in proptest::collection::vec((0u64..200, 0u64..400), 1..12),
        ) {
            let mut new = EventStore::new(1000);
            let mut reference = reference::EventStore::new(1000);
            let (mut seq, mut at) = (0u64, 0u64);
            for (dseq, dt) in steps {
                seq += dseq + 1; // holes allowed
                at += dt; // repeats allowed, never backwards
                let e = Event::new(
                    EventId::new(SensorId(1), seq),
                    EventKind::Motion,
                    Time::from_millis(at),
                );
                new.insert(e.clone());
                reference.insert(e);
            }
            for (upto, cutoff) in calls {
                let cutoff = Time::from_millis(cutoff);
                prop_assert_eq!(
                    pruned(&mut new, upto, cutoff),
                    reference.prune_processed_full_scan(SensorId(1), upto, cutoff)
                );
                prop_assert_eq!(
                    new.retained_seqs(SensorId(1)),
                    reference.retained_seqs(SensorId(1))
                );
            }
        }

        /// With arbitrary timestamps the front-stop GC removes a prefix
        /// of the stored sequence numbers, and only events the full
        /// scan would also remove: it may delay collection, it never
        /// over-collects.
        #[test]
        fn prune_processed_is_a_prefix_subset_for_arbitrary_timestamps(
            events in proptest::collection::vec((0u64..80, 0u64..100), 1..80),
            upto in 0u64..90,
            cutoff in 0u64..110,
        ) {
            let mut new = EventStore::new(1000);
            let mut reference = reference::EventStore::new(1000);
            for (seq, at) in events {
                let e = Event::new(
                    EventId::new(SensorId(1), seq),
                    EventKind::Motion,
                    Time::from_millis(at),
                );
                new.insert(e.clone());
                reference.insert(e);
            }
            let before = new.retained_seqs(SensorId(1));
            let cutoff = Time::from_millis(cutoff);
            let removed = pruned(&mut new, upto, cutoff);
            let full = reference.prune_processed_full_scan(SensorId(1), upto, cutoff);
            prop_assert!(removed <= full);
            let after = new.retained_seqs(SensorId(1));
            prop_assert_eq!(&before[removed..], &after[..], "removed set is a seq-prefix");
            let reference_after = reference.retained_seqs(SensorId(1));
            for survivor in &reference_after {
                prop_assert!(after.contains(survivor), "over-collected seq {survivor}");
            }
            prop_assert_eq!(new.len(), before.len() - removed);
        }

        /// The deque store answers every call exactly as the B-tree
        /// store does, after every step: inserts in any order with
        /// duplicates, holes and `seq`s at both ends of the range,
        /// count caps small enough to evict, garbage collection (at
        /// `Time::MAX` against the reference's plain prefix removal)
        /// and diffs against arbitrary peer watermarks.
        #[test]
        fn deque_store_matches_the_btree_reference(
            cap in 1usize..=8,
            ops in proptest::collection::vec(store_op(), 1..120),
        ) {
            let mut new = EventStore::new(cap);
            let mut reference = reference::EventStore::new(cap);
            for op in ops {
                match op {
                    StoreOp::Insert(sensor, seq, at) => {
                        let e = Event::new(
                            EventId::new(SensorId(sensor), seq),
                            EventKind::Motion,
                            Time::from_millis(at),
                        );
                        prop_assert_eq!(new.insert(e.clone()), reference.insert(e));
                    }
                    StoreOp::PruneProcessed(sensor, upto, cutoff) => {
                        let cutoff = Time::from_millis(cutoff);
                        prop_assert_eq!(
                            new.prune_processed(SensorId(sensor), |seq| seq <= upto, cutoff),
                            reference.prune_processed(SensorId(sensor), |seq| seq <= upto, cutoff)
                        );
                    }
                    StoreOp::PrunePrefix(sensor, upto) => {
                        let len = new.len();
                        new.prune_processed(SensorId(sensor), |seq| seq <= upto, Time::MAX);
                        prop_assert_eq!(len - new.len(), reference.prune_prefix(SensorId(sensor), upto));
                    }
                    StoreOp::Diff(peer, settled) => {
                        let peer: Holdings =
                            peer.into_iter().map(|(s, q)| EventId::new(SensorId(s), q)).collect();
                        let settled = Time::from_millis(settled);
                        prop_assert_eq!(new.diff_for(&peer, settled), reference.diff_for(&peer, settled));
                    }
                }
                prop_assert_eq!(wms(&new), reference.watermarks());
                prop_assert_eq!(new.len(), reference.len());
                for sensor in (0..=SENSORS).map(SensorId) {
                    prop_assert_eq!(new.events(sensor), reference.events(sensor));
                }
            }
        }
    }

    /// Sensors the differential test writes to (one more is probed).
    const SENSORS: u32 = 3;

    #[derive(Debug, Clone)]
    enum StoreOp {
        /// `(sensor, seq, emitted_at ms)`.
        Insert(u32, u64, u64),
        /// `(sensor, upto, cutoff ms)`.
        PruneProcessed(u32, u64, u64),
        /// `(sensor, upto)`: collection of the whole processed prefix.
        PrunePrefix(u32, u64),
        /// The events a peer holds, noted in this order, and the
        /// settled instant in milliseconds.
        Diff(Vec<(u32, u64)>, u64),
    }

    /// Sequence numbers near both ends of the range.
    fn seq() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..24, (u64::MAX - 8)..=u64::MAX]
    }

    /// Six inserts to each call of the other three kinds.
    fn store_op() -> impl Strategy<Value = StoreOp> {
        let peer = proptest::collection::vec((0..=SENSORS, seq()), 0..6);
        (0u8..9, 0..SENSORS, seq(), 0u64..60, peer).prop_map(|(kind, s, q, at, peer)| match kind {
            0..=5 => StoreOp::Insert(s, q, at),
            6 => StoreOp::PruneProcessed(s, q, at),
            7 => StoreOp::PrunePrefix(s, q),
            _ => StoreOp::Diff(peer, at),
        })
    }
}
