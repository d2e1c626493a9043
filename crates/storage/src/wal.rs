//! Segmented write-ahead log with group commit, checkpoints, and
//! prefix compaction.
//!
//! The WAL is the durability layer under Gapless delivery: a process
//! appends every newly-stored event *before* acking it to the ring or
//! delivering it to applications, so a crash can never lose an event
//! the rest of the home believes this replica holds.
//!
//! # Group commit
//!
//! Frames accumulate in an in-memory buffer and reach the backend in
//! one `append` + `sync` pair per flush. Appending never flushes: the
//! caller decides every flush with [`Wal::flush`]. In a running home
//! that caller is the process runtime's durability gate, which flushes
//! on the [`FlushPolicy`] beat and whenever an action waits on an
//! append; a raw user of the log flushes every k appends to trade the
//! loss window against fsyncs. Checkpoints and ledger entries flush at
//! once.
//!
//! # Recovery
//!
//! [`Wal::open`] scans segments in ascending id order and replays
//! frames until the first torn or corrupt one. Everything before that
//! point is the *durable prefix* and is returned in [`Recovered`];
//! everything after it — the rest of that segment and any later
//! segments — is discarded (truncated/deleted) so subsequent appends
//! continue a clean log.
//!
//! # Compaction
//!
//! A [`Checkpoint`] records which events were processed, as a
//! possession summary with holes. A segment older than the newest
//! checkpoint can never be needed again once, for each sensor, the
//! summary lacks no `seq` at or below the segment's highest: then
//! [`Wal::compact`] deletes it. A hole keeps its segment until the hole
//! is processed or forgiven. Compaction only removes a contiguous
//! prefix, so the log on disk always remains a suffix of the logical
//! log.

use std::collections::BTreeMap;
use std::sync::Arc;

use rivulet_obs::Recorder;
use rivulet_types::wire::WireWriter;
use rivulet_types::{Duration, Event, Holdings, SensorId};

use crate::backend::{Result, SegmentId, StorageBackend};
use crate::ledger::LedgerEntry;
use crate::record::{
    decode_frame, write_checkpoint_frame, write_event_frame, write_ledger_frame, Checkpoint,
    WalRecord,
};

/// When a process's durability gate flushes the log and releases what
/// waits on it.
///
/// The beat is not the only commit clock: an append an action waits on
/// (an ingest, or a delivery to an app running on the process) starts a
/// flush at once when the disk is idle. A beat shorter than one sync is
/// how a caller asks for flushing per event. [`Wal`] itself never reads
/// the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// The owner arms a timer with this period and flushes when it
    /// fires. A gate releases on this beat whatever is durable by then,
    /// so the process's sends leave together, one frame per peer. The
    /// period must be above zero.
    EveryInterval(Duration),
}

/// Tuning knobs for a [`Wal`].
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Group-commit policy of the gate over the log.
    pub flush_policy: FlushPolicy,
    /// Rotate to a fresh segment once the tail would exceed this size.
    pub segment_max_bytes: usize,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self {
            flush_policy: FlushPolicy::EveryInterval(Duration::from_millis(3)),
            segment_max_bytes: 256 * 1024,
        }
    }
}

/// What [`Wal::open`] reconstructed from the durable prefix.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Every event in the durable prefix, in append order.
    pub events: Vec<Event>,
    /// The newest checkpoint in the durable prefix, if any.
    pub checkpoint: Option<Checkpoint>,
    /// Every execution-integrity ledger entry in the durable prefix,
    /// in append (= chain) order — the input to
    /// [`crate::ledger::LedgerVerifier::verify`].
    pub ledger: Vec<LedgerEntry>,
    /// Bytes past the durable prefix that were discarded (torn tail,
    /// corrupt frames, and any segments beyond the first bad frame).
    pub dropped_bytes: usize,
}

/// Highest sequence per sensor, kept sorted by sensor. A home has a
/// handful of sensors, so a search of a short vector beats hashing, and
/// raising or merging marks allocates only for a sensor not seen
/// before.
#[derive(Debug, Default, Clone)]
struct SeqMarks(Vec<(SensorId, u64)>);

impl SeqMarks {
    /// Raises `sensor`'s mark to `seq`; marks never move back.
    fn raise(&mut self, sensor: SensorId, seq: u64) {
        match self.0.binary_search_by_key(&sensor, |(s, _)| *s) {
            Ok(i) => self.0[i].1 = self.0[i].1.max(seq),
            Err(i) => self.0.insert(i, (sensor, seq)),
        }
    }

    /// Raises every mark of `self` to `other`'s and empties `other`,
    /// keeping its capacity.
    fn drain_into(&mut self, other: &mut SeqMarks) {
        for (sensor, seq) in other.0.drain(..) {
            self.raise(sensor, seq);
        }
    }
}

/// Per-segment summary used to decide compaction eligibility.
#[derive(Debug, Default, Clone)]
struct SegmentIndex {
    /// Highest event sequence per sensor flushed into the segment.
    max_seq: SeqMarks,
    /// Whether the segment holds ledger entries. Such segments are
    /// never compacted: the hash chain must survive in full so a
    /// recovered node can re-verify it from the genesis hash.
    has_ledger: bool,
}

/// A segmented write-ahead log over a [`StorageBackend`].
#[derive(Debug)]
pub struct Wal {
    backend: Arc<dyn StorageBackend>,
    options: WalOptions,
    tail: SegmentId,
    tail_bytes: usize,
    /// The batch awaiting the next flush: whole frames, each encoded
    /// in place by an append. Cleared, never dropped, by a flush, so
    /// it stops allocating once it has reached the largest batch.
    pending: WireWriter,
    pending_events: usize,
    pending_index: SegmentIndex,
    index: BTreeMap<SegmentId, SegmentIndex>,
    latest_checkpoint_segment: Option<SegmentId>,
    /// Where `wal.*` and `ledger.appends` are counted (disabled until
    /// [`Wal::attach_recorder`]).
    obs: Recorder,
}

impl Wal {
    /// Opens the log on `backend`, recovering the durable prefix and
    /// preparing the tail segment for new appends.
    ///
    /// # Errors
    ///
    /// Propagates backend failures.
    pub fn open(
        backend: Arc<dyn StorageBackend>,
        options: WalOptions,
    ) -> Result<(Self, Recovered)> {
        let segments = backend.list_segments()?;
        let mut recovered = Recovered::default();
        let mut index: BTreeMap<SegmentId, SegmentIndex> = BTreeMap::new();
        let mut latest_checkpoint_segment = None;
        let mut tail: Option<(SegmentId, usize)> = None;
        let mut stop: Option<(SegmentId, usize)> = None;

        'scan: for &seg in &segments {
            let data = backend.read_segment(seg)?;
            let entry = index.entry(seg).or_default();
            let mut offset = 0;
            while offset < data.len() {
                match decode_frame(&data[offset..]) {
                    Ok((record, used)) => {
                        match record {
                            WalRecord::Event(event) => {
                                entry.max_seq.raise(event.id.sensor, event.id.seq);
                                recovered.events.push(event);
                            }
                            WalRecord::Checkpoint(cp) => {
                                latest_checkpoint_segment = Some(seg);
                                recovered.checkpoint = Some(cp);
                            }
                            WalRecord::Ledger(ledger_entry) => {
                                entry.has_ledger = true;
                                recovered.ledger.push(ledger_entry);
                            }
                        }
                        offset += used;
                    }
                    Err(_) => {
                        recovered.dropped_bytes += data.len() - offset;
                        stop = Some((seg, offset));
                        break 'scan;
                    }
                }
            }
            tail = Some((seg, data.len()));
        }

        if let Some((bad_seg, valid_len)) = stop {
            // The durable prefix ends inside `bad_seg`: cut its tail
            // and discard everything after it.
            backend.truncate_segment(bad_seg, valid_len as u64)?;
            for &seg in segments.iter().filter(|&&s| s > bad_seg) {
                recovered.dropped_bytes += backend.read_segment(seg)?.len();
                backend.delete_segment(seg)?;
                index.remove(&seg);
            }
            tail = Some((bad_seg, valid_len));
        }

        let (tail, tail_bytes) = match tail {
            Some(t) => t,
            None => {
                backend.create_segment(0)?;
                (0, 0)
            }
        };
        index.entry(tail).or_default();

        Ok((
            Self {
                backend,
                options,
                tail,
                tail_bytes,
                pending: WireWriter::new(),
                pending_events: 0,
                pending_index: SegmentIndex::default(),
                index,
                latest_checkpoint_segment,
                obs: Recorder::default(),
            },
            recovered,
        ))
    }

    /// Attaches the unified observability recorder; subsequent
    /// appends/flushes/checkpoints/compactions are mirrored into it as
    /// `wal.*` metrics. The process runtime calls this right after
    /// [`Wal::open`] (the recorder comes from the driver, which the WAL
    /// cannot see at open time).
    pub fn attach_recorder(&mut self, obs: Recorder) {
        self.obs = obs;
    }

    /// Buffers `event` for the next flush; it is **not durable** until
    /// [`Wal::flush`].
    ///
    /// # Errors
    ///
    /// None: appending only buffers. The `Result` lets a caller treat
    /// every write to the log alike.
    pub fn append_event(&mut self, event: &Event) -> Result<()> {
        write_event_frame(&mut self.pending, event);
        self.pending_events += 1;
        self.pending_index
            .max_seq
            .raise(event.id.sensor, event.id.seq);
        self.obs.inc("wal.appends");
        Ok(())
    }

    /// Appends a checkpoint and flushes immediately: a checkpoint is
    /// only useful durable, and compaction keys off its position.
    ///
    /// # Errors
    ///
    /// Propagates backend failures.
    pub fn append_checkpoint(&mut self, checkpoint: &Checkpoint) -> Result<()> {
        write_checkpoint_frame(&mut self.pending, checkpoint);
        self.flush()?;
        self.latest_checkpoint_segment = Some(self.tail);
        self.obs.inc("wal.checkpoints");
        Ok(())
    }

    /// Appends an execution-integrity ledger entry and flushes
    /// immediately: routine transitions are write-ahead — the
    /// coordinator must not send the transition's protocol frames until
    /// the chained record is durable, or a crash could fire actuators
    /// with no auditable cause.
    ///
    /// # Errors
    ///
    /// Propagates backend failures.
    pub fn append_ledger(&mut self, entry: &LedgerEntry) -> Result<()> {
        write_ledger_frame(&mut self.pending, entry);
        self.pending_index.has_ledger = true;
        self.flush()?;
        self.obs.inc("ledger.appends");
        Ok(())
    }

    /// Pushes all buffered frames to the backend and fsyncs, rotating
    /// to a new segment first when the tail is full. No-op when
    /// nothing is pending.
    ///
    /// # Errors
    ///
    /// Propagates backend failures.
    pub fn flush(&mut self) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        if self.tail_bytes > 0
            && self.tail_bytes + self.pending.len() > self.options.segment_max_bytes
        {
            self.tail += 1;
            self.backend.create_segment(self.tail)?;
            self.tail_bytes = 0;
            self.index.insert(self.tail, SegmentIndex::default());
            self.obs.inc("wal.segments_created");
        }
        self.backend.append(self.tail, self.pending.as_slice())?;
        self.backend.sync(self.tail)?;
        self.tail_bytes += self.pending.len();
        self.obs.inc("wal.flushes");
        self.obs.add("wal.bytes_flushed", self.pending.len() as u64);
        self.obs
            .observe("wal.flush_bytes", self.pending.len() as u64);
        let tail_index = self.index.entry(self.tail).or_default();
        tail_index
            .max_seq
            .drain_into(&mut self.pending_index.max_seq);
        tail_index.has_ledger |= self.pending_index.has_ledger;
        self.pending_index.has_ledger = false;
        self.pending.clear();
        self.pending_events = 0;
        Ok(())
    }

    /// Deletes the longest prefix of sealed segments whose events are
    /// all covered by `processed`, never touching the tail or the
    /// segment holding the newest checkpoint: for each sensor of a
    /// segment, the summary must lack no `seq` at or below the highest
    /// the segment holds. Returns how many segments were deleted.
    ///
    /// # Errors
    ///
    /// Propagates backend failures.
    pub fn compact(&mut self, processed: &Holdings) -> Result<usize> {
        let Some(checkpoint_seg) = self.latest_checkpoint_segment else {
            return Ok(0);
        };
        let candidates: Vec<SegmentId> = self
            .index
            .keys()
            .copied()
            .filter(|&s| s < checkpoint_seg && s < self.tail)
            .collect();
        let mut deleted = 0;
        for seg in candidates {
            // Ledger segments are immortal: dropping one would sever
            // the hash chain a recovered node replays from genesis.
            if self.index[&seg].has_ledger {
                break;
            }
            let covered = self.index[&seg]
                .max_seq
                .0
                .iter()
                .all(|(sensor, max)| processed.lacks(*sensor).all(|(first, _)| first > *max));
            if !covered {
                break;
            }
            self.backend.delete_segment(seg)?;
            self.index.remove(&seg);
            deleted += 1;
            self.obs.inc("wal.segments_deleted");
        }
        Ok(deleted)
    }

    /// Number of events buffered but not yet durable.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.pending_events
    }

    /// Ids of live (non-compacted) segments, ascending.
    #[must_use]
    pub fn segments(&self) -> Vec<SegmentId> {
        self.index.keys().copied().collect()
    }

    /// The configured options.
    #[must_use]
    pub fn options(&self) -> &WalOptions {
        &self.options
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{FaultConfig, SimBackend};
    use rivulet_types::{EventId, EventKind, Payload, Time};

    fn event(sensor: u32, seq: u64) -> Event {
        Event {
            id: EventId::new(SensorId(sensor), seq),
            kind: EventKind::Motion,
            payload: Payload::Empty,
            emitted_at: Time::from_millis(seq),
            epoch: None,
        }
    }

    /// Appends `event` and flushes it, as a gate does for an append
    /// somebody waits on.
    fn append_flushed(wal: &mut Wal, event: &Event) {
        wal.append_event(event).unwrap();
        wal.flush().unwrap();
    }

    /// A summary of `sensor` holding exactly `seqs`.
    fn processed(sensor: u32, seqs: impl IntoIterator<Item = u64>) -> Holdings {
        let ids = seqs
            .into_iter()
            .map(|seq| EventId::new(SensorId(sensor), seq));
        ids.collect()
    }

    /// Segments of 64 bytes: a few frames each.
    fn small_segments() -> WalOptions {
        WalOptions {
            segment_max_bytes: 64,
            ..WalOptions::default()
        }
    }

    fn sim() -> Arc<SimBackend> {
        Arc::new(SimBackend::new(0).with_faults(FaultConfig {
            torn_tail: false,
            corrupt_tail: 0.0,
            partial_fsync: 0.0,
        }))
    }

    #[test]
    fn group_commit_beats_per_event_fsync_in_virtual_disk_time() {
        // Every sync occupies the disk for `sync_cost`, so disk time is
        // the number of syncs times that.
        let disk_time = |every: u64| {
            let backend = sim();
            let (mut wal, _) = Wal::open(
                backend.clone() as Arc<dyn StorageBackend>,
                WalOptions::default(),
            )
            .unwrap();
            for seq in 0..1000 {
                wal.append_event(&event(1, seq)).unwrap();
                if seq % every == every - 1 {
                    wal.flush().unwrap();
                }
            }
            wal.flush().unwrap();
            let (_, syncs, _) = backend.op_counts();
            backend.sync_cost().saturating_mul(syncs)
        };
        let per_event = disk_time(1);
        let grouped = disk_time(16);
        assert!(
            grouped.as_micros() * 4 < per_event.as_micros(),
            "group commit must amortize fsyncs: {grouped} !< {per_event} / 4"
        );
    }

    #[test]
    fn append_flush_recover_roundtrip() {
        let backend = sim();
        let (mut wal, rec) = Wal::open(
            backend.clone() as Arc<dyn StorageBackend>,
            WalOptions::default(),
        )
        .unwrap();
        assert!(rec.events.is_empty());
        for seq in 1..=10 {
            append_flushed(&mut wal, &event(1, seq));
        }
        drop(wal);
        let (_, rec) =
            Wal::open(backend as Arc<dyn StorageBackend>, WalOptions::default()).unwrap();
        assert_eq!(rec.events.len(), 10);
        assert_eq!(rec.events.last().unwrap().id.seq, 10);
        assert_eq!(rec.dropped_bytes, 0);
    }

    #[test]
    fn group_commit_defers_durability_until_flush() {
        let backend = sim();
        let options = WalOptions::default();
        let (mut wal, _) = Wal::open(backend.clone() as Arc<dyn StorageBackend>, options).unwrap();
        for seq in 1..=3 {
            wal.append_event(&event(1, seq)).unwrap();
        }
        assert_eq!(wal.pending_events(), 3);
        // Crash now: nothing was flushed, so nothing survives.
        backend.crash();
        let (_, rec) = Wal::open(backend.clone() as Arc<dyn StorageBackend>, options).unwrap();
        assert!(rec.events.is_empty());
    }

    #[test]
    fn appends_wait_for_the_callers_flush() {
        // The beat is the gate's clock: however short it is, appending
        // alone never flushes.
        let backend = sim();
        let options = WalOptions {
            flush_policy: FlushPolicy::EveryInterval(Duration::from_micros(1)),
            ..WalOptions::default()
        };
        let (mut wal, _) = Wal::open(backend as Arc<dyn StorageBackend>, options).unwrap();
        let obs = Recorder::enabled();
        wal.attach_recorder(obs.clone());
        for seq in 1..=3 {
            wal.append_event(&event(1, seq)).unwrap();
        }
        let counts = |obs: &Recorder| {
            let snap = obs.snapshot();
            (snap.counter("wal.appends"), snap.counter("wal.flushes"))
        };
        assert_eq!(counts(&obs), (3, 0));
        wal.flush().unwrap();
        assert_eq!(wal.pending_events(), 0);
        assert_eq!(counts(&obs), (3, 1));
    }

    #[test]
    fn rotation_seals_segments_at_size_limit() {
        let backend = sim();
        let (mut wal, _) = Wal::open(backend as Arc<dyn StorageBackend>, small_segments()).unwrap();
        for seq in 1..=20 {
            append_flushed(&mut wal, &event(1, seq));
        }
        assert!(
            wal.segments().len() > 1,
            "expected rotation, got {:?}",
            wal.segments()
        );
    }

    #[test]
    fn recovery_stops_at_corruption_and_truncates() {
        let backend = sim();
        let (mut wal, _) = Wal::open(
            backend.clone() as Arc<dyn StorageBackend>,
            WalOptions::default(),
        )
        .unwrap();
        for seq in 1..=5 {
            append_flushed(&mut wal, &event(1, seq));
        }
        drop(wal);
        let len = backend.read_segment(0).unwrap().len();
        // Corrupt somewhere in the middle: recovery keeps only the
        // frames before the damaged one.
        backend.inject_corruption(0, len / 2);
        let (wal, rec) = Wal::open(
            backend.clone() as Arc<dyn StorageBackend>,
            WalOptions::default(),
        )
        .unwrap();
        assert!(rec.events.len() < 5);
        assert!(rec.dropped_bytes > 0);
        // The surviving events are an exact prefix 1..=k.
        for (i, ev) in rec.events.iter().enumerate() {
            assert_eq!(ev.id.seq, i as u64 + 1);
        }
        // And the truncated log accepts new appends cleanly.
        let mut wal = wal;
        append_flushed(&mut wal, &event(1, 99));
        let (_, rec2) =
            Wal::open(backend as Arc<dyn StorageBackend>, WalOptions::default()).unwrap();
        assert_eq!(rec2.dropped_bytes, 0);
        assert_eq!(rec2.events.last().unwrap().id.seq, 99);
    }

    #[test]
    fn checkpoint_recovers_and_compaction_drops_covered_prefix() {
        let backend = sim();
        let options = small_segments();
        let (mut wal, _) = Wal::open(backend.clone() as Arc<dyn StorageBackend>, options).unwrap();
        for seq in 1..=20 {
            append_flushed(&mut wal, &event(1, seq));
        }
        let before = wal.segments().len();
        assert!(before > 2);
        let cp = Checkpoint {
            at: Time::from_secs(1),
            processed: processed(1, 0..=20),
        };
        wal.append_checkpoint(&cp).unwrap();
        let deleted = wal.compact(&cp.processed).unwrap();
        assert!(deleted > 0);
        assert!(wal.segments().len() < before + 1);
        // Recovery after compaction still sees the checkpoint.
        drop(wal);
        let (_, rec) = Wal::open(backend as Arc<dyn StorageBackend>, options).unwrap();
        assert_eq!(rec.checkpoint, Some(cp));
    }

    #[test]
    fn compaction_spares_uncovered_segments() {
        let backend = sim();
        let options = small_segments();
        let (mut wal, _) = Wal::open(backend as Arc<dyn StorageBackend>, options).unwrap();
        for seq in 1..=20 {
            append_flushed(&mut wal, &event(1, seq));
        }
        let cp = Checkpoint {
            at: Time::from_secs(1),
            processed: processed(1, 0..=0),
        };
        wal.append_checkpoint(&cp).unwrap();
        // Nothing processed yet: every event segment must survive.
        let deleted = wal.compact(&Holdings::default()).unwrap();
        assert_eq!(deleted, 0);
    }

    /// A hole in the processed summary keeps its segment: one sealed
    /// segment holds events 1–20 and everything but 7 is processed. A
    /// per-sensor maximum (20) would have deleted the segment and, with
    /// it, the one copy of 7 a promotion replays.
    #[test]
    fn compaction_keeps_a_segment_whose_events_are_not_all_processed() {
        let (mut wal, _) = Wal::open(sim() as Arc<dyn StorageBackend>, small_segments()).unwrap();
        for seq in 1..=20 {
            wal.append_event(&event(1, seq)).unwrap();
        }
        wal.flush().unwrap();
        let mut done = processed(1, (0..=20).filter(|seq| *seq != 7));
        wal.append_checkpoint(&Checkpoint {
            at: Time::from_secs(1),
            processed: done.clone(),
        })
        .unwrap();
        assert_eq!(
            wal.segments(),
            vec![0, 1],
            "1–20 sealed, then the checkpoint"
        );
        assert_eq!(wal.compact(&done).unwrap(), 0, "event 7 is not processed");
        done.note(EventId::new(SensorId(1), 7));
        assert_eq!(wal.compact(&done).unwrap(), 1);
        assert_eq!(wal.segments(), vec![1]);
    }

    #[test]
    fn ledger_entries_recover_in_chain_order_and_verify() {
        use crate::ledger::{LedgerChain, LedgerVerifier, RoutineTransition};
        use rivulet_types::RoutineId;
        let backend = sim();
        let (mut wal, _) = Wal::open(
            backend.clone() as Arc<dyn StorageBackend>,
            WalOptions::default(),
        )
        .unwrap();
        let obs = Recorder::enabled();
        wal.attach_recorder(obs.clone());
        let mut chain = LedgerChain::seeded(42);
        for instance in 0..4u64 {
            let staged = chain.append(
                RoutineId(1),
                instance,
                RoutineTransition::Staged,
                Time::from_millis(instance * 10),
                Vec::new(),
            );
            wal.append_ledger(&staged).unwrap();
            wal.append_event(&event(1, instance + 1)).unwrap();
            let committed = chain.append(
                RoutineId(1),
                instance,
                RoutineTransition::Committed,
                Time::from_millis(instance * 10 + 5),
                Vec::new(),
            );
            wal.append_ledger(&committed).unwrap();
        }
        assert_eq!(obs.snapshot().counter("ledger.appends"), 8);
        drop(wal);
        let (_, rec) =
            Wal::open(backend as Arc<dyn StorageBackend>, WalOptions::default()).unwrap();
        assert_eq!(rec.ledger.len(), 8);
        assert_eq!(rec.events.len(), 4);
        let trail = LedgerVerifier::verify(42, &rec.ledger).expect("recovered chain verifies");
        assert_eq!(trail.len(), 8);
    }

    #[test]
    fn compaction_never_drops_ledger_segments() {
        use crate::ledger::{LedgerChain, RoutineTransition};
        use rivulet_types::RoutineId;
        let backend = sim();
        let options = small_segments();
        let (mut wal, _) = Wal::open(backend.clone() as Arc<dyn StorageBackend>, options).unwrap();
        let mut chain = LedgerChain::seeded(7);
        // Segment 0 gets a ledger entry, then events roll segments.
        wal.append_ledger(&chain.append(
            RoutineId(1),
            0,
            RoutineTransition::Staged,
            Time::ZERO,
            Vec::new(),
        ))
        .unwrap();
        for seq in 1..=20 {
            append_flushed(&mut wal, &event(1, seq));
        }
        let processed = processed(1, 0..=20);
        wal.append_checkpoint(&Checkpoint {
            at: Time::from_secs(1),
            processed: processed.clone(),
        })
        .unwrap();
        let deleted = wal.compact(&processed).unwrap();
        // The ledger entry sits in the first segment, so the contiguous
        // compactable prefix is empty.
        assert_eq!(deleted, 0);
        drop(wal);
        let (_, rec) = Wal::open(backend as Arc<dyn StorageBackend>, options).unwrap();
        assert_eq!(rec.ledger.len(), 1, "the chained entry must survive");
    }

    #[test]
    fn recovers_a_log_written_with_the_bytewise_crc() {
        // Frames built by hand with the byte-at-a-time checksum every
        // existing log was written with — including payloads long
        // enough to cross the slice-by-8 fold many times — must recover
        // in full, and a fresh append must produce the same bytes.
        use crate::crc::crc32_bytewise;
        use crate::ledger::{LedgerChain, LedgerVerifier, RoutineTransition};
        use rivulet_types::wire::Wire;
        use rivulet_types::RoutineId;

        let mut chain = LedgerChain::seeded(9);
        let mut records = Vec::new();
        for seq in 1..=40u64 {
            let mut e = event(1, seq);
            let blob: Vec<u8> = (0..seq * 29).map(|i| (i * 7 + seq) as u8).collect();
            e.payload = Payload::Blob(bytes::Bytes::from(blob));
            records.push(WalRecord::Event(e));
        }
        records.push(WalRecord::Ledger(chain.append(
            RoutineId(1),
            0,
            RoutineTransition::Staged,
            Time::from_millis(5),
            Vec::new(),
        )));
        records.push(WalRecord::Checkpoint(Checkpoint {
            at: Time::from_secs(1),
            processed: processed(1, 0..=12),
        }));

        let mut old_log = Vec::new();
        for record in &records {
            let payload = record.to_bytes();
            let mut w = WireWriter::with_capacity(payload.len() + 16);
            w.put_varint(payload.len() as u64);
            w.put_slice(&crc32_bytewise(&payload).to_le_bytes());
            w.put_slice(&payload);
            old_log.extend_from_slice(&w.into_bytes());
        }

        // A fresh log appending the same records writes the same bytes.
        let fresh = sim();
        let (mut wal, _) = Wal::open(
            fresh.clone() as Arc<dyn StorageBackend>,
            WalOptions::default(),
        )
        .unwrap();
        for record in &records {
            match record {
                WalRecord::Event(e) => {
                    wal.append_event(e).unwrap();
                }
                WalRecord::Ledger(entry) => wal.append_ledger(entry).unwrap(),
                WalRecord::Checkpoint(cp) => wal.append_checkpoint(cp).unwrap(),
            }
        }
        wal.flush().unwrap();
        assert_eq!(wal.segments(), vec![0]);
        assert!(fresh.read_segment(0).unwrap() == old_log, "same bytes");

        let backend = sim();
        backend.create_segment(0).unwrap();
        backend.append(0, &old_log).unwrap();
        backend.sync(0).unwrap();

        let (_, rec) =
            Wal::open(backend as Arc<dyn StorageBackend>, WalOptions::default()).unwrap();
        assert_eq!(rec.dropped_bytes, 0);
        assert_eq!(rec.events.len(), 40);
        for (got, want) in rec.events.iter().zip(&records) {
            assert_eq!(&WalRecord::Event(got.clone()), want);
        }
        assert_eq!(rec.checkpoint.unwrap().processed, processed(1, 0..=12));
        assert_eq!(LedgerVerifier::verify(9, &rec.ledger).unwrap().len(), 1);
    }

    #[test]
    fn fs_backend_end_to_end() {
        use crate::fs::FsBackend;
        let dir =
            std::env::temp_dir().join(format!("rivulet-wal-fs-{}-{}", std::process::id(), line!()));
        let backend = Arc::new(FsBackend::open(&dir).unwrap());
        let (mut wal, _) = Wal::open(
            backend.clone() as Arc<dyn StorageBackend>,
            WalOptions::default(),
        )
        .unwrap();
        for seq in 1..=8 {
            wal.append_event(&event(2, seq)).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        let (_, rec) =
            Wal::open(backend as Arc<dyn StorageBackend>, WalOptions::default()).unwrap();
        assert_eq!(rec.events.len(), 8);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
