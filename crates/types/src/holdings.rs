//! Possession summaries of sensor streams: which `seq`s of each sensor
//! a process holds, or which its home has processed, holes included.
//!
//! A Rivulet process keeps two (§4.1, §5). What it durably holds is
//! noted once an event is past its durability gate and advertised on
//! every keep-alive; the sender's ring predecessor ships what the
//! summary lacks. What was processed is noted where an active logic
//! node processes a Gapless event and merged from every peer's
//! keep-alive ([`Holdings::merge`]); a promoted shadow replays every
//! stored event it lacks, garbage collection removes only events it
//! holds, and a checkpoint stores it so compaction keeps every log
//! segment with an event it lacks.
//!
//! A hole nobody fills — a reading no process heard — is forgiven once
//! garbage collection removes a processed event above it
//! ([`Holdings::forgive`]): that event is older than the straggler
//! horizon, so the hole's events are too, and no failover replays them.
//! The hole set therefore stays bounded by that horizon.

use crate::wire::{Wire, WireError, WireReader, WireWriter};
use crate::{EventId, SensorId};

/// A possession summary: per sensor of which a `seq` is held, the `seq`
/// ranges it does not hold, inclusive and ascending, a held `seq`
/// between any two. The last runs from above the highest `seq` held to
/// `u64::MAX`; the others are the holes.
///
/// `u64::MAX` itself is never held: [`Holdings::note`] ignores it and a
/// summary claiming it does not decode. That keeps every known sensor's
/// last range in the summary, which is how one flat list, sorted by
/// sensor, tells a sensor it knows from one it does not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Holdings {
    lacks: Vec<(SensorId, u64, u64)>,
}

/// The one range a sensor nothing of which is held lacks.
const ALL: &[(SensorId, u64, u64)] = &[(SensorId(0), 0, u64::MAX)];

impl Holdings {
    /// Where `sensor`'s ranges sit in the list; empty if nothing of it
    /// is held.
    fn span(&self, sensor: SensorId) -> std::ops::Range<usize> {
        let from = self.lacks.partition_point(|e| e.0 < sensor);
        from..from + self.lacks[from..].partition_point(|e| e.0 == sensor)
    }

    /// Records that `id` is held: its place in a lacked range is cut
    /// out. The next `seq` in order only moves the range above it.
    pub fn note(&mut self, id: EventId) {
        if id.seq < u64::MAX {
            self.note_range(id.sensor, id.seq, id.seq);
        }
    }

    /// Records that every `seq` of `sensor` from `first` to `last`
    /// (`< u64::MAX`) is held, cutting the range out of those lacked in
    /// place: a range already held changes nothing and allocates
    /// nothing.
    fn note_range(&mut self, sensor: SensorId, first: u64, last: u64) {
        // The sensor's first range that ends at or above `first`; every
        // known sensor's last range ends at `u64::MAX`, so there is one
        // unless the sensor is unknown.
        let mut from = self.lacks.partition_point(|e| (e.0, e.2) < (sensor, first));
        if self.lacks.get(from).is_none_or(|e| e.0 != sensor) {
            self.lacks.insert(from, (sensor, 0, u64::MAX));
        }
        let lacks = &self.lacks[from..];
        let mut to = from + lacks.partition_point(|e| e.0 == sensor && e.1 <= last);
        if from == to {
            return;
        }
        // The ranges `from..to` meet `first..=last`: the first keeps
        // its part below, the last its part above (a range that holds
        // both splits in two), and those in between go.
        let (low, high) = (self.lacks[from].1, self.lacks[to - 1].2);
        if low < first {
            self.lacks[from].2 = first - 1;
            from += 1;
        }
        if last < high {
            if from < to {
                self.lacks[to - 1].1 = last + 1;
                to -= 1;
            } else {
                self.lacks.insert(to, (sensor, last + 1, high));
            }
        }
        if from < to {
            self.lacks.drain(from..to);
        }
    }

    /// Adds everything `other` holds: the union of the two.
    pub fn merge(&mut self, other: &Holdings) {
        for lacks in other.sensors() {
            let mut held_from = 0;
            for &(sensor, first, last) in lacks {
                if held_from < first {
                    self.note_range(sensor, held_from, first - 1);
                }
                held_from = last.saturating_add(1);
            }
        }
    }

    /// Whether `id` is held.
    #[must_use]
    pub fn holds(&self, id: EventId) -> bool {
        let at = self
            .lacks
            .partition_point(|e| (e.0, e.2) < (id.sensor, id.seq));
        self.lacks
            .get(at)
            .is_some_and(|e| e.0 == id.sensor && id.seq < e.1)
    }

    /// The `seq` ranges of `sensor` not held, inclusive and ascending:
    /// the holes, then everything above the highest `seq` held.
    pub fn lacks(&self, sensor: SensorId) -> impl ExactSizeIterator<Item = (u64, u64)> + '_ {
        let lacks = &self.lacks[self.span(sensor)];
        let lacks = if lacks.is_empty() { ALL } else { lacks };
        lacks.iter().map(|&(_, first, last)| (first, last))
    }

    /// Forgives every hole of `sensor` that ends below `seq`, a held
    /// event garbage collection just removed.
    pub fn forgive(&mut self, sensor: SensorId, seq: u64) {
        let span = self.span(sensor);
        let below = self.lacks[span.clone()].partition_point(|e| e.2 < seq);
        self.lacks.drain(span.start..span.start + below);
    }

    /// Each known sensor's ranges, in sensor order.
    fn sensors(&self) -> impl Iterator<Item = &[(SensorId, u64, u64)]> + Clone {
        self.lacks.chunk_by(|a, b| a.0 == b.0)
    }
}

/// Notes every id, in the order given.
impl FromIterator<EventId> for Holdings {
    fn from_iter<I: IntoIterator<Item = EventId>>(ids: I) -> Self {
        let mut holdings = Self::default();
        ids.into_iter().for_each(|id| holdings.note(id));
        holdings
    }
}

/// Two lists: the highest `seq` held per sensor, as `(sensor, seq)`
/// pairs in sensor order; then, per sensor with holes, its holes
/// ascending as `(first, last − first)` pairs. A summary without holes
/// costs one byte more than its marks.
impl Wire for Holdings {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.sensors().count() as u64);
        for lacks in self.sensors() {
            let &(sensor, above, _) = lacks.last().expect("a sensor's last range");
            (sensor, above - 1).encode(w);
        }
        let holed = self.sensors().filter(|lacks| lacks.len() > 1);
        w.put_varint(holed.clone().count() as u64);
        for lacks in holed {
            let holes = &lacks[..lacks.len() - 1];
            (holes[0].0, holes.len() as u64).encode(w);
            for &(_, first, last) in holes {
                (first, last - first).encode(w);
            }
        }
    }

    /// Marks must name their sensors in ascending order and none may be
    /// `u64::MAX`. A hole must start past the one before it and end
    /// below its sensor's mark: one that does not spans more than it
    /// may, and one of a sensor without a mark spans more than any.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let too_long = |declared| WireError::LengthTooLarge { declared };
        let marks = r.get_len()?;
        let mut lacks = Vec::with_capacity(marks.min(1_024));
        for _ in 0..marks {
            let (sensor, high) = <(SensorId, u64)>::decode(r)?;
            let after = lacks
                .last()
                .is_none_or(|e: &(SensorId, u64, u64)| e.0 < sensor);
            if high == u64::MAX || !after {
                return Err(too_long(high));
            }
            lacks.push((sensor, high + 1, u64::MAX));
        }
        let mut holdings = Self { lacks };
        for _ in 0..r.get_len()? {
            let (sensor, holes) = <(SensorId, u64)>::decode(r)?;
            let known = holdings.span(sensor);
            if known.is_empty() {
                return Err(too_long(u64::MAX));
            }
            // Each hole goes in before the sensor's last range.
            for (top, _) in (known.end - 1..).zip(0..holes) {
                let (first, span) = <(u64, u64)>::decode(r)?;
                let lacks = &mut holdings.lacks;
                let before = top.checked_sub(1).map(|at| lacks[at]);
                let before = before.filter(|e| e.0 == sensor);
                let next = before.map_or(0, |e| e.2.saturating_add(2));
                let last = first.saturating_add(span);
                if first < next || last >= lacks[top].1 - 1 {
                    return Err(too_long(span));
                }
                lacks.insert(top, (sensor, first, last));
            }
        }
        Ok(holdings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::roundtrip;

    fn id(sensor: u32, seq: u64) -> EventId {
        EventId::new(SensorId(sensor), seq)
    }

    fn lacks(h: &Holdings, sensor: u32) -> Vec<(u64, u64)> {
        h.lacks(SensorId(sensor)).collect()
    }

    fn holes(h: &Holdings, sensor: u32) -> Vec<(u64, u64)> {
        let mut lacks = lacks(h, sensor);
        lacks.pop();
        lacks
    }

    #[test]
    fn notes_open_split_and_close_holes() {
        let mut h: Holdings = [3, 4, 9].map(|q| id(1, q)).into_iter().collect();
        assert_eq!(holes(&h, 1), vec![(0, 2), (5, 8)]);
        h.note(id(6, 0));
        h.note(id(1, 7));
        assert_eq!(holes(&h, 1), vec![(0, 2), (5, 6), (8, 8)]);
        for seq in [0, 2, 5, 6, 8] {
            h.note(id(1, seq));
        }
        assert_eq!(holes(&h, 1), vec![(1, 1)]);
        assert!(h.holds(id(1, 9)) && !h.holds(id(1, 1)) && !h.holds(id(1, 10)));
        assert_eq!(holes(&h, 6), vec![]);
        assert_eq!(lacks(&h, 6), [(1, u64::MAX)]);
        assert_eq!(lacks(&h, 2), [(0, u64::MAX)]);
        assert!(!h.holds(id(2, 0)));
    }

    /// A flat list keeps a sensor it knows only through the range above
    /// its highest `seq` held, so `u64::MAX` is never held: noting it
    /// changes nothing, and a mark claiming it does not decode.
    #[test]
    fn u64_max_is_never_held() {
        let mut h = Holdings::default();
        h.note(id(2, u64::MAX));
        assert_eq!(h, Holdings::default());
        h.note(id(2, u64::MAX - 1));
        h.note(id(2, u64::MAX));
        assert!(!h.holds(id(2, u64::MAX)));
        assert_eq!(lacks(&h, 2), [(0, u64::MAX - 2), (u64::MAX, u64::MAX)]);
        roundtrip(&h);
        let mut mark = vec![(SensorId(2), u64::MAX)].to_bytes().to_vec();
        mark.push(0);
        assert!(Holdings::from_bytes(&mark).is_err());
    }

    #[test]
    fn a_merge_is_the_union() {
        let mut h: Holdings = [0, 1, 5, 9].map(|q| id(1, q)).into_iter().collect();
        let other: Holdings = [2, 3, 7, 12]
            .map(|q| id(1, q))
            .into_iter()
            .chain([id(0, 4)])
            .collect();
        h.merge(&other);
        assert_eq!(
            lacks(&h, 1),
            [(4, 4), (6, 6), (8, 8), (10, 11), (13, u64::MAX)]
        );
        assert_eq!(lacks(&h, 0), [(0, 3), (5, u64::MAX)]);
        let before = h.clone();
        h.merge(&Holdings::default());
        h.merge(&before);
        assert_eq!(h, before, "merging what is held changes nothing");
    }

    #[test]
    fn forgiveness_drops_the_holes_below_a_removed_event() {
        let mut h: Holdings = [2, 5, 9].map(|q| id(1, q)).into_iter().collect();
        h.forgive(SensorId(1), 5);
        assert_eq!(holes(&h, 1), vec![(6, 8)]);
        h.forgive(SensorId(3), 100);
        assert_eq!(lacks(&h, 1), [(6, 8), (10, u64::MAX)]);
    }

    #[test]
    fn a_summary_without_holes_costs_one_byte_more_than_its_marks() {
        let marks = vec![(SensorId(1), 300u64), (SensorId(2), 0)];
        let h: Holdings = (0..=300).map(|q| id(1, q)).chain([id(2, 0)]).collect();
        assert_eq!(h.to_bytes().len(), marks.to_bytes().len() + 1);
        roundtrip(&h);
        roundtrip(&Holdings::default());
    }

    #[test]
    fn a_hole_past_its_mark_does_not_decode() {
        // One mark (s1 at 5), then one hole of s1: from 0, span 5.
        let bytes = [1, 1, 5, 1, 1, 1, 0, 5];
        assert!(Holdings::from_bytes(&bytes).is_err());
        let fits = [1, 1, 5, 1, 1, 1, 0, 4];
        let h = Holdings::from_bytes(&fits).expect("a hole below the mark");
        assert_eq!(holes(&h, 1), vec![(0, 4)]);
        // Two holes with no held seq between them.
        assert!(Holdings::from_bytes(&[1, 1, 5, 1, 1, 2, 0, 0, 1, 0]).is_err());
        assert!(Holdings::from_bytes(&[1, 1, 5, 1, 1, 2, 0, 0, 2, 0]).is_ok());
        // A hole of a sensor with no mark.
        assert!(Holdings::from_bytes(&[1, 1, 5, 1, 2, 1, 0, 0]).is_err());
    }

    #[test]
    fn marks_out_of_sensor_order_do_not_decode() {
        assert!(Holdings::from_bytes(&[2, 1, 5, 2, 3, 0]).is_ok());
        assert!(Holdings::from_bytes(&[2, 2, 5, 1, 3, 0]).is_err());
        assert!(Holdings::from_bytes(&[2, 1, 5, 1, 3, 0]).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;
    use crate::wire::roundtrip;

    /// `seq`s the reference is checked over; notes stay below the last.
    const SEQS: u64 = 48;

    #[derive(Debug, Clone)]
    enum Op {
        Note(u32, u64),
        Forgive(u32, u64),
        /// The union with a summary of these notes.
        Merge(Vec<(u32, u64)>),
    }

    fn op() -> impl Strategy<Value = Op> {
        let notes = proptest::collection::vec((0u32..3, 0..SEQS), 0..12);
        (0u8..6, 0u32..3, 0..SEQS, notes).prop_map(|(kind, s, q, notes)| match kind {
            0 => Op::Forgive(s, q),
            1 => Op::Merge(notes),
            _ => Op::Note(s, q),
        })
    }

    /// The summary as a set of held `seq`s per sensor. Forgiving below
    /// `seq` adds every missing `seq` whose run of missing ones ends
    /// below it.
    fn forgive(held: &mut BTreeSet<u64>, seq: u64) {
        let Some(&high) = held.last() else {
            return;
        };
        let forgiven: Vec<u64> = (0..high)
            .filter(|q| !held.contains(q))
            .filter(|q| held.range(q..).next().is_some_and(|above| above - 1 < seq))
            .collect();
        held.extend(forgiven);
    }

    proptest! {
        /// Notes in any order, duplicates, merges and forgiveness
        /// included, leave a summary that answers `holds` and `lacks`
        /// exactly as the set of held `seq`s does, and crosses the wire
        /// unchanged.
        #[test]
        fn the_summary_matches_a_set_of_held_seqs(ops in proptest::collection::vec(op(), 0..80)) {
            let mut h = Holdings::default();
            let mut reference: [BTreeSet<u64>; 3] = Default::default();
            for op in ops {
                match op {
                    Op::Note(s, q) => {
                        h.note(EventId::new(SensorId(s), q));
                        reference[s as usize].insert(q);
                    }
                    Op::Forgive(s, q) => {
                        h.forgive(SensorId(s), q);
                        forgive(&mut reference[s as usize], q);
                    }
                    Op::Merge(notes) => {
                        let ids = notes.iter().map(|&(s, q)| EventId::new(SensorId(s), q));
                        h.merge(&ids.collect());
                        for (s, q) in notes {
                            reference[s as usize].insert(q);
                        }
                    }
                }
                for (s, held) in reference.iter().enumerate() {
                    let sensor = SensorId(s as u32);
                    let lacked: Vec<u64> = h.lacks(sensor).flat_map(|(first, last)| {
                        first..=last.min(SEQS)
                    }).collect();
                    for seq in 0..=SEQS {
                        let holds = h.holds(EventId::new(sensor, seq));
                        prop_assert_eq!(holds, held.contains(&seq), "{}#{}", sensor, seq);
                        prop_assert_eq!(lacked.contains(&seq), !holds, "{}#{} lacked", sensor, seq);
                    }
                }
                roundtrip(&h);
            }
        }
    }
}
