//! What a process holds of each sensor's stream: the one possession
//! summary of the Gapless path (§4.1).
//!
//! Per sensor, a [`Holdings`] keeps the highest `seq` held and the
//! inclusive ranges below it that are not held — the holes. A process
//! notes an event here once it is durable and advertises the whole
//! summary on its keep-alive; peers read it back for two answers: which
//! tracked broadcasts it acknowledges ([`Holdings::holds`], read by
//! `RbcastState::on_cumulative_ack`) and which events a successor sync
//! ships ([`Holdings::lacks`], read by `EventStore::diff_for`).
//!
//! A hole nobody fills — a reading no process heard — is forgiven once
//! garbage collection removes a held event above it
//! ([`Holdings::forgive`]): that event was processed and is older than
//! the straggler horizon, so the hole's events are too, and no failover
//! replays them. The hole set therefore stays bounded by that horizon.

use std::collections::BTreeMap;

use rivulet_types::wire::{Wire, WireError, WireReader, WireWriter};
use rivulet_types::{EventId, SensorId};

/// One process's possession summary: per sensor it holds an event of,
/// the `seq` ranges it does not hold, inclusive and ascending, a held
/// `seq` between any two. The last runs to `u64::MAX` from above the
/// highest `seq` held (unless `u64::MAX` is held); the others are the
/// holes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Holdings {
    sensors: BTreeMap<SensorId, Vec<(u64, u64)>>,
}

/// The highest `seq` a sensor's lacked ranges leave held; 0 for a
/// sensor nothing of which is held.
pub(crate) fn high(lacks: &[(u64, u64)]) -> u64 {
    match lacks.last() {
        Some(&(first, u64::MAX)) => first.saturating_sub(1),
        _ => u64::MAX,
    }
}

/// The lacked ranges of a sensor but the one above its highest held.
fn holes(lacks: &[(u64, u64)]) -> &[(u64, u64)] {
    &lacks[..lacks.len() - usize::from(high(lacks) < u64::MAX)]
}

impl Holdings {
    /// Records that `id` is held: its place in a lacked range is cut
    /// out. The next `seq` in order only moves the range above it.
    pub fn note(&mut self, id: EventId) {
        let seq = id.seq;
        let lacks = self.sensors.entry(id.sensor);
        let lacks = lacks.or_insert_with(|| vec![(0, u64::MAX)]);
        let at = lacks.partition_point(|&(_, last)| last < seq);
        let Some(&(first, last)) = lacks.get(at).filter(|(first, _)| *first <= seq) else {
            return;
        };
        if first == seq && seq < last {
            lacks[at].0 = seq + 1;
        } else {
            let below = (first < seq).then(|| (first, seq - 1));
            let above = (seq < last).then(|| (seq + 1, last));
            lacks.splice(at..=at, below.into_iter().chain(above));
        }
    }

    /// Whether `id` is held.
    #[must_use]
    pub fn holds(&self, id: EventId) -> bool {
        let lacks = self.lacks(id.sensor);
        let at = lacks.partition_point(|&(_, last)| last < id.seq);
        lacks.get(at).is_none_or(|&(first, _)| id.seq < first)
    }

    /// The `seq` ranges of `sensor` not held, inclusive and ascending:
    /// the holes, then everything above the highest `seq` held.
    #[must_use]
    pub fn lacks(&self, sensor: SensorId) -> &[(u64, u64)] {
        let lacks = self.sensors.get(&sensor);
        lacks.map_or(&[(0, u64::MAX)], Vec::as_slice)
    }

    /// Forgives every hole of `sensor` that ends below `seq`, a held
    /// event garbage collection just removed.
    pub fn forgive(&mut self, sensor: SensorId, seq: u64) {
        if let Some(lacks) = self.sensors.get_mut(&sensor) {
            lacks.drain(..lacks.partition_point(|&(_, last)| last < seq));
        }
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

/// Two lists: the highest `seq` held per sensor, exactly as
/// `(sensor, seq)` pairs; then, per sensor with holes, its holes
/// ascending as `(first, last − first)` pairs. A summary without holes
/// costs one byte more than its marks.
impl Wire for Holdings {
    fn encode(&self, w: &mut WireWriter) {
        let marks: Vec<_> = self.sensors.iter().map(|(s, l)| (*s, high(l))).collect();
        let spans = |l| holes(l).iter().map(|&(first, last)| (first, last - first));
        let holed = self.sensors.iter().filter(|(_, l)| !holes(l).is_empty());
        let holed: Vec<(_, Vec<_>)> = holed.map(|(s, l)| (*s, spans(l).collect())).collect();
        (marks, holed).encode(w);
    }

    /// A hole must start past the one before it and end below its
    /// sensor's mark: one that does not spans more than it may, and one
    /// of a sensor without a mark spans more than any.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut sensors = BTreeMap::new();
        for _ in 0..r.get_len()? {
            let (sensor, high) = <(SensorId, u64)>::decode(r)?;
            let above = high.checked_add(1).map(|first| (first, u64::MAX));
            sensors.insert(sensor, Vec::from_iter(above));
        }
        let holed = Vec::<(SensorId, Vec<(u64, u64)>)>::decode(r)?;
        let too_long = |declared| WireError::LengthTooLarge { declared };
        for (sensor, spans) in holed {
            let lacks = sensors.get_mut(&sensor).ok_or(too_long(u64::MAX))?;
            for (first, span) in spans {
                let at = holes(lacks).len();
                let next = lacks[..at].last().map_or(0, |h| h.1.saturating_add(2));
                let hole = (first, first.saturating_add(span));
                if hole.0 < next || hole.1 >= high(lacks) {
                    return Err(too_long(span));
                }
                lacks.insert(at, hole);
            }
        }
        Ok(Self { sensors })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rivulet_types::wire::roundtrip;

    fn id(sensor: u32, seq: u64) -> EventId {
        EventId::new(SensorId(sensor), seq)
    }

    fn holes(h: &Holdings, sensor: u32) -> Vec<(u64, u64)> {
        super::holes(h.lacks(SensorId(sensor))).to_vec()
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
        assert_eq!(h.lacks(SensorId(6)), [(1, u64::MAX)]);
        assert_eq!(h.lacks(SensorId(2)), [(0, u64::MAX)]);
        h.note(id(2, u64::MAX));
        assert_eq!(h.lacks(SensorId(2)), [(0, u64::MAX - 1)]);
        assert_eq!(high(h.lacks(SensorId(2))), u64::MAX);
    }

    #[test]
    fn forgiveness_drops_the_holes_below_a_removed_event() {
        let mut h: Holdings = [2, 5, 9].map(|q| id(1, q)).into_iter().collect();
        h.forgive(SensorId(1), 5);
        assert_eq!(holes(&h, 1), vec![(6, 8)]);
        h.forgive(SensorId(3), 100);
        assert_eq!(h.lacks(SensorId(1)), [(6, 8), (10, u64::MAX)]);
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
}

#[cfg(test)]
mod proptests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;
    use rivulet_types::wire::roundtrip;

    use super::*;

    /// `seq`s the reference is checked over; notes stay below the last.
    const SEQS: u64 = 48;

    #[derive(Debug, Clone)]
    enum Op {
        Note(u32, u64),
        Forgive(u32, u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..5, 0u32..3, 0..SEQS).prop_map(|(kind, s, q)| match kind {
            0 => Op::Forgive(s, q),
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
        /// Notes in any order, duplicates and forgiveness included, leave
        /// a summary that answers `holds` and `lacks` exactly as the set
        /// of held `seq`s does, and crosses the wire unchanged.
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
                }
                for (s, held) in reference.iter().enumerate() {
                    let sensor = SensorId(s as u32);
                    let lacked: Vec<u64> = h.lacks(sensor).iter().flat_map(|&(first, last)| {
                        first..=last.min(SEQS)
                    }).collect();
                    for seq in 0..=SEQS {
                        let holds = h.holds(EventId::new(sensor, seq));
                        prop_assert_eq!(holds, held.contains(&seq), "{}#{}", sensor, seq);
                        prop_assert_eq!(lacked.contains(&seq), !holds, "{}#{} lacked", sensor, seq);
                    }
                    prop_assert_eq!(held.last().map(|_| high(h.lacks(sensor))), held.last().copied());
                }
                roundtrip(&h);
            }
        }
    }
}
