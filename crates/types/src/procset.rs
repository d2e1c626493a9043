//! A set of processes in one machine word.
//!
//! A home has a handful of processes (the paper evaluates 2–5) and the
//! deployment hands their ids out densely from 0, so every process set
//! the platform handles — a local view, the Gapless ring's `S` and `V`,
//! a broadcast's unacknowledged peers — fits a `u64` bitmask. Set
//! algebra is then one integer instruction, a set costs no heap block,
//! and on the wire it is one varint: one byte for homes of up to seven
//! processes, two up to fourteen.

use std::fmt;

use crate::id::ProcessId;
use crate::wire::{Wire, WireError, WireReader, WireWriter};

/// A set of [`ProcessId`]s with ids below [`ProcSet::CAPACITY`].
///
/// Iteration is ascending by id, which is the Gapless ring's order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ProcSet(u64);

impl ProcSet {
    /// Number of distinct process ids a set can hold (ids `0..64`):
    /// the size limit of a home.
    pub const CAPACITY: usize = 64;

    /// The empty set.
    pub const EMPTY: Self = Self(0);

    /// The set holding only `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p`'s id is not below [`ProcSet::CAPACITY`].
    #[must_use]
    pub fn singleton(p: ProcessId) -> Self {
        Self(Self::bit(p))
    }

    fn bit(p: ProcessId) -> u64 {
        assert!(
            (p.0 as usize) < Self::CAPACITY,
            "a home holds at most {} processes (ids 0-{}): no room for {p}",
            Self::CAPACITY,
            Self::CAPACITY - 1,
        );
        1 << p.0
    }

    /// Adds `p`; returns whether it was absent.
    ///
    /// # Panics
    ///
    /// Panics if `p`'s id is not below [`ProcSet::CAPACITY`].
    pub fn insert(&mut self, p: ProcessId) -> bool {
        let bit = Self::bit(p);
        let absent = self.0 & bit == 0;
        self.0 |= bit;
        absent
    }

    /// Removes `p`; returns whether it was present.
    pub fn remove(&mut self, p: ProcessId) -> bool {
        let present = self.contains(p);
        if present {
            self.0 &= !(1 << p.0);
        }
        present
    }

    /// Whether `p` is a member (an id past the capacity never is).
    #[must_use]
    pub fn contains(self, p: ProcessId) -> bool {
        (p.0 as usize) < Self::CAPACITY && (self.0 >> p.0) & 1 == 1
    }

    /// `self ∪ {p}`.
    ///
    /// # Panics
    ///
    /// Panics if `p`'s id is not below [`ProcSet::CAPACITY`].
    #[must_use]
    pub fn with(self, p: ProcessId) -> Self {
        Self(self.0 | Self::bit(p))
    }

    /// `self ∖ {p}`.
    #[must_use]
    pub fn without(mut self, p: ProcessId) -> Self {
        self.remove(p);
        self
    }

    /// `self ∪ other`.
    #[must_use]
    pub fn union(self, other: Self) -> Self {
        Self(self.0 | other.0)
    }

    /// `self ∩ other`.
    #[must_use]
    pub fn intersection(self, other: Self) -> Self {
        Self(self.0 & other.0)
    }

    /// `self ∖ other`.
    #[must_use]
    pub fn difference(self, other: Self) -> Self {
        Self(self.0 & !other.0)
    }

    /// Number of members.
    #[must_use]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set has no member.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The member with the lowest id.
    #[must_use]
    pub fn first(self) -> Option<ProcessId> {
        (self.0 != 0).then(|| ProcessId(self.0.trailing_zeros()))
    }

    /// The member with the highest id.
    #[must_use]
    pub fn last(self) -> Option<ProcessId> {
        (self.0 != 0).then(|| ProcessId(63 - self.0.leading_zeros()))
    }

    /// The members in ascending id order.
    #[must_use]
    pub fn iter(self) -> ProcSetIter {
        ProcSetIter(self.0)
    }

    /// The ring successor of `p`: the next member after `p` in
    /// ascending id order, wrapping from the highest id to the lowest.
    /// `None` when the set has no member other than `p`. `p` itself
    /// need not be a member.
    #[must_use]
    pub fn successor_of(self, p: ProcessId) -> Option<ProcessId> {
        let others = self.without(p);
        // Bits strictly above p; shifting in two steps keeps p = 63 (and
        // anything past the capacity) from overflowing the shift.
        let above = match p.0 {
            0..=62 => (others.0 >> (p.0 + 1)) << (p.0 + 1),
            _ => 0,
        };
        Self(above).first().or(others.first())
    }

    /// The ring predecessor of `p`: the mirror image of
    /// [`ProcSet::successor_of`].
    #[must_use]
    pub fn predecessor_of(self, p: ProcessId) -> Option<ProcessId> {
        let others = self.without(p);
        let below = match p.0 {
            0..=63 => others.0 & ((1 << p.0) - 1),
            _ => others.0,
        };
        Self(below).last().or(others.last())
    }
}

/// Ascending iterator over a [`ProcSet`]'s members.
#[derive(Debug, Clone)]
pub struct ProcSetIter(u64);

impl Iterator for ProcSetIter {
    type Item = ProcessId;

    fn next(&mut self) -> Option<ProcessId> {
        let p = ProcSet(self.0).first()?;
        self.0 &= self.0 - 1;
        Some(p)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for ProcSetIter {}

impl IntoIterator for ProcSet {
    type Item = ProcessId;
    type IntoIter = ProcSetIter;

    fn into_iter(self) -> ProcSetIter {
        self.iter()
    }
}

impl FromIterator<ProcessId> for ProcSet {
    /// # Panics
    ///
    /// Panics if an id is not below [`ProcSet::CAPACITY`].
    fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        iter.into_iter().fold(Self::EMPTY, Self::with)
    }
}

impl fmt::Debug for ProcSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// One LEB128 varint of the mask. Decoding accepts any 64-bit mask.
impl Wire for ProcSet {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.0);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_varint().map(Self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::roundtrip;

    fn set(ids: &[u32]) -> ProcSet {
        ids.iter().copied().map(ProcessId).collect()
    }

    #[test]
    fn successor_walks_the_ring_and_wraps_from_the_highest_id() {
        let ring = set(&[0, 2, 5, 63]);
        assert_eq!(ring.successor_of(ProcessId(0)), Some(ProcessId(2)));
        assert_eq!(ring.successor_of(ProcessId(2)), Some(ProcessId(5)));
        assert_eq!(ring.successor_of(ProcessId(5)), Some(ProcessId(63)));
        assert_eq!(ring.successor_of(ProcessId(63)), Some(ProcessId(0)));
        // A non-member gets the next member after where it would sit.
        assert_eq!(ring.successor_of(ProcessId(3)), Some(ProcessId(5)));
        assert_eq!(ring.successor_of(ProcessId(64)), Some(ProcessId(0)));
        assert_eq!(set(&[4]).successor_of(ProcessId(4)), None, "alone");
        assert_eq!(ProcSet::EMPTY.successor_of(ProcessId(4)), None);
    }

    #[test]
    fn predecessor_mirrors_successor() {
        let ring = set(&[0, 2, 5, 63]);
        assert_eq!(ring.predecessor_of(ProcessId(0)), Some(ProcessId(63)));
        assert_eq!(ring.predecessor_of(ProcessId(63)), Some(ProcessId(5)));
        assert_eq!(ring.predecessor_of(ProcessId(3)), Some(ProcessId(2)));
        assert_eq!(ring.predecessor_of(ProcessId(64)), Some(ProcessId(63)));
        assert_eq!(set(&[4]).predecessor_of(ProcessId(4)), None, "alone");
    }

    #[test]
    #[should_panic(expected = "a home holds at most 64 processes")]
    fn inserting_a_65th_id_names_the_limit() {
        let mut s = ProcSet::EMPTY;
        s.insert(ProcessId(64));
    }

    #[test]
    fn ids_past_the_capacity_are_never_members() {
        let mut all = ProcSet(u64::MAX);
        assert_eq!(all.len(), 64);
        assert!(all.contains(ProcessId(63)));
        assert!(!all.contains(ProcessId(64)) && !all.contains(ProcessId(u32::MAX)));
        assert!(!all.remove(ProcessId(64)));
        assert_eq!(all.len(), 64);
    }

    #[test]
    fn wire_is_one_varint_of_the_mask() {
        assert_eq!(ProcSet::EMPTY.to_bytes()[..], [0]);
        assert_eq!(set(&[0, 1, 2, 3, 4]).to_bytes()[..], [0b1_1111]);
        assert_eq!(
            set(&[0, 6]).to_bytes().len(),
            1,
            "seven processes: one byte"
        );
        assert_eq!(set(&[7]).to_bytes().len(), 2);
        assert_eq!(set(&[13]).to_bytes().len(), 2, "fourteen: two bytes");
        assert_eq!(set(&[14]).to_bytes().len(), 3);
        assert_eq!(ProcSet(u64::MAX).to_bytes().len(), 10);
    }

    #[test]
    fn decoding_takes_any_64_bit_mask_and_nothing_longer() {
        for mask in [0, 1, u64::MAX, 1 << 63, 0xdead_beef_0bad_f00d] {
            roundtrip(&ProcSet(mask));
        }
        // Ten bytes whose last carries more than bit 63.
        let mut long = [0xffu8; 10];
        long[9] = 0x02;
        assert_eq!(ProcSet::from_bytes(&long), Err(WireError::VarintOverflow));
        assert_eq!(
            ProcSet::from_bytes(&[0xff; 11]),
            Err(WireError::VarintOverflow)
        );
        assert!(matches!(
            ProcSet::from_bytes(&[0x80]),
            Err(WireError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn debug_prints_the_members() {
        assert_eq!(
            format!("{:?}", set(&[3, 1])),
            "{ProcessId(1), ProcessId(3)}"
        );
    }
}

#[cfg(test)]
mod proptests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::wire::roundtrip;
    use proptest::prelude::*;

    fn arb_ids() -> impl Strategy<Value = Vec<ProcessId>> {
        proptest::collection::vec((0u32..64).prop_map(ProcessId), 0..24)
    }

    fn both(ids: &[ProcessId]) -> (ProcSet, BTreeSet<ProcessId>) {
        (ids.iter().copied().collect(), ids.iter().copied().collect())
    }

    /// The model's ring successor: the first member above `p`, else the
    /// lowest member, never `p` itself.
    fn model_successor(model: &BTreeSet<ProcessId>, p: ProcessId) -> Option<ProcessId> {
        let others = || model.iter().copied().filter(|q| *q != p);
        others().find(|q| *q > p).or_else(|| others().next())
    }

    proptest! {
        #[test]
        fn insert_remove_contains_len_match_a_btreeset(
            ops in proptest::collection::vec((any::<bool>(), 0u32..64), 0..64),
            probe in 0u32..80,
        ) {
            let mut set = ProcSet::EMPTY;
            let mut model = BTreeSet::new();
            for (add, id) in ops {
                let p = ProcessId(id);
                if add {
                    prop_assert_eq!(set.insert(p), model.insert(p));
                } else {
                    prop_assert_eq!(set.remove(p), model.remove(&p));
                }
                prop_assert_eq!(set.len(), model.len());
                prop_assert_eq!(set.is_empty(), model.is_empty());
            }
            prop_assert_eq!(set.contains(ProcessId(probe)), model.contains(&ProcessId(probe)));
            prop_assert_eq!(set.first(), model.first().copied());
            prop_assert_eq!(set.last(), model.last().copied());
            // Ascending iteration, and the exact size it promises.
            prop_assert_eq!(set.iter().len(), model.len());
            prop_assert_eq!(set.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
        }

        #[test]
        fn algebra_matches_a_btreeset(a in arb_ids(), b in arb_ids(), p in 0u32..64) {
            let (sa, ma) = both(&a);
            let (sb, mb) = both(&b);
            let model = |s: ProcSet| s.iter().collect::<BTreeSet<_>>();
            prop_assert_eq!(model(sa.union(sb)), &ma | &mb);
            prop_assert_eq!(model(sa.intersection(sb)), &ma & &mb);
            prop_assert_eq!(model(sa.difference(sb)), &ma - &mb);
            let p = ProcessId(p);
            prop_assert_eq!(model(sa.with(p)), &ma | &BTreeSet::from([p]));
            prop_assert_eq!(model(sa.without(p)), &ma - &BTreeSet::from([p]));
            prop_assert_eq!(sa == sb, ma == mb);
        }

        #[test]
        fn successor_is_the_next_member_cyclically(ids in arb_ids(), p in 0u32..64) {
            let (set, model) = both(&ids);
            let p = ProcessId(p);
            prop_assert_eq!(set.successor_of(p), model_successor(&model, p));
            let others = || model.iter().rev().copied().filter(|q| *q != p);
            let before = others().find(|q| *q < p).or_else(|| others().next());
            prop_assert_eq!(set.predecessor_of(p), before);
            // Walking successors from a member visits every member once.
            if let Some(start) = set.first() {
                let mut seen = ProcSet::singleton(start);
                let mut at = start;
                while let Some(next) = set.successor_of(at).filter(|n| *n != start) {
                    prop_assert!(seen.insert(next));
                    at = next;
                }
                prop_assert_eq!(seen, set);
            }
        }

        #[test]
        fn wire_roundtrips_with_the_size_rule(ids in arb_ids(), mask in any::<u64>()) {
            let (set, model) = both(&ids);
            roundtrip(&set);
            roundtrip(&ProcSet(mask));
            let highest = model.last().map_or(0, |p| p.0 as usize);
            prop_assert_eq!(set.to_bytes().len(), (highest + 1).div_ceil(7));
            if highest < 7 {
                prop_assert_eq!(set.to_bytes().len(), 1);
            }
        }

        #[test]
        fn junk_never_panics(buf in proptest::collection::vec(any::<u8>(), 0..16)) {
            let _ = ProcSet::from_bytes(&buf);
        }
    }
}
