//! Log-scale histograms for latency and size distributions.
//!
//! Rivulet's evaluation cares about *orders of magnitude* — a delivery
//! delay of 80 ms vs 2.5 s, a WAL flush of 60 B vs 12 KiB — not about
//! per-microsecond resolution. A base-2 logarithmic histogram captures
//! that with a fixed 65-slot array: no allocation on the record path,
//! trivially mergeable, and deterministic by construction.

/// Number of buckets: one for zero plus one per power of two.
const BUCKETS: usize = 65;

/// A base-2 logarithmic histogram of `u64` samples.
///
/// Bucket 0 holds exact zeros; bucket `i` (for `i >= 1`) holds samples
/// in `[2^(i-1), 2^i - 1]`, i.e. its inclusive upper bound is
/// `2^i - 1`. Alongside the buckets the histogram tracks exact
/// `count`, `sum`, `min`, and `max`, so means are not subject to
/// bucketing error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Index of the bucket `value` falls into.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of bucket `index` (`u64::MAX` for the
    /// last bucket, whose nominal bound `2^64 - 1` is exactly that).
    #[must_use]
    pub fn bucket_upper_bound(index: usize) -> u64 {
        if index == 0 {
            0
        } else if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `None` if empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The occupied buckets as `(inclusive upper bound, count)` pairs,
    /// in ascending bound order. Empty buckets are skipped, so exports
    /// stay compact.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| (Self::bucket_upper_bound(i), *n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_are_inclusive_uppers() {
        // Every value must satisfy value <= upper_bound(bucket_index)
        // and (for nonzero buckets) value > upper_bound(index - 1).
        for v in [0u64, 1, 2, 3, 7, 8, 255, 256, 1 << 40, u64::MAX] {
            let i = Histogram::bucket_index(v);
            assert!(v <= Histogram::bucket_upper_bound(i), "v={v} i={i}");
            if i > 0 {
                assert!(v > Histogram::bucket_upper_bound(i - 1), "v={v} i={i}");
            }
        }
    }

    #[test]
    fn observe_tracks_exact_stats() {
        let mut h = Histogram::new();
        assert_eq!(h.min(), None);
        for v in [10, 20, 900] {
            h.observe(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 930);
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(900));
        // 10 and 20 land in different buckets (bounds 15 and 31); 900
        // lands under bound 1023.
        assert_eq!(h.nonzero_buckets(), vec![(15, 1), (31, 1), (1023, 1)]);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1, 5, 100] {
            a.observe(v);
        }
        for v in [0, 5, 1_000_000] {
            b.observe(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 6);
        assert_eq!(merged.sum(), a.sum() + b.sum());
        assert_eq!(merged.min(), Some(0));
        assert_eq!(merged.max(), Some(1_000_000));
        let total: u64 = merged.nonzero_buckets().iter().map(|(_, n)| n).sum();
        assert_eq!(total, 6, "bucket counts conserved under merge");
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.observe(42);
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before);
    }
}
