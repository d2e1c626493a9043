//! Order statistics for the benchmark's reports.
//!
//! Every timing is reported as a median and a high percentile, with the
//! sample count beside it. A percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it (the sample-count rule): with
//! fewer, the value is one outlier's, not the distribution's.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted slice, `p` in (0, 1].
///
/// # Panics
///
/// Panics on an empty slice or an out-of-range `p`.
#[must_use]
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 1.0, "percentile rank out of range: {p}");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples of an `n`-sample set lie strictly beyond the
/// nearest-rank `p` percentile.
#[must_use]
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub((p * n as f64).ceil() as usize)
}

/// Median and p99 of a latency sample, with the count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: u64,
    /// Nearest-rank 99th percentile.
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
}

impl LatencySummary {
    /// Summarises `samples` (sorted in place). `None` when p99 would
    /// break the sample-count rule.
    #[must_use]
    pub fn of(samples: &mut [u64]) -> Option<Self> {
        if samples_beyond(samples.len(), 0.99) < MIN_BEYOND {
            return None;
        }
        samples.sort_unstable();
        Some(Self {
            n: samples.len(),
            p50: percentile_sorted(samples, 0.5),
            p99: percentile_sorted(samples, 0.99),
            max: samples[samples.len() - 1],
        })
    }
}

/// Median, quartiles and extremes of a set of repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Number of repetitions.
    pub n: usize,
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
}

impl Spread {
    /// Summarises `values`. Quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` (the exclusive method), so a
    /// spread computed here matches the one the benchmark driver
    /// computes. `None` for an empty set.
    #[must_use]
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let len = v.len();
        let at = |i: usize| {
            if len == 1 {
                return v[0];
            }
            // As CPython does: clamp the index first, then take the
            // (possibly negative, extrapolating) remainder.
            let j = (i * (len + 1) / 4).clamp(1, len - 1);
            let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Some(Self {
            n: len,
            min: v[0],
            q1: at(1),
            median: at(2),
            q3: at(3),
            max: v[len - 1],
        })
    }

    /// Interquartile range as a share of the median.
    #[must_use]
    pub fn relative_iqr(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// Median of `values`, `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    Spread::of(values).map(|s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&[7], 0.5), 7);
    }

    #[test]
    fn sample_count_rule() {
        // p99 needs 10 samples beyond it: 1000 samples leave exactly 10.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn latency_summary_refuses_thin_tails() {
        let mut few: Vec<u64> = (0..999).collect();
        assert_eq!(LatencySummary::of(&mut few), None);
        let mut enough: Vec<u64> = (0..1000).rev().collect();
        let s = LatencySummary::of(&mut enough).expect("1000 samples support p99");
        assert_eq!((s.n, s.p50, s.p99, s.max), (1000, 499, 989, 999));
    }

    #[test]
    fn spread_quartiles() {
        let s = Spread::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).expect("non-empty");
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 1.5, 3.0, 4.5, 5.0)
        );
        assert!((s.relative_iqr() - 1.0).abs() < 1e-12);
        let one = Spread::of(&[7.0]).expect("non-empty");
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
        assert_eq!(Spread::of(&[]), None);
        // statistics.quantiles([2.0, 4.0], n=4) == [1.5, 3.0, 4.5]
        let two = Spread::of(&[2.0, 4.0]).expect("non-empty");
        assert_eq!((two.q1, two.median, two.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let ten = Spread::of(&ten).expect("non-empty");
        assert_eq!((ten.q1, ten.median, ten.q3), (2.75, 5.5, 8.25));
        assert_eq!(median(&[2.0, 4.0]), Some(3.0));
    }
}
