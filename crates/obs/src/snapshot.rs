//! Immutable exports of a [`Recorder`](crate::Recorder)'s state.
//!
//! A snapshot is plain data: `BTreeMap`s keyed by static metric names
//! plus a time-ordered event list. Two same-seed simulation
//! runs produce `PartialEq`-identical snapshots, and [`ObsSnapshot::to_json`]
//! renders them byte-identically — the determinism contract the
//! experiment harness asserts.

use std::collections::BTreeMap;

use rivulet_types::Time;

use crate::histogram::Histogram;

/// One instantaneous occurrence on the virtual-time timeline.
///
/// `key` and `value` are metric-specific small integers (an actor id,
/// a sensor id, a sequence number); the catalog in `OBSERVABILITY.md`
/// documents the meaning per event name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Virtual time of the occurrence.
    pub at: Time,
    /// Event name (e.g. `"net.crash"`).
    pub name: &'static str,
    /// Metric-specific subject id (e.g. the crashed actor's id).
    pub key: u64,
    /// Metric-specific value (e.g. an event sequence number).
    pub value: u64,
}

/// A complete, deterministic export of everything a recorder has seen.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Log-scale histograms by name.
    pub histograms: BTreeMap<&'static str, Histogram>,
    /// Timeline events in recording order (virtual-time ordered for a
    /// single driver).
    pub events: Vec<TimelineEvent>,
}

impl ObsSnapshot {
    /// Value of counter `name`, zero if absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram `name`, if any sample was recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Overwrites counter `name` — used by layers that fold external
    /// atomics (e.g. fan-out statistics) into a snapshot at export
    /// time.
    pub fn set_counter(&mut self, name: &'static str, value: u64) {
        self.counters.insert(name, value);
    }

    /// All timeline events named `name`, in recording order.
    #[must_use]
    pub fn events_named(&self, name: &str) -> Vec<TimelineEvent> {
        self.events
            .iter()
            .filter(|e| e.name == name)
            .copied()
            .collect()
    }

    /// Folds `other` into this snapshot.
    ///
    /// Every family merges regardless of order, so folding a set of
    /// snapshots in any order gives the same snapshot and the same
    /// JSON:
    ///
    /// * **counters** — summed.
    /// * **histograms** — bucket-wise summed via [`Histogram::merge`];
    ///   count/sum/min/max fold exactly.
    /// * **timeline events** — concatenated, then sorted by
    ///   `(at, name, key, value)`: the multiset union of both
    ///   timelines.
    pub fn merge(&mut self, other: &ObsSnapshot) {
        for (&name, &value) in &other.counters {
            *self.counters.entry(name).or_insert(0) += value;
        }
        for (&name, theirs) in &other.histograms {
            self.histograms.entry(name).or_default().merge(theirs);
        }
        self.events.extend(other.events.iter().copied());
        self.events.sort_by_key(|e| (e.at, e.name, e.key, e.value));
    }

    /// Renders the snapshot as deterministic JSON: map keys are sorted
    /// (`BTreeMap` iteration order), lists keep recording order, and
    /// no wall-clock or environment data is included, so equal
    /// snapshots serialize byte-identically.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"counters\": {");
        push_map(
            &mut out,
            self.counters.iter().map(|(k, v)| (*k, v.to_string())),
        );
        out.push_str("},\n  \"histograms\": {");
        push_map(
            &mut out,
            self.histograms.iter().map(|(k, h)| (*k, histogram_json(h))),
        );
        out.push_str("},\n  \"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"at_us\": {}, \"name\": \"{}\", \"key\": {}, \"value\": {}}}",
                e.at.as_micros(),
                e.name,
                e.key,
                e.value
            ));
        }
        if !self.events.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Appends `"key": value` pairs (values pre-rendered) to a JSON object
/// body.
fn push_map<'k>(out: &mut String, entries: impl Iterator<Item = (&'k str, String)>) {
    let mut first = true;
    for (k, v) in entries {
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(&format!("\"{k}\": {v}"));
    }
}

/// Renders one histogram as a JSON object.
fn histogram_json(h: &Histogram) -> String {
    let buckets: Vec<String> = h
        .nonzero_buckets()
        .iter()
        .map(|(bound, count)| format!("[{bound}, {count}]"))
        .collect();
    format!(
        "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [{}]}}",
        h.count(),
        h.sum(),
        h.min().unwrap_or(0),
        h.max().unwrap_or(0),
        buckets.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_renders_stable_json() {
        let s = ObsSnapshot::default();
        let json = s.to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"events\": []"));
        assert_eq!(json, s.to_json(), "rendering is pure");
    }

    /// Builds a snapshot with counters, a histogram and an event, all
    /// parameterized by `tag` so different tags yield
    /// different-but-overlapping content.
    fn sample(tag: u64) -> ObsSnapshot {
        let mut s = ObsSnapshot::default();
        s.counters.insert("shared.count", 10 + tag);
        if tag.is_multiple_of(2) {
            s.counters.insert("even.count", tag);
        }
        let mut h = Histogram::new();
        h.observe(tag);
        h.observe(1000 + tag);
        s.histograms.insert("delay", h);
        s.events.push(TimelineEvent {
            at: Time::from_millis(tag),
            name: "ev",
            key: tag,
            value: 1,
        });
        s
    }

    #[test]
    fn merge_sums_counters_and_histograms() {
        let mut a = sample(1);
        let b = sample(2);
        a.merge(&b);
        assert_eq!(a.counter("shared.count"), 11 + 12);
        assert_eq!(a.counter("even.count"), 2, "disjoint counters adopted");
        let h = a.histogram("delay").unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(1002));
        assert_eq!(a.events.len(), 2);
    }

    #[test]
    fn merge_with_default_is_identity() {
        let mut a = sample(3);
        let before = a.clone();
        a.merge(&ObsSnapshot::default());
        assert_eq!(a, before);
        let mut empty = ObsSnapshot::default();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn merge_is_associative() {
        let (a, b, c) = (sample(1), sample(2), sample(7));
        // (a + b) + c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a + (b + c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left.to_json(), right.to_json());
    }

    #[test]
    fn merge_counters_histograms_events_are_order_insensitive() {
        // The fleet executor merges each home's snapshot as it
        // finishes; this is the guarantee that makes that safe.
        let parts = [sample(1), sample(2), sample(7), sample(8)];
        let fold = |order: &[usize]| {
            let mut acc = ObsSnapshot::default();
            for &i in order {
                acc.merge(&parts[i]);
            }
            acc
        };
        // Every order of the four parts: the base-4 numbers below 256
        // whose digits are all distinct.
        let orders: Vec<[usize; 4]> = (0..256_usize)
            .map(|n| [n % 4, n / 4 % 4, n / 16 % 4, n / 64])
            .filter(|order| (0..4).all(|i| order.contains(&i)))
            .collect();
        assert_eq!(orders.len(), 24);
        let first = fold(&orders[0]);
        for order in &orders[1..] {
            let acc = fold(order);
            assert_eq!(acc, first, "order {order:?}");
            assert_eq!(acc.to_json(), first.to_json(), "order {order:?}");
        }
    }
}
