//! Immutable exports of a [`Recorder`](crate::Recorder)'s state.
//!
//! A snapshot is plain data: `BTreeMap`s keyed by static metric names
//! plus time-ordered event and span lists. Two same-seed simulation
//! runs produce `PartialEq`-identical snapshots, and [`ObsSnapshot::to_json`]
//! renders them byte-identically — the determinism contract the
//! experiment harness asserts.

use std::collections::BTreeMap;

use rivulet_types::{Duration, Time};

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

/// An interval on the virtual-time timeline, e.g. a `failover` span
/// from crash detection to the first post-promotion application
/// activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (e.g. `"failover"`).
    pub name: &'static str,
    /// Metric-specific subject id (e.g. the crashed actor's id).
    pub key: u64,
    /// When the span was opened.
    pub start: Time,
    /// When the span was closed, or `None` if still open at snapshot
    /// time.
    pub end: Option<Time>,
}

impl SpanRecord {
    /// Duration of the span, if it has closed.
    #[must_use]
    pub fn duration(&self) -> Option<Duration> {
        self.end.map(|end| end.duration_since(self.start))
    }
}

/// A complete, deterministic export of everything a recorder has seen.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Last-write-wins gauges by name.
    pub gauges: BTreeMap<&'static str, i64>,
    /// Log-scale histograms by name.
    pub histograms: BTreeMap<&'static str, Histogram>,
    /// Timeline events in recording order (virtual-time ordered for a
    /// single driver).
    pub events: Vec<TimelineEvent>,
    /// Closed and still-open spans, ordered by `(start, name, key)`.
    pub spans: Vec<SpanRecord>,
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

    /// All spans named `name`, in `(start, name, key)` order.
    #[must_use]
    pub fn spans_named(&self, name: &str) -> Vec<SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .copied()
            .collect()
    }

    /// Folds `other` into this snapshot.
    ///
    /// Merge semantics per family:
    ///
    /// * **counters** — summed. Summation is commutative and
    ///   associative, so any merge order over a set of snapshots
    ///   produces the same totals.
    /// * **gauges** — *last write wins*: `other`'s value overwrites
    ///   any existing entry for the same name. Gauges are levels, not
    ///   totals; summing `store.len` across homes would fabricate a
    ///   store that exists nowhere. Callers that need a fleet-wide
    ///   level should fold gauges explicitly (min/max/mean) before or
    ///   after merging. Because of this rule, gauge values depend on
    ///   merge order — merge in a canonical order (the fleet executor
    ///   merges in home-index order) for deterministic output.
    /// * **histograms** — bucket-wise summed via
    ///   [`Histogram::merge`]; count/sum/min/max fold exactly, so
    ///   histogram merging is also order-insensitive.
    /// * **timeline events** — concatenated, then sorted by
    ///   `(at, name, key, value)`. The result is the deterministic
    ///   multiset union of both timelines regardless of merge order.
    /// * **spans** — concatenated, then sorted by `(start, name,
    ///   key, end)`, matching the ordering contract of
    ///   [`Recorder::snapshot`](crate::Recorder::snapshot).
    pub fn merge(&mut self, other: &ObsSnapshot) {
        for (&name, &value) in &other.counters {
            *self.counters.entry(name).or_insert(0) += value;
        }
        for (&name, &value) in &other.gauges {
            self.gauges.insert(name, value);
        }
        for (&name, theirs) in &other.histograms {
            self.histograms.entry(name).or_default().merge(theirs);
        }
        self.events.extend(other.events.iter().copied());
        self.events.sort_by_key(|e| (e.at, e.name, e.key, e.value));
        self.spans.extend(other.spans.iter().copied());
        self.spans.sort_by_key(|s| (s.start, s.name, s.key, s.end));
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
        out.push_str("},\n  \"gauges\": {");
        push_map(
            &mut out,
            self.gauges.iter().map(|(k, v)| (*k, v.to_string())),
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
        out.push_str("],\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let end = match s.end {
                Some(t) => t.as_micros().to_string(),
                None => "null".into(),
            };
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"key\": {}, \"start_us\": {}, \"end_us\": {}}}",
                s.name,
                s.key,
                s.start.as_micros(),
                end
            ));
        }
        if !self.spans.is_empty() {
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

    #[test]
    fn span_duration() {
        let open = SpanRecord {
            name: "failover",
            key: 1,
            start: Time::from_secs(24),
            end: None,
        };
        assert_eq!(open.duration(), None);
        let closed = SpanRecord {
            end: Some(Time::from_millis(26_500)),
            ..open
        };
        assert_eq!(closed.duration(), Some(Duration::from_millis(2_500)));
    }

    /// Builds a snapshot with counters, a gauge, a histogram, events,
    /// and a span, all parameterized by `tag` so different tags yield
    /// different-but-overlapping content.
    fn sample(tag: u64) -> ObsSnapshot {
        let mut s = ObsSnapshot::default();
        s.counters.insert("shared.count", 10 + tag);
        if tag.is_multiple_of(2) {
            s.counters.insert("even.count", tag);
        }
        s.gauges.insert("level", tag as i64);
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
        s.spans.push(SpanRecord {
            name: "span",
            key: tag,
            start: Time::from_millis(tag),
            end: Some(Time::from_millis(tag + 5)),
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
        assert_eq!(a.spans.len(), 2);
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
        // Gauges are last-write-wins and therefore order-sensitive by
        // contract; everything else must not depend on merge order.
        let parts = [sample(1), sample(2), sample(7), sample(8)];
        let fold = |order: &[usize]| {
            let mut acc = ObsSnapshot::default();
            for &i in order {
                acc.merge(&parts[i]);
            }
            acc.gauges.clear();
            acc
        };
        let forward = fold(&[0, 1, 2, 3]);
        let backward = fold(&[3, 2, 1, 0]);
        let shuffled = fold(&[2, 0, 3, 1]);
        assert_eq!(forward, backward);
        assert_eq!(forward, shuffled);
        assert_eq!(forward.to_json(), shuffled.to_json());
    }

    #[test]
    fn merge_gauges_take_the_later_write() {
        let mut a = sample(1);
        a.merge(&sample(2));
        assert_eq!(a.gauges.get("level"), Some(&2));
        let mut b = sample(2);
        b.merge(&sample(1));
        assert_eq!(b.gauges.get("level"), Some(&1));
    }
}
