//! Unified observability layer for Rivulet.
//!
//! The paper's whole evaluation (§8, Figs. 5–8) is built on
//! measurements the platform itself must expose: bytes on the Wi-Fi
//! and low-power radio networks per delivery guarantee (Fig. 5),
//! events processed per second around an induced crash (Fig. 7),
//! recovery durations, WAL flush behaviour. This crate is the single
//! substrate those measurements flow through.
//!
//! # Model
//!
//! A [`Recorder`] is a cheap, cloneable handle onto shared recording
//! state. Every layer of the platform — the network drivers, the
//! process runtime, the WAL — holds a clone and records into it:
//!
//! * **counters** — monotonic totals (`net.wifi_bytes`),
//! * **histograms** — base-2 log-scale distributions
//!   ([`Histogram`], e.g. `app.delay_us`, or `store.len` sampled per
//!   tick),
//! * **timeline events** — instantaneous virtual-time occurrences
//!   ([`TimelineEvent`], e.g. `net.crash`). An interval is two
//!   events: the failover of Fig. 7 runs from a `net.crash` to the
//!   next `app.delivery`.
//!
//! All three merge regardless of order ([`ObsSnapshot::merge`]), so
//! snapshots from many homes fold into one result that does not
//! depend on which home finished first.
//!
//! Recording is a **no-op while the recorder is disabled** (the
//! default): every record method begins with one relaxed atomic load
//! and returns immediately, so always-on instrumentation costs nothing
//! measurable on hot paths — the fan-out micro-bench verifies this.
//!
//! All timestamps are **virtual time** ([`rivulet_types::Time`])
//! supplied by the caller; the recorder never reads a wall clock.
//! Under the deterministic simulator, two same-seed runs therefore
//! produce identical [`ObsSnapshot`]s, and
//! [`ObsSnapshot::to_json`] renders them byte-identically.
//!
//! The full metric/event catalog lives in `OBSERVABILITY.md` at
//! the repository root.
//!
//! # Example
//!
//! ```
//! use rivulet_obs::Recorder;
//! use rivulet_types::Time;
//!
//! let rec = Recorder::new();
//! rec.add("net.wifi_bytes", 100); // disabled: no-op
//! rec.set_enabled(true);
//! rec.add("net.wifi_bytes", 100);
//! rec.observe("app.delay_us", 80_000);
//! rec.event("net.crash", Time::from_secs(24), 3, 0);
//! let snap = rec.snapshot();
//! assert_eq!(snap.counter("net.wifi_bytes"), 100);
//! assert_eq!(snap.events_named("net.crash")[0].at, Time::from_secs(24));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod histogram;
mod snapshot;

pub use histogram::Histogram;
pub use snapshot::{ObsSnapshot, TimelineEvent};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rivulet_types::Time;

/// Mutable recording state behind the recorder's mutex.
#[derive(Debug, Default)]
struct State {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    events: Vec<TimelineEvent>,
}

#[derive(Debug, Default)]
struct Inner {
    enabled: AtomicBool,
    state: Mutex<State>,
}

impl Inner {
    /// Locks the state, recovering the data if a panicking thread
    /// poisoned the mutex (a crashed actor must not take the
    /// observability layer down with it).
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A cheap, cloneable handle onto shared observability state.
///
/// Clones share state: enabling one handle enables them all, and all
/// record into the same snapshot. A freshly created recorder is
/// **disabled** — every record call is a no-op costing one relaxed
/// atomic load — so instrumentation can be threaded through
/// construction unconditionally and switched on only by harnesses
/// that read it.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl Recorder {
    /// Creates a disabled recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a recorder that is already enabled.
    #[must_use]
    pub fn enabled() -> Self {
        let rec = Self::new();
        rec.set_enabled(true);
        rec
    }

    /// Whether recording is on.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off for this handle and every clone.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Adds `n` to counter `name`.
    pub fn add(&self, name: &'static str, n: u64) {
        if !self.is_enabled() {
            return;
        }
        *self.inner.lock().counters.entry(name).or_insert(0) += n;
    }

    /// Adds 1 to counter `name`.
    pub fn inc(&self, name: &'static str) {
        self.add(name, 1);
    }

    /// Records `value` into histogram `name`.
    pub fn observe(&self, name: &'static str, value: u64) {
        if !self.is_enabled() {
            return;
        }
        self.inner
            .lock()
            .histograms
            .entry(name)
            .or_default()
            .observe(value);
    }

    /// Records an instantaneous timeline event at virtual time `at`.
    pub fn event(&self, name: &'static str, at: Time, key: u64, value: u64) {
        if !self.is_enabled() {
            return;
        }
        self.inner.lock().events.push(TimelineEvent {
            at,
            name,
            key,
            value,
        });
    }

    /// Exports everything recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> ObsSnapshot {
        let state = self.inner.lock();
        ObsSnapshot {
            counters: state.counters.clone(),
            histograms: state.histograms.clone(),
            events: state.events.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new();
        assert!(!rec.is_enabled());
        rec.add("c", 5);
        rec.observe("h", 10);
        rec.event("e", Time::ZERO, 0, 0);
        assert_eq!(rec.snapshot(), ObsSnapshot::default());
    }

    #[test]
    fn clones_share_state_and_enable_flag() {
        let a = Recorder::new();
        let b = a.clone();
        b.set_enabled(true);
        assert!(a.is_enabled());
        a.inc("c");
        b.inc("c");
        assert_eq!(a.snapshot().counter("c"), 2);
    }

    #[test]
    fn counters_and_histograms() {
        let rec = Recorder::enabled();
        rec.add("bytes", 10);
        rec.add("bytes", 32);
        rec.observe("delay", 100);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("bytes"), 42);
        assert_eq!(snap.histogram("delay").unwrap().count(), 1);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn snapshot_json_is_deterministic() {
        let build = || {
            let rec = Recorder::enabled();
            rec.add("z.last", 1);
            rec.add("a.first", 2);
            rec.observe("h", 7);
            rec.event("ev", Time::from_millis(5), 1, 2);
            rec.snapshot()
        };
        let (a, b) = (build(), build());
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        // Sorted map keys: "a.first" renders before "z.last".
        let json = a.to_json();
        assert!(json.find("a.first").unwrap() < json.find("z.last").unwrap());
    }

    #[test]
    fn poisoned_lock_recovers_data() {
        let rec = Recorder::enabled();
        rec.inc("before");
        let poisoner = rec.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.state.lock().unwrap();
            panic!("poison the recorder lock");
        })
        .join();
        rec.inc("after");
        let snap = rec.snapshot();
        assert_eq!(snap.counter("before"), 1);
        assert_eq!(snap.counter("after"), 1);
    }
}
