//! Windows: bounded event buffers with trigger and evictor policies.
//!
//! A window is "a contiguous and finite portion of an event stream"
//! (§6.1) with three knobs: a **bound** on the buffer (count or
//! time-span), a **trigger policy** deciding when the operator sees the
//! buffer, and an **evictor policy** purging old events. Combining them
//! yields tumbling batches, sliding windows, burst suppression — the
//! semantics of Table 2's `TimeWindow`/`CountWindow` API.

use std::collections::VecDeque;

use rivulet_types::{Duration, Event, Time};

/// Bound on the events a window retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowBound {
    /// At most `n` events (oldest dropped first).
    Count(usize),
    /// Only events younger than the span (relative to now).
    Span(Duration),
}

/// When the operator is presented with the buffer (§6.1's trigger
/// policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerPolicy {
    /// Fire when `n` events have accumulated since the last trigger.
    OnCount(usize),
    /// Fire every `d` of time (the runtime arms the timer).
    Every(Duration),
}

/// How events are purged (§6.1's evictor policy); applied before each
/// trigger snapshot in addition to the structural bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictorPolicy {
    /// Keep only the last `n` events.
    KeepLast(usize),
    /// Keep only events younger than `d`.
    KeepWithin(Duration),
}

/// Full window specification.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSpec {
    /// Structural bound of the buffer.
    pub bound: WindowBound,
    /// Trigger policy.
    pub trigger: TriggerPolicy,
    /// Optional additional evictor.
    pub evictor: Option<EvictorPolicy>,
    /// Whether a successful trigger clears the buffer: `true` yields
    /// disjoint batches, `false` sliding windows (§6.1).
    pub clear_on_trigger: bool,
}

impl WindowSpec {
    /// `CountWindow(n)` of Table 2: buffer `n`, trigger on `n`,
    /// disjoint batches.
    #[must_use]
    pub fn count(n: usize) -> Self {
        assert!(n > 0, "count window needs a positive count");
        Self {
            bound: WindowBound::Count(n),
            trigger: TriggerPolicy::OnCount(n),
            evictor: None,
            clear_on_trigger: true,
        }
    }

    /// `TimeWindow(span)` of Table 2: buffer the span, trigger every
    /// span, disjoint batches.
    #[must_use]
    pub fn time(span: Duration) -> Self {
        assert!(span > Duration::ZERO, "time window needs a positive span");
        Self {
            bound: WindowBound::Span(span),
            trigger: TriggerPolicy::Every(span),
            evictor: None,
            clear_on_trigger: true,
        }
    }

    /// Replaces the trigger policy.
    #[must_use]
    pub fn with_trigger(mut self, trigger: TriggerPolicy) -> Self {
        self.trigger = trigger;
        self
    }

    /// Adds an evictor policy.
    #[must_use]
    pub fn with_evictor(mut self, evictor: EvictorPolicy) -> Self {
        self.evictor = Some(evictor);
        self
    }

    /// Makes the window sliding: triggers do not clear the buffer.
    ///
    /// The §6.1 example — a median over the last N camera frames —
    /// buffers N, triggers on every frame and keeps the last N. The
    /// structural bound must be N as well: `count(1)` holds one frame
    /// whatever the evictor says.
    ///
    /// ```
    /// use rivulet_core::app::{EvictorPolicy, TriggerPolicy, Window, WindowSpec};
    /// use rivulet_types::{Event, EventId, EventKind, SensorId, Time};
    ///
    /// const N: usize = 4;
    /// let spec = WindowSpec::count(N)
    ///     .sliding()
    ///     .with_trigger(TriggerPolicy::OnCount(1))
    ///     .with_evictor(EvictorPolicy::KeepLast(N));
    /// let mut window = Window::new(spec);
    /// let mut frames = Vec::new();
    /// for seq in 0..N as u64 + 2 {
    ///     let frame = Event::new(EventId::new(SensorId(1), seq), EventKind::Image, Time::ZERO);
    ///     assert!(window.push(frame, Time::ZERO), "every frame triggers");
    ///     window.snapshot(Time::ZERO, &mut frames);
    /// }
    /// assert_eq!(window.len(), N, "the buffer keeps N frames");
    /// assert_eq!(frames.len(), N, "the median sees the last N frames");
    /// assert_eq!(frames[0].id.seq, 2);
    /// ```
    #[must_use]
    pub fn sliding(mut self) -> Self {
        self.clear_on_trigger = false;
        self
    }
}

/// A live window buffering one input stream of one operator.
#[derive(Debug)]
pub struct Window {
    spec: WindowSpec,
    buf: VecDeque<Event>,
    since_trigger: usize,
}

impl Window {
    /// Creates an empty window.
    #[must_use]
    pub fn new(spec: WindowSpec) -> Self {
        Self {
            spec,
            buf: VecDeque::new(),
            since_trigger: 0,
        }
    }

    /// Number of buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Inserts an event; returns `true` if a count trigger fired
    /// (the caller then takes a [`Window::snapshot`]).
    pub fn push(&mut self, event: Event, now: Time) -> bool {
        self.buf.push_back(event);
        self.since_trigger += 1;
        self.enforce_bound(now);
        match self.spec.trigger {
            TriggerPolicy::OnCount(n) => {
                if self.since_trigger >= n {
                    self.since_trigger = 0;
                    true
                } else {
                    false
                }
            }
            TriggerPolicy::Every(_) => false,
        }
    }

    /// A non-consuming view of the buffer: applies the evictor but
    /// never clears, regardless of the spec. Used when *another*
    /// stream's trigger combines this stream's current contents.
    /// Replaces `out`'s contents, keeping its capacity.
    pub fn peek(&mut self, now: Time, out: &mut Vec<Event>) {
        self.apply_evictor(now);
        out.clear();
        out.extend(self.buf.iter().cloned());
    }

    /// Takes the triggered view of the buffer into `out` (as
    /// [`Window::peek`]) and clears the buffer if the spec says so.
    pub fn snapshot(&mut self, now: Time, out: &mut Vec<Event>) {
        self.peek(now, out);
        if self.spec.clear_on_trigger {
            self.buf.clear();
            self.since_trigger = 0;
        }
    }

    fn enforce_bound(&mut self, now: Time) {
        match self.spec.bound {
            WindowBound::Count(n) => {
                while self.buf.len() > n {
                    self.buf.pop_front();
                }
            }
            WindowBound::Span(d) => {
                while self
                    .buf
                    .front()
                    .is_some_and(|e| now.duration_since(e.emitted_at) > d)
                {
                    self.buf.pop_front();
                }
            }
        }
    }

    fn apply_evictor(&mut self, now: Time) {
        match self.spec.evictor {
            None => {}
            Some(EvictorPolicy::KeepLast(n)) => {
                while self.buf.len() > n {
                    self.buf.pop_front();
                }
            }
            Some(EvictorPolicy::KeepWithin(d)) => {
                while self
                    .buf
                    .front()
                    .is_some_and(|e| now.duration_since(e.emitted_at) > d)
                {
                    self.buf.pop_front();
                }
            }
        }
        self.enforce_bound(now);
    }
}

#[cfg(test)]
impl Window {
    /// The period at which this window's timer fires, if it is
    /// time-triggered. Hosts list timers from the spec
    /// ([`super::graph::AppSpec::timer_streams`]); the reference runtime
    /// lists them from its windows to check that list.
    pub(crate) fn timer_period(&self) -> Option<Duration> {
        match self.spec.trigger {
            TriggerPolicy::Every(d) => Some(d),
            TriggerPolicy::OnCount(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rivulet_types::{EventId, EventKind, SensorId};

    fn snapshot(w: &mut Window, now: Time) -> Vec<Event> {
        let mut out = Vec::new();
        w.snapshot(now, &mut out);
        out
    }

    fn ev(seq: u64, at_ms: u64) -> Event {
        Event::new(
            EventId::new(SensorId(1), seq),
            EventKind::Motion,
            Time::from_millis(at_ms),
        )
    }

    #[test]
    fn count_window_triggers_on_nth_event() {
        let mut w = Window::new(WindowSpec::count(3));
        let now = Time::from_secs(1);
        assert!(!w.push(ev(0, 0), now));
        assert!(!w.push(ev(1, 0), now));
        assert!(w.push(ev(2, 0), now), "third event triggers");
        let snap = snapshot(&mut w, now);
        assert_eq!(snap.len(), 3);
        assert!(w.is_empty(), "disjoint batches clear");
        assert!(!w.push(ev(3, 0), now), "counter restarted");
    }

    #[test]
    fn count_window_of_one_fires_every_event() {
        // The intrusion-detection wiring of Listing 1.
        let mut w = Window::new(WindowSpec::count(1));
        for seq in 0..5 {
            assert!(w.push(ev(seq, 0), Time::ZERO));
            assert_eq!(snapshot(&mut w, Time::ZERO).len(), 1);
        }
    }

    #[test]
    fn time_window_needs_timer_and_collects_span() {
        let spec = WindowSpec::time(Duration::from_secs(60));
        assert_eq!(spec.trigger, TriggerPolicy::Every(Duration::from_secs(60)));
        let mut w = Window::new(spec);
        let now = Time::from_secs(30);
        assert!(
            !w.push(ev(0, 1_000), now),
            "time windows never count-trigger"
        );
        assert!(!w.push(ev(1, 20_000), now));
        let snap = snapshot(&mut w, Time::from_secs(60));
        assert_eq!(snap.len(), 2);
        assert!(w.is_empty());
    }

    #[test]
    fn span_bound_drops_stale_events_on_push() {
        let spec = WindowSpec::time(Duration::from_secs(10));
        let mut w = Window::new(spec);
        let _ = w.push(ev(0, 0), Time::from_secs(1));
        let _ = w.push(ev(1, 14_000), Time::from_secs(15));
        // Event 0 is 15s old > 10s span: dropped by the bound.
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn count_bound_drops_oldest() {
        let mut w = Window::new(WindowSpec::count(5).with_trigger(TriggerPolicy::OnCount(100)));
        for seq in 0..8 {
            let _ = w.push(ev(seq, 0), Time::ZERO);
        }
        assert_eq!(w.len(), 5);
        let snap = snapshot(&mut w, Time::ZERO);
        assert_eq!(snap.first().unwrap().id.seq, 3, "oldest three dropped");
    }

    #[test]
    fn sliding_window_keeps_buffer_across_triggers() {
        // Median-of-last-N surveillance pattern (§6.1): buffer 4,
        // trigger per event, never clear.
        let spec = WindowSpec::count(4)
            .sliding()
            .with_trigger(TriggerPolicy::OnCount(1))
            .with_evictor(EvictorPolicy::KeepLast(4));
        let mut w = Window::new(spec);
        let mut sizes = Vec::new();
        for seq in 0..6 {
            assert!(w.push(ev(seq, 0), Time::ZERO));
            sizes.push(snapshot(&mut w, Time::ZERO).len());
        }
        assert_eq!(sizes, vec![1, 2, 3, 4, 4, 4]);
        assert_eq!(w.len(), 4, "buffer retained");
    }

    #[test]
    fn keep_within_evictor_prunes_at_snapshot() {
        let spec = WindowSpec::count(100)
            .with_trigger(TriggerPolicy::OnCount(100))
            .with_evictor(EvictorPolicy::KeepWithin(Duration::from_secs(5)));
        let mut w = Window::new(spec);
        let _ = w.push(ev(0, 0), Time::from_millis(1));
        let _ = w.push(ev(1, 7_000), Time::from_millis(7_001));
        let snap = snapshot(&mut w, Time::from_secs(8));
        assert_eq!(snap.len(), 1, "event 0 older than 5s evicted");
        assert_eq!(snap[0].id.seq, 1);
    }

    #[test]
    #[should_panic(expected = "count window needs a positive count")]
    fn zero_count_window_panics() {
        let _ = WindowSpec::count(0);
    }

    #[test]
    #[should_panic(expected = "time window needs a positive span")]
    fn zero_time_window_panics() {
        let _ = WindowSpec::time(Duration::ZERO);
    }
}
