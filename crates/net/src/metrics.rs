//! Network accounting, bridged into the unified observability layer.
//!
//! The Fig. 5 experiment of the paper compares the *network overhead* —
//! "the amount of data transferred over the home network for delivering
//! an event" — of Gap, Gapless, and naive broadcast. [`NetMetrics`]
//! charges every routed message (payload + frame header) to the link
//! class it crossed, and mirrors every count into a shared
//! [`rivulet_obs::Recorder`] under the `net.*` and `fanout.*` names
//! cataloged in `OBSERVABILITY.md`. Experiments read the
//! [`rivulet_obs::ObsSnapshot`] produced by [`NetMetrics::obs_snapshot`]
//! (via the drivers' `obs_snapshot()`); the public counter fields
//! remain for harnesses that read them without enabling the recorder.
//! Drops are counted only there, under `net.drops.*`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rivulet_obs::{ObsSnapshot, Recorder};
use rivulet_types::wire::FRAME_HEADER_BYTES;

use crate::link::DropReason;

/// Observability counter name for a drop reason.
#[must_use]
pub fn drop_counter_name(reason: DropReason) -> &'static str {
    match reason {
        DropReason::RandomLoss => "net.drops.random_loss",
        DropReason::Blocked => "net.drops.blocked",
        DropReason::DestinationDown => "net.drops.destination_down",
    }
}

/// Shared counters for the encode-once / frame-coalescing fan-out
/// path.
///
/// The savings happen inside process actors (the core crate), but are
/// reported alongside the network accounting, so the `Arc` is handed to
/// every process at deployment and read back through
/// [`NetMetrics::fanout`]. Plain relaxed atomics: counters only, no
/// synchronization semantics.
#[derive(Debug, Default)]
pub struct FanoutStats {
    frames_coalesced: AtomicU64,
    messages_avoided: AtomicU64,
    encode_bytes_saved: AtomicU64,
}

/// A point-in-time copy of [`FanoutStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FanoutSnapshot {
    /// Multi-command frames emitted (each replaced ≥ 2 messages).
    pub frames_coalesced: u64,
    /// Network messages that never existed thanks to coalescing
    /// (messages folded into frames minus the frames themselves).
    pub messages_avoided: u64,
    /// Encode work skipped by encode-once fan-out: bytes that were
    /// cheap-cloned to additional destinations instead of re-encoded.
    pub encode_bytes_saved: u64,
    /// Always 0: nothing is acknowledged since the flood keeps no
    /// pending entries. Kept because the benchmark harness reads it.
    pub acks_avoided: u64,
}

impl FanoutStats {
    /// Records one emitted frame that folded `msgs` messages together.
    pub fn record_frame(&self, msgs: usize) {
        self.frames_coalesced.fetch_add(1, Ordering::Relaxed);
        self.messages_avoided
            .fetch_add(msgs.saturating_sub(1) as u64, Ordering::Relaxed);
    }

    /// Records `bytes` of encoding skipped by cheap-cloning an already
    /// encoded message to extra destinations.
    pub fn record_encode_reuse(&self, bytes: u64) {
        self.encode_bytes_saved.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Copies the counters.
    #[must_use]
    pub fn snapshot(&self) -> FanoutSnapshot {
        FanoutSnapshot {
            frames_coalesced: self.frames_coalesced.load(Ordering::Relaxed),
            messages_avoided: self.messages_avoided.load(Ordering::Relaxed),
            encode_bytes_saved: self.encode_bytes_saved.load(Ordering::Relaxed),
            acks_avoided: 0,
        }
    }
}

/// Counters accumulated over one driver run.
#[derive(Debug, Clone, Default)]
pub struct NetMetrics {
    /// Messages handed to the network (whether or not delivered).
    pub messages_sent: u64,
    /// Messages actually delivered to their destination actor.
    pub messages_delivered: u64,
    /// Bytes (payload + frame header) sent on inter-process links.
    pub wifi_bytes: u64,
    /// Bytes (payload + frame header) sent on device radio links.
    pub radio_bytes: u64,
    /// Timers fired.
    pub timers_fired: u64,
    /// Encode-once / coalescing savings recorded by process actors
    /// (shared: cloning the metrics clones the handle, not the
    /// counters).
    pub fanout: Arc<FanoutStats>,
    /// Unified observability handle every count is mirrored into
    /// (shared: cloning the metrics clones the handle). Disabled by
    /// default, so mirroring is a no-op unless a harness enables it.
    pub obs: Recorder,
}

impl NetMetrics {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a message of `payload_len` bytes sent over a link of the
    /// given class (`wifi == true` for inter-process).
    pub fn record_send(&mut self, payload_len: usize, wifi: bool) {
        self.messages_sent += 1;
        let total = (payload_len + FRAME_HEADER_BYTES) as u64;
        if wifi {
            self.wifi_bytes += total;
        } else {
            self.radio_bytes += total;
        }
        self.obs.inc("net.messages_sent");
        self.obs.add(
            if wifi {
                "net.wifi_bytes"
            } else {
                "net.radio_bytes"
            },
            total,
        );
        self.obs.observe("net.payload_bytes", payload_len as u64);
    }

    /// Records a successful delivery.
    pub fn record_delivery(&mut self) {
        self.messages_delivered += 1;
        self.obs.inc("net.messages_delivered");
    }

    /// Records a dropped message (`net.drops.*`, recorder only).
    pub fn record_drop(&self, reason: DropReason) {
        self.obs.inc(drop_counter_name(reason));
    }

    /// Records a timer firing.
    pub fn record_timer(&mut self) {
        self.timers_fired += 1;
        self.obs.inc("net.timers_fired");
    }

    /// Exports the unified observability snapshot, folding the
    /// process-side [`FanoutStats`] atomics in as `fanout.*` counters
    /// so one snapshot carries the complete network story.
    #[must_use]
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        let mut snap = self.obs.snapshot();
        if self.obs.is_enabled() {
            let fanout = self.fanout.snapshot();
            snap.set_counter("fanout.frames_coalesced", fanout.frames_coalesced);
            snap.set_counter("fanout.messages_avoided", fanout.messages_avoided);
            snap.set_counter("fanout.encode_bytes_saved", fanout.encode_bytes_saved);
            snap.set_counter("fanout.acks_avoided", fanout.acks_avoided);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_charges_header_and_class() {
        let mut m = NetMetrics::new();
        m.record_send(100, true);
        m.record_send(4, false);
        assert_eq!(m.messages_sent, 2);
        assert_eq!(m.wifi_bytes, (100 + FRAME_HEADER_BYTES) as u64);
        assert_eq!(m.radio_bytes, (4 + FRAME_HEADER_BYTES) as u64);
    }

    #[test]
    fn drops_tallied_by_reason() {
        let m = NetMetrics::new();
        m.obs.set_enabled(true);
        m.record_drop(DropReason::RandomLoss);
        m.record_drop(DropReason::RandomLoss);
        m.record_drop(DropReason::Blocked);
        let snap = m.obs_snapshot();
        assert_eq!(snap.counter("net.drops.random_loss"), 2);
        assert_eq!(snap.counter("net.drops.blocked"), 1);
        assert_eq!(snap.counter("net.drops.destination_down"), 0);
    }

    #[test]
    fn fanout_stats_accumulate() {
        let m = NetMetrics::new();
        let stats = Arc::clone(&m.fanout);
        stats.record_frame(3);
        stats.record_frame(2);
        stats.record_encode_reuse(120);
        let snap = m.fanout.snapshot();
        assert_eq!(snap.frames_coalesced, 2);
        assert_eq!(snap.messages_avoided, 3, "(3-1) + (2-1)");
        assert_eq!(snap.encode_bytes_saved, 120);
        // Cloned metrics share the same counters.
        let clone = m.clone();
        stats.record_frame(2);
        assert_eq!(clone.fanout.snapshot().frames_coalesced, 3);
    }

    #[test]
    fn obs_mirrors_counts_and_folds_fanout() {
        let mut m = NetMetrics::new();
        m.obs.set_enabled(true);
        m.record_send(100, true);
        m.record_send(4, false);
        m.record_delivery();
        m.record_drop(DropReason::Blocked);
        m.record_timer();
        m.fanout.record_frame(3);
        let snap = m.obs_snapshot();
        assert_eq!(snap.counter("net.messages_sent"), 2);
        assert_eq!(snap.counter("net.wifi_bytes"), m.wifi_bytes);
        assert_eq!(snap.counter("net.radio_bytes"), m.radio_bytes);
        assert_eq!(snap.counter("net.messages_delivered"), 1);
        assert_eq!(snap.counter("net.drops.blocked"), 1);
        assert_eq!(snap.counter("net.timers_fired"), 1);
        assert_eq!(snap.counter("fanout.frames_coalesced"), 1);
        assert_eq!(snap.counter("fanout.messages_avoided"), 2);
        assert_eq!(snap.histogram("net.payload_bytes").unwrap().count(), 2);
    }

    #[test]
    fn disabled_obs_snapshot_is_empty() {
        let mut m = NetMetrics::new();
        m.record_send(100, true);
        m.fanout.record_frame(2);
        let snap = m.obs_snapshot();
        assert_eq!(snap.counter("net.messages_sent"), 0);
        assert_eq!(snap.counter("fanout.frames_coalesced"), 0);
    }

    #[test]
    fn delivery_and_timer_counters() {
        let mut m = NetMetrics::new();
        m.record_delivery();
        m.record_timer();
        m.record_timer();
        assert_eq!(m.messages_delivered, 1);
        assert_eq!(m.timers_fired, 2);
    }
}
