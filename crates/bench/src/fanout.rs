//! The fan-out micro workload behind `BENCH_fanout.json`: the
//! per-activation encode path in isolation. The *naive* variant
//! re-encodes every protocol message once per peer and sends each
//! unframed — exactly what the process actor did before encode-once
//! fan-out landed. The *coalesced* variant encodes each message once
//! into pooled buffers and assembles one multi-command frame per
//! destination from the shared parts. Both run in the same binary so
//! the comparison is apples-to-apples. Whole-platform throughput,
//! bytes per event and the coalescing counters are measured by the
//! `perf/` harness.

use std::time::Instant;

use bytes::Bytes;
use rivulet_core::messages::{Frame, ProcMsg};
use rivulet_obs::Recorder;
use rivulet_types::wire::{Wire, WriterPool};
use rivulet_types::{Event, EventId, EventKind, Payload, ProcessId, SensorId, Time};

/// One micro-workload shape: an actor activation that must fan
/// `batch` broadcast messages out to `peers` destinations.
#[derive(Debug, Clone, Copy)]
pub struct MicroWorkload {
    /// Fan-out destinations per activation.
    pub peers: usize,
    /// Messages bound for each destination within one activation.
    pub batch: usize,
    /// Event payload blob size.
    pub payload_bytes: usize,
}

impl MicroWorkload {
    /// The broadcast-heavy shape: a 5-process home (4 peers) where a
    /// burst of 1 KiB camera events floods within one activation.
    #[must_use]
    pub fn broadcast_heavy() -> Self {
        Self {
            peers: 4,
            batch: 4,
            payload_bytes: 1024,
        }
    }

    /// The ring shape: one forward per activation, small payload.
    #[must_use]
    pub fn ring() -> Self {
        Self {
            peers: 1,
            batch: 1,
            payload_bytes: 8,
        }
    }
}

/// Builds the `batch` broadcast messages of one activation,
/// deterministic in `activation`.
#[must_use]
pub fn activation_msgs(w: &MicroWorkload, activation: u64) -> Vec<ProcMsg> {
    (0..w.batch as u64)
        .map(|i| {
            let seq = activation * w.batch as u64 + i;
            let payload = if w.payload_bytes > 8 {
                Payload::Blob(Bytes::from(vec![(seq & 0xff) as u8; w.payload_bytes]))
            } else {
                Payload::Scalar(seq as f64)
            };
            ProcMsg::Broadcast {
                event: Event::with_payload(
                    EventId::new(SensorId(1), seq),
                    EventKind::Image,
                    payload,
                    Time::from_millis(seq),
                ),
                origin: ProcessId(0),
            }
        })
        .collect()
}

/// The pre-optimization send path: every message is encoded afresh for
/// every peer and shipped unframed. Returns total payload bytes
/// produced (consumed by the caller so the work cannot be optimized
/// away).
#[must_use]
pub fn fan_out_naive(msgs: &[ProcMsg], peers: usize) -> u64 {
    let mut bytes = 0u64;
    for _ in 0..peers {
        for msg in msgs {
            bytes += msg.to_bytes().len() as u64;
        }
    }
    bytes
}

/// The optimized send path: each message is encoded once into a pooled
/// buffer; every destination receives cheap clones of the shared
/// parts, folded into one multi-command frame when the activation
/// queued more than one. A flood hands every destination the same
/// parts, so (as in the process outbox) the frame itself is assembled
/// once and cheap-cloned per peer.
///
/// The path carries a [`Recorder`] exactly where the production outbox
/// does; the micro benchmark passes a *disabled* recorder, which is
/// how the "disabled recorder is a no-op" claim is verified — the
/// measured throughput must stay within noise of the uninstrumented
/// baseline in `BENCH_fanout.json`.
#[must_use]
pub fn fan_out_coalesced(
    msgs: &[ProcMsg],
    peers: usize,
    pool: &mut WriterPool,
    obs: &Recorder,
) -> u64 {
    let parts: Vec<Bytes> = msgs.iter().map(|m| pool.encode(m)).collect();
    let mut bytes = 0u64;
    if parts.len() == 1 {
        for _ in 0..peers {
            bytes += parts[0].clone().len() as u64;
            obs.inc("fanout.sends");
        }
        obs.add("fanout.bytes", bytes);
        return bytes;
    }
    let mut w = pool.checkout();
    let framed = Frame::encode_parts(&mut w, &parts);
    pool.put_back(w);
    for _ in 0..peers {
        bytes += framed.clone().len() as u64;
        obs.inc("fanout.sends");
    }
    obs.add("fanout.bytes", bytes);
    obs.observe("fanout.frame_bytes", framed.len() as u64);
    bytes
}

/// Result of timing one micro variant.
#[derive(Debug, Clone, Copy)]
pub struct MicroPoint {
    /// Broadcast events fanned out per wall-clock second.
    pub events_per_sec: f64,
    /// Network payload bytes emitted per event.
    pub bytes_per_event: f64,
}

/// Times `activations` activations of `w` through one of the two send
/// paths (`coalesced` selects which). Message construction happens
/// outside the timed region — only the send path is measured.
#[must_use]
pub fn run_micro(w: &MicroWorkload, activations: u64, coalesced: bool) -> MicroPoint {
    let mut pool = WriterPool::new();
    // A disabled recorder on the timed path: the instrumentation cost
    // the production outbox pays when observability is off.
    let obs = Recorder::default();
    // A small rotation of pre-built activations keeps cache effects
    // realistic without timing event construction itself.
    let prebuilt: Vec<Vec<ProcMsg>> = (0..8).map(|a| activation_msgs(w, a)).collect();
    let mut total_bytes = 0u64;
    let start = Instant::now();
    for a in 0..activations {
        let msgs = &prebuilt[(a % prebuilt.len() as u64) as usize];
        total_bytes += if coalesced {
            fan_out_coalesced(msgs, w.peers, &mut pool, &obs)
        } else {
            fan_out_naive(msgs, w.peers)
        };
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let events = activations * w.batch as u64;
    MicroPoint {
        events_per_sec: events as f64 / elapsed,
        bytes_per_event: total_bytes as f64 / events as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{run_delivery, DeliveryScenario};
    use rivulet_core::config::ForwardingMode;
    use rivulet_core::delivery::Delivery;
    use rivulet_types::Duration;

    #[test]
    fn both_paths_agree_on_message_count_semantics() {
        let w = MicroWorkload::broadcast_heavy();
        let msgs = activation_msgs(&w, 0);
        assert_eq!(msgs.len(), w.batch);
        let mut pool = WriterPool::new();
        let naive = fan_out_naive(&msgs, w.peers);
        let coalesced = fan_out_coalesced(&msgs, w.peers, &mut pool, &Recorder::default());
        // Coalescing adds frame framing but removes nothing: the byte
        // totals stay within the frame-overhead margin of each other.
        assert!(naive > 0 && coalesced > 0);
        assert!(
            coalesced < naive + (w.peers * 64) as u64,
            "coalesced {coalesced} vs naive {naive}"
        );
    }

    #[test]
    fn single_message_ring_shape_sends_unframed() {
        let w = MicroWorkload::ring();
        let msgs = activation_msgs(&w, 3);
        let mut pool = WriterPool::new();
        // One part → no frame: byte-for-byte the plain encoding.
        assert_eq!(
            fan_out_coalesced(&msgs, w.peers, &mut pool, &Recorder::default()),
            msgs[0].to_bytes().len() as u64
        );
    }

    #[test]
    fn disabled_recorder_observes_nothing_enabled_recorder_counts_sends() {
        let w = MicroWorkload::broadcast_heavy();
        let msgs = activation_msgs(&w, 0);
        let mut pool = WriterPool::new();
        let off = Recorder::default();
        let _ = fan_out_coalesced(&msgs, w.peers, &mut pool, &off);
        assert_eq!(off.snapshot(), rivulet_obs::ObsSnapshot::default());
        let on = Recorder::default();
        on.set_enabled(true);
        let bytes = fan_out_coalesced(&msgs, w.peers, &mut pool, &on);
        let snap = on.snapshot();
        assert_eq!(snap.counter("fanout.sends"), w.peers as u64);
        assert_eq!(snap.counter("fanout.bytes"), bytes);
    }

    #[test]
    fn broadcast_run_records_savings() {
        let mut cfg = DeliveryScenario::paper_default(Delivery::Gapless);
        cfg.event_bytes = 1024;
        cfg.rate_per_sec = 50;
        cfg.duration = Duration::from_secs(10);
        cfg.forwarding = ForwardingMode::EagerBroadcast;
        let out = run_delivery(&cfg);
        assert!(
            out.fanout.encode_bytes_saved > 0,
            "broadcast fan-out should reuse encodings: {:?}",
            out.fanout
        );
        assert!(
            out.fanout.frames_coalesced > 0,
            "same-destination traffic should coalesce: {:?}",
            out.fanout
        );
    }
}
