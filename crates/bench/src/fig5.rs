//! Fig. 5 — network overhead normalized against Gap.
//!
//! Five processes; the number of event-receiving processes varies from
//! one to five; Gapless (ring) and the naive broadcast baseline are
//! normalized against Gap's bytes-on-wire for the same workload.
//! Platform background traffic (keep-alives) is measured on a run of
//! the same events that forwards none of them and subtracted, leaving exactly the "data
//! transferred over the home network for delivering an event" of §8.2.

use rivulet_core::config::ForwardingMode;
use rivulet_core::delivery::Delivery;
use rivulet_types::Duration;

use crate::common::{background_wifi_bytes, run_delivery, DeliveryScenario};

/// The protocols compared by the figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Gap chain (the normalization baseline).
    Gap,
    /// Gapless ring (§4.1).
    GaplessRing,
    /// Naive broadcast-from-every-receiver baseline.
    Broadcast,
}

impl Protocol {
    fn to_config(self) -> (Delivery, ForwardingMode) {
        match self {
            Protocol::Gap => (Delivery::Gap, ForwardingMode::Ring),
            Protocol::GaplessRing => (Delivery::Gapless, ForwardingMode::Ring),
            Protocol::Broadcast => (Delivery::Gapless, ForwardingMode::EagerBroadcast),
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Protocol::Gap => write!(f, "Gap"),
            Protocol::GaplessRing => write!(f, "Gapless"),
            Protocol::Broadcast => write!(f, "Broadcast"),
        }
    }
}

/// Delivery-attributable WiFi bytes for one configuration.
#[must_use]
pub fn delivery_bytes(
    protocol: Protocol,
    receiving: usize,
    event_bytes: usize,
    duration: Duration,
) -> u64 {
    let (delivery, forwarding) = protocol.to_config();
    let mut cfg = DeliveryScenario::paper_default(delivery);
    cfg.forwarding = forwarding;
    cfg.event_bytes = event_bytes;
    cfg.duration = duration;
    // Receivers 1..=receiving, keeping the app process (0) a
    // non-receiver until all five receive.
    cfg.receivers = (0..receiving).map(|i| (i + 1) % 5).collect();
    cfg.receivers.sort_unstable();
    cfg.obs = true;
    let total = run_delivery(&cfg).obs.counter("net.wifi_bytes");
    let background = background_wifi_bytes(&cfg);
    total.saturating_sub(background)
}

/// One normalized cell of the figure.
#[derive(Debug, Clone)]
pub struct OverheadPoint {
    /// Protocol measured.
    pub protocol: Protocol,
    /// Number of event-receiving processes.
    pub receiving: usize,
    /// Event size label.
    pub size_label: &'static str,
    /// Bytes relative to Gap for the same cell.
    pub normalized: f64,
}

/// Full sweep of the figure: receiving ∈ 1..=5, sizes 4 B / 1 KB / 20 KB.
///
/// Normalization follows the figure's dotted line: a single Gap
/// reference per event size (one receiving process forwarding one hop
/// per event). Normalizing per-cell would divide by zero at five
/// receivers, where Gap's app-bearing process hears the sensor
/// directly and sends nothing.
#[must_use]
pub fn sweep(duration: Duration) -> Vec<OverheadPoint> {
    let sizes: [(&str, usize); 3] = [("4B", 4), ("1KB", 1024), ("20KB", 20 * 1024)];
    let mut out = Vec::new();
    for (label, bytes) in sizes {
        let gap_ref = delivery_bytes(Protocol::Gap, 1, bytes, duration).max(1);
        for receiving in 1..=5 {
            for protocol in [Protocol::GaplessRing, Protocol::Broadcast] {
                let measured = delivery_bytes(protocol, receiving, bytes, duration);
                out.push(OverheadPoint {
                    protocol,
                    receiving,
                    size_label: label,
                    normalized: measured as f64 / gap_ref as f64,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHORT: Duration = Duration::from_secs(15);

    #[test]
    fn gapless_ring_overhead_is_constant_in_receivers() {
        // The paper's key claim: ring cost is n messages regardless of
        // how many processes heard the sensor. At 20 KB the payload
        // drowns the metadata, so bytes count messages: never more than
        // n = 5 of Gap's one, whether the nth is an express copy or a
        // colliding ring's last forward.
        let bytes = 20 * 1024;
        let gap = delivery_bytes(Protocol::Gap, 1, bytes, SHORT);
        for receiving in 1..=5 {
            let ring = delivery_bytes(Protocol::GaplessRing, receiving, bytes, SHORT);
            assert!(
                ring as f64 <= 5.0 * 1.01 * gap as f64,
                "{receiving} rx: ring {ring} B against Gap {gap} B"
            );
        }
    }

    #[test]
    fn broadcast_overhead_grows_with_receivers() {
        let one = delivery_bytes(Protocol::Broadcast, 1, 4, SHORT);
        let five = delivery_bytes(Protocol::Broadcast, 5, 4, SHORT);
        assert!(
            five as f64 >= 2.5 * one as f64,
            "broadcast should blow up with receivers: {one} vs {five}"
        );
    }

    #[test]
    fn gapless_beats_broadcast_at_multiple_receivers() {
        let ring = delivery_bytes(Protocol::GaplessRing, 3, 4, SHORT);
        let bcast = delivery_bytes(Protocol::Broadcast, 3, 4, SHORT);
        assert!(ring < bcast, "ring {ring} vs broadcast {bcast}");
    }

    #[test]
    fn gap_is_cheapest() {
        let gap = delivery_bytes(Protocol::Gap, 3, 4, SHORT);
        let ring = delivery_bytes(Protocol::GaplessRing, 3, 4, SHORT);
        assert!(gap < ring, "gap {gap} vs ring {ring}");
    }

    #[test]
    fn large_events_amortize_metadata() {
        // Normalized Gapless overhead shrinks as events grow (Fig. 5's
        // closing observation).
        let small_gap = delivery_bytes(Protocol::Gap, 2, 4, SHORT).max(1);
        let small_ring = delivery_bytes(Protocol::GaplessRing, 2, 4, SHORT);
        let big_gap = delivery_bytes(Protocol::Gap, 2, 20 * 1024, SHORT).max(1);
        let big_ring = delivery_bytes(Protocol::GaplessRing, 2, 20 * 1024, SHORT);
        let small_norm = small_ring as f64 / small_gap as f64;
        let big_norm = big_ring as f64 / big_gap as f64;
        assert!(
            big_norm <= small_norm,
            "normalized overhead should not grow with event size: {small_norm} vs {big_norm}"
        );
    }
}
