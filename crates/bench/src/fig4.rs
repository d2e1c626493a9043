//! Fig. 4 — delivery delay with increasing number of processes.
//!
//! (a) the event-receiving process is placed farthest from the
//! application-bearing process; (b) the application-bearing process
//! receives directly. One sensor, 10 events/s, event sizes from
//! Table 3, 2–5 processes, Gap vs Gapless.

use rivulet_core::delivery::Delivery;
use rivulet_types::Duration;

use crate::common::{run_delivery, DeliveryScenario, EVENT_SIZES};

/// One measured cell of the figure.
#[derive(Debug, Clone)]
pub struct DelayPoint {
    /// Delivery guarantee.
    pub delivery: Delivery,
    /// Event size label ("4B", …).
    pub size_label: &'static str,
    /// Number of processes.
    pub n_processes: usize,
    /// Mean sensor→logic delay.
    pub mean_delay: Duration,
}

/// Runs one cell.
#[must_use]
pub fn measure(
    delivery: Delivery,
    event_bytes: usize,
    n_processes: usize,
    farthest: bool,
    duration: Duration,
) -> Option<Duration> {
    let mut cfg = DeliveryScenario::paper_default(delivery);
    cfg.n_processes = n_processes;
    cfg.receivers = if farthest {
        vec![1.min(n_processes - 1)]
    } else {
        vec![0]
    };
    cfg.event_bytes = event_bytes;
    cfg.duration = duration;
    run_delivery(&cfg).mean_delay
}

/// Produces the full Fig. 4a (farthest) or 4b (direct) sweep.
#[must_use]
pub fn sweep(farthest: bool, duration: Duration) -> Vec<DelayPoint> {
    let mut out = Vec::new();
    for delivery in [Delivery::Gap, Delivery::Gapless] {
        for (label, bytes) in EVENT_SIZES {
            for n in 2..=5 {
                if let Some(mean) = measure(delivery, bytes, n, farthest, duration) {
                    out.push(DelayPoint {
                        delivery,
                        size_label: label,
                        n_processes: n,
                        mean_delay: mean,
                    });
                }
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
    fn gapless_delay_is_flat_in_ring_length() {
        // The farthest receiver sends the app's host an express copy, so
        // Gapless stays within 0.05 ms of Gap's single hop at every n
        // (DESIGN §4.1) — and S and V are one byte each whatever n is, so
        // a longer ring does not even cost the copy more bytes.
        let slack = Duration::from_micros(50);
        let gapless: Vec<Duration> = (2..=5)
            .map(|n| measure(Delivery::Gapless, 4, n, true, SHORT).unwrap())
            .collect();
        for (n, gapless) in (2..=5).zip(&gapless) {
            let gap = measure(Delivery::Gap, 4, n, true, SHORT).unwrap();
            assert!(
                *gapless < gap + slack,
                "n = {n}: Gapless {gapless} walked the ring, Gap {gap}"
            );
        }
        let (lo, hi) = (gapless.iter().min().unwrap(), gapless.iter().max().unwrap());
        assert!(*hi < *lo + slack, "Gapless not flat in n: {gapless:?}");
    }

    #[test]
    fn gap_delay_roughly_flat_in_process_count() {
        let d2 = measure(Delivery::Gap, 4, 2, true, SHORT).unwrap();
        let d5 = measure(Delivery::Gap, 4, 5, true, SHORT).unwrap();
        // One forwarding hop regardless of n (modest growth from
        // keep-alive load is acceptable, 3x is not).
        assert!(
            d5.as_micros() < d2.as_micros() * 2,
            "gap delay exploded: {d2} vs {d5}"
        );
    }

    #[test]
    fn larger_events_take_longer() {
        let small = measure(Delivery::Gapless, 4, 4, true, SHORT).unwrap();
        let large = measure(Delivery::Gapless, 20 * 1024, 4, true, SHORT).unwrap();
        assert!(large > small, "20KB {large} should exceed 4B {small}");
    }

    #[test]
    fn direct_receipt_beats_farthest() {
        let direct = measure(Delivery::Gapless, 4, 5, false, SHORT).unwrap();
        let farthest = measure(Delivery::Gapless, 4, 5, true, SHORT).unwrap();
        assert!(direct < farthest, "direct {direct} vs farthest {farthest}");
        assert!(direct <= Duration::from_millis(3), "Fig 4b range: {direct}");
    }
}
