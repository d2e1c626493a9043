//! End-to-end regression test for the cumulative-ack retirement path.
//!
//! The original wiring shipped dead: `on_cumulative_ack` never fired
//! in simulation runs, so `acks_avoided` stayed zero and every
//! broadcast receipt paid a per-event ack even in `AckMode::Cumulative`.
//! No test noticed, because nothing asserted the counter was *live*.
//! These tests pin the fix at the whole-platform level: a run under
//! `AckMode::Cumulative` must retire pending broadcasts via keep-alive
//! watermarks (counted as avoided acks at the origin), and the same run
//! under `AckMode::PerEvent` must keep the counter at exactly zero.

use rivulet_bench::common::{run_delivery, DeliveryOutcome, DeliveryScenario};
use rivulet_core::config::{AckMode, ForwardingMode};
use rivulet_core::delivery::Delivery;
use rivulet_types::Duration;

/// The §8 scenario at 1 KiB events, 50/s for 60 virtual seconds on a
/// five-process home.
fn run(forwarding: ForwardingMode, ack_mode: AckMode) -> DeliveryOutcome {
    let mut cfg = DeliveryScenario::paper_default(Delivery::Gapless);
    cfg.event_bytes = 1024;
    cfg.rate_per_sec = 50;
    cfg.duration = Duration::from_secs(60);
    cfg.forwarding = forwarding;
    cfg.ack_mode = ack_mode;
    run_delivery(&cfg)
}

#[test]
fn optimized_broadcast_run_retires_events_via_cumulative_acks() {
    let out = run(ForwardingMode::EagerBroadcast, AckMode::Cumulative);
    assert!(
        out.unique_delivered > 0,
        "sanity: the run must deliver events"
    );
    assert!(
        out.fanout.acks_avoided > 0,
        "cumulative acks retired nothing in a broadcast run \
         (delivered {}): the watermark-retirement path is dead again",
        out.unique_delivered
    );
}

#[test]
fn optimized_ring_run_retires_tracked_events() {
    // Ring-origin events are tracked (registered pending without a
    // flood) and must also retire through received watermarks.
    let out = run(ForwardingMode::Ring, AckMode::Cumulative);
    assert!(
        out.fanout.acks_avoided > 0,
        "ring-tracked events never retired via cumulative acks"
    );
}

#[test]
fn per_event_twin_reports_zero_avoided_acks() {
    // Under AckMode::PerEvent every receipt acks individually, so
    // nothing is "avoided" and a nonzero counter here would mean the
    // baseline is quietly running the optimization.
    let out = run(ForwardingMode::EagerBroadcast, AckMode::PerEvent);
    assert!(
        out.unique_delivered > 0,
        "sanity: the run must deliver events"
    );
    assert_eq!(
        out.fanout.acks_avoided, 0,
        "per-event baseline must not count avoided acks"
    );
}
