//! End-to-end regression test for the cumulative-ack retirement path.
//!
//! The original wiring shipped dead: `on_cumulative_ack` never fired
//! in simulation runs, so `acks_avoided` stayed zero and no pending
//! broadcast ever retired through a peer's keep-alive.
//! No test noticed, because nothing asserted the counter was *live*.
//! These tests pin the fix at the whole-platform level: a run must
//! retire pending broadcasts via the holdings on keep-alives (counted in
//! `fanout.acks_avoided` at the origin).

use rivulet_bench::common::{run_delivery, DeliveryOutcome, DeliveryScenario};
use rivulet_core::config::ForwardingMode;
use rivulet_core::delivery::Delivery;
use rivulet_types::Duration;

/// The §8 scenario at 1 KiB events, 50/s for 60 virtual seconds on a
/// five-process home, recorder on.
fn run(forwarding: ForwardingMode) -> DeliveryOutcome {
    let mut cfg = DeliveryScenario::paper_default(Delivery::Gapless);
    cfg.event_bytes = 1024;
    cfg.rate_per_sec = 50;
    cfg.duration = Duration::from_secs(60);
    cfg.forwarding = forwarding;
    cfg.obs = true;
    run_delivery(&cfg)
}

#[test]
fn optimized_broadcast_run_retires_events_via_cumulative_acks() {
    let out = run(ForwardingMode::EagerBroadcast);
    assert!(
        out.unique_delivered > 0,
        "sanity: the run must deliver events"
    );
    assert!(
        out.obs.counter("fanout.acks_avoided") > 0,
        "cumulative acks retired nothing in a broadcast run \
         (delivered {}): the watermark-retirement path is dead again",
        out.unique_delivered
    );
}

#[test]
fn optimized_ring_run_retires_tracked_events() {
    // Ring-origin events are tracked (registered pending without a
    // flood) and must also retire through the peers' holdings.
    let out = run(ForwardingMode::Ring);
    assert!(
        out.obs.counter("fanout.acks_avoided") > 0,
        "ring-tracked events never retired via cumulative acks"
    );
}
