//! The wire budget: what the canonical protocol messages cost in bytes,
//! and what a Gapless home puts on the WiFi per delivered event. Fig. 5
//! and the benchmark's `wifi_bytes_per_event` measure exactly these
//! bytes; a change that grows one fails here, in tier-1, and says which.

mod common;

use rivulet::core::messages::{Frame, ProcMsg, Relayed};
use rivulet::core::RivuletConfig;
use rivulet::devices::sensor::EmissionSchedule;
use rivulet::types::wire::{Wire, FRAME_HEADER_BYTES};
use rivulet::types::{
    Duration, Event, EventId, EventKind, Payload, ProcSet, ProcessId, SensorId, Time,
};

fn pids(ids: &[u32]) -> Vec<ProcessId> {
    ids.iter().map(|i| ProcessId(*i)).collect()
}

/// Event 1000 of sensor 3, one virtual second in: the id and timestamp
/// widths of a home that has been up for a while.
fn event(payload: Payload) -> Event {
    Event::with_payload(
        EventId::new(SensorId(3), 1_000),
        EventKind::Motion,
        payload,
        Time::from_secs(1),
    )
}

#[test]
fn canonical_messages_cost_what_they_did() {
    let scalar = event(Payload::Scalar(21.5));
    let kind_only = event(Payload::Empty);

    // The paper's (e : S : V) at n = 5, three hops in: tag + event + one
    // byte for S + one for V. As two id lists the sets alone were
    // 1 + 3 and 1 + 5 bytes: eight more.
    let ring = ProcMsg::Ring {
        event: scalar.clone(),
        seen: pids(&[0, 1, 2]),
        need: pids(&[0, 1, 2, 3, 4]),
    };
    let forward = ProcMsg::GapForward {
        event: scalar.clone(),
    };
    assert_eq!(forward.to_bytes().len(), 18, "tag + scalar event");
    assert_eq!(ring.to_bytes().len(), forward.to_bytes().len() + 2);
    assert_eq!(ring.to_bytes()[18..], [0b111, 0b1_1111]);

    let bare = ProcMsg::Ring {
        event: kind_only.clone(),
        seen: pids(&[1]),
        need: pids(&[0, 1, 2, 3, 4]),
    };
    assert_eq!(bare.to_bytes().len(), 12, "kind-only ring message");

    // Every peer heard half a beacon or more ago: a two-byte age and a
    // one-byte row each.
    let everyone: ProcSet = pids(&[0, 1, 2, 3, 4]).into_iter().collect();
    let beacon = ProcMsg::KeepAlive {
        from: ProcessId(4),
        row: everyone,
        relayed: Relayed::new(everyone.without(ProcessId(4)), |_| {
            Some((Duration::from_millis(499), everyone))
        }),
        processed: (0..4)
            .flat_map(|s| (0..=1_000).map(move |seq| EventId::new(SensorId(s), seq)))
            .collect(),
        received: (0..4)
            .flat_map(|s| (0..=1_000).map(move |seq| EventId::new(SensorId(s), seq)))
            .collect(),
    };
    assert_eq!(
        beacon.to_bytes().len(),
        31 + 4 * 3,
        "keep-alive, four sensors, no hole, four rows relayed"
    );

    let flood = ProcMsg::Broadcast {
        event: scalar,
        origin: ProcessId(2),
    };
    assert_eq!(flood.to_bytes().len(), 19, "broadcast copy");

    let frame = Frame {
        msgs: vec![bare, forward],
    };
    assert_eq!(
        frame.to_bytes().len(),
        2 + (1 + 12) + (1 + 18),
        "two messages"
    );
}

#[test]
fn a_five_process_gapless_home_stays_inside_its_wifi_budget() {
    // One kind-only sensor heard one hop from the app's host (so every
    // event is a far event: four ring messages and an express copy),
    // 200 events a second for ten seconds, nothing lost.
    let mut s = common::deploy(
        7,
        None,
        RivuletConfig::default(),
        EmissionSchedule::Periodic(Duration::from_millis(5)),
        &[1],
        false,
    );
    s.net.run_until(Time::from_secs(10));
    let delivered = s.probe.deliveries().len() as u64;
    assert!(delivered >= 1_990, "delivered {delivered}");
    let per_event = s.net.metrics().wifi_bytes as f64 / delivered as f64;
    // Five 12-byte ring messages under a 12-byte transport header are
    // 120 bytes; keep-alive beacons (40 a second) add ≈ 8: it reads
    // 128.2. With S and V as id lists the five messages carried 39 bytes
    // more, ≈ 167.
    let ceiling = 5.0 * (FRAME_HEADER_BYTES + 12) as f64 + 12.0;
    assert!(
        per_event < ceiling,
        "{per_event:.1} WiFi bytes per delivered event, budget {ceiling}"
    );
}
