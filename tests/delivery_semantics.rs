//! Integration tests for the delivery guarantees (paper §4, Fig. 3).
//!
//! These drive full deployments — device actors, radio links, Rivulet
//! processes, apps — through scripted failures and check the exact
//! per-event semantics of Gap and Gapless delivery.

mod common;

use rivulet::core::app::{AppBuilder, CombinedWindows, CombinerSpec, OpCtx, WindowSpec};
use rivulet::core::config::ForwardingMode;
use rivulet::core::delivery::Delivery;
use rivulet::core::deploy::{Home, HomeBuilder};
use rivulet::core::messages::ProcMsg;
use rivulet::core::probe::{AppProbe, StoreProbe};
use rivulet::core::RivuletConfig;
use rivulet::devices::sensor::{EmissionSchedule, PayloadSpec};
use rivulet::net::sim::{SimConfig, SimNet};
use rivulet::types::{ActuationState, AppId, Duration, EventKind, ProcessId, SensorId, Time};
use std::sync::Arc;

struct Setup {
    net: SimNet,
    home: Home,
    probe: Arc<AppProbe>,
    store_probe: Arc<StoreProbe>,
    sensor: SensorId,
    pids: Vec<ProcessId>,
}

fn noop() -> impl Fn(&mut OpCtx, &CombinedWindows) + Send + Sync {
    |_: &mut OpCtx, _: &CombinedWindows| {}
}

/// Three hosts; a scripted door sensor heard by hosts 1 and 2; app
/// anchored at host 0.
fn scripted_home(delivery: Delivery, script: Vec<Time>, config: RivuletConfig, seed: u64) -> Setup {
    let mut net = SimNet::new(SimConfig::with_seed(seed));
    let mut home = HomeBuilder::new(&mut net).with_config(config);
    let pids: Vec<ProcessId> = ["hub", "tv", "fridge"]
        .iter()
        .map(|n| home.add_host(*n))
        .collect();
    let (sensor, _) = home.add_push_sensor(
        "door",
        PayloadSpec::KindOnly(EventKind::DoorOpen),
        EmissionSchedule::Script(script),
        &[pids[1], pids[2]],
    );
    let (anchor, _) = home.add_actuator("anchor", ActuationState::Switch(false), &[pids[0]]);
    let app = AppBuilder::new(AppId(1), "trace")
        .operator("sink", CombinerSpec::Any, noop())
        .sensor(sensor, delivery, WindowSpec::count(1))
        .actuator(anchor, delivery)
        .done()
        .build()
        .expect("valid app");
    let probe = home.add_app(app);
    let store_probe = home.with_store_probe();
    let home = home.build();
    Setup {
        net,
        home,
        probe,
        store_probe,
        sensor,
        pids,
    }
}

#[test]
fn fig3_gapless_recovers_partial_loss_gap_does_not() {
    let script: Vec<Time> = (1..=4).map(|i| Time::from_secs(2 * i)).collect(); // t=2,4,6,8
    for (delivery, expected) in [
        (Delivery::Gap, vec![0u64, 3]),
        (Delivery::Gapless, vec![0, 1, 3]),
    ] {
        let mut s = scripted_home(delivery, script.clone(), RivuletConfig::default(), 1);
        let dev = s.home.sensor_actor(s.sensor);
        let tv = s.home.actor_of(s.pids[1]);
        let fridge = s.home.actor_of(s.pids[2]);
        // Event 1 (t=4): lost on tv's link only.
        s.net
            .set_blocked_at(Time::from_millis(3_900), dev, tv, true);
        s.net
            .set_blocked_at(Time::from_millis(4_100), dev, tv, false);
        // Event 2 (t=6): lost everywhere (never ingested).
        for target in [tv, fridge] {
            s.net
                .set_blocked_at(Time::from_millis(5_900), dev, target, true);
            s.net
                .set_blocked_at(Time::from_millis(6_100), dev, target, false);
        }
        s.net.run_until(Time::from_secs(12));
        assert_eq!(common::distinct_seqs(&s.probe), expected, "{delivery}");
    }
}

#[test]
fn gapless_delivers_exactly_once_per_event_failure_free() {
    let script: Vec<Time> = (1..=20).map(|i| Time::from_millis(500 * i)).collect();
    let mut s = scripted_home(Delivery::Gapless, script, RivuletConfig::default(), 2);
    s.net.run_until(Time::from_secs(15));
    let deliveries = s.probe.deliveries();
    assert_eq!(deliveries.len(), 20, "no duplicates, no losses");
    assert_eq!(s.probe.unique_delivered(), 20);
}

#[test]
fn anti_entropy_heals_a_rejoining_process() {
    // Crash a *non-app* process, let events flow, recover it, and
    // verify its store catches up via successor sync, so that were the
    // app process to crash next, the recovered one — a primary
    // candidate — would still have the full backlog to replay.
    let script: Vec<Time> = (1..=30).map(|i| Time::from_millis(400 * i)).collect();
    let mut s = scripted_home(Delivery::Gapless, script, RivuletConfig::default(), 3);
    let tv = s.home.actor_of(s.pids[1]);
    // tv is a receiver; it is down from t = 2 s until after the
    // stream's last event (t = 12 s); the test below recovers it
    // mid-stream.
    s.net.crash_at(tv, Time::from_secs(2));
    s.net.recover_at(tv, Time::from_secs(13));
    s.net.run_until(Time::from_secs(20));
    // Every event still reaches the app (fridge kept receiving).
    assert_eq!(s.probe.unique_delivered(), 30);
    // tv recovered with an empty store and heard nothing afterwards:
    // every event it ends up holding came from its predecessor's sync.
    let tv_store = s
        .store_probe
        .samples()
        .into_iter()
        .rev()
        .find(|(_, p, _)| *p == s.pids[1])
        .map(|(_, _, len)| len);
    assert_eq!(tv_store, Some(30), "tv's store did not catch up");
}

/// The rejoin above, mid-stream: tv rejoins at 6 s and hears newer
/// events itself first. Its holdings report the hole below them, and
/// its predecessor's sync fills it.
#[test]
fn anti_entropy_heals_a_process_rejoining_mid_stream() {
    let script: Vec<Time> = (1..=30).map(|i| Time::from_millis(400 * i)).collect();
    let mut s = scripted_home(Delivery::Gapless, script, RivuletConfig::default(), 3);
    let tv = s.home.actor_of(s.pids[1]);
    s.net.crash_at(tv, Time::from_secs(2));
    s.net.recover_at(tv, Time::from_secs(6));
    s.net.run_until(Time::from_secs(20));
    assert_eq!(s.probe.unique_delivered(), 30);
    let tv_store = s
        .store_probe
        .samples()
        .into_iter()
        .rev()
        .find(|(_, p, _)| *p == s.pids[1])
        .map(|(_, _, len)| len);
    assert_eq!(tv_store, Some(30), "tv's store did not catch up");
}

#[test]
fn eager_broadcast_mode_delivers_equivalently() {
    let script: Vec<Time> = (1..=20).map(|i| Time::from_millis(500 * i)).collect();
    let config = RivuletConfig::default().with_forwarding(ForwardingMode::EagerBroadcast);
    let mut s = scripted_home(Delivery::Gapless, script, config, 4);
    s.net.run_until(Time::from_secs(15));
    assert_eq!(s.probe.unique_delivered(), 20);
}

#[test]
fn gap_discards_at_non_forwarders_saving_network() {
    // Under Gap only one receiving process forwards; wifi bytes should
    // be well below Gapless for the same workload.
    let script: Vec<Time> = (1..=40).map(|i| Time::from_millis(250 * i)).collect();
    let mut gap = scripted_home(Delivery::Gap, script.clone(), RivuletConfig::default(), 5);
    gap.net.run_until(Time::from_secs(15));
    let gap_bytes = gap.net.metrics().wifi_bytes;
    let gap_delivered = gap.probe.unique_delivered();

    let mut gapless = scripted_home(Delivery::Gapless, script, RivuletConfig::default(), 5);
    gapless.net.run_until(Time::from_secs(15));
    let gapless_bytes = gapless.net.metrics().wifi_bytes;

    assert_eq!(gap_delivered, 40, "failure-free gap delivers all");
    assert!(
        gap_bytes < gapless_bytes,
        "gap {gap_bytes} B should undercut gapless {gapless_bytes} B"
    );
}

#[test]
fn delivery_is_deterministic_for_a_seed() {
    let script: Vec<Time> = (1..=10).map(|i| Time::from_millis(700 * i)).collect();
    let run = |seed: u64| {
        let mut s = scripted_home(
            Delivery::Gapless,
            script.clone(),
            RivuletConfig::default(),
            seed,
        );
        let dev = s.home.sensor_actor(s.sensor);
        let tv = s.home.actor_of(s.pids[1]);
        s.net.topology_mut().set_loss(dev, tv, 0.4);
        s.net.run_until(Time::from_secs(10));
        (
            common::distinct_seqs(&s.probe),
            s.net.metrics().messages_sent,
        )
    };
    assert_eq!(run(77), run(77));
}

/// Two apps on one sensor, one Gapless and one Gap, added in the given
/// order to a home of four hosts where only the hub hears the sensor
/// and drives the actuator. Returns the largest store residency the
/// fridge (which neither hears the sensor nor hosts an app) reported,
/// and each app's distinct deliveries.
fn mixed_guarantee_home(gapless_first: bool) -> (usize, usize, usize) {
    let mut net = SimNet::new(SimConfig::with_seed(8));
    let mut home = HomeBuilder::new(&mut net);
    let pids: Vec<ProcessId> = ["hub", "tv", "lamp", "fridge"]
        .iter()
        .map(|n| home.add_host(*n))
        .collect();
    let store_probe = home.with_store_probe();
    let (sensor, _) = home.add_push_sensor(
        "door",
        PayloadSpec::KindOnly(EventKind::DoorOpen),
        EmissionSchedule::Periodic(Duration::from_millis(500)),
        &pids[..1],
    );
    let (anchor, _) = home.add_actuator("anchor", ActuationState::Switch(false), &pids[..1]);
    let app = |id: u32, delivery: Delivery| {
        AppBuilder::new(AppId(id), "watch")
            .operator("sink", CombinerSpec::Any, noop())
            .sensor(sensor, delivery, WindowSpec::count(1))
            .actuator(anchor, delivery)
            .done()
            .build()
            .expect("valid app")
    };
    let order = if gapless_first {
        [(1, Delivery::Gapless), (2, Delivery::Gap)]
    } else {
        [(2, Delivery::Gap), (1, Delivery::Gapless)]
    };
    let probes: Vec<(u32, Arc<AppProbe>)> = order
        .iter()
        .map(|&(id, delivery)| (id, home.add_app(app(id, delivery))))
        .collect();
    let _home = home.build();
    net.run_until(Time::from_secs(10));
    let fridge = store_probe
        .samples()
        .into_iter()
        .filter(|(_, p, _)| *p == pids[3]);
    let fridge_max = fridge.map(|(.., len)| len).max().unwrap_or(0);
    let delivered = |id: u32| {
        let (_, probe) = probes.iter().find(|(i, _)| *i == id).expect("added");
        probe.unique_delivered()
    };
    (fridge_max, delivered(1), delivered(2))
}

#[test]
fn a_sensor_gets_the_strongest_guarantee_its_apps_ask_for_in_any_add_order() {
    for gapless_first in [true, false] {
        let (fridge_max, gapless, gap) = mixed_guarantee_home(gapless_first);
        assert!(
            fridge_max > 0,
            "gapless first: {gapless_first}; the Gapless app's events were never replicated"
        );
        assert!(gapless >= 18 && gap >= 18, "delivered {gapless} / {gap}");
    }
}

/// One WiFi hop between two processes and the sensor's radio, as the
/// simulator's default links price a kind-only event (≈ 2 ms, ≈ 1 ms).
const HOP: Duration = Duration::from_millis(2);
const RADIO: Duration = Duration::from_millis(1);

/// The volatile five-host home of `tests/common`: app at host 0, ring
/// 0 → 1 → 2 → 3 → 4 → 0, one Gapless sensor heard by `heard_by`.
fn ring_home(seed: u64, schedule: EmissionSchedule, heard_by: &[usize]) -> common::Setup {
    common::deploy(
        seed,
        None,
        RivuletConfig::default(),
        schedule,
        heard_by,
        true,
    )
}

/// How many ring messages the home's processes received.
fn ring_messages(s: &common::Setup) -> u64 {
    let msgs = common::peer_msgs(s);
    let rings = msgs.iter().filter(|m| matches!(m.2, ProcMsg::Ring { .. }));
    rings.count() as u64
}

fn median(mut delays: Vec<Duration>) -> Duration {
    delays.sort_unstable();
    delays[delays.len() / 2]
}

/// Shape of the express lane. A sensor heard only by host 1 — four ring
/// hops from the app — is delivered one hop after the radio, and the
/// event still costs n ring messages: four ordinary forwards and the
/// express copy, none to close the ring. A sensor the host hears itself
/// costs n − 1.
#[test]
fn far_sensor_is_delivered_at_one_hop_in_n_ring_messages() {
    let mut far = ring_home(31, common::paced(100), &[1]);
    far.net.recorder().set_enabled(true);
    far.net.run_until(Time::from_secs(10));
    let events = far.emissions.emitted();
    assert_eq!(events, 100);
    assert_eq!(far.probe.deliveries().len(), far.probe.unique_delivered());
    assert_eq!(far.probe.unique_delivered() as u64, events);
    let delay = median(far.probe.delays());
    assert!(
        delay <= RADIO + HOP + Duration::from_micros(200),
        "median {delay}: the event walked the ring to its app"
    );
    assert_eq!(ring_messages(&far), 5 * events);
    let obs = far.net.obs_snapshot();
    assert_eq!(obs.counter("ring.express"), events);
    assert_eq!(obs.counter("ring.closed"), events);

    let mut near = ring_home(31, common::paced(100), &[0]);
    near.net.run_until(Time::from_secs(10));
    let events = near.emissions.emitted();
    assert_eq!(near.probe.unique_delivered() as u64, events);
    assert_eq!(ring_messages(&near), 4 * events);
    // No express copy here — and with the recorder off, no counter.
    let obs = near.net.obs_snapshot();
    assert_eq!(obs.counter("ring.express") + obs.counter("ring.closed"), 0);
}

/// Guards I2 (DESIGN §4.1): the ordinary token never pre-marks the
/// host, so a lost express copy costs latency and nothing else. The
/// origin ↔ host link is cut for 1.5 s — shorter than the failure
/// timeout, so no view changes — while both still reach everyone else:
/// every event reaches the app exactly once and in order, the ones
/// emitted during the cut by the ordinary ring, four hops late.
#[test]
fn a_lost_express_copy_costs_latency_and_nothing_else() {
    let mut s = ring_home(32, common::paced(100), &[1]);
    let (origin, host) = (s.home.actor_of(s.pids[1]), s.home.actor_of(s.pids[0]));
    let (cut, healed) = (Time::from_millis(4_000), Time::from_millis(5_500));
    s.net.partition_at(cut, vec![vec![origin], vec![host]]);
    s.net.heal_at(healed);
    s.net.run_until(Time::from_secs(10));

    let deliveries = s.probe.deliveries();
    let in_order: Vec<u64> = (0..100).collect();
    assert_eq!(common::delivered_seqs(&s.probe), in_order, "exactly once");
    let promotions = s.probe.transitions().iter().filter(|t| t.2).count();
    assert_eq!(promotions, 1, "the cut is too short to move the app");
    // Events within 20 ms of either edge are left unjudged.
    let emitted_in = |from_ms: u64, to_ms: u64| {
        let (from, to) = (Time::from_millis(from_ms), Time::from_millis(to_ms));
        let inside = deliveries
            .iter()
            .filter(move |d| d.emitted_at > from && d.emitted_at < to);
        inside.map(|d| d.delay()).collect::<Vec<_>>()
    };
    let during = emitted_in(4_020, 5_480);
    assert!(during.len() > 10, "only {} events in the cut", during.len());
    let ring_path = RADIO + HOP.saturating_mul(4);
    assert!(during.iter().all(|d| *d >= ring_path), "{during:?}");
    let outside = [emitted_in(0, 3_980), emitted_in(5_520, 10_000)].concat();
    let two_hops = RADIO + HOP.saturating_mul(2);
    assert!(outside.iter().all(|d| *d < two_hops), "{outside:?}");
}

/// Guards I1 (DESIGN §4.1): an express copy replaces no forward of the
/// ordinary ring, so a relay that dies between the origin and the host
/// is handled as it was. Host 3 dies; until the views drop it the
/// token stops there, yet the host delivers events 3 and 4 at one hop.
/// Host 4, behind the dead relay, gets them when the origin's
/// `rbcast.track` entries outlive the failure timeout and flood, and
/// the app sees no duplicate. (The emissions are sparse from when a
/// later event raised host 4's summary over the hole and retired those
/// entries unrepaired; host 4's holdings now report the hole, so a later
/// event leaves the entries waiting.)
#[test]
fn a_dead_relay_between_origin_and_host_delays_nobody_but_those_behind_it() {
    let emissions = common::script(&[1000, 2000, 3000, 4100, 4300, 8000, 8200, 8400]);
    let mut s = ring_home(33, emissions, &[1]);
    let origin = s.home.actor_of(s.pids[1]);
    s.net
        .crash_at(s.home.actor_of(s.pids[3]), Time::from_secs(4));
    s.net.run_until(Time::from_secs(10));

    let in_order: Vec<u64> = (0..8).collect();
    assert_eq!(common::delivered_seqs(&s.probe), in_order, "exactly once");
    let worst = s.probe.delays().into_iter().max().expect("events");
    assert!(
        worst <= RADIO + HOP + Duration::from_micros(200),
        "a delivery took {worst}: it waited for the dead relay"
    );

    let mut flooded: Vec<u64> = common::peer_msgs(&s)
        .into_iter()
        .filter_map(|(_, from, msg)| match msg {
            ProcMsg::Broadcast { event, .. } if from == origin => Some(event.id.seq),
            _ => None,
        })
        .collect();
    flooded.sort_unstable();
    flooded.dedup();
    assert_eq!(flooded, vec![3, 4], "the stalled events, and only they");
    let samples = s.store_probe.samples();
    let of_host_4 = samples.iter().filter(|(_, p, _)| *p == s.pids[4]);
    let held = of_host_4.map(|(_, _, len)| *len).next_back();
    assert_eq!(held, Some(8), "host 4 was repaired");
}

/// Guards the origin's `rbcast.track` entry: it alone repairs a ring
/// whose first forward is lost on a live link while no view changes.
/// The link from the origin, host 1, to its successor, host 2, is cut
/// for one second around event 1 — shorter than the failure timeout, so
/// no view changes and no successor sync runs. The express copy reaches
/// the app at host 0 and closes the ring there, so no stall test ever
/// runs; hosts 2–4 get the event when the tracked entry outlives the
/// failure timeout and floods. (Sparse emissions, as in the dead-relay
/// test above.)
#[test]
fn a_first_forward_lost_on_a_live_link_is_repaired_by_the_origins_flood() {
    let mut s = ring_home(35, common::script(&[1000, 3000]), &[1]);
    let (origin, successor) = (s.home.actor_of(s.pids[1]), s.home.actor_of(s.pids[2]));
    s.net.partition_at(
        Time::from_millis(2_500),
        vec![vec![origin], vec![successor]],
    );
    s.net.heal_at(Time::from_millis(3_500));
    s.net.run_until(Time::from_secs(10));

    assert_eq!(common::delivered_seqs(&s.probe), vec![0, 1], "exactly once");
    let promotions = s.probe.transitions().iter().filter(|t| t.2).count();
    assert_eq!(promotions, 1, "the cut is too short to move the app");
    let samples = s.store_probe.samples();
    for pid in &s.pids {
        let of_pid = samples.iter().filter(|(_, p, _)| p == pid);
        let held = of_pid.map(|(_, _, len)| *len).next_back();
        assert_eq!(held, Some(2), "{pid}'s store");
    }
}

/// Guards the self-closing rule's condition (DESIGN §4.1): a last hop
/// closes the ring only when `S = V`. The link host 1 ↔ host 2 is cut
/// for good; once both views have dropped the other end, host 1's
/// successor is the origin, host 3 — in `S`, while host 2 is in `V` and
/// not in `S`. Host 1 cannot reach host 2, so a flood of its own view
/// would repair nobody: it relays, the origin's stall test floods a
/// view that has host 2, and host 2 holds the event a few hops after
/// its emission instead of a failure timeout later. (No emission while
/// the views still disagree: the test is about the stall test, not
/// about events emitted during the disagreement.)
#[test]
fn a_process_the_last_hop_suspects_is_repaired_by_the_origins_flood() {
    let emitted_ms = [1000, 2000, 6000, 6200, 6400];
    let mut s = ring_home(34, common::script(&emitted_ms), &[3]);
    let (origin, cut_off) = (s.home.actor_of(s.pids[3]), s.pids[2]);
    let ends = vec![
        vec![s.home.actor_of(s.pids[1])],
        vec![s.home.actor_of(cut_off)],
    ];
    s.net.partition_at(Time::from_millis(2_500), ends);
    s.net.run_until(Time::from_secs(8));

    let in_order: Vec<u64> = (0..5).collect();
    assert_eq!(common::delivered_seqs(&s.probe), in_order, "exactly once");
    // The origin's flood: radio, express copy, host 0 → host 1 → origin.
    let stall_seen = RADIO + HOP.saturating_mul(3) + Duration::from_micros(500);
    let mut flooded = Vec::new();
    for (at, from, msg) in common::peer_msgs(&s) {
        match msg {
            ProcMsg::Broadcast { event, .. } if from == origin => {
                let emitted = Time::from_millis(emitted_ms[event.id.seq as usize]);
                // One more hop to arrive where the tap sees it.
                assert!(
                    at <= emitted + stall_seen + HOP,
                    "seq {} at {at}",
                    event.id.seq
                );
                flooded.push(event.id.seq);
            }
            _ => {}
        }
    }
    flooded.sort_unstable();
    flooded.dedup();
    assert_eq!(
        flooded,
        vec![2, 3, 4],
        "every event host 2 was cut off from"
    );
    // Host 2's store, sampled on its keep-alive tick, within one second.
    let samples = s.store_probe.samples();
    let held_at = |ms: u64| {
        let of_host_2 = samples
            .iter()
            .filter(|(at, p, _)| *p == cut_off && at.as_millis() <= ms);
        of_host_2.map(|(_, _, len)| *len).next_back()
    };
    assert_eq!(held_at(5_900), Some(2));
    assert_eq!(held_at(7_000), Some(5), "repaired without the grace period");
}

/// A reading nobody heard leaves a hole nobody can fill. It is forgiven
/// once garbage collection removes a held event above it, so the holes
/// a process advertises are bounded by the straggler horizon, not by the
/// home's lifetime: one hearer behind 30 % radio loss, at ten readings a
/// second, carries no more holes at 120 s than at 60 s.
#[test]
fn the_holes_a_lossy_hearer_advertises_stay_bounded() {
    let schedule = EmissionSchedule::Periodic(Duration::from_millis(100));
    let mut s = common::deploy(47, None, RivuletConfig::default(), schedule, &[2], true);
    let hearer = s.home.actor_of(s.pids[2]);
    s.net
        .topology_mut()
        .set_loss(s.home.sensors[0].1, hearer, 0.3);
    s.net.run_until(Time::from_secs(121));

    // The hole count of the hearer's last beacon before each instant.
    let beacons: Vec<(Time, usize)> = common::peer_msgs(&s)
        .into_iter()
        .filter_map(|(at, from, msg)| match msg {
            ProcMsg::KeepAlive { received, .. } if from == hearer => {
                Some((at, received.lacks(SensorId(0)).len() - 1))
            }
            _ => None,
        })
        .collect();
    let holes_at = |secs| {
        let before = beacons
            .iter()
            .filter(|(at, _)| *at <= Time::from_secs(secs));
        before
            .map(|(_, holes)| *holes)
            .next_back()
            .expect("a beacon")
    };
    assert!(holes_at(60) > 20, "{} holes at 60 s", holes_at(60));
    assert!(
        holes_at(120) <= holes_at(60),
        "{} holes at 120 s, {} at 60 s",
        holes_at(120),
        holes_at(60)
    );
}
