//! End-to-end durability tests: every process journals Gapless
//! deliveries to a write-ahead log, survives a simulated power loss
//! (actor crash *plus* disk losing its unsynced tail), and recovers its
//! event store and processed watermarks from the log.

mod common;

use common::{delivered_seqs, deploy, peer_msgs, script, wal_options, Setup};
use rivulet::core::app::{AppBuilder, CombinedWindows, CombinerSpec, OpCtx, WindowSpec};
use rivulet::core::delivery::Delivery;
use rivulet::core::deploy::HomeBuilder;
use rivulet::core::messages::{Frame, ProcMsg};
use rivulet::core::RivuletConfig;
use rivulet::devices::sensor::{EmissionSchedule, PayloadSpec};
use rivulet::net::link::LinkConfig;
use rivulet::net::sim::{SimConfig, SimNet};
use rivulet::storage::{FlushPolicy, SimBackend, StorageBackend, Wal};
use rivulet::types::wire::Wire;
use rivulet::types::{ActuationState, AppId, Duration, EventKind, ProcessId, Time};
use std::sync::Arc;

/// The `failover.rs` standard home (five hosts, one Gapless sensor at
/// 10 ev/s heard by all, app anchored at host 0) with a per-process
/// simulated disk flushed on a `TICK` beat.
fn durable_home(seed: u64, config: RivuletConfig) -> Setup {
    let schedule = EmissionSchedule::Periodic(Duration::from_millis(100));
    deploy(
        seed,
        Some(FlushPolicy::EveryInterval(TICK)),
        config,
        schedule,
        &[0, 1, 2, 3, 4],
        false,
    )
}

/// Crashes the active process at 24s together with its disk's unsynced
/// tail, recovers it at 30s, and checks the home still delivered
/// (essentially) every emitted event, across several seeds.
#[test]
fn gapless_survives_power_loss_of_the_active_process() {
    for seed in [1u64, 2, 3] {
        let mut s = durable_home(seed, RivuletConfig::default());
        let h0 = s.home.actor_of(s.pids[0]);
        s.net.crash_at(h0, Time::from_secs(24));
        s.net.run_until(Time::from_millis(24_100));
        // The actor is down; now the power loss hits the disk too.
        s.backends[0].crash();
        s.net.recover_at(h0, Time::from_secs(30));
        s.net.run_until(Time::from_secs(55));

        let (appends, syncs, _) = s.backends[0].op_counts();
        assert!(
            appends > 0 && syncs > 0,
            "seed {seed}: the WAL was exercised"
        );
        let lost = s.emissions.emitted() as i64 - s.probe.unique_delivered() as i64;
        // Margin: the final group-commit batch (the last 250 ms beat's
        // two or three events) plus one in-flight ring hop may still be
        // pending when the run is cut off.
        assert!(
            lost <= 5,
            "seed {seed}: gapless with durability lost {lost} events"
        );
    }
}

/// A crashed *shadow* recovers its store from the WAL alone: its first
/// post-recovery store sample is taken in the start activation, before
/// any anti-entropy reply can arrive, so whatever the store holds then
/// came off the log. Meanwhile the active process never wavers, so the
/// delivered stream has no gaps and no duplicates at all.
#[test]
fn shadow_recovers_store_from_wal_without_anti_entropy() {
    for seed in [1u64, 2, 3] {
        let config = RivuletConfig::default();
        let mut s = durable_home(seed, config);
        let h4 = s.home.actor_of(s.pids[4]);
        s.net.crash_at(h4, Time::from_secs(20));
        s.net.run_until(Time::from_millis(20_100));
        s.backends[4].crash();
        s.net.recover_at(h4, Time::from_secs(25));
        s.net.run_until(Time::from_secs(40));

        // Leadership never moved: exactly one promotion (p0 at start).
        let promotions = s
            .probe
            .transitions()
            .iter()
            .filter(|(_, _, active)| *active)
            .count();
        assert_eq!(
            promotions, 1,
            "seed {seed}: a shadow crash must not trigger failover"
        );

        // The app saw each event exactly once.
        assert_eq!(
            s.probe.deliveries().len(),
            s.probe.unique_delivered(),
            "seed {seed}: duplicate deliveries"
        );

        // p4's first store sample after recovery already holds the bulk
        // of the pre-crash events (≈200 emitted by t=20s), straight
        // from the log.
        let first_after = s
            .store_probe
            .samples()
            .into_iter()
            .find(|(at, p, _)| *p == s.pids[4] && *at >= Time::from_secs(25))
            .map(|(_, _, len)| len)
            .expect("p4 ticked after recovery");
        assert!(
            first_after >= 100,
            "seed {seed}: store not restored from WAL, only {first_after} events"
        );
    }
}

/// The same seed reproduces the same run bit-for-bit, all the way down
/// to the bytes on every process's disk after a crash and recovery.
#[test]
fn same_seed_runs_leave_byte_identical_logs() {
    let run = || {
        let mut s = durable_home(7, RivuletConfig::default());
        let h0 = s.home.actor_of(s.pids[0]);
        s.net.crash_at(h0, Time::from_secs(24));
        s.net.run_until(Time::from_millis(24_100));
        s.backends[0].crash();
        s.net.recover_at(h0, Time::from_secs(30));
        s.net.run_until(Time::from_secs(40));
        s.backends
            .iter()
            .map(|be| {
                be.list_segments()
                    .expect("list")
                    .into_iter()
                    .map(|id| (id, be.read_segment(id).expect("read")))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "same-seed runs diverged on disk");
}

/// Events from a sensor no app subscribes to must not take up residence
/// in the event store (the store is a cache over the log, not a
/// landfill): residency stays bounded by the GC straggler horizon of
/// the *subscribed* sensor regardless of how much dead traffic flows.
#[test]
fn store_residency_is_bounded_with_unsubscribed_traffic() {
    let mut net = SimNet::new(SimConfig::with_seed(11));
    let mut home = HomeBuilder::new(&mut net);
    let pids: Vec<ProcessId> = (0..5).map(|i| home.add_host(format!("host{i}"))).collect();
    let store_probe = home.with_store_probe();
    let (sensor, _) = home.add_push_sensor(
        "motion",
        PayloadSpec::KindOnly(EventKind::Motion),
        EmissionSchedule::Periodic(Duration::from_millis(100)),
        &pids,
    );
    // Same rate, but no app ever subscribes to this one.
    let (_lonely, lonely_emissions) = home.add_push_sensor(
        "lonely",
        PayloadSpec::KindOnly(EventKind::Motion),
        EmissionSchedule::Periodic(Duration::from_millis(100)),
        &pids,
    );
    let (anchor, _) = home.add_actuator("anchor", ActuationState::Switch(false), &[pids[0]]);
    let app = AppBuilder::new(AppId(1), "activity")
        .operator(
            "sink",
            CombinerSpec::Any,
            |_: &mut OpCtx, _: &CombinedWindows| {},
        )
        .sensor(sensor, Delivery::Gapless, WindowSpec::count(1))
        .actuator(anchor, Delivery::Gapless)
        .done()
        .build()
        .expect("valid app");
    let _probe = home.add_app(app);
    let _home = home.build();
    net.run_until(Time::from_secs(90));

    assert!(
        lonely_emissions.emitted() > 800,
        "the dead sensor kept emitting"
    );
    // Subscribed sensor: ≤ ~300 events inside the 30 s GC horizon plus
    // straggler slack. If unsubscribed events were retained, residency
    // would be over 1100 by now (they are never processed, so GC could
    // never collect them).
    let max = store_probe.max_len();
    assert!(
        max <= 400,
        "store residency unbounded: {max} events resident"
    );
}

/// The group-commit tick of the pipelining tests: wide enough that
/// "before the flush" and "after the flush" are unmistakable next to
/// the few milliseconds a ring hop takes. Every process arms its flush
/// timer at start-up, so all five disks flush at multiples of it.
const TICK: Duration = Duration::from_millis(250);

/// The pipelining home: the sensor is heard only by host 1, the app
/// lives at host 0, and the ring runs 1 → 2 → 3 → 4 → 0 — every event
/// crosses four hops, the farthest the app can be from an ingest.
fn far_sensor_home(policy: Option<FlushPolicy>, schedule: EmissionSchedule, tapped: bool) -> Setup {
    deploy(21, policy, RivuletConfig::default(), schedule, &[1], tapped)
}

/// Sequence numbers of the events a process would recover from its
/// disk right now, in log order.
fn seqs_on_disk(backend: &Arc<SimBackend>) -> Vec<u64> {
    let storage = Arc::clone(backend) as Arc<dyn StorageBackend>;
    let (_, recovered) =
        Wal::open(storage, wal_options(FlushPolicy::EveryInterval(TICK))).expect("reopen");
    recovered.events.iter().map(|e| e.id.seq).collect()
}

/// Shape of the durable ring path, in virtual time: the ingest process
/// holds an event's first forward for its flush tick, the relays in
/// between pass it on at ring speed, and the app's host, where the app
/// waits on the append, flushes at once and delivers one fsync later.
/// So the median costs one tick's phase (about half a tick) on top of
/// the volatile path, never a whole tick. When the app's host also
/// waited for its own tick, the same home measured more than one tick
/// (two flush waits); when every hop withheld its forward, more than
/// four.
#[test]
fn durable_ring_delivery_costs_one_flush_wait_and_one_fsync() {
    let median_delay = |policy| {
        // 97 ms against a 250 ms tick: emissions sweep every phase.
        let schedule = EmissionSchedule::Periodic(Duration::from_millis(97));
        let mut s = far_sensor_home(policy, schedule, false);
        s.net.run_until(Time::from_secs(20));
        let mut delays = s.probe.delays();
        assert!(delays.len() > 150, "only {} deliveries", delays.len());
        delays.sort_unstable();
        delays[delays.len() / 2]
    };
    let volatile = median_delay(None);
    let durable = median_delay(Some(FlushPolicy::EveryInterval(TICK)));
    assert!(volatile < Duration::from_millis(25), "ring path {volatile}");
    assert!(
        durable < TICK,
        "median {durable} on a {volatile} ring path: the app's host waited for its tick"
    );
    assert!(
        durable > volatile + TICK.mul_f64(0.25),
        "median {durable} on a {volatile} ring path: the origin skipped its tick"
    );
}

/// The ingest process is the one place an event waits before it first
/// goes on the wire: losing power there between ingest and the tick
/// that would release its forward loses the event everywhere else, so
/// nobody ever held a copy no disk backed. The origin's own disk holds
/// it: its flush started at ingest, because the forward waits on it.
#[test]
fn an_event_lost_before_its_origin_flushed_reached_nobody() {
    // Ticks fall at 1500 and 1750 ms; the third event is caught between.
    let policy = FlushPolicy::EveryInterval(TICK);
    let mut s = far_sensor_home(Some(policy), script(&[560, 1060, 1560]), false);
    let origin = s.home.actor_of(s.pids[1]);
    s.net.crash_at(origin, Time::from_millis(1600));
    s.net.run_until(Time::from_millis(1600));
    s.backends[1].crash();
    s.net.run_until(Time::from_secs(4));

    assert_eq!(s.emissions.emitted(), 3, "the event was emitted, and heard");
    assert_eq!(delivered_seqs(&s.probe), vec![0, 1]);
    for (pid, backend) in s.backends.iter().enumerate() {
        let want: &[u64] = if pid == 1 { &[0, 1, 2] } else { &[0, 1] };
        assert_eq!(seqs_on_disk(backend), want, "process {pid}'s disk");
    }
}

/// A relay that loses power after passing an event on and before its
/// own flush harms nobody: the event is already downstream, the relay
/// recovers without it (as it would have had it withheld the forward),
/// and it never told anyone it held it.
#[test]
fn a_relay_lost_between_forward_and_flush_harms_nobody() {
    // The third event leaves the origin at the 1750 ms tick and is past
    // every relay milliseconds later; their disks flush at 2000 ms. The
    // later events follow once the ring has closed around the hole.
    let policy = FlushPolicy::EveryInterval(TICK);
    let emissions = script(&[560, 1060, 1560, 6060, 6560, 7060]);
    let mut s = far_sensor_home(Some(policy), emissions, true);
    let relay = s.home.actor_of(s.pids[3]);
    let crash = Time::from_millis(1900);
    s.net.crash_at(relay, crash);
    s.net.run_until(crash);
    s.backends[3].crash();
    let on_relay_disk = seqs_on_disk(&s.backends[3]);
    assert_eq!(on_relay_disk, vec![0, 1], "a valid prefix, without event 2");
    s.net.run_until(Time::from_secs(9));

    assert_eq!(delivered_seqs(&s.probe), vec![0, 1, 2, 3, 4, 5]);

    // Possession is advertised only past the gate: no beacon the relay
    // ever sent acknowledged event 2.
    let event_2 = s.probe.deliveries()[2].event;
    let mut beacons = 0;
    for (at, from, msg) in peer_msgs(&s) {
        if let ProcMsg::KeepAlive { received, .. } = msg {
            if from == relay {
                beacons += 1;
                assert!(
                    !received.holds(event_2),
                    "beacon at {at} acknowledged {received:?}"
                );
            }
        }
    }
    assert!(beacons > 0, "the relay's beacons were seen");
}

/// When each send from process `from` that carried a ring message left
/// it: its arrival less the mesh's latency for its bytes.
fn ring_sends(s: &Setup, from: usize) -> Vec<Time> {
    let actor = s.home.actor_of(s.pids[from]);
    let heard = s.heard.lock().expect("tap lock");
    heard
        .iter()
        .filter(|(_, f, _)| *f == actor)
        .filter_map(|(at, _, payload)| {
            let msgs = if Frame::sniff(payload) {
                Frame::from_bytes(payload).expect("frame").msgs
            } else {
                vec![ProcMsg::from_bytes(payload).expect("message")]
            };
            let ring = msgs.iter().any(|m| matches!(m, ProcMsg::Ring { .. }));
            let latency = LinkConfig::wifi().latency_for(payload.len());
            ring.then(|| Time::from_micros(at.as_micros() - latency.as_micros()))
        })
        .collect()
}

/// Under an interval policy the tick is not a commit clock: it fires
/// at multiples of 500 ms here and the flush timer at multiples of
/// 300 ms, so the first forward of an event ingested at 951 ms leaves
/// with the flush at 1200 ms, not with the tick at 1000 ms.
#[test]
fn the_keepalive_tick_does_not_flush_an_interval_policy() {
    let policy = FlushPolicy::EveryInterval(Duration::from_millis(300));
    let config = RivuletConfig::default();
    let mut s = deploy(21, Some(policy), config, script(&[950]), &[0], true);
    s.net.run_until(Time::from_secs(2));
    assert_eq!(ring_sends(&s, 0)[0], Time::from_millis(1200));
}

/// The disk's clock, to the microsecond, on an interval home whose app
/// host is also the ingest process: the app waits on the append, so its
/// flush starts at ingest and the delivery leaves one fsync after the
/// volatile home's, while the first forward waits for the first flush
/// tick after that fsync, as every send does.
#[test]
fn an_app_host_delivers_at_its_fsync_and_forwards_on_the_tick() {
    let delivered =
        |s: &Setup| -> Vec<Time> { s.probe.deliveries().iter().map(|d| d.at).collect() };
    let emission = script(&[560]);
    let mut volatile = deploy(
        21,
        None,
        RivuletConfig::default(),
        emission.clone(),
        &[0],
        false,
    );
    volatile.net.run_until(Time::from_secs(1));
    let heard = delivered(&volatile);
    assert_eq!(heard.len(), 1, "emit + radio");

    let policy = FlushPolicy::EveryInterval(TICK);
    let mut s = deploy(
        21,
        Some(policy),
        RivuletConfig::default(),
        emission,
        &[0],
        true,
    );
    s.net.run_until(Time::from_secs(1));
    let fsync = s.backends[0].sync_cost();
    assert_eq!(delivered(&s), vec![heard[0] + fsync]);
    assert_eq!(ring_sends(&s, 0)[0], Time::from_millis(750));
}

/// An idle home arms no beat. Between 2 s and 11 s the sensor is silent
/// and the durable home fires exactly the volatile home's timers — the
/// keep-alive ticks and the sensor's own — plus one checkpoint per
/// process at 5 s and 10 s; a beat that re-armed itself would add 36 per
/// process. Only the 5 s checkpoint writes: the disk takes no sync
/// from 6 s to 11 s. The first event after the silence, ingested at 11 060 ms,
/// still leaves on the beat's phase: at 11 250 ms, a whole number of
/// 250 ms periods after start, as under a beat that never stopped.
#[test]
fn a_silent_sensor_arms_no_beat_and_the_next_event_keeps_its_phase() {
    let syncs = |s: &Setup| -> Vec<u64> { s.backends.iter().map(|b| b.op_counts().1).collect() };
    let silent = |policy| {
        let emissions = script(&[560, 11_060]);
        let mut s = deploy(21, policy, RivuletConfig::default(), emissions, &[0], true);
        s.net.run_until(Time::from_secs(2));
        let before = s.net.metrics().timers_fired;
        s.net.run_until(Time::from_secs(6));
        let checkpointed = syncs(&s);
        s.net.run_until(Time::from_secs(11));
        let fired = s.net.metrics().timers_fired - before;
        // The 10 s checkpoint finds nothing appended since the 5 s one
        // and the same processed summary: it writes nothing.
        assert_eq!(syncs(&s), checkpointed, "syncs in the silence");
        s.net.run_until(Time::from_secs(12));
        (fired, s)
    };
    let (volatile, _) = silent(None);
    let (durable, s) = silent(Some(FlushPolicy::EveryInterval(TICK)));
    assert_eq!(durable, volatile + 5 * 2, "timers fired in the silence");
    assert_eq!(
        ring_sends(&s, 0),
        vec![Time::from_millis(750), Time::from_millis(11_250)]
    );
    assert_eq!(delivered_seqs(&s.probe), vec![0, 1]);
}
