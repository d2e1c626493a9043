//! Integration tests for the execution service (paper §5, §8.4):
//! promotion, demotion, replay, and repeated failovers.

mod common;

use rivulet::core::app::{AppBuilder, CombinedWindows, CombinerSpec, OpCtx, WindowSpec};
use rivulet::core::delivery::Delivery;
use rivulet::core::deploy::{Home, HomeBuilder};
use rivulet::core::probe::{check, AppProbe, IngestProbe, ProbeData};
use rivulet::core::RivuletConfig;
use rivulet::devices::sensor::{EmissionProbe, EmissionSchedule, PayloadSpec};
use rivulet::net::sim::{SimConfig, SimNet};
use rivulet::storage::{FlushPolicy, SimBackend, StorageBackend};
use rivulet::types::{
    ActuationState, AppId, Duration, EventKind, ProcSet, ProcessId, SensorId, Time,
};
use rivulet_bench::common::{run_delivery, DeliveryScenario};
use std::sync::Arc;

struct Setup {
    net: SimNet,
    home: Home,
    probe: Arc<AppProbe>,
    emissions: Arc<EmissionProbe>,
    ingest: Arc<IngestProbe>,
    sensor: SensorId,
    pids: Vec<ProcessId>,
}

/// Five hosts, sensor heard everywhere at 10 ev/s, app anchored at
/// host 0.
fn standard_home(delivery: Delivery, seed: u64, timeout: Duration) -> Setup {
    let every = Duration::from_millis(100);
    home_of(delivery, seed, timeout, every, &[0, 1, 2, 3, 4])
}

/// Five hosts, a sensor emitting `every` heard by the hosts `heard_by`,
/// the app and its actuator anchored at host 0.
fn home_of(
    delivery: Delivery,
    seed: u64,
    timeout: Duration,
    every: Duration,
    heard_by: &[usize],
) -> Setup {
    let mut net = SimNet::new(SimConfig::with_seed(seed));
    let config = RivuletConfig::default().with_failure_timeout(timeout);
    let mut home = HomeBuilder::new(&mut net).with_config(config);
    let ingest = home.with_ingest_probe();
    let pids: Vec<ProcessId> = (0..5).map(|i| home.add_host(format!("host{i}"))).collect();
    let hearers: Vec<ProcessId> = heard_by.iter().map(|i| pids[*i]).collect();
    let (sensor, emissions) = home.add_push_sensor(
        "motion",
        PayloadSpec::KindOnly(EventKind::Motion),
        EmissionSchedule::Periodic(every),
        &hearers,
    );
    let (anchor, _) = home.add_actuator("anchor", ActuationState::Switch(false), &[pids[0]]);
    let app = AppBuilder::new(AppId(1), "activity")
        .operator(
            "sink",
            CombinerSpec::Any,
            |_: &mut OpCtx, _: &CombinedWindows| {},
        )
        .sensor(sensor, delivery, WindowSpec::count(1))
        .actuator(anchor, delivery)
        .done()
        .build()
        .expect("valid app");
    let probe = home.add_app(app);
    let home = home.build();
    Setup {
        net,
        home,
        probe,
        emissions,
        ingest,
        sensor,
        pids,
    }
}

#[test]
fn chain_order_failover_and_demotion_on_recovery() {
    let mut s = standard_home(Delivery::Gapless, 1, Duration::from_secs(2));
    let h0 = s.home.actor_of(s.pids[0]);
    s.net.crash_at(h0, Time::from_secs(10));
    s.net.recover_at(h0, Time::from_secs(25));
    s.net.run_until(Time::from_secs(40));

    let transitions = s.probe.transitions();
    // p0 active at start; p1 promotes after the crash is detected; p0
    // re-promotes after recovery; p1 demotes.
    assert!(transitions
        .iter()
        .any(|(t, p, a)| *a && *p == s.pids[1] && *t > Time::from_secs(10)));
    assert!(transitions
        .iter()
        .any(|(t, p, a)| !*a && *p == s.pids[1] && *t > Time::from_secs(25)));
    assert!(transitions
        .iter()
        .any(|(t, p, a)| *a && *p == s.pids[0] && *t >= Time::from_secs(25)));
    common::assert_deliveries_only_from_active(&s.probe, &[(s.pids[0], Time::from_secs(10))]);
}

#[test]
fn gapless_failover_loses_nothing() {
    let mut s = standard_home(Delivery::Gapless, 2, Duration::from_secs(2));
    let h0 = s.home.actor_of(s.pids[0]);
    s.net.crash_at(h0, Time::from_secs(24));
    s.net.run_until(Time::from_secs(50));
    let verdict = check(&ProbeData {
        crashed: ProcSet::singleton(s.pids[0]),
        // Emissions fall on multiples of the period, so only the one
        // at the run's last instant may still be in flight.
        owed_before: Time::from_secs(50),
        ..common::probe_data(
            s.sensor,
            Delivery::Gapless,
            &s.emissions,
            &s.ingest,
            &s.probe,
        )
    });
    // Every host hears the sensor, so all but that last event is owed.
    common::assert_all_but_tail_owed(&verdict, s.emissions.emitted(), 1);
    assert!(verdict.passed(), "{}", common::describe(&verdict));
}

#[test]
fn gap_failover_gap_scales_with_detection_threshold() {
    // Ablation from DESIGN.md: the Fig. 7 gap size is the failure
    // detector's window. Halving the threshold should roughly halve
    // the number of lost events.
    let lost_at = |timeout: Duration| {
        let mut s = standard_home(Delivery::Gap, 3, timeout);
        let h0 = s.home.actor_of(s.pids[0]);
        s.net.crash_at(h0, Time::from_secs(24));
        s.net.run_until(Time::from_secs(50));
        s.emissions.emitted() as i64 - s.probe.unique_delivered() as i64
    };
    let fast = lost_at(Duration::from_secs(1));
    let slow = lost_at(Duration::from_secs(4));
    assert!(
        fast < slow,
        "shorter detection must lose fewer events: {fast} vs {slow}"
    );
    assert!(
        (5..=20).contains(&fast),
        "1s threshold ≈10 events, got {fast}"
    );
    assert!(
        (30..=55).contains(&slow),
        "4s threshold ≈40 events, got {slow}"
    );
}

#[test]
fn repeated_crashes_walk_down_the_chain() {
    let mut s = standard_home(Delivery::Gapless, 4, Duration::from_secs(2));
    let mut crashes = Vec::new();
    for (i, &offset) in [10u64, 20, 30].iter().enumerate() {
        let actor = s.home.actor_of(s.pids[i]);
        s.net.crash_at(actor, Time::from_secs(offset));
        crashes.push((s.pids[i], Time::from_secs(offset)));
    }
    s.net.run_until(Time::from_secs(45));
    let actives: Vec<ProcessId> = s
        .probe
        .transitions()
        .iter()
        .filter(|(_, _, a)| *a)
        .map(|(_, p, _)| *p)
        .collect();
    assert_eq!(
        actives,
        vec![s.pids[0], s.pids[1], s.pids[2], s.pids[3]],
        "leadership walks down the placement chain"
    );
    common::assert_deliveries_only_from_active(&s.probe, &crashes);
    // p3 (the final primary) still processes events.
    let last_delivery = s.probe.deliveries().last().copied().expect("deliveries");
    assert_eq!(last_delivery.by, s.pids[3]);
    assert!(last_delivery.at > Time::from_secs(40));
}

#[test]
fn crashed_majority_does_not_stop_the_home() {
    // Rivulet explicitly avoids majority assumptions: with 4 of 5
    // processes dead, the survivor runs everything.
    let mut s = standard_home(Delivery::Gapless, 5, Duration::from_secs(2));
    for i in 0..4 {
        let actor = s.home.actor_of(s.pids[i]);
        s.net.crash_at(actor, Time::from_secs(5));
    }
    s.net.run_until(Time::from_secs(30));
    let survivor_deliveries = s
        .probe
        .deliveries()
        .iter()
        .filter(|d| d.by == s.pids[4] && d.at > Time::from_secs(10))
        .count();
    assert!(
        survivor_deliveries > 150,
        "survivor kept processing: {survivor_deliveries}"
    );
}

#[test]
fn sensor_crash_is_survived_and_resumed() {
    // Sensor failures (battery drain, unplugging) simply stop events;
    // the platform keeps running and resumes when the sensor returns.
    let mut s = standard_home(Delivery::Gapless, 6, Duration::from_secs(2));
    let sensor_actor = s.home.sensors[0].1;
    s.net.crash_at(sensor_actor, Time::from_secs(10));
    s.net.recover_at(sensor_actor, Time::from_secs(20));
    s.net.run_until(Time::from_secs(30));
    let deliveries = s.probe.deliveries();
    let during: usize = deliveries
        .iter()
        .filter(|d| d.at > Time::from_secs(11) && d.at < Time::from_secs(20))
        .count();
    let after: usize = deliveries
        .iter()
        .filter(|d| d.at > Time::from_secs(21))
        .count();
    assert_eq!(during, 0, "a dead sensor reports nothing");
    assert!(after > 50, "events resume after sensor recovery: {after}");
}

/// Guards I3 (DESIGN §4.1): an express copy waits at its origin's gate
/// and the host's delivery at the host's own, so a host that loses
/// power with express copies in flight — on the wire, or received and
/// not yet flushed — takes nothing with it. The sensor is heard only
/// by host 1; host 0 and its disk's unsynced tail go at 4 s; host 1,
/// promoted, replays every event host 0 had not processed from its own
/// store, and events emitted while host 0 was still in its view too.
#[test]
fn host_crash_with_express_copies_in_flight_loses_nothing() {
    let policy = FlushPolicy::EveryInterval(Duration::from_millis(50));
    let config = RivuletConfig::default();
    let mut s = common::deploy(41, Some(policy), config, common::paced(100), &[1], false);
    let crash = Time::from_secs(4);
    s.net.crash_at(s.home.actor_of(s.pids[0]), crash);
    s.net.run_until(crash);
    s.backends[0].crash();
    s.net.run_until(Time::from_secs(12));

    let deliveries = s.probe.deliveries();
    let mut seqs = common::delivered_seqs(&s.probe);
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(
        seqs,
        (0..100).collect::<Vec<_>>(),
        "gapless across the crash"
    );
    let after = deliveries.iter().filter(|d| d.at > crash);
    assert!(
        after.clone().count() >= 59,
        "events 41.. were emitted after"
    );
    assert!(after.clone().all(|d| d.by == s.pids[1]), "by the shadow");
}

/// Guards ROADMAP 2(b): a recovered process used to mint command ids
/// from 0 again, so the actuator dropped its commands as duplicates of
/// the ones it applied before the crash. Three hosts hear a 10 ev/s
/// sensor; a lamp reachable only from host 0 is set to each event's
/// sequence number. Host 0 crashes at 10 s, recovers at 25 s and takes
/// the app back; every event it processes from then on must reach the
/// lamp.
#[test]
fn a_recovered_host_actuates_every_event_it_processes() {
    let mut net = SimNet::new(SimConfig::with_seed(3));
    let config = RivuletConfig::default().with_failure_timeout(Duration::from_secs(2));
    let mut home = HomeBuilder::new(&mut net).with_config(config);
    let pids: Vec<ProcessId> = (0..3).map(|i| home.add_host(format!("host{i}"))).collect();
    let (sensor, _) = home.add_push_sensor(
        "motion",
        PayloadSpec::KindOnly(EventKind::Motion),
        EmissionSchedule::Periodic(Duration::from_millis(100)),
        &pids,
    );
    let (lamp, lamp_probe) = home.add_actuator("lamp", ActuationState::Level(0.0), &[pids[0]]);
    let app = AppBuilder::new(AppId(1), "follow")
        .operator(
            "follow",
            CombinerSpec::Any,
            move |ctx: &mut OpCtx, w: &CombinedWindows| {
                for e in w.all_events() {
                    ctx.set_level(lamp, e.id.seq as f64);
                }
            },
        )
        .sensor(sensor, Delivery::Gapless, WindowSpec::count(1))
        .actuator(lamp, Delivery::Gapless)
        .done()
        .build()
        .expect("valid app");
    let probe = home.add_app(app);
    let home = home.build();
    let h0 = home.actor_of(pids[0]);
    net.crash_at(h0, Time::from_secs(10));
    net.recover_at(h0, Time::from_secs(25));
    net.run_until(Time::from_secs(40));

    let window = |t: Time| t > Time::from_secs(26) && t <= Time::from_secs(39);
    let processed = probe
        .deliveries()
        .iter()
        .filter(|d| d.by == pids[0] && window(d.at))
        .count();
    let applied = lamp_probe
        .effects()
        .iter()
        .filter(|(t, _, _)| *t > Time::from_secs(26))
        .count();
    assert!(
        processed > 100,
        "host 0 processed {processed} after recovery"
    );
    assert!(
        applied + 5 >= processed,
        "host 0 processed {processed} events after recovery but the lamp applied \
         {applied} commands ({} suppressed as duplicates)",
        lamp_probe.duplicates_suppressed()
    );
}

/// Command ids need no recovery: every start of a process mints above
/// every id its earlier starts minted, even when a promotion replays a
/// large backlog at its start instant. Host 0 (the app's, durable, with
/// no checkpoint to bound the replay) turns each of a 100 ev/s sensor's
/// events into a command. It loses power at 3 s and at 10 s and comes
/// back at 8 s and 12 s; each time it takes the app back at once and
/// replays every event its log holds.
#[test]
fn a_restarted_process_mints_above_every_id_it_minted_before() {
    let mut net = SimNet::new(SimConfig::with_seed(21));
    let config = RivuletConfig::default().with_failure_timeout(Duration::from_secs(2));
    let mut home = HomeBuilder::new(&mut net).with_config(config);
    let pids: Vec<ProcessId> = (0..3).map(|i| home.add_host(format!("host{i}"))).collect();
    let backends: Vec<Arc<SimBackend>> = (0..3).map(|i| Arc::new(SimBackend::new(i))).collect();
    let for_factory = backends.clone();
    let no_checkpoint = Duration::from_secs(3600);
    let mut home = home.with_storage(
        common::wal_options(FlushPolicy::EveryInterval(Duration::from_millis(1))),
        no_checkpoint,
        move |pid: ProcessId| {
            Arc::clone(&for_factory[pid.as_u32() as usize]) as Arc<dyn StorageBackend>
        },
    );
    let (sensor, _) = home.add_push_sensor(
        "motion",
        PayloadSpec::KindOnly(EventKind::Motion),
        EmissionSchedule::Periodic(Duration::from_millis(10)),
        &pids,
    );
    let (lamp, _) = home.add_actuator("lamp", ActuationState::Level(0.0), &pids);
    let app = AppBuilder::new(AppId(1), "follow")
        .operator(
            "follow",
            CombinerSpec::Any,
            move |ctx: &mut OpCtx, w: &CombinedWindows| {
                for e in w.all_events() {
                    ctx.set_level(lamp, e.id.seq as f64);
                }
            },
        )
        .sensor(sensor, Delivery::Gapless, WindowSpec::count(1))
        .actuator(lamp, Delivery::Gapless)
        .done()
        .build()
        .expect("valid app");
    let probe = home.add_app(app);
    let home = home.build();
    let h0 = home.actor_of(pids[0]);
    let starts = [Time::ZERO, Time::from_secs(8), Time::from_secs(12)];
    for (down, up) in [(3, 8), (10, 12)] {
        net.crash_at(h0, Time::from_secs(down));
        net.run_until(Time::from_secs(down));
        backends[0].crash();
        net.recover_at(h0, Time::from_secs(up));
    }
    net.run_until(Time::from_secs(15));

    let mine: Vec<(Time, u64)> = probe
        .commands()
        .iter()
        .filter(|(_, c)| c.id.issuer == pids[0])
        .map(|(at, c)| (*at, c.id.seq))
        .collect();
    let backlog = mine.iter().filter(|(at, _)| *at == starts[1]).count();
    assert!(
        backlog >= 250,
        "the promotion at 8 s replayed {backlog} events at one instant"
    );
    let mut below = 0;
    for (k, start) in starts.iter().enumerate() {
        let end = starts.get(k + 1).copied().unwrap_or(Time::MAX);
        let ids: Vec<u64> = mine
            .iter()
            .filter(|(at, _)| *at >= *start && *at < end)
            .map(|(_, seq)| *seq)
            .collect();
        assert!(ids.len() > 100, "start {k} minted {} ids", ids.len());
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "start {k} mints ascending ids"
        );
        assert!(
            ids[0] >= below,
            "start {k} minted {} after an earlier start minted {}",
            ids[0],
            below - 1
        );
        below = ids[ids.len() - 1] + 1;
    }
}

/// The hole the checker found in `fleet_smoke`'s home 40: three hosts,
/// the sensor heard by hosts 1 and 2 through 10 % loss, host 0 (the
/// app's) crashed at 2 s, run for 10 s. Events 24 and 31 reach only
/// host 2, whose ring path to the promoted host 1 ran through the dead
/// host 0. Host 1's holdings report them missing, so host 2's tracked
/// entries for them do not retire, and both are delivered.
#[test]
fn events_heard_only_behind_the_crashed_app_host_are_delivered() {
    let mut cfg = DeliveryScenario::paper_default(Delivery::Gapless);
    cfg.n_processes = 3;
    cfg.receivers = vec![1, 2];
    cfg.event_bytes = 64;
    cfg.duration = Duration::from_secs(10);
    cfg.loss = 0.1;
    cfg.crash_app_at = Some(Time::from_secs(2));
    cfg.obs = true;
    cfg.seed = 0x53f5_8f6e_3018_ac9f;
    let verdict = run_delivery(&cfg).verdict;
    assert!(verdict.passed(), "{}", common::describe(&verdict));
}

/// One case of the sweep below: 50 ev/s heard by hosts 0 and 1, the
/// sensor's radio link to host 0 losing `radio_loss`, every peer's link
/// to host 0 losing `link_loss` from 1 s, host 0 down for good at an
/// instant drawn from `seed` between 3 s and 6 s. Returns what the
/// checker finds wrong with the app's deliveries by 14 s, if anything.
fn lossy_app_host_case(seed: u64, link_loss: f64, radio_loss: f64) -> Result<(), String> {
    let timeout = RivuletConfig::default().failure_timeout;
    let every = Duration::from_millis(20);
    let mut s = home_of(Delivery::Gapless, seed, timeout, every, &[0, 1]);
    let host_0 = s.home.actor_of(s.pids[0]);
    let radio = s.home.sensors[0].1;
    s.net.topology_mut().set_loss(radio, host_0, radio_loss);
    for peer in &s.pids[1..] {
        let peer = s.home.actor_of(*peer);
        s.net
            .set_loss_at(Time::from_secs(1), peer, host_0, link_loss);
    }
    let crash = common::Draw(seed).instant(3_000, 6_000);
    s.net.crash_at(host_0, crash);
    s.net.run_until(Time::from_secs(14));
    let verdict = check(&ProbeData {
        crashed: ProcSet::singleton(s.pids[0]),
        owed_before: Time::from_secs(10),
        ..common::probe_data(
            s.sensor,
            Delivery::Gapless,
            &s.emissions,
            &s.ingest,
            &s.probe,
        )
    });
    if verdict.owed < 400 {
        return Err(format!("seed {seed}: owed only {}", verdict.owed));
    }
    verdict.passed().then_some(()).ok_or_else(|| {
        let loss = format!("links {link_loss}, radio {radio_loss}");
        let crash = crash.as_millis();
        format!(
            "seed {seed} ({loss}, crash {crash} ms):\n{}",
            common::describe(&verdict)
        )
    })
}

/// The app's host processes a lossy stream with holes — events it never
/// heard, by radio or from its peers — and dies. The processed summary
/// it advertised holds everything it processed and nothing else, so the
/// promoted host 1 replays every stored event in those holes. A summary
/// that kept only the highest `seq` processed told host 1 the holes
/// were done, and it never delivered them. Forty seeds, two loss
/// settings each.
#[test]
fn a_promoted_shadow_replays_every_event_the_crashed_host_left_unprocessed() {
    let cases = (0..40).flat_map(|seed| [(seed, 0.5, 0.3), (seed, 0.8, 0.5)]);
    let broken: Vec<String> = cases
        .filter_map(|(seed, link, radio)| lossy_app_host_case(seed, link, radio).err())
        .collect();
    assert!(
        broken.is_empty(),
        "{} of 80 cases:\n{}",
        broken.len(),
        broken.join("\n")
    );
}
