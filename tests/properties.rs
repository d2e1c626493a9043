//! System-level property tests: whole simulated deployments driven by
//! randomized fault schedules, checking the paper's core guarantees.

mod common;

use proptest::prelude::*;
use rivulet::core::app::{AppBuilder, CombinedWindows, CombinerSpec, OpCtx, WindowSpec};
use rivulet::core::delivery::Delivery;
use rivulet::core::deploy::HomeBuilder;
use rivulet::core::probe::{check, ProbeData};
use rivulet::core::RivuletConfig;
use rivulet::devices::sensor::{EmissionSchedule, PayloadSpec};
use rivulet::net::sim::{SimConfig, SimNet};
use rivulet::types::{ActuationState, AppId, Duration, EventKind, ProcSet, Time};

/// One randomized run: n processes, random receiver subset, random
/// loss, random crash/recover of a non-app process. Returns
/// (emitted, unique delivered, the checker's inputs).
fn run_home(
    seed: u64,
    n_processes: usize,
    receiver_mask: u8,
    loss_pct: u8,
    crash_receiver: bool,
    delivery: Delivery,
) -> (u64, usize, ProbeData) {
    let mut net = SimNet::new(SimConfig::with_seed(seed));
    let config = RivuletConfig::default();
    let mut home = HomeBuilder::new(&mut net).with_config(config);
    let ingest = home.with_ingest_probe();
    let pids: Vec<_> = (0..n_processes)
        .map(|i| home.add_host(format!("h{i}")))
        .collect();
    // Receivers: non-empty subset of non-app processes derived from the mask.
    let mut receivers: Vec<_> = pids
        .iter()
        .skip(1)
        .enumerate()
        .filter(|(i, _)| receiver_mask & (1 << i) != 0)
        .map(|(_, p)| *p)
        .collect();
    if receivers.is_empty() {
        receivers.push(pids[n_processes - 1]);
    }
    let (sensor, emissions) = home.add_push_sensor(
        "motion",
        PayloadSpec::KindOnly(EventKind::Motion),
        EmissionSchedule::Periodic(Duration::from_millis(250)),
        &receivers,
    );
    let (anchor, _) = home.add_actuator("a", ActuationState::Switch(false), &[pids[0]]);
    let app = AppBuilder::new(AppId(1), "sink")
        .operator(
            "sink",
            CombinerSpec::Any,
            |_: &mut OpCtx, _: &CombinedWindows| {},
        )
        .sensor(sensor, delivery, WindowSpec::count(1))
        .actuator(anchor, delivery)
        .done()
        .build()
        .unwrap();
    let probe = home.add_app(app);
    let home = home.build();

    if loss_pct > 0 {
        let device = home.sensor_actor(sensor);
        for r in &receivers {
            net.topology_mut().set_loss(
                device,
                home.actor_of(*r),
                f64::from(loss_pct.min(90)) / 100.0,
            );
        }
    }
    let mut crashed = ProcSet::EMPTY;
    if crash_receiver && n_processes > 2 {
        // Crash one receiver (never the app host) mid-run, recover later.
        let victim = receivers[0];
        net.crash_at(home.actor_of(victim), Time::from_secs(5));
        net.recover_at(home.actor_of(victim), Time::from_secs(12));
        crashed = ProcSet::singleton(victim);
    }
    net.run_until(Time::from_secs(20));

    let data = ProbeData {
        crashed,
        // Emissions fall on multiples of the period, so only the one
        // at the run's last instant may still be in flight.
        owed_before: Time::from_secs(20),
        ..common::probe_data(sensor, delivery, &emissions, &ingest, &probe)
    };
    (emissions.emitted(), probe.unique_delivered(), data)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // whole-home simulations are heavy
        .. ProptestConfig::default()
    })]

    /// Gapless post-ingest guarantee: with more than one independent
    /// receiver and moderate loss, delivery percentage must beat the
    /// single-link survival rate (and never exceed emitted).
    #[test]
    fn gapless_beats_single_link_survival(
        seed in 0u64..1_000,
        loss_pct in 10u8..50,
        mask in 3u8..15, // at least two receivers
    ) {
        prop_assume!(mask.count_ones() >= 2);
        let (emitted, delivered, _) =
            run_home(seed, 5, mask, loss_pct, false, Delivery::Gapless);
        prop_assert!(delivered as u64 <= emitted);
        let m = mask.count_ones();
        let p = f64::from(loss_pct) / 100.0;
        let single = 1.0 - p;
        let multi = 1.0 - p.powi(m as i32);
        let fraction = delivered as f64 / emitted as f64;
        // Expected ≈ multi; must clearly exceed the single-link rate
        // (allow sampling noise on ~80 events).
        prop_assert!(
            fraction > single - 0.12,
            "fraction {fraction:.3} vs single-link {single:.3} (m={m})"
        );
        prop_assert!(fraction < multi + 0.10, "fraction above the ingest ceiling");
    }

    /// Failure-free runs deliver exactly once: no duplicates, no losses
    /// (modulo in-flight tail events).
    #[test]
    fn failure_free_is_exactly_once(
        seed in 0u64..1_000,
        n in 2usize..6,
        mask in 1u8..15,
        delivery_gapless in any::<bool>(),
    ) {
        let delivery = if delivery_gapless { Delivery::Gapless } else { Delivery::Gap };
        let (emitted, _, mut data) = run_home(seed, n, mask, 0, false, delivery);
        let verdict = check(&data);
        prop_assert!(verdict.passed(), "{}", common::describe(&verdict));
        // Gap owes nothing in general, but a failure-free, lossless home
        // owes it everything Gapless would: all but the in-flight tail.
        data.streams[0].delivery = Delivery::Gapless;
        let verdict = check(&data);
        prop_assert!(verdict.owed + 1 >= emitted, "owed only {} of {emitted}", verdict.owed);
        prop_assert!(verdict.passed(), "{}", common::describe(&verdict));
    }

    /// A receiver crash-recovery never loses Gapless events as long as
    /// another receiver stays up.
    #[test]
    fn gapless_survives_receiver_churn(
        seed in 0u64..1_000,
        mask in 3u8..15,
    ) {
        prop_assume!(mask.count_ones() >= 2);
        let (emitted, _, data) = run_home(seed, 5, mask, 0, true, Delivery::Gapless);
        let verdict = check(&data);
        // Another receiver stays up, so all but the in-flight tail is owed.
        prop_assert!(verdict.owed + 1 >= emitted, "owed only {} of {emitted}", verdict.owed);
        prop_assert!(verdict.passed(), "{}", common::describe(&verdict));
    }
}
