//! Same seed, same everything: virtual-time metrics, counts and
//! allocations repeat bit for bit.
//!
//! One `#[test]` in a file of its own: the allocation counter is
//! process-wide, and a test running beside it would be counted too.

use rivulet_perf::alloc;
use rivulet_perf::home::SimHome;
use rivulet_perf::oracle::judge;
use rivulet_perf::rep::{RepData, Virtual};
use rivulet_perf::workloads::{by_name, Kind};

/// What must repeat exactly.
#[derive(Debug, PartialEq)]
struct Exact {
    virt: Virtual,
    attempted: u64,
    failed: u64,
    messages_sent: u64,
    timers_fired: u64,
    wifi_bytes: u64,
    sim_events: u64,
    commands: usize,
    allocs: (u64, u64),
}

fn run_once(name: &str, seed: u64) -> (Exact, RepData) {
    let workload = by_name(name, seed, 0.1).expect("known workload");
    let mut home = match &workload.kind {
        Kind::Ring(shape) => SimHome::ring(shape, seed, true),
        Kind::Dag(shape) => SimHome::dag(shape, seed, true),
        _ => unreachable!("simulated workloads only"),
    };
    let ((), allocs) = alloc::counted(|| home.run());
    let rep = home.collect();
    let verdict = judge(&rep);
    assert!(
        verdict.correct(),
        "{name} seed {seed}: {:#?}",
        verdict.violations
    );
    assert_eq!(verdict.failed, 0, "{name} seed {seed} failed operations");
    let exact = Exact {
        virt: rep.virtual_metrics().expect("enough samples at scale 0.1"),
        attempted: verdict.attempted,
        failed: verdict.failed,
        messages_sent: rep.net.messages_sent,
        timers_fired: rep.net.timers_fired,
        wifi_bytes: rep.net.wifi_bytes,
        sim_events: rep.net.sim_events,
        commands: rep.commands.len(),
        allocs,
    };
    (exact, rep)
}

#[test]
fn same_seed_repeats_exactly_and_another_seed_passes_the_oracle() {
    for name in ["ring_steady", "dag_poll"] {
        // The first run in a process sizes lazily-grown tables; compare
        // the runs after it.
        let _ = run_once(name, 7);
        let (first, rep) = run_once(name, 7);
        let (second, _) = run_once(name, 7);
        assert_eq!(first, second, "{name}: same seed, different result");
        assert!(first.allocs.0 > 0, "{name}: allocations were counted");
        assert!(first.virt.delivered > 1_000, "{name}: a real run");
        // The traced repetition exported the platform's counters.
        assert!(rep.obs.counter("app.deliveries") >= first.virt.delivered);

        let (other, _) = run_once(name, 8);
        assert_ne!(
            first.virt, other.virt,
            "{name}: the seed reaches the inputs"
        );
    }
}
