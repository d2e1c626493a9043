//! The seven workloads: what each runs, and why it exists.
//!
//! Sizes are in *virtual* time: a repetition of a simulated workload
//! always processes the same events, however fast the host is, and the
//! run repeats it for as long as `--seconds` allows. `scale` shrinks
//! the virtual duration (smoke mode, tests), never the event rate.

use rivulet_core::config::ForwardingMode;
use rivulet_devices::sensor::{EmissionSchedule, PayloadSpec};
use rivulet_devices::value::ValueModel;
use rivulet_fleet::{FleetManifest, HomeSpec};
use rivulet_types::{Duration, EventKind};

use crate::home::{periodic_scalar, poisson_motion, DagShape, RingShape, Rng64, SensorShape};

/// What a workload runs.
#[derive(Debug, Clone)]
pub enum Kind {
    /// One simulated per-event-actuation home.
    Ring(RingShape),
    /// The simulated operator-DAG + polling home.
    Dag(DagShape),
    /// A fleet manifest swept on every core.
    Fleet(FleetShape),
    /// A home on the threaded wall-clock driver.
    Live(LiveShape),
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists, in one line.
    pub why: &'static str,
    /// What it runs.
    pub kind: Kind,
}

/// The fleet workload: an inline manifest, expanded by `rivulet-fleet`.
#[derive(Debug, Clone)]
pub struct FleetShape {
    /// The manifest text (TOML subset), seed included.
    pub manifest: String,
}

/// The live workload: a two-host ring driven in wall-clock time.
#[derive(Debug, Clone)]
pub struct LiveShape {
    /// The home.
    pub home: RingShape,
    /// The sensor's period (its schedule, for the lag computation).
    pub period: Duration,
}

/// Workload names, in table order.
pub const NAMES: [&str; 7] = [
    "ring_steady",
    "broadcast_blob",
    "durable_routine",
    "crash_failover",
    "dag_poll",
    "fleet_sweep",
    "live_ring",
];

/// A sensor period of `base_us` ± 0.5 %, seeded. Every timer of the
/// platform has an exact period, so with exact sensor periods too the
/// longest delivery gap (and, with the group-commit timer, every
/// latency) is a whole number of periods and reads identically under
/// every seed; real sensor clocks drift like this.
fn period(base_us: u64, seed: u64, salt: u64) -> Duration {
    let u = Rng64::new(seed ^ salt.wrapping_mul(0x9E37_79B9)).next_f64();
    Duration::from_micros((base_us as f64 * (0.995 + 0.01 * u)).round() as u64)
}

/// `base` virtual seconds scaled by `scale`, but never below `floor`:
/// a run must outlast boot, grace and (where one is scheduled) the
/// failover, and hold the 1 000 events a p99 needs.
fn secs(base: f64, scale: f64, floor: f64) -> Duration {
    Duration::from_micros(((base * scale).max(floor) * 1e6).round() as u64)
}

fn sensor(spec: (PayloadSpec, EmissionSchedule), heard_by: &[(usize, f64)]) -> SensorShape {
    SensorShape {
        payload: spec.0,
        schedule: spec.1,
        heard_by: heard_by.to_vec(),
    }
}

fn ring_base(sensors: Vec<SensorShape>, duration: Duration) -> RingShape {
    RingShape {
        processes: 5,
        forwarding: ForwardingMode::Ring,
        sensors,
        actuator_reach: vec![0],
        durable: None,
        routine_every: None,
        crash: None,
        power_cycle: None,
        failure_timeout: Duration::from_secs(2),
        duration,
    }
}

/// Builds workload `name` for run seed `seed`, its virtual duration
/// scaled by `scale`; `None` for an unknown name.
#[must_use]
pub fn by_name(name: &str, seed: u64, scale: f64) -> Option<Workload> {
    let ms = Duration::from_millis;
    let workload = match name {
        "ring_steady" => Workload {
            name: "ring_steady",
            why: "The paper's common path: Gapless ring, small events, per-event actuation, no faults, nothing durable; delivery, wire and the simulator do the work.",
            kind: Kind::Ring(ring_base(
                vec![
                    // Direct (the app's host hears it) and farthest (one
                    // full ring traversal away) placements, periodic and
                    // Poisson arrivals, so p50 != p99. The direct sensors
                    // are twice as frequent: the median sits firmly in
                    // their mode instead of flipping between the two.
                    sensor(periodic_scalar(period(5_000, seed, 1)), &[(0, 0.0)]),
                    sensor(periodic_scalar(period(10_000, seed, 2)), &[(1, 0.0)]),
                    sensor(poisson_motion(ms(5)), &[(0, 0.0)]),
                    sensor(poisson_motion(ms(10)), &[(1, 0.0)]),
                ],
                secs(50.0, scale, 6.0),
            )),
        },
        "broadcast_blob" => Workload {
            name: "broadcast_blob",
            why: "Fan-out path: eager broadcast of 1 KiB blobs heard by three processes, two of them through 20 % radio loss; encode-once, dedup, acks and payload storage do the work, the ring little.",
            kind: Kind::Ring(RingShape {
                forwarding: ForwardingMode::EagerBroadcast,
                ..ring_base(
                    vec![sensor(
                        (
                            PayloadSpec::Blob {
                                kind: EventKind::Image,
                                len: 1024,
                            },
                            EmissionSchedule::Periodic(period(5_000, seed, 1)),
                        ),
                        &[(0, 0.2), (1, 0.2), (2, 0.0)],
                    )],
                    secs(100.0, scale, 8.0),
                )
            }),
        },
        "durable_routine" => Workload {
            name: "durable_routine",
            why: "Durability path: WAL with group commit on every process, a compensated two-actuator routine on every 10th event, hash-chained ledger on; storage, gating and the routine engine do the work.",
            kind: Kind::Ring(RingShape {
                // Two sensor periods per commit: every tick delivers, so
                // the regular delivery gap is one tick under every seed.
                durable: Some(ms(10)),
                routine_every: Some(10),
                ..ring_base(
                    vec![sensor(periodic_scalar(period(5_000, seed, 1)), &[(1, 0.0)])],
                    secs(100.0, scale, 8.0),
                )
            }),
        },
        "crash_failover" => Workload {
            name: "crash_failover",
            why: "Failure path: durable ring, 5 % radio loss; the app's host dies a third of the way in and a shadow power-cycles; membership, election, anti-entropy, rbcast fallback and WAL recovery run only here.",
            kind: Kind::Ring(RingShape {
                durable: Some(ms(3)),
                // The app's host stays down: a recovered host restarts
                // its command ids at 0 and the actuators drop them as
                // duplicates (see the README's findings), which no
                // workload may do. WAL recovery is exercised by the
                // shadow that power-cycles instead.
                crash: Some((1.0 / 3.0, 2.0)),
                power_cycle: Some((3, 0.5, 2.0 / 3.0)),
                actuator_reach: vec![0, 2],
                ..ring_base(
                    // The lossless receiver is the crashing host's ring
                    // successor: whatever it hears reaches every live
                    // process before the ring hits the dead host.
                    vec![
                        sensor(periodic_scalar(period(5_000, seed, 1)), &[(0, 0.05), (1, 0.0)]),
                        sensor(poisson_motion(ms(5)), &[(0, 0.05), (1, 0.0)]),
                    ],
                    secs(60.0, scale, 15.0),
                )
            }),
        },
        "dag_poll" => Workload {
            name: "dag_poll",
            why: "Programming-model path: three redundant 1 kHz sensors delivered Gap into a Marzullo average, a threshold operator and actuators, plus coordinated polling; the ring, rbcast and storage do nothing.",
            kind: Kind::Dag(DagShape {
                processes: 3,
                period: period(1_000, seed, 1),
                polls: 4,
                duration: secs(60.0, scale, 6.0),
            }),
        },
        "fleet_sweep" => Workload {
            name: "fleet_sweep",
            why: "Start-up/tear-down dominated, the only parallel workload: hundreds of short homes from one manifest on every core; a steady-state win bought with bigger pre-allocation shows here as a loss.",
            kind: Kind::Fleet(FleetShape {
                manifest: fleet_manifest(seed, scale),
            }),
        },
        "live_ring" => Workload {
            name: "live_ring",
            why: "The real-thread, wall-clock path (channels, timers, locks): two hosts, one 200 us sensor, per-event actuation on the threaded driver; evidence for keeping or removing that driver.",
            kind: Kind::Live(LiveShape {
                home: RingShape {
                    processes: 2,
                    ..ring_base(
                        vec![sensor(
                            (
                                PayloadSpec::Scalar(ValueModel::Constant(21.0)),
                                EmissionSchedule::Periodic(Duration::from_micros(200)),
                            ),
                            &[(1, 0.0)],
                        )],
                        // Wall-clock length comes from `--seconds`.
                        Duration::ZERO,
                    )
                },
                period: Duration::from_micros(200),
            }),
        },
        _ => return None,
    };
    Some(workload)
}

/// The fleet workload's inline manifest. Axes are only those no roadmap
/// item plans to delete.
#[must_use]
pub fn fleet_manifest(seed: u64, scale: f64) -> String {
    // Scale the fleet by thinning replication, not by shortening homes:
    // the workload exists for its start-up/tear-down share.
    let homes_per_config = ((8.0 * scale).round() as u64).max(1);
    format!(
        "[fleet]\nname = \"fleet_sweep\"\nseed = {seed}\nhomes_per_config = {homes_per_config}\n\n\
         [base]\nreceivers = 2\nrate_per_sec = 50\nduration_secs = 8.0\n\n\
         [axes]\nprocesses = [3, 5]\nevent_bytes = [4, 1024]\nloss = [0.0, 0.1]\n\
         crash_at_secs = [-1.0, 3.0]\ndurable = [false, true]\n"
    )
}

/// Parses and expands a fleet manifest into per-home specs.
///
/// # Panics
///
/// Panics on a malformed manifest (the text is the harness's own).
#[must_use]
pub fn expand_fleet(manifest: &str) -> Vec<HomeSpec> {
    FleetManifest::from_text(manifest)
        .and_then(|m| m.expand())
        .expect("the inline fleet manifest is valid")
}

/// The home one expanded fleet spec describes, as the harness builds
/// it: the manifest's sensor heard by `receivers` processes (the last
/// one lossless), per-event actuation, the app's host crashing at
/// `crash_at_secs`.
#[must_use]
pub fn fleet_home(spec: &HomeSpec) -> RingShape {
    let p = &spec.params;
    let payload = match p.event_bytes {
        0..=4 => PayloadSpec::KindOnly(EventKind::Motion),
        5..=8 => PayloadSpec::Scalar(ValueModel::Constant(21.0)),
        len => PayloadSpec::Blob {
            kind: EventKind::Image,
            len,
        },
    };
    let period = period(1_000_000 / p.rate_per_sec.max(1), spec.seed, 1);
    let receivers = p.receivers.clamp(1, p.processes);
    let heard_by: Vec<(usize, f64)> = (0..receivers)
        .map(|i| {
            let loss = if i + 1 == receivers { 0.0 } else { p.loss };
            ((i + 1) % p.processes, loss)
        })
        .collect();
    let duration = Duration::from_micros((p.duration_secs * 1e6).round() as u64);
    RingShape {
        processes: p.processes,
        forwarding: p.forwarding,
        sensors: vec![sensor(
            (payload, EmissionSchedule::Periodic(period)),
            &heard_by,
        )],
        // Reached from process 1 as well, the app lands on process 1
        // (a lossy receiver) and the lossless receiver is its ring
        // successor — see `crash_failover`.
        actuator_reach: vec![0, 1],
        durable: p.durable.then_some(Duration::from_millis(3)),
        routine_every: None,
        // A crashed host stays down: short homes end before a recovery
        // would matter.
        crash: (p.crash_at_secs >= 0.0).then(|| (p.crash_at_secs / p.duration_secs, 2.0)),
        power_cycle: None,
        failure_timeout: Duration::from_micros((p.failure_timeout_secs * 1e6).round() as u64),
        duration,
    }
}
