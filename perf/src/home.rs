//! Building the benchmark's homes and reading them back.
//!
//! Homes are built straight on `HomeBuilder` over
//! `RivuletConfig::default()` plus only the setters no roadmap item
//! plans to delete (`with_failure_timeout`, `with_forwarding`,
//! `with_routines`, `with_routine_ledger_seed`), so the benchmark keeps
//! compiling when optional mechanisms go. Everything random about a
//! home — Poisson arrivals, loss coin-flips, link latencies, disk
//! seeds, the ledger seed — derives from the run seed.

use std::sync::Arc;

use rivulet_core::app::{
    AppBuilder, AppSpec, CombinedWindows, CombinerSpec, EvictorPolicy, MarzulloAverage, OpCtx,
    PollSpec, WindowSpec,
};
use rivulet_core::config::ForwardingMode;
use rivulet_core::delivery::Delivery;
use rivulet_core::deploy::{Driver, Home, HomeBuilder};
use rivulet_core::probe::{AppProbe, StoreProbe};
use rivulet_core::routine::{RoutineProbe, RoutineSpec};
use rivulet_core::RivuletConfig;
use rivulet_devices::actuator::ActuatorProbe;
use rivulet_devices::sensor::{EmissionProbe, EmissionSchedule, PayloadSpec, PollProbe};
use rivulet_devices::value::ValueModel;
use rivulet_net::link::LinkConfig;
use rivulet_net::sim::{SimConfig, SimNet};
use rivulet_obs::ObsSnapshot;
use rivulet_storage::{FlushPolicy, SimBackend, StorageBackend, Wal, WalOptions};
use rivulet_types::{
    ActuationState, ActuatorId, AppId, CommandKind, Duration, EventKind, ProcessId, RoutineId,
    SensorId, Time,
};

use crate::rep::{
    level_code, Actuation, ActuatorTrace, Guarantee, NetCounts, PollTrace, RepData, RoutineTrace,
    SensorTrace,
};

/// SplitMix64: the harness's own seeded stream (the platform only ever
/// sees the inputs generated from it).
#[derive(Debug, Clone)]
pub struct Rng64(u64);

impl Rng64 {
    /// A stream seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One push sensor of a ring-shaped home.
#[derive(Debug, Clone)]
pub struct SensorShape {
    /// What each event carries.
    pub payload: PayloadSpec,
    /// When it emits.
    pub schedule: EmissionSchedule,
    /// `(process index, radio loss)` of every process that hears it.
    /// At least one loss is 0, so every event is ingested somewhere and
    /// Gapless owes the app all of them.
    pub heard_by: Vec<(usize, f64)>,
}

/// A home whose app actuates once per event: the shape shared by the
/// ring, broadcast, durable, failover, fleet and live workloads.
#[derive(Debug, Clone)]
pub struct RingShape {
    /// Number of processes.
    pub processes: usize,
    /// Gapless replication protocol.
    pub forwarding: ForwardingMode,
    /// Push sensors, all delivered Gapless.
    pub sensors: Vec<SensorShape>,
    /// Processes that can drive the actuators.
    pub actuator_reach: Vec<usize>,
    /// WAL on every process, group-committing on a timer of about this
    /// period (± 1 %, seeded).
    pub durable: Option<Duration>,
    /// Fire a compensated two-actuator routine on every n-th event of
    /// sensor 0, with the hash-chained ledger on.
    pub routine_every: Option<u64>,
    /// Crash the app-bearing process ([`RingShape::app_host`]) at the
    /// first instant and recover it at the second, as fractions of the
    /// run.
    pub crash: Option<(f64, f64)>,
    /// Power-cycle another process `(index, down, up)`, as fractions of
    /// the run: its WAL recovers and anti-entropy catches it up.
    pub power_cycle: Option<(usize, f64, f64)>,
    /// Failure-detection threshold.
    pub failure_timeout: Duration,
    /// Virtual run length.
    pub duration: Duration,
}

impl RingShape {
    /// Index of the process the platform's placement rule puts the
    /// active logic node on: the one reaching most of the app's
    /// devices, ties to the lower id.
    #[must_use]
    pub fn app_host(&self) -> usize {
        let actuators = ZONES + if self.routine_every.is_some() { 2 } else { 0 };
        let score = |p: usize| {
            let heard = self
                .sensors
                .iter()
                .filter(|s| s.heard_by.iter().any(|(q, _)| *q == p))
                .count();
            heard
                + if self.actuator_reach.contains(&p) {
                    actuators
                } else {
                    0
                }
        };
        (0..self.processes)
            .max_by_key(|p| (score(*p), std::cmp::Reverse(*p)))
            .expect("a home has processes")
    }
}

/// The routine the durable workload fires.
pub const ROUTINE: RoutineId = RoutineId(1);

/// WAL tuning of the durable workloads: group commit on a timer of
/// `cadence` ± 1 %, seeded.
///
/// Every process's commit timer ticks at the same instants, so an event
/// crosses one process per tick and is delivered on a tick. Workloads
/// choose the cadence away from two resonances: at (or just below) the
/// sensors' 5 ms the regular delivery gap flips between one, two and
/// three ticks with the sign of the seeded difference; at the links'
/// 2 ms a hop lands just before or just after a tick with the link's
/// seeded jitter, and latency with it.
fn wal_options(cadence: Duration, seed: u64) -> WalOptions {
    let jitter = 0.99 + 0.02 * Rng64::new(seed ^ 0x57A1).next_f64();
    WalOptions {
        flush_policy: FlushPolicy::EveryInterval(cadence.mul_f64(jitter)),
        ..WalOptions::default()
    }
}

struct RoutineTap {
    probe: Arc<RoutineProbe>,
    every: u64,
}

/// Probe handles of a deployed home, on either driver.
pub struct Taps {
    /// The deployment's actor ids.
    pub home: Home,
    processes: usize,
    sensors: Vec<(SensorId, Guarantee, Arc<EmissionProbe>)>,
    polls: Vec<(SensorId, Arc<PollProbe>, Duration)>,
    actuators: Vec<(ActuatorId, Arc<ActuatorProbe>)>,
    actuation: Actuation,
    app: Arc<AppProbe>,
    store: Arc<StoreProbe>,
    backends: Vec<Arc<SimBackend>>,
    wal: WalOptions,
    routine: Option<RoutineTap>,
    seed: u64,
}

impl std::fmt::Debug for Taps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Taps")
            .field("processes", &self.processes)
            .field("sensors", &self.sensors.len())
            .field("actuators", &self.actuators.len())
            .finish_non_exhaustive()
    }
}

impl Taps {
    /// Physical effects applied so far across every actuator.
    #[must_use]
    pub fn effects(&self) -> usize {
        self.actuators.iter().map(|(_, p)| p.effect_count()).sum()
    }

    /// Events emitted so far across every push sensor.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.sensors.iter().map(|(_, _, p)| p.emitted()).sum()
    }

    /// Reads every probe back into plain data.
    #[must_use]
    pub fn collect(
        &self,
        end: Time,
        crash: Option<(Time, Time)>,
        net: NetCounts,
        obs: ObsSnapshot,
    ) -> RepData {
        let routine = self.routine.as_ref().map(|tap| RoutineTrace {
            ledger_seed: self.seed,
            instances: tap.probe.instances(),
            ledgers: self
                .backends
                .iter()
                .enumerate()
                .map(|(i, backend)| {
                    let (_wal, recovered) =
                        Wal::open(Arc::clone(backend) as Arc<dyn StorageBackend>, self.wal)
                            .expect("reopen a process's WAL after the run");
                    (ProcessId(i as u32), recovered.ledger)
                })
                .collect(),
            triggered: tap.probe.triggered(),
            unreachable: tap.probe.unreachable(),
            every: tap.every,
            trigger_sensor: self.sensors[0].0,
        });
        RepData {
            end,
            processes: self.processes,
            sensors: self
                .sensors
                .iter()
                .map(|(id, guarantee, probe)| SensorTrace {
                    id: *id,
                    guarantee: *guarantee,
                    emissions: probe.log().into_iter().map(|(t, e)| (t, e.seq)).collect(),
                })
                .collect(),
            polls: self
                .polls
                .iter()
                .map(|(id, probe, epoch)| PollTrace {
                    id: *id,
                    received: probe.received(),
                    answered: probe.answered(),
                    dropped_busy: probe.dropped_busy(),
                    epochs: end.duration_since(Time::ZERO).div_duration(*epoch),
                })
                .collect(),
            actuators: self
                .actuators
                .iter()
                .map(|(id, probe)| ActuatorTrace {
                    id: *id,
                    effects: probe.effects(),
                    duplicates_suppressed: probe.duplicates_suppressed(),
                })
                .collect(),
            actuation: self.actuation,
            deliveries: self.app.deliveries(),
            commands: self.app.commands(),
            transitions: self.app.transitions(),
            epoch_misses: self.app.epoch_misses(),
            stale_drops: self.app.stale_drops(),
            crash,
            routine,
            store_len_max: self.store.max_len(),
            net,
            obs,
        }
    }
}

/// Dimmer zones the per-event app spreads its commands over. The
/// emulated `ActuatorDevice` keeps every applied command id in a `Vec`
/// it scans per command, so one actuator taking every command makes a
/// run's cost quadratic in its length — an artefact of the emulator,
/// not of the platform. Sixteen zones keep that term to a few percent
/// of a repetition.
pub const ZONES: usize = 16;

/// Builds the per-event-actuation app: every event of every sensor
/// sets one of the first [`ZONES`] `actuators` (by sequence number) to
/// the level that names the event, and every `routine_every`-th event
/// of `sensors[0]` fires [`ROUTINE`]. Shared by the deployment and the
/// `core.app` layer probe.
///
/// # Panics
///
/// Panics if the graph is malformed (a harness bug).
#[must_use]
pub fn ring_app(
    sensors: &[SensorId],
    actuators: &[ActuatorId],
    routine_every: Option<u64>,
) -> AppSpec {
    let zones: Vec<ActuatorId> = actuators[..ZONES].to_vec();
    let trigger = routine_every.map(|every| (sensors[0], every));
    let mut op = AppBuilder::new(AppId(1), "per-event-actuation").operator(
        "actuate",
        CombinerSpec::Any,
        move |ctx: &mut OpCtx, w: &CombinedWindows| {
            for event in w.all_events() {
                let zone = zones[(event.id.seq % ZONES as u64) as usize];
                ctx.set_level(zone, level_code(event.id));
                if let Some((sensor, every)) = trigger {
                    if event.id.sensor == sensor && event.id.seq % every == every - 1 {
                        ctx.run_routine(ROUTINE);
                    }
                }
            }
        },
    );
    for id in sensors {
        op = op.sensor(*id, Delivery::Gapless, WindowSpec::count(1));
    }
    for id in actuators {
        op = op.actuator(*id, Delivery::Gapless);
    }
    op.done().build().expect("valid app")
}

/// Deploys a ring-shaped home on `driver`.
///
/// # Panics
///
/// Panics on a malformed shape (a harness bug, not a measurement).
pub fn deploy_ring<D: Driver>(driver: &mut D, shape: &RingShape, seed: u64) -> Taps {
    let mut config = RivuletConfig::default()
        .with_failure_timeout(shape.failure_timeout)
        .with_forwarding(shape.forwarding);
    if shape.routine_every.is_some() {
        config = config.with_routines(true).with_routine_ledger_seed(seed);
    }
    let mut home = HomeBuilder::new(driver).with_config(config);
    let wal = shape
        .durable
        .map_or_else(WalOptions::default, |cadence| wal_options(cadence, seed));
    let backends: Vec<Arc<SimBackend>> = if shape.durable.is_some() {
        (0..shape.processes as u64)
            .map(|i| Arc::new(SimBackend::new(seed.wrapping_mul(131).wrapping_add(i))))
            .collect()
    } else {
        Vec::new()
    };
    if shape.durable.is_some() {
        let for_factory = backends.clone();
        home = home.with_storage(wal, Duration::from_secs(10), move |pid| {
            Arc::clone(&for_factory[pid.as_u32() as usize]) as Arc<dyn StorageBackend>
        });
    }
    let store = home.with_store_probe();
    let pids: Vec<ProcessId> = (0..shape.processes)
        .map(|i| home.add_host(format!("host{i}")))
        .collect();
    let of = |indices: &[usize]| -> Vec<ProcessId> { indices.iter().map(|i| pids[*i]).collect() };

    let mut sensors = Vec::new();
    for (i, s) in shape.sensors.iter().enumerate() {
        assert!(
            s.heard_by.iter().any(|(_, loss)| *loss == 0.0),
            "sensor {i} needs one lossless receiver"
        );
        let heard: Vec<usize> = s.heard_by.iter().map(|(p, _)| *p).collect();
        let (id, probe) = home.add_push_sensor(
            format!("sensor{i}"),
            s.payload.clone(),
            s.schedule.clone(),
            &of(&heard),
        );
        sensors.push((id, Guarantee::Gapless, probe));
    }
    let reach = of(&shape.actuator_reach);
    let mut actuators: Vec<(ActuatorId, Arc<ActuatorProbe>)> = (0..ZONES)
        .map(|z| home.add_actuator(format!("dimmer{z}"), ActuationState::Level(-1.0), &reach))
        .collect();

    let routine = shape.routine_every.map(|every| {
        let (lights, lights_probe) =
            home.add_actuator("lights", ActuationState::Switch(true), &reach);
        let (lock, lock_probe) = home.add_actuator("lock", ActuationState::Switch(false), &reach);
        actuators.push((lights, lights_probe));
        actuators.push((lock, lock_probe));
        let probe = home.add_routine(
            RoutineSpec::new(ROUTINE, "leaving-home")
                .step_compensated(
                    lights,
                    CommandKind::Set(ActuationState::Switch(false)),
                    CommandKind::Set(ActuationState::Switch(true)),
                )
                .step_compensated(
                    lock,
                    CommandKind::Set(ActuationState::Switch(true)),
                    CommandKind::Set(ActuationState::Switch(false)),
                ),
        );
        RoutineTap { probe, every }
    });

    let sensor_ids: Vec<SensorId> = sensors.iter().map(|(id, _, _)| *id).collect();
    let actuator_ids: Vec<ActuatorId> = actuators.iter().map(|(id, _)| *id).collect();
    let every = routine.as_ref().map(|tap| tap.every);
    let app = home.add_app(ring_app(&sensor_ids, &actuator_ids, every));

    Taps {
        home: home.build(),
        processes: shape.processes,
        sensors,
        polls: Vec::new(),
        actuators,
        actuation: Actuation::PerEvent,
        app,
        store,
        backends,
        wal,
        routine,
        seed,
    }
}

/// The `dag_poll` home: three redundant fast scalar sensors, delivered
/// Gap, averaged fault-tolerantly over a sliding time window, feeding a
/// threshold operator that drives an actuator; plus coordinated poll
/// sensors on a one-second epoch.
#[derive(Debug, Clone)]
pub struct DagShape {
    /// Number of processes.
    pub processes: usize,
    /// Period of each push sensor.
    pub period: Duration,
    /// Number of poll sensors.
    pub polls: usize,
    /// Virtual run length.
    pub duration: Duration,
}

/// Polling epoch of the `dag_poll` home.
pub const POLL_EPOCH: Duration = Duration::from_secs(1);

/// Builds the `dag_poll` app over the given devices; shared by the
/// deployment and the `core.app` layer probe.
///
/// # Panics
///
/// Panics if the graph is malformed (a harness bug).
#[must_use]
pub fn dag_app(
    push: &[SensorId],
    polls: &[SensorId],
    hvac: &[ActuatorId],
    window: Duration,
) -> AppSpec {
    let sliding = || {
        WindowSpec::count(1)
            .sliding()
            .with_evictor(EvictorPolicy::KeepWithin(window))
    };
    let mut averaging = AppBuilder::new(AppId(1), "dag-poll").operator(
        "averaging",
        CombinerSpec::tolerate_arbitrary(push.len().max(1)),
        MarzulloAverage {
            precision: 0.5,
            tolerate: push.len().saturating_sub(1) / 3,
        },
    );
    for s in push {
        averaging = averaging.sensor(*s, Delivery::Gap, sliding());
    }
    let averaging_id = averaging.id();
    let zones = hvac.to_vec();
    let mut threshold = averaging
        .done()
        .operator(
            "threshold",
            CombinerSpec::Any,
            move |ctx: &mut OpCtx, w: &CombinedWindows| {
                // Act whenever the averaged reading leaves the comfort
                // band (the sine model spends two thirds of its time
                // there), on the HVAC zone whose turn it is.
                let zone = zones[(ctx.now().as_millis() % zones.len() as u64) as usize];
                for value in w.scalars() {
                    if !(19.0..=23.0).contains(&value) {
                        ctx.set_level(zone, value);
                    }
                }
            },
        )
        .upstream(averaging_id, WindowSpec::count(1));
    for s in polls {
        threshold = threshold.polled_sensor(
            *s,
            Delivery::Gapless,
            WindowSpec::count(1),
            PollSpec::every(POLL_EPOCH),
        );
    }
    for zone in hvac {
        threshold = threshold.actuator(*zone, Delivery::Gap);
    }
    threshold.done().build().expect("valid app")
}

/// Deploys the `dag_poll` home on `driver`.
pub fn deploy_dag<D: Driver>(driver: &mut D, shape: &DagShape) -> Taps {
    let mut home = HomeBuilder::new(driver).with_config(RivuletConfig::default());
    let store = home.with_store_probe();
    let pids: Vec<ProcessId> = (0..shape.processes)
        .map(|i| home.add_host(format!("host{i}")))
        .collect();
    let mut sensors = Vec::new();
    for i in 0..3 {
        // Redundant sensors of one phenomenon: the same slow sine, each
        // heard by a different process.
        let (id, probe) = home.add_push_sensor(
            format!("temp{i}"),
            PayloadSpec::Scalar(ValueModel::Sine {
                base: 21.0,
                amplitude: 4.0,
                period_secs: 7.0,
            }),
            EmissionSchedule::Periodic(shape.period),
            &[pids[i % pids.len()]],
        );
        sensors.push((id, Guarantee::Gap, probe));
    }
    let mut polls = Vec::new();
    for i in 0..shape.polls {
        let (id, probe) = home.add_poll_sensor(
            format!("meter{i}"),
            ValueModel::Constant(21.0),
            Duration::from_millis(100),
            &pids,
        );
        polls.push((id, probe, POLL_EPOCH));
    }
    let actuators: Vec<(ActuatorId, Arc<ActuatorProbe>)> = (0..ZONES)
        .map(|z| home.add_actuator(format!("hvac{z}"), ActuationState::Level(21.0), &[pids[0]]))
        .collect();
    let hvac: Vec<ActuatorId> = actuators.iter().map(|(id, _)| *id).collect();
    let push_ids: Vec<SensorId> = sensors.iter().map(|(id, _, _)| *id).collect();
    let poll_ids: Vec<SensorId> = polls.iter().map(|(id, _, _)| *id).collect();
    let app = home.add_app(dag_app(
        &push_ids,
        &poll_ids,
        &hvac,
        shape.period.saturating_mul(4),
    ));
    Taps {
        home: home.build(),
        processes: shape.processes,
        sensors,
        polls,
        actuators,
        actuation: Actuation::AppDecides,
        app,
        store,
        backends: Vec::new(),
        wal: WalOptions::default(),
        routine: None,
        seed: 0,
    }
}

/// A home on the simulator, ready to run.
#[derive(Debug)]
pub struct SimHome {
    /// The simulated network the home lives on.
    pub net: SimNet,
    /// Probe handles.
    pub taps: Taps,
    end: Time,
    crash: Option<(Time, Time)>,
    /// The disk that loses its unsynced tail with the crashed host.
    crash_disk: Option<Arc<SimBackend>>,
    sim_events: u64,
}

/// Spreads every link's base latency by up to ±1 %, seeded: the home's
/// geometry is an input like any other, and it keeps virtual-time
/// latencies from reading identically under every seed.
fn jitter_links(net: &mut SimNet, home: &Home, rng: &mut Rng64) {
    let mut actors: Vec<_> = home.processes.iter().map(|(_, a)| *a).collect();
    actors.extend(home.sensors.iter().map(|(_, a)| *a));
    actors.extend(home.actuators.iter().map(|(_, a)| *a));
    for from in &actors {
        for to in &actors {
            if from == to {
                continue;
            }
            let link = net.topology().link(*from, *to);
            if link.blocked {
                continue;
            }
            let base = link.base_latency.as_micros() as f64;
            let jittered = base * (0.99 + 0.02 * rng.next_f64());
            net.topology_mut().set_link(
                *from,
                *to,
                LinkConfig {
                    base_latency: Duration::from_micros(jittered.round() as u64),
                    ..link
                },
            );
        }
    }
}

impl SimHome {
    /// Builds a ring-shaped home; `traced` switches the platform's
    /// recorder on.
    #[must_use]
    pub fn ring(shape: &RingShape, seed: u64, traced: bool) -> Self {
        let mut net = SimNet::new(SimConfig::with_seed(seed));
        net.recorder().set_enabled(traced);
        let taps = deploy_ring(&mut net, shape, seed);
        let mut rng = Rng64::new(seed);
        jitter_links(&mut net, &taps.home, &mut rng);
        for (i, s) in shape.sensors.iter().enumerate() {
            let sensor_actor = taps.home.sensors[i].1;
            for (p, loss) in &s.heard_by {
                if *loss > 0.0 {
                    let to = taps.home.actor_of(ProcessId(*p as u32));
                    net.topology_mut().set_loss(sensor_actor, to, *loss);
                }
            }
        }
        let end = Time::ZERO + shape.duration;
        let at = |f: f64| Time::ZERO + shape.duration.mul_f64(f);
        let mut cycle = |process: usize, down: f64, up: f64| {
            let host = taps.home.actor_of(ProcessId(process as u32));
            net.crash_at(host, at(down));
            net.recover_at(host, at(up));
            (at(down), at(up))
        };
        let crash = shape
            .crash
            .map(|(down, up)| cycle(shape.app_host(), down, up));
        if let Some((process, down, up)) = shape.power_cycle {
            cycle(process, down, up);
        }
        let crash_disk = taps.backends.get(shape.app_host()).cloned();
        Self {
            net,
            taps,
            end,
            crash,
            crash_disk,
            sim_events: 0,
        }
    }

    /// Builds the `dag_poll` home.
    #[must_use]
    pub fn dag(shape: &DagShape, seed: u64, traced: bool) -> Self {
        let mut net = SimNet::new(SimConfig::with_seed(seed));
        net.recorder().set_enabled(traced);
        let taps = deploy_dag(&mut net, shape);
        let mut rng = Rng64::new(seed);
        jitter_links(&mut net, &taps.home, &mut rng);
        Self {
            net,
            taps,
            end: Time::ZERO + shape.duration,
            crash: None,
            crash_disk: None,
            sim_events: 0,
        }
    }

    /// Runs the home up to virtual instant `until` (capped at its end).
    pub fn run_to(&mut self, until: Time) {
        let until = until.min(self.end);
        if let Some((down, _)) = self.crash {
            // The power loss takes the disk's unsynced tail with it.
            let after = down + Duration::from_millis(1);
            if self.net.now() < after && until >= after {
                self.sim_events += self.net.run_until(after);
                if let Some(disk) = &self.crash_disk {
                    disk.crash();
                }
            }
        }
        self.sim_events += self.net.run_until(until);
    }

    /// Runs the home to its end: the timed region of a repetition.
    pub fn run(&mut self) {
        self.run_to(self.end);
    }

    /// Reads the finished run back.
    #[must_use]
    pub fn collect(&self) -> RepData {
        let m = self.net.metrics();
        let net = NetCounts {
            messages_sent: m.messages_sent,
            messages_delivered: m.messages_delivered,
            timers_fired: m.timers_fired,
            wifi_bytes: m.wifi_bytes,
            radio_bytes: m.radio_bytes,
            sim_events: self.sim_events,
            fanout: m.fanout.snapshot(),
        };
        let obs = if self.net.recorder().is_enabled() {
            self.net.obs_snapshot()
        } else {
            ObsSnapshot::default()
        };
        self.taps.collect(self.net.now(), self.crash, net, obs)
    }
}

/// A kind-only Poisson sensor payload/schedule pair.
#[must_use]
pub fn poisson_motion(mean: Duration) -> (PayloadSpec, EmissionSchedule) {
    (
        PayloadSpec::KindOnly(EventKind::Motion),
        EmissionSchedule::Poisson { mean },
    )
}

/// A periodic 8-byte scalar sensor payload/schedule pair.
#[must_use]
pub fn periodic_scalar(period: Duration) -> (PayloadSpec, EmissionSchedule) {
    (
        PayloadSpec::Scalar(ValueModel::indoor_temperature()),
        EmissionSchedule::Periodic(period),
    )
}
