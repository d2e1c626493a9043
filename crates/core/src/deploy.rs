//! Deployment: wiring a home out of hosts, devices, and apps.
//!
//! [`HomeBuilder`] assembles a deployment on either driver: it creates
//! one [`crate::process::RivuletProcess`] actor per
//! host and one device actor per sensor/actuator, all sharing one
//! [`DirectoryData`] — the static facts every process needs (peer
//! actor ids, device reachability, poll latencies). Both drivers hand
//! out actor ids densely in registration order, so the directory is
//! complete before the first actor exists.

use std::sync::Arc;

use rivulet_devices::actuator::{ActuatorDevice, ActuatorProbe};
use rivulet_devices::fault::{DeviceFaults, FaultPlan, FaultProbe};
use rivulet_devices::sensor::{
    EmissionProbe, EmissionSchedule, PayloadSpec, PollProbe, PollSensor, PushSensor,
};
use rivulet_devices::value::ValueModel;
use rivulet_net::actor::{Actor, ActorId};
use rivulet_net::link::ActorClass;
use rivulet_net::live::LiveNet;
use rivulet_net::metrics::FanoutStats;
use rivulet_net::sim::SimNet;
use rivulet_obs::Recorder;
use rivulet_types::{ActuationState, ActuatorId, Duration, ProcSet, ProcessId, SensorId};

use crate::app::AppSpec;
use crate::config::RivuletConfig;
use crate::probe::{AppProbe, IngestProbe, StoreProbe};
use crate::process::{DurabilitySpec, ProcessSpec, RivuletProcess};
use crate::routine::{RoutineProbe, RoutineSpec};
use rivulet_storage::{FlushPolicy, StorageBackend, WalOptions};

/// One sensor's entry in the deployment directory.
#[derive(Debug, Clone)]
pub struct SensorEntry {
    /// The sensor.
    pub id: SensorId,
    /// Its device actor.
    pub actor: ActorId,
    /// Processes whose hosts can talk to it directly (active sensor
    /// nodes, §3.3), sorted by process id.
    pub reachers: Vec<ProcessId>,
    /// Nominal poll answer latency, for poll-based sensors.
    pub poll_latency: Option<Duration>,
}

/// One actuator's entry in the deployment directory.
#[derive(Debug, Clone)]
pub struct ActuatorEntry {
    /// The actuator.
    pub id: ActuatorId,
    /// Its device actor.
    pub actor: ActorId,
    /// Processes whose hosts can drive it (active actuator nodes).
    pub reachers: Vec<ProcessId>,
}

/// The static deployment facts shared by every process. Ids are dense,
/// as [`HomeBuilder`] hands them out: each list holds the entry of id
/// `i` at index `i`, and the process actors are consecutive, so every
/// lookup below is an index.
#[derive(Debug, Clone, Default)]
pub struct DirectoryData {
    /// All processes, sorted by process id.
    pub processes: Vec<(ProcessId, ActorId)>,
    /// All sensors, sorted by sensor id.
    pub sensors: Vec<SensorEntry>,
    /// All actuators, sorted by actuator id.
    pub actuators: Vec<ActuatorEntry>,
}

impl DirectoryData {
    /// The actor of process `p`.
    pub(crate) fn process_actor(&self, p: ProcessId) -> Option<ActorId> {
        let &(id, actor) = self.processes.get(p.0 as usize)?;
        (id == p).then_some(actor)
    }

    /// Whether `actor` is a process's actor.
    pub(crate) fn is_process(&self, actor: ActorId) -> bool {
        let Some(&(_, first)) = self.processes.first() else {
            return false;
        };
        let index = actor.0.checked_sub(first.0);
        let entry = index.and_then(|i| self.processes.get(i as usize));
        entry.is_some_and(|&(_, a)| a == actor)
    }

    /// The entry of sensor `s`.
    pub(crate) fn sensor(&self, s: SensorId) -> Option<&SensorEntry> {
        self.sensors.get(s.0 as usize).filter(|e| e.id == s)
    }

    /// The entry of actuator `a`.
    pub(crate) fn actuator(&self, a: ActuatorId) -> Option<&ActuatorEntry> {
        self.actuators.get(a.0 as usize).filter(|e| e.id == a)
    }

    /// The device actor of actuator `a`, if process `p` adapts it.
    pub(crate) fn adapted_actuator(&self, a: ActuatorId, p: ProcessId) -> Option<ActorId> {
        let entry = self.actuator(a)?;
        entry.reachers.contains(&p).then_some(entry.actor)
    }
}

/// Abstraction over the two drivers, so one deployment path serves
/// both.
pub trait Driver {
    /// Registers an actor (see the drivers' `add_actor`).
    fn add_boxed_actor(
        &mut self,
        name: &str,
        class: ActorClass,
        factory: Box<dyn FnMut() -> Box<dyn Actor> + Send>,
    ) -> ActorId;

    /// The id the next registered actor will get: ids are dense, in
    /// registration order.
    fn next_actor_id(&self) -> ActorId;

    /// The driver's shared fan-out statistics handle. Every process
    /// actor records its encode-once / coalescing savings into this
    /// instance, and the driver reports them via its net metrics.
    fn fanout_stats(&self) -> Arc<FanoutStats>;

    /// The driver's unified observability handle (see `rivulet-obs`).
    /// Every process deployed through [`HomeBuilder`] records into a
    /// clone of this recorder; disabled by default, so deployments pay
    /// nothing unless a harness enables it.
    fn recorder(&self) -> Recorder;
}

impl Driver for SimNet {
    fn add_boxed_actor(
        &mut self,
        name: &str,
        class: ActorClass,
        mut factory: Box<dyn FnMut() -> Box<dyn Actor> + Send>,
    ) -> ActorId {
        self.add_actor(name, class, move || factory())
    }

    fn next_actor_id(&self) -> ActorId {
        SimNet::next_actor_id(self)
    }

    fn fanout_stats(&self) -> Arc<FanoutStats> {
        Arc::clone(&self.metrics().fanout)
    }

    fn recorder(&self) -> Recorder {
        SimNet::recorder(self)
    }
}

impl Driver for LiveNet {
    fn add_boxed_actor(
        &mut self,
        name: &str,
        class: ActorClass,
        mut factory: Box<dyn FnMut() -> Box<dyn Actor> + Send>,
    ) -> ActorId {
        self.add_actor(name, class, move || factory())
    }

    fn next_actor_id(&self) -> ActorId {
        LiveNet::next_actor_id(self)
    }

    fn fanout_stats(&self) -> Arc<FanoutStats> {
        Arc::clone(&self.metrics().fanout)
    }

    fn recorder(&self) -> Recorder {
        LiveNet::recorder(self)
    }
}

enum SensorDecl {
    Push {
        name: String,
        payload: PayloadSpec,
        schedule: EmissionSchedule,
        reachers: Vec<ProcessId>,
        probe: Arc<EmissionProbe>,
    },
    Poll {
        name: String,
        value: ValueModel,
        poll_latency: Duration,
        reachers: Vec<ProcessId>,
        probe: Arc<PollProbe>,
    },
}

struct ActuatorDecl {
    name: String,
    initial: ActuationState,
    reachers: Vec<ProcessId>,
    probe: Arc<ActuatorProbe>,
}

/// Handles to a deployed home.
#[derive(Debug, Clone)]
pub struct Home {
    /// Processes and their actors, sorted by process id.
    pub processes: Vec<(ProcessId, ActorId)>,
    /// Sensors and their device actors.
    pub sensors: Vec<(SensorId, ActorId)>,
    /// Actuators and their device actors.
    pub actuators: Vec<(ActuatorId, ActorId)>,
    /// The directory every process reads at start-up.
    pub directory: Arc<DirectoryData>,
}

impl Home {
    /// The actor hosting `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is unknown.
    #[must_use]
    pub fn actor_of(&self, pid: ProcessId) -> ActorId {
        self.processes
            .iter()
            .find(|(p, _)| *p == pid)
            .map(|(_, a)| *a)
            .expect("unknown process")
    }

    /// The device actor of `sensor`.
    ///
    /// # Panics
    ///
    /// Panics if `sensor` is unknown.
    #[must_use]
    pub fn sensor_actor(&self, sensor: SensorId) -> ActorId {
        self.sensors
            .iter()
            .find(|(s, _)| *s == sensor)
            .map(|(_, a)| *a)
            .expect("unknown sensor")
    }

    /// The device actor of `actuator`.
    ///
    /// # Panics
    ///
    /// Panics if `actuator` is unknown.
    #[must_use]
    pub fn actuator_actor(&self, actuator: ActuatorId) -> ActorId {
        self.actuators
            .iter()
            .find(|(s, _)| *s == actuator)
            .map(|(_, a)| *a)
            .expect("unknown actuator")
    }
}

/// Per-deployment durable-storage plan: a factory producing one
/// backend per process, plus the WAL tuning shared by all of them.
struct StoragePlan {
    factory: Box<dyn Fn(ProcessId) -> Arc<dyn StorageBackend>>,
    options: WalOptions,
    checkpoint_interval: Duration,
}

/// Fluent builder assembling a home deployment on a driver.
pub struct HomeBuilder<'a, D: Driver> {
    driver: &'a mut D,
    config: RivuletConfig,
    hosts: Vec<String>,
    sensors: Vec<SensorDecl>,
    actuators: Vec<ActuatorDecl>,
    apps: Vec<(Arc<AppSpec>, Arc<AppProbe>)>,
    storage: Option<StoragePlan>,
    store_probe: Option<Arc<StoreProbe>>,
    ingest_probe: Option<Arc<IngestProbe>>,
    faults: FaultPlan,
    fault_probe: Arc<FaultProbe>,
    routines: Vec<(Arc<RoutineSpec>, Arc<RoutineProbe>)>,
}

impl<D: Driver> std::fmt::Debug for HomeBuilder<'_, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HomeBuilder")
            .field("hosts", &self.hosts.len())
            .field("sensors", &self.sensors.len())
            .field("actuators", &self.actuators.len())
            .field("apps", &self.apps.len())
            .finish()
    }
}

impl<'a, D: Driver> HomeBuilder<'a, D> {
    /// Starts a deployment on `driver` with the default configuration.
    pub fn new(driver: &'a mut D) -> Self {
        Self {
            driver,
            config: RivuletConfig::default(),
            hosts: Vec::new(),
            sensors: Vec::new(),
            actuators: Vec::new(),
            apps: Vec::new(),
            storage: None,
            store_probe: None,
            ingest_probe: None,
            faults: FaultPlan::default(),
            fault_probe: FaultProbe::new(),
            routines: Vec::new(),
        }
    }

    /// Attaches a device-fault plan: every declared device picks up its
    /// schedule from the plan (devices the plan doesn't name stay
    /// fault-free). Each injected fault is counted under its `fault.*`
    /// obs key, and ghost event ids are logged to the home's shared
    /// [`FaultProbe`] (see [`HomeBuilder::fault_probe`]). Injection is
    /// reproducible bit-exactly from `(plan seed, device id)` and never
    /// perturbs the drivers' RNG streams.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// The home-wide fault probe: the ids of injected ghost events
    /// ([`FaultProbe::ghosts`]). Event ids carry the sensor, so
    /// per-device attribution survives the sharing.
    #[must_use]
    pub fn fault_probe(&self) -> Arc<FaultProbe> {
        Arc::clone(&self.fault_probe)
    }

    /// Replaces the platform configuration used by every process.
    #[must_use]
    pub fn with_config(mut self, config: RivuletConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches durable storage: `factory` yields each process's
    /// backend (call it with the process id so every process gets its
    /// own log; keep the returned `Arc`s if the harness needs to
    /// inject crashes or corruption). Events are then appended to a
    /// write-ahead log before being acked or delivered, checkpoints
    /// are written every `checkpoint_interval`, and recovery replays
    /// the log instead of relying solely on anti-entropy.
    ///
    /// # Panics
    ///
    /// Panics when the flush beat in `options` or `checkpoint_interval`
    /// is zero: its timer would fire at the same instant forever. A
    /// short beat is how a caller asks for flushing per event.
    #[must_use]
    pub fn with_storage(
        mut self,
        options: WalOptions,
        checkpoint_interval: Duration,
        factory: impl Fn(ProcessId) -> Arc<dyn StorageBackend> + 'static,
    ) -> Self {
        let FlushPolicy::EveryInterval(beat) = options.flush_policy;
        assert!(beat > Duration::ZERO, "options.flush_policy: zero beat");
        assert!(
            checkpoint_interval > Duration::ZERO,
            "checkpoint_interval: zero interval"
        );
        self.storage = Some(StoragePlan {
            factory: Box::new(factory),
            options,
            checkpoint_interval,
        });
        self
    }

    /// Attaches a store-residency probe sampled by every process on
    /// its periodic tick; returns the shared probe.
    pub fn with_store_probe(&mut self) -> Arc<StoreProbe> {
        let probe = self.store_probe.get_or_insert_with(StoreProbe::new);
        Arc::clone(probe)
    }

    /// Attaches a radio-ingest probe recorded by every process as it
    /// hears a sensor event; returns the shared probe.
    pub fn with_ingest_probe(&mut self) -> Arc<IngestProbe> {
        let probe = self.ingest_probe.get_or_insert_with(IngestProbe::new);
        Arc::clone(probe)
    }

    /// Declares a host (TV, fridge, hub, …); returns its process id.
    /// Process ids are assigned in declaration order, which also fixes
    /// ring order and placement tie-breaking.
    ///
    /// # Panics
    ///
    /// Panics on the 65th host: process sets are one-word bitmasks
    /// ([`ProcSet::CAPACITY`]).
    pub fn add_host(&mut self, name: impl Into<String>) -> ProcessId {
        assert!(
            self.hosts.len() < ProcSet::CAPACITY,
            "a home holds at most {} processes",
            ProcSet::CAPACITY
        );
        let pid = ProcessId(self.hosts.len() as u32);
        self.hosts.push(name.into());
        pid
    }

    /// Declares a push-based sensor reachable by `reachers`; returns
    /// its sensor id and emission probe.
    pub fn add_push_sensor(
        &mut self,
        name: impl Into<String>,
        payload: PayloadSpec,
        schedule: EmissionSchedule,
        reachers: &[ProcessId],
    ) -> (SensorId, Arc<EmissionProbe>) {
        let id = SensorId(self.sensors.len() as u32);
        let probe = EmissionProbe::new();
        let mut sorted = reachers.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        self.sensors.push(SensorDecl::Push {
            name: name.into(),
            payload,
            schedule,
            reachers: sorted,
            probe: Arc::clone(&probe),
        });
        (id, probe)
    }

    /// Declares a poll-based sensor; returns its sensor id and poll
    /// probe.
    pub fn add_poll_sensor(
        &mut self,
        name: impl Into<String>,
        value: ValueModel,
        poll_latency: Duration,
        reachers: &[ProcessId],
    ) -> (SensorId, Arc<PollProbe>) {
        let id = SensorId(self.sensors.len() as u32);
        let probe = PollProbe::new();
        let mut sorted = reachers.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        self.sensors.push(SensorDecl::Poll {
            name: name.into(),
            value,
            poll_latency,
            reachers: sorted,
            probe: Arc::clone(&probe),
        });
        (id, probe)
    }

    /// Declares an actuator; returns its actuator id and probe.
    pub fn add_actuator(
        &mut self,
        name: impl Into<String>,
        initial: ActuationState,
        reachers: &[ProcessId],
    ) -> (ActuatorId, Arc<ActuatorProbe>) {
        let id = ActuatorId(self.actuators.len() as u32);
        let probe = ActuatorProbe::new(initial);
        let mut sorted = reachers.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        self.actuators.push(ActuatorDecl {
            name: name.into(),
            initial,
            reachers: sorted,
            probe: Arc::clone(&probe),
        });
        (id, probe)
    }

    /// Deploys an application home-wide; returns its probe.
    ///
    /// # Panics
    ///
    /// Panics if the app graph is invalid or the app id is a duplicate.
    pub fn add_app(&mut self, app: AppSpec) -> Arc<AppProbe> {
        app.validate().expect("invalid app graph");
        assert!(
            self.apps.iter().all(|(a, _)| a.id != app.id),
            "duplicate app id {:?}",
            app.id
        );
        let probe = AppProbe::new();
        self.apps.push((Arc::new(app), Arc::clone(&probe)));
        probe
    }

    /// Deploys a routine home-wide; returns its probe. Routines only
    /// fire when [`RivuletConfig::routines`] is on — deploying them
    /// with the knob off changes nothing (bit-identical runs).
    ///
    /// # Panics
    ///
    /// Panics on an empty routine or a duplicate routine id.
    pub fn add_routine(&mut self, routine: RoutineSpec) -> Arc<RoutineProbe> {
        assert!(!routine.steps.is_empty(), "routine has no steps");
        assert!(
            self.routines.iter().all(|(r, _)| r.id != routine.id),
            "duplicate routine id {:?}",
            routine.id
        );
        let probe = RoutineProbe::new();
        self.routines.push((Arc::new(routine), Arc::clone(&probe)));
        probe
    }

    /// Creates all actors: processes, then sensors, then actuators, each
    /// in declaration order. Their ids are predicted first, so the
    /// directory is built before any process can start.
    ///
    /// # Panics
    ///
    /// Panics if a reacher was never declared, or if the driver hands
    /// out an id other than the next one.
    #[must_use]
    pub fn build(self) -> Home {
        let first = self.driver.next_actor_id().0;
        let n_hosts = self.hosts.len() as u32;
        let n_sensors = self.sensors.len() as u32;
        let processes: Vec<(ProcessId, ActorId)> = (0..n_hosts)
            .map(|i| (ProcessId(i), ActorId(first + i)))
            .collect();
        let sensor_entries: Vec<SensorEntry> = (0u32..)
            .zip(&self.sensors)
            .map(|(i, decl)| {
                let (reachers, poll_latency) = match decl {
                    SensorDecl::Push { reachers, .. } => (reachers, None),
                    SensorDecl::Poll {
                        reachers,
                        poll_latency,
                        ..
                    } => (reachers, Some(*poll_latency)),
                };
                SensorEntry {
                    id: SensorId(i),
                    actor: ActorId(first + n_hosts + i),
                    reachers: reachers.clone(),
                    poll_latency,
                }
            })
            .collect();
        let actuator_entries: Vec<ActuatorEntry> = (0u32..)
            .zip(&self.actuators)
            .map(|(i, decl)| ActuatorEntry {
                id: ActuatorId(i),
                actor: ActorId(first + n_hosts + n_sensors + i),
                reachers: decl.reachers.clone(),
            })
            .collect();
        let directory = Arc::new(DirectoryData {
            processes: processes.clone(),
            sensors: sensor_entries,
            actuators: actuator_entries,
        });

        let fanout = self.driver.fanout_stats();
        let obs = self.driver.recorder();
        for ((pid, actor), name) in processes.iter().zip(&self.hosts) {
            let spec = ProcessSpec {
                pid: *pid,
                config: self.config.clone(),
                apps: self.apps.clone(),
                directory: Arc::clone(&directory),
                storage: self.storage.as_ref().map(|plan| DurabilitySpec {
                    backend: (plan.factory)(*pid),
                    options: plan.options,
                    checkpoint_interval: plan.checkpoint_interval,
                }),
                store_probe: self.store_probe.clone(),
                ingest_probe: self.ingest_probe.clone(),
                fanout: Arc::clone(&fanout),
                obs: obs.clone(),
                routines: self.routines.clone(),
            };
            let got = self.driver.add_boxed_actor(
                name,
                ActorClass::Process,
                Box::new(move || Box::new(RivuletProcess::new(spec.clone()))),
            );
            assert_eq!(got, *actor, "actor ids are handed out densely");
        }

        // A device's fault state (empty unless the plan names it) is
        // built once, reporting to the home's probe and recorder; every
        // incarnation starts from a copy.
        let report =
            |faults: DeviceFaults| faults.reporting_to(Arc::clone(&self.fault_probe), obs.clone());
        for (decl, entry) in self.sensors.into_iter().zip(&directory.sensors) {
            let id = entry.id;
            let faults = report(self.faults.for_sensor(id));
            let actor = match decl {
                SensorDecl::Push {
                    name,
                    payload,
                    schedule,
                    reachers,
                    probe,
                } => {
                    let targets: Vec<ActorId> = reachers
                        .iter()
                        .map(|p| {
                            let process = processes.get(p.0 as usize);
                            process.expect("reacher declared before build").1
                        })
                        .collect();
                    self.driver.add_boxed_actor(
                        &name,
                        ActorClass::Device,
                        Box::new(move || {
                            // A recovered sensor resumes numbering
                            // after everything it already emitted.
                            let start_seq = probe.emitted();
                            let sensor = PushSensor::new(
                                id,
                                payload.clone(),
                                schedule.clone(),
                                targets.clone(),
                                Arc::clone(&probe),
                            );
                            Box::new(sensor.with_start_seq(start_seq).with_faults(faults.clone()))
                        }),
                    )
                }
                SensorDecl::Poll {
                    name,
                    value,
                    poll_latency,
                    probe,
                    ..
                } => self.driver.add_boxed_actor(
                    &name,
                    ActorClass::Device,
                    Box::new(move || {
                        let start_seq = probe.answered();
                        let sensor =
                            PollSensor::new(id, value.clone(), poll_latency, Arc::clone(&probe));
                        Box::new(sensor.with_start_seq(start_seq).with_faults(faults.clone()))
                    }),
                ),
            };
            assert_eq!(actor, entry.actor, "actor ids are handed out densely");
        }

        for (decl, entry) in self.actuators.into_iter().zip(&directory.actuators) {
            let ActuatorDecl {
                name,
                initial,
                probe,
                ..
            } = decl;
            let id = entry.id;
            let faults = report(self.faults.for_actuator(id));
            let actor = self.driver.add_boxed_actor(
                &name,
                ActorClass::Device,
                Box::new(move || {
                    let dev = ActuatorDevice::new(id, initial, Arc::clone(&probe));
                    Box::new(dev.with_faults(faults.clone()))
                }),
            );
            assert_eq!(actor, entry.actor, "actor ids are handed out densely");
        }

        Home {
            processes,
            sensors: directory.sensors.iter().map(|s| (s.id, s.actor)).collect(),
            actuators: directory
                .actuators
                .iter()
                .map(|a| (a.id, a.actor))
                .collect(),
            directory,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rivulet_net::sim::SimConfig;

    #[test]
    #[should_panic(expected = "a home holds at most 64 processes")]
    fn a_65th_host_is_refused_by_name_of_the_limit() {
        let mut net = SimNet::new(SimConfig::with_seed(1));
        let mut b = HomeBuilder::new(&mut net);
        for i in 0..64 {
            assert_eq!(b.add_host(format!("host-{i}")), ProcessId(i));
        }
        b.add_host("one too many");
    }

    #[test]
    #[should_panic(expected = "duplicate app id AppId(3)")]
    fn a_repeated_app_id_is_refused() {
        use crate::app::{AppBuilder, CombinerSpec, SwitchOnEvents, WindowSpec};
        use crate::delivery::Delivery;
        use rivulet_types::{AppId, EventKind};

        let mut net = SimNet::new(SimConfig::with_seed(1));
        let mut b = HomeBuilder::new(&mut net);
        let hub = b.add_host("hub");
        let (door, _) = b.add_push_sensor(
            "door",
            PayloadSpec::KindOnly(EventKind::DoorOpen),
            EmissionSchedule::Periodic(Duration::from_secs(1)),
            &[hub],
        );
        let (light, _) = b.add_actuator("light", ActuationState::Switch(false), &[hub]);
        let app = |name| {
            AppBuilder::new(AppId(3), name)
                .operator(
                    "switch",
                    CombinerSpec::Any,
                    SwitchOnEvents {
                        on_kinds: vec![EventKind::DoorOpen],
                        off_kinds: vec![],
                        actuator: light,
                    },
                )
                .sensor(door, Delivery::Gapless, WindowSpec::count(1))
                .actuator(light, Delivery::Gapless)
                .done()
                .build()
                .expect("valid app")
        };
        let _first = b.add_app(app("first"));
        let _second = b.add_app(app("second"));
    }

    /// A home whose processes each log to a fresh simulated disk.
    fn with_storage_of(beat: Duration, checkpoint_interval: Duration) {
        use rivulet_storage::SimBackend;
        let mut net = SimNet::new(SimConfig::with_seed(1));
        let options = WalOptions {
            flush_policy: FlushPolicy::EveryInterval(beat),
            ..WalOptions::default()
        };
        let _ = HomeBuilder::new(&mut net).with_storage(options, checkpoint_interval, |_| {
            Arc::new(SimBackend::new(1)) as Arc<dyn StorageBackend>
        });
    }

    #[test]
    #[should_panic(expected = "options.flush_policy: zero beat")]
    fn a_zero_beat_is_refused_by_name() {
        with_storage_of(Duration::ZERO, Duration::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "checkpoint_interval: zero interval")]
    fn a_zero_checkpoint_interval_is_refused_by_name() {
        with_storage_of(Duration::from_millis(3), Duration::ZERO);
    }

    #[test]
    fn builder_assigns_sequential_ids_and_publishes() {
        use rivulet_net::actor::{ActorEvent, Context};
        struct Idle;
        impl Actor for Idle {
            fn on_event(&mut self, _: &mut Context<'_>, _: ActorEvent) {}
        }
        // An actor registered before the home: predicted ids start at 1.
        let mut net = SimNet::new(SimConfig::with_seed(1));
        net.add_actor("bystander", ActorClass::Process, || Box::new(Idle));
        let mut b = HomeBuilder::new(&mut net);
        let hub = b.add_host("hub");
        let tv = b.add_host("tv");
        assert_eq!(hub, ProcessId(0));
        assert_eq!(tv, ProcessId(1));
        let (door, _) = b.add_push_sensor(
            "door",
            PayloadSpec::KindOnly(rivulet_types::EventKind::DoorOpen),
            EmissionSchedule::Periodic(Duration::from_secs(1)),
            &[tv, tv, hub], // duplicates tolerated
        );
        assert_eq!(door, SensorId(0));
        let (light, _) = b.add_actuator("light", ActuationState::Switch(false), &[hub]);
        assert_eq!(light, ActuatorId(0));
        let home = b.build();
        assert_eq!(home.processes, vec![(hub, ActorId(1)), (tv, ActorId(2))]);
        assert_eq!(home.sensors, vec![(door, ActorId(3))]);
        assert_eq!(home.actuators, vec![(light, ActorId(4))]);
        let data = &home.directory;
        assert_eq!(data.processes, home.processes);
        assert_eq!(data.sensors[0].reachers, vec![hub, tv], "sorted, deduped");
        assert_eq!(data.actuators[0].reachers, vec![hub]);
        assert_eq!(home.actor_of(hub), home.processes[0].1);
        assert_eq!(home.sensor_actor(door), home.sensors[0].1);
        assert_eq!(home.actuator_actor(light), home.actuators[0].1);
    }
}
