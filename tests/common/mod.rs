//! The five-host home the durability and express-lane tests share, and
//! a tap on what its process actors are sent.
#![allow(dead_code)] // each test crate uses its own part

use rivulet::core::app::{AppBuilder, CombinedWindows, CombinerSpec, OpCtx, WindowSpec};
use rivulet::core::delivery::Delivery;
use rivulet::core::deploy::{Driver, Home, HomeBuilder};
use rivulet::core::messages::{Frame, ProcMsg};
use rivulet::core::probe::{AppProbe, IngestProbe, ProbeData, StoreProbe, Stream, Verdict};
use rivulet::core::RivuletConfig;
use rivulet::devices::sensor::{EmissionProbe, EmissionSchedule, PayloadSpec};
use rivulet::net::actor::{Actor, ActorEvent, ActorId, Context};
use rivulet::net::link::ActorClass;
use rivulet::net::metrics::FanoutStats;
use rivulet::net::sim::{SimConfig, SimNet};
use rivulet::obs::Recorder;
use rivulet::storage::{FlushPolicy, SimBackend, StorageBackend, WalOptions};
use rivulet::types::wire::Wire;
use rivulet::types::{ActuationState, AppId, Duration, EventKind, ProcessId, SensorId, Time};
use std::sync::{Arc, Mutex};

pub struct Setup {
    pub net: SimNet,
    pub home: Home,
    pub probe: Arc<AppProbe>,
    pub store_probe: Arc<StoreProbe>,
    pub emissions: Arc<EmissionProbe>,
    pub ingest: Arc<IngestProbe>,
    pub sensor: SensorId,
    pub pids: Vec<ProcessId>,
    pub backends: Vec<Arc<SimBackend>>,
    /// What the process actors were sent, when the home is tapped.
    pub heard: Heard,
}

/// Every message a process actor received: when, from whom, the bytes.
pub type Heard = Arc<Mutex<Vec<(Time, ActorId, Vec<u8>)>>>;

/// A process actor that notes each inbound message before handling it.
struct Tap {
    inner: Box<dyn Actor>,
    heard: Heard,
}

impl Actor for Tap {
    fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent) {
        if let ActorEvent::Message { from, payload } = &event {
            let entry = (ctx.now(), *from, payload.to_vec());
            self.heard.lock().expect("tap lock").push(entry);
        }
        self.inner.on_event(ctx, event);
    }
}

/// Deploys onto `net`, wrapping every process actor in a [`Tap`] when
/// there is a `tap` to record into.
struct TapDriver<'a> {
    net: &'a mut SimNet,
    tap: Option<Heard>,
}

impl Driver for TapDriver<'_> {
    fn add_boxed_actor(
        &mut self,
        name: &str,
        class: ActorClass,
        mut factory: Box<dyn FnMut() -> Box<dyn Actor> + Send>,
    ) -> ActorId {
        let tap = self.tap.clone().filter(|_| class == ActorClass::Process);
        self.net.add_actor(name, class, move || match &tap {
            Some(heard) => Box::new(Tap {
                inner: factory(),
                heard: Arc::clone(heard),
            }),
            None => factory(),
        })
    }

    fn next_actor_id(&self) -> ActorId {
        self.net.next_actor_id()
    }

    fn fanout_stats(&self) -> Arc<FanoutStats> {
        Arc::clone(&self.net.metrics().fanout)
    }

    fn recorder(&self) -> Recorder {
        self.net.recorder()
    }
}

pub fn wal_options(policy: FlushPolicy) -> WalOptions {
    WalOptions {
        flush_policy: policy,
        segment_max_bytes: 64 * 1024,
    }
}

/// Five hosts, the app anchored at host 0, one Gapless sensor heard by
/// the hosts `heard_by` and, given a `policy`, a simulated disk per
/// process.
pub fn deploy(
    seed: u64,
    policy: Option<FlushPolicy>,
    config: RivuletConfig,
    schedule: EmissionSchedule,
    heard_by: &[usize],
    tapped: bool,
) -> Setup {
    let delivery = Delivery::Gapless;
    deploy_delivered(delivery, seed, policy, config, schedule, heard_by, tapped)
}

/// [`deploy`], with the app asking for `delivery` instead of Gapless.
pub fn deploy_delivered(
    delivery: Delivery,
    seed: u64,
    policy: Option<FlushPolicy>,
    config: RivuletConfig,
    schedule: EmissionSchedule,
    heard_by: &[usize],
    tapped: bool,
) -> Setup {
    let mut net = SimNet::new(SimConfig::with_seed(seed));
    let heard = Heard::default();
    let mut driver = TapDriver {
        net: &mut net,
        tap: tapped.then(|| Arc::clone(&heard)),
    };
    let mut home = HomeBuilder::new(&mut driver).with_config(config);
    let ingest = home.with_ingest_probe();
    let pids: Vec<ProcessId> = (0..5).map(|i| home.add_host(format!("host{i}"))).collect();
    let backends: Vec<Arc<SimBackend>> = (0..5)
        .map(|i| Arc::new(SimBackend::new(seed.wrapping_mul(31).wrapping_add(i))))
        .collect();
    if let Some(policy) = policy {
        let for_factory = backends.clone();
        home = home.with_storage(
            wal_options(policy),
            Duration::from_secs(5),
            move |pid: ProcessId| {
                Arc::clone(&for_factory[pid.as_u32() as usize]) as Arc<dyn StorageBackend>
            },
        );
    }
    let store_probe = home.with_store_probe();
    let hearers: Vec<ProcessId> = heard_by.iter().map(|i| pids[*i]).collect();
    let (sensor, emissions) = home.add_push_sensor(
        "motion",
        PayloadSpec::KindOnly(EventKind::Motion),
        schedule,
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
        store_probe,
        emissions,
        ingest,
        sensor,
        pids,
        backends,
        heard,
    }
}

/// Every protocol message the tapped home's processes received from
/// one another: when, from whom, and the message (frames taken apart).
pub fn peer_msgs(s: &Setup) -> Vec<(Time, ActorId, ProcMsg)> {
    let processes: Vec<ActorId> = s.pids.iter().map(|p| s.home.actor_of(*p)).collect();
    let heard = s.heard.lock().expect("tap lock");
    let from_peers = heard.iter().filter(|(_, from, _)| processes.contains(from));
    from_peers
        .flat_map(|(at, from, payload)| {
            let msgs = if Frame::sniff(payload) {
                Frame::from_bytes(payload).expect("frame").msgs
            } else {
                vec![ProcMsg::from_bytes(payload).expect("message")]
            };
            msgs.into_iter().map(move |msg| (*at, *from, msg))
        })
        .collect()
}

/// Emission instants `at` (milliseconds), as a sensor script.
pub fn script(at: &[u64]) -> EmissionSchedule {
    EmissionSchedule::Script(at.iter().map(|ms| Time::from_millis(*ms)).collect())
}

/// `n` emissions 97 ms apart: the last one is delivered well before a
/// run that ends `n` tenths of a second in is cut off.
pub fn paced(n: u64) -> EmissionSchedule {
    script(&(1..=n).map(|i| 97 * i).collect::<Vec<_>>())
}

/// Sequence numbers in the order the app processed them.
pub fn delivered_seqs(probe: &AppProbe) -> Vec<u64> {
    probe.deliveries().iter().map(|d| d.event.seq).collect()
}

/// Distinct delivered sequence numbers, ascending.
pub fn distinct_seqs(probe: &AppProbe) -> Vec<u64> {
    let seqs: std::collections::BTreeSet<u64> = delivered_seqs(probe).into_iter().collect();
    seqs.into_iter().collect()
}

/// The checker's view of a one-sensor home: the sensor's stream, who
/// heard what, and what the app processed. The caller adds what it did
/// to the home (crashes, a partition) and the owed-before cut.
pub fn probe_data(
    sensor: SensorId,
    delivery: Delivery,
    emissions: &EmissionProbe,
    ingest: &IngestProbe,
    app: &AppProbe,
) -> ProbeData {
    ProbeData {
        streams: vec![Stream {
            sensor,
            delivery,
            emitted: emissions.log(),
        }],
        heard: ingest.heard(),
        deliveries: app.deliveries(),
        ..ProbeData::default()
    }
}

/// Asserts that the checker owed every emitted event but the last
/// `tail`, so a passing verdict loses at most `tail` events.
pub fn assert_all_but_tail_owed(verdict: &Verdict, emitted: u64, tail: u64) {
    assert!(
        verdict.owed + tail >= emitted,
        "owed only {} of {emitted}",
        verdict.owed
    );
}

/// Every violation of `verdict`, one per line.
pub fn describe(verdict: &Verdict) -> String {
    let lines: Vec<String> = verdict.violations.iter().map(|v| v.to_string()).collect();
    lines.join("\n")
}

/// Asserts that only active logic nodes processed events, from the app
/// probe alone. Per process, role transitions alternate and start with
/// a promotion; a crash in `crashes` ends the process's role with its
/// incarnation, so the recovered one starts over. Every delivery `by`
/// a process at `at` falls after that process's latest promotion at or
/// before `at`, with no demotion or crash of it in between.
pub fn assert_deliveries_only_from_active(probe: &AppProbe, crashes: &[(ProcessId, Time)]) {
    // `Some(promoted)` for a transition, `None` for a crash; a crash
    // sorts after a transition recorded at the same instant.
    let mut roles: Vec<(Time, ProcessId, Option<bool>)> = probe
        .transitions()
        .into_iter()
        .map(|(at, p, promoted)| (at, p, Some(promoted)))
        .collect();
    roles.extend(crashes.iter().map(|(p, at)| (*at, *p, None)));
    roles.sort_by_key(|(at, _, role)| (*at, role.is_none()));
    let mut active: std::collections::BTreeSet<ProcessId> = Default::default();
    for (at, p, role) in &roles {
        match role {
            Some(true) => assert!(active.insert(*p), "{p:?} promoted twice, at {at:?}"),
            Some(false) => assert!(active.remove(p), "{p:?} demoted as a shadow, at {at:?}"),
            None => {
                active.remove(p);
            }
        }
    }
    for d in probe.deliveries() {
        let mine = roles.iter().filter(|(at, p, _)| *p == d.by && *at <= d.at);
        let promoted = mine.clone().rev().find(|(.., role)| *role == Some(true));
        let Some((since, ..)) = promoted else {
            panic!(
                "{:?} delivered {:?} at {:?} as a shadow",
                d.by, d.event, d.at
            );
        };
        let ended: Vec<Time> = mine
            .map(|(at, ..)| *at)
            .filter(|at| at > since && *at < d.at)
            .collect();
        assert!(
            ended.is_empty(),
            "{:?} delivered {:?} at {:?} after its role ended at {ended:?}",
            d.by,
            d.event,
            d.at
        );
    }
}

/// SplitMix64: a sweep's faults are a pure function of its seed.
pub struct Draw(pub u64);

impl Draw {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `from_ms..to_ms`, as an instant.
    pub fn instant(&mut self, from_ms: u64, to_ms: u64) -> Time {
        Time::from_millis(from_ms + self.below(to_ms - from_ms))
    }
}
