//! Push-based and poll-based sensor devices.
//!
//! Push-based sensors (door, motion, camera, wearables) emit events
//! spontaneously and multicast them to every in-range process.
//! Poll-based sensors (temperature, luminance, humidity, UV) answer
//! poll requests, and — like the off-the-shelf Z-Wave hardware the
//! paper measured — support **only one outstanding poll**, silently
//! dropping concurrent requests (§4.1, Fig. 8).
//!
//! Both kinds expose a *probe*: a shared handle recording ground truth
//! (every emission / every poll) that experiments read afterwards to
//! compute delivery percentages and polling overhead.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use rand::Rng;
use rivulet_net::actor::{Actor, ActorEvent, ActorId, Context};
use rivulet_types::wire::{Wire, WriterPool};
use rivulet_types::{Duration, Event, EventId, EventKind, Payload, SensorId, Time};

use crate::fault::DeviceFaults;
use crate::frame::RadioFrame;
use crate::value::ValueModel;

/// Timer token for the next scheduled push emission.
const TOKEN_EMIT: u64 = 1;
/// Timer token for poll completion.
const TOKEN_POLL_DONE: u64 = 2;

/// When a push-based sensor emits.
#[derive(Debug, Clone, PartialEq)]
pub enum EmissionSchedule {
    /// Fixed period (the evaluation's "10 events per second" uses
    /// `Periodic(100 ms)`).
    Periodic(Duration),
    /// Memoryless inter-arrival times with the given mean, for
    /// human-triggered sensors like doors and motion.
    Poisson {
        /// Mean time between events.
        mean: Duration,
    },
    /// Explicit emission instants (for scripted scenario tests like
    /// the paper's Fig. 3 trace). Must be sorted ascending.
    Script(Vec<Time>),
}

/// What each emitted event carries.
#[derive(Debug, Clone, PartialEq)]
pub enum PayloadSpec {
    /// Kind-only events (door open/close, motion): the 4-byte class.
    KindOnly(EventKind),
    /// Scalar readings drawn from a model: the 8-byte class.
    Scalar(ValueModel),
    /// Opaque blobs of a fixed size (camera frames, audio batches).
    Blob {
        /// Kind to stamp on the event.
        kind: EventKind,
        /// Payload size in bytes.
        len: usize,
    },
}

impl PayloadSpec {
    /// Builds the next event's payload. `blob_cache` holds one shared
    /// zero-blob allocation: every `Blob` emission cheap-clones it
    /// instead of allocating a fresh buffer per event, so a camera
    /// streaming 1 KiB frames allocates its payload exactly once.
    fn materialize(
        &mut self,
        now: Time,
        rng: &mut rand::rngs::StdRng,
        blob_cache: &mut Option<Bytes>,
    ) -> (EventKind, Payload) {
        match self {
            PayloadSpec::KindOnly(kind) => (*kind, Payload::Empty),
            PayloadSpec::Scalar(model) => {
                (EventKind::Reading, Payload::Scalar(model.sample(now, rng)))
            }
            PayloadSpec::Blob { kind, len } => {
                let blob = match blob_cache {
                    Some(b) if b.len() == *len => b.clone(),
                    _ => {
                        let b = Bytes::from(vec![0u8; *len]);
                        *blob_cache = Some(b.clone());
                        b
                    }
                };
                (*kind, Payload::Blob(blob))
            }
        }
    }
}

/// Ground truth about a push sensor's emissions, shared with the
/// harness.
#[derive(Debug, Default)]
pub struct EmissionProbe {
    log: Mutex<Vec<(Time, EventId)>>,
}

impl EmissionProbe {
    /// Creates an empty probe.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Number of events the sensor has emitted.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.log.lock().expect("probe lock").len() as u64
    }

    /// Snapshot of `(emission time, event id)` pairs.
    #[must_use]
    pub fn log(&self) -> Vec<(Time, EventId)> {
        self.log.lock().expect("probe lock").clone()
    }

    fn record(&self, now: Time, id: EventId) {
        self.log.lock().expect("probe lock").push((now, id));
    }
}

/// A push-based sensor: emits events on its schedule and multicasts
/// each to every target process (the Z-Wave mesh behaviour of §3.1).
///
/// Targets are fixed at construction: the deployment layer computes
/// them from the floor plan. Per-link loss/blocking is the network's
/// business, not the sensor's.
#[derive(Debug)]
pub struct PushSensor {
    sensor: SensorId,
    payload: PayloadSpec,
    schedule: EmissionSchedule,
    targets: Vec<ActorId>,
    probe: Arc<EmissionProbe>,
    next_seq: u64,
    script_idx: usize,
    /// Pooled encode buffers: each emission encodes into a recycled
    /// writer instead of allocating a fresh one.
    pool: WriterPool,
    /// Shared zero-blob payload for `PayloadSpec::Blob` emissions.
    blob_cache: Option<Bytes>,
    /// Seeded fault schedule (empty unless a
    /// [`crate::fault::FaultPlan`] names this sensor). Consults pure
    /// hash streams only — never the driver RNG — so attaching a rate-0
    /// plan perturbs nothing.
    faults: DeviceFaults,
}

impl PushSensor {
    /// Creates a push sensor.
    #[must_use]
    pub fn new(
        sensor: SensorId,
        payload: PayloadSpec,
        schedule: EmissionSchedule,
        targets: Vec<ActorId>,
        probe: Arc<EmissionProbe>,
    ) -> Self {
        if let EmissionSchedule::Script(times) = &schedule {
            debug_assert!(
                times.windows(2).all(|w| w[0] <= w[1]),
                "script must be sorted"
            );
        }
        Self {
            sensor,
            payload,
            schedule,
            targets,
            probe,
            next_seq: 0,
            script_idx: 0,
            pool: WriterPool::new(),
            blob_cache: None,
            faults: DeviceFaults::default(),
        }
    }

    /// Starts sequence numbering at `seq` instead of zero. Deployment
    /// uses this when rebuilding a recovered sensor so its fresh
    /// events do not collide with pre-crash event identities.
    #[must_use]
    pub fn with_start_seq(mut self, seq: u64) -> Self {
        self.next_seq = seq;
        self
    }

    /// Attaches a seeded fault schedule (see [`crate::fault`]).
    #[must_use]
    pub fn with_faults(mut self, faults: DeviceFaults) -> Self {
        self.faults = faults;
        self
    }

    fn schedule_next(&mut self, ctx: &mut Context<'_>) {
        match &self.schedule {
            EmissionSchedule::Periodic(period) => ctx.set_timer(*period, TOKEN_EMIT),
            EmissionSchedule::Poisson { mean } => {
                // Inverse-CDF exponential draw from the driver RNG.
                let u: f64 = ctx.rng().gen_range(f64::EPSILON..1.0);
                let wait = mean.mul_f64(-u.ln());
                ctx.set_timer(wait, TOKEN_EMIT);
            }
            EmissionSchedule::Script(times) => {
                if let Some(at) = times.get(self.script_idx) {
                    let wait = at.duration_since(ctx.now());
                    ctx.set_timer(wait, TOKEN_EMIT);
                }
            }
        }
    }

    fn emit(&mut self, ctx: &mut Context<'_>) {
        let decision = self.faults.decide_next();
        if let Some(cause) = decision.suppress {
            // Missed event / battery skip: the emission never happens,
            // no sequence number is consumed, the emission probe does
            // not see it (the phenomenon occurred but the radio never
            // carried it).
            self.faults.record_suppressed(cause);
            return;
        }
        let now = ctx.now();
        let (kind, payload) = self
            .payload
            .materialize(now, ctx.rng(), &mut self.blob_cache);
        let payload = match (decision.corrupt, payload) {
            (Some(ckind), Payload::Scalar(v)) => {
                let (cv, altered) = self.faults.corrupt_value(ckind, v);
                if altered {
                    self.faults.record_corrupted(ckind);
                }
                Payload::Scalar(cv)
            }
            (_, payload) => payload,
        };
        self.send_event(ctx, now, kind, payload);
        if decision.ghost {
            // A spurious extra event right after the real one. Its value
            // comes purely from the fault stream, never the driver RNG;
            // its id is logged in the fault probe so harnesses can score
            // it as incorrect.
            let (kind, payload) = match &self.payload {
                PayloadSpec::Scalar(_) => (
                    EventKind::Reading,
                    Payload::Scalar(self.faults.ghost_value()),
                ),
                // KindOnly and Blob materialization never touches the RNG.
                _ => self
                    .payload
                    .materialize(now, ctx.rng(), &mut self.blob_cache),
            };
            let id = self.send_event(ctx, now, kind, payload);
            self.faults.record_ghost(id);
        }
    }

    /// Numbers an event, records it in the emission probe (it really
    /// went over the radio) and multicasts it to every target; returns
    /// its id.
    fn send_event(
        &mut self,
        ctx: &mut Context<'_>,
        now: Time,
        kind: EventKind,
        payload: Payload,
    ) -> EventId {
        let id = EventId::new(self.sensor, self.next_seq);
        self.next_seq += 1;
        self.probe.record(now, id);
        // Encode once into a pooled buffer; every target gets a cheap
        // clone of the same frozen frame.
        let frame = self.pool.encode(&RadioFrame::Event(Event::with_payload(
            id, kind, payload, now,
        )));
        for target in &self.targets {
            ctx.send(*target, frame.clone());
        }
        id
    }
}

impl Actor for PushSensor {
    fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent) {
        match event {
            ActorEvent::Start => self.schedule_next(ctx),
            ActorEvent::Timer { token: TOKEN_EMIT } => {
                self.emit(ctx);
                if let EmissionSchedule::Script(_) = self.schedule {
                    self.script_idx += 1;
                }
                self.schedule_next(ctx);
            }
            // Push sensors ignore inbound frames (they have no poll or
            // actuation surface).
            _ => {}
        }
    }
}

/// Ground truth about a poll sensor's request handling.
#[derive(Debug, Default)]
pub struct PollProbe {
    received: AtomicU64,
    answered: AtomicU64,
    dropped_busy: AtomicU64,
}

impl PollProbe {
    /// Creates an empty probe.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Total poll requests that reached the sensor. This is the
    /// battery-cost figure of Fig. 8: every received request costs
    /// radio wake-up energy whether or not it is answered.
    #[must_use]
    pub fn received(&self) -> u64 {
        self.received.load(Ordering::SeqCst)
    }

    /// Requests answered with a reading.
    #[must_use]
    pub fn answered(&self) -> u64 {
        self.answered.load(Ordering::SeqCst)
    }

    /// Requests silently dropped because a poll was outstanding.
    #[must_use]
    pub fn dropped_busy(&self) -> u64 {
        self.dropped_busy.load(Ordering::SeqCst)
    }
}

/// A poll-based sensor with the paper's off-the-shelf semantics:
/// answering a poll takes up to `poll_latency` (600 ms is the *nominal*
/// polling period of the Z-Wave temperature sensor in Fig. 8; real
/// answers complete in a fraction of it — we sample uniformly from
/// 30–90 % of nominal), and **only one poll may be outstanding** —
/// concurrent requests are silently dropped, the misbehaviour that
/// motivates coordinated polling (§4.1).
#[derive(Debug)]
pub struct PollSensor {
    sensor: SensorId,
    value: ValueModel,
    poll_latency: Duration,
    probe: Arc<PollProbe>,
    /// `(requester, epoch)` of the in-flight poll, if any.
    busy_with: Option<(ActorId, u64)>,
    next_seq: u64,
    /// Pooled encode buffers for poll answers.
    pool: WriterPool,
    /// Seeded fault schedule (empty unless a plan names this sensor).
    faults: DeviceFaults,
}

impl PollSensor {
    /// Creates a poll sensor.
    #[must_use]
    pub fn new(
        sensor: SensorId,
        value: ValueModel,
        poll_latency: Duration,
        probe: Arc<PollProbe>,
    ) -> Self {
        Self {
            sensor,
            value,
            poll_latency,
            probe,
            busy_with: None,
            next_seq: 0,
            pool: WriterPool::new(),
            faults: DeviceFaults::default(),
        }
    }

    /// Starts sequence numbering at `seq` instead of zero (see
    /// [`PushSensor::with_start_seq`]).
    #[must_use]
    pub fn with_start_seq(mut self, seq: u64) -> Self {
        self.next_seq = seq;
        self
    }

    /// Attaches a seeded fault schedule (see [`crate::fault`]).
    #[must_use]
    pub fn with_faults(mut self, faults: DeviceFaults) -> Self {
        self.faults = faults;
        self
    }
}

impl Actor for PollSensor {
    fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent) {
        match event {
            ActorEvent::Message { from, payload } => {
                let Ok(frame) = RadioFrame::from_bytes(&payload) else {
                    return; // corrupt frame: drop, as hardware would
                };
                if let RadioFrame::PollRequest { sensor, epoch } = frame {
                    if sensor != self.sensor {
                        return;
                    }
                    self.probe.received.fetch_add(1, Ordering::SeqCst);
                    if self.busy_with.is_some() {
                        // One outstanding poll only: silent drop.
                        self.probe.dropped_busy.fetch_add(1, Ordering::SeqCst);
                        return;
                    }
                    self.busy_with = Some((from, epoch));
                    // Real hardware usually answers well under its
                    // nominal polling period.
                    let factor = ctx.rng().gen_range(0.3..0.9);
                    ctx.set_timer(self.poll_latency.mul_f64(factor), TOKEN_POLL_DONE);
                }
            }
            ActorEvent::Timer {
                token: TOKEN_POLL_DONE,
            } => {
                let Some((requester, epoch)) = self.busy_with.take() else {
                    return;
                };
                let decision = self.faults.decide_next();
                if let Some(cause) = decision.suppress {
                    // The answer is silently lost: the epoch goes
                    // unserved and the platform's re-poll machinery
                    // (or the repair layer) must recover it.
                    self.faults.record_suppressed(cause);
                    return;
                }
                let now = ctx.now();
                let mut value = self.value.sample(now, ctx.rng());
                let id = EventId::new(self.sensor, self.next_seq);
                self.next_seq += 1;
                if let Some(ckind) = decision.corrupt {
                    let (cv, altered) = self.faults.corrupt_value(ckind, value);
                    if altered {
                        self.faults.record_corrupted(ckind);
                    }
                    value = cv;
                }
                let event =
                    Event::with_payload(id, EventKind::Reading, Payload::Scalar(value), now)
                        .in_epoch(epoch);
                self.probe.answered.fetch_add(1, Ordering::SeqCst);
                let frame = self.pool.encode(&RadioFrame::Event(event));
                ctx.send(requester, frame);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rivulet_net::link::ActorClass;
    use rivulet_net::sim::{SimConfig, SimNet};

    use crate::fault::{FaultKind, FaultPlan, FaultProbe, FaultSpec};

    /// Collects decoded event frames.
    struct Collector {
        events: Arc<Mutex<Vec<(Time, Event)>>>,
    }

    impl Actor for Collector {
        fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent) {
            if let ActorEvent::Message { payload, .. } = event {
                if let Ok(RadioFrame::Event(ev)) = RadioFrame::from_bytes(&payload) {
                    self.events.lock().expect("lock").push((ctx.now(), ev));
                }
            }
        }
    }

    type CollectedEvents = Arc<Mutex<Vec<(Time, Event)>>>;

    fn add_collector(net: &mut SimNet) -> (ActorId, CollectedEvents) {
        let events = Arc::new(Mutex::new(Vec::new()));
        let e = Arc::clone(&events);
        let id = net.add_actor("collector", ActorClass::Process, move || {
            Box::new(Collector {
                events: Arc::clone(&e),
            })
        });
        (id, events)
    }

    #[test]
    fn periodic_push_sensor_emits_at_rate() {
        let mut net = SimNet::new(SimConfig::with_seed(1));
        let (proc_a, recv_a) = add_collector(&mut net);
        let (proc_b, recv_b) = add_collector(&mut net);
        let probe = EmissionProbe::new();
        let p = Arc::clone(&probe);
        net.add_actor("door", ActorClass::Device, move || {
            Box::new(PushSensor::new(
                SensorId(1),
                PayloadSpec::KindOnly(EventKind::DoorOpen),
                EmissionSchedule::Periodic(Duration::from_millis(100)),
                vec![proc_a, proc_b],
                Arc::clone(&p),
            ))
        });
        net.run_until(Time::from_secs(10));
        assert_eq!(probe.emitted(), 100, "10 ev/s for 10 s");
        // Multicast reaches both processes (lossless by default).
        let got_a = recv_a.lock().unwrap().len();
        let got_b = recv_b.lock().unwrap().len();
        assert!(got_a >= 99 && got_b >= 99, "a={got_a} b={got_b}");
        // Sequence numbers are gap-free at the source.
        let log = probe.log();
        for (i, (_, id)) in log.iter().enumerate() {
            assert_eq!(id.seq, i as u64);
            assert_eq!(id.sensor, SensorId(1));
        }
    }

    #[test]
    fn poisson_sensor_mean_rate_is_plausible() {
        let mut net = SimNet::new(SimConfig::with_seed(7));
        let (proc_a, _) = add_collector(&mut net);
        let probe = EmissionProbe::new();
        let p = Arc::clone(&probe);
        net.add_actor("motion", ActorClass::Device, move || {
            Box::new(PushSensor::new(
                SensorId(2),
                PayloadSpec::KindOnly(EventKind::Motion),
                EmissionSchedule::Poisson {
                    mean: Duration::from_secs(1),
                },
                vec![proc_a],
                Arc::clone(&p),
            ))
        });
        net.run_until(Time::from_secs(1_000));
        let n = probe.emitted();
        // Mean 1000 events; 5 sigma ≈ 160.
        assert!((800..=1_200).contains(&n), "poisson count {n}");
    }

    #[test]
    fn scripted_sensor_follows_script() {
        let mut net = SimNet::new(SimConfig::with_seed(3));
        let (proc_a, recv) = add_collector(&mut net);
        let probe = EmissionProbe::new();
        let p = Arc::clone(&probe);
        let script = vec![Time::from_secs(1), Time::from_secs(2), Time::from_secs(5)];
        let s = script.clone();
        net.add_actor("door", ActorClass::Device, move || {
            Box::new(PushSensor::new(
                SensorId(3),
                PayloadSpec::KindOnly(EventKind::DoorOpen),
                EmissionSchedule::Script(s.clone()),
                vec![proc_a],
                Arc::clone(&p),
            ))
        });
        net.run_until(Time::from_secs(10));
        assert_eq!(probe.emitted(), 3);
        let log = probe.log();
        let times: Vec<Time> = log.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, script);
        assert_eq!(recv.lock().unwrap().len(), 3);
    }

    /// A missed emission is counted once, under `fault.missed`, and
    /// never reaches the emission probe.
    #[test]
    fn missed_emissions_are_counted_under_their_fault_key() {
        let mut net = SimNet::new(SimConfig::with_seed(1));
        net.recorder().set_enabled(true);
        let faults = FaultPlan::new(1)
            .sensor(SensorId(1), FaultSpec::new(FaultKind::Missed, 1.0))
            .for_sensor(SensorId(1))
            .reporting_to(FaultProbe::new(), net.recorder());
        let probe = EmissionProbe::new();
        let p = Arc::clone(&probe);
        net.add_actor("door", ActorClass::Device, move || {
            let sensor = PushSensor::new(
                SensorId(1),
                PayloadSpec::KindOnly(EventKind::DoorOpen),
                EmissionSchedule::Periodic(Duration::from_millis(100)),
                vec![],
                Arc::clone(&p),
            );
            Box::new(sensor.with_faults(faults.clone()))
        });
        net.run_until(Time::from_secs(1));
        assert_eq!(probe.emitted(), 0);
        assert_eq!(
            net.obs_snapshot().counter("fault.missed"),
            10,
            "one per scheduled emission"
        );
    }

    #[test]
    fn blob_sensor_carries_bytes() {
        let mut net = SimNet::new(SimConfig::with_seed(4));
        let (proc_a, recv) = add_collector(&mut net);
        let probe = EmissionProbe::new();
        let p = Arc::clone(&probe);
        net.add_actor("camera", ActorClass::Device, move || {
            Box::new(PushSensor::new(
                SensorId(4),
                PayloadSpec::Blob {
                    kind: EventKind::Image,
                    len: 10_240,
                },
                EmissionSchedule::Periodic(Duration::from_millis(500)),
                vec![proc_a],
                Arc::clone(&p),
            ))
        });
        net.run_until(Time::from_secs(2));
        let events = recv.lock().unwrap();
        assert!(!events.is_empty());
        for (_, ev) in events.iter() {
            assert_eq!(ev.kind, EventKind::Image);
            assert_eq!(ev.payload.len(), 10_240);
        }
    }

    /// Sends poll requests on a schedule.
    struct Poller {
        target: ActorId,
        sensor: SensorId,
        period: Duration,
        epoch: u64,
        replies: Arc<Mutex<Vec<Event>>>,
    }

    impl Actor for Poller {
        fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent) {
            match event {
                ActorEvent::Start => ctx.set_timer(self.period, 1),
                ActorEvent::Timer { .. } => {
                    let frame = RadioFrame::PollRequest {
                        sensor: self.sensor,
                        epoch: self.epoch,
                    };
                    self.epoch += 1;
                    ctx.send(self.target, frame.to_bytes());
                    ctx.set_timer(self.period, 1);
                }
                ActorEvent::Message { payload, .. } => {
                    if let Ok(RadioFrame::Event(ev)) = RadioFrame::from_bytes(&payload) {
                        self.replies.lock().expect("lock").push(ev);
                    }
                }
            }
        }
    }

    #[test]
    fn poll_sensor_answers_serial_polls() {
        let mut net = SimNet::new(SimConfig::with_seed(5));
        let probe = PollProbe::new();
        let pr = Arc::clone(&probe);
        let sensor_actor = net.add_actor("temp", ActorClass::Device, move || {
            Box::new(PollSensor::new(
                SensorId(9),
                ValueModel::Constant(21.0),
                Duration::from_millis(500),
                Arc::clone(&pr),
            ))
        });
        let replies = Arc::new(Mutex::new(Vec::new()));
        let r = Arc::clone(&replies);
        net.add_actor("poller", ActorClass::Process, move || {
            Box::new(Poller {
                target: sensor_actor,
                sensor: SensorId(9),
                period: Duration::from_secs(2),
                epoch: 0,
                replies: Arc::clone(&r),
            })
        });
        net.run_until(Time::from_secs(10));
        // Polls sent at 2,4,6,8,10; the one sent at t=10 is still on
        // the radio when the run ends, so four reach the sensor and
        // all four are answered within the horizon.
        let got = replies.lock().unwrap();
        assert_eq!(got.len(), 4);
        assert_eq!(probe.received(), 4);
        assert_eq!(probe.dropped_busy(), 0);
        for (i, ev) in got.iter().enumerate() {
            assert_eq!(ev.epoch, Some(i as u64));
            assert_eq!(ev.payload.as_scalar(), Some(21.0));
        }
    }

    #[test]
    fn concurrent_polls_silently_dropped() {
        let mut net = SimNet::new(SimConfig::with_seed(6));
        let probe = PollProbe::new();
        let pr = Arc::clone(&probe);
        let sensor_actor = net.add_actor("temp", ActorClass::Device, move || {
            Box::new(PollSensor::new(
                SensorId(9),
                ValueModel::Constant(21.0),
                Duration::from_millis(500),
                Arc::clone(&pr),
            ))
        });
        // Two pollers with 300ms period: many requests land while busy.
        for name in ["poller-a", "poller-b"] {
            let replies = Arc::new(Mutex::new(Vec::new()));
            let r = Arc::clone(&replies);
            net.add_actor(name, ActorClass::Process, move || {
                Box::new(Poller {
                    target: sensor_actor,
                    sensor: SensorId(9),
                    period: Duration::from_millis(300),
                    epoch: 0,
                    replies: Arc::clone(&r),
                })
            });
        }
        net.run_until(Time::from_secs(30));
        assert!(probe.dropped_busy() > 0, "contention must drop some polls");
        // Every request is answered or dropped, except possibly one
        // still in flight when the run ends.
        let settled = probe.answered() + probe.dropped_busy();
        assert!(
            settled == probe.received() || settled + 1 == probe.received(),
            "received {} answered {} dropped {}",
            probe.received(),
            probe.answered(),
            probe.dropped_busy()
        );
    }

    #[test]
    fn poll_sensor_ignores_wrong_sensor_and_junk() {
        let mut net = SimNet::new(SimConfig::with_seed(8));
        let probe = PollProbe::new();
        let pr = Arc::clone(&probe);
        let sensor_actor = net.add_actor("temp", ActorClass::Device, move || {
            Box::new(PollSensor::new(
                SensorId(9),
                ValueModel::Constant(21.0),
                Duration::from_millis(100),
                Arc::clone(&pr),
            ))
        });
        struct Junk {
            target: ActorId,
        }
        impl Actor for Junk {
            fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent) {
                if matches!(event, ActorEvent::Start) {
                    // Wrong sensor id.
                    let frame = RadioFrame::PollRequest {
                        sensor: SensorId(999),
                        epoch: 0,
                    };
                    ctx.send(self.target, frame.to_bytes());
                    // Corrupt bytes.
                    ctx.send(self.target, bytes::Bytes::from_static(&[0xff, 0xff]));
                }
            }
        }
        net.add_actor("junk", ActorClass::Process, move || {
            Box::new(Junk {
                target: sensor_actor,
            })
        });
        net.run_until(Time::from_secs(1));
        assert_eq!(probe.received(), 0);
        assert_eq!(probe.answered(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rivulet_net::link::ActorClass;
    use rivulet_net::sim::{SimConfig, SimNet};

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// A push sensor's emission log is always gap-free and ordered,
        /// for any schedule and horizon.
        #[test]
        fn emissions_are_gap_free(
            seed in any::<u64>(),
            period_ms in 50u64..2_000,
            horizon_s in 1u64..30,
        ) {
            let mut net = SimNet::new(SimConfig::with_seed(seed));
            let probe = EmissionProbe::new();
            let p = Arc::clone(&probe);
            net.add_actor("s", ActorClass::Device, move || {
                Box::new(PushSensor::new(
                    SensorId(1),
                    PayloadSpec::KindOnly(EventKind::Motion),
                    EmissionSchedule::Periodic(Duration::from_millis(period_ms)),
                    vec![],
                    Arc::clone(&p),
                ))
            });
            net.run_until(Time::from_secs(horizon_s));
            let log = probe.log();
            prop_assert_eq!(log.len() as u64, probe.emitted());
            for (i, (at, id)) in log.iter().enumerate() {
                prop_assert_eq!(id.seq, i as u64, "sequence gap");
                prop_assert_eq!(
                    at.as_millis(),
                    period_ms * (i as u64 + 1),
                    "period drift"
                );
            }
        }

        /// The one-outstanding-poll invariant holds under arbitrary
        /// concurrent poller counts and rates: received polls are
        /// always partitioned into answered + dropped (+ at most one in
        /// flight).
        #[test]
        fn poll_accounting_is_conserved(
            seed in any::<u64>(),
            pollers in 1usize..5,
            period_ms in 100u64..1_500,
        ) {
            let mut net = SimNet::new(SimConfig::with_seed(seed));
            let probe = PollProbe::new();
            let pr = Arc::clone(&probe);
            let sensor = net.add_actor("s", ActorClass::Device, move || {
                Box::new(PollSensor::new(
                    SensorId(1),
                    ValueModel::Constant(1.0),
                    Duration::from_millis(400),
                    Arc::clone(&pr),
                ))
            });
            struct P {
                target: rivulet_net::actor::ActorId,
                period: Duration,
            }
            impl Actor for P {
                fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent) {
                    match event {
                        ActorEvent::Start => ctx.set_timer(self.period, 1),
                        ActorEvent::Timer { .. } => {
                            ctx.send(
                                self.target,
                                RadioFrame::PollRequest { sensor: SensorId(1), epoch: 0 }
                                    .to_bytes(),
                            );
                            ctx.set_timer(self.period, 1);
                        }
                        ActorEvent::Message { .. } => {}
                    }
                }
            }
            for i in 0..pollers {
                net.add_actor(&format!("p{i}"), ActorClass::Process, move || {
                    Box::new(P { target: sensor, period: Duration::from_millis(period_ms) })
                });
            }
            net.run_until(Time::from_secs(20));
            let settled = probe.answered() + probe.dropped_busy();
            prop_assert!(
                settled == probe.received() || settled + 1 == probe.received(),
                "received {} answered {} dropped {}",
                probe.received(),
                probe.answered(),
                probe.dropped_busy()
            );
        }
    }
}
