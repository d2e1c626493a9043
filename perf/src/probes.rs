//! Layer probes: unit costs measured from outside.
//!
//! Each probe calls a layer's public function in a tight loop, with
//! inputs shaped like the workload's (payload size, peer count, the
//! workload's own `AppSpec`), and reports the cost of one call. Probes
//! touch only functions no roadmap item plans to delete; optional
//! mechanisms (exec ring, arena, coalescing, cumulative acks, adaptive
//! gate) are seen only through counters.
//!
//! The functions called here are listed in `perf/README.md`: later
//! changes must keep them source-compatible, or be `benchmark` changes.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use bytes::Bytes;
use rivulet_core::app::{AppRuntime, AppSpec};
use rivulet_core::messages::ProcMsg;
use rivulet_core::store::EventStore;
use rivulet_net::actor::{Actor, ActorEvent, ActorId, Context};
use rivulet_net::link::ActorClass;
use rivulet_net::sim::{SimConfig, SimNet};
use rivulet_obs::Recorder;
use rivulet_storage::{
    FlushPolicy, LedgerChain, RoutineTransition, SimBackend, StorageBackend, Wal, WalOptions,
};
use rivulet_types::wire::Wire;
use rivulet_types::{
    ActuatorId, CommandId, Duration, Event, EventId, EventKind, OperatorId, Payload, ProcessId,
    RoutineId, SensorId, Time,
};

/// What a workload's messages and events look like, for the probes.
#[derive(Debug, Clone)]
pub struct ProbeShape {
    /// A representative event payload.
    pub payload: Payload,
    /// Kind stamped on events.
    pub kind: EventKind,
    /// Processes in the home (ring `need` list length).
    pub processes: usize,
    /// Sensors feeding the app.
    pub sensors: Vec<SensorId>,
    /// The workload's own app.
    pub app: Arc<AppSpec>,
}

/// Calls `batch` (which does some operations and returns how many)
/// once to warm up, then repeatedly until `budget` elapses; returns
/// nanoseconds per operation.
fn ns_per_op(budget: StdDuration, mut batch: impl FnMut() -> u64) -> f64 {
    let _ = batch();
    let started = Instant::now();
    let mut ops = 0u64;
    while started.elapsed() < budget {
        ops += batch();
    }
    started.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

fn sample_event(shape: &ProbeShape, sensor: usize, seq: u64) -> Event {
    Event::with_payload(
        EventId::new(shape.sensors[sensor % shape.sensors.len()], seq),
        shape.kind,
        shape.payload.clone(),
        Time::from_micros(seq * 1_000),
    )
}

/// `types.wire`: `(encode_ns, decode_ns)` of one ring-forwarding
/// message carrying the workload's payload.
#[must_use]
pub fn wire(shape: &ProbeShape, budget: StdDuration) -> (f64, f64) {
    let everyone: Vec<ProcessId> = (0..shape.processes as u32).map(ProcessId).collect();
    let msg = ProcMsg::Ring {
        event: sample_event(shape, 0, 7),
        seen: everyone[..1].to_vec(),
        need: everyone,
    };
    let encode = ns_per_op(budget / 2, || {
        for _ in 0..256 {
            black_box(black_box(&msg).to_bytes());
        }
        256
    });
    let bytes = msg.to_bytes();
    let decode = ns_per_op(budget / 2, || {
        for _ in 0..256 {
            black_box(ProcMsg::from_bytes(black_box(&bytes)).expect("decodes"));
        }
        256
    });
    (encode, decode)
}

/// An actor that returns every message to its sender.
struct Echo {
    peer: Option<ActorId>,
    payload: Bytes,
}

impl Actor for Echo {
    fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent) {
        match event {
            ActorEvent::Start => {
                if let Some(peer) = self.peer {
                    ctx.send(peer, self.payload.clone());
                }
            }
            ActorEvent::Message { from, payload } => ctx.send(from, payload),
            ActorEvent::Timer { .. } => {}
        }
    }
}

/// `net.sim`: nanoseconds the simulator spends per dispatched actor
/// activation, measured with two echo actors bouncing one message.
#[must_use]
pub fn sim_dispatch(payload_len: usize, budget: StdDuration) -> f64 {
    let payload = Bytes::from(vec![0u8; payload_len.max(1)]);
    ns_per_op(budget, || {
        let mut net = SimNet::new(SimConfig::with_seed(1));
        let for_a = payload.clone();
        let a = net.add_actor("a", ActorClass::Process, move || {
            Box::new(Echo {
                peer: None,
                payload: for_a.clone(),
            })
        });
        let for_b = payload.clone();
        net.add_actor("b", ActorClass::Process, move || {
            Box::new(Echo {
                peer: Some(a),
                payload: for_b.clone(),
            })
        });
        // One bounce is one WiFi hop (~2 ms virtual): 20 virtual seconds
        // dispatch ~10 000 activations.
        net.run_until(Time::from_secs(20))
    })
}

/// `core.store`: nanoseconds per `EventStore::insert` of the
/// workload's events.
#[must_use]
pub fn store_insert(shape: &ProbeShape, budget: StdDuration) -> f64 {
    let events: Vec<Event> = (0..4096u64)
        .map(|i| sample_event(shape, i as usize, i / shape.sensors.len() as u64))
        .collect();
    ns_per_op(budget, || {
        let mut store = EventStore::new(100_000);
        for event in &events {
            black_box(store.insert(event.clone()));
        }
        events.len() as u64
    })
}

/// `storage.wal`: `(append_ns, flush_us)` on a simulated disk, two
/// events per group commit as in the durable workloads.
#[must_use]
pub fn wal(shape: &ProbeShape, budget: StdDuration) -> (f64, f64) {
    let options = WalOptions {
        flush_policy: FlushPolicy::EveryInterval(Duration::from_millis(3)),
        ..WalOptions::default()
    };
    let mut append = StdDuration::ZERO;
    let mut flush = StdDuration::ZERO;
    let (mut appends, mut flushes) = (0u64, 0u64);
    let started = Instant::now();
    let mut seq = 0u64;
    while started.elapsed() < budget {
        let backend = Arc::new(SimBackend::new(7)) as Arc<dyn StorageBackend>;
        let (mut wal, _) = Wal::open(backend, options).expect("open a fresh wal");
        for _ in 0..64 {
            let events: Vec<Event> = (0..2)
                .map(|_| {
                    seq += 1;
                    sample_event(shape, 0, seq)
                })
                .collect();
            let t0 = Instant::now();
            for event in &events {
                black_box(wal.append_event(event).expect("append"));
            }
            let t1 = Instant::now();
            wal.flush().expect("flush");
            let t2 = Instant::now();
            append += t1 - t0;
            flush += t2 - t1;
            appends += events.len() as u64;
            flushes += 1;
        }
    }
    (
        append.as_nanos() as f64 / appends.max(1) as f64,
        flush.as_nanos() as f64 / 1_000.0 / flushes.max(1) as f64,
    )
}

/// `storage.ledger`: microseconds per ledger entry — one SHA-256 chain
/// link plus its individually flushed WAL record.
#[must_use]
pub fn ledger_append(budget: StdDuration) -> f64 {
    let commands = vec![
        (
            ActuatorId(1),
            CommandId::new(ProcessId(0), OperatorId(0), 1),
        ),
        (
            ActuatorId(2),
            CommandId::new(ProcessId(0), OperatorId(0), 2),
        ),
    ];
    ns_per_op(budget, || {
        let backend = Arc::new(SimBackend::new(7)) as Arc<dyn StorageBackend>;
        let (mut wal, _) = Wal::open(backend, WalOptions::default()).expect("open a fresh wal");
        let mut chain = LedgerChain::seeded(7);
        for instance in 0..256u64 {
            let entry = chain.append(
                RoutineId(1),
                instance,
                RoutineTransition::Staged,
                Time::from_micros(instance),
                commands.clone(),
            );
            wal.append_ledger(&entry).expect("append ledger entry");
        }
        256
    }) / 1_000.0
}

/// `core.app`: nanoseconds per `AppRuntime::on_event` of the workload's
/// own app (windows, combiners and operator cascade included).
#[must_use]
pub fn app_fire(shape: &ProbeShape, budget: StdDuration) -> f64 {
    let events: Vec<Event> = (0..4096u64)
        .map(|i| sample_event(shape, i as usize, i / shape.sensors.len() as u64))
        .collect();
    ns_per_op(budget, || {
        let mut runtime = AppRuntime::new(Arc::clone(&shape.app)).expect("valid app");
        for event in &events {
            black_box(runtime.on_event(event.emitted_at, event));
        }
        events.len() as u64
    })
}

/// `obs`: nanoseconds per `Recorder::inc` + `Recorder::observe` pair on
/// an enabled recorder.
#[must_use]
pub fn obs_inc(budget: StdDuration) -> f64 {
    let recorder = Recorder::enabled();
    ns_per_op(budget, || {
        for i in 0..256u64 {
            recorder.inc("perf.probe.counter");
            recorder.observe("perf.probe.histogram", black_box(i));
        }
        512
    })
}
