//! Allocation budgets of four per-event paths: heap allocations per
//! `AppRuntime::on_event` on the two app shapes the benchmark runs, per
//! event on the replica path every Gapless process runs (the
//! `EventStore` insert, the sync a successor's keep-alive asks for,
//! and the watermark GC), per `Wal::append_event` on the
//! durable path every stored event of a durable home takes, and per
//! Gapless relay hop (frame decode, `GaplessState::on_ring`, the
//! durability gate, the relay's encode).
//! `process.allocs_per_event` counts these among everything else; a
//! change that makes the operator DAG allocate per event again, puts
//! the store back on a structure that allocates as it churns, makes the WAL build a frame per record
//! again, or makes a ring hop build lists or action vectors again,
//! fails here, in tier-1, and says which path grew.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use rivulet::core::app::{
    AppBuilder, AppRuntime, AppSpec, CombinedWindows, CombinerSpec, EvictorPolicy, MarzulloAverage,
    OpCtx, PollSpec, WindowSpec,
};
use rivulet::core::delivery::gapless::GaplessState;
use rivulet::core::delivery::{Action, Delivery};
use rivulet::core::gating::{DurableGate, Released};
use rivulet::core::holdings::Holdings;
use rivulet::core::messages::{Frame, PeerMsg, RingMsg};
use rivulet::core::store::EventStore;
use rivulet::obs::Recorder;
use rivulet::storage::{FlushPolicy, SimBackend, StorageBackend, Wal, WalOptions};
use rivulet::types::wire::{Wire, WireWriter, WriterPool};
use rivulet::types::{
    ActuatorId, AppId, Duration, Event, EventId, EventKind, ProcSet, ProcessId, SensorId, Time,
};

/// `System`, counting the allocations of the thread that switched
/// counting on — other tests in this binary run on other threads.
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only two
// const-initialised thread-local cells, never the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Events the runtime sees before counting starts: windows fill and
/// every reusable buffer reaches its steady size.
const WARM_UP: u64 = 3_000;
/// Events counted.
const COUNTED: u64 = 21_000;

/// Heap allocations per `step(i)` over `warm_up..warm_up + counted`,
/// after `step` has run uncounted over `0..warm_up`.
fn allocs_per_step(warm_up: u64, counted: u64, mut step: impl FnMut(u64)) -> f64 {
    (0..warm_up).for_each(&mut step);
    let before = ALLOCS.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    (warm_up..warm_up + counted).for_each(&mut step);
    COUNTING.with(|on| on.set(false));
    (ALLOCS.with(Cell::get) - before) as f64 / counted as f64
}

/// Heap allocations per `on_event` call on events `WARM_UP..`; `event`
/// builds events without heap data.
fn allocs_per_call(app: AppSpec, event: impl Fn(u64) -> Event) -> f64 {
    let mut runtime = AppRuntime::new(Arc::new(app)).expect("valid app");
    allocs_per_step(WARM_UP, COUNTED, |i| {
        let event = event(i);
        drop(runtime.on_event(event.emitted_at, &event));
    })
}

fn dimmer_zones() -> Vec<ActuatorId> {
    (0..16).map(ActuatorId).collect()
}

/// `dag_poll`'s app: three redundant sensors in sliding `KeepWithin`
/// windows → `MarzulloAverage` → a threshold closure over 16 zones
/// that also reads two polled sensors.
fn dag_app() -> AppSpec {
    let sliding = || {
        WindowSpec::count(1)
            .sliding()
            .with_evictor(EvictorPolicy::KeepWithin(Duration::from_millis(4)))
    };
    let mut averaging = AppBuilder::new(AppId(1), "dag-poll").operator(
        "averaging",
        CombinerSpec::tolerate_arbitrary(3),
        MarzulloAverage {
            precision: 0.5,
            tolerate: 0,
        },
    );
    for s in 0..3 {
        averaging = averaging.sensor(SensorId(s), Delivery::Gap, sliding());
    }
    let averaging_id = averaging.id();
    let zones = dimmer_zones();
    let mut threshold = averaging
        .done()
        .operator(
            "threshold",
            CombinerSpec::Any,
            move |ctx: &mut OpCtx, w: &CombinedWindows| {
                let zone = zones[(ctx.now().as_millis() % zones.len() as u64) as usize];
                for value in w.scalars() {
                    if !(19.0..=23.0).contains(&value) {
                        ctx.set_level(zone, value);
                    }
                }
            },
        )
        .upstream(averaging_id, WindowSpec::count(1));
    for s in 10..12 {
        threshold = threshold.polled_sensor(
            SensorId(s),
            Delivery::Gapless,
            WindowSpec::count(1),
            PollSpec::every(Duration::from_secs(1)),
        );
    }
    for zone in dimmer_zones() {
        threshold = threshold.actuator(zone, Delivery::Gap);
    }
    threshold.done().build().expect("valid app")
}

/// Event `i` of the three 1 kHz sensors: one slow sine, so the average
/// spends part of the time outside the comfort band.
fn reading(i: u64) -> Event {
    let at = Time::from_micros(i / 3 * 1_000 + i % 3);
    let phase = at.as_millis() as f64 / 700.0 * std::f64::consts::TAU;
    Event::with_payload(
        EventId::new(SensorId((i % 3) as u32), i / 3),
        EventKind::Reading,
        (21.0 + 4.0 * phase.sin()).into(),
        at,
    )
}

/// The other five workloads' app: every event of every sensor sets one
/// of 16 dimmer zones.
fn per_event_app() -> AppSpec {
    let zones = dimmer_zones();
    let mut op = AppBuilder::new(AppId(1), "per-event-actuation").operator(
        "actuate",
        CombinerSpec::Any,
        move |ctx: &mut OpCtx, w: &CombinedWindows| {
            for event in w.all_events() {
                let zone = zones[(event.id.seq % zones.len() as u64) as usize];
                ctx.set_level(zone, event.id.seq as f64);
            }
        },
    );
    for s in 0..3 {
        op = op.sensor(SensorId(s), Delivery::Gapless, WindowSpec::count(1));
    }
    for zone in dimmer_zones() {
        op = op.actuator(zone, Delivery::Gapless);
    }
    op.done().build().expect("valid app")
}

fn motion(i: u64) -> Event {
    Event::new(
        EventId::new(SensorId((i % 3) as u32), i / 3),
        EventKind::Motion,
        Time::from_micros(i * 1_000),
    )
}

#[test]
fn dag_app_allocates_at_most_seven_times_per_event() {
    // What is left: the returned Vec, the averaging context's outputs,
    // `MarzulloAverage`'s three Vecs, the threshold's `scalars()` and,
    // out of band, its context's outputs. The parent read 23.67.
    let per_call = allocs_per_call(dag_app(), reading);
    assert!(
        per_call <= 7.0,
        "dag_poll-shaped app: {per_call:.2} allocations per on_event, budget 7"
    );
}

#[test]
fn per_event_app_allocates_at_most_twice_per_event() {
    // The returned Vec and the operator context's outputs. The parent
    // read 9.00.
    let per_call = allocs_per_call(per_event_app(), motion);
    assert!(
        per_call <= 2.0,
        "per-event actuation app: {per_call:.2} allocations per on_event, budget 2"
    );
}

/// Sensors feeding the replica path, each at 1 kHz, in order.
const REPLICA_SENSORS: u64 = 4;
/// Events per sensor the replica keeps behind the newest one: garbage
/// collection removes what is processed and older than this.
const GC_WINDOW: u64 = 5_000;
/// Events between two keep-alive beacons.
const BEACON_EVERY: u64 = 50;

#[test]
fn replica_path_does_not_allocate_per_event() {
    // The origin of a five-process home: every event is stored; every
    // `BEACON_EVERY` events its successor's holdings arrive and ask for
    // a sync, and the processed watermark collects the store, forgiving
    // holes below what it removed. The warm-up fills the GC window
    // twice, so every buffer has reached its steady size. One B-tree per
    // sensor in the store read 0.61.
    let mut store = EventStore::new(100_000);
    // What the successor holds: the ring has reached it with every event
    // but for the newest round, which a sync's settle guard leaves alone.
    let mut held = Holdings::default();
    let step = |i: u64| {
        let seq = i / REPLICA_SENSORS;
        let now = Time::from_millis(seq);
        let sensor = SensorId((i % REPLICA_SENSORS) as u32);
        let event = Event::new(EventId::new(sensor, seq), EventKind::Motion, now);
        assert!(store.insert(event));
        if i.is_multiple_of(BEACON_EVERY) {
            if let Some(settled) = seq.checked_sub(500).map(Time::from_millis) {
                let synced = store.diff_for(&held, settled);
                assert!(synced.is_empty(), "a healthy ring's sync ships nothing");
            }
            let cutoff = Time::from_millis(seq.saturating_sub(GC_WINDOW));
            for sensor in (0..REPLICA_SENSORS as u32).map(SensorId) {
                if let Some(removed) = store.prune_processed(sensor, seq.saturating_sub(1), cutoff)
                {
                    held.forgive(sensor, removed);
                }
            }
        }
        if let Some(prior) = seq.checked_sub(1) {
            held.note(EventId::new(sensor, prior));
        }
    };
    let warm_up = 2 * GC_WINDOW * REPLICA_SENSORS;
    let per_event = allocs_per_step(warm_up, warm_up, step);
    assert!(
        per_event <= 0.01,
        "replica path: {per_event:.2} allocations per event, budget 0.01"
    );
    assert!(store.len() as u64 <= (GC_WINDOW + 1) * REPLICA_SENSORS + BEACON_EVERY);
}

/// `Wal::append_event` calls counted.
const WAL_APPENDS: u64 = 20_000;

#[test]
fn durable_append_path_does_not_allocate_per_event() {
    // A durable home's WAL: every stored event is appended, and the
    // group-commit timer flushes about every second append. Each frame
    // is encoded in place into the pending batch, which a flush clears
    // and keeps; what is left is the simulated disk's segments growing.
    // The parent (a cloned record encoded into a fresh frame, then
    // copied into the batch) read 4.00.
    let options = WalOptions {
        flush_policy: FlushPolicy::EveryInterval(Duration::from_millis(3)),
        ..WalOptions::default()
    };
    let backend: Arc<dyn StorageBackend> = Arc::new(SimBackend::new(42));
    let (mut wal, _) = Wal::open(backend, options).expect("open");
    let per_append = allocs_per_step(WARM_UP, WAL_APPENDS, |i| {
        wal.append_event(&reading(i)).expect("append");
        if i % 2 == 1 {
            wal.flush().expect("flush");
        }
    });
    assert!(
        per_append <= 0.05,
        "durable append path: {per_append:.2} allocations per append, budget 0.05"
    );
}

/// Ring messages per coalesced frame on the relay path.
const RINGS_PER_FRAME: u64 = 2;

/// One process relaying Gapless ring messages, as its runtime does:
/// one reused inbox, one action buffer traded with the gate, one
/// writer pool.
struct Relay {
    me: ProcessId,
    gapless: GaplessState,
    gate: DurableGate,
    inbox: Vec<PeerMsg>,
    actions: Vec<Action>,
    pool: WriterPool,
    delivered: u64,
    relayed: u64,
}

impl Relay {
    fn new(storage: Option<(Arc<dyn StorageBackend>, WalOptions)>) -> Self {
        let me = ProcessId(1);
        let (gate, _) = DurableGate::open(storage, &Recorder::new());
        Self {
            me,
            gapless: GaplessState::new(me, 100_000),
            gate,
            inbox: Vec::new(),
            actions: Vec::new(),
            pool: WriterPool::new(),
            delivered: 0,
            relayed: 0,
        }
    }

    /// Applies what the gate released and keeps the emptied buffer.
    fn apply(&mut self, released: Released) {
        let delivered = &mut self.delivered;
        self.actions = released.apply(|action| match action {
            Action::Deliver { .. } => *delivered += 1,
            other => panic!("a relay's gate holds deliveries only, got {other:?}"),
        });
    }

    /// Handles the ring messages of the frame decoded into the inbox.
    fn hop(&mut self, now: Time) {
        let view: ProcSet = (0..5).map(ProcessId).collect();
        let successor = view.successor_of(self.me);
        let mut inbox = std::mem::take(&mut self.inbox);
        for msg in inbox.drain(..) {
            let PeerMsg::Ring(ring) = msg else {
                panic!("a ring frame holds ring messages")
            };
            let out = self
                .gapless
                .on_ring(ring, view, successor, &mut self.actions);
            // A relay's copies: no app here waits on them.
            let actions = std::mem::take(&mut self.actions);
            let released = self.gate.admit(now, actions, false, |_| false);
            self.apply(released);
            if let Some(Action::Ring { ring, .. }) = out.relay {
                drop(self.pool.encode(&ring));
                self.relayed += 1;
            }
        }
        self.inbox = inbox;
    }
}

#[test]
fn a_gapless_relay_hop_does_not_allocate() {
    // p1 of a five-process home relays what p0 ingested from two
    // sensors, two rings to a frame: decode into the reused inbox,
    // `on_ring`, the gate, the relay's pooled encode. The volatile home
    // releases at once; the durable one appends every delivery and
    // releases on a flush every other frame, as its timer would. The
    // store is collected behind a window, as the keep-alive's processed
    // watermarks collect it. With two decoded member `Vec`s per
    // message, a fresh action vector per hop and a gate that gave its
    // withheld buffer away at each release, the hop read 3.00 volatile
    // and 3.25 durable.
    let frames: Vec<_> = (0..2 * WARM_UP + COUNTED)
        .map(|seq| {
            let parts = [SensorId(0), SensorId(1)].map(|sensor| {
                let at = Time::from_millis(seq);
                RingMsg {
                    event: Event::new(EventId::new(sensor, seq), EventKind::Motion, at),
                    seen: ProcSet::singleton(ProcessId(0)),
                    need: (0..5).map(ProcessId).collect(),
                }
                .to_bytes()
            });
            Frame::encode_parts(&mut WireWriter::new(), &parts)
        })
        .collect();
    let durable = WalOptions {
        flush_policy: FlushPolicy::EveryInterval(Duration::from_millis(3)),
        ..WalOptions::default()
    };
    let backend: Arc<dyn StorageBackend> = Arc::new(SimBackend::new(42));
    for (home, storage) in [("volatile", None), ("durable", Some((backend, durable)))] {
        let mut relay = Relay::new(storage);
        let per_frame = allocs_per_step(2 * WARM_UP, COUNTED, |seq| {
            let now = Time::from_millis(seq);
            Frame::decode_shared_into(&frames[seq as usize], &mut relay.inbox)
                .expect("a well-formed frame");
            relay.hop(now);
            if seq % 2 == 1 {
                let released = relay.gate.flush(now, std::mem::take(&mut relay.actions));
                relay.apply(released);
            }
            if seq.is_multiple_of(BEACON_EVERY) {
                let cutoff = Time::from_millis(seq.saturating_sub(WARM_UP));
                for sensor in [SensorId(0), SensorId(1)] {
                    relay
                        .gapless
                        .store_mut()
                        .prune_processed(sensor, seq, cutoff);
                }
            }
        });
        let per_hop = per_frame / RINGS_PER_FRAME as f64;
        let hops = RINGS_PER_FRAME * (2 * WARM_UP + COUNTED);
        // The last flush started at the last frame's instant; the next
        // beat, once its sync has completed, releases what it covered.
        let end = Time::from_millis(2 * WARM_UP + COUNTED);
        let released = relay.gate.flush(end, std::mem::take(&mut relay.actions));
        relay.apply(released);
        assert_eq!((relay.delivered, relay.relayed), (hops, hops), "{home}");
        assert!(
            per_hop <= 0.05,
            "{home} relay hop: {per_hop:.2} allocations per hop, budget 0.05"
        );
    }
}
