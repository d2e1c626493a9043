//! The Rivulet process: one runtime instance per host (§3.3).
//!
//! A [`RivuletProcess`] is an actor gluing every platform service
//! together: adapters decode device frames, the membership service
//! maintains the local view, the delivery service runs the Gap chain
//! and Gapless ring (with its stall flood and per-beacon anti-entropy),
//! the polling coordinator schedules poll-based sensors, and the
//! execution service elects active logic nodes and runs app runtimes.
//!
//! The actor itself is only a [`ProcessSpec`] and, once started, one
//! `Running` state whose methods are the handlers. This file owns that
//! state: how it is built (and recovered) at start-up, the periodic
//! tick, and the dispatch of messages and timers. The services live
//! beside it, one file each — `delivery` (ingest, peer protocol, the
//! path through the durability gate), `exec` (election, app routing,
//! actuation), `polling` (epoch, slot and re-poll timers), `routines`
//! (routine coordinator) and `outbox` (encode-once sends, coalesced per
//! activation).
//!
//! By default all state is volatile: a crash loses it, and a recovered
//! process is rebuilt from its (re-invoked) factory, re-joining via
//! keep-alives and receiving missed events through anti-entropy — the
//! crash-recovery model of §3.1. With a [`DurabilitySpec`] attached,
//! the process additionally appends every replicated event and
//! periodic operator checkpoints to a write-ahead log
//! ([`rivulet_storage::Wal`]) and withholds local delivery, the
//! holdings it advertises, floods, and the ingest process's first ring
//! forward until the append is durable ([`crate::gating::DurableGate`];
//! ring relays do not wait — DESIGN §4.2); recovery then restores the
//! event store, holdings and processed watermarks from the log instead
//! of relying solely on peers.

mod delivery;
mod exec;
mod outbox;
mod polling;
mod routines;

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use rivulet_devices::frame::RadioFrame;
use rivulet_net::actor::{Actor, ActorEvent, ActorId, Context};
use rivulet_net::metrics::FanoutStats;
use rivulet_obs::Recorder;
use rivulet_storage::{StorageBackend, WalOptions};
use rivulet_types::wire::{Wire, WriterPool};
use rivulet_types::{CommandId, Duration, OperatorId, ProcSet, ProcessId, SensorId, Time};

use crate::app::{AppRuntime, AppSpec, StreamKey};
use crate::config::RivuletConfig;
use crate::delivery::gapless::GaplessState;
use crate::delivery::polling::{PollPlan, PollState};
use crate::delivery::{Action, Delivery};
use crate::deploy::{DirectoryData, SensorEntry};
use crate::execution::placement;
use crate::gating::DurableGate;
use crate::holdings::Holdings;
use crate::membership::{Membership, KEEPALIVE_INTERVAL};
use crate::messages::{Frame, PeerMsg, ProcMsg};
use crate::probe::{AppProbe, IngestProbe, StoreProbe};
use crate::repair::HealthModel;
use crate::routine::{RoutineEngine, RoutineProbe, RoutineSpec};

use outbox::Outbox;

const TOKEN_TICK: u64 = 1;
const TOKEN_FLUSH: u64 = 2;
const TOKEN_CHECKPOINT: u64 = 3;
const TOKEN_SYNC: u64 = 4;
const KIND_EPOCH: u64 = 2;
const KIND_SLOT: u64 = 3;
const KIND_REPOLL: u64 = 4;
const KIND_WINDOW: u64 = 5;
const KIND_ROUTINE: u64 = 6;

/// Cap on events retained per sensor in the replication store; oldest
/// events are evicted first. Home-scale memory bound.
const STORE_CAP_PER_SENSOR: usize = 100_000;

/// Processed events younger than this are retained so straggling
/// duplicate copies still deduplicate against the store.
const GC_STRAGGLER_HORIZON: Duration = Duration::from_secs(30);

fn token(kind: u64, idx: u32) -> u64 {
    (kind << 32) | u64::from(idx)
}

/// Raises the watermark under `key` to `to`; watermarks never move
/// back.
fn advance<K: Ord>(marks: &mut BTreeMap<K, u64>, key: K, to: u64) {
    let mark = marks.entry(key).or_insert(0);
    *mark = (*mark).max(to);
}

/// Durable-storage attachment for one process: the backend outlives
/// crashes (it is cloned into the factory as an `Arc`), so a recovered
/// incarnation reopens the same log.
#[derive(Clone)]
pub struct DurabilitySpec {
    /// Where segments live (a real directory or a simulated disk).
    pub backend: Arc<dyn StorageBackend>,
    /// WAL tuning: flush policy and segment size.
    pub options: WalOptions,
    /// How often the process checkpoints processed watermarks and
    /// compacts fully-acked segments.
    pub checkpoint_interval: Duration,
}

impl std::fmt::Debug for DurabilitySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurabilitySpec")
            .field("options", &self.options)
            .field("checkpoint_interval", &self.checkpoint_interval)
            .finish_non_exhaustive()
    }
}

/// Static description used to construct a process actor (shared by the
/// factory so crash–recovery rebuilds an identical fresh process).
#[derive(Clone)]
pub struct ProcessSpec {
    /// The process identity.
    pub pid: ProcessId,
    /// Platform configuration.
    pub config: RivuletConfig,
    /// Applications deployed home-wide (every process knows all apps;
    /// active/shadow roles are decided by the execution service).
    pub apps: Vec<(Arc<AppSpec>, Arc<AppProbe>)>,
    /// The shared deployment directory, complete before any actor
    /// exists.
    pub directory: Arc<DirectoryData>,
    /// Optional durable storage; `None` keeps the paper's all-volatile
    /// model.
    pub storage: Option<DurabilitySpec>,
    /// Optional store-residency probe sampled on every tick.
    pub store_probe: Option<Arc<StoreProbe>>,
    /// Optional radio-ingest probe recorded on every sensor event.
    pub ingest_probe: Option<Arc<IngestProbe>>,
    /// Shared counters for encode-once / coalescing savings, reported
    /// through the driver's net metrics.
    pub fanout: Arc<FanoutStats>,
    /// Unified observability handle (cloned from the driver); disabled
    /// recorders make every record call a no-op.
    pub obs: Recorder,
    /// Routines deployed home-wide (every process knows all routines;
    /// the coordinator is the active logic node whose operator triggers
    /// the firing). Ignored unless [`RivuletConfig::routines`] is on.
    pub routines: Vec<(Arc<RoutineSpec>, Arc<RoutineProbe>)>,
}

impl std::fmt::Debug for ProcessSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessSpec")
            .field("pid", &self.pid)
            .field("apps", &self.apps.len())
            .finish_non_exhaustive()
    }
}

struct SensorRt {
    reachers: ProcSet,
    delivery: Delivery,
    poll: Option<PollRt>,
    subscribed_apps: Vec<usize>,
}

struct PollRt {
    state: PollState,
    participates: bool,
}

impl SensorRt {
    /// A sensor is delivered with the strongest guarantee any app input
    /// wiring it asks for (Gapless over Gap), whatever order the apps
    /// were added in; its polling plan comes from an input asking for
    /// that guarantee (the last one wins).
    fn wire(entry: &SensorEntry, me: ProcessId, apps: &[(Arc<AppSpec>, Arc<AppProbe>)]) -> Self {
        let inputs = || {
            let inputs = apps.iter().enumerate().flat_map(|(idx, (app, _))| {
                let inputs = app.operators.iter().flat_map(|op| &op.inputs);
                inputs.map(move |input| (idx, input))
            });
            inputs.filter(|(_, input)| input.sensor == entry.id)
        };
        let strongest = inputs().map(|(_, input)| input.delivery).max();
        let delivery = strongest.unwrap_or(Delivery::Gapless);
        let mut subscribed_apps: Vec<usize> = inputs().map(|(idx, _)| idx).collect();
        subscribed_apps.dedup();
        let slot = entry.reachers.iter().position(|p| *p == me);
        let wanted = inputs().filter(|(_, input)| input.delivery == delivery);
        let poll = wanted
            .filter_map(|(_, input)| {
                let spec = input.poll.as_ref()?;
                let plan = PollPlan {
                    sensor: entry.id,
                    epoch: spec.epoch,
                    poll_latency: entry.poll_latency?,
                    strategy: spec.effective_strategy(delivery),
                };
                Some(PollRt {
                    state: PollState::new(plan, slot?, entry.reachers.len()),
                    participates: false,
                })
            })
            .next_back();
        Self {
            reachers: entry.reachers.iter().copied().collect(),
            delivery,
            poll,
            subscribed_apps,
        }
    }
}

struct AppRt {
    spec: Arc<AppSpec>,
    probe: Arc<AppProbe>,
    /// The placement chain (position 0 = preferred host).
    chain: Vec<ProcessId>,
    /// The active logic node, present exactly while this process runs
    /// the app; a shadow holds `None`.
    runtime: Option<AppRuntime>,
    /// Stale-drop count already copied into the probe.
    stale_reported: u64,
}

/// The id budget of one start: per operator, it may mint this many ids
/// per microsecond it runs before the next start's ids could meet its
/// own.
const IDS_PER_MICROSECOND: u64 = 1 << 12;

/// The per-operator command sequences of this process — the only place
/// a [`CommandId`] is minted, and a routine instance (the `seq` of an id
/// minted under a reserved operator). Actuators dedup by id and keep
/// each instance's outcome, so neither may come back, across restarts
/// either. Every sequence starts at the start instant in µs ×
/// [`IDS_PER_MICROSECOND`]: 0 at a home's first start, and above every
/// id an earlier start minted unless that start minted more than 2^12
/// per operator per µs it ran (DESIGN §4.7). The start
/// instant is the driver's clock, so this holds within one driver run:
/// a WAL reopened under a new driver, whose clock starts again at 0,
/// may see ids its ledger already holds.
struct CommandIds {
    me: ProcessId,
    base: u64,
    next: BTreeMap<OperatorId, u64>,
}

impl CommandIds {
    /// # Panics
    ///
    /// Panics on a start instant past 2^52 µs (≈ 142 years), where the
    /// base would wrap below ids already minted.
    fn new(me: ProcessId, start: Time) -> Self {
        let base = start.as_micros().checked_mul(IDS_PER_MICROSECOND);
        Self {
            me,
            base: base.expect("command-id base overflow"),
            next: BTreeMap::new(),
        }
    }

    fn mint(&mut self, operator: OperatorId) -> CommandId {
        let seq = self.next.entry(operator).or_insert(self.base);
        let id = CommandId::new(self.me, operator, *seq);
        *seq += 1;
        id
    }
}

/// Everything a started process holds. Handlers are methods on this
/// state; [`RivuletProcess`] reaches it through one `Option`.
struct Running {
    me: ProcessId,
    config: RivuletConfig,
    obs: Recorder,
    store_probe: Option<Arc<StoreProbe>>,
    ingest_probe: Option<Arc<IngestProbe>>,
    checkpoint_interval: Option<Duration>,
    membership: Membership,
    gapless: GaplessState,
    apps: Vec<AppRt>,
    /// Ordered, like every map below that is iterated: timer sequence
    /// numbers and RNG draws are handed out in iteration order, and a
    /// seeded run must repeat them exactly.
    sensors: BTreeMap<SensorId, SensorRt>,
    /// The deployment directory, read in place: peers, devices and who
    /// adapts each.
    directory: Arc<DirectoryData>,
    /// Radio frames to actuators are encoded into recycled buffers,
    /// like the outbox's protocol messages.
    radio_pool: WriterPool,
    /// Processed watermarks learned from peers' keep-alives, merged
    /// with our own processing. Lent to each keep-alive and taken back.
    processed: BTreeMap<SensorId, u64>,
    /// What this process durably holds of each sensor, noted only
    /// after the durability gate. Lent to each keep-alive as the sync
    /// query and taken back.
    holdings: Holdings,
    window_timers: Vec<(usize, OperatorId, StreamKey, Duration)>,
    command_ids: CommandIds,
    /// The write-ahead log (when durable storage is attached) and the
    /// delivery-service actions waiting on it.
    gate: DurableGate,
    /// Per-activation send queue, flushed (and coalesced) at the end of
    /// every actor activation.
    outbox: Outbox,
    /// The messages of the frame being dispatched, kept across
    /// activations so decoding a frame allocates nothing once warm.
    inbox: Vec<PeerMsg>,
    /// The delivery-service actions of the input being handled, on their
    /// way through the durability gate; empty between inputs. It and the
    /// gate's withheld buffer trade places at each release, so neither
    /// is allocated per event.
    actions: Vec<Action>,
    /// Device-fault health model; `None` unless
    /// [`RivuletConfig::repair`] is on, in which case delivered
    /// readings are health-checked (stuck/outlier detection,
    /// peer-midpoint substitution, quarantine) and stalled pollable
    /// sensors are re-polled from the tick.
    repair: Option<HealthModel>,
    /// Routine execution engine; `None` unless
    /// [`RivuletConfig::routines`] is on, in which case
    /// [`crate::app::OpOutput::RunRoutine`] triggers staged
    /// all-or-nothing multi-actuator firings recorded in the
    /// hash-chained ledger.
    routines: Option<RoutineEngine>,
}

/// The Rivulet process actor.
pub struct RivuletProcess {
    spec: ProcessSpec,
    running: Option<Running>,
}

impl std::fmt::Debug for RivuletProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RivuletProcess")
            .field("pid", &self.spec.pid)
            .field("initialized", &self.running.is_some())
            .finish()
    }
}

impl RivuletProcess {
    /// Creates an uninitialized process; full initialization happens on
    /// [`ActorEvent::Start`], in whichever incarnation receives it.
    #[must_use]
    pub fn new(spec: ProcessSpec) -> Self {
        Self {
            spec,
            running: None,
        }
    }
}

impl Running {
    /// Builds the running state from the deployment directory and
    /// whatever the log holds, then starts the periodic work.
    fn start(spec: &ProcessSpec, ctx: &mut Context<'_>) -> Self {
        let dir = &spec.directory;
        let me = spec.pid;
        let peers: Vec<ProcessId> = dir.processes.iter().map(|(p, _)| *p).collect();

        // Placement chains are computed from the directory's static
        // reachability — identically at every process (§7).
        let reach: Vec<placement::Reachability> = peers
            .iter()
            .map(|p| {
                let sensors = dir.sensors.iter().filter(|s| s.reachers.contains(p));
                let actuators = dir.actuators.iter().filter(|a| a.reachers.contains(p));
                placement::Reachability::new(
                    *p,
                    sensors.map(|s| s.id).collect(),
                    actuators.map(|a| a.id).collect(),
                )
            })
            .collect();

        let mut apps = Vec::new();
        let mut window_timers = Vec::new();
        for (idx, (app, probe)) in spec.apps.iter().enumerate() {
            let chain = placement::chain_for(&reach, &app.sensors(), &app.actuators());
            let timers = app.timer_streams().into_iter();
            window_timers.extend(timers.map(|(op, stream, period)| (idx, op, stream, period)));
            apps.push(AppRt {
                spec: Arc::clone(app),
                probe: Arc::clone(probe),
                chain,
                runtime: None,
                stale_reported: 0,
            });
        }

        // Open the WAL (if storage is attached) and recover the
        // durable prefix: events re-enter the replicated store
        // silently (no delivery, no ring traffic — peers already saw
        // them) and the newest checkpoint seeds the processed
        // watermarks, so a later promotion replays only the suffix
        // beyond the checkpoint.
        let storage = spec.storage.as_ref();
        let (gate, recovered) = DurableGate::open(
            storage.map(|d| (Arc::clone(&d.backend), d.options)),
            &spec.obs,
        );
        let mut gapless = GaplessState::new(me, STORE_CAP_PER_SENSOR);
        let mut processed = BTreeMap::new();
        for (sensor, seq) in recovered.checkpoint.into_iter().flat_map(|c| c.processed) {
            advance(&mut processed, sensor, seq);
        }
        // Recovered events are already durable: advertise them, and what
        // the log lacks, so the next sync fills it.
        let holdings: Holdings = recovered.events.iter().map(|e| e.id).collect();
        for event in recovered.events {
            gapless.store_mut().insert(event);
        }

        // Rebuild the routine engine and classify every ledger instance
        // the crash left unresolved: committed firings re-drive their
        // idempotent commit, interrupted stagings abort and compensate
        // (`replay_routine_recovery`, once the state exists).
        let mut routines = spec
            .config
            .routines
            .then(|| RoutineEngine::new(me, spec.config.routine_ledger_seed, &spec.routines));
        let mut routine_recovery = Vec::new();
        if let Some(engine) = routines.as_mut() {
            if !recovered.ledger.is_empty() {
                let entries = recovered.ledger.len() as u64;
                spec.obs.add("ledger.recovered_entries", entries);
                routine_recovery = engine.recover(&recovered.ledger, ctx.now());
            }
        }

        let app_specs: Vec<Arc<AppSpec>> = spec.apps.iter().map(|(s, _)| Arc::clone(s)).collect();
        let mut run = Self {
            me,
            config: spec.config.clone(),
            obs: spec.obs.clone(),
            store_probe: spec.store_probe.clone(),
            ingest_probe: spec.ingest_probe.clone(),
            checkpoint_interval: storage.map(|d| d.checkpoint_interval),
            membership: Membership::new(me, &peers, spec.config.failure_timeout, ctx.now()),
            gapless,
            apps,
            sensors: dir
                .sensors
                .iter()
                .map(|entry| (entry.id, SensorRt::wire(entry, me, &spec.apps)))
                .collect(),
            directory: Arc::clone(dir),
            radio_pool: WriterPool::new(),
            processed,
            holdings,
            window_timers,
            command_ids: CommandIds::new(me, ctx.now()),
            gate,
            outbox: Outbox::new(Arc::clone(&spec.fanout)),
            inbox: Vec::new(),
            actions: Vec::new(),
            repair: spec
                .config
                .repair
                .then(|| HealthModel::from_apps(&app_specs, spec.obs.clone())),
            routines,
        };

        // Drive the recovery verdicts now that the state exists:
        // re-send idempotent commits, abort-and-compensate interrupted
        // stagings (their fresh `Aborted` entries go through the WAL
        // first).
        run.replay_routine_recovery(ctx, routine_recovery);

        // Arm the durability timers: the group-commit beat and the
        // checkpoint cadence.
        if let Some(period) = run.gate.flush_interval() {
            ctx.set_timer(period, TOKEN_FLUSH);
        }
        if let Some(interval) = run.checkpoint_interval {
            ctx.set_timer(interval, TOKEN_CHECKPOINT);
        }

        // Kick off the periodic tick (keep-alives, failure detection,
        // election) and polling epochs.
        run.tick(ctx);
        let polled = run.sensors.iter().filter(|(_, s)| s.poll.is_some());
        for sensor in polled.map(|(id, _)| *id).collect::<Vec<_>>() {
            run.epoch_boundary(ctx, sensor);
        }
        run
    }

    /// The periodic tick: garbage collection, keep-alives, election.
    fn tick(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        // Watermark garbage collection: events processed home-wide
        // and older than the straggler horizon will never be
        // replayed or synced again, and neither will the holes below
        // them. (`Duration` subtraction saturates at zero.)
        let cutoff = Time::ZERO + (now.duration_since(Time::ZERO) - GC_STRAGGLER_HORIZON);
        for (&sensor, &upto) in &self.processed {
            let store = self.gapless.store_mut();
            if let Some(removed) = store.prune_processed(sensor, upto, cutoff) {
                self.holdings.forgive(sensor, removed);
            }
        }
        // Keep-alives go to every configured peer, not just the
        // view: a healed partition must be able to un-suspect. One
        // fan-out: the beacon is encoded once and cheap-cloned to
        // every destination. The processed watermarks that bounded
        // the collection above ride it, and the view and holdings the
        // predecessor it names answers. Both maps are lent to the
        // beacon and taken back, so a beacon copies neither.
        let beacon = ProcMsg::KeepAlive {
            from: self.me,
            view: self.membership.mutual_view(now),
            processed: std::mem::take(&mut self.processed),
            received: std::mem::take(&mut self.holdings),
        };
        self.send_fanout(self.membership.peers(), &beacon);
        if let ProcMsg::KeepAlive {
            processed,
            received,
            ..
        } = beacon
        {
            (self.processed, self.holdings) = (processed, received);
        }
        if let Some(probe) = &self.store_probe {
            probe.record_len(now, self.me, self.gapless.store().len());
        }
        self.obs
            .observe("store.len", self.gapless.store().len() as u64);
        self.election(ctx);
        self.repair_tick(ctx);
        ctx.set_timer(KEEPALIVE_INTERVAL, TOKEN_TICK);
    }

    /// A message arrived: a protocol message (or frame of them) from a
    /// peer process, or a radio frame from a device.
    fn on_message(&mut self, ctx: &mut Context<'_>, from: ActorId, payload: &Bytes) {
        if self.directory.is_process(from) {
            // First-byte dispatch: the frame tag is disjoint from
            // every `ProcMsg` tag. Decoding from the shared buffer
            // keeps event payload blobs zero-copy.
            if Frame::sniff(payload) {
                let mut msgs = std::mem::take(&mut self.inbox);
                if Frame::decode_shared_into(payload, &mut msgs).is_ok() {
                    for msg in msgs.drain(..) {
                        self.on_peer_msg(ctx, msg);
                    }
                }
                self.inbox = msgs;
            } else if let Ok(msg) = PeerMsg::from_shared_bytes(payload) {
                self.on_peer_msg(ctx, msg);
            }
        } else if let Ok(frame) = RadioFrame::from_shared_bytes(payload) {
            match frame {
                RadioFrame::Event(event) => self.on_sensor_event(ctx, event),
                RadioFrame::StageAck {
                    routine,
                    instance,
                    step,
                    accepted,
                } => self.on_stage_ack(ctx, routine, instance, step, accepted),
                // Acknowledgements are observable via the actuator
                // probe; devices never send the rest to processes.
                RadioFrame::ActuateAck { .. }
                | RadioFrame::PollRequest { .. }
                | RadioFrame::Actuate(_)
                | RadioFrame::Stage { .. }
                | RadioFrame::CommitRoutine { .. }
                | RadioFrame::AbortRoutine { .. } => {}
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, t: u64) {
        match (t >> 32, t & 0xffff_ffff) {
            (0, TOKEN_TICK) => self.tick(ctx),
            (0, TOKEN_FLUSH) => {
                let released = self
                    .gate
                    .flush(ctx.now(), std::mem::take(&mut self.actions));
                self.apply_actions(ctx, released);
                if let Some(period) = self.gate.flush_interval() {
                    ctx.set_timer(period, TOKEN_FLUSH);
                }
            }
            (0, TOKEN_SYNC) => {
                let spare = std::mem::take(&mut self.actions);
                let released = self.gate.on_sync(ctx.now(), spare);
                self.apply_actions(ctx, released);
            }
            (0, TOKEN_CHECKPOINT) => {
                let spare = std::mem::take(&mut self.actions);
                let released = self.gate.checkpoint(ctx.now(), &self.processed, spare);
                self.apply_actions(ctx, released);
                if let Some(interval) = self.checkpoint_interval {
                    ctx.set_timer(interval, TOKEN_CHECKPOINT);
                }
            }
            (KIND_EPOCH, s) => self.epoch_boundary(ctx, SensorId(s as u32)),
            (KIND_SLOT, s) => self.slot_fired(ctx, SensorId(s as u32)),
            (KIND_REPOLL, s) => self.repoll_fired(ctx, SensorId(s as u32)),
            (KIND_WINDOW, i) => self.window_fired(ctx, i as usize),
            (KIND_ROUTINE, i) => self.routine_timeout_fired(ctx, i),
            _ => {}
        }
    }
}

impl Actor for RivuletProcess {
    fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent) {
        if matches!(event, ActorEvent::Start) {
            self.running = Some(Running::start(&self.spec, ctx));
        }
        // A message or timer that races ahead of Start finds nothing to
        // run on and is dropped.
        let Some(run) = self.running.as_mut() else {
            return;
        };
        match event {
            ActorEvent::Start => {}
            ActorEvent::Message { from, payload } => run.on_message(ctx, from, &payload),
            ActorEvent::Timer { token } => run.on_timer(ctx, token),
        }
        // Everything queued during this activation goes out now, with
        // same-destination messages coalesced into frames. A flush the
        // activation started reaches the disk with all of its appends,
        // and gets a completion timer when the gate asks for one.
        run.flush_outbox(ctx);
        if let Some(at) = run.gate.end_turn() {
            ctx.set_timer(at.duration_since(ctx.now()), TOKEN_SYNC);
        }
    }
}
