//! The Rivulet process: one runtime instance per host (§3.3).
//!
//! A [`RivuletProcess`] is an actor gluing every platform service
//! together: adapters decode device frames, the membership service
//! maintains the local view, the delivery service runs the Gap chain
//! and Gapless ring (with reliable-broadcast fallback and anti-entropy),
//! the polling coordinator schedules poll-based sensors, and the
//! execution service elects active logic nodes and runs app runtimes.
//!
//! By default all state is volatile: a crash loses it, and a recovered
//! process is rebuilt from its (re-invoked) factory, re-joining via
//! keep-alives and receiving missed events through anti-entropy — the
//! crash-recovery model of §3.1. With a [`DurabilitySpec`] attached,
//! the process additionally appends every replicated event and
//! periodic operator checkpoints to a write-ahead log
//! ([`rivulet_storage::Wal`]) and withholds ring acknowledgements,
//! broadcast relays, and local delivery until the append is durable;
//! recovery then restores the event store and processed watermarks
//! from the log instead of relying solely on peers.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use bytes::Bytes;
use rivulet_devices::frame::RadioFrame;
use rivulet_net::actor::{Actor, ActorEvent, ActorId, Context};
use rivulet_net::metrics::FanoutStats;
use rivulet_obs::Recorder;
use rivulet_types::wire::{Wire, WriterPool};
use rivulet_types::{
    ArenaStats, Command, CommandId, Duration, Event, OperatorId, ProcessId, RoutineId, SensorId,
    Time,
};

use crate::app::{AppRuntime, AppSpec, OpOutput, StreamKey};
use crate::config::{AckMode, RivuletConfig};
use crate::delivery::gap::{self, GapRole};
use crate::delivery::gapless::GaplessState;
use crate::delivery::polling::{PollState, PollStrategy};
use crate::delivery::rbcast::RbcastState;
use crate::delivery::{Action, Delivery};
use crate::deploy::{Directory, DirectoryData};
use crate::execution::{placement, ExecutionState, Transition};
use crate::gating::AdaptiveGate;
use crate::membership::Membership;
use crate::messages::{Frame, ProcMsg};
use crate::probe::{AppProbe, DeliveryRecord, StoreProbe};
use crate::repair::{HealthModel, RepairCounts, RepairVerdict};
use crate::routine::{
    AbortPlan, AckOutcome, RecoveryAction, RoutineEngine, RoutineProbe, RoutineSpec,
};
use rivulet_storage::{Checkpoint, FlushPolicy, LedgerEntry, StorageBackend, Wal, WalOptions};

const TOKEN_INIT_RETRY: u64 = 0;
const TOKEN_TICK: u64 = 1;
const TOKEN_FLUSH: u64 = 2;
const TOKEN_CHECKPOINT: u64 = 3;
const KIND_EPOCH: u64 = 2;
const KIND_SLOT: u64 = 3;
const KIND_REPOLL: u64 = 4;
const KIND_WINDOW: u64 = 5;
const KIND_ROUTINE: u64 = 6;

/// Synthetic operator identity under which routine compensation
/// commands are sequenced: compensations restore declared safe states
/// after an abort and belong to no application operator.
const OP_COMPENSATION: OperatorId = OperatorId(u32::MAX);

/// Processed events younger than this are retained so straggling
/// duplicate copies still deduplicate against the store.
const GC_STRAGGLER_HORIZON: Duration = Duration::from_secs(30);

fn token(kind: u64, idx: u32) -> u64 {
    (kind << 32) | u64::from(idx)
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
    /// The shared deployment directory, filled before the drivers run.
    pub directory: Arc<Directory>,
    /// Optional durable storage; `None` keeps the paper's all-volatile
    /// model.
    pub storage: Option<DurabilitySpec>,
    /// Optional store-residency probe sampled on every tick.
    pub store_probe: Option<Arc<StoreProbe>>,
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
    device: ActorId,
    reachers: Vec<ProcessId>,
    delivery: Delivery,
    poll: Option<PollRt>,
    subscribed_apps: Vec<usize>,
}

struct PollRt {
    state: PollState,
    participates: bool,
}

struct AppRt {
    spec: Arc<AppSpec>,
    probe: Arc<AppProbe>,
    exec: ExecutionState,
    runtime: Option<AppRuntime>,
    /// Stale-drop count already copied into the probe.
    stale_reported: u64,
    /// Actor ids of suspected-dead chain predecessors whose `failover`
    /// spans this freshly-promoted node must close at its first
    /// application activity (delivery or actuation).
    pending_failover: Vec<u64>,
}

struct Initialized {
    membership: Membership,
    gapless: GaplessState,
    rbcast: RbcastState,
    apps: Vec<AppRt>,
    sensors: HashMap<SensorId, SensorRt>,
    actuators: HashMap<rivulet_types::ActuatorId, (ActorId, Vec<ProcessId>)>,
    peer_actors: BTreeMap<ProcessId, ActorId>,
    /// Processed watermarks learned from peers' keep-alives, merged
    /// with our own processing.
    processed: HashMap<SensorId, u64>,
    /// Durable-receipt watermarks: highest replicated-store seq per
    /// sensor, advanced only after the durability gate. Advertised on
    /// keep-alives as the cumulative broadcast acknowledgement.
    received_marks: HashMap<SensorId, u64>,
    window_timers: Vec<(usize, OperatorId, StreamKey, Duration)>,
    cmd_seq: HashMap<OperatorId, u64>,
    last_successor: Option<ProcessId>,
    /// The write-ahead log, when durable storage is attached.
    wal: Option<Wal>,
    /// Adaptive group-commit bound on the gated queue.
    gate: AdaptiveGate,
    /// Delivery-service actions withheld, in arrival order, until the
    /// WAL events they depend on are flushed (group commit).
    gated: Vec<Action>,
    /// Arena counters already exported to the recorder (delta basis).
    arena_reported: ArenaStats,
    /// Per-activation send queue, flushed (and coalesced) at the end of
    /// every actor activation.
    outbox: Outbox,
    /// Device-fault health model; `None` unless
    /// [`RivuletConfig::repair`] is on, in which case delivered
    /// readings are health-checked (stuck/outlier detection,
    /// peer-midpoint substitution, quarantine) and stalled pollable
    /// sensors are re-polled from the tick.
    repair: Option<HealthModel>,
    /// Routine execution engine; `None` unless
    /// [`RivuletConfig::routines`] is on, in which case
    /// [`OpOutput::RunRoutine`] triggers staged all-or-nothing
    /// multi-actuator firings recorded in the hash-chained ledger.
    routines: Option<RoutineEngine>,
}

/// Folds a repair-counter delta into the recorder. A clean delta (the
/// overwhelmingly common case) writes nothing, so healthy homes pay
/// one comparison per delivery and the obs snapshot carries no
/// `repair.*` keys at all when the layer never acted.
fn record_repair_counts(obs: &Recorder, counts: RepairCounts) {
    if counts == RepairCounts::default() {
        return;
    }
    if counts.substitutions > 0 {
        obs.add("repair.substitutions", counts.substitutions);
    }
    if counts.outlier_drops > 0 {
        obs.add("repair.outlier_drops", counts.outlier_drops);
    }
    if counts.quarantines > 0 {
        obs.add("repair.quarantines", counts.quarantines);
    }
    if counts.quarantined_drops > 0 {
        obs.add("repair.quarantined_drops", counts.quarantined_drops);
    }
    if counts.stuck_flagged > 0 {
        obs.add("repair.stuck_flagged", counts.stuck_flagged);
    }
}

/// Whether two part lists are clones of the same encodings: pointer
/// identity of live buffers implies identical bytes (both lists are
/// held alive by the caller, so an address can't be recycled).
fn same_parts(a: &[Bytes], b: &[Bytes]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.as_ptr() == y.as_ptr() && x.len() == y.len())
}

/// The per-activation send queue behind encode-once fan-out and frame
/// coalescing. Protocol messages are encoded exactly once into pooled
/// buffers; every queued entry is a cheap [`Bytes`] clone. At the end
/// of the activation, entries for the same destination are folded into
/// one multi-command [`Frame`], so a cascade of ring forwards, acks,
/// and sync traffic to one peer costs one network message. Grouping order derives purely from queue order
/// within the virtual-time activation, keeping batching deterministic.
struct Outbox {
    /// `(destination, pre-encoded message)` in queue order.
    queue: Vec<(ProcessId, Bytes)>,
    /// Scratch for per-destination grouping, reused across activations
    /// so steady-state flushing allocates nothing.
    groups: Vec<(ProcessId, Vec<Bytes>)>,
    /// Emptied part lists returned from previous flushes, recycled as
    /// the next activation's group storage.
    spare_parts: Vec<Vec<Bytes>>,
    pool: WriterPool,
    stats: Arc<FanoutStats>,
}

/// The Rivulet process actor.
pub struct RivuletProcess {
    spec: ProcessSpec,
    st: Option<Initialized>,
}

impl std::fmt::Debug for RivuletProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RivuletProcess")
            .field("pid", &self.spec.pid)
            .field("initialized", &self.st.is_some())
            .finish()
    }
}

impl RivuletProcess {
    /// Creates an uninitialized process; full initialization happens on
    /// [`ActorEvent::Start`], when the deployment directory is
    /// guaranteed to be filled.
    #[must_use]
    pub fn new(spec: ProcessSpec) -> Self {
        Self { spec, st: None }
    }

    fn me(&self) -> ProcessId {
        self.spec.pid
    }

    fn initialize(&mut self, ctx: &mut Context<'_>) {
        // Under the live driver, Start can race directory publication;
        // retry shortly (the simulator publishes before running, so the
        // retry path never triggers there).
        let dir: DirectoryData = match self.spec.directory.try_get() {
            Some(d) => d.clone(),
            None => {
                ctx.set_timer(Duration::from_millis(10), TOKEN_INIT_RETRY);
                return;
            }
        };
        let dir = &dir;
        let me = self.me();
        let peers: Vec<ProcessId> = dir.processes.iter().map(|(p, _)| *p).collect();
        let peer_actors: BTreeMap<ProcessId, ActorId> = dir.processes.iter().copied().collect();
        let membership = Membership::new(me, &peers, self.spec.config.failure_timeout, ctx.now());

        // Placement chains are computed from the directory's static
        // reachability — identically at every process (§7).
        let reach: Vec<placement::Reachability> = peers
            .iter()
            .map(|p| {
                placement::Reachability::new(
                    *p,
                    dir.sensors
                        .iter()
                        .filter(|s| s.reachers.contains(p))
                        .map(|s| s.id)
                        .collect(),
                    dir.actuators
                        .iter()
                        .filter(|a| a.reachers.contains(p))
                        .map(|a| a.id)
                        .collect(),
                )
            })
            .collect();

        let mut apps = Vec::new();
        let mut window_timers = Vec::new();
        for (idx, (spec, probe)) in self.spec.apps.iter().enumerate() {
            let chain = placement::chain_for(&reach, &spec.sensors(), &spec.actuators());
            let exec = ExecutionState::new(me, chain);
            // Window timer inventory comes from a throwaway runtime.
            let rt = AppRuntime::new(Arc::clone(spec)).expect("validated app");
            for (op, stream, period) in rt.timer_streams() {
                window_timers.push((idx, op, stream, period));
            }
            apps.push(AppRt {
                spec: Arc::clone(spec),
                probe: Arc::clone(probe),
                exec,
                runtime: None,
                stale_reported: 0,
                pending_failover: Vec::new(),
            });
        }

        // Sensor runtime info: delivery guarantee and polling plan are
        // taken from the first app input wiring each sensor.
        let mut sensors: HashMap<SensorId, SensorRt> = HashMap::new();
        for entry in &dir.sensors {
            let mut delivery = Delivery::Gapless;
            let mut poll = None;
            let mut subscribed_apps = Vec::new();
            for (idx, (app, _)) in self.spec.apps.iter().enumerate() {
                for op in &app.operators {
                    for input in &op.inputs {
                        if input.sensor != entry.id {
                            continue;
                        }
                        if !subscribed_apps.contains(&idx) {
                            subscribed_apps.push(idx);
                        }
                        delivery = input.delivery;
                        if let (Some(spec_poll), true, Some(latency)) = (
                            input.poll.as_ref(),
                            entry.reachers.contains(&me),
                            entry.poll_latency,
                        ) {
                            let strategy = spec_poll.effective_strategy(input.delivery);
                            let slot = entry
                                .reachers
                                .iter()
                                .position(|p| *p == me)
                                .expect("me is a reacher");
                            poll = Some(PollRt {
                                state: PollState::new(
                                    crate::delivery::polling::PollPlan {
                                        sensor: entry.id,
                                        epoch: spec_poll.epoch,
                                        poll_latency: latency,
                                        strategy,
                                    },
                                    slot,
                                    entry.reachers.len(),
                                ),
                                participates: false,
                            });
                        }
                    }
                }
            }
            sensors.insert(
                entry.id,
                SensorRt {
                    device: entry.actor,
                    reachers: entry.reachers.clone(),
                    delivery,
                    poll,
                    subscribed_apps,
                },
            );
        }

        let actuators = dir
            .actuators
            .iter()
            .map(|a| (a.id, (a.actor, a.reachers.clone())))
            .collect();

        // Open the WAL (if storage is attached) and recover the
        // durable prefix: events re-enter the replicated store
        // silently (no delivery, no ring traffic — peers already saw
        // them) and the newest checkpoint seeds the processed
        // watermarks, so a later promotion replays only the suffix
        // beyond the checkpoint.
        let mut gapless = GaplessState::new(
            me,
            self.spec.config.store_cap_per_sensor,
            self.spec.config.anti_entropy,
        );
        let mut processed: HashMap<SensorId, u64> = HashMap::new();
        let mut recovered_ledger: Vec<LedgerEntry> = Vec::new();
        let wal = self.spec.storage.as_ref().map(|durability| {
            let (mut wal, recovered) =
                Wal::open(Arc::clone(&durability.backend), durability.options).expect("wal open");
            wal.attach_recorder(self.spec.obs.clone());
            self.spec.obs.inc("wal.recoveries");
            self.spec
                .obs
                .add("wal.recovered_events", recovered.events.len() as u64);
            self.spec
                .obs
                .add("wal.recovery_dropped_bytes", recovered.dropped_bytes as u64);
            if let Some(checkpoint) = recovered.checkpoint {
                for (sensor, seq) in checkpoint.processed {
                    let mark = processed.entry(sensor).or_insert(0);
                    *mark = (*mark).max(seq);
                }
            }
            for event in recovered.events {
                gapless.store_mut().insert(event);
            }
            recovered_ledger = recovered.ledger;
            wal
        });

        // Rebuild the routine engine and classify every ledger instance
        // the crash left unresolved: committed firings re-drive their
        // idempotent commit, interrupted stagings abort (and compensate
        // once `st` is in place — see `replay_routine_recovery`).
        let mut routines =
            self.spec.config.routines.then(|| {
                RoutineEngine::new(self.spec.config.routine_ledger_seed, &self.spec.routines)
            });
        let mut routine_recovery: Vec<RecoveryAction> = Vec::new();
        if let Some(engine) = routines.as_mut() {
            if !recovered_ledger.is_empty() {
                self.spec
                    .obs
                    .add("ledger.recovered_entries", recovered_ledger.len() as u64);
                routine_recovery = engine.recover(&recovered_ledger, ctx.now());
            }
        }
        // Recovered events are already durable: re-advertise their
        // receipt watermarks so peers' pending broadcasts retire.
        let received_marks: HashMap<SensorId, u64> = gapless.store().iter_watermarks().collect();

        // Command sequence counters must resume past every id the
        // ledger proves was already issued: actuators dedup by
        // `CommandId`, so a reused (operator, seq) pair after a crash
        // would be silently suppressed as a pre-crash duplicate.
        let mut cmd_seq: HashMap<OperatorId, u64> = HashMap::new();
        for entry in &recovered_ledger {
            for (_, cmd) in &entry.commands {
                if cmd.issuer == me {
                    let floor = cmd_seq.entry(cmd.operator).or_insert(0);
                    *floor = (*floor).max(cmd.seq + 1);
                }
            }
        }

        self.st = Some(Initialized {
            membership,
            gapless,
            // Floods retransmit at the keep-alive-scale interval;
            // tracked ring-origin entries get the failure timeout as
            // grace, so healthy runs always retire them via beacon
            // watermarks before any fallback flood fires.
            rbcast: RbcastState::new(me).with_timing(
                self.spec.config.rbcast_retransmit,
                self.spec.config.failure_timeout,
            ),
            apps,
            sensors,
            actuators,
            peer_actors,
            processed,
            received_marks,
            window_timers,
            cmd_seq,
            last_successor: None,
            wal,
            gate: AdaptiveGate::default(),
            gated: Vec::new(),
            arena_reported: ArenaStats::default(),
            outbox: Outbox {
                queue: Vec::new(),
                groups: Vec::new(),
                spare_parts: Vec::new(),
                pool: WriterPool::new(),
                stats: Arc::clone(&self.spec.fanout),
            },
            repair: self.spec.config.repair.then(|| {
                let specs: Vec<Arc<AppSpec>> =
                    self.spec.apps.iter().map(|(s, _)| Arc::clone(s)).collect();
                HealthModel::from_apps(&self.spec.config, &specs)
            }),
            routines,
        });

        // Drive the recovery verdicts now that `st` exists: re-send
        // idempotent commits, abort-and-compensate interrupted stagings
        // (their fresh `Aborted` entries go through the WAL first).
        self.replay_routine_recovery(ctx, routine_recovery);

        // Arm the durability timers: the group-commit flush interval
        // (when the policy is time-based) and the checkpoint cadence.
        if let Some(durability) = &self.spec.storage {
            if let FlushPolicy::EveryInterval(period) = durability.options.flush_policy {
                ctx.set_timer(period, TOKEN_FLUSH);
            }
            ctx.set_timer(durability.checkpoint_interval, TOKEN_CHECKPOINT);
        }

        // Kick off the periodic tick (keep-alives, failure detection,
        // election, broadcast retransmission) and polling epochs.
        self.tick(ctx);
        let sensor_ids: Vec<SensorId> = {
            let st = self.st.as_ref().expect("initialized");
            st.sensors
                .iter()
                .filter(|(_, s)| s.poll.is_some())
                .map(|(id, _)| *id)
                .collect()
        };
        for sensor in sensor_ids {
            self.epoch_boundary(ctx, sensor);
        }
    }

    /// The periodic tick: keep-alives, view maintenance, election,
    /// broadcast retransmission.
    fn tick(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let me = self.me();
        let mut actions: Vec<Action> = Vec::new();
        {
            let st = self.st.as_mut().expect("initialized");
            // The processed watermarks bound garbage collection and
            // then ride the keep-alive beacon.
            let processed: Vec<(SensorId, u64)> = {
                let mut v: Vec<(SensorId, u64)> =
                    st.processed.iter().map(|(s, q)| (*s, *q)).collect();
                v.sort_unstable_by_key(|(s, _)| *s);
                v
            };
            // Watermark garbage collection: events processed home-wide
            // and older than the straggler horizon will never be
            // replayed or synced again. Relay markers below the same
            // watermark can never be re-flooded, so they go with them.
            let horizon = now.duration_since(Time::ZERO);
            let cutoff = if horizon > GC_STRAGGLER_HORIZON {
                Time::ZERO + (horizon - GC_STRAGGLER_HORIZON)
            } else {
                Time::ZERO
            };
            for &(sensor, upto) in &processed {
                let _ = st.gapless.store_mut().prune_processed(sensor, upto, cutoff);
                st.rbcast.prune_relayed(sensor, upto);
            }
            // Keep-alives go to every configured peer, not just the
            // view: a healed partition must be able to un-suspect. One
            // fan-out action: the beacon is encoded once and
            // cheap-cloned to every destination.
            let received: Vec<(SensorId, u64)> = {
                let mut v: Vec<(SensorId, u64)> =
                    st.received_marks.iter().map(|(s, q)| (*s, *q)).collect();
                v.sort_unstable_by_key(|(s, _)| *s);
                v
            };
            let beacon_peers: Vec<ProcessId> = st
                .membership
                .peers()
                .iter()
                .copied()
                .filter(|p| *p != me)
                .collect();
            if !beacon_peers.is_empty() {
                actions.push(Action::Fanout {
                    to: beacon_peers,
                    msg: ProcMsg::KeepAlive {
                        from: me,
                        processed,
                        received,
                    },
                });
            }
            // Ring successor maintenance + anti-entropy.
            let view = st.membership.view(now);
            let successor = st.membership.successor_in(&view);
            if successor != st.last_successor {
                st.last_successor = successor;
                if let Some(action) = st.gapless.on_successor_change(successor) {
                    actions.push(action);
                }
            }
            // Reliable-broadcast retransmission (age-guarded: entries
            // whose cumulative-ack window is still open are skipped).
            actions.extend(st.rbcast.on_tick(&view, now));
            if let Some(probe) = &self.spec.store_probe {
                probe.record_len(now, me, st.gapless.store().len());
            }
            self.spec
                .obs
                .observe("store.len", st.gapless.store().len() as u64);
            self.spec
                .obs
                .observe("rbcast.pending", st.rbcast.pending_count() as u64);
            if st.wal.is_some() {
                self.spec
                    .obs
                    .set_gauge("wal.gated_bound", st.gate.bound() as i64);
            }
            let arena = st.gapless.store().arena_stats();
            if arena != st.arena_reported {
                let prev = st.arena_reported;
                self.spec
                    .obs
                    .add("arena.allocs", arena.allocs - prev.allocs);
                self.spec.obs.add("arena.bytes", arena.bytes - prev.bytes);
                self.spec
                    .obs
                    .add("arena.chunks", arena.chunks - prev.chunks);
                self.spec
                    .obs
                    .add("arena.recycled", arena.recycled - prev.recycled);
                self.spec
                    .obs
                    .add("arena.oversize", arena.oversize - prev.oversize);
                st.arena_reported = arena;
            }
        }
        self.apply_actions(ctx, actions);
        // Group-commit backstop: a partial EveryN batch (or an idle
        // interval policy) must not withhold its actions longer than
        // one keep-alive period.
        self.flush_wal(ctx);
        self.election(ctx);
        self.repair_tick(ctx);
        ctx.set_timer(self.spec.config.keepalive_interval, TOKEN_TICK);
    }

    /// Repair-layer stall check, ridden on the periodic tick: pollable
    /// sensors this process coordinates that have been silent past the
    /// stall timeout get an immediate out-of-band re-poll (rate-limited
    /// to one per timeout by the health model). No-op unless
    /// [`RivuletConfig::repair`] is on.
    fn repair_tick(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let stalled: Vec<SensorId> = {
            let st = self.st.as_mut().expect("initialized");
            let Some(health) = st.repair.as_mut() else {
                return;
            };
            let mut pollable: Vec<SensorId> = st
                .sensors
                .iter()
                .filter(|(_, rt)| rt.poll.as_ref().is_some_and(|p| p.participates))
                .map(|(id, _)| *id)
                .collect();
            pollable.sort_unstable();
            pollable
                .into_iter()
                .filter(|s| health.check_stall(*s, now))
                .collect()
        };
        for sensor in stalled {
            self.spec.obs.inc("repair.repolls");
            self.send_poll(ctx, sensor);
        }
    }

    /// Re-evaluates the election for every app, handling promotion
    /// replay and demotion teardown.
    fn election(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let me = self.me();
        let n_apps = self.st.as_ref().expect("initialized").apps.len();
        for idx in 0..n_apps {
            let transition = {
                let st = self.st.as_mut().expect("initialized");
                let membership = &st.membership;
                st.apps[idx]
                    .exec
                    .reevaluate(|p| membership.is_alive(p, now))
            };
            match transition {
                Some(Transition::Promoted) => {
                    let (spec, probe) = {
                        let st = self.st.as_ref().expect("initialized");
                        let app = &st.apps[idx];
                        (Arc::clone(&app.spec), Arc::clone(&app.probe))
                    };
                    probe.record_transition(now, me, true);
                    self.spec
                        .obs
                        .event("exec.promoted", now, u64::from(me.0), idx as u64);
                    // Failover spans opened at crash detection are
                    // closed at this node's first post-promotion app
                    // activity; remember which dead predecessors'
                    // spans we are taking over.
                    let suspected: Vec<u64> = {
                        let st = self.st.as_ref().expect("initialized");
                        let app = &st.apps[idx];
                        let chain = app.exec.chain();
                        let my_pos = chain.iter().position(|p| *p == me).unwrap_or(chain.len());
                        chain[..my_pos]
                            .iter()
                            .filter(|p| !st.membership.is_alive(**p, now))
                            .filter_map(|p| st.peer_actors.get(p))
                            .map(|a| u64::from(a.0))
                            .collect()
                    };
                    let runtime = AppRuntime::new(spec).expect("validated app");
                    {
                        let app = &mut self.st.as_mut().expect("initialized").apps[idx];
                        app.runtime = Some(runtime);
                        app.stale_reported = 0;
                        app.pending_failover = suspected;
                    }
                    // Arm this app's window timers.
                    let timers: Vec<(usize, Duration)> = {
                        let st = self.st.as_ref().expect("initialized");
                        st.window_timers
                            .iter()
                            .enumerate()
                            .filter(|(_, (a, ..))| *a == idx)
                            .map(|(i, (.., d))| (i, *d))
                            .collect()
                    };
                    for (i, period) in timers {
                        ctx.set_timer(period, token(KIND_WINDOW, i as u32));
                    }
                    self.replay_outstanding(ctx, idx);
                }
                Some(Transition::Demoted) => {
                    self.spec
                        .obs
                        .event("exec.demoted", now, u64::from(me.0), idx as u64);
                    let st = self.st.as_mut().expect("initialized");
                    st.apps[idx].runtime = None;
                    st.apps[idx].pending_failover.clear();
                    st.apps[idx].probe.record_transition(now, me, false);
                    let to_cancel: Vec<usize> = st
                        .window_timers
                        .iter()
                        .enumerate()
                        .filter(|(_, (a, ..))| *a == idx)
                        .map(|(i, _)| i)
                        .collect();
                    for i in to_cancel {
                        ctx.cancel_timer(token(KIND_WINDOW, i as u32));
                    }
                }
                None => {}
            }
        }
    }

    /// On promotion: feed replicated-but-unprocessed events (above the
    /// merged processed watermarks) into the fresh runtime, in
    /// per-sensor sequence order — this produces the Fig. 7 catch-up
    /// spike under Gapless delivery.
    fn replay_outstanding(&mut self, ctx: &mut Context<'_>, app_idx: usize) {
        let events: Vec<Event> = {
            let st = self.st.as_ref().expect("initialized");
            let spec = &st.apps[app_idx].spec;
            let mut out = Vec::new();
            for sensor in spec.sensors() {
                // Only Gapless inputs are replicated in the store.
                let after = st.processed.get(&sensor).copied();
                out.extend(st.gapless.store().events_after(sensor, after));
            }
            out
        };
        for event in events {
            self.process_at_app(ctx, app_idx, &event);
        }
    }

    /// Routes one newly known event to a specific active app runtime.
    fn process_at_app(&mut self, ctx: &mut Context<'_>, app_idx: usize, event: &Event) {
        let now = ctx.now();
        let me = self.me();
        // Repair layer: health-check the reading before any app sees
        // it. The verdict is cached per event id, so routing the same
        // event to several apps (or replaying it after a promotion)
        // consults the detectors exactly once.
        let mut substituted: Option<Event> = None;
        {
            let st = self.st.as_mut().expect("initialized");
            if let Some(health) = st.repair.as_mut() {
                let verdict = health.observe(now, event);
                let counts = health.take_counts();
                record_repair_counts(&self.spec.obs, counts);
                match verdict {
                    RepairVerdict::Accept => {}
                    RepairVerdict::Substitute(value) => {
                        substituted = Some(HealthModel::substituted(event, value));
                    }
                    RepairVerdict::DropOutlier | RepairVerdict::DropQuarantined => {
                        // The platform consumed the event even though
                        // no app will: advance the watermark so the
                        // drop is not replayed forever.
                        let mark = st.processed.entry(event.id.sensor).or_insert(0);
                        *mark = (*mark).max(event.id.seq);
                        return;
                    }
                }
            }
        }
        let event = substituted.as_ref().unwrap_or(event);
        let outputs = {
            let st = self.st.as_mut().expect("initialized");
            let app = &mut st.apps[app_idx];
            let Some(runtime) = app.runtime.as_mut() else {
                return;
            };
            if !runtime.subscribes_to(event.id.sensor) {
                return;
            }
            app.probe.record_delivery(DeliveryRecord {
                at: now,
                by: me,
                event: event.id,
                emitted_at: event.emitted_at,
                value: event.payload.as_scalar(),
            });
            self.spec.obs.inc("app.deliveries");
            self.spec.obs.event(
                "app.delivery",
                now,
                u64::from(event.id.sensor.as_u32()),
                event.id.seq,
            );
            self.spec.obs.observe(
                "app.delay_us",
                now.duration_since(event.emitted_at).as_micros(),
            );
            let outputs = runtime.on_event(now, event);
            let stale = runtime.stale_drops();
            if stale > app.stale_reported {
                app.probe.record_stale_drops(stale - app.stale_reported);
                self.spec
                    .obs
                    .add("app.stale_drops", stale - app.stale_reported);
                app.stale_reported = stale;
            }
            let mark = st.processed.entry(event.id.sensor).or_insert(0);
            *mark = (*mark).max(event.id.seq);
            outputs
        };
        self.close_failover_spans(app_idx, now);
        self.handle_outputs(ctx, app_idx, outputs);
    }

    /// Closes any pending `failover` spans for `app_idx`: the first
    /// app-visible activity after a promotion marks the end of the
    /// service interruption measured by the span (Fig. 7 timeline).
    fn close_failover_spans(&mut self, app_idx: usize, now: Time) {
        let pending = {
            let st = self.st.as_mut().expect("initialized");
            std::mem::take(&mut st.apps[app_idx].pending_failover)
        };
        for key in pending {
            self.spec.obs.span_close("failover", key, now);
        }
    }

    /// Routes a newly known event to every active app (Gapless
    /// delivery path and Gap local delivery path).
    fn deliver_to_apps(&mut self, ctx: &mut Context<'_>, event: &Event) {
        self.note_epoch_event(ctx, event);
        let n_apps = self.st.as_ref().expect("initialized").apps.len();
        for idx in 0..n_apps {
            let active = self.st.as_ref().expect("initialized").apps[idx]
                .exec
                .is_active();
            if active {
                self.process_at_app(ctx, idx, event);
            }
        }
    }

    /// Marks polling-epoch satisfaction and cancels pending poll timers
    /// when an event for the current epoch arrives by any path.
    fn note_epoch_event(&mut self, ctx: &mut Context<'_>, event: &Event) {
        let Some(epoch) = event.epoch else { return };
        let sensor = event.id.sensor;
        let st = self.st.as_mut().expect("initialized");
        let Some(rt) = st.sensors.get_mut(&sensor) else {
            return;
        };
        let Some(poll) = rt.poll.as_mut() else { return };
        if poll.state.on_event(epoch) {
            ctx.cancel_timer(token(KIND_SLOT, sensor.as_u32()));
            ctx.cancel_timer(token(KIND_REPOLL, sensor.as_u32()));
        }
    }

    /// Applies delivery-service actions (sends + local deliveries) in
    /// list order.
    fn apply_actions(&mut self, ctx: &mut Context<'_>, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => self.send_proc(to, &msg),
                Action::Fanout { to, msg } => self.send_fanout(&to, &msg),
                Action::Deliver { event } => {
                    self.note_received(&event);
                    self.deliver_to_apps(ctx, &event);
                }
            }
        }
    }

    /// Advances the cumulative *received* watermark for a replicated
    /// event. Called only from the post-durability-gate `Deliver` arm:
    /// the watermark advertises durable possession, so it must never
    /// run ahead of the WAL.
    fn note_received(&mut self, event: &Event) {
        let st = self.st.as_mut().expect("initialized");
        let mark = st.received_marks.entry(event.id.sensor).or_insert(0);
        *mark = (*mark).max(event.id.seq);
    }

    /// Applies delivery-service actions *through the durability gate*:
    /// every freshly stored event (each `Deliver` action carries
    /// exactly one) is appended to the WAL, and no action — delivery,
    /// ring forward, broadcast relay, or ack — takes effect until the
    /// append is durable. Under group commit the actions queue until
    /// the policy (or the flush timer / tick backstop) flushes the
    /// batch. Without storage this is plain [`Self::apply_actions`].
    fn apply_actions_durably(&mut self, ctx: &mut Context<'_>, actions: Vec<Action>) {
        if actions.is_empty() {
            return;
        }
        let ready = {
            let st = self.st.as_mut().expect("initialized");
            match st.wal.as_mut() {
                None => Some(actions),
                Some(wal) => {
                    for action in actions {
                        if let Action::Deliver { event } = &action {
                            wal.append_event(event).expect("wal append");
                        }
                        st.gated.push(action);
                    }
                    if wal.pending_events() == 0 {
                        Some(std::mem::take(&mut st.gated))
                    } else if st.gated.len() >= st.gate.bound() {
                        // Back-pressure: a broadcast storm outran the
                        // flush policy. Force the group commit now so
                        // gated actions (and their memory) stay
                        // bounded; the adaptive gate grows the bound so
                        // the next burst batches more per flush.
                        wal.flush().expect("wal flush");
                        st.gate.on_forced_flush();
                        self.spec.obs.inc("wal.forced_flushes");
                        Some(std::mem::take(&mut st.gated))
                    } else {
                        None
                    }
                }
            }
        };
        if let Some(actions) = ready {
            self.apply_actions(ctx, actions);
        }
    }

    /// Flushes the WAL and releases every gated action. Called by the
    /// `EveryInterval` flush timer and as a backstop from the periodic
    /// tick (so an `EveryN` batch that never fills cannot strand its
    /// actions).
    fn flush_wal(&mut self, ctx: &mut Context<'_>) {
        let ready = {
            let st = self.st.as_mut().expect("initialized");
            match st.wal.as_mut() {
                Some(wal) if wal.pending_events() > 0 || !st.gated.is_empty() => {
                    wal.flush().expect("wal flush");
                    // A timer-driven flush at low depth is the signal
                    // that bursts have subsided: walk the bound back.
                    st.gate.on_idle_flush(st.gated.len());
                    Some(std::mem::take(&mut st.gated))
                }
                _ => None,
            }
        };
        if let Some(actions) = ready {
            self.apply_actions(ctx, actions);
        }
    }

    /// Writes a checkpoint of the processed watermarks and compacts
    /// fully-acked segments, then re-arms the checkpoint timer.
    fn checkpoint_fired(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let ready = {
            let st = self.st.as_mut().expect("initialized");
            match st.wal.as_mut() {
                None => None,
                Some(wal) => {
                    let mut marks: Vec<(SensorId, u64)> =
                        st.processed.iter().map(|(s, q)| (*s, *q)).collect();
                    marks.sort_unstable_by_key(|(s, _)| *s);
                    wal.append_checkpoint(&Checkpoint {
                        at: now,
                        processed: marks,
                    })
                    .expect("wal checkpoint");
                    let _ = wal.compact(&st.processed).expect("wal compact");
                    // The checkpoint forced a flush, so everything
                    // gated is now durable; a low-depth checkpoint also
                    // counts as an idle flush for the adaptive bound.
                    st.gate.on_idle_flush(st.gated.len());
                    Some(std::mem::take(&mut st.gated))
                }
            }
        };
        if let Some(actions) = ready {
            self.apply_actions(ctx, actions);
        }
        if let Some(durability) = &self.spec.storage {
            ctx.set_timer(durability.checkpoint_interval, TOKEN_CHECKPOINT);
        }
    }

    /// Whether any deployed app subscribes to `sensor`. Events of
    /// unsubscribed sensors are dropped at ingest instead of being
    /// stored and replicated: no app will ever process them, so their
    /// watermarks never advance and the store would retain them until
    /// the per-sensor cap — unbounded residency in practice.
    fn sensor_subscribed(&self, sensor: SensorId) -> bool {
        self.st
            .as_ref()
            .expect("initialized")
            .sensors
            .get(&sensor)
            .is_some_and(|rt| !rt.subscribed_apps.is_empty())
    }

    /// Queues one protocol message to one peer. The message is encoded
    /// here, once, into a pooled buffer; actual transmission (and
    /// same-destination coalescing) happens in [`Self::flush_outbox`]
    /// at the end of the activation.
    fn send_proc(&mut self, to: ProcessId, msg: &ProcMsg) {
        if to == self.me() {
            return;
        }
        let st = self.st.as_mut().expect("initialized");
        if !st.peer_actors.contains_key(&to) {
            return;
        }
        let payload = st.outbox.pool.encode(msg);
        st.outbox.queue.push((to, payload));
    }

    /// Encode-once fan-out: encodes `msg` a single time and queues a
    /// cheap [`Bytes`] clone per destination, instead of re-encoding
    /// for every peer.
    fn send_fanout(&mut self, to: &[ProcessId], msg: &ProcMsg) {
        let me = self.me();
        let st = self.st.as_mut().expect("initialized");
        let targets: Vec<ProcessId> = to
            .iter()
            .copied()
            .filter(|p| *p != me && st.peer_actors.contains_key(p))
            .collect();
        if targets.is_empty() {
            return;
        }
        let payload = st.outbox.pool.encode(msg);
        if targets.len() > 1 {
            st.outbox
                .stats
                .record_encode_reuse((payload.len() * (targets.len() - 1)) as u64);
        }
        for t in targets {
            st.outbox.queue.push((t, payload.clone()));
        }
    }

    /// Drains the outbox at the end of an activation. Messages to the
    /// same destination are folded into one multi-command [`Frame`]
    /// (frame assembly concatenates the already-encoded parts — nothing
    /// is re-encoded). Both the grouping and its order are pure
    /// functions of the activation's queue, so delivery stays
    /// deterministic.
    fn flush_outbox(&mut self, ctx: &mut Context<'_>) {
        let Some(st) = self.st.as_mut() else { return };
        let Initialized {
            outbox,
            peer_actors,
            ..
        } = st;
        if outbox.queue.is_empty() {
            return;
        }
        // Fast path: the common activation queues a single message
        // (one ring forward, one ack, one poll) — nothing to group.
        if outbox.queue.len() == 1 {
            let (to, payload) = outbox.queue.pop().expect("one entry");
            if let Some(actor) = peer_actors.get(&to).copied() {
                ctx.send(actor, payload);
            }
            return;
        }
        // Group by destination in first-appearance order. Destinations
        // are few (home-scale peer counts), so a linear scan beats a
        // map here and preserves order for free. Group storage is
        // recycled scratch: drained queue, reused group vector, and
        // part lists returned by earlier flushes.
        for (to, payload) in outbox.queue.drain(..) {
            match outbox.groups.iter_mut().find(|(p, _)| *p == to) {
                Some((_, parts)) => parts.push(payload),
                None => {
                    let mut parts = outbox.spare_parts.pop().unwrap_or_default();
                    parts.push(payload);
                    outbox.groups.push((to, parts));
                }
            }
        }
        // Floods queue the *same* parts (cheap clones of one encoding)
        // for every destination, so the assembled frame can itself be
        // encoded once and cheap-cloned: identity of the backing
        // buffers proves the byte content is identical. `last_multi`
        // remembers the previous multi-part group (still alive in the
        // scratch) and its assembled frame.
        let mut last_multi: Option<(usize, Bytes)> = None;
        for i in 0..outbox.groups.len() {
            let to = outbox.groups[i].0;
            let Some(actor) = peer_actors.get(&to).copied() else {
                continue;
            };
            if outbox.groups[i].1.len() == 1 {
                let payload = outbox.groups[i].1.pop().expect("one part");
                ctx.send(actor, payload);
                continue;
            }
            outbox.stats.record_frame(outbox.groups[i].1.len());
            let framed = match &last_multi {
                Some((prev, frame)) if same_parts(&outbox.groups[*prev].1, &outbox.groups[i].1) => {
                    outbox.stats.record_encode_reuse(frame.len() as u64);
                    frame.clone()
                }
                _ => {
                    let mut w = outbox.pool.checkout();
                    let framed = Frame::encode_parts(&mut w, &outbox.groups[i].1);
                    outbox.pool.put_back(w);
                    last_multi = Some((i, framed.clone()));
                    framed
                }
            };
            ctx.send(actor, framed);
        }
        // Recycle the scratch: drop the queued `Bytes` clones but keep
        // every vector's capacity for the next activation.
        for (_, mut parts) in outbox.groups.drain(..) {
            parts.clear();
            outbox.spare_parts.push(parts);
        }
    }

    /// Handles operator outputs: actuation routing and alerts.
    fn handle_outputs(
        &mut self,
        ctx: &mut Context<'_>,
        app_idx: usize,
        outputs: Vec<crate::app::RuntimeOutput>,
    ) {
        let now = ctx.now();
        let me = self.me();
        for out in outputs {
            match out.output {
                OpOutput::Actuate { actuator, kind } => {
                    let command = {
                        let st = self.st.as_mut().expect("initialized");
                        let seq = st.cmd_seq.entry(out.operator).or_insert(0);
                        let id = CommandId::new(me, out.operator, *seq);
                        *seq += 1;
                        let command = Command::new(id, actuator, kind, now);
                        st.apps[app_idx].probe.record_command(now, command.clone());
                        command
                    };
                    self.spec.obs.inc("app.commands");
                    self.close_failover_spans(app_idx, now);
                    self.route_command(ctx, command);
                }
                OpOutput::Alert { message } => {
                    {
                        let st = self.st.as_ref().expect("initialized");
                        st.apps[app_idx].probe.record_alert(now, me, message);
                    }
                    self.spec.obs.inc("app.alerts");
                }
                OpOutput::RunRoutine { routine } => {
                    self.run_routine(ctx, out.operator, routine);
                }
                OpOutput::Emit { .. } => {
                    // Internal cascades were resolved inside the runtime.
                }
            }
        }
    }

    /// Triggers a staged all-or-nothing firing of `routine` (§4.7).
    /// Silently ignored when [`RivuletConfig::routines`] is off or the
    /// id is undeployed, so apps can request routines unconditionally.
    fn run_routine(&mut self, ctx: &mut Context<'_>, operator: OperatorId, routine: RoutineId) {
        let now = ctx.now();
        let me = self.me();
        let st = self.st.as_mut().expect("initialized");
        let Some(engine) = st.routines.as_mut() else {
            return;
        };
        let Some(spec) = engine.spec(routine) else {
            return;
        };
        // Staging frames go over local radio links only: if any target
        // actuator is not adapted by this coordinator, refuse the
        // trigger outright — nothing staged, nothing to clean up.
        let unreachable = spec.actuators().iter().any(|a| {
            st.actuators
                .get(a)
                .is_none_or(|(_, reachers)| !reachers.contains(&me))
        });
        if unreachable {
            engine.note_unreachable(routine);
            self.spec.obs.inc("routine.unreachable");
            return;
        }
        let cmd_seq = &mut st.cmd_seq;
        let Some(plan) = engine.trigger(routine, now, |actuator, kind| {
            let seq = cmd_seq.entry(operator).or_insert(0);
            let id = CommandId::new(me, operator, *seq);
            *seq += 1;
            Command::new(id, actuator, kind, now)
        }) else {
            return;
        };
        // Write-ahead: the Staged entry is durable before any stage
        // frame leaves, so a crash mid-staging recovers to a clean
        // abort instead of orphaned held commands.
        if let Some(wal) = st.wal.as_mut() {
            wal.append_ledger(&plan.entry).expect("ledger append");
        }
        self.spec.obs.inc("routine.triggered");
        for (actuator, step, command) in plan.stages {
            let device = st.actuators[&actuator].0;
            ctx.send(
                device,
                RadioFrame::Stage {
                    routine,
                    instance: plan.instance,
                    step,
                    command,
                }
                .to_payload(),
            );
        }
        ctx.set_timer(
            self.spec.config.routine_stage_timeout,
            token(KIND_ROUTINE, plan.instance as u32),
        );
    }

    /// An actuator acknowledged (or refused) a staged routine step.
    fn on_stage_ack(
        &mut self,
        ctx: &mut Context<'_>,
        routine: RoutineId,
        instance: u64,
        step: u32,
        accepted: bool,
    ) {
        let now = ctx.now();
        let outcome = {
            let st = self.st.as_mut().expect("initialized");
            let Some(engine) = st.routines.as_mut() else {
                return;
            };
            engine.on_stage_ack(routine, instance, step, accepted, now)
        };
        self.spec.obs.inc("routine.stage_acks");
        match outcome {
            AckOutcome::Ignored => {}
            AckOutcome::Commit { entry, targets } => {
                ctx.cancel_timer(token(KIND_ROUTINE, instance as u32));
                let st = self.st.as_mut().expect("initialized");
                // Write-ahead: the commit decision is durable before
                // any fire frame leaves; recovery re-drives the
                // idempotent commit if we crash mid-burst.
                if let Some(wal) = st.wal.as_mut() {
                    wal.append_ledger(&entry).expect("ledger append");
                }
                for actuator in targets {
                    let device = st.actuators[&actuator].0;
                    ctx.send(
                        device,
                        RadioFrame::CommitRoutine { routine, instance }.to_payload(),
                    );
                }
                self.spec.obs.inc("routine.committed");
            }
            AckOutcome::Abort(plan) => {
                ctx.cancel_timer(token(KIND_ROUTINE, instance as u32));
                self.abort_routine(ctx, plan, true);
            }
        }
    }

    /// The staging timeout fired for `instance`: abort it unless the
    /// last ack raced the timer and already resolved the firing.
    fn routine_timeout_fired(&mut self, ctx: &mut Context<'_>, instance: u64) {
        let now = ctx.now();
        let plan = {
            let st = self.st.as_mut().expect("initialized");
            let Some(engine) = st.routines.as_mut() else {
                return;
            };
            engine.on_timeout(instance, now)
        };
        let Some(plan) = plan else {
            return;
        };
        self.spec.obs.inc("routine.timeouts");
        self.abort_routine(ctx, plan, true);
    }

    /// Aborts a firing: makes the `Aborted` entry durable (unless the
    /// caller already did, e.g. recovery), tells every target to
    /// discard its held steps, and issues the declared compensation
    /// commands as plain actuations (recorded as a `Compensated`
    /// entry *before* they are routed — write-ahead).
    fn abort_routine(&mut self, ctx: &mut Context<'_>, plan: AbortPlan, append_entry: bool) {
        let now = ctx.now();
        let me = self.me();
        {
            let st = self.st.as_mut().expect("initialized");
            if append_entry {
                if let Some(wal) = st.wal.as_mut() {
                    wal.append_ledger(&plan.entry).expect("ledger append");
                }
            }
            for actuator in &plan.targets {
                if let Some((device, reachers)) = st.actuators.get(actuator) {
                    if reachers.contains(&me) {
                        ctx.send(
                            *device,
                            RadioFrame::AbortRoutine {
                                routine: plan.routine,
                                instance: plan.instance,
                            }
                            .to_payload(),
                        );
                    }
                }
            }
        }
        self.spec.obs.inc("routine.aborted");
        if plan.compensations.is_empty() {
            return;
        }
        let commands = {
            let st = self.st.as_mut().expect("initialized");
            let mut commands = Vec::with_capacity(plan.compensations.len());
            let mut issued = Vec::with_capacity(plan.compensations.len());
            for (actuator, kind) in plan.compensations {
                let seq = st.cmd_seq.entry(OP_COMPENSATION).or_insert(0);
                let id = CommandId::new(me, OP_COMPENSATION, *seq);
                *seq += 1;
                issued.push((actuator, id));
                commands.push(Command::new(id, actuator, kind, now));
            }
            let engine = st.routines.as_mut().expect("routines on");
            let entry = engine.record_compensated(plan.routine, plan.instance, now, issued);
            if let Some(wal) = st.wal.as_mut() {
                wal.append_ledger(&entry).expect("ledger append");
            }
            commands
        };
        for command in commands {
            self.route_command(ctx, command);
        }
        self.spec.obs.inc("routine.compensated");
    }

    /// Replays the routine-recovery verdicts computed during
    /// [`RivuletProcess::initialize`], once `st` exists.
    fn replay_routine_recovery(&mut self, ctx: &mut Context<'_>, actions: Vec<RecoveryAction>) {
        let me = self.me();
        for action in actions {
            match action {
                RecoveryAction::Recommit {
                    routine,
                    instance,
                    targets,
                } => {
                    self.spec.obs.inc("routine.recommits");
                    let st = self.st.as_ref().expect("initialized");
                    for actuator in targets {
                        if let Some((device, reachers)) = st.actuators.get(&actuator) {
                            if reachers.contains(&me) {
                                ctx.send(
                                    *device,
                                    RadioFrame::CommitRoutine { routine, instance }.to_payload(),
                                );
                            }
                        }
                    }
                }
                RecoveryAction::AbortStaged(plan) => {
                    self.spec.obs.inc("routine.recovered_aborts");
                    self.abort_routine(ctx, plan, true);
                }
            }
        }
    }

    /// Sends a command to the actuator: directly via the local adapter
    /// when reachable, otherwise forwarded to the closest live process
    /// with an active actuator node (§4's "analogous" command path).
    fn route_command(&mut self, ctx: &mut Context<'_>, command: Command) {
        let now = ctx.now();
        let me = self.me();
        let (device, reachers) = {
            let st = self.st.as_ref().expect("initialized");
            let Some((device, reachers)) = st.actuators.get(&command.actuator) else {
                return;
            };
            (*device, reachers.clone())
        };
        if reachers.contains(&me) {
            ctx.send(device, RadioFrame::Actuate(command).to_payload());
            return;
        }
        let target = {
            let st = self.st.as_ref().expect("initialized");
            reachers
                .iter()
                .copied()
                .find(|p| st.membership.is_alive(*p, now))
        };
        if let Some(target) = target {
            self.send_proc(target, &ProcMsg::CmdForward { command });
        }
    }

    /// An event arrived from a physical sensor via the local adapter.
    fn on_sensor_event(&mut self, ctx: &mut Context<'_>, event: Event) {
        let now = ctx.now();
        let me = self.me();
        self.note_epoch_event(ctx, &event);
        let delivery = {
            let st = self.st.as_ref().expect("initialized");
            match st.sensors.get(&event.id.sensor) {
                Some(rt) => rt.delivery,
                None => return, // unknown device: ignore
            }
        };
        if !self.sensor_subscribed(event.id.sensor) {
            return; // no app will ever process it: do not store/replicate
        }
        match delivery {
            Delivery::Gapless
                if self.spec.config.forwarding == crate::config::ForwardingMode::EagerBroadcast =>
            {
                // Fig. 5 baseline: flood to all peers unless the event
                // already arrived from another process. The flood goes
                // through the rbcast state machine so the origin tracks
                // which peers still owe an acknowledgement — per-event
                // `BroadcastAck`s or (default) the cumulative received
                // watermarks on their keep-alive beacons.
                let (deliver, flood) = {
                    let st = self.st.as_mut().expect("initialized");
                    let deliver = st.gapless.on_broadcast_copy(event.clone());
                    let flood = if deliver.is_some() {
                        let view = st.membership.view(now);
                        st.rbcast.start(event, &view, now)
                    } else {
                        Vec::new()
                    };
                    (deliver, flood)
                };
                if let Some(action) = deliver {
                    let mut actions = vec![action];
                    actions.extend(flood);
                    self.apply_actions_durably(ctx, actions);
                }
            }
            Delivery::Gapless => {
                let (actions, broadcast) = {
                    let st = self.st.as_mut().expect("initialized");
                    let view = st.membership.view(now);
                    let successor = st.membership.successor_in(&view);
                    let tracked = event.clone();
                    let outcome = st.gapless.on_local_ingest(event, &view, successor);
                    if !outcome.actions.is_empty() {
                        // Fresh ingest: register replication tracking.
                        // The ring carries the event (no extra traffic);
                        // peers retire the entry via their keep-alive
                        // received watermarks, and an entry that
                        // outlives the failure timeout escalates to a
                        // flood — closing the silent-stall window where
                        // a ring message dies with a crashed hop and no
                        // survivor ever observes the stall condition.
                        st.rbcast.track(tracked, &view, now);
                    }
                    (outcome.actions, outcome.start_broadcast)
                };
                self.apply_actions_durably(ctx, actions);
                if let Some(ev) = broadcast {
                    self.start_broadcast(ctx, ev);
                }
            }
            Delivery::Gap => {
                let role = {
                    let st = self.st.as_ref().expect("initialized");
                    let rt = st.sensors.get(&event.id.sensor).expect("known sensor");
                    // The Gap chain follows the placement chain of the
                    // first subscribing app.
                    let Some(&app_idx) = rt.subscribed_apps.first() else {
                        return;
                    };
                    let app = &st.apps[app_idx];
                    let membership = &st.membership;
                    let Some(active) = app.exec.believed_active(|p| membership.is_alive(p, now))
                    else {
                        return;
                    };
                    gap::role_of(
                        me,
                        app.exec.chain(),
                        &rt.reachers,
                        |p| membership.is_alive(p, now),
                        active,
                    )
                };
                match role {
                    GapRole::DeliverLocally => self.deliver_to_apps(ctx, &event),
                    GapRole::ForwardTo(target) => {
                        self.send_proc(target, &ProcMsg::GapForward { event });
                    }
                    GapRole::Discard => {}
                }
            }
        }
    }

    fn start_broadcast(&mut self, ctx: &mut Context<'_>, event: Event) {
        let actions = {
            let now = ctx.now();
            let st = self.st.as_mut().expect("initialized");
            let view = st.membership.view(now);
            st.rbcast.start(event, &view, now)
        };
        // Broadcasting advertises possession: gate it like any other
        // delivery action (the event itself was appended when it was
        // first stored, so this queues behind that flush).
        self.apply_actions_durably(ctx, actions);
    }

    /// A protocol message arrived from a peer process.
    fn on_proc_msg(&mut self, ctx: &mut Context<'_>, msg: ProcMsg) {
        let now = ctx.now();
        // Any traffic proves liveness.
        let sender = match &msg {
            ProcMsg::KeepAlive { from, .. }
            | ProcMsg::SyncRequest { from }
            | ProcMsg::SyncReply { from, .. }
            | ProcMsg::BroadcastAck { from, .. } => Some(*from),
            ProcMsg::Broadcast { origin, .. } => Some(*origin),
            _ => None,
        };
        if let Some(from) = sender {
            self.st
                .as_mut()
                .expect("initialized")
                .membership
                .heard_from(from, now);
        }
        match msg {
            ProcMsg::KeepAlive {
                from,
                processed,
                received,
            } => {
                let cumulative = self.spec.config.ack_mode == AckMode::Cumulative;
                let st = self.st.as_mut().expect("initialized");
                for (sensor, seq) in processed {
                    let mark = st.processed.entry(sensor).or_insert(0);
                    *mark = (*mark).max(seq);
                }
                // The peer's durable-receipt watermarks acknowledge
                // every covered pending broadcast in one beacon. Each
                // retirement in cumulative mode is one per-event ack
                // message that never had to cross the wire.
                if !received.is_empty() {
                    let retired = st.rbcast.on_cumulative_ack(from, &received);
                    if retired > 0 && cumulative {
                        st.outbox.stats.record_acks_avoided(retired as u64);
                    }
                }
            }
            ProcMsg::Ring { event, seen, need } => {
                if !self.sensor_subscribed(event.id.sensor) {
                    return;
                }
                let (actions, broadcast) = {
                    let st = self.st.as_mut().expect("initialized");
                    let view = st.membership.view(now);
                    let successor = st.membership.successor_in(&view);
                    let outcome = st.gapless.on_ring(event, seen, need, &view, successor);
                    (outcome.actions, outcome.start_broadcast)
                };
                self.apply_actions_durably(ctx, actions);
                if let Some(ev) = broadcast {
                    self.start_broadcast(ctx, ev);
                }
            }
            ProcMsg::Broadcast { event, origin } => {
                if !self.sensor_subscribed(event.id.sensor) {
                    return;
                }
                let eager =
                    self.spec.config.forwarding == crate::config::ForwardingMode::EagerBroadcast;
                let eager_ack = self.spec.config.ack_mode == AckMode::PerEvent;
                let (deliver, acks) = {
                    let st = self.st.as_mut().expect("initialized");
                    let deliver = st.gapless.on_broadcast_copy(event.clone());
                    // Receivers acknowledge every broadcast copy: per
                    // event (an immediate `BroadcastAck`) or, by
                    // default, cumulatively via the received watermark
                    // on their next keep-alive beacon. In the eager
                    // baseline only the origin floods, so the relay
                    // view is empty; the ring's stall fallback relays
                    // through the full view to survive origin crashes.
                    let view = if eager {
                        Vec::new()
                    } else {
                        st.membership.view(now)
                    };
                    let acks = st.rbcast.on_broadcast(
                        &event,
                        origin,
                        deliver.is_some(),
                        &view,
                        eager_ack,
                        now,
                    );
                    (deliver, acks)
                };
                // Deliver first, then ack — and neither before the
                // event is durable: the ack tells the origin this
                // replica holds the event.
                let mut actions: Vec<Action> = Vec::new();
                actions.extend(deliver);
                actions.extend(acks);
                self.apply_actions_durably(ctx, actions);
            }
            ProcMsg::BroadcastAck { id, from } => {
                self.st
                    .as_mut()
                    .expect("initialized")
                    .rbcast
                    .on_ack(id, from);
            }
            ProcMsg::GapForward { event } => self.deliver_to_apps(ctx, &event),
            ProcMsg::SyncRequest { from } => {
                let action = self
                    .st
                    .as_ref()
                    .expect("initialized")
                    .gapless
                    .on_sync_request(from);
                self.apply_actions(ctx, vec![action]);
            }
            ProcMsg::SyncReply { from, watermarks } => {
                let action = self
                    .st
                    .as_ref()
                    .expect("initialized")
                    .gapless
                    .on_sync_reply(from, &watermarks);
                if let Some(action) = action {
                    self.apply_actions(ctx, vec![action]);
                }
            }
            ProcMsg::SyncEvents { mut events } => {
                events.retain(|e| self.sensor_subscribed(e.id.sensor));
                let actions = self
                    .st
                    .as_mut()
                    .expect("initialized")
                    .gapless
                    .on_sync_events(events);
                self.apply_actions_durably(ctx, actions);
            }
            ProcMsg::CmdForward { command } => {
                let reachable = {
                    let st = self.st.as_ref().expect("initialized");
                    st.actuators
                        .get(&command.actuator)
                        .is_some_and(|(_, reachers)| reachers.contains(&self.spec.pid))
                };
                if reachable {
                    let device =
                        self.st.as_ref().expect("initialized").actuators[&command.actuator].0;
                    ctx.send(device, RadioFrame::Actuate(command).to_payload());
                }
            }
        }
    }

    /// Epoch boundary for a polled sensor: close the previous epoch,
    /// open the next, and arm the slot timer.
    fn epoch_boundary(&mut self, ctx: &mut Context<'_>, sensor: SensorId) {
        let now = ctx.now();
        let me = self.me();
        // Close the previous epoch (skipped on the very first call at
        // time zero).
        let mut missed_for_apps: Vec<usize> = Vec::new();
        let (epoch_len, participates, slot_delay) = {
            let st = self.st.as_mut().expect("initialized");
            let Some(rt) = st.sensors.get_mut(&sensor) else {
                return;
            };
            let delivery = rt.delivery;
            let subscribed = rt.subscribed_apps.clone();
            let reachers = rt.reachers.clone();
            let Some(poll) = rt.poll.as_mut() else { return };
            let epoch_len = poll.state.plan().epoch;
            if now > Time::ZERO && poll.participates {
                let missed = poll.state.on_epoch_end();
                if missed && delivery == Delivery::Gapless {
                    missed_for_apps = subscribed.clone();
                }
            }
            // Which epoch starts now?
            let epoch_idx = now.as_micros() / epoch_len.as_micros().max(1);
            // Participation: Gapless strategies involve every reacher;
            // GapSingle only the designated poller.
            let strategy = poll.state.plan().strategy;
            let participates = match strategy {
                PollStrategy::Coordinated | PollStrategy::Uncoordinated => true,
                PollStrategy::GapSingle => {
                    let app_idx = subscribed.first().copied();
                    match app_idx {
                        None => false,
                        Some(idx) => {
                            let membership = &st.membership;
                            let app = &st.apps[idx];
                            let active = app.exec.believed_active(|p| membership.is_alive(p, now));
                            match active {
                                None => false,
                                Some(active) => {
                                    gap::forwarder(
                                        app.exec.chain(),
                                        &reachers,
                                        |p| membership.is_alive(p, now),
                                        active,
                                    ) == Some(me)
                                }
                            }
                        }
                    }
                }
            };
            let rt = st.sensors.get_mut(&sensor).expect("known sensor");
            let poll = rt.poll.as_mut().expect("poll state");
            poll.participates = participates;
            let slot_delay = poll
                .state
                .on_epoch_start(epoch_idx, participates, ctx.rng());
            (epoch_len, participates, slot_delay)
        };
        // Stale poll timers from the previous epoch must not leak.
        ctx.cancel_timer(token(KIND_SLOT, sensor.as_u32()));
        ctx.cancel_timer(token(KIND_REPOLL, sensor.as_u32()));
        if participates {
            if let Some(delay) = slot_delay {
                ctx.set_timer(delay, token(KIND_SLOT, sensor.as_u32()));
            }
        }
        // Surface misses to active apps (the Gapless exception).
        for idx in missed_for_apps {
            let outputs = {
                let st = self.st.as_mut().expect("initialized");
                let app = &mut st.apps[idx];
                if let Some(runtime) = app.runtime.as_mut() {
                    app.probe.record_epoch_miss();
                    self.spec.obs.inc("app.epoch_misses");
                    runtime.on_epoch_miss(now, sensor)
                } else {
                    Vec::new()
                }
            };
            self.handle_outputs(ctx, idx, outputs);
        }
        // Next boundary.
        ctx.set_timer(epoch_len, token(KIND_EPOCH, sensor.as_u32()));
    }

    fn send_poll(&mut self, ctx: &mut Context<'_>, sensor: SensorId) {
        let (device, epoch) = {
            let st = self.st.as_ref().expect("initialized");
            let Some(rt) = st.sensors.get(&sensor) else {
                return;
            };
            let Some(poll) = rt.poll.as_ref() else { return };
            (rt.device, poll.state.current_epoch())
        };
        ctx.send(
            device,
            RadioFrame::PollRequest { sensor, epoch }.to_payload(),
        );
    }

    fn slot_fired(&mut self, ctx: &mut Context<'_>, sensor: SensorId) {
        let (should_poll, coordinated, latency) = {
            let st = self.st.as_mut().expect("initialized");
            let Some(rt) = st.sensors.get_mut(&sensor) else {
                return;
            };
            let Some(poll) = rt.poll.as_mut() else { return };
            let coordinated = poll.state.plan().strategy == PollStrategy::Coordinated;
            let latency = poll.state.plan().poll_latency;
            (poll.state.on_slot(), coordinated, latency)
        };
        if should_poll {
            self.send_poll(ctx, sensor);
            if coordinated {
                ctx.set_timer(
                    latency + self.spec.config.repoll_margin,
                    token(KIND_REPOLL, sensor.as_u32()),
                );
            }
        }
    }

    fn repoll_fired(&mut self, ctx: &mut Context<'_>, sensor: SensorId) {
        let (should_repoll, latency) = {
            let st = self.st.as_mut().expect("initialized");
            let Some(rt) = st.sensors.get_mut(&sensor) else {
                return;
            };
            let Some(poll) = rt.poll.as_mut() else { return };
            (poll.state.on_repoll(), poll.state.plan().poll_latency)
        };
        if should_repoll {
            self.send_poll(ctx, sensor);
            ctx.set_timer(
                latency + self.spec.config.repoll_margin,
                token(KIND_REPOLL, sensor.as_u32()),
            );
        }
    }

    fn window_fired(&mut self, ctx: &mut Context<'_>, idx: usize) {
        let now = ctx.now();
        let Some((app_idx, outputs, period)) = ({
            let st = self.st.as_mut().expect("initialized");
            st.window_timers
                .get(idx)
                .cloned()
                .and_then(|(app_idx, op, stream, period)| {
                    let app = &mut st.apps[app_idx];
                    app.runtime
                        .as_mut()
                        .map(|rt| (app_idx, rt.on_time_trigger(now, op, stream), period))
                })
        }) else {
            return;
        };
        self.handle_outputs(ctx, app_idx, outputs);
        ctx.set_timer(period, token(KIND_WINDOW, idx as u32));
    }
}

impl Actor for RivuletProcess {
    fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent) {
        match event {
            ActorEvent::Start => self.initialize(ctx),
            ActorEvent::Message { from, payload } => {
                if self.st.is_none() {
                    return; // racing message before Start: drop
                }
                let is_peer = self
                    .st
                    .as_ref()
                    .expect("initialized")
                    .peer_actors
                    .values()
                    .any(|a| *a == from);
                if is_peer {
                    // First-byte dispatch: the frame tag is disjoint
                    // from every `ProcMsg` tag. Decoding from the
                    // shared buffer keeps event payload blobs
                    // zero-copy.
                    if Frame::sniff(&payload) {
                        if let Ok(frame) = Frame::from_shared_bytes(&payload) {
                            for msg in frame.msgs {
                                self.on_proc_msg(ctx, msg);
                            }
                        }
                    } else if let Ok(msg) = ProcMsg::from_shared_bytes(&payload) {
                        self.on_proc_msg(ctx, msg);
                    }
                } else if let Ok(frame) = RadioFrame::from_shared_bytes(&payload) {
                    match frame {
                        RadioFrame::Event(event) => self.on_sensor_event(ctx, event),
                        RadioFrame::ActuateAck { .. } => {
                            // Acknowledgements are observable via the
                            // actuator probe; nothing to do here.
                        }
                        RadioFrame::StageAck {
                            routine,
                            instance,
                            step,
                            accepted,
                        } => self.on_stage_ack(ctx, routine, instance, step, accepted),
                        // Devices never send these to processes.
                        RadioFrame::PollRequest { .. }
                        | RadioFrame::Actuate(_)
                        | RadioFrame::Stage { .. }
                        | RadioFrame::CommitRoutine { .. }
                        | RadioFrame::AbortRoutine { .. } => {}
                    }
                }
            }
            ActorEvent::Timer { token: t } => {
                if self.st.is_none() {
                    if t == TOKEN_INIT_RETRY {
                        self.initialize(ctx);
                    }
                    return;
                }
                match (t >> 32, t & 0xffff_ffff) {
                    (0, TOKEN_TICK) => self.tick(ctx),
                    (0, TOKEN_FLUSH) => {
                        self.flush_wal(ctx);
                        if let Some(durability) = &self.spec.storage {
                            if let FlushPolicy::EveryInterval(period) =
                                durability.options.flush_policy
                            {
                                ctx.set_timer(period, TOKEN_FLUSH);
                            }
                        }
                    }
                    (0, TOKEN_CHECKPOINT) => self.checkpoint_fired(ctx),
                    (KIND_EPOCH, s) => self.epoch_boundary(ctx, SensorId(s as u32)),
                    (KIND_SLOT, s) => self.slot_fired(ctx, SensorId(s as u32)),
                    (KIND_REPOLL, s) => self.repoll_fired(ctx, SensorId(s as u32)),
                    (KIND_WINDOW, i) => self.window_fired(ctx, i as usize),
                    (KIND_ROUTINE, i) => self.routine_timeout_fired(ctx, i),
                    _ => {}
                }
            }
        }
        // Everything queued during this activation goes out now, with
        // same-destination messages coalesced into frames.
        self.flush_outbox(ctx);
    }
}
