//! Deterministic discrete-event simulation driver.
//!
//! [`SimNet`] executes a set of [`Actor`]s over virtual time with a
//! seeded RNG. All nondeterminism — link loss, latency jitter sources,
//! actor randomness — flows from the single seed in [`SimConfig`], so a
//! run is a pure function of `(actors, topology, seed, fault script)`.
//! This is what makes the paper's fault-injection experiments (link
//! loss sweeps, process crashes, partitions) exactly reproducible.
//!
//! Faults are injected with a *fault script*: [`SimNet::crash_at`],
//! [`SimNet::recover_at`], [`SimNet::partition_at`], and
//! [`SimNet::set_loss_at`] schedule control actions at virtual times,
//! mirroring how the paper's testbed runs "induce a process failure at
//! t = 24 seconds" (Fig. 7).
//!
//! The queue is a binary heap of 24-byte keys `(at, seq, index)`: the
//! sequence number orders items due at one instant by when they were
//! pushed, and the index names the place in a slab where the item
//! itself is parked, reused through a free list. [`Context::cancel_timer`]
//! empties the parked timers it names in place, so a cancelled timer
//! costs one skipped key and no bookkeeping outlives it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rivulet_types::{Duration, Time};

use crate::actor::{Actor, ActorEvent, ActorId, Context, Effect};
use crate::link::{ActorClass, DropReason, Topology, Verdict};
use crate::metrics::NetMetrics;

/// Configuration of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Seed for all randomness in the run.
    pub seed: u64,
}

impl SimConfig {
    /// Configuration with the given seed.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        Self { seed }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::with_seed(0)
    }
}

/// A factory rebuilding an actor after crash–recovery. Recovered
/// actors start from fresh state, matching the volatile-state
/// crash-recovery model of paper §3.1.
type Factory = Box<dyn FnMut() -> Box<dyn Actor> + Send>;

struct Slot {
    name: String,
    factory: Factory,
    instance: Option<Box<dyn Actor>>,
    /// Bumped on every recovery; in-flight messages and timers
    /// addressed to an older incarnation are dropped (their TCP
    /// connections died with the process).
    incarnation: u32,
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot")
            .field("name", &self.name)
            .field("up", &self.instance.is_some())
            .field("incarnation", &self.incarnation)
            .finish()
    }
}

#[derive(Debug)]
enum Pending {
    Deliver {
        from: ActorId,
        to: ActorId,
        to_inc: u32,
        payload: Bytes,
    },
    Timer {
        actor: ActorId,
        inc: u32,
        token: u64,
    },
    Control(Control),
    Start {
        actor: ActorId,
        inc: u32,
    },
}

#[derive(Debug)]
enum Control {
    Crash(ActorId),
    Recover(ActorId),
    Partition(Vec<Vec<ActorId>>),
    Heal,
    SetLoss {
        from: ActorId,
        to: ActorId,
        loss: f64,
    },
    SetBlocked {
        from: ActorId,
        to: ActorId,
        blocked: bool,
    },
    Burst {
        from: Option<ActorId>,
        to: Option<ActorId>,
        spec: BurstSpec,
    },
}

/// A broker-style link-degradation burst: while active, matching sends
/// suffer extra delay, probabilistic duplication, and probabilistic
/// reordering (an additional randomized delay that scrambles arrival
/// order). Scheduled with [`SimNet::burst_at`].
#[derive(Debug, Clone, PartialEq)]
pub struct BurstSpec {
    /// How long the burst lasts from its scheduled start.
    pub duration: Duration,
    /// Deterministic extra latency added to every matching send.
    pub extra_delay: Duration,
    /// Probability a matching send is delivered twice.
    pub dup_prob: f64,
    /// Probability a matching send gets an additional uniformly random
    /// delay in `[0, 2 × extra_delay]`, reordering it against its
    /// neighbours.
    pub reorder_prob: f64,
}

impl BurstSpec {
    /// A delay-only burst.
    #[must_use]
    pub fn delay(duration: Duration, extra: Duration) -> Self {
        Self {
            duration,
            extra_delay: extra,
            dup_prob: 0.0,
            reorder_prob: 0.0,
        }
    }
}

/// A scheduled [`BurstSpec`] that has started and not yet expired.
#[derive(Debug)]
struct ActiveBurst {
    from: Option<ActorId>,
    to: Option<ActorId>,
    until: Time,
    spec: BurstSpec,
}

impl ActiveBurst {
    fn matches(&self, from: ActorId, to: ActorId) -> bool {
        self.from.is_none_or(|f| f == from) && self.to.is_none_or(|t| t == to)
    }
}

/// The deterministic simulation driver.
///
/// See the [crate-level documentation](crate) for an end-to-end
/// example.
#[derive(Debug)]
pub struct SimNet {
    topology: Topology,
    slots: Vec<Slot>,
    /// The queue's keys, `(at, seq, index)`: the sequence number
    /// orders simultaneous items by push, and the index names the
    /// item's place in `parked`.
    queue: BinaryHeap<Reverse<(Time, u64, u32)>>,
    /// Queued items; `None` where a timer was cancelled in place (its
    /// key is still queued) or the place is on `free`.
    parked: Vec<Option<Pending>>,
    /// Places in `parked` no key names.
    free: Vec<u32>,
    now: Time,
    seq: u64,
    rng: StdRng,
    metrics: NetMetrics,
    /// Link-degradation bursts currently in force (lazily pruned).
    bursts: Vec<ActiveBurst>,
    /// The effect list lent to each activation's [`Context`]: always
    /// empty between activations, its capacity kept so a handler that
    /// sends or arms a timer does not allocate one per event.
    effects: Vec<Effect>,
}

impl SimNet {
    /// Creates an empty simulated network.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        Self {
            topology: Topology::new(),
            slots: Vec::new(),
            queue: BinaryHeap::new(),
            parked: Vec::new(),
            free: Vec::new(),
            now: Time::ZERO,
            seq: 0,
            rng: StdRng::seed_from_u64(config.seed),
            metrics: NetMetrics::new(),
            bursts: Vec::new(),
            effects: Vec::new(),
        }
    }

    /// Registers an actor built by `factory`, returning its id. The
    /// actor receives [`ActorEvent::Start`] at the current time; the
    /// factory is kept so crash–recovery can rebuild the actor from
    /// fresh state.
    pub fn add_actor<F>(&mut self, name: &str, class: ActorClass, mut factory: F) -> ActorId
    where
        F: FnMut() -> Box<dyn Actor> + Send + 'static,
    {
        let id = self.topology.register(class);
        debug_assert_eq!(id.0 as usize, self.slots.len());
        let instance = factory();
        self.slots.push(Slot {
            name: name.to_owned(),
            factory: Box::new(factory),
            instance: Some(instance),
            incarnation: 0,
        });
        self.push(self.now, Pending::Start { actor: id, inc: 0 });
        id
    }

    /// The id [`SimNet::add_actor`] will hand out next: ids are dense,
    /// in registration order.
    #[must_use]
    pub fn next_actor_id(&self) -> ActorId {
        ActorId(self.slots.len() as u32)
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Whether `actor` is currently up.
    #[must_use]
    pub fn is_up(&self, actor: ActorId) -> bool {
        self.slots[actor.0 as usize].instance.is_some()
    }

    /// Accumulated network counters.
    #[must_use]
    pub fn metrics(&self) -> &NetMetrics {
        &self.metrics
    }

    /// The unified observability handle shared by this driver and every
    /// process deployed on it. Disabled by default; enable it before a
    /// run to collect an [`rivulet_obs::ObsSnapshot`].
    #[must_use]
    pub fn recorder(&self) -> rivulet_obs::Recorder {
        self.metrics.obs.clone()
    }

    /// Exports the unified observability snapshot for this run (see
    /// [`NetMetrics::obs_snapshot`]).
    #[must_use]
    pub fn obs_snapshot(&self) -> rivulet_obs::ObsSnapshot {
        self.metrics.obs_snapshot()
    }

    /// The link topology, for configuring ranges/loss before a run.
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// Read access to the link topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Schedules a crash of `actor` at virtual time `at`.
    pub fn crash_at(&mut self, actor: ActorId, at: Time) {
        self.push(at, Pending::Control(Control::Crash(actor)));
    }

    /// Schedules a recovery of `actor` at virtual time `at`. The actor
    /// is rebuilt from its factory (fresh volatile state) and receives
    /// [`ActorEvent::Start`].
    pub fn recover_at(&mut self, actor: ActorId, at: Time) {
        self.push(at, Pending::Control(Control::Recover(actor)));
    }

    /// Schedules a network partition into `groups` at `at`.
    pub fn partition_at(&mut self, at: Time, groups: Vec<Vec<ActorId>>) {
        self.push(at, Pending::Control(Control::Partition(groups)));
    }

    /// Schedules healing of any partition at `at`.
    pub fn heal_at(&mut self, at: Time) {
        self.push(at, Pending::Control(Control::Heal));
    }

    /// Schedules a change of the directed link loss rate at `at`.
    pub fn set_loss_at(&mut self, at: Time, from: ActorId, to: ActorId, loss: f64) {
        self.push(at, Pending::Control(Control::SetLoss { from, to, loss }));
    }

    /// Schedules blocking/unblocking of a directed link at `at`.
    pub fn set_blocked_at(&mut self, at: Time, from: ActorId, to: ActorId, blocked: bool) {
        self.push(
            at,
            Pending::Control(Control::SetBlocked { from, to, blocked }),
        );
    }

    /// Schedules a link-degradation burst starting at `at`. `from`/`to`
    /// restrict the burst to one directed link; `None` matches any
    /// endpoint (a whole-home broker brown-out). While active, matching
    /// sends pay `spec.extra_delay`, are duplicated with
    /// `spec.dup_prob`, and are reordered with `spec.reorder_prob`
    /// (counted as `fault.link.delayed` / `.duplicated` / `.reordered`).
    pub fn burst_at(
        &mut self,
        at: Time,
        from: Option<ActorId>,
        to: Option<ActorId>,
        spec: BurstSpec,
    ) {
        self.push(at, Pending::Control(Control::Burst { from, to, spec }));
    }

    /// Runs the simulation until the queue is exhausted or virtual time
    /// would pass `deadline`; on return, `now() == deadline`. Returns
    /// the number of events processed.
    ///
    /// # Panics
    ///
    /// Panics if more than 50 million events are processed, which
    /// indicates a zero-latency message storm.
    pub fn run_until(&mut self, deadline: Time) -> u64 {
        /// A protocol bug causing a zero-latency message storm panics
        /// at this many events instead of hanging.
        const MAX_EVENTS_PER_RUN: u64 = 50_000_000;
        let mut processed = 0u64;
        while let Some(&Reverse((at, _, index))) = self.queue.peek() {
            if at > deadline {
                break;
            }
            processed += 1;
            assert!(
                processed <= MAX_EVENTS_PER_RUN,
                "simulation livelock suspected at {} (> max events per run)",
                self.now
            );
            self.queue.pop();
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.free.push(index);
            // A cancelled timer left `None` behind.
            if let Some(pending) = self.parked[index as usize].take() {
                self.dispatch(pending);
            }
        }
        self.now = deadline;
        processed
    }

    /// Runs for `d` of virtual time past the current instant.
    pub fn run_for(&mut self, d: Duration) -> u64 {
        self.run_until(self.now + d)
    }

    fn push(&mut self, at: Time, pending: Pending) {
        let index = match self.free.pop() {
            Some(index) => {
                self.parked[index as usize] = Some(pending);
                index
            }
            None => {
                let index = u32::try_from(self.parked.len()).expect("under 2^32 queued items");
                self.parked.push(Some(pending));
                index
            }
        };
        self.queue.push(Reverse((at, self.seq, index)));
        self.seq += 1;
    }

    fn dispatch(&mut self, pending: Pending) {
        match pending {
            Pending::Start { actor, inc } => {
                if self.slots[actor.0 as usize].incarnation == inc {
                    self.fire(actor, ActorEvent::Start);
                }
            }
            Pending::Deliver {
                from,
                to,
                to_inc,
                payload,
            } => {
                let slot = &self.slots[to.0 as usize];
                if slot.instance.is_none() || slot.incarnation != to_inc {
                    self.metrics.record_drop(DropReason::DestinationDown);
                    return;
                }
                self.metrics.record_delivery();
                self.fire(to, ActorEvent::Message { from, payload });
            }
            Pending::Timer { actor, inc, token } => {
                let slot = &self.slots[actor.0 as usize];
                if slot.instance.is_none() || slot.incarnation != inc {
                    return;
                }
                self.metrics.record_timer();
                self.fire(actor, ActorEvent::Timer { token });
            }
            Pending::Control(control) => self.apply_control(control),
        }
    }

    fn apply_control(&mut self, control: Control) {
        match control {
            Control::Crash(actor) => {
                let slot = &mut self.slots[actor.0 as usize];
                if slot.instance.take().is_some() {
                    let key = u64::from(actor.0);
                    self.metrics.obs.event("net.crash", self.now, key, 0);
                }
            }
            Control::Recover(actor) => {
                let slot = &mut self.slots[actor.0 as usize];
                if slot.instance.is_none() {
                    slot.incarnation += 1;
                    slot.instance = Some((slot.factory)());
                    let inc = slot.incarnation;
                    self.metrics.obs.event(
                        "net.recover",
                        self.now,
                        u64::from(actor.0),
                        u64::from(inc),
                    );
                    self.push(self.now, Pending::Start { actor, inc });
                }
            }
            Control::Partition(groups) => self.topology.set_partition(&groups),
            Control::Heal => self.topology.heal_partition(),
            Control::SetLoss { from, to, loss } => self.topology.set_loss(from, to, loss),
            Control::SetBlocked { from, to, blocked } => {
                self.topology.set_blocked(from, to, blocked);
            }
            Control::Burst { from, to, spec } => {
                let key = u64::from(from.map_or(u32::MAX, |a| a.0));
                self.metrics.obs.event("fault.link.burst", self.now, key, 0);
                self.bursts.push(ActiveBurst {
                    from,
                    to,
                    until: self.now + spec.duration,
                    spec,
                });
            }
        }
    }

    /// Runs one event handler and applies its effects.
    fn fire(&mut self, actor: ActorId, event: ActorEvent) {
        let mut instance = self.slots[actor.0 as usize]
            .instance
            .take()
            .expect("fire() requires a live actor");
        let mut ctx = Context::new(actor, self.now, &mut self.rng);
        ctx.effects = std::mem::take(&mut self.effects);
        instance.on_event(&mut ctx, event);
        let mut effects = std::mem::take(&mut ctx.effects);
        self.slots[actor.0 as usize].instance = Some(instance);
        for effect in effects.drain(..) {
            self.apply_effect(actor, effect);
        }
        self.effects = effects;
    }

    /// Applies active bursts to a routed delivery: returns the
    /// (possibly delayed) arrival time plus an optional duplicate
    /// arrival time. The driver RNG is consulted only while a matching
    /// burst is in force, so runs that never schedule a burst are
    /// bit-identical to runs on a burst-free driver.
    fn apply_bursts(&mut self, from: ActorId, to: ActorId, at: Time) -> (Time, Option<Time>) {
        if self.bursts.is_empty() {
            return (at, None);
        }
        let now = self.now;
        self.bursts.retain(|b| b.until > now);
        let mut at = at;
        let mut dup = None;
        for b in &self.bursts {
            if !b.matches(from, to) {
                continue;
            }
            if b.spec.extra_delay > Duration::ZERO {
                at += b.spec.extra_delay;
                self.metrics.obs.inc("fault.link.delayed");
            }
            if b.spec.reorder_prob > 0.0 && self.rng.gen::<f64>() < b.spec.reorder_prob {
                let jitter = b.spec.extra_delay.mul_f64(2.0 * self.rng.gen::<f64>());
                at += jitter;
                self.metrics.obs.inc("fault.link.reordered");
            }
            if b.spec.dup_prob > 0.0 && self.rng.gen::<f64>() < b.spec.dup_prob {
                dup = Some(at);
                self.metrics.obs.inc("fault.link.duplicated");
            }
        }
        (at, dup)
    }

    fn apply_effect(&mut self, actor: ActorId, effect: Effect) {
        match effect {
            Effect::Send { to, payload } => {
                assert!(
                    (to.0 as usize) < self.slots.len(),
                    "send to unregistered actor {to}"
                );
                let wifi = self.topology.class_of(actor) == ActorClass::Process
                    && self.topology.class_of(to) == ActorClass::Process;
                self.metrics.record_send(payload.len(), wifi);
                let verdict = self.topology.route(
                    &mut self.rng,
                    self.now,
                    actor,
                    to,
                    payload.len(),
                    true, // liveness is re-checked at delivery time
                );
                match verdict {
                    Verdict::Deliver(at) => {
                        let (at, duplicate_at) = self.apply_bursts(actor, to, at);
                        let to_inc = self.slots[to.0 as usize].incarnation;
                        if let Some(dup_at) = duplicate_at {
                            self.push(
                                dup_at,
                                Pending::Deliver {
                                    from: actor,
                                    to,
                                    to_inc,
                                    payload: payload.clone(),
                                },
                            );
                        }
                        self.push(
                            at,
                            Pending::Deliver {
                                from: actor,
                                to,
                                to_inc,
                                payload,
                            },
                        );
                    }
                    Verdict::Drop(reason) => self.metrics.record_drop(reason),
                }
            }
            Effect::SetTimer { token, after } => {
                let inc = self.slots[actor.0 as usize].incarnation;
                self.push(self.now + after, Pending::Timer { actor, inc, token });
            }
            Effect::CancelTimer { token } => {
                // In place: the timers this actor queued with `token`,
                // its sets earlier in this activation included, become
                // `None`, which the run loop skips.
                for parked in &mut self.parked {
                    if matches!(parked, Some(Pending::Timer { actor: a, token: t, .. })
                        if *a == actor && *t == token)
                    {
                        *parked = None;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Counts events it receives and optionally replies.
    struct Probe {
        peer: Option<ActorId>,
        starts: Arc<AtomicU64>,
        messages: Arc<AtomicU64>,
        timers: Arc<AtomicU64>,
    }

    impl Probe {
        fn new() -> (Self, Arc<AtomicU64>, Arc<AtomicU64>, Arc<AtomicU64>) {
            let s = Arc::new(AtomicU64::new(0));
            let m = Arc::new(AtomicU64::new(0));
            let t = Arc::new(AtomicU64::new(0));
            (
                Self {
                    peer: None,
                    starts: Arc::clone(&s),
                    messages: Arc::clone(&m),
                    timers: Arc::clone(&t),
                },
                s,
                m,
                t,
            )
        }
    }

    impl Actor for Probe {
        fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent) {
            match event {
                ActorEvent::Start => {
                    self.starts.fetch_add(1, Ordering::SeqCst);
                    if let Some(peer) = self.peer {
                        ctx.send(peer, Bytes::from_static(b"hello"));
                    }
                }
                ActorEvent::Message { .. } => {
                    self.messages.fetch_add(1, Ordering::SeqCst);
                }
                ActorEvent::Timer { .. } => {
                    self.timers.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
    }

    #[test]
    fn message_delivery_advances_virtual_time() {
        let mut net = SimNet::new(SimConfig::with_seed(1));
        let (probe, _, msgs, _) = Probe::new();
        let receiver = net.add_actor("rx", ActorClass::Process, {
            let mut probe = Some(probe);
            move || Box::new(probe.take().expect("built once"))
        });
        let (mut sender, ..) = Probe::new();
        sender.peer = Some(receiver);
        let mut s = Some(sender);
        net.add_actor("tx", ActorClass::Process, move || {
            Box::new(s.take().expect("built once"))
        });
        net.run_until(Time::from_secs(1));
        assert_eq!(msgs.load(Ordering::SeqCst), 1);
        assert_eq!(net.now(), Time::from_secs(1));
        assert_eq!(net.metrics().messages_sent, 1);
        assert_eq!(net.metrics().messages_delivered, 1);
    }

    /// An actor that arms a periodic timer and counts firings.
    struct Ticker {
        period: Duration,
        fired: Arc<AtomicU64>,
        cancel_after: Option<u64>,
    }

    impl Actor for Ticker {
        fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent) {
            match event {
                ActorEvent::Start => ctx.set_timer(self.period, 1),
                ActorEvent::Timer { token: 1 } => {
                    let n = self.fired.fetch_add(1, Ordering::SeqCst) + 1;
                    if self.cancel_after == Some(n) {
                        ctx.set_timer(self.period, 1);
                        ctx.cancel_timer(1);
                    } else {
                        ctx.set_timer(self.period, 1);
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn periodic_timer_fires_expected_count() {
        let mut net = SimNet::new(SimConfig::with_seed(2));
        let fired = Arc::new(AtomicU64::new(0));
        let f = Arc::clone(&fired);
        net.add_actor("tick", ActorClass::Process, move || {
            Box::new(Ticker {
                period: Duration::from_millis(100),
                fired: Arc::clone(&f),
                cancel_after: None,
            })
        });
        net.run_until(Time::from_secs(1));
        // Timers at 100ms..1000ms inclusive = 10 firings.
        assert_eq!(fired.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn cancel_timer_stops_future_firings() {
        let mut net = SimNet::new(SimConfig::with_seed(2));
        let fired = Arc::new(AtomicU64::new(0));
        let f = Arc::clone(&fired);
        net.add_actor("tick", ActorClass::Process, move || {
            Box::new(Ticker {
                period: Duration::from_millis(100),
                fired: Arc::clone(&f),
                cancel_after: Some(3),
            })
        });
        net.run_until(Time::from_secs(1));
        assert_eq!(fired.load(Ordering::SeqCst), 3);
    }

    /// What a [`Scripted`] actor does to its timers.
    #[derive(Clone, Copy)]
    enum Op {
        Set { after_ms: u64, token: u64 },
        Cancel(u64),
    }

    /// Runs `ops[i].1` when `ops[i].0` fires (token 0 stands for
    /// Start) and logs every timer that fires as `(time, actor, token)`.
    struct Scripted {
        ops: Vec<(u64, Op)>,
        log: Arc<std::sync::Mutex<Vec<(Time, ActorId, u64)>>>,
    }

    impl Actor for Scripted {
        fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent) {
            let trigger = match event {
                ActorEvent::Start => 0,
                ActorEvent::Timer { token } => {
                    self.log.lock().unwrap().push((ctx.now(), ctx.id(), token));
                    token
                }
                ActorEvent::Message { .. } => return,
            };
            for &(_, op) in self.ops.iter().filter(|(t, _)| *t == trigger) {
                match op {
                    Op::Set { after_ms, token } => {
                        ctx.set_timer(Duration::from_millis(after_ms), token);
                    }
                    Op::Cancel(token) => ctx.cancel_timer(token),
                }
            }
        }
    }

    /// Runs one [`Scripted`] actor per entry of `actors` for a second
    /// and returns the timers that fired, in dispatch order.
    fn scripted(actors: Vec<Vec<(u64, Op)>>) -> Vec<(Time, ActorId, u64)> {
        let mut net = SimNet::new(SimConfig::with_seed(8));
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        for ops in actors {
            let log = Arc::clone(&log);
            net.add_actor("scripted", ActorClass::Process, move || {
                Box::new(Scripted {
                    ops: ops.clone(),
                    log: Arc::clone(&log),
                })
            });
        }
        net.run_until(Time::from_secs(1));
        let log = log.lock().unwrap().clone();
        log
    }

    const fn set(after_ms: u64, token: u64) -> Op {
        Op::Set { after_ms, token }
    }

    #[test]
    fn same_instant_items_dispatch_in_push_order_after_places_are_reused() {
        // Four timers fire at 1 ms and free their places; the last
        // re-arms six timers for one instant, the first four into
        // those places, which the free list hands out last-freed first.
        let mut ops: Vec<(u64, Op)> = (1..=4).map(|token| (0, set(1, token))).collect();
        ops.extend((10..16).map(|token| (4, set(5, token))));
        let log = scripted(vec![ops]);
        let at_6ms: Vec<u64> = log
            .iter()
            .filter(|(at, ..)| *at == Time::from_millis(6))
            .map(|&(.., token)| token)
            .collect();
        assert_eq!(at_6ms, (10..16).collect::<Vec<_>>());
    }

    #[test]
    fn a_cancel_after_a_set_in_one_activation_cancels_it() {
        let log = scripted(vec![vec![(0, set(10, 7)), (0, Op::Cancel(7))]]);
        assert_eq!(log, vec![]);
    }

    #[test]
    fn a_set_after_a_cancel_survives() {
        let ops = vec![(0, set(10, 7)), (0, Op::Cancel(7)), (0, set(20, 7))];
        let log = scripted(vec![ops]);
        assert_eq!(log, vec![(Time::from_millis(20), ActorId(0), 7)]);
    }

    #[test]
    fn a_cancel_never_touches_another_actors_timer_with_the_same_token() {
        // Actor 1 cancels token 7 while actor 0's token-7 timer is queued.
        let log = scripted(vec![vec![(0, set(10, 7))], vec![(0, Op::Cancel(7))]]);
        assert_eq!(log, vec![(Time::from_millis(10), ActorId(0), 7)]);
    }

    #[test]
    fn crash_drops_inflight_and_recovery_restarts_fresh() {
        let mut net = SimNet::new(SimConfig::with_seed(3));
        net.recorder().set_enabled(true);
        let (probe, starts, msgs, _) = Probe::new();
        let mut p = Some(probe);
        let starts2 = Arc::clone(&starts);
        let msgs2 = Arc::clone(&msgs);
        let rx = net.add_actor("rx", ActorClass::Process, move || {
            // First build uses the probe with shared counters; rebuilds
            // construct an identical fresh probe sharing the counters.
            match p.take() {
                Some(probe) => Box::new(probe),
                None => {
                    let fresh = Probe {
                        peer: None,
                        starts: Arc::clone(&starts2),
                        messages: Arc::clone(&msgs2),
                        timers: Arc::new(AtomicU64::new(0)),
                    };
                    Box::new(fresh)
                }
            }
        });
        // Sender that fires one message per 100ms.
        struct Spammer {
            to: ActorId,
        }
        impl Actor for Spammer {
            fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent) {
                match event {
                    ActorEvent::Start => ctx.set_timer(Duration::from_millis(100), 1),
                    ActorEvent::Timer { .. } => {
                        ctx.send(self.to, Bytes::from_static(b"x"));
                        ctx.set_timer(Duration::from_millis(100), 1);
                    }
                    _ => {}
                }
            }
        }
        net.add_actor("tx", ActorClass::Process, move || {
            Box::new(Spammer { to: rx })
        });
        net.crash_at(rx, Time::from_millis(450));
        net.recover_at(rx, Time::from_millis(850));
        net.run_until(Time::from_secs(1));
        // Start at t=0 and again on recovery.
        assert_eq!(starts.load(Ordering::SeqCst), 2);
        // Messages at ~102,202,302,402 delivered (4), 502..802 dropped,
        // 902, 1002(>1s? timer at 1000 sends, delivery 1002 > deadline).
        let delivered = msgs.load(Ordering::SeqCst);
        assert_eq!(delivered, 5, "4 before crash + 1 after recovery");
        assert!(net.obs_snapshot().counter("net.drops.destination_down") >= 3);
        assert!(net.is_up(rx));
    }

    #[test]
    fn crash_is_idempotent_and_recover_noop_when_up() {
        let mut net = SimNet::new(SimConfig::with_seed(4));
        let (probe, starts, ..) = Probe::new();
        let mut p = Some(probe);
        let a = net.add_actor("a", ActorClass::Process, move || match p.take() {
            Some(probe) => Box::new(probe),
            None => panic!("should not rebuild"),
        });
        net.recover_at(a, Time::from_millis(10)); // already up: no-op
        net.run_until(Time::from_secs(1));
        assert_eq!(starts.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn partition_script_blocks_and_heals() {
        let mut net = SimNet::new(SimConfig::with_seed(5));
        let (rx_probe, _, msgs, _) = Probe::new();
        let mut p = Some(rx_probe);
        let rx = net.add_actor("rx", ActorClass::Process, move || {
            Box::new(p.take().expect("once"))
        });
        struct Spammer {
            to: ActorId,
        }
        impl Actor for Spammer {
            fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent) {
                match event {
                    ActorEvent::Start => ctx.set_timer(Duration::from_millis(100), 1),
                    ActorEvent::Timer { .. } => {
                        ctx.send(self.to, Bytes::from_static(b"x"));
                        ctx.set_timer(Duration::from_millis(100), 1);
                    }
                    _ => {}
                }
            }
        }
        let tx = net.add_actor("tx", ActorClass::Process, move || {
            Box::new(Spammer { to: rx })
        });
        net.partition_at(Time::from_millis(250), vec![vec![tx], vec![rx]]);
        net.heal_at(Time::from_millis(650));
        net.run_until(Time::from_secs(1));
        // Sends at 100,200 delivered; 300..600 blocked; 700..1000 delivered
        // (1000 delivers at 1002 > deadline, so 700,800,900 = 3).
        assert_eq!(msgs.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn scheduled_loss_change_applies() {
        let mut net = SimNet::new(SimConfig::with_seed(6));
        let (rx_probe, _, msgs, _) = Probe::new();
        let mut p = Some(rx_probe);
        let rx = net.add_actor("rx", ActorClass::Process, move || {
            Box::new(p.take().expect("once"))
        });
        struct Spammer {
            to: ActorId,
        }
        impl Actor for Spammer {
            fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent) {
                match event {
                    ActorEvent::Start => ctx.set_timer(Duration::from_millis(10), 1),
                    ActorEvent::Timer { .. } => {
                        ctx.send(self.to, Bytes::from_static(b"x"));
                        ctx.set_timer(Duration::from_millis(10), 1);
                    }
                    _ => {}
                }
            }
        }
        let tx = net.add_actor("tx", ActorClass::Device, move || {
            Box::new(Spammer { to: rx })
        });
        net.set_loss_at(Time::from_millis(500), tx, rx, 1.0);
        net.run_until(Time::from_secs(1));
        let got = msgs.load(Ordering::SeqCst);
        // ~50 sends before the loss change, none after.
        assert!((45..=50).contains(&got), "got {got}");
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        fn run(seed: u64) -> (u64, u64) {
            let mut net = SimNet::new(SimConfig::with_seed(seed));
            net.recorder().set_enabled(true);
            let (rx_probe, _, msgs, _) = Probe::new();
            let mut p = Some(rx_probe);
            let rx = net.add_actor("rx", ActorClass::Process, move || {
                Box::new(p.take().expect("once"))
            });
            struct Spammer {
                to: ActorId,
            }
            impl Actor for Spammer {
                fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent) {
                    match event {
                        ActorEvent::Start => ctx.set_timer(Duration::from_millis(5), 1),
                        ActorEvent::Timer { .. } => {
                            ctx.send(self.to, Bytes::from_static(b"x"));
                            ctx.set_timer(Duration::from_millis(5), 1);
                        }
                        _ => {}
                    }
                }
            }
            let tx = net.add_actor("tx", ActorClass::Device, move || {
                Box::new(Spammer { to: rx })
            });
            net.topology_mut().set_loss(tx, rx, 0.3);
            net.run_until(Time::from_secs(2));
            let drops = net.obs_snapshot().counter("net.drops.random_loss");
            (msgs.load(Ordering::SeqCst), drops)
        }
        assert_eq!(run(42), run(42));
        assert_ne!(
            run(42).0,
            run(43).0,
            "different seeds should differ (w.h.p.)"
        );
    }

    #[test]
    fn topology_accessors() {
        let mut net = SimNet::new(SimConfig::default());
        let (probe, ..) = Probe::new();
        let mut p = Some(probe);
        let a = net.add_actor("hub", ActorClass::Process, move || {
            Box::new(p.take().expect("once"))
        });
        assert_eq!(net.topology().class_of(a), ActorClass::Process);
        net.topology_mut().set_link(a, a, LinkConfig::severed());
        assert!(net.topology().link(a, a).blocked);
    }

    /// Sends `b"x"` to each of `to` every 10 ms and logs every arrival
    /// as `(time, from, to)`.
    struct Node {
        to: Vec<ActorId>,
        log: Arc<std::sync::Mutex<Vec<(Time, ActorId, ActorId)>>>,
    }

    impl Actor for Node {
        fn on_event(&mut self, ctx: &mut Context<'_>, event: ActorEvent) {
            match event {
                ActorEvent::Start => ctx.set_timer(Duration::from_millis(10), 1),
                ActorEvent::Timer { .. } => {
                    for &to in &self.to {
                        ctx.send(to, Bytes::from_static(b"x"));
                    }
                    ctx.set_timer(Duration::from_millis(10), 1);
                }
                ActorEvent::Message { from, .. } => {
                    self.log.lock().unwrap().push((ctx.now(), from, ctx.id()));
                }
            }
        }
    }

    const A: ActorId = ActorId(0);
    const B: ActorId = ActorId(1);
    const RX: ActorId = ActorId(2);

    /// `A` and `B` send to `RX` and `RX` sends to `A`, every 10 ms for
    /// 200 ms, after `script` has scheduled its faults. Returns the
    /// sorted arrival log and the driver.
    fn three_node_run(script: impl FnOnce(&mut SimNet)) -> (Vec<(Time, ActorId, ActorId)>, SimNet) {
        let mut net = SimNet::new(SimConfig::with_seed(9));
        net.recorder().set_enabled(true);
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        for to in [vec![RX], vec![RX], vec![A]] {
            let log = Arc::clone(&log);
            net.add_actor("node", ActorClass::Process, move || {
                Box::new(Node {
                    to: to.clone(),
                    log: Arc::clone(&log),
                })
            });
        }
        script(&mut net);
        net.run_until(Time::from_millis(200));
        let mut log = log.lock().unwrap().clone();
        log.sort_unstable();
        (log, net)
    }

    fn fault_count(net: &SimNet, name: &str) -> u64 {
        net.obs_snapshot().counter(name)
    }

    #[test]
    fn delay_burst_shifts_every_arrival_by_its_extra_delay() {
        let extra = Duration::from_millis(5);
        let (base, _) = three_node_run(|_| {});
        let (log, net) = three_node_run(|net| {
            net.burst_at(
                Time::ZERO,
                None,
                None,
                BurstSpec::delay(Duration::from_secs(1), extra),
            );
        });
        let shifted: Vec<_> = base.iter().map(|&(t, f, to)| (t + extra, f, to)).collect();
        assert!(!log.is_empty());
        assert_eq!(log, shifted);
        assert_eq!(
            fault_count(&net, "fault.link.delayed"),
            net.metrics().messages_sent
        );
        assert_eq!(fault_count(&net, "fault.link.duplicated"), 0);
    }

    #[test]
    fn certain_duplication_delivers_every_send_twice() {
        let (base, _) = three_node_run(|_| {});
        let (log, net) = three_node_run(|net| {
            let spec = BurstSpec {
                dup_prob: 1.0,
                ..BurstSpec::delay(Duration::from_secs(1), Duration::ZERO)
            };
            net.burst_at(Time::ZERO, None, None, spec);
        });
        let twice: Vec<_> = base.iter().flat_map(|&e| [e, e]).collect();
        assert_eq!(log, twice);
        assert_eq!(
            fault_count(&net, "fault.link.duplicated"),
            net.metrics().messages_sent
        );
        assert_eq!(fault_count(&net, "fault.link.delayed"), 0);
    }

    #[test]
    fn a_burst_matches_only_the_directed_link_it_names() {
        let extra = Duration::from_millis(5);
        let (base, _) = three_node_run(|_| {});
        let (log, net) = three_node_run(|net| {
            let spec = BurstSpec::delay(Duration::from_secs(1), extra);
            net.burst_at(Time::ZERO, Some(A), Some(RX), spec);
        });
        let mut expected: Vec<_> = base
            .iter()
            .map(|&(t, from, to)| {
                let hit = (from, to) == (A, RX);
                (if hit { t + extra } else { t }, from, to)
            })
            .collect();
        expected.sort_unstable();
        assert_eq!(log, expected);
        // B → RX and the reverse direction RX → A are untouched.
        assert!(log.iter().any(|&(_, from, to)| (from, to) == (B, RX)));
        assert!(log.iter().any(|&(_, from, to)| (from, to) == (RX, A)));
        assert_eq!(
            fault_count(&net, "fault.link.delayed"),
            net.metrics().messages_sent / 3
        );
    }

    #[test]
    fn an_expired_burst_leaves_the_run_bit_identical() {
        // Lossy links draw from the driver RNG on every send, so a burst
        // that consulted it after expiring would change which messages
        // are lost.
        let lossy = |net: &mut SimNet| {
            net.topology_mut().set_loss(A, RX, 0.5);
            net.topology_mut().set_loss(RX, A, 0.5);
        };
        let (base, base_net) = three_node_run(lossy);
        let (log, net) = three_node_run(|net| {
            lossy(net);
            let spec = BurstSpec {
                dup_prob: 1.0,
                reorder_prob: 1.0,
                ..BurstSpec::delay(Duration::from_millis(5), Duration::from_millis(5))
            };
            // Over before the first send at 10 ms.
            net.burst_at(Time::ZERO, None, None, spec);
        });
        assert_eq!(log, base);
        let (m, b) = (net.metrics(), base_net.metrics());
        let lost = |net: &SimNet| fault_count(net, "net.drops.random_loss");
        assert_eq!(
            (m.messages_sent, m.messages_delivered, lost(&net)),
            (b.messages_sent, b.messages_delivered, lost(&base_net))
        );
        assert!(lost(&base_net) > 0, "the loss draws happened");
        for name in [
            "fault.link.delayed",
            "fault.link.duplicated",
            "fault.link.reordered",
        ] {
            assert_eq!(fault_count(&net, name), 0, "{name}");
        }
    }
}
