//! Durability gating: the one place where "durable before
//! acknowledged" is decided.
//!
//! A durable process appends every newly stored event to its
//! write-ahead log and must not claim it — deliver it, advertise its
//! receipt (which is the acknowledgement), relay a broadcast of it, or
//! be the first to put it on the ring — before the append is on disk.
//! [`DurableGate`] owns that rule: it holds the log, the actions
//! waiting on it (in arrival order) and the bound on how many may
//! wait, and it hands actions back only as [`Released`],
//! the sole type the process runtime applies deliveries from. The one
//! thing the gate is never asked about is a ring *relay* of an event a
//! peer's disk already backs; DESIGN §4.2 ("Durability gating") states
//! the rule in full. Nothing here touches a driver, so the rule is
//! unit-tested against a simulated disk.
//!
//! The gate also keeps the disk's one clock: a durable mark over the
//! withheld actions, at most one running flush, and whether a batch is
//! queued behind it. A flush completes [`StorageBackend::sync_cost`]
//! after it starts, flushes run one at a time, and nothing a flush
//! covers leaves before it completes. An append somebody waits on — an
//! event this process ingested, whose first forward and express copy
//! wait on it, or a delivery to an app running here — starts a flush at
//! once when the disk is idle, and otherwise joins the batch that starts
//! when the running flush completes (group commit by waiters). A flush
//! started during one of the owner's activations takes every append of
//! that activation with it: it reaches the disk when the activation ends
//! ([`DurableGate::end_turn`]).
//!
//! A delivery to a local app leaves as soon as its flush completes;
//! everything else leaves at the flush policy's first release point at
//! or after durability — the `EveryInterval` beat, the completion of an
//! `EveryN` flush, the tick backstop, the bound or a checkpoint — so a
//! process's sends still leave together. The owner wakes the gate at
//! the running flush's completion only when something leaves then:
//! under `EveryN` when that flush covers more than is durable or a
//! batch is queued behind it, under `EveryInterval` when a local
//! delivery sits past the durable mark. `end_turn` works that out once
//! per activation, from the state alone.
//!
//! A fixed bound stalls bursty workloads (every burst larger than the
//! cap pays a forced flush) and over-delays sparse ones, so the gate
//! grows the bound multiplicatively when bursts force flushes and
//! shrinks it when flushes fire at low depth, following the adaptive
//! group-commit argument of the user-space WAL literature: batch size
//! should track observed arrival pressure, not a constant.

use std::collections::BTreeMap;
use std::sync::Arc;

use rivulet_obs::Recorder;
use rivulet_storage::{
    Checkpoint, FlushPolicy, LedgerEntry, Recovered, StorageBackend, Wal, WalOptions,
};
use rivulet_types::{Duration, SensorId, Time};

use crate::delivery::Action;

/// The bound a process's gate starts from.
const GATE_INITIAL: usize = 512;
/// Multiplicative step of the bound's growth and shrink.
const GATE_STEP: usize = 2;
/// The bound grows to at most this.
const GATE_MAX: usize = GATE_INITIAL * 16;

/// Actions a [`DurableGate`] has let through: every event they carry
/// or advertise is on disk (or the process keeps nothing on disk).
/// Only the gate can build one, and the process runtime delivers events
/// from nothing else.
///
/// Its buffer is one the caller handed the gate; applying it returns
/// the buffer, empty, for the caller's next actions, so a process
/// passes the same buffer back and forth instead of allocating per
/// event.
#[derive(Debug, Default, PartialEq)]
pub struct Released(Vec<Action>);

impl Released {
    /// Hands every released action to `apply`, in order, and returns the
    /// emptied buffer.
    pub fn apply(mut self, mut apply: impl FnMut(Action)) -> Vec<Action> {
        for action in self.0.drain(..) {
            apply(action);
        }
        self.0
    }
}

/// One action the gate holds.
#[derive(Debug)]
struct Withheld {
    action: Action,
    /// When it came in, for `wal.gate_wait_us`.
    at: Time,
    /// A delivery to an app running on this process: it leaves as soon
    /// as the flush covering it completes.
    local: bool,
}

/// A flush on the disk's timeline.
#[derive(Debug, Clone, Copy)]
struct Flight {
    /// When it started; it completes one sync later.
    start: Time,
    /// Withheld actions `..covers` are durable once it completes.
    covers: usize,
    /// Whether it has been written: until then, appends made at its
    /// start instant join it.
    written: bool,
}

/// The write-ahead log of one process together with everything that
/// waits on it.
///
/// Without storage the gate is transparent: [`DurableGate::admit`]
/// releases its input at once and every other method is a no-op, which
/// is the paper's all-volatile model.
#[derive(Debug)]
pub struct DurableGate {
    wal: Option<Wal>,
    /// How many actions may wait behind un-flushed appends before a
    /// group commit is forced. Multiplicative increase, multiplicative
    /// decrease: a forced flush means a burst outran it, so it doubles
    /// (up to [`GATE_MAX`]) and the next burst batches more per fsync;
    /// an idle flush (timer, backstop, checkpoint) below a quarter of
    /// it means batches no longer fill, so it halves (never below 1)
    /// and a later trickle is not held to a burst-sized batch.
    bound: usize,
    /// Actions held back, in arrival order, until the appends they
    /// depend on are flushed (group commit).
    withheld: Vec<Withheld>,
    /// How long one flush occupies the disk.
    sync: Duration,
    /// Withheld actions `..durable` are covered by completed flushes.
    durable: usize,
    /// The running flush.
    running: Option<Flight>,
    /// Appends somebody waits on came in while the disk was busy: they
    /// start one batch when the running flush completes.
    queued: bool,
    /// The last completion the owner was asked to wake the gate at.
    woken: Option<Time>,
    obs: Recorder,
}

impl DurableGate {
    /// Opens the log on `storage` (if any) and returns the gate with
    /// the durable prefix found there; without storage the prefix is
    /// empty. The gate's disk takes the backend's
    /// [`StorageBackend::sync_cost`] per flush.
    ///
    /// # Panics
    ///
    /// Panics when the backend fails: a process that cannot read its
    /// log must not run on a guess.
    #[must_use]
    pub fn open(
        storage: Option<(Arc<dyn StorageBackend>, WalOptions)>,
        obs: &Recorder,
    ) -> (Self, Recovered) {
        let (wal, recovered, sync) = match storage {
            None => (None, Recovered::default(), Duration::ZERO),
            Some((backend, options)) => {
                let sync = backend.sync_cost();
                let (mut wal, recovered) = Wal::open(backend, options).expect("wal open");
                wal.attach_recorder(obs.clone());
                obs.inc("wal.recoveries");
                obs.add("wal.recovered_events", recovered.events.len() as u64);
                obs.add("wal.recovery_dropped_bytes", recovered.dropped_bytes as u64);
                (Some(wal), recovered, sync)
            }
        };
        let gate = Self {
            wal,
            bound: GATE_INITIAL,
            withheld: Vec::new(),
            sync,
            durable: 0,
            running: None,
            queued: false,
            woken: None,
            obs: obs.clone(),
        };
        (gate, recovered)
    }

    /// The current group-commit bound; `None` without storage.
    #[must_use]
    pub fn bound(&self) -> Option<usize> {
        self.wal.as_ref().map(|_| self.bound)
    }

    /// The period of the flush timer the owner must run, when the
    /// flush policy is time-based.
    #[must_use]
    pub fn flush_interval(&self) -> Option<Duration> {
        match self.wal.as_ref()?.options().flush_policy {
            FlushPolicy::EveryInterval(period) => Some(period),
            FlushPolicy::EveryN(_) => None,
        }
    }

    /// Ends one activation of the owner: a flush started during it is
    /// written now, with every append the activation made. Returns the
    /// running flush's completion when the owner must wake the gate
    /// there with [`DurableGate::on_sync`], once per instant: under
    /// `EveryN` when the flush covers more than is durable or a batch
    /// is queued behind it, under `EveryInterval` when a local delivery
    /// sits past the durable mark.
    pub fn end_turn(&mut self) -> Option<Time> {
        self.write_flight();
        let flight = self.running?;
        let wanted = if self.flush_interval().is_none() {
            flight.covers > self.durable || self.queued
        } else {
            self.withheld[self.durable..].iter().any(|w| w.local)
        };
        let done = flight.start + self.sync;
        if !wanted || self.woken == Some(done) {
            return None;
        }
        self.woken = Some(done);
        Some(done)
    }

    /// Takes delivery-service actions in at `now`. Every freshly stored
    /// event (each `Deliver` carries exactly one) is appended to the log
    /// and no action handed in — delivery, the ingest process's first
    /// ring forward, broadcast relay or ack — comes back out until the
    /// flush covering the append has completed. The appends start a
    /// flush now (or join the batch queued behind the running one) when
    /// somebody waits on them: `ingested` says the actions are this
    /// process's ingest of a sensor event, and `local` names the
    /// sensors an app running here subscribes to. Nobody waits on a
    /// relay's or a shadow's copies: they flush at the policy's release
    /// points. The released actions come back in `actions` itself,
    /// emptied first.
    pub fn admit(
        &mut self,
        now: Time,
        mut actions: Vec<Action>,
        ingested: bool,
        local: impl Fn(SensorId) -> bool,
    ) -> Released {
        if self.wal.is_none() || actions.is_empty() {
            return Released(actions);
        }
        // The disk's clock first: a batch queued behind a flush that
        // completed before `now` started without these appends.
        self.settle(now);
        let wal = self.wal.as_mut().expect("durable");
        let mut appended = false;
        let mut awaited = ingested;
        for action in actions.drain(..) {
            let mut is_local = false;
            if let Action::Deliver { event } = &action {
                wal.buffer_event(event);
                appended = true;
                is_local = local(event.id.sensor);
            }
            awaited |= is_local;
            self.withheld.push(Withheld {
                action,
                at: now,
                local: is_local,
            });
        }
        let pending = wal.pending_events();
        let count = match wal.options().flush_policy {
            FlushPolicy::EveryN(n) => pending >= n.max(1),
            FlushPolicy::EveryInterval(_) => false,
        };
        if appended && awaited || count {
            self.start_or_queue(now);
        } else if !appended && pending == 0 && !self.queued {
            // Nothing new to write: these actions wait only on flushes
            // already running or complete.
            let len = self.withheld.len();
            match &mut self.running {
                Some(flight) => flight.covers = len,
                None => self.durable = len,
            }
        }
        let at_bound = self.withheld.len() >= self.bound;
        if at_bound {
            // Back-pressure: a burst outran the flush policy. Force the
            // group commit of whatever no flush is writing yet and
            // release what is durable, so withheld actions (and their
            // memory) stay bounded; the bound grows so the next burst
            // batches more per flush.
            if self.unflushed() {
                self.start_or_queue(now);
                self.obs.inc("wal.forced_flushes");
            }
            self.bound = (self.bound * GATE_STEP).min(GATE_MAX);
        }
        self.release(now, actions, at_bound)
    }

    /// The policy's release point: the `EveryInterval` timer or — under
    /// a policy without one — the periodic tick as a backstop, so an
    /// `EveryN` batch that never fills cannot strand its actions. Starts
    /// a flush of whatever is buffered and releases everything already
    /// durable. A flush at low depth is the signal that bursts have
    /// subsided: the bound walks back. The released actions come back
    /// in `spare`, an empty buffer of the caller's.
    pub fn flush(&mut self, now: Time, spare: Vec<Action>) -> Released {
        let Some(wal) = self.wal.as_ref() else {
            return Released(spare);
        };
        if wal.pending_events() == 0 && self.withheld.is_empty() {
            return Released(spare);
        }
        self.settle(now);
        if self.unflushed() {
            self.start_or_queue(now);
        }
        self.idle_flush();
        self.release(now, spare, true)
    }

    /// The owner's wake-up at a completion [`DurableGate::end_turn`]
    /// named: local deliveries the flush covered leave (under `EveryN`,
    /// everything it covered), and a batch queued behind it starts.
    pub fn on_sync(&mut self, now: Time, spare: Vec<Action>) -> Released {
        if self.wal.is_none() {
            return Released(spare);
        }
        self.release(now, spare, false)
    }

    /// Writes a checkpoint of the `processed` watermarks and compacts
    /// the segments they cover. The checkpoint's flush takes whatever
    /// is buffered along and occupies the disk like any other; it is a
    /// release point for everything already durable, returned in
    /// `spare` as in [`DurableGate::flush`]. At low depth it also
    /// counts as an idle flush for the bound.
    pub fn checkpoint(
        &mut self,
        now: Time,
        processed: &BTreeMap<SensorId, u64>,
        spare: Vec<Action>,
    ) -> Released {
        if self.wal.is_none() {
            return Released(spare);
        }
        self.settle(now);
        let wal = self.wal.as_mut().expect("durable");
        wal.append_checkpoint(&Checkpoint {
            at: now,
            processed: processed.iter().map(|(s, q)| (*s, *q)).collect(),
        })
        .expect("wal checkpoint");
        let _ = wal.compact(processed).expect("wal compact");
        self.start_or_queue(now);
        self.write_flight();
        self.idle_flush();
        self.release(now, spare, true)
    }

    /// Appends a routine ledger entry, on the backend's disk before
    /// this returns: routine transitions are write-ahead, so the caller
    /// sends the transition's frames only afterwards. Its flush takes
    /// whatever is buffered along and occupies the disk's clock like
    /// any other.
    pub fn append_ledger(&mut self, now: Time, entry: &LedgerEntry) {
        if self.wal.is_none() {
            return;
        }
        self.settle(now);
        let wal = self.wal.as_mut().expect("durable");
        wal.append_ledger(entry).expect("ledger append");
        self.start_or_queue(now);
        self.write_flight();
        self.settle(now);
    }

    /// Whether appends are buffered that no started or queued flush
    /// will write.
    fn unflushed(&self) -> bool {
        let pending = self
            .wal
            .as_ref()
            .is_some_and(|wal| wal.pending_events() > 0);
        let writing = self.queued || self.running.is_some_and(|f| !f.written);
        pending && !writing
    }

    /// Starts a flush now, joins the one starting now (it is not
    /// written yet), or queues one behind the running flush.
    fn start_or_queue(&mut self, now: Time) {
        match self.running {
            None => self.start(now),
            Some(flight) => self.queued |= flight.written,
        }
    }

    /// Starts a flush at `at`; it is written by [`Self::write_flight`].
    fn start(&mut self, at: Time) {
        self.running = Some(Flight {
            start: at,
            covers: self.withheld.len(),
            written: false,
        });
        self.queued = false;
    }

    /// Writes the started flush: everything buffered, covering every
    /// action withheld so far.
    fn write_flight(&mut self) {
        let Some(flight) = self.running.as_mut().filter(|f| !f.written) else {
            return;
        };
        if let Some(wal) = self.wal.as_mut() {
            wal.flush().expect("wal flush");
        }
        flight.written = true;
        flight.covers = self.withheld.len();
    }

    /// Runs the disk's clock up to `now`: a flush started before `now`
    /// is written (nothing later joins it), every flush complete by
    /// then makes what it covers durable, and a queued batch starts the
    /// instant the flush ahead of it completes.
    fn settle(&mut self, now: Time) {
        while let Some(flight) = self.running {
            let done = flight.start + self.sync;
            if flight.start < now || done <= now {
                self.write_flight();
            }
            if done > now {
                break;
            }
            self.durable = self.running.map_or(0, |f| f.covers);
            self.running = None;
            if self.queued {
                self.start(done);
            }
        }
    }

    /// Runs the disk's clock up to `now`, then moves durable actions
    /// into `out` and records how long each delivery waited: every
    /// durable action at a release point (`all`) or under `EveryN`,
    /// whose release point is the completion itself; otherwise only
    /// local deliveries.
    fn release(&mut self, now: Time, mut out: Vec<Action>, all: bool) -> Released {
        self.settle(now);
        let durable = self.durable;
        let obs = &self.obs;
        let timed = obs.is_enabled();
        let take = |w: Withheld| {
            if timed && matches!(w.action, Action::Deliver { .. }) {
                let waited = now.duration_since(w.at).as_micros();
                obs.observe("wal.gate_wait_us", waited);
            }
            w.action
        };
        let before = out.len();
        if all || self.flush_interval().is_none() {
            out.extend(self.withheld.drain(..durable).map(take));
        } else {
            out.extend(self.withheld.extract_if(..durable, |w| w.local).map(take));
        }
        let gone = out.len() - before;
        self.durable -= gone;
        if let Some(flight) = &mut self.running {
            flight.covers -= gone;
        }
        Released(out)
    }

    /// A release point without back-pressure at the current depth: the
    /// bound halves when the batch ran well under it.
    fn idle_flush(&mut self) {
        if self.withheld.len() < (self.bound / 4).max(1) {
            self.bound = (self.bound / GATE_STEP).max(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::ProcMsg;
    use rivulet_storage::{FsBackend, LedgerChain, RoutineTransition, SimBackend};
    use rivulet_types::{Event, EventId, EventKind, ProcessId, RoutineId};

    /// The tests that do not measure waiting start at one instant.
    const NOW: Time = Time::from_secs(1);
    /// A beat far longer than a sync.
    const BEAT: Duration = Duration::from_millis(10);
    const MICRO: Duration = Duration::from_micros(1);

    fn gate_on(backend: &Arc<SimBackend>, flush_policy: FlushPolicy) -> (DurableGate, Recovered) {
        recorded_gate_on(backend, flush_policy, &Recorder::default())
    }

    fn recorded_gate_on(
        backend: &Arc<SimBackend>,
        flush_policy: FlushPolicy,
        obs: &Recorder,
    ) -> (DurableGate, Recovered) {
        let options = WalOptions {
            flush_policy,
            ..WalOptions::default()
        };
        let storage = Arc::clone(backend) as Arc<dyn StorageBackend>;
        DurableGate::open(Some((storage, options)), obs)
    }

    fn event(seq: u64) -> Event {
        let id = EventId::new(SensorId(1), seq);
        Event::new(id, EventKind::Motion, Time::from_millis(seq))
    }

    /// What a replica does with broadcast copy `seq`: deliver it, then
    /// relay it, which tells the receiver this replica holds it.
    fn deliver_and_relay(seq: u64) -> Vec<Action> {
        let event = event(seq);
        let relay = ProcMsg::Broadcast {
            event: event.clone(),
            origin: ProcessId(1),
        };
        let to = ProcessId(0);
        vec![Action::Deliver { event }, Action::Send { to, msg: relay }]
    }

    fn deliver(seq: u64) -> Vec<Action> {
        vec![Action::Deliver { event: event(seq) }]
    }

    /// An app running on the gate's process subscribes to every sensor.
    fn hosted(_: SensorId) -> bool {
        true
    }

    /// No app running on the gate's process subscribes to any sensor:
    /// a relay's or a shadow's copies.
    fn remote(_: SensorId) -> bool {
        false
    }

    fn seqs(actions: &[Action]) -> Vec<u64> {
        let delivered = actions.iter().filter_map(|action| match action {
            Action::Deliver { event } => Some(event.id.seq),
            _ => None,
        });
        delivered.collect()
    }

    #[test]
    fn nothing_leaves_before_the_flush_completes_and_everything_after_in_arrival_order() {
        let backend = Arc::new(SimBackend::new(1));
        let sync = backend.sync_cost();
        let (mut gate, _) = gate_on(&backend, FlushPolicy::EveryN(8));
        let mut arrived = Vec::new();
        for seq in 0..7 {
            arrived.extend(deliver_and_relay(seq));
            assert_eq!(
                gate.admit(NOW, deliver_and_relay(seq), false, remote),
                Released::default()
            );
        }
        assert_eq!(
            backend.durable_len(0),
            Some(0),
            "no relay ahead of the disk"
        );
        assert_eq!(gate.end_turn(), None, "a partial batch has no flush");
        arrived.extend(deliver_and_relay(7));
        let released = gate.admit(NOW, deliver_and_relay(7), false, remote);
        assert_eq!(released, Released::default(), "the flush has only started");
        assert_eq!(gate.end_turn(), Some(NOW + sync));
        assert!(
            backend.durable_len(0) > Some(0),
            "the eighth append's flush is written when the turn ends"
        );
        let early = gate.on_sync(NOW + (sync - MICRO), Vec::new());
        assert_eq!(early, Released::default());
        assert_eq!(gate.on_sync(NOW + sync, Vec::new()).0, arrived);
        backend.crash();
        let (_, recovered) = gate_on(&backend, FlushPolicy::EveryN(8));
        assert_eq!(recovered.events.len(), 8, "what was acked survived");
    }

    #[test]
    fn a_local_delivery_leaves_at_its_fsync_and_a_send_on_the_beat() {
        let backend = Arc::new(SimBackend::new(10));
        let sync = backend.sync_cost();
        let (mut gate, _) = gate_on(&backend, FlushPolicy::EveryInterval(BEAT));
        // An app host's delivery starts its flush at once.
        let released = gate.admit(NOW, deliver_and_relay(0), false, hosted);
        assert_eq!(released, Released::default());
        assert_eq!(gate.end_turn(), Some(NOW + sync));
        assert!(
            backend.durable_len(0) > Some(0),
            "flushed in the admit's turn"
        );
        assert_eq!(gate.end_turn(), None, "asked once");
        let just_before = NOW + (sync - MICRO);
        assert_eq!(gate.on_sync(just_before, Vec::new()), Released::default());
        let beat = gate.flush(just_before, Vec::new());
        assert_eq!(beat, Released::default(), "a beat before completion");
        let at_fsync = gate.on_sync(NOW + sync, Vec::new()).0;
        assert_eq!(at_fsync, deliver_and_relay(0)[..1], "the delivery alone");
        let next_beat = gate.flush(NOW + BEAT, Vec::new()).0;
        assert_eq!(next_beat, deliver_and_relay(0)[1..], "the send on the beat");

        // An ingest with no local app starts its flush at once too, and
        // its first forward leaves on the first beat after the fsync.
        let ingest = NOW + BEAT + BEAT;
        let released = gate.admit(ingest, deliver_and_relay(1), true, remote);
        assert_eq!(released, Released::default());
        assert_eq!(gate.end_turn(), None, "nobody local: the beat releases it");
        let beat = gate.flush(ingest + (sync - MICRO), Vec::new());
        assert_eq!(beat, Released::default());
        let beat = gate.flush(ingest + BEAT, Vec::new()).0;
        assert_eq!(beat, deliver_and_relay(1));
    }

    #[test]
    fn no_action_leaves_before_a_sync_after_it_came_in() {
        // A seeded mix of ingests, app-host deliveries and relay copies
        // against beats, count flushes, checkpoints and ledger appends:
        // every released action came in at least one sync earlier,
        // because the flush covering it started no earlier than that,
        // and every local delivery less than two syncs earlier, because
        // it waits for at most the running flush and its own. Like the
        // process, the harness ends a turn after every activation,
        // wake-ups included.
        for policy in [FlushPolicy::EveryInterval(BEAT), FlushPolicy::EveryN(3)] {
            let backend = Arc::new(SimBackend::new(11));
            let sync = backend.sync_cost();
            let (mut gate, _) = gate_on(&backend, policy);
            let mut chain = LedgerChain::seeded(3);
            let mut came_in = Vec::new();
            let mut local = Vec::new();
            let mut released = Vec::new();
            let mut wake_ups = Vec::new();
            let mut check = |at: Time, out: Released, came_in: &[Time], local: &[bool]| {
                for seq in seqs(&out.0) {
                    let since = at.duration_since(came_in[seq as usize]);
                    assert!(
                        since >= sync,
                        "{policy:?}: {seq} left {since} after it came in"
                    );
                    assert!(
                        !local[seq as usize] || since < sync + sync,
                        "{policy:?}: local {seq} left {since} after it came in"
                    );
                    released.push(seq);
                }
            };
            let mut rng = 0x2545_f491_4f6c_dd1d_u64;
            let mut now = NOW;
            for seq in 0..2_000u64 {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                now += Duration::from_micros(rng % 700);
                while wake_ups.first().is_some_and(|at| *at <= now) {
                    let at = wake_ups.remove(0);
                    check(at, gate.on_sync(at, Vec::new()), &came_in, &local);
                    wake_ups.extend(gate.end_turn());
                    wake_ups.sort_unstable();
                }
                came_in.push(now);
                local.push(rng % 5 == 1);
                let out = match rng % 5 {
                    0 => gate.admit(now, deliver_and_relay(seq), true, remote),
                    1 => gate.admit(now, deliver(seq), false, hosted),
                    _ => gate.admit(now, deliver_and_relay(seq), false, remote),
                };
                check(now, out, &came_in, &local);
                match (rng >> 8) % 20 {
                    0..=3 => check(now, gate.flush(now, Vec::new()), &came_in, &local),
                    4 => {
                        let marks = BTreeMap::new();
                        let out = gate.checkpoint(now, &marks, Vec::new());
                        check(now, out, &came_in, &local);
                    }
                    5 => {
                        let staged = RoutineTransition::Staged;
                        let entry = chain.append(RoutineId(1), seq, staged, now, Vec::new());
                        gate.append_ledger(now, &entry);
                    }
                    _ => {}
                }
                wake_ups.extend(gate.end_turn());
                wake_ups.sort_unstable();
            }
            // Drain: the wake-ups still owed, then beats until nothing
            // is left.
            while !wake_ups.is_empty() {
                let at = wake_ups.remove(0);
                check(at, gate.on_sync(at, Vec::new()), &came_in, &local);
                wake_ups.extend(gate.end_turn());
            }
            for _ in 0..4 {
                now += BEAT;
                check(now, gate.flush(now, Vec::new()), &came_in, &local);
            }
            released.sort_unstable();
            assert_eq!(released, (0..2_000).collect::<Vec<_>>(), "{policy:?}");
        }
    }

    #[test]
    fn a_disk_that_takes_no_time_releases_inside_the_call() {
        // On a real disk `sync_data` blocks, so its flush completes the
        // instant it starts and nobody is woken for it.
        let policies = [FlushPolicy::EveryInterval(BEAT), FlushPolicy::EveryN(1)];
        for (i, policy) in policies.into_iter().enumerate() {
            let name = format!("rivulet-gate-fs-{}-{i}", std::process::id());
            let dir = std::env::temp_dir().join(name);
            let backend = Arc::new(FsBackend::open(&dir).unwrap());
            let storage = || {
                let options = WalOptions {
                    flush_policy: policy,
                    ..WalOptions::default()
                };
                Some((Arc::clone(&backend) as Arc<dyn StorageBackend>, options))
            };
            let (mut gate, _) = DurableGate::open(storage(), &Recorder::default());
            assert_eq!(backend.sync_cost(), Duration::ZERO);
            let local = gate.admit(NOW, deliver_and_relay(0), false, hosted).0;
            let relayed = gate.admit(NOW, deliver_and_relay(1), false, remote).0;
            assert_eq!(gate.end_turn(), None, "{policy:?}: nothing to wake for");
            if gate.flush_interval().is_some() {
                assert_eq!(local, deliver_and_relay(0)[..1], "the delivery alone");
                assert!(relayed.is_empty(), "a relay copy waits for the beat");
                let beat = gate.flush(NOW + BEAT, Vec::new()).0;
                let mut sends = deliver_and_relay(0)[1..].to_vec();
                sends.extend(deliver_and_relay(1));
                assert_eq!(beat, sends, "the sends leave on the beat");
            } else {
                assert_eq!(local, deliver_and_relay(0), "{policy:?}");
                assert_eq!(relayed, deliver_and_relay(1), "{policy:?}");
            }
            assert_eq!(gate.end_turn(), None, "{policy:?}: nothing to wake for");
            drop(gate);
            let (_, recovered) = DurableGate::open(storage(), &Recorder::default());
            assert_eq!(recovered.events.len(), 2, "{policy:?}");
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    #[test]
    fn appends_made_during_a_sync_leave_as_one_next_flush() {
        let backend = Arc::new(SimBackend::new(12));
        let sync = backend.sync_cost();
        let obs = Recorder::enabled();
        let (mut gate, _) = recorded_gate_on(&backend, FlushPolicy::EveryInterval(BEAT), &obs);
        let _ = gate.admit(NOW, deliver(0), false, hosted);
        assert_eq!(gate.end_turn(), Some(NOW + sync));
        for seq in 1..=5 {
            let at = NOW + Duration::from_micros(50 * seq);
            let released = gate.admit(at, deliver(seq), false, hosted);
            assert_eq!(released, Released::default(), "the disk is busy");
        }
        assert_eq!(
            obs.snapshot().counter("wal.flushes"),
            1,
            "one flush running"
        );
        assert_eq!(
            gate.end_turn(),
            None,
            "the running flush's completion was asked for"
        );
        let first = gate.on_sync(NOW + sync, Vec::new()).0;
        assert_eq!(seqs(&first), [0]);
        assert_eq!(gate.end_turn(), Some(NOW + sync + sync));
        assert_eq!(
            obs.snapshot().counter("wal.flushes"),
            2,
            "the five appends started one flush"
        );
        let batch = gate.on_sync(NOW + sync + sync, Vec::new()).0;
        assert_eq!(seqs(&batch), [1, 2, 3, 4, 5]);
    }

    #[test]
    fn one_turns_appends_share_its_flush() {
        // Two ring messages of one frame, handled in one activation.
        let backend = Arc::new(SimBackend::new(14));
        let sync = backend.sync_cost();
        let obs = Recorder::enabled();
        let (mut gate, _) = recorded_gate_on(&backend, FlushPolicy::EveryInterval(BEAT), &obs);
        let _ = gate.admit(NOW, deliver(0), false, hosted);
        let _ = gate.admit(NOW, deliver(1), false, hosted);
        assert_eq!(gate.end_turn(), Some(NOW + sync));
        assert_eq!(obs.snapshot().counter("wal.flushes"), 1);
        let released = gate.on_sync(NOW + sync, Vec::new()).0;
        assert_eq!(seqs(&released), [0, 1]);
    }

    #[test]
    fn a_crash_during_a_sync_loses_nothing_released() {
        let backend = Arc::new(SimBackend::new(13));
        let sync = backend.sync_cost();
        let (mut gate, _) = gate_on(&backend, FlushPolicy::EveryInterval(BEAT));
        let _ = gate.admit(NOW, deliver(0), false, hosted);
        for seq in 1..=2 {
            let _ = gate.admit(NOW + MICRO, deliver(seq), false, hosted);
        }
        let released = seqs(&gate.on_sync(NOW + sync, Vec::new()).0);
        assert_eq!(released, [0], "1 and 2 started their flush");
        let _ = gate.admit(NOW + sync + MICRO, deliver(3), false, hosted);
        // Power fails between the second flush's start and completion.
        backend.crash();
        let (_, recovered) = gate_on(&backend, FlushPolicy::EveryInterval(BEAT));
        let on_disk: Vec<u64> = recovered.events.iter().map(|e| e.id.seq).collect();
        assert!(on_disk.starts_with(&released), "{on_disk:?} lost a release");
        let prefix: Vec<u64> = (0..on_disk.len() as u64).collect();
        assert_eq!(on_disk, prefix, "a valid prefix");
    }

    #[test]
    fn reaching_the_bound_forces_one_flush_and_doubles_the_bound() {
        let backend = Arc::new(SimBackend::new(2));
        let sync = backend.sync_cost();
        let obs = Recorder::enabled();
        let never = FlushPolicy::EveryInterval(Duration::from_secs(3600));
        let (mut gate, _) = recorded_gate_on(&backend, never, &obs);
        assert_eq!(gate.flush_interval(), Some(Duration::from_secs(3600)));
        let bound = gate.bound().expect("durable");
        for seq in 0..(bound / 2) as u64 {
            assert!(gate
                .admit(NOW, deliver_and_relay(seq), false, remote)
                .0
                .is_empty());
        }
        assert_eq!(gate.end_turn(), None, "nothing local waits on it");
        assert!(backend.durable_len(0) > Some(0), "the burst was forced out");
        assert_eq!(gate.bound(), Some(bound * 2));
        let snap = obs.snapshot();
        assert_eq!(snap.counter("wal.forced_flushes"), 1);
        assert_eq!(snap.counter("wal.flushes"), 1);
        let released = gate.flush(NOW + sync, Vec::new()).0;
        assert_eq!(released.len(), bound, "the burst left as one batch");
    }

    #[test]
    fn gate_grows_under_burst() {
        let backend = Arc::new(SimBackend::new(8));
        let never = FlushPolicy::EveryInterval(Duration::from_secs(3600));
        let (mut gate, _) = gate_on(&backend, never);
        assert_eq!(gate.bound(), Some(GATE_INITIAL));
        let mut bounds = Vec::new();
        let mut seq = 0;
        let mut now = NOW;
        for _ in 0..6 {
            // A burst as deep as the bound, then its flush completes.
            let bound = gate.bound().expect("durable");
            while gate.withheld.len() < bound {
                let _ = gate.admit(now, deliver_and_relay(seq), false, remote);
                seq += 1;
            }
            bounds.push(gate.bound().expect("durable"));
            now += BEAT;
            let released = gate.flush(now, Vec::new()).0;
            assert_eq!(released.len(), bound);
        }
        assert_eq!(
            bounds,
            [1024, 2048, 4096, 8192, 8192, 8192],
            "each forced flush doubles the bound, up to 16 × its start"
        );
    }

    #[test]
    fn beat_and_checkpoint_release_and_shrink_an_idle_bound() {
        let backend = Arc::new(SimBackend::new(3));
        let sync = backend.sync_cost();
        let (mut gate, _) = gate_on(&backend, FlushPolicy::EveryInterval(BEAT));
        let bound = gate.bound().expect("durable");
        assert_eq!(
            gate.flush(NOW, Vec::new()),
            Released::default(),
            "nothing pending"
        );
        assert_eq!(gate.bound(), Some(bound), "a no-op flush is not a signal");

        assert_eq!(
            gate.admit(NOW, deliver_and_relay(0), false, remote),
            Released::default()
        );
        assert_eq!(gate.flush(NOW, Vec::new()), Released::default());
        assert_eq!(gate.bound(), Some(bound / 2), "flushed at low depth");
        assert_eq!(gate.flush(NOW + sync, Vec::new()).0, deliver_and_relay(0));
        assert_eq!(gate.bound(), Some(bound / 4), "released at low depth");

        let later = NOW + BEAT;
        assert_eq!(
            gate.admit(later, deliver_and_relay(1), false, remote),
            Released::default()
        );
        let processed = BTreeMap::from([(SensorId(1), 0)]);
        let released = gate.checkpoint(later, &processed, Vec::new());
        assert_eq!(released, Released::default(), "the checkpoint's sync runs");
        assert_eq!(gate.bound(), Some(bound / 8));
        let released = gate.checkpoint(later + sync, &processed, Vec::new());
        assert_eq!(released.0, deliver_and_relay(1));
        assert_eq!(gate.bound(), Some(bound / 16));
        backend.crash();
        let (_, recovered) = gate_on(&backend, FlushPolicy::EveryN(8));
        assert_eq!(recovered.events.len(), 2);
        let checkpoint = recovered.checkpoint.expect("checkpoint is durable");
        assert_eq!(checkpoint.processed, vec![(SensorId(1), 0)]);
    }

    #[test]
    fn each_delivery_records_its_wait_from_admit_to_release() {
        let backend = Arc::new(SimBackend::new(5));
        let obs = Recorder::enabled();
        let (mut gate, _) = recorded_gate_on(&backend, FlushPolicy::EveryInterval(BEAT), &obs);
        let _ = gate.admit(Time::from_millis(1), deliver_and_relay(0), false, remote);
        let _ = gate.admit(Time::from_millis(4), deliver_and_relay(1), false, remote);
        let _ = gate.flush(Time::from_millis(5), Vec::new());
        assert!(obs.snapshot().histogram("wal.gate_wait_us").is_none());
        let released = gate.flush(Time::from_millis(10), Vec::new());
        assert_eq!(released.0.len(), 4);
        let snap = obs.snapshot();
        let waits = snap.histogram("wal.gate_wait_us").expect("recorded");
        assert_eq!((waits.count(), waits.sum()), (2, 9_000 + 6_000));
        assert_eq!((waits.min(), waits.max()), (Some(6_000), Some(9_000)));

        // With the recorder off nothing is recorded.
        obs.set_enabled(false);
        let _ = gate.admit(Time::from_millis(11), deliver_and_relay(2), false, remote);
        let _ = gate.flush(Time::from_millis(12), Vec::new());
        let released = gate.flush(Time::from_millis(20), Vec::new()).0;
        assert_eq!(released, deliver_and_relay(2));
        assert_eq!(
            obs.snapshot()
                .histogram("wal.gate_wait_us")
                .map(|h| h.count()),
            Some(2)
        );
    }

    #[test]
    fn the_callers_buffer_goes_round_instead_of_allocating() {
        let backend = Arc::new(SimBackend::new(7));
        let sync = backend.sync_cost();
        let (mut gate, _) = gate_on(&backend, FlushPolicy::EveryInterval(BEAT));
        // Withheld: the caller's buffer comes back empty, capacity kept.
        let admitted = deliver_and_relay(0);
        let (ptr, capacity) = (admitted.as_ptr(), admitted.capacity());
        let spare = gate
            .admit(NOW, admitted, false, remote)
            .apply(|_| panic!("withheld"));
        assert_eq!((spare.as_ptr(), spare.capacity()), (ptr, capacity));
        let spare = gate.flush(NOW, spare).apply(|_| panic!("syncing"));
        // Released: the caller's buffer carries the actions out.
        let mut applied = Vec::new();
        let emptied = gate
            .flush(NOW + sync, spare)
            .apply(|action| applied.push(action));
        assert_eq!(applied, deliver_and_relay(0));
        assert_eq!((emptied.as_ptr(), emptied.capacity()), (ptr, capacity));
    }

    #[test]
    fn a_gate_without_storage_releases_at_once() {
        let (mut gate, recovered) = DurableGate::open(None, &Recorder::default());
        assert!(recovered.events.is_empty() && recovered.ledger.is_empty());
        assert_eq!((gate.bound(), gate.flush_interval()), (None, None));
        assert_eq!(
            gate.admit(NOW, deliver_and_relay(0), false, remote).0,
            deliver_and_relay(0)
        );
        let released = gate.admit(NOW, deliver_and_relay(1), true, hosted);
        assert_eq!(released.0, deliver_and_relay(1));
        assert_eq!(gate.flush(NOW, Vec::new()), Released::default());
        assert_eq!(gate.on_sync(NOW, Vec::new()), Released::default());
        let released = gate.checkpoint(Time::from_secs(1), &BTreeMap::new(), Vec::new());
        assert_eq!(released, Released::default());
        assert_eq!(gate.end_turn(), None);
    }

    #[test]
    fn a_ledger_entry_is_durable_when_append_returns_and_occupies_the_disk() {
        let backend = Arc::new(SimBackend::new(4));
        let sync = backend.sync_cost();
        let (mut gate, _) = gate_on(&backend, FlushPolicy::EveryN(8));
        let mut chain = LedgerChain::seeded(9);
        let staged = RoutineTransition::Staged;
        let entry = chain.append(RoutineId(1), 0, staged, NOW, Vec::new());
        gate.append_ledger(NOW, &entry);
        // A delivery right behind it waits for the ledger's sync, then
        // its own.
        let _ = gate.admit(NOW + MICRO, deliver(0), false, hosted);
        assert_eq!(gate.end_turn(), Some(NOW + sync), "the ledger's sync");
        assert_eq!(gate.on_sync(NOW + sync, Vec::new()), Released::default());
        assert_eq!(gate.end_turn(), Some(NOW + sync + sync));
        backend.crash();
        let (_, recovered) = gate_on(&backend, FlushPolicy::EveryN(8));
        assert_eq!(recovered.ledger, vec![entry]);
    }

    #[test]
    fn gate_shrinks_when_idle_never_below_one() {
        let backend = Arc::new(SimBackend::new(9));
        let sync = backend.sync_cost();
        let (mut gate, _) = gate_on(&backend, FlushPolicy::EveryN(1000));
        // A flush at a quarter of the bound is deep enough to keep it;
        // one action less halves it.
        gate.bound = 64;
        for seq in 0..8 {
            let _ = gate.admit(NOW, deliver_and_relay(seq), false, remote);
        }
        let _ = gate.flush(NOW, Vec::new());
        assert_eq!(gate.on_sync(NOW + sync, Vec::new()).0.len(), 16);
        assert_eq!(gate.bound(), Some(64), "16 ≥ 64 / 4");
        let later = NOW + BEAT;
        for seq in 8..15 {
            let _ = gate.admit(later, deliver_and_relay(seq), false, remote);
        }
        let _ = gate.flush(later, Vec::new());
        assert_eq!(gate.on_sync(later + sync, Vec::new()).0.len(), 14);
        assert_eq!(gate.bound(), Some(32));
        // Checkpoints at depth 0 walk the bound down to 1 and no lower.
        for _ in 0..20 {
            let _ = gate.checkpoint(later + sync, &BTreeMap::new(), Vec::new());
        }
        assert_eq!(gate.bound(), Some(1), "shrink floors at 1, never 0");
    }
}
