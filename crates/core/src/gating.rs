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
/// Its buffer is one the caller handed the gate, or one the gate
/// withheld actions in; either way applying it returns the buffer,
/// empty, for the caller's next actions, so a process and its gate pass
/// the same two buffers back and forth instead of allocating per event.
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
    withheld: Vec<Action>,
    /// When each withheld `Deliver` came in, for `wal.gate_wait_us`;
    /// stays empty while the recorder is off.
    admitted_at: Vec<Time>,
    obs: Recorder,
}

impl DurableGate {
    /// Opens the log on `storage` (if any) and returns the gate with
    /// the durable prefix found there; without storage the prefix is
    /// empty.
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
        let (wal, recovered) = match storage {
            None => (None, Recovered::default()),
            Some((backend, options)) => {
                let (mut wal, recovered) = Wal::open(backend, options).expect("wal open");
                wal.attach_recorder(obs.clone());
                obs.inc("wal.recoveries");
                obs.add("wal.recovered_events", recovered.events.len() as u64);
                obs.add("wal.recovery_dropped_bytes", recovered.dropped_bytes as u64);
                (Some(wal), recovered)
            }
        };
        let gate = Self {
            wal,
            bound: GATE_INITIAL,
            withheld: Vec::new(),
            admitted_at: Vec::new(),
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

    /// Takes delivery-service actions in at `now`. Every freshly stored
    /// event (each `Deliver` carries exactly one) is appended to the log
    /// and no action handed in — delivery, the ingest process's first
    /// ring forward, broadcast relay or ack — comes back out until the
    /// append is durable. Under group commit the actions wait for the
    /// flush policy, [`DurableGate::flush`] or the bound, whichever
    /// comes first. Whatever is released comes back in a buffer the
    /// caller keeps for its next actions: `actions` itself, emptied when
    /// its actions wait.
    pub fn admit(&mut self, now: Time, mut actions: Vec<Action>) -> Released {
        let Some(wal) = self.wal.as_mut() else {
            return Released(actions);
        };
        if actions.is_empty() {
            return Released(actions);
        }
        let timed = self.obs.is_enabled();
        for action in actions.drain(..) {
            if let Action::Deliver { event } = &action {
                wal.append_event(event).expect("wal append");
                if timed {
                    self.admitted_at.push(now);
                }
            }
            self.withheld.push(action);
        }
        if wal.pending_events() > 0 {
            if self.withheld.len() < self.bound {
                return Released(actions);
            }
            // Back-pressure: a broadcast storm outran the flush policy.
            // Force the group commit now so withheld actions (and their
            // memory) stay bounded; the bound grows so the next burst
            // batches more per flush.
            wal.flush().expect("wal flush");
            self.bound = (self.bound * GATE_STEP).min(GATE_MAX);
            self.obs.inc("wal.forced_flushes");
        }
        self.release(now, actions)
    }

    /// Hands out everything withheld — the caller has just made it
    /// durable — and records how long each delivery waited. `spare`, an
    /// emptied buffer of the caller's, takes the withheld buffer's place.
    fn release(&mut self, now: Time, mut spare: Vec<Action>) -> Released {
        debug_assert!(spare.is_empty(), "a spare buffer holds no actions");
        for at in self.admitted_at.drain(..) {
            let waited = now.duration_since(at).as_micros();
            self.obs.observe("wal.gate_wait_us", waited);
        }
        std::mem::swap(&mut self.withheld, &mut spare);
        Released(spare)
    }

    /// Flushes the log and releases everything withheld. Driven by the
    /// `EveryInterval` flush timer or — under a policy without one — by
    /// the periodic tick as a backstop, so an `EveryN` batch that never
    /// fills cannot strand its actions. A flush at low depth is the
    /// signal that bursts have subsided: the bound walks back. `spare`
    /// is an empty buffer of the caller's: it becomes the gate's, or
    /// comes straight back when nothing is withheld.
    pub fn flush(&mut self, now: Time, spare: Vec<Action>) -> Released {
        match self.wal.as_mut() {
            Some(wal) if wal.pending_events() > 0 || !self.withheld.is_empty() => {
                wal.flush().expect("wal flush");
                self.idle_flush();
                self.release(now, spare)
            }
            _ => Released(spare),
        }
    }

    /// Writes a checkpoint of the `processed` watermarks and compacts
    /// the segments they cover. The checkpoint forces a flush, so
    /// everything withheld is released, in exchange for `spare` as in
    /// [`DurableGate::flush`]; at low depth it also counts as an idle
    /// flush for the bound.
    pub fn checkpoint(
        &mut self,
        now: Time,
        processed: &BTreeMap<SensorId, u64>,
        spare: Vec<Action>,
    ) -> Released {
        let Some(wal) = self.wal.as_mut() else {
            return Released(spare);
        };
        wal.append_checkpoint(&Checkpoint {
            at: now,
            processed: processed.iter().map(|(s, q)| (*s, *q)).collect(),
        })
        .expect("wal checkpoint");
        let _ = wal.compact(processed).expect("wal compact");
        self.idle_flush();
        self.release(now, spare)
    }

    /// A flush without back-pressure at the current depth: the bound
    /// halves when the batch ran well under it.
    fn idle_flush(&mut self) {
        if self.withheld.len() < (self.bound / 4).max(1) {
            self.bound = (self.bound / GATE_STEP).max(1);
        }
    }

    /// Appends a routine ledger entry, durable before this returns:
    /// routine transitions are write-ahead, so the caller sends the
    /// transition's frames only afterwards.
    pub fn append_ledger(&mut self, entry: &LedgerEntry) {
        if let Some(wal) = self.wal.as_mut() {
            wal.append_ledger(entry).expect("ledger append");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::ProcMsg;
    use rivulet_storage::{LedgerChain, RoutineTransition, SimBackend};
    use rivulet_types::{Event, EventId, EventKind, ProcessId, RoutineId};

    /// The tests that do not measure waiting all happen at one instant.
    const NOW: Time = Time::from_secs(1);

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

    /// What a replica does with broadcast copy `seq`: deliver it, then
    /// relay it, which tells the receiver this replica holds it.
    fn deliver_and_relay(seq: u64) -> Vec<Action> {
        let id = EventId::new(SensorId(1), seq);
        let event = Event::new(id, EventKind::Motion, Time::from_millis(seq));
        let relay = ProcMsg::Broadcast {
            event: event.clone(),
            origin: ProcessId(1),
        };
        let to = ProcessId(0);
        vec![Action::Deliver { event }, Action::Send { to, msg: relay }]
    }

    #[test]
    fn nothing_leaves_before_the_flush_and_everything_after_in_arrival_order() {
        let backend = Arc::new(SimBackend::new(1));
        let (mut gate, _) = gate_on(&backend, FlushPolicy::EveryN(8));
        let mut arrived = Vec::new();
        for seq in 0..7 {
            arrived.extend(deliver_and_relay(seq));
            assert_eq!(gate.admit(NOW, deliver_and_relay(seq)), Released::default());
        }
        assert_eq!(
            backend.durable_len(0),
            Some(0),
            "no relay ahead of the disk"
        );
        arrived.extend(deliver_and_relay(7));
        let released = gate.admit(NOW, deliver_and_relay(7));
        assert!(
            backend.durable_len(0) > Some(0),
            "the eighth append flushed"
        );
        assert_eq!(released.0, arrived);
        backend.crash();
        let (_, recovered) = gate_on(&backend, FlushPolicy::EveryN(8));
        assert_eq!(recovered.events.len(), 8, "what was acked survived");
    }

    #[test]
    fn reaching_the_bound_forces_a_flush_and_doubles_the_bound() {
        let backend = Arc::new(SimBackend::new(2));
        let never = FlushPolicy::EveryInterval(Duration::from_secs(3600));
        let (mut gate, _) = gate_on(&backend, never);
        assert_eq!(gate.flush_interval(), Some(Duration::from_secs(3600)));
        let bound = gate.bound().expect("durable");
        let mut withheld = 0;
        for seq in 0.. {
            let released = gate.admit(NOW, deliver_and_relay(seq)).0;
            withheld += 2;
            if withheld < bound {
                assert!(released.is_empty(), "{withheld} of {bound} withheld");
            } else {
                assert_eq!(released.len(), withheld, "the burst left as one batch");
                break;
            }
        }
        assert!(backend.durable_len(0) > Some(0));
        assert_eq!(gate.bound(), Some(bound * 2));
    }

    #[test]
    fn a_forced_flush_is_counted_once() {
        let backend = Arc::new(SimBackend::new(6));
        let obs = Recorder::enabled();
        let never = FlushPolicy::EveryInterval(Duration::from_secs(3600));
        let (mut gate, _) = recorded_gate_on(&backend, never, &obs);
        let bound = gate.bound().expect("durable");
        let mut seq = 0;
        while gate.admit(NOW, deliver_and_relay(seq)).0.is_empty() {
            seq += 1;
        }
        assert_eq!(gate.bound(), Some(bound * 2), "the bound overflowed once");
        let snap = obs.snapshot();
        assert_eq!(snap.counter("wal.forced_flushes"), 1);
        assert_eq!(snap.counter("wal.flushes"), 1);
    }

    #[test]
    fn timer_flush_and_checkpoint_release_and_shrink_an_idle_bound() {
        let backend = Arc::new(SimBackend::new(3));
        let (mut gate, _) = gate_on(&backend, FlushPolicy::EveryN(8));
        let bound = gate.bound().expect("durable");
        assert_eq!(
            gate.flush(NOW, Vec::new()),
            Released::default(),
            "nothing pending"
        );
        assert_eq!(gate.bound(), Some(bound), "a no-op flush is not a signal");

        assert_eq!(gate.admit(NOW, deliver_and_relay(0)), Released::default());
        assert_eq!(gate.flush(NOW, Vec::new()).0, deliver_and_relay(0));
        assert_eq!(gate.bound(), Some(bound / 2), "flushed at low depth");

        assert_eq!(gate.admit(NOW, deliver_and_relay(1)), Released::default());
        let processed = BTreeMap::from([(SensorId(1), 0)]);
        let released = gate.checkpoint(Time::from_secs(1), &processed, Vec::new());
        assert_eq!(released.0, deliver_and_relay(1));
        assert_eq!(gate.bound(), Some(bound / 4));
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
        let (mut gate, _) = recorded_gate_on(&backend, FlushPolicy::EveryN(8), &obs);
        let _ = gate.admit(Time::from_millis(1), deliver_and_relay(0));
        let _ = gate.admit(Time::from_millis(4), deliver_and_relay(1));
        assert!(obs.snapshot().histogram("wal.gate_wait_us").is_none());
        let released = gate.flush(Time::from_millis(10), Vec::new());
        assert_eq!(released.0.len(), 4);
        let snap = obs.snapshot();
        let waits = snap.histogram("wal.gate_wait_us").expect("recorded");
        assert_eq!((waits.count(), waits.sum()), (2, 9_000 + 6_000));
        assert_eq!((waits.min(), waits.max()), (Some(6_000), Some(9_000)));

        // With the recorder off nothing is kept per admit.
        obs.set_enabled(false);
        let _ = gate.admit(Time::from_millis(11), deliver_and_relay(2));
        assert!(gate.admitted_at.is_empty());
        assert_eq!(
            gate.flush(Time::from_millis(20), Vec::new()).0,
            deliver_and_relay(2)
        );
    }

    #[test]
    fn the_caller_and_the_gate_trade_buffers_instead_of_allocating() {
        let backend = Arc::new(SimBackend::new(7));
        let (mut gate, _) = gate_on(&backend, FlushPolicy::EveryN(8));
        // Withheld: the caller's buffer comes back empty, capacity kept.
        let admitted = deliver_and_relay(0);
        let (ptr, capacity) = (admitted.as_ptr(), admitted.capacity());
        let spare = gate.admit(NOW, admitted).apply(|_| panic!("withheld"));
        assert_eq!((spare.as_ptr(), spare.capacity()), (ptr, capacity));
        // Released: the caller gets the withheld buffer, and the gate
        // holds the next withheld actions in the spare it was handed.
        let mut applied = Vec::new();
        let emptied = gate.flush(NOW, spare).apply(|action| applied.push(action));
        assert_eq!(applied, deliver_and_relay(0));
        assert!(emptied.is_empty() && emptied.capacity() >= 2);
        assert_eq!(gate.withheld.as_ptr(), ptr, "the spare is the gate's now");
    }

    #[test]
    fn a_gate_without_storage_releases_at_once() {
        let (mut gate, recovered) = DurableGate::open(None, &Recorder::default());
        assert!(recovered.events.is_empty() && recovered.ledger.is_empty());
        assert_eq!((gate.bound(), gate.flush_interval()), (None, None));
        assert_eq!(
            gate.admit(NOW, deliver_and_relay(0)).0,
            deliver_and_relay(0)
        );
        assert_eq!(gate.flush(NOW, Vec::new()), Released::default());
        let released = gate.checkpoint(Time::from_secs(1), &BTreeMap::new(), Vec::new());
        assert_eq!(released, Released::default());
    }

    #[test]
    fn a_ledger_entry_is_durable_when_append_returns() {
        let backend = Arc::new(SimBackend::new(4));
        let (mut gate, _) = gate_on(&backend, FlushPolicy::EveryN(8));
        let mut chain = LedgerChain::seeded(9);
        let staged = RoutineTransition::Staged;
        let entry = chain.append(RoutineId(1), 0, staged, Time::from_secs(1), Vec::new());
        gate.append_ledger(&entry);
        backend.crash();
        let (_, recovered) = gate_on(&backend, FlushPolicy::EveryN(8));
        assert_eq!(recovered.ledger, vec![entry]);
    }

    #[test]
    fn gate_grows_under_burst() {
        let backend = Arc::new(SimBackend::new(8));
        let never = FlushPolicy::EveryInterval(Duration::from_secs(3600));
        let (mut gate, _) = gate_on(&backend, never);
        assert_eq!(gate.bound(), Some(GATE_INITIAL));
        let mut bounds = Vec::new();
        let mut seq = 0;
        for _ in 0..6 {
            while gate.admit(NOW, deliver_and_relay(seq)).0.is_empty() {
                seq += 1;
            }
            seq += 1;
            bounds.push(gate.bound().expect("durable"));
        }
        assert_eq!(
            bounds,
            [1024, 2048, 4096, 8192, 8192, 8192],
            "each forced flush doubles the bound, up to 16 × its start"
        );
    }

    #[test]
    fn gate_shrinks_when_idle_never_below_one() {
        let backend = Arc::new(SimBackend::new(9));
        let (mut gate, _) = gate_on(&backend, FlushPolicy::EveryN(1000));
        // A flush at a quarter of the bound is deep enough to keep it;
        // one action less halves it.
        gate.bound = 64;
        for seq in 0..8 {
            let _ = gate.admit(NOW, deliver_and_relay(seq));
        }
        assert_eq!(gate.flush(NOW, Vec::new()).0.len(), 16);
        assert_eq!(gate.bound(), Some(64), "16 ≥ 64 / 4");
        for seq in 8..15 {
            let _ = gate.admit(NOW, deliver_and_relay(seq));
        }
        assert_eq!(gate.flush(NOW, Vec::new()).0.len(), 14);
        assert_eq!(gate.bound(), Some(32));
        // Checkpoints at depth 0 walk the bound down to 1 and no lower.
        for _ in 0..20 {
            let _ = gate.checkpoint(NOW, &BTreeMap::new(), Vec::new());
        }
        assert_eq!(gate.bound(), Some(1), "shrink floors at 1, never 0");
    }
}
