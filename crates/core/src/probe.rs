//! Shared observation handles for experiments and tests.
//!
//! The paper's evaluation measures delivery percentage, delay, failover
//! behaviour, and epoch misses *from the application's point of view*.
//! [`AppProbe`] is the measurement tap: processes record every
//! app-visible occurrence into it, and the harness reads it after (or
//! during) a run. Probes are shared `Arc`s so they survive process
//! crash–recovery cycles.
//!
//! Probe locks are **poison-tolerant**: a panicking actor thread (the
//! live driver runs each actor on its own OS thread) must not poison a
//! probe and take the whole harness down with it, so every lock
//! recovers the data instead of propagating the poison.
//!
//! [`check`] is the one verdict on a run: a pure function from what
//! the probes recorded ([`ProbeData`]) to the guarantees it broke.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use rivulet_storage::{LedgerEntry, LedgerVerifier, RoutineTransition};
use rivulet_types::{Command, CommandId, Duration, EventId, ProcSet, ProcessId, SensorId, Time};

use crate::delivery::Delivery;
use crate::routine::InstanceRecord;

/// Locks `mutex`, recovering the guarded data if a panicking thread
/// poisoned it.
fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One event processed by an active logic node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeliveryRecord {
    /// When the logic node processed the event.
    pub at: Time,
    /// The process hosting the active logic node.
    pub by: ProcessId,
    /// The event.
    pub event: EventId,
    /// When the sensor emitted it (delay = `at - emitted_at`, the
    /// Fig. 4 metric).
    pub emitted_at: Time,
    /// Scalar payload as the app saw it (after any repair-layer
    /// substitution), `None` for kind-only and blob events. The
    /// fault-suite correctness metric compares this against the
    /// sensor's ground-truth value model.
    pub value: Option<f64>,
}

impl DeliveryRecord {
    /// Sensor-to-logic-node delay of this delivery.
    #[must_use]
    pub fn delay(&self) -> Duration {
        self.at - self.emitted_at
    }
}

/// Measurement tap for one application.
#[derive(Debug, Default)]
pub struct AppProbe {
    deliveries: Mutex<Vec<DeliveryRecord>>,
    commands: Mutex<Vec<(Time, Command)>>,
    alerts: Mutex<Vec<(Time, ProcessId, String)>>,
    transitions: Mutex<Vec<(Time, ProcessId, bool)>>,
    epoch_misses: AtomicU64,
    stale_drops: AtomicU64,
}

impl AppProbe {
    /// Creates an empty probe.
    #[must_use]
    pub fn new() -> std::sync::Arc<Self> {
        std::sync::Arc::new(Self::default())
    }

    /// Records an event processed by an active logic node.
    pub fn record_delivery(&self, record: DeliveryRecord) {
        lock_recovering(&self.deliveries).push(record);
    }

    /// Records a command issued by the app.
    pub fn record_command(&self, at: Time, command: Command) {
        lock_recovering(&self.commands).push((at, command));
    }

    /// Records a user alert raised by the app.
    pub fn record_alert(&self, at: Time, by: ProcessId, message: String) {
        lock_recovering(&self.alerts).push((at, by, message));
    }

    /// Records a promotion (`active = true`) or demotion of the logic
    /// node at `process`.
    pub fn record_transition(&self, at: Time, process: ProcessId, active: bool) {
        lock_recovering(&self.transitions).push((at, process, active));
    }

    /// Records a missed polling epoch (§4.1's exception).
    pub fn record_epoch_miss(&self) {
        self.epoch_misses.fetch_add(1, Ordering::SeqCst);
    }

    /// Records events rejected by a staleness bound (§6).
    pub fn record_stale_drops(&self, n: u64) {
        self.stale_drops.fetch_add(n, Ordering::SeqCst);
    }

    /// All deliveries in recording order (may contain duplicates when
    /// several processes were simultaneously active during partitions,
    /// or after a failover replay).
    #[must_use]
    pub fn deliveries(&self) -> Vec<DeliveryRecord> {
        lock_recovering(&self.deliveries).clone()
    }

    /// Count of *distinct* events processed — the Fig. 6 "% events
    /// delivered" numerator.
    #[must_use]
    pub fn unique_delivered(&self) -> usize {
        let deliveries = lock_recovering(&self.deliveries);
        let set: BTreeSet<EventId> = deliveries.iter().map(|d| d.event).collect();
        set.len()
    }

    /// Delays of all deliveries (Fig. 4 metric).
    #[must_use]
    pub fn delays(&self) -> Vec<Duration> {
        lock_recovering(&self.deliveries)
            .iter()
            .map(DeliveryRecord::delay)
            .collect()
    }

    /// Mean delay, if any deliveries occurred.
    #[must_use]
    pub fn mean_delay(&self) -> Option<Duration> {
        let delays = self.delays();
        if delays.is_empty() {
            return None;
        }
        let total: u64 = delays.iter().map(|d| d.as_micros()).sum();
        Some(Duration::from_micros(total / delays.len() as u64))
    }

    /// Commands issued.
    #[must_use]
    pub fn commands(&self) -> Vec<(Time, Command)> {
        lock_recovering(&self.commands).clone()
    }

    /// Alerts raised.
    #[must_use]
    pub fn alerts(&self) -> Vec<(Time, ProcessId, String)> {
        lock_recovering(&self.alerts).clone()
    }

    /// Promotion/demotion history.
    #[must_use]
    pub fn transitions(&self) -> Vec<(Time, ProcessId, bool)> {
        lock_recovering(&self.transitions).clone()
    }

    /// Missed polling epochs.
    #[must_use]
    pub fn epoch_misses(&self) -> u64 {
        self.epoch_misses.load(Ordering::SeqCst)
    }

    /// Events rejected by staleness bounds.
    #[must_use]
    pub fn stale_drops(&self) -> u64 {
        self.stale_drops.load(Ordering::SeqCst)
    }
}

/// Measurement tap for event-store residency, shared by every process
/// of a deployment. Each process samples its store size on its
/// periodic tick; tests use the samples to assert bounded growth.
#[derive(Debug, Default)]
pub struct StoreProbe {
    samples: Mutex<Vec<(Time, ProcessId, usize)>>,
}

impl StoreProbe {
    /// Creates an empty probe.
    #[must_use]
    pub fn new() -> std::sync::Arc<Self> {
        std::sync::Arc::new(Self::default())
    }

    /// Records the store size of `process` at `at`.
    pub fn record_len(&self, at: Time, process: ProcessId, len: usize) {
        lock_recovering(&self.samples).push((at, process, len));
    }

    /// All samples in recording order.
    #[must_use]
    pub fn samples(&self) -> Vec<(Time, ProcessId, usize)> {
        lock_recovering(&self.samples).clone()
    }

    /// The largest store size any process ever reported.
    #[must_use]
    pub fn max_len(&self) -> usize {
        lock_recovering(&self.samples)
            .iter()
            .map(|(_, _, len)| *len)
            .max()
            .unwrap_or(0)
    }
}

/// Measurement tap for radio ingest, shared by every process of a
/// deployment: which process heard which event from a sensor. It tells
/// [`check`] which events a process that never crashed held, and so
/// which events Gapless owes.
#[derive(Debug, Default)]
pub struct IngestProbe {
    heard: Mutex<Vec<(ProcessId, EventId)>>,
}

impl IngestProbe {
    /// Creates an empty probe.
    #[must_use]
    pub fn new() -> std::sync::Arc<Self> {
        std::sync::Arc::new(Self::default())
    }

    /// Records that `process` heard `event` from the radio.
    pub fn record(&self, process: ProcessId, event: EventId) {
        lock_recovering(&self.heard).push((process, event));
    }

    /// Every `(process, event)` hearing in recording order.
    #[must_use]
    pub fn heard(&self) -> Vec<(ProcessId, EventId)> {
        lock_recovering(&self.heard).clone()
    }
}

/// One push sensor's stream as [`check`] judges it.
#[derive(Debug, Clone)]
pub struct Stream {
    /// The sensor.
    pub sensor: SensorId,
    /// The guarantee the app asked for.
    pub delivery: Delivery,
    /// `(emission time, event id)` pairs, the sensor's emission log.
    pub emitted: Vec<(Time, EventId)>,
}

/// What [`check`] judges: the probes of one run, plus what the harness
/// did to it.
#[derive(Debug, Clone, Default)]
pub struct ProbeData {
    /// Every push sensor the app subscribes to. Deliveries of a sensor
    /// not listed are not judged (a polled sensor keeps no emission
    /// log).
    pub streams: Vec<Stream>,
    /// Who heard what from the radio ([`IngestProbe::heard`]).
    pub heard: Vec<(ProcessId, EventId)>,
    /// The app's deliveries in recording order ([`AppProbe::deliveries`]).
    pub deliveries: Vec<DeliveryRecord>,
    /// Every process the harness crashed, recovered or not.
    pub crashed: ProcSet,
    /// Whether the harness set a partition.
    pub partitioned: bool,
    /// Gapless owes only events emitted before this instant; later ones
    /// may still be in flight when the run ends.
    pub owed_before: Time,
    /// Routine instances of every routine ([`crate::RoutineProbe::instances`]).
    pub instances: Vec<InstanceRecord>,
    /// Command ids the actuators applied, from their effect logs.
    pub applied: Vec<CommandId>,
    /// A ledger chain to verify, with its genesis seed.
    pub ledger: Option<(u64, Vec<LedgerEntry>)>,
}

/// One broken guarantee, naming its offender.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Gapless: heard by a process that never crashed, emitted before
    /// the cut, and never delivered.
    Undelivered(EventId),
    /// Delivered, but never emitted, or not at the emission time the
    /// delivery carries.
    Phantom(EventId),
    /// Gap: first delivered after an event with a higher `seq`.
    OutOfOrder(EventId),
    /// Processed more than once with no crash or partition to excuse it.
    Duplicate(EventId),
    /// A routine instance applied some but not all of its steps.
    PartialFiring(u64),
    /// A routine instance that never committed applied a step.
    UncommittedFiring(u64),
    /// The ledger chain breaks at this entry, the first that fails
    /// verification.
    BrokenLedger(usize),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Undelivered(id) => write!(f, "gapless event {id} owed and never delivered"),
            Self::Phantom(id) => write!(f, "event {id} delivered but never emitted at that time"),
            Self::OutOfOrder(id) => write!(f, "gap event {id} first delivered after a later one"),
            Self::Duplicate(id) => {
                write!(f, "event {id} processed twice without crash or partition")
            }
            Self::PartialFiring(i) => {
                write!(f, "routine instance {i} fired some but not all steps")
            }
            Self::UncommittedFiring(i) => write!(f, "uncommitted routine instance {i} fired"),
            Self::BrokenLedger(index) => write!(f, "ledger chain broken at entry {index}"),
        }
    }
}

/// The judgement of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Gapless events the run owed the app.
    pub owed: u64,
    /// Every broken guarantee, rule by rule.
    pub violations: Vec<Violation>,
}

impl Verdict {
    /// Whether every guarantee held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Judges one run against the paper's guarantees and ours:
///
/// * **Gapless**: an event heard by a process that never crashed, and
///   emitted before the cut, is delivered.
/// * **No phantom**: nothing is delivered that was not emitted, and at
///   its emission time.
/// * **Gap**: first deliveries are in `seq` order.
/// * **No duplicate processing** unless a host crashed or a partition
///   was set.
/// * **Routines**: no instance fires some but not all of its steps, and
///   no uncommitted instance fires.
/// * **Ledger**: the chain, if given, verifies.
#[must_use]
pub fn check(data: &ProbeData) -> Verdict {
    let mut v = Verdict::default();
    let held: HashSet<EventId> = data
        .heard
        .iter()
        .filter(|(p, _)| !data.crashed.contains(*p))
        .map(|(_, id)| *id)
        .collect();
    let mut times: HashMap<EventId, usize> = HashMap::new();
    for d in &data.deliveries {
        *times.entry(d.event).or_default() += 1;
    }

    for stream in data
        .streams
        .iter()
        .filter(|s| s.delivery == Delivery::Gapless)
    {
        for (at, id) in &stream.emitted {
            if *at < data.owed_before && held.contains(id) {
                v.owed += 1;
                if !times.contains_key(id) {
                    v.violations.push(Violation::Undelivered(*id));
                }
            }
        }
    }

    let emitted: HashMap<EventId, Time> = data
        .streams
        .iter()
        .flat_map(|s| s.emitted.iter().map(|(at, id)| (*id, *at)))
        .collect();
    let judged = |sensor: SensorId| data.streams.iter().find(|s| s.sensor == sensor);
    let mut phantoms = HashSet::new();
    let mut firsts = HashSet::new();
    let mut highest: HashMap<SensorId, u64> = HashMap::new();
    for d in &data.deliveries {
        let Some(stream) = judged(d.event.sensor) else {
            continue;
        };
        if emitted.get(&d.event) != Some(&d.emitted_at) && phantoms.insert(d.event) {
            v.violations.push(Violation::Phantom(d.event));
        }
        if stream.delivery == Delivery::Gap && firsts.insert(d.event) {
            let top = highest.entry(d.event.sensor).or_insert(d.event.seq);
            if d.event.seq < *top {
                v.violations.push(Violation::OutOfOrder(d.event));
            }
            *top = (*top).max(d.event.seq);
        }
    }

    if data.crashed.is_empty() && !data.partitioned {
        let mut counted = HashSet::new();
        for d in &data.deliveries {
            if times[&d.event] > 1 && counted.insert(d.event) {
                v.violations.push(Violation::Duplicate(d.event));
            }
        }
    }

    let applied: HashSet<CommandId> = data.applied.iter().copied().collect();
    for rec in &data.instances {
        let fired = rec
            .commands
            .iter()
            .filter(|(_, c)| applied.contains(c))
            .count();
        if fired != 0 && fired != rec.commands.len() {
            v.violations.push(Violation::PartialFiring(rec.instance));
        }
        if fired > 0 && rec.state != RoutineTransition::Committed {
            v.violations
                .push(Violation::UncommittedFiring(rec.instance));
        }
    }

    if let Some((seed, entries)) = &data.ledger {
        if let Err(broken) = LedgerVerifier::verify(*seed, entries) {
            v.violations.push(Violation::BrokenLedger(broken.index));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use rivulet_storage::LedgerChain;
    use rivulet_types::{ActuatorId, OperatorId, RoutineId};

    fn record(seq: u64, at_ms: u64, emitted_ms: u64) -> DeliveryRecord {
        DeliveryRecord {
            at: Time::from_millis(at_ms),
            by: ProcessId(0),
            event: EventId::new(SensorId(1), seq),
            emitted_at: Time::from_millis(emitted_ms),
            value: None,
        }
    }

    #[test]
    fn delivery_bookkeeping_and_dedup() {
        let probe = AppProbe::new();
        probe.record_delivery(record(0, 10, 5));
        probe.record_delivery(record(1, 20, 12));
        probe.record_delivery(record(1, 22, 12)); // duplicate event
        assert_eq!(probe.deliveries().len(), 3);
        assert_eq!(probe.unique_delivered(), 2);
        assert_eq!(
            probe.delays(),
            vec![
                Duration::from_millis(5),
                Duration::from_millis(8),
                Duration::from_millis(10)
            ]
        );
        assert_eq!(probe.mean_delay(), Some(Duration::from_micros(7_666)));
    }

    #[test]
    fn empty_probe_mean_delay_is_none() {
        let probe = AppProbe::new();
        assert_eq!(probe.mean_delay(), None);
        assert_eq!(probe.unique_delivered(), 0);
        assert_eq!(probe.epoch_misses(), 0);
    }

    #[test]
    fn transitions_alerts_and_misses() {
        let probe = AppProbe::new();
        probe.record_transition(Time::from_secs(1), ProcessId(0), true);
        probe.record_transition(Time::from_secs(24), ProcessId(0), false);
        probe.record_transition(Time::from_secs(26), ProcessId(1), true);
        probe.record_alert(Time::from_secs(2), ProcessId(0), "intrusion".into());
        probe.record_epoch_miss();
        probe.record_epoch_miss();
        assert_eq!(probe.transitions().len(), 3);
        assert_eq!(probe.alerts().len(), 1);
        assert_eq!(probe.epoch_misses(), 2);
    }

    #[test]
    fn poisoned_probe_lock_recovers_data() {
        let probe = AppProbe::new();
        probe.record_delivery(record(0, 10, 5));
        // A panicking actor thread poisons the deliveries mutex.
        let p = std::sync::Arc::clone(&probe);
        let _ = std::thread::spawn(move || {
            let _guard = p.deliveries.lock().unwrap();
            panic!("simulated actor crash while holding the probe lock");
        })
        .join();
        // Readers and writers keep working and the data survives.
        probe.record_delivery(record(1, 20, 12));
        assert_eq!(probe.deliveries().len(), 2);
        assert_eq!(probe.unique_delivered(), 2);
    }

    const SENSOR: SensorId = SensorId(1);

    fn id(seq: u64) -> EventId {
        EventId::new(SENSOR, seq)
    }

    /// Four events emitted 10 ms apart, heard by processes 0 and 1,
    /// each delivered once, in order, 5 ms after emission.
    fn clean(delivery: Delivery) -> ProbeData {
        let emitted: Vec<(Time, EventId)> =
            (0..4).map(|s| (Time::from_millis(10 * s), id(s))).collect();
        ProbeData {
            streams: vec![Stream {
                sensor: SENSOR,
                delivery,
                emitted: emitted.clone(),
            }],
            heard: emitted
                .iter()
                .flat_map(|(_, e)| [(ProcessId(0), *e), (ProcessId(1), *e)])
                .collect(),
            deliveries: (0..4).map(|s| record(s, 10 * s + 5, 10 * s)).collect(),
            owed_before: Time::from_secs(1),
            ..ProbeData::default()
        }
    }

    fn command(seq: u64) -> CommandId {
        CommandId::new(ProcessId(0), OperatorId(0), seq)
    }

    /// A committed two-step instance 0 whose both steps applied.
    fn routine(state: RoutineTransition, applied: &[u64]) -> ProbeData {
        ProbeData {
            instances: vec![InstanceRecord {
                instance: 0,
                state,
                commands: vec![(ActuatorId(0), command(0)), (ActuatorId(1), command(1))],
            }],
            applied: applied.iter().map(|s| command(*s)).collect(),
            ..ProbeData::default()
        }
    }

    fn chain(seed: u64) -> Vec<LedgerEntry> {
        let mut chain = LedgerChain::seeded(seed);
        let steps = vec![(ActuatorId(0), command(0))];
        [RoutineTransition::Staged, RoutineTransition::Committed]
            .into_iter()
            .map(|t| chain.append(RoutineId(1), 0, t, Time::from_millis(1), steps.clone()))
            .collect()
    }

    #[test]
    fn a_clean_run_passes_and_owes_what_survivors_heard() {
        for delivery in [Delivery::Gapless, Delivery::Gap] {
            let mut data = clean(delivery);
            data.instances = routine(RoutineTransition::Committed, &[0, 1]).instances;
            data.applied = vec![command(0), command(1)];
            data.ledger = Some((7, chain(7)));
            let verdict = check(&data);
            assert!(verdict.passed(), "{delivery}: {:?}", verdict.violations);
            let owed = if delivery == Delivery::Gapless { 4 } else { 0 };
            assert_eq!(verdict.owed, owed, "{delivery}");
        }
        // An untouched routine instance (staged, nothing applied) is fine.
        assert!(check(&routine(RoutineTransition::Staged, &[])).passed());
    }

    #[test]
    fn an_owed_gapless_event_never_delivered_is_named() {
        let mut data = clean(Delivery::Gapless);
        data.deliveries.remove(2);
        let verdict = check(&data);
        assert_eq!(verdict.violations, vec![Violation::Undelivered(id(2))]);
        // Not owed: emitted at or after the cut, or heard only by a
        // process that crashed.
        data.owed_before = Time::from_millis(20);
        assert_eq!(check(&data).owed, 2);
        assert!(check(&data).passed());
        data.owed_before = Time::from_secs(1);
        data.heard
            .retain(|(p, e)| *e != id(2) || *p == ProcessId(1));
        data.crashed = ProcSet::singleton(ProcessId(1));
        assert_eq!(check(&data).owed, 3);
        assert!(check(&data).passed());
    }

    #[test]
    fn a_delivery_nobody_emitted_then_is_a_phantom() {
        let mut data = clean(Delivery::Gapless);
        data.deliveries.push(record(9, 50, 40));
        data.deliveries[1].emitted_at = Time::from_millis(11);
        let verdict = check(&data);
        assert_eq!(
            verdict.violations,
            vec![Violation::Phantom(id(1)), Violation::Phantom(id(9))]
        );
        // A sensor without a stream is not judged.
        data.streams.clear();
        assert!(check(&data).passed());
    }

    #[test]
    fn a_gap_stream_delivered_out_of_order_is_named() {
        let mut data = clean(Delivery::Gap);
        data.deliveries.swap(1, 2);
        assert_eq!(check(&data).violations, vec![Violation::OutOfOrder(id(1))]);
        // Gapless promises no order.
        data.streams[0].delivery = Delivery::Gapless;
        assert!(check(&data).passed());
    }

    #[test]
    fn a_duplicate_is_excused_only_by_a_crash_or_a_partition() {
        let mut data = clean(Delivery::Gapless);
        data.deliveries.push(record(3, 60, 30));
        data.deliveries.push(record(3, 70, 30));
        assert_eq!(check(&data).violations, vec![Violation::Duplicate(id(3))]);
        data.partitioned = true;
        assert!(check(&data).passed());
        data.partitioned = false;
        data.crashed = ProcSet::singleton(ProcessId(2));
        assert!(check(&data).passed());
    }

    #[test]
    fn a_partial_or_uncommitted_routine_firing_is_named() {
        let partial = check(&routine(RoutineTransition::Committed, &[1]));
        assert_eq!(partial.violations, vec![Violation::PartialFiring(0)]);
        let phantom = check(&routine(RoutineTransition::Aborted, &[0, 1]));
        assert_eq!(phantom.violations, vec![Violation::UncommittedFiring(0)]);
        let both = check(&routine(RoutineTransition::Staged, &[0]));
        assert_eq!(
            both.violations,
            vec![Violation::PartialFiring(0), Violation::UncommittedFiring(0)]
        );
    }

    #[test]
    fn a_broken_ledger_chain_is_named_at_its_entry() {
        let mut tampered = chain(7);
        tampered[1].instance ^= 1;
        let judge = |seed: u64, entries: Vec<LedgerEntry>| {
            check(&ProbeData {
                ledger: Some((seed, entries)),
                ..ProbeData::default()
            })
            .violations
        };
        assert_eq!(judge(7, tampered), vec![Violation::BrokenLedger(1)]);
        // The wrong genesis seed breaks the first entry.
        assert_eq!(judge(8, chain(7)), vec![Violation::BrokenLedger(0)]);
    }
}
