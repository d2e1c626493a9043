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

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use rivulet_types::{Command, Duration, EventId, ProcessId, Time};

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

#[cfg(test)]
mod tests {
    use super::*;
    use rivulet_types::SensorId;

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
}
