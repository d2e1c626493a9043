//! What one repetition produced, as plain data.
//!
//! [`RepData`] is everything the harness can observe of a run from
//! outside the platform: the devices' ground-truth probes, the app
//! probe, the driver's counters and (in a traced repetition) the
//! platform's own `ObsSnapshot`. The oracle and every virtual-time
//! metric are pure functions of it, so both are unit-testable on
//! hand-made (and deliberately broken) traces.

use std::collections::{HashMap, HashSet};

use rivulet_core::probe::DeliveryRecord;
use rivulet_core::InstanceRecord;
use rivulet_net::metrics::FanoutSnapshot;
use rivulet_obs::ObsSnapshot;
use rivulet_storage::LedgerEntry;
use rivulet_types::{
    ActuationState, ActuatorId, Command, CommandId, Duration, EventId, ProcessId, SensorId, Time,
};

use crate::stats::LatencySummary;

/// Events emitted in the last second of a run may still be in flight
/// when virtual time expires; they are not counted as attempted.
pub const GRACE: Duration = Duration::from_secs(1);

/// Sensors start emitting at the instant the processes start booting;
/// an event emitted in the first second can reach a process that has
/// not joined the ring yet. The home is owed deliveries once it is up.
pub const BOOT: Duration = Duration::from_secs(1);

/// Guarantee a sensor's stream is delivered with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Guarantee {
    /// Every event ingested anywhere reaches the app, without gaps.
    Gapless,
    /// Ordered best effort.
    Gap,
}

/// One push sensor's ground truth.
#[derive(Debug, Clone)]
pub struct SensorTrace {
    /// The sensor.
    pub id: SensorId,
    /// Its delivery guarantee.
    pub guarantee: Guarantee,
    /// `(emission instant, seq)` in emission order.
    pub emissions: Vec<(Time, u64)>,
}

/// One actuator's ground truth.
#[derive(Debug, Clone)]
pub struct ActuatorTrace {
    /// The actuator.
    pub id: ActuatorId,
    /// Every physical effect, in application order.
    pub effects: Vec<(Time, CommandId, ActuationState)>,
    /// Commands the device refused as duplicates.
    pub duplicates_suppressed: u64,
}

/// One poll sensor's ground truth.
#[derive(Debug, Clone)]
pub struct PollTrace {
    /// The sensor.
    pub id: SensorId,
    /// Poll requests that reached the device.
    pub received: u64,
    /// Requests it answered.
    pub answered: u64,
    /// Requests dropped because a poll was outstanding.
    pub dropped_busy: u64,
    /// Epochs the app required within the run.
    pub epochs: u64,
}

/// Routine-engine ground truth of a repetition.
#[derive(Debug, Clone)]
pub struct RoutineTrace {
    /// Genesis seed of every process's ledger chain.
    pub ledger_seed: u64,
    /// Every staged instance, as the coordinator saw it.
    pub instances: Vec<InstanceRecord>,
    /// Each process's ledger, read back from its reopened WAL.
    pub ledgers: Vec<(ProcessId, Vec<LedgerEntry>)>,
    /// `ctx.run_routine` requests that reached a coordinator.
    pub triggered: u64,
    /// Requests refused because a target was unreachable.
    pub unreachable: u64,
    /// Every n-th event of the trigger sensor fires the routine.
    pub every: u64,
    /// The sensor whose events trigger it.
    pub trigger_sensor: SensorId,
}

/// How actuator effects name the event that caused them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Actuation {
    /// The app issues `Set(Level(code(event id)))` per event, on one of
    /// the first [`crate::home::ZONES`] actuators: each effect names its
    /// cause.
    PerEvent,
    /// The app decides when to act; the cause of a command is the
    /// newest event delivered at the instant it was issued.
    AppDecides,
}

/// Driver counters of a repetition.
#[derive(Debug, Clone, Default)]
pub struct NetCounts {
    /// Messages handed to the driver.
    pub messages_sent: u64,
    /// Messages that reached a live actor.
    pub messages_delivered: u64,
    /// Timers fired.
    pub timers_fired: u64,
    /// Bytes on process↔process links.
    pub wifi_bytes: u64,
    /// Bytes on device↔process links.
    pub radio_bytes: u64,
    /// Actor activations the simulator dispatched (`run_until`'s sum).
    pub sim_events: u64,
    /// Encode-once / coalescing / ack savings.
    pub fanout: FanoutSnapshot,
}

/// Everything observed of one repetition.
#[derive(Debug, Clone)]
pub struct RepData {
    /// Virtual instant the run ended.
    pub end: Time,
    /// Number of processes in the home.
    pub processes: usize,
    /// Push sensors.
    pub sensors: Vec<SensorTrace>,
    /// Poll sensors.
    pub polls: Vec<PollTrace>,
    /// Actuators.
    pub actuators: Vec<ActuatorTrace>,
    /// How effects map to causing events.
    pub actuation: Actuation,
    /// Events processed by active logic nodes, in processing order.
    pub deliveries: Vec<DeliveryRecord>,
    /// Commands the app issued.
    pub commands: Vec<(Time, Command)>,
    /// Logic-node promotions (`true`) and demotions.
    pub transitions: Vec<(Time, ProcessId, bool)>,
    /// Polling epochs the app saw missed.
    pub epoch_misses: u64,
    /// Events a staleness bound rejected.
    pub stale_drops: u64,
    /// `(crash, recover)` instants of the app-bearing process.
    pub crash: Option<(Time, Time)>,
    /// Routine ground truth, when the workload runs routines.
    pub routine: Option<RoutineTrace>,
    /// Largest store residency any process sampled.
    pub store_len_max: usize,
    /// Driver counters.
    pub net: NetCounts,
    /// The platform's own counters (empty unless the rep was traced).
    pub obs: ObsSnapshot,
}

/// Encodes an event id as an actuator level, exactly (sensor ids and
/// sequence numbers stay far below 2^20 and 2^32).
#[must_use]
pub fn level_code(id: EventId) -> f64 {
    f64::from(id.sensor.0) * 4_294_967_296.0 + id.seq as f64
}

/// Inverse of [`level_code`]; `None` for a level no event encodes to.
#[must_use]
pub fn decode_level(level: f64) -> Option<EventId> {
    if !(level.is_finite() && level >= 0.0 && level.fract() == 0.0) {
        return None;
    }
    let sensor = (level / 4_294_967_296.0).floor();
    let seq = level - sensor * 4_294_967_296.0;
    (sensor <= f64::from(u32::MAX)).then(|| EventId::new(SensorId(sensor as u32), seq as u64))
}

/// The service interruption of a run: the delivery gap that an observer
/// arriving at a uniformly random instant finds themselves in, at the
/// 99th percentile — the longest gap such that at least 1 % of the run
/// was spent in gaps that long or longer. (`gaps` is sorted in place.)
///
/// A failover outage of 2 s in a 60 s run covers 3 % of it, so this is
/// the outage; a steady stream's is about its longest regular
/// inter-arrival. The plain maximum is not used: on a steady stream it
/// is one rare coincidence of timers, and differs by a factor of two
/// between seeds.
#[must_use]
pub fn interruption_us(gaps: &mut [u64]) -> u64 {
    gaps.sort_unstable();
    let total: u128 = gaps.iter().map(|g| u128::from(*g)).sum();
    let mut below: u128 = 0;
    for gap in gaps.iter() {
        below += u128::from(*gap);
        if below * 100 >= total * 99 {
            return *gap;
        }
    }
    0
}

/// Virtual-time, user-visible results of a repetition. Every field is a
/// pure function of the seed: it repeats bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Virtual {
    /// Distinct events delivered to an active logic node.
    pub delivered: u64,
    /// Deliveries beyond the first of an event.
    pub duplicate_deliveries: u64,
    /// Emission → first processing, µs.
    pub deliver: LatencySummary,
    /// Emission of the causing event → first effect, µs.
    pub actuate: LatencySummary,
    /// The delivery gap an observer arriving at a random instant is in,
    /// 99th percentile, µs ([`interruption_us`]) — the failover gap on
    /// a workload that crashes the app's host.
    pub interruption_us: u64,
    /// Longest interval without a delivery at the app, µs.
    pub longest_gap_us: u64,
    /// WiFi bytes per delivered event.
    pub wifi_bytes_per_event: f64,
}

impl RepData {
    /// A repetition holding only counters: what the layer formulas read
    /// of a fleet, whose per-home probes were pooled already.
    #[must_use]
    pub fn counts_only(net: NetCounts, obs: ObsSnapshot, store_len_max: usize) -> Self {
        Self {
            end: Time::ZERO,
            processes: 0,
            sensors: Vec::new(),
            polls: Vec::new(),
            actuators: Vec::new(),
            actuation: Actuation::PerEvent,
            deliveries: Vec::new(),
            commands: Vec::new(),
            transitions: Vec::new(),
            epoch_misses: 0,
            stale_drops: 0,
            crash: None,
            routine: None,
            store_len_max,
            net,
            obs,
        }
    }

    /// Events emitted at or after this instant are not owed a delivery.
    #[must_use]
    pub fn grace_cut(&self) -> Time {
        Time::from_micros(self.end.as_micros().saturating_sub(GRACE.as_micros()))
    }

    /// Whether an operation begun at `at` counts as attempted: after
    /// boot, before the grace cut.
    #[must_use]
    pub fn owed(&self, at: Time) -> bool {
        at >= Time::ZERO + BOOT && at < self.grace_cut()
    }

    /// First delivery of each distinct event: `(event, emitted, at)`,
    /// in processing order.
    #[must_use]
    pub fn first_deliveries(&self) -> Vec<(EventId, Time, Time)> {
        let mut seen = HashSet::with_capacity(self.deliveries.len());
        let mut firsts = Vec::with_capacity(self.deliveries.len());
        for d in &self.deliveries {
            if seen.insert(d.event) {
                firsts.push((d.event, d.emitted_at, d.at));
            }
        }
        firsts
    }

    /// Effects of the per-event dimmer zones (every actuator but the
    /// routine's two).
    pub fn zone_effects(&self) -> impl Iterator<Item = &(Time, CommandId, ActuationState)> {
        self.actuators
            .iter()
            .take(crate::home::ZONES)
            .flat_map(|a| a.effects.iter())
    }

    /// Emission of the causing event → effect applied, µs, per the
    /// workload's [`Actuation`] mode (first effect per event).
    #[must_use]
    pub fn actuation_latencies(&self) -> Vec<u64> {
        match self.actuation {
            Actuation::PerEvent => {
                let emitted: HashMap<EventId, Time> = self
                    .deliveries
                    .iter()
                    .map(|d| (d.event, d.emitted_at))
                    .collect();
                let mut effects: Vec<_> = self.zone_effects().collect();
                effects.sort_by_key(|(at, _, _)| *at);
                let mut seen = HashSet::new();
                let mut out = Vec::with_capacity(effects.len());
                for (at, _, state) in effects {
                    let ActuationState::Level(level) = state else {
                        continue;
                    };
                    let Some(id) = decode_level(*level) else {
                        continue;
                    };
                    if let (true, Some(e)) = (seen.insert(id), emitted.get(&id)) {
                        out.push(at.duration_since(*e).as_micros());
                    }
                }
                out
            }
            Actuation::AppDecides => {
                // Newest emission among the events processed at each
                // instant: the last event contributing to a command
                // issued then.
                let mut newest_at: HashMap<Time, Time> = HashMap::new();
                for d in &self.deliveries {
                    let e = newest_at.entry(d.at).or_insert(d.emitted_at);
                    *e = (*e).max(d.emitted_at);
                }
                let issued: HashMap<CommandId, Time> = self
                    .commands
                    .iter()
                    .map(|(_, c)| (c.id, c.issued_at))
                    .collect();
                let mut out = Vec::new();
                for actuator in &self.actuators {
                    for (at, id, _) in &actuator.effects {
                        let Some(cause) = issued.get(id).and_then(|t| newest_at.get(t)) else {
                            continue;
                        };
                        out.push(at.duration_since(*cause).as_micros());
                    }
                }
                out
            }
        }
    }

    /// Intervals between consecutive first deliveries, both inside the
    /// owed window (a booting home's first deliveries are ragged), µs.
    #[must_use]
    pub fn delivery_gaps_us(&self, firsts: &[(EventId, Time, Time)]) -> Vec<u64> {
        firsts
            .windows(2)
            .filter(|w| self.owed(w[0].2) && self.owed(w[1].2))
            .map(|w| w[1].2.duration_since(w[0].2).as_micros())
            .collect()
    }

    /// Derives the virtual-time results. `Err` names the metric whose
    /// sample is too thin for its p99 (the sample-count rule).
    pub fn virtual_metrics(&self) -> Result<Virtual, String> {
        let firsts = self.first_deliveries();
        let mut deliver: Vec<u64> = firsts
            .iter()
            .map(|(_, emitted, at)| at.duration_since(*emitted).as_micros())
            .collect();
        let mut actuate = self.actuation_latencies();
        let thin = |what: &str, n: usize| format!("{what}: {n} samples cannot support a p99");
        let n_deliver = deliver.len();
        let n_actuate = actuate.len();
        let deliver =
            LatencySummary::of(&mut deliver).ok_or_else(|| thin("deliver latency", n_deliver))?;
        let actuate =
            LatencySummary::of(&mut actuate).ok_or_else(|| thin("actuate latency", n_actuate))?;
        let mut gaps = self.delivery_gaps_us(&firsts);
        let delivered = firsts.len() as u64;
        Ok(Virtual {
            delivered,
            duplicate_deliveries: self.deliveries.len() as u64 - delivered,
            deliver,
            actuate,
            interruption_us: interruption_us(&mut gaps),
            longest_gap_us: gaps.last().copied().unwrap_or(0),
            wifi_bytes_per_event: self.net.wifi_bytes as f64 / delivered as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_code_roundtrips() {
        for id in [
            EventId::new(SensorId(0), 0),
            EventId::new(SensorId(3), 123_456_789),
            EventId::new(SensorId(1000), u64::from(u32::MAX)),
        ] {
            assert_eq!(decode_level(level_code(id)), Some(id));
        }
        assert_eq!(decode_level(0.5), None);
        assert_eq!(decode_level(-1.0), None);
        assert_eq!(decode_level(f64::NAN), None);
    }

    #[test]
    fn interruption_is_time_weighted() {
        // 5 990 gaps of 10 ms and one 2 s outage: the outage is 3.2 %
        // of the time, so it is the 99th-percentile interruption.
        let mut gaps = vec![10_000u64; 5_990];
        gaps.push(2_000_000);
        assert_eq!(interruption_us(&mut gaps), 2_000_000);
        // Three rare 40 ms stalls in 100 s are 0.12 % of the time: the
        // regular gap stands.
        let mut gaps = vec![10_000u64; 9_988];
        gaps.extend([40_000; 3]);
        assert_eq!(interruption_us(&mut gaps), 10_000);
        assert_eq!(interruption_us(&mut []), 0);
    }
}
