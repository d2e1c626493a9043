//! The group-commit curve on a disk that takes time: what each flush
//! policy costs a delivery, and how many fsyncs it spends per event.
//!
//! The home has the shape of the `perf` harness's `durable_routine`
//! workload: five processes on a durable ring, one 200 Hz sensor heard
//! only by host 1, the app on host 0 (which adapts every actuator)
//! turning each event into a command and firing a compensated
//! two-actuator routine on every tenth. Every process logs to its own
//! simulated disk, whose fsync takes [`StorageBackend::sync_cost`] of
//! virtual time; the durability gate starts a flush at once for an
//! append an action waits on and releases the rest on the policy's
//! release points (DESIGN §4.2). Only the flush policy varies.
//!
//! ```text
//! cargo run --release -p rivulet-bench --bin bench -- --group-commit-table
//! ```

use std::sync::Arc;

use rivulet_core::app::{AppBuilder, CombinedWindows, CombinerSpec, OpCtx, WindowSpec};
use rivulet_core::delivery::Delivery;
use rivulet_core::deploy::HomeBuilder;
use rivulet_core::routine::RoutineSpec;
use rivulet_core::RivuletConfig;
use rivulet_devices::sensor::{EmissionSchedule, PayloadSpec};
use rivulet_net::sim::{SimConfig, SimNet};
use rivulet_storage::{FlushPolicy, SimBackend, StorageBackend, WalOptions};
use rivulet_types::{
    ActuationState, AppId, CommandKind, Duration, EventKind, ProcessId, RoutineId, Time,
};

/// The policies of the curve, in the order the table prints them.
#[must_use]
pub fn policies() -> [FlushPolicy; 4] {
    [
        FlushPolicy::EveryN(1),
        FlushPolicy::EveryN(8),
        FlushPolicy::EveryInterval(Duration::from_millis(3)),
        FlushPolicy::EveryInterval(Duration::from_millis(10)),
    ]
}

/// One policy's point on the curve.
#[derive(Debug, Clone)]
pub struct CurveRow {
    /// The flush policy every process ran.
    pub policy: FlushPolicy,
    /// Events the app processed.
    pub delivered: usize,
    /// Median emission → app delay.
    pub deliver_p50: Duration,
    /// 99th-percentile emission → app delay.
    pub deliver_p99: Duration,
    /// fsyncs across every disk of the home, per delivered event.
    pub fsyncs_per_event: f64,
    /// WAL event appends per flush, home-wide.
    pub events_per_flush: f64,
    /// Inter-process bytes on the air per delivered event: the beat's
    /// share in one frame per peer shows here.
    pub wifi_bytes_per_event: f64,
    /// Flushes the adaptive bound forced, home-wide.
    pub forced_flushes: u64,
}

/// Runs the home under `policy` for `duration` of virtual time.
///
/// # Panics
///
/// Panics on a malformed deployment (a harness bug, not a measurement).
#[must_use]
pub fn run_policy(policy: FlushPolicy, duration: Duration, seed: u64) -> CurveRow {
    let mut net = SimNet::new(SimConfig::with_seed(seed));
    net.recorder().set_enabled(true);
    let config = RivuletConfig::default()
        .with_routines(true)
        .with_routine_ledger_seed(seed);
    let mut home = HomeBuilder::new(&mut net).with_config(config);
    let hosts: Vec<ProcessId> = (0..5).map(|i| home.add_host(format!("host{i}"))).collect();
    let backends: Vec<Arc<SimBackend>> = (0..5)
        .map(|i| Arc::new(SimBackend::new(seed.wrapping_mul(131).wrapping_add(i))))
        .collect();
    let options = WalOptions {
        flush_policy: policy,
        ..WalOptions::default()
    };
    let for_factory = backends.clone();
    let mut home = home.with_storage(options, Duration::from_secs(10), move |pid: ProcessId| {
        Arc::clone(&for_factory[pid.as_u32() as usize]) as Arc<dyn StorageBackend>
    });
    let (sensor, _) = home.add_push_sensor(
        "reading",
        PayloadSpec::KindOnly(EventKind::Motion),
        EmissionSchedule::Periodic(Duration::from_millis(5)),
        &hosts[1..2],
    );
    let reach = &hosts[..1];
    let (dimmer, _) = home.add_actuator("dimmer", ActuationState::Level(0.0), reach);
    let (lights, _) = home.add_actuator("lights", ActuationState::Switch(true), reach);
    let (lock, _) = home.add_actuator("lock", ActuationState::Switch(false), reach);
    let routine = RoutineId(1);
    let _ = home.add_routine(
        RoutineSpec::new(routine, "leaving-home")
            .step_compensated(
                lights,
                CommandKind::Set(ActuationState::Switch(false)),
                CommandKind::Set(ActuationState::Switch(true)),
            )
            .step_compensated(
                lock,
                CommandKind::Set(ActuationState::Switch(true)),
                CommandKind::Set(ActuationState::Switch(false)),
            ),
    );
    let app = AppBuilder::new(AppId(1), "per-event-actuation")
        .operator(
            "actuate",
            CombinerSpec::Any,
            move |ctx: &mut OpCtx, w: &CombinedWindows| {
                for event in w.all_events() {
                    ctx.set_level(dimmer, event.id.seq as f64);
                    if event.id.seq % 10 == 9 {
                        ctx.run_routine(routine);
                    }
                }
            },
        )
        .sensor(sensor, Delivery::Gapless, WindowSpec::count(1))
        .actuator(dimmer, Delivery::Gapless)
        .actuator(lights, Delivery::Gapless)
        .actuator(lock, Delivery::Gapless)
        .done()
        .build()
        .expect("valid app");
    let probe = home.add_app(app);
    let _home = home.build();
    net.run_until(Time::ZERO + duration);

    let mut delays = probe.delays();
    delays.sort_unstable();
    let at = |q: f64| delays[((delays.len() - 1) as f64 * q).round() as usize];
    let syncs: u64 = backends.iter().map(|b| b.op_counts().1).sum();
    let obs = net.obs_snapshot();
    let delivered = delays.len();
    CurveRow {
        policy,
        delivered,
        deliver_p50: at(0.5),
        deliver_p99: at(0.99),
        fsyncs_per_event: syncs as f64 / delivered as f64,
        events_per_flush: obs.counter("wal.appends") as f64 / obs.counter("wal.flushes") as f64,
        wifi_bytes_per_event: obs.counter("net.wifi_bytes") as f64 / delivered as f64,
        forced_flushes: obs.counter("wal.forced_flushes"),
    }
}

/// Every point of the curve, one run per policy.
#[must_use]
pub fn curve(duration: Duration, seed: u64) -> Vec<CurveRow> {
    policies()
        .into_iter()
        .map(|policy| run_policy(policy, duration, seed))
        .collect()
}

/// The curve as a Markdown table.
#[must_use]
pub fn render_table(rows: &[CurveRow]) -> String {
    let ms = |d: Duration| d.as_micros() as f64 / 1_000.0;
    let mut out = String::from(
        "| policy | delivered | deliver p50 (ms) | deliver p99 (ms) | fsyncs / event | events / flush | WiFi bytes / event | forced flushes |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        let policy = match r.policy {
            FlushPolicy::EveryN(n) => format!("`EveryN({n})`"),
            FlushPolicy::EveryInterval(d) => format!("`EveryInterval({} ms)`", ms(d)),
        };
        out.push_str(&format!(
            "| {policy} | {} | {:.3} | {:.3} | {:.3} | {:.3} | {:.1} | {} |\n",
            r.delivered,
            ms(r.deliver_p50),
            ms(r.deliver_p99),
            r.fsyncs_per_event,
            r.events_per_flush,
            r.wifi_bytes_per_event,
            r.forced_flushes,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_policy_delivers_and_per_event_fsync_spends_the_most() {
        let rows = curve(Duration::from_secs(3), 42);
        assert!(rows.iter().all(|r| r.delivered > 400), "{rows:?}");
        let per_event = rows[0].fsyncs_per_event;
        assert!(
            rows[1..].iter().all(|r| r.fsyncs_per_event < per_event),
            "{rows:?}"
        );
    }
}
