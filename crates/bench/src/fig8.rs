//! Fig. 8 — coordinated vs uncoordinated polling overhead.
//!
//! Three processes, four Z-Wave poll-based sensors (temperature,
//! luminance, relative humidity, UV) with the paper's polling periods
//! and application epochs. The metric is poll requests *reaching the
//! sensor* (battery cost), normalized against the optimal one poll per
//! epoch.

use rivulet_core::app::{AppBuilder, CombinerSpec, PollSpec, WindowSpec};
use rivulet_core::delivery::polling::PollStrategy;
use rivulet_core::delivery::Delivery;
use rivulet_core::deploy::HomeBuilder;
use rivulet_net::sim::{SimConfig, SimNet};
use rivulet_types::{AppId, Duration, Time};

/// One sensor's polling measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct PollingPoint {
    /// Sensor name from the device catalog.
    pub sensor: &'static str,
    /// Polls that reached the sensor.
    pub polls_received: u64,
    /// Epochs elapsed (the optimal poll count).
    pub optimal: u64,
    /// `polls_received / optimal`.
    pub normalized: f64,
    /// Epochs that ended without an event.
    pub missed_epochs: u64,
}

/// The scheduling modes compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Gapless with the paper's slotted coordination.
    Coordinated,
    /// Gapless with uniform-random per-process polling.
    Uncoordinated,
    /// Gap: only the designated node polls.
    Gap,
}

impl Mode {
    fn to_wiring(self) -> (Delivery, Option<PollStrategy>) {
        match self {
            Mode::Coordinated => (Delivery::Gapless, None),
            Mode::Uncoordinated => (Delivery::Gapless, Some(PollStrategy::Uncoordinated)),
            Mode::Gap => (Delivery::Gap, None),
        }
    }
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mode::Coordinated => write!(f, "coordinated"),
            Mode::Uncoordinated => write!(f, "uncoordinated"),
            Mode::Gap => write!(f, "gap (single poller)"),
        }
    }
}

/// Per-link radio loss of the paper's real Z-Wave testbed: poll
/// requests and responses can both be lost, forcing the coordinated
/// scheduler's re-poll path.
const RADIO_LOSS: f64 = 0.02;

/// Runs the polling experiment for one mode under the testbed's 2 %
/// radio loss.
#[must_use]
pub fn run(mode: Mode, duration: Duration, seed: u64) -> Vec<PollingPoint> {
    let (delivery, strategy) = mode.to_wiring();
    let mut net = SimNet::new(SimConfig::with_seed(seed));
    let mut home = HomeBuilder::new(&mut net);
    let p0 = home.add_host("hub");
    let p1 = home.add_host("tv");
    let p2 = home.add_host("fridge");
    let procs = [p0, p1, p2];

    let sensors = rivulet_devices::catalog::fig8_sensors();
    let mut declared = Vec::new();
    for (entry, model) in &sensors {
        let (id, probe) = home.add_poll_sensor(
            entry.name,
            model.clone(),
            entry.poll_latency.expect("poll sensor"),
            &procs,
        );
        declared.push((entry.clone(), id, probe));
    }

    // One operator consuming all four sensors with the paper's epochs.
    let mut op = home_app_builder();
    for (entry, id, _) in &declared {
        let mut poll = PollSpec::every(entry.fig8_epoch.expect("poll sensor"));
        if let Some(s) = strategy {
            poll = poll.with_strategy(s);
        }
        op = op.polled_sensor(*id, delivery, WindowSpec::count(1).sliding(), poll);
    }
    let app = op.done().build().expect("valid app");
    let probe = home.add_app(app);
    let home = home.build();

    for (_, id, _) in &declared {
        let device = home.sensor_actor(*id);
        for p in &procs {
            let host = home.actor_of(*p);
            net.topology_mut().set_loss(device, host, RADIO_LOSS);
            net.topology_mut().set_loss(host, device, RADIO_LOSS);
        }
    }

    net.run_until(Time::ZERO + duration);

    let mut out = Vec::new();
    for (entry, _, poll_probe) in declared {
        let epoch = entry.fig8_epoch.expect("poll sensor");
        let optimal = duration.as_micros() / epoch.as_micros();
        let received = poll_probe.received();
        out.push(PollingPoint {
            sensor: entry.name,
            polls_received: received,
            optimal,
            normalized: received as f64 / optimal.max(1) as f64,
            missed_epochs: probe.epoch_misses(),
        });
    }
    out
}

fn home_app_builder() -> rivulet_core::app::graph::OperatorBuilder {
    AppBuilder::new(AppId(1), "polling-app").operator(
        "sink",
        CombinerSpec::Any,
        |_: &mut rivulet_core::app::OpCtx, _: &rivulet_core::app::CombinedWindows| {},
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEN: Duration = Duration::from_secs(120);

    #[test]
    fn coordinated_polling_is_near_optimal() {
        for point in run(Mode::Coordinated, LEN, 3) {
            assert!(
                (0.95..=1.35).contains(&point.normalized),
                "{}: {:.2}x optimal ({} polls / {} epochs)",
                point.sensor,
                point.normalized,
                point.polls_received,
                point.optimal
            );
        }
    }

    #[test]
    fn uncoordinated_polling_wastes_battery() {
        for point in run(Mode::Uncoordinated, LEN, 3) {
            assert!(
                point.normalized >= 2.0,
                "{}: expected ≥2x optimal, got {:.2}x",
                point.sensor,
                point.normalized
            );
        }
    }

    #[test]
    fn same_seed_runs_measure_the_same_points() {
        let first = run(Mode::Uncoordinated, LEN, 3);
        assert_eq!(run(Mode::Uncoordinated, LEN, 3), first);
    }

    #[test]
    fn gap_polling_is_optimal_or_below() {
        for point in run(Mode::Gap, LEN, 3) {
            assert!(
                point.normalized <= 1.1,
                "{}: gap should be ≈1x, got {:.2}x",
                point.sensor,
                point.normalized
            );
        }
    }

    #[test]
    fn coordinated_beats_uncoordinated_everywhere() {
        let coordinated = run(Mode::Coordinated, LEN, 3);
        let uncoordinated = run(Mode::Uncoordinated, LEN, 3);
        for (c, u) in coordinated.iter().zip(&uncoordinated) {
            assert_eq!(c.sensor, u.sensor);
            assert!(
                c.polls_received < u.polls_received,
                "{}: {} vs {}",
                c.sensor,
                c.polls_received,
                u.polls_received
            );
        }
    }

    #[test]
    fn coordinated_epochs_are_answered() {
        let points = run(Mode::Coordinated, LEN, 3);
        // Even at 2 % radio loss, re-polling answers almost every
        // epoch.
        for p in &points {
            assert!(
                p.missed_epochs <= 3,
                "{}: {} missed epochs",
                p.sensor,
                p.missed_epochs
            );
        }
    }
}
