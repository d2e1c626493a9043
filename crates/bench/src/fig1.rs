//! Fig. 1 — event-count skew across processes in a home deployment.
//!
//! The paper deployed four motion and two door Z-Wave sensors
//! multicasting to three processes for 15 days and observed large
//! per-process skews (2357 events difference for Door 1) caused by
//! radio interference and obstructions. We replay that deployment as a
//! seeded simulation: each sensor–process link gets a loss profile
//! (ambient interference plus per-pair obstructions such as the
//! concrete wall that starves one hub of Door 1's events), and we count
//! frames received per process.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rivulet_devices::frame::RadioFrame;
use rivulet_devices::radio::{FloorPlan, Position};
use rivulet_devices::sensor::{EmissionProbe, EmissionSchedule, PayloadSpec, PushSensor};
use rivulet_net::actor::{Actor, ActorEvent, ActorId, Context};
use rivulet_net::link::ActorClass;
use rivulet_net::sim::{SimConfig, SimNet};
use rivulet_types::wire::Wire;
use rivulet_types::{Duration, EventKind, SensorId, Time};

/// A process that simply counts received events per sensor.
struct CountingProcess {
    counts: Arc<Mutex<HashMap<(SensorId, usize), u64>>>,
    index: usize,
}

impl Actor for CountingProcess {
    fn on_event(&mut self, _ctx: &mut Context<'_>, event: ActorEvent) {
        if let ActorEvent::Message { payload, .. } = event {
            if let Ok(RadioFrame::Event(ev)) = RadioFrame::from_bytes(&payload) {
                *self
                    .counts
                    .lock()
                    .expect("lock")
                    .entry((ev.id.sensor, self.index))
                    .or_insert(0) += 1;
            }
        }
    }
}

/// One sensor's row of the figure.
#[derive(Debug, Clone)]
pub struct SkewRow {
    /// Sensor label ("Motion 1", "Door 1", …).
    pub sensor: String,
    /// Events the sensor emitted.
    pub emitted: u64,
    /// Events received at each of the three processes.
    pub received: [u64; 3],
}

impl SkewRow {
    /// Largest minus smallest per-process count — the skew the figure
    /// highlights.
    #[must_use]
    pub fn skew(&self) -> u64 {
        let max = self.received.iter().max().copied().unwrap_or(0);
        let min = self.received.iter().min().copied().unwrap_or(0);
        max - min
    }
}

/// Runs the deployment replay. `days` scales the deployment length
/// (the paper ran 15 days; 1 day already shows the effect).
#[must_use]
pub fn run(days: f64, seed: u64) -> Vec<SkewRow> {
    let mut net = SimNet::new(SimConfig::with_seed(seed));
    let counts: Arc<Mutex<HashMap<(SensorId, usize), u64>>> = Arc::new(Mutex::new(HashMap::new()));

    // Three processes spread across the home.
    let mut process_actors: Vec<ActorId> = Vec::new();
    for index in 0..3 {
        let c = Arc::clone(&counts);
        let actor = net.add_actor(&format!("process{index}"), ActorClass::Process, move || {
            Box::new(CountingProcess {
                counts: Arc::clone(&c),
                index,
            })
        });
        process_actors.push(actor);
    }

    // Floor plan: processes at kitchen / living room / bedroom;
    // obstructions model the walls and copper siding of §2.1.
    let mut plan = FloorPlan::new();
    plan.set_ambient_loss(0.01);
    let proc_pos = [
        Position::new(2.0, 2.0),
        Position::new(12.0, 3.0),
        Position::new(7.0, 12.0),
    ];
    let proc_place = proc_pos.map(|_| plan.place());

    // Sensors: four motion (Poisson, human-triggered) and two door.
    let sensor_defs: [(&str, EventKind, Duration, Position); 6] = [
        (
            "Motion 1",
            EventKind::Motion,
            Duration::from_secs(60),
            Position::new(3.0, 4.0),
        ),
        (
            "Motion 2",
            EventKind::Motion,
            Duration::from_secs(90),
            Position::new(11.0, 2.0),
        ),
        (
            "Motion 3",
            EventKind::Motion,
            Duration::from_secs(120),
            Position::new(8.0, 10.0),
        ),
        (
            "Motion 4",
            EventKind::Motion,
            Duration::from_secs(45),
            Position::new(5.0, 8.0),
        ),
        (
            "Door 1",
            EventKind::DoorOpen,
            Duration::from_secs(300),
            Position::new(1.0, 9.0),
        ),
        (
            "Door 2",
            EventKind::DoorOpen,
            Duration::from_secs(400),
            Position::new(13.0, 8.0),
        ),
    ];

    let mut rows: Vec<(String, Arc<EmissionProbe>, SensorId)> = Vec::new();
    for (i, (name, kind, mean, pos)) in sensor_defs.iter().enumerate() {
        let sensor_id = SensorId(i as u32);
        let place = plan.place();
        // Heavy obstruction between Door 1 and process 0: the paper's
        // 2357-event skew case.
        if *name == "Door 1" {
            plan.add_obstruction(place, proc_place[0], 0.45);
        }
        // Mild obstructions elsewhere, by distance.
        let probe = EmissionProbe::new();
        let p = Arc::clone(&probe);
        let targets = process_actors.clone();
        let schedule = EmissionSchedule::Poisson { mean: *mean };
        let payload = PayloadSpec::KindOnly(*kind);
        let sensor_actor = net.add_actor(name, ActorClass::Device, move || {
            Box::new(PushSensor::new(
                sensor_id,
                payload.clone(),
                schedule.clone(),
                targets.clone(),
                Arc::clone(&p),
            ))
        });
        // Apply floor-plan loss to each sensor→process link (distance
        // adds attenuation on top of obstructions).
        for (pi, (pp, ppos)) in proc_place.iter().zip(proc_pos).enumerate() {
            let base = plan.link_loss(place, *pp);
            let dist = pos.distance_to(ppos);
            let distance_loss = (dist / 40.0).min(0.6) * 0.3;
            let loss = 1.0 - (1.0 - base) * (1.0 - distance_loss);
            net.topology_mut()
                .set_loss(sensor_actor, process_actors[pi], loss);
        }
        rows.push(((*name).to_owned(), probe, sensor_id));
    }

    let horizon = Duration::from_secs((days * 86_400.0) as u64);
    net.run_until(Time::ZERO + horizon);

    let counts = counts.lock().expect("lock");
    rows.into_iter()
        .map(|(name, probe, id)| {
            let received = [
                counts.get(&(id, 0)).copied().unwrap_or(0),
                counts.get(&(id, 1)).copied().unwrap_or(0),
                counts.get(&(id, 2)).copied().unwrap_or(0),
            ];
            SkewRow {
                sensor: name,
                emitted: probe.emitted(),
                received,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployment_shows_skew() {
        let rows = run(0.25, 5);
        assert_eq!(rows.len(), 6);
        // Every sensor emitted and was heard somewhere.
        for row in &rows {
            assert!(row.emitted > 0, "{} emitted nothing", row.sensor);
            assert!(
                row.received.iter().sum::<u64>() > 0,
                "{} unheard",
                row.sensor
            );
        }
        // Door 1 (obstructed toward process 0) shows the largest
        // relative skew toward that process.
        let door1 = rows.iter().find(|r| r.sensor == "Door 1").unwrap();
        assert!(
            door1.received[0] < door1.received[1] && door1.received[0] < door1.received[2],
            "Door 1 counts {:?}",
            door1.received
        );
        assert!(door1.skew() > 0);
    }

    #[test]
    fn skew_is_deterministic_per_seed() {
        let a = run(0.05, 9);
        let b = run(0.05, 9);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.received, y.received);
            assert_eq!(x.emitted, y.emitted);
        }
    }
}
