//! The off-the-shelf device survey of the paper.
//!
//! Table 3 classifies commodity smart-home sensors into small (4–8 B)
//! and large (1–20 KB) event classes; §8.5 lists the polling
//! characteristics of the four Z-Wave poll-based sensors used in the
//! coordinated-polling experiment. This module encodes both so the
//! harness can regenerate the tables and instantiate the exact Fig. 8
//! device mix.

use rivulet_types::{Duration, EventKind, SizeClass};

use crate::value::ValueModel;

/// How a sensor produces events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensingMode {
    /// Emits spontaneously on physical phenomena.
    Push,
    /// Produces a value only when polled.
    Poll,
}

/// One row of the device survey.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// Human name (e.g. `"temperature"`).
    pub name: &'static str,
    /// Push or poll.
    pub mode: SensingMode,
    /// Event size class (Table 3).
    pub size_class: SizeClass,
    /// Representative event payload bytes.
    pub event_bytes: usize,
    /// Event kind stamped on emissions.
    pub kind: EventKind,
    /// For poll sensors: hardware time to answer one poll (§8.5).
    pub poll_latency: Option<Duration>,
    /// For poll sensors: the epoch length the Fig. 8 application
    /// requests (3× the poll latency in the paper's setup).
    pub fig8_epoch: Option<Duration>,
}

/// The survey rows (Table 3 plus the §8.5 poll-based sensors).
#[must_use]
pub fn survey() -> Vec<CatalogEntry> {
    vec![
        CatalogEntry {
            name: "temperature",
            mode: SensingMode::Poll,
            size_class: SizeClass::Small,
            event_bytes: 8,
            kind: EventKind::Reading,
            poll_latency: Some(Duration::from_millis(600)),
            fig8_epoch: Some(Duration::from_millis(1_800)),
        },
        CatalogEntry {
            name: "luminance",
            mode: SensingMode::Poll,
            size_class: SizeClass::Small,
            event_bytes: 8,
            kind: EventKind::Reading,
            poll_latency: Some(Duration::from_millis(600)),
            fig8_epoch: Some(Duration::from_millis(1_800)),
        },
        CatalogEntry {
            name: "humidity",
            mode: SensingMode::Poll,
            size_class: SizeClass::Small,
            event_bytes: 8,
            kind: EventKind::Reading,
            poll_latency: Some(Duration::from_secs(4)),
            fig8_epoch: Some(Duration::from_secs(12)),
        },
        CatalogEntry {
            name: "ultraviolet",
            mode: SensingMode::Poll,
            size_class: SizeClass::Small,
            event_bytes: 8,
            kind: EventKind::Reading,
            poll_latency: Some(Duration::from_secs(5)),
            fig8_epoch: Some(Duration::from_secs(15)),
        },
        CatalogEntry {
            name: "motion",
            mode: SensingMode::Push,
            size_class: SizeClass::Small,
            event_bytes: 4,
            kind: EventKind::Motion,
            poll_latency: None,
            fig8_epoch: None,
        },
        CatalogEntry {
            name: "door-window",
            mode: SensingMode::Push,
            size_class: SizeClass::Small,
            event_bytes: 4,
            kind: EventKind::DoorOpen,
            poll_latency: None,
            fig8_epoch: None,
        },
        CatalogEntry {
            name: "moisture",
            mode: SensingMode::Push,
            size_class: SizeClass::Small,
            event_bytes: 4,
            kind: EventKind::WaterDetected,
            poll_latency: None,
            fig8_epoch: None,
        },
        CatalogEntry {
            name: "smoke",
            mode: SensingMode::Push,
            size_class: SizeClass::Small,
            event_bytes: 4,
            kind: EventKind::SmokeDetected,
            poll_latency: None,
            fig8_epoch: None,
        },
        CatalogEntry {
            name: "energy",
            mode: SensingMode::Push,
            size_class: SizeClass::Small,
            event_bytes: 8,
            kind: EventKind::Reading,
            poll_latency: None,
            fig8_epoch: None,
        },
        CatalogEntry {
            name: "vibration",
            mode: SensingMode::Push,
            size_class: SizeClass::Small,
            event_bytes: 4,
            kind: EventKind::Motion,
            poll_latency: None,
            fig8_epoch: None,
        },
        CatalogEntry {
            name: "wearable-fall",
            mode: SensingMode::Push,
            size_class: SizeClass::Small,
            event_bytes: 8,
            kind: EventKind::FallDetected,
            poll_latency: None,
            fig8_epoch: None,
        },
        CatalogEntry {
            name: "ip-camera",
            mode: SensingMode::Push,
            size_class: SizeClass::Large,
            event_bytes: 15 * 1024,
            kind: EventKind::Image,
            poll_latency: None,
            fig8_epoch: None,
        },
        CatalogEntry {
            name: "microphone",
            mode: SensingMode::Push,
            size_class: SizeClass::Large,
            event_bytes: 1024,
            kind: EventKind::AudioFrame,
            poll_latency: None,
            fig8_epoch: None,
        },
    ]
}

/// The four poll-based Z-Wave sensors of the Fig. 8 experiment, with a
/// value model for each.
#[must_use]
pub fn fig8_sensors() -> Vec<(CatalogEntry, ValueModel)> {
    survey()
        .into_iter()
        .filter(|e| e.mode == SensingMode::Poll)
        .map(|e| {
            let model = match e.name {
                "temperature" => ValueModel::indoor_temperature(),
                "luminance" => ValueModel::luminance(),
                "humidity" => ValueModel::humidity(),
                _ => ValueModel::uv_index(),
            };
            (e, model)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_match_table3() {
        for e in survey() {
            match e.size_class {
                SizeClass::Small => {
                    assert!((4..=8).contains(&e.event_bytes), "{} size", e.name);
                }
                SizeClass::Large => {
                    assert!(
                        (1024..=20 * 1024).contains(&e.event_bytes),
                        "{} size",
                        e.name
                    );
                }
            }
        }
    }

    #[test]
    fn fig8_sensor_parameters_match_paper() {
        let sensors = fig8_sensors();
        assert_eq!(sensors.len(), 4);
        let find = |n: &str| {
            sensors
                .iter()
                .find(|(e, _)| e.name == n)
                .unwrap_or_else(|| panic!("missing {n}"))
        };
        let (temp, _) = find("temperature");
        assert_eq!(temp.poll_latency, Some(Duration::from_millis(600)));
        assert_eq!(temp.fig8_epoch, Some(Duration::from_millis(1_800)));
        let (hum, _) = find("humidity");
        assert_eq!(hum.poll_latency, Some(Duration::from_secs(4)));
        assert_eq!(hum.fig8_epoch, Some(Duration::from_secs(12)));
        let (uv, _) = find("ultraviolet");
        assert_eq!(uv.poll_latency, Some(Duration::from_secs(5)));
        assert_eq!(uv.fig8_epoch, Some(Duration::from_secs(15)));
        // Epochs are ≥ 3× poll latency so coordination has headroom.
        for (e, _) in &sensors {
            let ratio = e.fig8_epoch.unwrap().as_micros() / e.poll_latency.unwrap().as_micros();
            assert!(ratio >= 3, "{} ratio {ratio}", e.name);
        }
    }

    #[test]
    fn poll_sensors_all_have_latency_and_epoch() {
        for e in survey() {
            match e.mode {
                SensingMode::Poll => {
                    assert!(
                        e.poll_latency.is_some() && e.fig8_epoch.is_some(),
                        "{}",
                        e.name
                    );
                }
                SensingMode::Push => {
                    assert!(
                        e.poll_latency.is_none() && e.fig8_epoch.is_none(),
                        "{}",
                        e.name
                    );
                }
            }
        }
    }
}
