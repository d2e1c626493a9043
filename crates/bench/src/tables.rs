//! Tables 1 and 3 — the application and sensor surveys — and the
//! Fig. 2 deployment diagram, rendered as text for the `figures`
//! binary.

use rivulet_core::app::catalog as app_catalog;
use rivulet_core::execution::placement::{chain_for, Reachability};
use rivulet_devices::catalog as device_catalog;
use rivulet_types::{ActuatorId, ProcessId, SensorId};

/// Renders Table 1 (applications and their delivery guarantees).
#[must_use]
pub fn render_table1() -> String {
    let mut out =
        String::from("Table 1: desired delivery types for selected example applications\n");
    out.push_str(&format!(
        "{:<26} {:<30} {:<12} {:>8}\n",
        "Application", "Sensor type", "Category", "Delivery"
    ));
    for row in app_catalog::table1() {
        out.push_str(&format!(
            "{:<26} {:<30} {:<12} {:>8}\n",
            row.name,
            row.sensors,
            row.category.to_string(),
            row.delivery.to_string()
        ));
    }
    out
}

/// Renders Table 3 (sensor event-size classes).
#[must_use]
pub fn render_table3() -> String {
    let mut out = String::from("Table 3: classification of off-the-shelf sensors\n");
    out.push_str(&format!(
        "{:<16} {:<6} {:<14} {:>12}\n",
        "Sensor", "Mode", "Size class", "Event bytes"
    ));
    for e in device_catalog::survey() {
        out.push_str(&format!(
            "{:<16} {:<6} {:<14} {:>12}\n",
            e.name,
            match e.mode {
                device_catalog::SensingMode::Push => "push",
                device_catalog::SensingMode::Poll => "poll",
            },
            e.size_class.to_string(),
            e.event_bytes
        ));
    }
    out
}

/// Renders Fig. 2: the paper's running-example deployment — which
/// processes host active vs shadow sensor/actuator/logic nodes for the
/// door→TurnLightOnOff→light app on a hub/TV/fridge home.
#[must_use]
pub fn render_fig2() -> String {
    // Fig. 2 reachability: the door sensor talks to TV and fridge; the
    // light actuator talks to the hub only.
    let hosts = ["hub", "tv", "fridge"];
    let door = SensorId(0);
    let light = ActuatorId(0);
    let reach = vec![
        Reachability::new(ProcessId(0), vec![], vec![light]),
        Reachability::new(ProcessId(1), vec![door], vec![]),
        Reachability::new(ProcessId(2), vec![door], vec![]),
    ];
    let chain = chain_for(&reach, &[door], &[light]);
    let active_logic = chain[0];
    let mut out = String::from(
        "Figure 2: node deployment for DoorSensor => TurnLightOnOff => LightActuator
",
    );
    out.push_str(&format!(
        "placement chain: {:?} (position 0 hosts the active logic node)
",
        chain
            .iter()
            .map(|p| hosts[p.as_u32() as usize])
            .collect::<Vec<_>>()
    ));
    out.push_str(&format!(
        "{:<8} {:>14} {:>14} {:>14}
",
        "host", "DS (sensor)", "TL (logic)", "LA (actuator)"
    ));
    for (i, host) in hosts.iter().enumerate() {
        let pid = ProcessId(i as u32);
        let ds = if reach[i].sensors.contains(&door) {
            "active"
        } else {
            "shadow"
        };
        let tl = if pid == active_logic {
            "active"
        } else {
            "shadow"
        };
        let la = if reach[i].actuators.contains(&light) {
            "active"
        } else {
            "shadow"
        };
        out.push_str(&format!(
            "{host:<8} {ds:>14} {tl:>14} {la:>14}
"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render_all_rows() {
        let t1 = render_table1();
        assert_eq!(t1.lines().count(), 2 + 13);
        assert!(t1.contains("Intrusion-detection"));
        assert!(t1.contains("Gapless"));
        let t3 = render_table3();
        assert!(t3.contains("temperature"));
        assert!(t3.contains("ip-camera"));
    }

    #[test]
    fn fig2_matches_the_paper_walkthrough() {
        let f2 = render_fig2();
        // The hub hosts the active logic and actuator nodes; its door
        // sensor node is a shadow (it cannot hear the sensor).
        let hub_line = f2.lines().find(|l| l.starts_with("hub")).unwrap();
        assert!(
            hub_line.contains("shadow"),
            "hub DS is a shadow: {hub_line}"
        );
        assert_eq!(hub_line.matches("active").count(), 2, "{hub_line}");
        let tv_line = f2.lines().find(|l| l.starts_with("tv")).unwrap();
        assert!(tv_line.starts_with("tv"));
        assert_eq!(tv_line.matches("active").count(), 1, "TV: active DS only");
    }
}
