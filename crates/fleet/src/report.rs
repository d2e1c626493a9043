//! Fleet reports: per-axis breakdowns and the human-readable summary.

use rivulet_bench::tables::{render_axis_table, AxisRow};

use crate::executor::FleetOutcome;

/// Groups homes by each manifest axis value, in manifest order (axes
/// sorted by key; values in declaration order, which is how the
/// expansion enumerates them).
#[must_use]
pub fn axis_breakdown(outcome: &FleetOutcome) -> Vec<AxisRow> {
    // First-seen order over homes in index order reproduces the
    // manifest's axis/value order, because the expansion cycles every
    // axis in declaration order.
    let mut rows: Vec<AxisRow> = Vec::new();
    for home in &outcome.homes {
        for (axis, value) in &home.spec.axis_values {
            let row = match rows
                .iter_mut()
                .find(|r| r.axis == *axis && r.value == *value)
            {
                Some(row) => row,
                None => {
                    rows.push(AxisRow {
                        axis: axis.clone(),
                        value: value.clone(),
                        homes: 0,
                        emitted: 0,
                        delivered: 0,
                        failed: 0,
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.homes += 1;
            row.emitted += home.emitted;
            row.delivered += home.delivered;
            row.failed += u64::from(!home.passed);
        }
    }
    // Present grouped by axis (stable sort keeps value order).
    rows.sort_by(|a, b| a.axis.cmp(&b.axis));
    rows
}

/// Renders the human-readable fleet summary printed after a run.
#[must_use]
pub fn render_summary(outcome: &FleetOutcome) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "fleet `{}` (seed {}): {} homes on {} threads in {:.2}s\n",
        outcome.name,
        outcome.seed,
        outcome.homes.len(),
        outcome.threads,
        outcome.wall_secs
    ));
    out.push_str(&format!(
        "  events: {} emitted, {} delivered ({:.2}%)  aggregate {:.0} events/s, {:.1} homes/s\n",
        outcome.events_emitted(),
        outcome.events_delivered(),
        100.0 * outcome.events_delivered() as f64 / outcome.events_emitted().max(1) as f64,
        outcome.events_per_sec(),
        outcome.homes_per_sec(),
    ));
    let failed = outcome.homes_failed();
    if failed == 0 {
        out.push_str("  verdicts: all homes met their delivery-correctness floor\n");
    } else {
        out.push_str(&format!(
            "  verdicts: {failed} home(s) FAILED their delivery-correctness floor:\n"
        ));
        for home in outcome.homes.iter().filter(|h| !h.passed).take(10) {
            out.push_str(&format!(
                "    {}  delivered {}/{} (floor {})\n",
                home.spec, home.delivered, home.emitted, home.expected_floor
            ));
        }
        if failed > 10 {
            out.push_str(&format!("    ... and {} more\n", failed - 10));
        }
    }
    out.push_str(&render_axis_table(&axis_breakdown(outcome)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::run_fleet;
    use crate::manifest::FleetManifest;

    fn outcome() -> FleetOutcome {
        let m = FleetManifest::from_text(
            r#"
[fleet]
name = "report-test"
seed = 3
homes_per_config = 1

[base]
processes = 3
rate_per_sec = 10
duration_secs = 3.0

[axes]
loss = [0.0, 0.1]
durable = [false, true]
"#,
        )
        .unwrap();
        run_fleet(&m, 2)
    }

    #[test]
    fn breakdown_covers_every_axis_value() {
        let out = outcome();
        let rows = axis_breakdown(&out);
        // Two axes x two values each.
        assert_eq!(rows.len(), 4);
        // Every axis row accounts for every home exactly once.
        for axis in ["loss", "durable"] {
            let total: u64 = rows
                .iter()
                .filter(|r| r.axis == axis)
                .map(|r| r.homes)
                .sum();
            assert_eq!(total, out.homes.len() as u64, "axis {axis}");
        }
    }

    #[test]
    fn summary_mentions_verdicts_and_axes() {
        let out = outcome();
        let text = render_summary(&out);
        assert!(text.contains("report-test"));
        assert!(text.contains("delivery-correctness floor"));
        assert!(text.contains("Fleet breakdown"));
    }
}
