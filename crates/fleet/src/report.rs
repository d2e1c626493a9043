//! Fleet reports: per-axis breakdowns and the human-readable summary.

use crate::executor::FleetOutcome;

/// One row of a fleet per-axis breakdown: all homes sharing one value
/// of one manifest axis, aggregated.
#[derive(Debug)]
struct AxisRow {
    /// Manifest axis key (e.g. `loss`).
    axis: String,
    /// The axis value these homes share, as the manifest wrote it.
    value: String,
    /// Homes in this group.
    homes: u64,
    /// Events emitted across the group.
    emitted: u64,
    /// Events delivered across the group.
    delivered: u64,
    /// Homes that broke a guarantee.
    failed: u64,
}

/// Groups homes by each manifest axis value, in manifest order (axes
/// sorted by key; values in declaration order, which is how the
/// expansion enumerates them).
fn axis_breakdown(outcome: &FleetOutcome) -> Vec<AxisRow> {
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
            row.failed += u64::from(!home.verdict.passed());
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
        "  events: {} emitted, {} delivered ({:.2}%), {} owed  aggregate {:.0} events/s, {:.1} homes/s\n",
        outcome.events_emitted(),
        outcome.events_delivered(),
        100.0 * outcome.events_delivered() as f64 / outcome.events_emitted().max(1) as f64,
        outcome.events_owed(),
        outcome.events_per_sec(),
        outcome.homes_per_sec(),
    ));
    let failed = outcome.homes_failed();
    if failed == 0 {
        out.push_str("  verdicts: every home kept every guarantee\n");
    } else {
        out.push_str(&format!(
            "  verdicts: {failed} home(s) FAILED the checker:\n"
        ));
        for home in outcome
            .homes
            .iter()
            .filter(|h| !h.verdict.passed())
            .take(10)
        {
            out.push_str(&format!(
                "    {}  delivered {}/{}, owed {}\n",
                home.spec, home.delivered, home.emitted, home.verdict.owed
            ));
            for violation in &home.verdict.violations {
                out.push_str(&format!("      {violation}\n"));
            }
        }
        if failed > 10 {
            out.push_str(&format!("    ... and {} more\n", failed - 10));
        }
    }
    out.push_str(&render_axis_table(&axis_breakdown(outcome)));
    out
}

/// Renders a fleet's per-axis breakdown (delivery rate vs. each
/// manifest axis) as one table. Rows arrive grouped by axis; a blank
/// line separates axes so e.g. the link-quality sweep reads as a unit.
fn render_axis_table(rows: &[AxisRow]) -> String {
    let mut out = String::from("Fleet breakdown: delivery rate by manifest axis\n");
    out.push_str(&format!(
        "{:<22} {:<14} {:>7} {:>10} {:>10} {:>10} {:>7}\n",
        "axis", "value", "homes", "emitted", "delivered", "rate", "failed"
    ));
    let mut last_axis: Option<&str> = None;
    for row in rows {
        if last_axis.is_some_and(|a| a != row.axis) {
            out.push('\n');
        }
        last_axis = Some(&row.axis);
        out.push_str(&format!(
            "{:<22} {:<14} {:>7} {:>10} {:>10} {:>9.1}% {:>7}\n",
            row.axis,
            row.value,
            row.homes,
            row.emitted,
            row.delivered,
            row.delivered as f64 / row.emitted.max(1) as f64 * 100.0,
            // A zero renders as `-` so it cannot be mistaken for a
            // small-but-live count: a column of dashes says "never".
            if row.failed == 0 {
                "-".to_owned()
            } else {
                row.failed.to_string()
            },
        ));
    }
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
    fn axis_table_groups_by_axis() {
        let row = |axis: &str, value: &str, delivered, failed| AxisRow {
            axis: axis.into(),
            value: value.into(),
            homes: 8,
            emitted: 800,
            delivered,
            failed,
        };
        let rows = vec![
            row("loss", "0", 800, 0),
            row("loss", "0.1", 792, 0),
            row("forwarding", "ring", 796, 1),
        ];
        let t = render_axis_table(&rows);
        assert!(t.contains("loss"));
        assert!(t.contains("forwarding"));
        assert!(t.contains("99.0%"), "{t}");
        // Zero failures render as a dash, like every dead counter.
        assert!(t.lines().any(|l| l.trim_end().ends_with('-')), "{t}");
        // One blank separator between the two axes.
        assert_eq!(t.matches("\n\n").count(), 1, "{t}");
    }

    #[test]
    fn summary_mentions_verdicts_and_axes() {
        let out = outcome();
        let text = render_summary(&out);
        assert!(text.contains("report-test"));
        assert!(text.contains("every home kept every guarantee"), "{text}");
        assert!(text.contains("Fleet breakdown"));
    }
}
