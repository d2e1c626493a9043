//! Fleet orchestration walk-through: 32 homes, one failure axis.
//!
//! A scenario manifest declares one base home plus two sweep axes —
//! link loss and a mid-run coordinator crash — which expand into 4
//! configurations x 8 replicas = 32 homes. Every home runs as an
//! isolated seeded simulation on the worker pool; per-home
//! `ObsSnapshot`s merge (in home-index order, so the result is
//! byte-identical at any thread count) into one fleet-wide report.
//!
//! Because each home's seed derives purely from
//! `(fleet_seed, home_index)`, any home here can be re-run standalone,
//! bit-exactly — the demo proves it for home 17.
//!
//! ```text
//! cargo run --example fleet_demo
//! ```

use rivulet::fleet::executor::{run_fleet, run_home};
use rivulet::fleet::report::render_summary;
use rivulet::fleet::FleetManifest;

const MANIFEST: &str = r#"
[fleet]
name = "demo"
seed = 42
homes_per_config = 8

[base]
processes = 4
receivers = 2
rate_per_sec = 10
duration_secs = 5.0
delivery = "gapless"
durable = true

[axes]
loss = [0.0, 0.05]
crash_at_secs = [-1.0, 2.5]
"#;

fn main() {
    let manifest = FleetManifest::from_text(MANIFEST).expect("demo manifest is well-formed");
    println!(
        "expanding `{}`: {} configs x {} homes/config = {} homes\n",
        manifest.name,
        manifest.config_count(),
        manifest.homes_per_config,
        manifest.fleet_size()
    );

    let outcome = run_fleet(&manifest, 0);
    print!("{}", render_summary(&outcome));

    // The merged snapshot folds every home's counters together:
    // fleet.* totals plus the per-home wal/failover/delivery series.
    println!(
        "\nmerged snapshot: {} homes, {} events delivered, {} WAL appends, {} failover spans",
        outcome.merged.counter("fleet.homes"),
        outcome.merged.counter("fleet.events_total"),
        outcome.merged.counter("wal.appends"),
        outcome.merged.spans_named("failover").len(),
    );

    // Standalone re-run: seed derivation is a pure function of
    // (fleet_seed, home_index), so home 17 replays bit-exactly
    // outside the fleet. The fleet keeps only bounded per-home
    // summaries (full snapshots fold into `merged` as homes finish),
    // so the replay is checked against the retained summary.
    let specs = manifest.expand().expect("validated at parse time");
    let member = &outcome.homes[17];
    let (solo, _) = run_home(&specs[17]);
    assert_eq!(solo, *member);
    println!(
        "home 17 re-ran standalone: {}/{} delivered, summary bit-exact vs fleet member",
        solo.delivered, solo.emitted
    );
}
