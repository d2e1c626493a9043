//! The fleet determinism contract: same manifest + same fleet seed ⇒
//! byte-identical merged `ObsSnapshot` JSON, regardless of how many
//! worker threads executed the homes. This is the same check the CI
//! smoke job performs at 64-home scale with the committed manifest.

use rivulet_fleet::executor::run_fleet;
use rivulet_fleet::FleetManifest;

/// A 16-home fleet crossing link quality with a failure schedule —
/// enough to exercise crash spans, loss randomness, and the WAL in the
/// merged snapshot.
const MANIFEST: &str = r#"
[fleet]
name = "determinism"
seed = 1234
homes_per_config = 4

[base]
processes = 3
receivers = 2
rate_per_sec = 10
duration_secs = 6.0
durable = true

[axes]
loss = [0.0, 0.2]
crash_at_secs = [-1.0, 2.5]
"#;

#[test]
fn merged_snapshot_is_byte_identical_across_thread_counts() {
    let manifest = FleetManifest::from_text(MANIFEST).unwrap();
    assert_eq!(manifest.fleet_size(), 16);
    let single = run_fleet(&manifest, 1);
    let quad = run_fleet(&manifest, 4);
    let octo = run_fleet(&manifest, 8);
    assert_eq!(single.merged, quad.merged, "snapshots structurally equal");
    assert_eq!(
        single.merged.to_json(),
        quad.merged.to_json(),
        "1 vs 4 threads: merged JSON must be byte-identical"
    );
    assert_eq!(
        quad.merged.to_json(),
        octo.merged.to_json(),
        "4 vs 8 threads: merged JSON must be byte-identical"
    );
    // Verdicts and totals are part of the contract too.
    assert_eq!(single.events_delivered(), quad.events_delivered());
    assert_eq!(single.homes_failed(), quad.homes_failed());
    let verdicts: Vec<bool> = single.homes.iter().map(|h| h.verdict.passed()).collect();
    let verdicts_quad: Vec<bool> = quad.homes.iter().map(|h| h.verdict.passed()).collect();
    assert_eq!(verdicts, verdicts_quad);
}

#[test]
fn same_seed_reruns_are_identical_and_different_seeds_are_not() {
    let manifest = FleetManifest::from_text(MANIFEST).unwrap();
    let a = run_fleet(&manifest, 2);
    let b = run_fleet(&manifest, 2);
    assert_eq!(a.merged.to_json(), b.merged.to_json());

    let mut reseeded = manifest.clone();
    reseeded.seed = 4321;
    let c = run_fleet(&reseeded, 2);
    // The lossy axis consumes randomness, so a different fleet seed
    // must perturb at least some home's timeline.
    assert_ne!(a.merged.to_json(), c.merged.to_json());
}

#[test]
fn fleet_counters_summarize_the_run() {
    let manifest = FleetManifest::from_text(MANIFEST).unwrap();
    let out = run_fleet(&manifest, 3);
    assert_eq!(out.merged.counter("fleet.homes"), 16);
    assert_eq!(out.merged.counter("fleet.configs"), 4);
    assert_eq!(
        out.merged.counter("fleet.events_total"),
        out.events_delivered()
    );
    assert_eq!(
        out.merged.counter("fleet.events_emitted"),
        out.events_emitted()
    );
    // Every home ran with durable storage: WAL counters folded in.
    assert!(out.merged.counter("wal.appends") > 0);
    // Half the configs crash: failover spans from multiple homes
    // survive the merge.
    assert!(!out.merged.spans_named("failover").is_empty());
}
