//! The `fleet` binary's argument handling: a `--threads` flag without
//! a worker count is refused before any home runs, instead of quietly
//! falling back to every core.

use std::process::Command;

const MANIFEST: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../manifests/fleet_smoke.toml"
);

#[test]
fn threads_without_a_count_prints_usage_and_runs_nothing() {
    for bad in [
        &["--threads", "four"][..],
        &["--threads", "-1"],
        &["--threads"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fleet"))
            .args(["run", MANIFEST])
            .args(bad)
            .output()
            .expect("spawn fleet");
        assert_eq!(out.status.code(), Some(2), "fleet run {bad:?}");
        assert!(out.stdout.is_empty(), "fleet run {bad:?} ran homes");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "fleet run {bad:?}: {stderr}");
    }
}
