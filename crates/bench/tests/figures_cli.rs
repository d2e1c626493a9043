//! The `figures` binary refuses a target it does not know, before it
//! prints anything, instead of skipping it and exiting 0.

use std::process::Command;

#[test]
fn an_unknown_target_prints_usage_and_runs_nothing() {
    for args in [&["nosuch"][..], &["fig3", "nosuch"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .output()
            .expect("spawn figures");
        assert_eq!(out.status.code(), Some(2), "figures {args:?}");
        assert!(out.stdout.is_empty(), "figures {args:?} printed a target");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "figures {args:?}: {stderr}");
    }
}
