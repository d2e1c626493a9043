//! The emitted JSON against the contract in `BENCHMARK.json`.

use std::collections::BTreeSet;
use std::path::PathBuf;

use rivulet_obs::ObsSnapshot;
use rivulet_perf::json::Json;
use rivulet_perf::layers;
use rivulet_perf::metrics::{benchmark_json, END_TO_END, GATED, PER_LAYER};
use rivulet_perf::rep::{NetCounts, RepData};
use rivulet_perf::run::{run, Options};
use rivulet_perf::workloads::{by_name, NAMES};

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

fn name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn benchmark_json_is_the_catalogue_and_within_the_contract_limits() {
    assert_eq!(
        BENCHMARK,
        benchmark_json().render_pretty(),
        "BENCHMARK.json is stale: regenerate it with `perf benchmark-json`"
    );
    assert!(BENCHMARK.len() <= 64 * 1024);
    let file = Json::parse(BENCHMARK).expect("valid JSON");
    let keys: BTreeSet<&str> = file
        .as_obj()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        BTreeSet::from([
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ])
    );
    let mut names = BTreeSet::new();
    for m in &END_TO_END {
        assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        assert!(names.insert(m.name), "{} used twice", m.name);
    }
    for m in PER_LAYER {
        assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
        assert!(names.insert(m.name), "{} used twice", m.name);
    }
    assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.word()), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    assert!((2..=8).contains(&GATED.len()));
    for name in GATED {
        let w = by_name(name, 0, 1.0).expect("gated workloads exist");
        assert!(name_ok(w.name) && names.insert(w.name));
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{} why",
            w.name
        );
    }
    let command = file.get("command").and_then(Json::as_arr).expect("command");
    assert!(command.len() <= 32);
    for part in command {
        let part = part.as_str().expect("string");
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
}

fn smoke_options(trace: bool) -> Options {
    Options {
        seed: 5,
        seconds: 0.3,
        trace,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("out"),
    }
}

/// Runs `name` untraced and traced at smoke scale and checks both
/// result lines against the catalogue.
fn check_workload(name: &str) {
    let workload = by_name(name, 5, 0.05).expect("known workload");
    for (trace, expected) in [
        (
            false,
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .collect::<Vec<_>>(),
        ),
        (
            true,
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit))
                .collect::<Vec<_>>(),
        ),
    ] {
        let report = run(&workload, &smoke_options(trace))
            .unwrap_or_else(|e| panic!("{name} trace {trace}: {e}"));
        assert!(
            report.verdict.correct(),
            "{name}: {:#?}",
            report.verdict.violations
        );
        assert!(report.verdict.attempted >= 1);
        assert_eq!(report.verdict.failed, 0, "{name}: no operation fails");

        let line = Json::parse(&report.result_line()).expect("the result line is JSON");
        let keys: Vec<&str> = line
            .as_obj()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
        assert_eq!(
            metrics.len(),
            expected.len(),
            "{name} trace {trace}: every metric, no other"
        );
        for (metric, unit) in expected {
            let m = metrics
                .get(metric)
                .unwrap_or_else(|| panic!("{name} trace {trace}: {metric} missing"));
            let value = m.get("value").and_then(Json::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{name}: {metric} is {value:?} (NaN and inf render as null)"
            );
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
            if !trace {
                assert!(
                    value.is_some_and(|v| v > 0.0),
                    "{name}: {metric} is never 0"
                );
            }
        }
        if trace {
            let spans = std::fs::read_to_string(
                smoke_options(true)
                    .out_dir
                    .join(format!("trace-{name}.json")),
            )
            .expect("the traced run wrote its spans");
            let spans = Json::parse(&spans).expect("span file is JSON");
            let spans = spans.get("spans").and_then(Json::as_arr).expect("spans");
            assert!(spans
                .iter()
                .any(|s| s.get("name").and_then(Json::as_str) == Some("setup")));
        }
    }
}

#[test]
fn ring_steady_emits_every_declared_metric() {
    check_workload("ring_steady");
}

#[test]
fn broadcast_blob_emits_every_declared_metric() {
    check_workload("broadcast_blob");
}

#[test]
fn durable_routine_emits_every_declared_metric() {
    check_workload("durable_routine");
}

#[test]
fn crash_failover_emits_every_declared_metric() {
    check_workload("crash_failover");
}

#[test]
fn dag_poll_emits_every_declared_metric() {
    check_workload("dag_poll");
}

#[test]
fn fleet_sweep_emits_every_declared_metric() {
    check_workload("fleet_sweep");
}

#[test]
fn live_ring_emits_every_declared_metric() {
    check_workload("live_ring");
}

#[test]
fn every_workload_is_known_and_gated_ones_are_a_subset() {
    for name in NAMES {
        assert!(by_name(name, 1, 1.0).is_some(), "{name}");
    }
    assert!(GATED.iter().all(|g| NAMES.contains(g)));
    assert!(by_name("no_such_workload", 1, 1.0).is_none());
}

#[test]
fn a_missing_obs_key_reads_zero() {
    // A platform that exports none of the counters (they were deleted,
    // or the recorder was off): every count reads 0, nothing panics.
    let rep = RepData::counts_only(NetCounts::default(), ObsSnapshot::default(), 0);
    let virt = rivulet_perf::rep::Virtual {
        delivered: 100,
        duplicate_deliveries: 0,
        deliver: rivulet_perf::stats::LatencySummary {
            n: 0,
            p50: 0,
            p99: 0,
            max: 0,
        },
        actuate: rivulet_perf::stats::LatencySummary {
            n: 0,
            p50: 0,
            p99: 0,
            max: 0,
        },
        interruption_us: 0,
        longest_gap_us: 0,
        wifi_bytes_per_event: 0.0,
    };
    let values = layers::counts(&rep, &virt);
    for key in [
        "core.execution.ring_fallbacks",
        "core.execution.ring_batch_mean",
        "core.gating.forced_flush_share",
        "core.store.arena_recycle_share",
        "storage.wal.appends_per_event",
        "types.wire.bytes_per_msg",
    ] {
        assert_eq!(values.get(key), Some(&0.0), "{key}");
    }
    assert!(values.values().all(|v| v.is_finite()));
}
