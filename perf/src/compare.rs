//! `perf compare A.json B.json`: two sets of runs against the bounds.
//!
//! For every end-to-end metric x workload, the relative difference of
//! B's median from A's, against the metric's bound in `BENCHMARK.json`:
//!
//! * `worse` / `better` — the medians differ by more than the bound;
//! * `same` — they do not;
//! * `unresolved` — a set's own spread (interquartile range over its
//!   median) is wider than the bound, so the runs cannot tell, unless
//!   every run of B reads better (or worse) than every run of A.
//!
//! The repeatability criterion and later changes' descriptions both use
//! this: two sets of the same commit must show no `worse` and no
//! `unresolved`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::stats::Spread;

/// The comparison, rendered, and whether it is free of `worse` and
/// `unresolved` rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompareReport {
    /// The table.
    pub text: String,
    /// No row is `worse` or `unresolved`.
    pub clean: bool,
}

/// How one metric x workload pair compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// Within the bound.
    Same,
    /// B is better than A by more than the bound.
    Better,
    /// B is worse than A by more than the bound.
    Worse,
    /// The spread is wider than the bound.
    Unresolved,
}

/// End-to-end values of a result file: `(workload, metric) -> values`.
fn values_of(file: &Json) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let runs = file
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("result file has no `runs` array")?;
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in runs {
        if run.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without a workload")?;
        let metrics = run
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_obj)
            .ok_or("run without metrics")?;
        for (name, m) in metrics {
            if let Some(value) = m.get("value").and_then(Json::as_f64) {
                out.entry((workload.to_owned(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(out)
}

/// Judges one pair of samples; `worse_by` is B's median's relative
/// distance from A's in the worsening direction.
#[must_use]
pub fn flag(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (Flag, f64) {
    let (Some(sa), Some(sb)) = (Spread::of(a), Spread::of(b)) else {
        return (Flag::Unresolved, f64::NAN);
    };
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (sb.median - sa.median) / sa.median.abs();
    let wide =
        (a.len() > 1 && sa.relative_iqr() > bound) || (b.len() > 1 && sb.relative_iqr() > bound);
    let flag = if wide {
        // Every run of one side beyond every run of the other still
        // decides it.
        let all_b_worse = sign * (sb.min - sa.max) > 0.0 && sign * (sb.max - sa.min) > 0.0;
        let all_b_better = sign * (sb.max - sa.min) < 0.0 && sign * (sb.min - sa.max) < 0.0;
        if all_b_better && worse_by < -bound {
            Flag::Better
        } else if all_b_worse && worse_by > bound {
            Flag::Worse
        } else {
            Flag::Unresolved
        }
    } else if worse_by > bound {
        Flag::Worse
    } else if worse_by < -bound {
        Flag::Better
    } else {
        Flag::Same
    };
    (flag, worse_by)
}

/// Compares result files `a` and `b` under `benchmark`'s bounds.
///
/// # Errors
///
/// Returns a message for a malformed file.
pub fn compare(a: &Json, b: &Json, benchmark: &Json) -> Result<CompareReport, String> {
    let (va, vb) = (values_of(a)?, values_of(b)?);
    let metrics = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no `end_to_end`")?;
    let workloads = benchmark
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no `workloads`")?;
    let mut text = format!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>7}  {}\n",
        "workload", "metric", "A median", "B median", "worse by", "bound", "verdict"
    );
    let mut clean = true;
    for w in workloads {
        let workload = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        for m in metrics {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let key = (workload.to_owned(), name.to_owned());
            let (Some(xa), Some(xb)) = (va.get(&key), vb.get(&key)) else {
                writeln!(text, "{workload:<16} {name:<22} missing from a file").expect("write");
                clean = false;
                continue;
            };
            let (verdict, worse_by) = flag(xa, xb, higher, bound);
            clean &= !matches!(verdict, Flag::Worse | Flag::Unresolved);
            let (mut sa, mut sb) = (xa.clone(), xb.clone());
            sa.sort_by(f64::total_cmp);
            sb.sort_by(f64::total_cmp);
            writeln!(
                text,
                "{workload:<16} {name:<22} {:>14.4} {:>14.4} {:>8.2}% {:>6.1}%  {}{}",
                Spread::of(xa).map_or(f64::NAN, |s| s.median),
                Spread::of(xb).map_or(f64::NAN, |s| s.median),
                worse_by * 100.0,
                bound * 100.0,
                match verdict {
                    Flag::Same => "same",
                    Flag::Better => "better",
                    Flag::Worse => "WORSE",
                    Flag::Unresolved => "UNRESOLVED",
                },
                if sa == sb { " (identical)" } else { "" },
            )
            .expect("write to string");
        }
    }
    Ok(CompareReport { text, clean })
}

/// `perf compare A.json B.json [--benchmark FILE]`.
///
/// # Errors
///
/// Returns a message for bad arguments or unreadable files.
pub fn compare_files(args: &[String]) -> Result<CompareReport, String> {
    let mut files = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_owned();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark" {
            benchmark = it.next().ok_or("--benchmark needs a path")?.clone();
        } else {
            files.push(arg.clone());
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("compare takes exactly two result files".into());
    };
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    compare(&load(a)?, &load(b)?, &load(&benchmark)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_follow_the_bound_and_the_spread() {
        let tight_a = [100.0, 100.5, 99.5, 100.2, 99.8];
        // Lower is better, bound 5 %.
        assert_eq!(
            flag(&tight_a, &[101.0, 101.5, 100.5], false, 0.05).0,
            Flag::Same
        );
        assert_eq!(
            flag(&tight_a, &[110.0, 110.5, 109.5], false, 0.05).0,
            Flag::Worse
        );
        assert_eq!(
            flag(&tight_a, &[90.0, 90.5, 89.5], false, 0.05).0,
            Flag::Better
        );
        // Higher is better: the same numbers flip.
        assert_eq!(
            flag(&tight_a, &[110.0, 110.5, 109.5], true, 0.05).0,
            Flag::Better
        );
        assert_eq!(
            flag(&tight_a, &[90.0, 90.5, 89.5], true, 0.05).0,
            Flag::Worse
        );
        // A spread wider than the bound cannot tell ...
        let wide = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            flag(&wide, &[101.0, 102.0, 100.0], false, 0.05).0,
            Flag::Unresolved
        );
        // ... unless every run of B beats every run of A.
        assert_eq!(
            flag(&wide, &[50.0, 55.0, 60.0], false, 0.05).0,
            Flag::Better
        );
        assert_eq!(
            flag(&wide, &[150.0, 155.0, 160.0], false, 0.05).0,
            Flag::Worse
        );
        assert_eq!(flag(&[], &[1.0], false, 0.05).0, Flag::Unresolved);
    }

    #[test]
    fn compares_two_result_files() {
        let file = |latency: f64| {
            Json::parse(&format!(
                r#"{{"runs": [
                    {{"workload": "w", "seed": 1, "trace": false,
                      "result": {{"metrics": {{"latency_ms": {{"value": {latency}, "unit": "ms"}}}}}}}},
                    {{"workload": "w", "seed": 1, "trace": true,
                      "result": {{"metrics": {{"layer.x": {{"value": 9, "unit": "ns"}}}}}}}}
                ]}}"#
            ))
            .expect("valid")
        };
        let benchmark = Json::parse(
            r#"{"workloads": [{"name": "w", "why": "x"}],
                "end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .expect("valid");
        let same = compare(&file(1.0), &file(1.0), &benchmark).expect("well-formed");
        assert!(
            same.clean && same.text.contains("same (identical)"),
            "{}",
            same.text
        );
        let worse = compare(&file(1.0), &file(1.5), &benchmark).expect("well-formed");
        assert!(
            !worse.clean && worse.text.contains("WORSE"),
            "{}",
            worse.text
        );
        assert!(compare(&Json::Null, &file(1.0), &benchmark).is_err());
    }
}
