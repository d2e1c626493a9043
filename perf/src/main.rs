//! `perf` — the Rivulet benchmark's command line.
//!
//! ```text
//! perf run --workload NAME --seed N --seconds S --trace 0|1   one run (the driver's form)
//! perf run [--seed N] [--repeat K] [--smoke] [--out FILE]     every workload, as a table
//! perf compare A.json B.json [--benchmark BENCHMARK.json]     two result files against the bounds
//! perf benchmark-json                                         BENCHMARK.json from the catalogue
//! ```

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use rivulet_perf::compare::compare_files;
use rivulet_perf::host;
use rivulet_perf::json::Json;
use rivulet_perf::metrics::{benchmark_json, RUN_SECONDS};
use rivulet_perf::run::{run, Options};
use rivulet_perf::workloads::{by_name, NAMES};

const USAGE: &str = "usage: perf run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--repeat K] [--smoke] [--out FILE] [--out-dir DIR]\n       perf compare A.json B.json \
[--benchmark FILE]\n       perf benchmark-json";

/// Smoke mode: workloads at a twentieth of their virtual duration.
const SMOKE_SCALE: f64 = 0.05;
/// Smoke mode: wall seconds per run (the minimum repetitions still run).
const SMOKE_SECONDS: f64 = 0.3;

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: u64,
    smoke: bool,
    out: Option<PathBuf>,
    out_dir: PathBuf,
}

impl RunArgs {
    /// Wall seconds per run: as asked, else the mode's default.
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            RUN_SECONDS as f64
        })
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        repeat: 1,
        smoke: false,
        out: None,
        // From the repository root (how the driver runs it) and from
        // inside `perf/` alike, spans land in the package's `out/`.
        out_dir: if std::path::Path::new("perf").is_dir() {
            PathBuf::from("perf/out")
        } else {
            PathBuf::from("out")
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let number = |v: &String| {
            v.parse::<f64>()
                .ok()
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or_else(|| format!("{flag}: `{v}` is not a non-negative number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                parsed.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not an unsigned integer"))?;
            }
            "--seconds" => parsed.seconds = Some(number(value()?)?),
            "--trace" => parsed.trace = number(value()?)? != 0.0,
            "--repeat" => parsed.repeat = (number(value()?)? as u64).max(1),
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--out-dir" => parsed.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// One run in this process: prints every metric by name with its unit,
/// then the driver's result line last.
fn run_one(name: &str, args: &RunArgs) -> Result<bool, String> {
    let scale = if args.smoke { SMOKE_SCALE } else { 1.0 };
    let workload = by_name(name, args.seed, scale)
        .ok_or_else(|| format!("unknown workload `{name}`; one of {}", NAMES.join(", ")))?;
    let options = Options {
        seed: args.seed,
        seconds: args.seconds(),
        trace: args.trace,
        out_dir: args.out_dir.clone(),
    };
    let report = run(&workload, &options)?;
    if args.smoke {
        println!("# SMOKE MODE: 1/20 duration, oracle on; these numbers are NOT comparable");
    }
    println!(
        "# {} seed {} trace {}",
        workload.name,
        args.seed,
        u8::from(args.trace)
    );
    for m in &report.metrics {
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("# detail {}", report.detail.render());
    for violation in &report.verdict.violations {
        eprintln!("perf: ORACLE VIOLATION in {}: {violation}", workload.name);
    }
    println!("{}", report.result_line());
    Ok(report.verdict.correct())
}

/// Every workload, one child process each (fresh heap, its own VmHWM),
/// untraced then traced; prints a table and writes the result file.
fn run_table(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let seconds = args.seconds();
    if args.smoke {
        println!("# SMOKE MODE: 1/20 duration, oracle on; these numbers are NOT comparable");
    }
    let mut runs = Vec::new();
    let mut all_correct = true;
    for rep in 0..args.repeat {
        let seed = args.seed + rep;
        for name in NAMES {
            for trace in [false, true] {
                // The live workload cannot run shorter than boot + grace
                // per segment; smoke mode checks its oracle once.
                if args.smoke && trace && name == "live_ring" {
                    continue;
                }
                let mut child = Command::new(&exe);
                child
                    .args(["run", "--workload", name])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .arg("--out-dir")
                    .arg(&args.out_dir);
                if args.smoke {
                    child.arg("--smoke");
                }
                // `output` waits for the child to exit.
                let out = child
                    .output()
                    .map_err(|e| format!("cannot run child for {name}: {e}"))?;
                let stdout = String::from_utf8_lossy(&out.stdout);
                let result = stdout
                    .lines()
                    .last()
                    .and_then(|line| Json::parse(line).ok())
                    .ok_or_else(|| {
                        format!(
                            "{name} (trace {}) printed no result:\n{}",
                            u8::from(trace),
                            String::from_utf8_lossy(&out.stderr)
                        )
                    })?;
                all_correct &= out.status.success();
                print_rows(name, seed, trace, &result);
                runs.push(Json::obj([
                    ("workload", Json::Str(name.to_owned())),
                    ("seed", Json::Num(seed as f64)),
                    ("trace", Json::Bool(trace)),
                    ("result", result),
                ]));
            }
        }
    }
    if let Some(path) = &args.out {
        let mut header = host::header(args.seed, seconds);
        if let Json::Obj(map) = &mut header {
            map.insert("repeat".into(), Json::Num(args.repeat as f64));
            map.insert("smoke".into(), Json::Bool(args.smoke));
        }
        let file = Json::obj([("header", header), ("runs", Json::Arr(runs))]);
        std::fs::write(path, file.render_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(all_correct)
}

fn print_rows(workload: &str, seed: u64, trace: bool, result: &Json) {
    let correct = result.get("correct") == Some(&Json::Bool(true));
    let count = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    println!(
        "## {workload} seed {seed} {} correct={correct} attempted={} failed={}",
        if trace { "per-layer" } else { "end-to-end" },
        count("attempted"),
        count("failed"),
    );
    let Some(metrics) = result.get("metrics").and_then(Json::as_obj) else {
        return;
    };
    for (name, m) in metrics {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("?");
        // A layer that did nothing on this workload is not worth a row.
        if !trace || value != 0.0 {
            println!("{workload:<16} {name:<40} {value:>18.6} {unit}");
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|parsed| match &parsed.workload {
            Some(name) => run_one(name, &parsed),
            None => run_table(&parsed),
        }),
        Some("compare") => compare_files(&args[1..]).map(|report| {
            print!("{}", report.text);
            report.clean
        }),
        Some("benchmark-json") => {
            print!("{}", benchmark_json().render_pretty());
            Ok(true)
        }
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}
