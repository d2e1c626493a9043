//! The fleet orchestrator CLI.
//!
//! ```text
//! fleet run     <manifest> [--threads N] [--obs-out PATH]
//! fleet expand  <manifest>
//! fleet home    <manifest> <home-index>
//! ```
//!
//! * `run` expands the manifest, executes every home across the worker
//!   pool and prints the summary + per-axis breakdown. `--obs-out`
//!   writes the merged `ObsSnapshot` JSON — the document CI compares
//!   byte-for-byte across `--threads` values; without it nothing is
//!   written.
//! * `expand` prints the resolved home list without running anything.
//! * `home` re-runs a single home standalone — the debugging path for
//!   a failure found in a fleet run; seeds derive from
//!   `(fleet_seed, home_index)`, so the re-run is bit-exact.

use std::process::ExitCode;

use rivulet_fleet::executor::{run_fleet, run_home};
use rivulet_fleet::report::render_summary;
use rivulet_fleet::FleetManifest;

fn usage() -> ExitCode {
    eprintln!(
        "usage: fleet run <manifest> [--threads N] [--obs-out PATH]\n\
         \x20      fleet expand <manifest>\n\
         \x20      fleet home <manifest> <home-index>"
    );
    ExitCode::from(2)
}

fn load(path: &str) -> Result<FleetManifest, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("fleet: cannot read manifest {path}: {e}");
        ExitCode::FAILURE
    })?;
    FleetManifest::from_text(&text).map_err(|e| {
        eprintln!("fleet: {path}: {e}");
        ExitCode::FAILURE
    })
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    match command.as_str() {
        "run" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let manifest = match load(path) {
                Ok(m) => m,
                Err(code) => return code,
            };
            let threads: usize = flag_value(&args, "--threads")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            let obs_out = flag_value(&args, "--obs-out");

            println!(
                "fleet `{}`: {} configs x {} homes/config = {} homes",
                manifest.name,
                manifest.config_count(),
                manifest.homes_per_config,
                manifest.fleet_size()
            );
            let outcome = run_fleet(&manifest, threads);
            print!("{}", render_summary(&outcome));
            if let Some(obs_path) = obs_out {
                std::fs::write(&obs_path, outcome.merged.to_json())
                    .expect("write merged obs snapshot");
                println!("wrote {obs_path}");
            }
            if outcome.homes_failed() > 0 {
                eprintln!(
                    "fleet: {} home(s) failed delivery correctness",
                    outcome.homes_failed()
                );
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        "expand" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let manifest = match load(path) {
                Ok(m) => m,
                Err(code) => return code,
            };
            let specs = manifest.expand().expect("validated at parse time");
            println!(
                "fleet `{}`: {} homes ({} configs x {}/config), fleet seed {}",
                manifest.name,
                specs.len(),
                manifest.config_count(),
                manifest.homes_per_config,
                manifest.seed
            );
            for spec in &specs {
                println!("{spec}");
            }
            ExitCode::SUCCESS
        }
        "home" => {
            let (Some(path), Some(index)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            let manifest = match load(path) {
                Ok(m) => m,
                Err(code) => return code,
            };
            let Ok(index) = index.parse::<u64>() else {
                return usage();
            };
            let specs = manifest.expand().expect("validated at parse time");
            let Some(spec) = specs.iter().find(|s| s.home_index == index) else {
                eprintln!(
                    "fleet: home {index} out of range (fleet has {} homes)",
                    specs.len()
                );
                return ExitCode::FAILURE;
            };
            println!("{spec}");
            let result = run_home(spec);
            println!(
                "delivered {}/{} (floor {}): {}",
                result.delivered,
                result.emitted,
                result.expected_floor,
                if result.passed { "PASS" } else { "FAIL" }
            );
            print!("{}", result.obs.to_json());
            if result.passed {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}
