//! Regenerates every table and figure of the paper's evaluation as
//! text. Run with a target (`table1`, `table3`, `fig2`, `fig1`, `fig3`,
//! `fig4a`, `fig4b`, `fig5`, `fig6`, `fig7`, `fig8`) or `all`, which
//! prints every one of them in that order. `obs-json` dumps the full
//! observability snapshot of the Fig. 7 failover run as deterministic
//! JSON. An unknown target prints usage and exits 2 before anything
//! runs.
//!
//! ```text
//! cargo run -p rivulet-bench --bin figures -- fig6
//! cargo run -p rivulet-bench --bin figures -- obs-json > obs.json
//! ```
//!
//! Durations are scaled down from the paper's 200 s runs by default;
//! pass `--full` for full-length runs.

use std::process::ExitCode;

use rivulet_bench::{common, fig1, fig3, fig4, fig5, fig6, fig7, fig8, tables};
use rivulet_core::delivery::Delivery;
use rivulet_types::{Duration, Time};

/// Every target `all` prints, in order.
const TARGETS: [&str; 11] = [
    "table1", "table3", "fig2", "fig1", "fig3", "fig4a", "fig4b", "fig5", "fig6", "fig7", "fig8",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let which: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let which = if which.is_empty() { vec!["all"] } else { which };
    let known = |t: &&str| matches!(*t, "all" | "obs-json") || TARGETS.contains(t);
    if let Some(unknown) = which.iter().find(|t| !known(t)) {
        eprintln!(
            "figures: unknown target `{unknown}`\n\
             usage: figures [--full] [all | obs-json | {}]...",
            TARGETS.join(" | ")
        );
        return ExitCode::from(2);
    }

    for target in which {
        match target {
            "all" => TARGETS.iter().for_each(|t| print_target(t, full)),
            "obs-json" => print_obs(),
            _ => print_target(target, full),
        }
        println!();
    }
    ExitCode::SUCCESS
}

/// Prints one of [`TARGETS`]. A table ends with a blank line; a figure
/// ends with its last row. Durations are scaled down from the paper's
/// 200 s runs unless `full`.
fn print_target(target: &str, full: bool) {
    let secs = |scaled: u64| Duration::from_secs(if full { 200 } else { scaled });
    match target {
        "table1" => println!("{}", tables::render_table1()),
        "table3" => println!("{}", tables::render_table3()),
        "fig2" => println!("{}", tables::render_fig2()),
        "fig1" => print_fig1(if full { 15.0 } else { 0.5 }),
        "fig3" => print_fig3(),
        "fig4a" => print_fig4(true, secs(40)),
        "fig4b" => print_fig4(false, secs(40)),
        "fig5" => print_fig5(secs(40)),
        "fig6" => print_fig6(secs(40)),
        "fig7" => print_fig7(secs(50)),
        "fig8" => print_fig8(secs(120)),
        _ => unreachable!("`{target}` is not in TARGETS"),
    }
}

fn print_fig1(days: f64) {
    println!("Figure 1: events received per process ({days} simulated days)");
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>7}",
        "Sensor", "emitted", "proc0", "proc1", "proc2", "skew"
    );
    for row in fig1::run(days, 5) {
        println!(
            "{:<10} {:>9} {:>9} {:>9} {:>9} {:>7}",
            row.sensor,
            row.emitted,
            row.received[0],
            row.received[1],
            row.received[2],
            row.skew()
        );
    }
}

fn print_fig3() {
    println!("Figure 3: scripted link-loss trace (events 0..4; #1 lost on one link, #2 on all)");
    for delivery in [Delivery::Gap, Delivery::Gapless] {
        let out = fig3::run(delivery);
        println!("{delivery:>8}: delivered events {:?}", out.delivered);
    }
}

fn print_fig4(farthest: bool, run_len: Duration) {
    println!(
        "Figure 4{}: mean delay (ms), receiver {}",
        if farthest { "a" } else { "b" },
        if farthest {
            "farthest from app"
        } else {
            "at the app process"
        }
    );
    println!(
        "{:>8} {:>6} {:>4} {:>10}",
        "delivery", "size", "n", "delay(ms)"
    );
    for p in fig4::sweep(farthest, run_len) {
        println!(
            "{:>8} {:>6} {:>4} {:>10}",
            p.delivery.to_string(),
            p.size_label,
            p.n_processes,
            common::ms(Some(p.mean_delay))
        );
    }
}

fn print_fig5(run_len: Duration) {
    println!("Figure 5: network overhead normalized against Gap (5 processes)");
    println!(
        "{:>10} {:>6} {:>10} {:>12}",
        "protocol", "size", "receiving", "vs Gap"
    );
    for p in fig5::sweep(run_len) {
        println!(
            "{:>10} {:>6} {:>10} {:>12.2}",
            p.protocol.to_string(),
            p.size_label,
            p.receiving,
            p.normalized
        );
    }
}

fn print_fig6(run_len: Duration) {
    println!("Figure 6: % events delivered under sensor-process link loss");
    println!(
        "{:>8} {:>8} {:>10} {:>10}",
        "delivery", "loss", "receiving", "%delivered"
    );
    for p in fig6::sweep(run_len, 7) {
        println!(
            "{:>8} {:>7.2}% {:>10} {:>9.1}%",
            p.delivery.to_string(),
            p.loss * 100.0,
            p.receiving,
            p.fraction * 100.0
        );
    }
}

fn print_fig7(run_len: Duration) {
    println!("Figure 7: failover timeline (crash of app process at t=24s)");
    let crash = Time::from_secs(24);
    for delivery in [Delivery::Gap, Delivery::Gapless] {
        let out = fig7::run(delivery, crash, run_len, 11);
        println!(
            "{delivery:>8}: emitted {} delivered {} promoted_at {:?}",
            out.emitted, out.unique_delivered, out.promoted_at
        );
        print!("          events/s:");
        for (s, n) in out.per_second.iter().enumerate() {
            if (20..=32).contains(&s) {
                print!(" t{s}:{n}");
            }
        }
        println!();
        let interruption = out.resumed_at.map(|t| t - crash);
        println!(
            "          failover: crash {crash} .. resumed {:?} = {interruption:?}",
            out.resumed_at
        );
    }
}

/// Dumps the observability snapshot of the Fig. 7 Gapless failover run
/// (crash at t = 24 s, seed 11): every number the figures print comes
/// from this export.
fn print_obs() {
    let out = fig7::run(
        Delivery::Gapless,
        Time::from_secs(24),
        Duration::from_secs(50),
        11,
    );
    print!("{}", out.obs.to_json());
}

fn print_fig8(run_len: Duration) {
    println!("Figure 8: poll requests normalized against optimal (1/epoch)");
    println!(
        "{:>16} {:>16} {:>8} {:>8} {:>10}",
        "mode", "sensor", "polls", "optimal", "vs optimal"
    );
    for mode in [
        fig8::Mode::Gap,
        fig8::Mode::Coordinated,
        fig8::Mode::Uncoordinated,
    ] {
        for p in fig8::run(mode, run_len, 3) {
            println!(
                "{:>16} {:>16} {:>8} {:>8} {:>10.2}",
                mode.to_string(),
                p.sensor,
                p.polls_received,
                p.optimal,
                p.normalized
            );
        }
    }
}
