//! Host probes: memory high-water mark, CPU time, core count, and the
//! run header.
//!
//! Every probe returns `Option`: when a `/proc` file is unreadable the
//! metric is reported absent, never as 0.

use std::process::Command;
use std::time::Duration;

use crate::json::Json;

/// Extracts the `VmHWM` line of a `/proc/<pid>/status` text, in KiB.
#[must_use]
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

/// Extracts on-CPU nanoseconds (first field) of a `schedstat` text.
#[must_use]
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process so far, in MiB.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// On-CPU time of the *calling thread* so far. `/proc/self/schedstat`
/// is the main thread's; the per-thread file is read so the probe also
/// works on a worker thread.
#[must_use]
pub fn thread_cpu_time() -> Option<Duration> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")
        .or_else(|_| std::fs::read_to_string("/proc/self/schedstat"))
        .ok()?;
    parse_schedstat_ns(&text).map(Duration::from_nanos)
}

/// On-CPU time of the whole process (all threads, including exited
/// ones) from `/proc/self/stat` fields 14–15, at clock-tick (10 ms)
/// resolution — used only by the multi-threaded live workload.
#[must_use]
pub fn process_cpu_time() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields resume
    // after its closing parenthesis.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    // USER_HZ is 100 on every Linux ABI.
    Some(Duration::from_millis((utime + stime) * 10))
}

/// Number of hardware threads available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_owned()).filter(|t| !t.is_empty())
}

/// The header recorded with every result file: where and how the
/// numbers were taken. Unknown fields are `null`, not guesses.
#[must_use]
pub fn header(seed: u64, seconds: f64) -> Json {
    let opt = |v: Option<String>| v.map_or(Json::Null, Json::Str);
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("rustc", opt(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            opt(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_status_and_schedstat() {
        let status = "Name:\tperf\nVmPeak:\t  9000 kB\nVmHWM:\t    4321 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(4321));
        assert_eq!(parse_vm_hwm_kib("Name:\tperf\n"), None, "absent, not 0");
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_schedstat_ns("123456789 42 7\n"), Some(123_456_789));
        assert_eq!(parse_schedstat_ns(""), None);
    }

    #[test]
    fn live_probes_read_this_process() {
        // The sandbox is Linux; the probes must work there.
        assert!(peak_rss_mib().is_some_and(|mib| mib > 0.0));
        assert!(thread_cpu_time().is_some());
        assert!(process_cpu_time().is_some());
        assert!(nproc() >= 1);
    }
}
