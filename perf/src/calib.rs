//! Host-speed calibration.
//!
//! The benchmark's host is a shared two-core VM whose effective speed
//! moves by ± 10–15 % in episodes of tens of seconds (CPU time tracks
//! wall time and a pure ALU loop moves only ± 4 %, so it is cache and
//! memory contention from neighbours, not descheduling). A 10-second
//! run sits inside one episode, so medians over its repetitions do not
//! help, and raw host-time metrics of the same commit differ by up to
//! 20 % between runs.
//!
//! So every repetition is followed by a fixed **calibration kernel** —
//! allocation, hashing, tree and heap work written here, sharing no code
//! with the platform — and host-time metrics are reported in
//! *reference-host* time: measured time x ([`NOMINAL_S`] / the run's
//! median kernel time). Over 150 repetitions the kernel's time
//! correlates 0.75–0.81 with the repetition's; across windows of 25
//! repetitions whose raw medians ranged 313–368 ms, the ratio of the
//! two medians stayed within ± 2 %. Raw values stay in the result's
//! `detail`.
//!
//! What this cannot see: a change to the allocator, the optimisation
//! level or anything else that speeds the kernel up with the platform.
//! Those are build-setting changes, to be measured as such.

use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host (this sandbox in its usual
/// episode), seconds. Only fixes the unit: a host on which the kernel
/// takes exactly this long reports raw times.
pub const NOMINAL_S: f64 = 0.0190;

/// Iterations of the kernel: about 19 ms here, 5 % of a repetition.
const ITERATIONS: u64 = 75_000;

/// Fixed work with the platform's flavour — small heap allocations,
/// hash-map and B-tree updates, a binary heap — and none of its code.
fn kernel() -> u64 {
    let mut x = 88_172_645_463_325_252u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut tree: BTreeMap<u64, u64> = BTreeMap::new();
    let mut heap: BinaryHeap<u64> = BinaryHeap::new();
    let mut acc = 0u64;
    for i in 0..ITERATIONS {
        let key = next() % 20_000;
        let len = 16 + (next() % 240) as usize;
        map.insert(key, vec![i as u8; len]);
        tree.insert(key ^ 0x5555, i);
        heap.push(next());
        if i % 3 == 0 {
            acc ^= heap.pop().unwrap_or(0);
        }
        if let Some(v) = map.get(&(next() % 20_000)) {
            acc = acc.wrapping_add(v.len() as u64);
        }
        if i % 4 == 0 {
            tree.remove(&((next() % 20_000) ^ 0x5555));
        }
    }
    acc
}

/// Times the kernel once: wall seconds.
#[must_use]
pub fn measure() -> f64 {
    let started = Instant::now();
    black_box(kernel());
    started.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_fixed_work() {
        assert_eq!(kernel(), kernel(), "same work every time");
        assert!(measure() > 0.0);
    }
}
