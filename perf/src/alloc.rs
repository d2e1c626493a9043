//! A counting global allocator: allocations and bytes per event.
//!
//! Allocation counts are the cost signal a shared host cannot blur: in
//! the single-threaded simulator they repeat exactly for a seed. The
//! counters are only bumped inside [`counted`] (the traced
//! repetitions), so timed repetitions pay one relaxed load per
//! allocation and multi-threaded workloads never contend on them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The process allocator: `System`, plus counting when switched on.
#[derive(Debug)]
pub struct CountingAlloc;

// Relaxed everywhere: the counters publish no other data, and they are
// only read after the single-threaded run that bumped them returned.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Runs `f` with counting on; returns its result and the
/// `(allocations, bytes)` it made.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let (a0, b0) = counts();
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    let (a1, b1) = counts();
    (out, (a1 - a0, b1 - b0))
}
