#![warn(missing_docs)]

//! The repo's benchmark: eight closed-loop wall-clock workloads on a
//! booted [`solros::Solros`] system, measured from outside the program.
//!
//! * [`workloads`] — the eight workloads, their inputs and output checks.
//! * [`run`] — set-up, warm-up, timed windows, the traced pass, tripwires.
//! * [`layers`] — counter deltas read at window boundaries and the
//!   single-threaded replays of each layer's public functions.
//! * [`metrics`] — the metric tables `BENCHMARK.json` is generated from.
//! * [`compare`] — `bench compare a.json b.json`.
//!
//! Everything here measures **wall-clock time of the real threads**. The
//! one modelled figure (`pcie.modelled_us_per_op`) says so in its name.
//! See `README.md` for definitions and known gaps.

pub mod compare;
pub mod data;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod procfs;
pub mod run;
pub mod trace;
pub mod workloads;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counting wrapper over [`System`], installed for every binary that
/// links this crate so `proc.allocs_per_op` and the `*.allocs_per_*`
/// replays can be read as deltas of [`allocs`].
pub struct CountingAlloc;

// SAFETY: every operation defers to `System` unchanged; the relaxed
// counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations (and reallocations) since process start, all threads.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
