//! Peak live heap: the memory metric that repeats.
//!
//! `VmHWM` does not. On `sched_30k` the same binary at the same seed
//! ends at 45 MB or at 59 MB from one process to the next, with address
//! randomisation off as well: `std`'s per-instance hash seeds move the
//! moment a large table reallocates, which moves glibc's dynamic mmap
//! threshold, which decides whether the scheduler's megabyte pool
//! vectors come from the heap or from `mmap`. Bytes requested and not
//! yet freed do not depend on any of that, so the gate is their
//! high-water mark, and `VmHWM` stays a trend-only layer metric.
//!
//! This is the one counter the benchmark adds; calls and bytes are
//! still counted by the `rlive_bench::perf::CountingAlloc` it wraps.

use rlive_bench::perf::CountingAlloc;
use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicU64, Ordering};

// Statistics only: nothing is published through these, so `Relaxed`.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

/// [`CountingAlloc`] plus a high-water mark of live bytes.
pub struct PeakAlloc;

// SAFETY: every method hands its arguments unchanged to `CountingAlloc`
// (itself a pass-through to `System`) and returns its result unchanged,
// so the caller's `GlobalAlloc` obligations are exactly the inner
// allocator's; the bookkeeping around the calls touches only the two
// atomics above and never the memory.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract, same arguments.
        let p = unsafe { CountingAlloc.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract, same arguments.
        let p = unsafe { CountingAlloc.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same contract, same arguments.
        let p = unsafe { CountingAlloc.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract, same arguments.
        unsafe { CountingAlloc.dealloc(ptr, layout) };
        shrink(layout.size());
    }
}

/// The most bytes that were ever live at once in this process.
pub fn peak_live_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}
