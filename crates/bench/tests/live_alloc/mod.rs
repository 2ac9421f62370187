//! [`CountingAlloc`] plus a count of the bytes live right now, shared by
//! the tests that gate live heap per node. A test binary installs
//! [`LiveAlloc`] as its `#[global_allocator]`; `alloc_snapshot` keeps
//! counting through it.

use rlive_bench::perf::CountingAlloc;
use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicU64, Ordering};

// Statistics only: nothing is published through it, so `Relaxed`.
static LIVE: AtomicU64 = AtomicU64::new(0);

/// Bytes allocated and not yet freed since the process started.
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// [`CountingAlloc`] plus a count of the bytes live right now.
pub struct LiveAlloc;

// SAFETY: every method hands its arguments unchanged to `CountingAlloc`
// (a pass-through to `System`) and returns its result unchanged; the
// bookkeeping touches only the atomic above, never the memory.
unsafe impl GlobalAlloc for LiveAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract, same arguments.
        let p = unsafe { CountingAlloc.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same contract, same arguments.
        let p = unsafe { CountingAlloc.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract, same arguments.
        unsafe { CountingAlloc.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }
}
