//! Heap accounting: the benchmark's global allocator forwards to the
//! system allocator and counts the bytes it hands out, so an op's
//! allocation volume is measured where it happens.
//!
//! Allocation volume is a pure function of the work an op does. Peak
//! RSS is not: with two extraction workers it depends on which raster
//! windows happen to be in flight together (51–67 MB over ten `flow-cold`
//! seeds, ±5 % between runs of one seed), too noisy to gate on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Bytes handed out since the process started (frees do not subtract).
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// statistic that publishes no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System` via this type.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()) as u64, Relaxed);
        // SAFETY: forwarded unchanged; `ptr` came from `System` via this type.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Bytes allocated so far, in MB.
pub fn allocated_mb() -> f64 {
    ALLOCATED.load(Relaxed) as f64 / (1024.0 * 1024.0)
}
