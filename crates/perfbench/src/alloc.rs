//! Counting allocator for the traced pass.
//!
//! Installed as the process allocator but inert until [`arm`] is called:
//! an unarmed allocation pays one relaxed load, so the untraced pass
//! measures the program, not the counter. Counts are process-wide (all
//! threads), which is what "allocations per step" means for a rank grid.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// statistics and publish no other data (hence `Relaxed`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[inline]
fn count(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

pub fn arm() {
    ARMED.store(true, Ordering::Relaxed);
}

/// `(allocation calls, bytes requested)` since [`arm`].
pub fn read() -> (u64, u64) {
    (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

/// Allocation calls and bytes made while `f` runs (0 when unarmed).
pub fn during<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (c0, b0) = read();
    let out = f();
    let (c1, b1) = read();
    (out, c1 - c0, b1 - b0)
}
