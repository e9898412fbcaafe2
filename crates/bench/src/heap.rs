//! A counting global allocator for heap tests. A test binary installs it
//! with
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: damocles_bench::heap::Counting = damocles_bench::heap::Counting;
//! ```
//!
//! and reads [`live`] and [`peak`]. The counters are process-wide, so a
//! binary that reads them should hold a single test: no other test's
//! allocations are then counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Heap bytes currently allocated through [`Counting`].
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// The most [`LIVE`] has held since the start or the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting the bytes it hands out and takes back.
pub struct Counting;

fn grew(size: usize) {
    let now = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            // A moving realloc holds both blocks for a moment.
            grew(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        new
    }
}

/// Heap bytes live now.
pub fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// The live-heap high-water mark since the start or the last
/// [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Starts a new high-water mark at the live heap, and returns it.
pub fn reset_peak() -> usize {
    let now = live();
    PEAK.store(now, Ordering::Relaxed);
    now
}
