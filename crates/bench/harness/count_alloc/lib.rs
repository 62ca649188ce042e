//! Counting global allocator for the benchmark harness.
//!
//! This is the only `unsafe` in the harness, and the reason it is a
//! library target of its own outside `src/`: the harness binary's crate
//! root carries `#![forbid(unsafe_code)]` (lint rule H001, whose inline
//! escape `acdc-xtask lint` does not honour), so the `GlobalAlloc` impl
//! cannot live in that crate. Everything here forwards to
//! [`std::alloc::System`]; counting is on only inside a [`Window`] opened
//! with `on`, so timed runs pay one relaxed load per allocation and
//! nothing else.

#![deny(unsafe_code)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);

/// What was allocated and freed inside one [`Window`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Calls that returned a new or resized block.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub alloc_bytes: u64,
    /// Bytes released (frees, and the old size of every resize).
    pub freed_bytes: u64,
}

impl Counts {
    /// Bytes allocated in the window and still live at its end. Exact when
    /// nothing allocated before the window was freed inside it.
    pub fn live_bytes(&self) -> i64 {
        self.alloc_bytes as i64 - self.freed_bytes as i64
    }
}

fn totals() -> Counts {
    Counts {
        allocs: ALLOCS.load(Ordering::Relaxed),
        alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        freed_bytes: FREED_BYTES.load(Ordering::Relaxed),
    }
}

/// A stretch of code whose allocations are counted (or, with `on` false,
/// deliberately not: timed runs open the same windows and count nothing).
/// Windows do not nest.
#[must_use]
pub struct Window {
    before: Counts,
}

/// Open a window; counting is on inside it if `on`.
pub fn window(on: bool) -> Window {
    COUNTING.store(on, Ordering::Relaxed);
    Window { before: totals() }
}

impl Window {
    /// Close the window: counting goes off, and what happened inside is
    /// returned.
    pub fn close(self) -> Counts {
        COUNTING.store(false, Ordering::Relaxed);
        let after = totals();
        Counts {
            allocs: after.allocs - self.before.allocs,
            alloc_bytes: after.alloc_bytes - self.before.alloc_bytes,
            freed_bytes: after.freed_bytes - self.before.freed_bytes,
        }
    }
}

pub use imp::CountingAlloc;

#[allow(unsafe_code)]
mod imp {
    use super::{ALLOCS, ALLOC_BYTES, COUNTING, FREED_BYTES};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::Ordering;

    /// [`System`] plus the counters of this crate. Install with
    /// `#[global_allocator]`.
    pub struct CountingAlloc;

    #[inline]
    fn note_alloc(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }

    #[inline]
    fn note_free(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            FREED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the bookkeeping around the
    // calls touches only atomics and never allocates, so it cannot
    // re-enter the allocator or unwind.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            // SAFETY: the caller guarantees `layout` has non-zero size,
            // which is all `System.alloc` requires.
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                note_alloc(layout.size());
            }
            p
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            // SAFETY: same contract as `alloc`, forwarded unchanged.
            let p = unsafe { System.alloc_zeroed(layout) };
            if !p.is_null() {
                note_alloc(layout.size());
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            note_free(layout.size());
            // SAFETY: the caller guarantees `ptr` came from this allocator
            // with this `layout`; every block we hand out is `System`'s.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // SAFETY: the caller guarantees `ptr`/`layout` describe a live
            // block of this allocator (hence of `System`) and that
            // `new_size` is non-zero and does not overflow when rounded up
            // to `layout.align()`.
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                note_free(layout.size());
                note_alloc(new_size);
            }
            p
        }
    }
}
