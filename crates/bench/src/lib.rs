//! The `snails bench` suite ([`suite`]) and the allocation counter it
//! reads.
//!
//! [`CountingAlloc`] is a delegating global allocator that counts heap
//! allocations so the suite can verify the vectorized engine's
//! steady-state hot loops are allocation-free (the buffer pool actually
//! recycles). It is *not* wired into any library crate — only binaries
//! that opt in via `#[global_allocator]` and hand it to [`suite::run`]
//! pay the two relaxed atomic increments per allocation.

pub mod suite;

pub use suite::{grid_config, BenchOptions, SuiteOutcome};

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A [`System`]-delegating allocator that counts allocation events and
/// allocated bytes. `realloc` counts as one event (it may move); `dealloc`
/// is free. Counters wrap at `u64::MAX` (never reached in practice) and
/// are read with [`CountingAlloc::snapshot`] deltas around a measured
/// region.
///
/// Counting starts off. Once on, every thread writes both counters on
/// every allocation, which contends across cores: only [`suite::run`]
/// turns it on, so `snails serve` worker threads merely read the flag. The struct gets a cache line of its own so that
/// flag read never shares a line with data other threads write.
#[repr(align(64))]
pub struct CountingAlloc {
    counting: AtomicBool,
    allocs: AtomicU64,
    bytes: AtomicU64,
}

/// A point-in-time reading of the allocation counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocation events (alloc + alloc_zeroed + realloc) so far.
    pub allocs: u64,
    /// Bytes requested by those events.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Counter deltas from `earlier` to `self`.
    #[must_use]
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.wrapping_sub(earlier.allocs),
            bytes: self.bytes.wrapping_sub(earlier.bytes),
        }
    }
}

impl CountingAlloc {
    /// A zeroed counter set, usable in `static` position.
    #[must_use]
    pub const fn new() -> CountingAlloc {
        CountingAlloc {
            counting: AtomicBool::new(false),
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Count every allocation from now on.
    pub fn start_counting(&self) {
        self.counting.store(true, Ordering::Relaxed);
    }

    fn count(&self, bytes: usize) {
        if self.counting.load(Ordering::Relaxed) {
            self.allocs.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }

    /// Read both counters.
    pub fn snapshot(&self) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: pure delegation to `System`; the counters never affect the
// returned pointers or layouts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Not registered as the global allocator here — exercise the trait
    // surface directly.
    #[test]
    fn counts_events_and_bytes() {
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(64, 8).unwrap();
        // Off until started: delegation only.
        // SAFETY: `p` comes from this allocator with `layout` and is freed once.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            a.dealloc(p, layout);
        }
        assert_eq!(a.snapshot(), AllocSnapshot { allocs: 0, bytes: 0 });
        a.start_counting();
        let before = a.snapshot();
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            let p2 = a.realloc(p, layout, 128);
            assert!(!p2.is_null());
            a.dealloc(p2, Layout::from_size_align(128, 8).unwrap());
        }
        let d = a.snapshot().since(before);
        assert_eq!(d.allocs, 2, "alloc + realloc count, dealloc is free");
        assert_eq!(d.bytes, 64 + 128);
    }
}
