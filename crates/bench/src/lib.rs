//! Criterion benchmark crate; see benches/.
//!
//! The library half hosts the bench-only [`CountingAlloc`]: a delegating
//! global allocator that counts heap allocations so the `snails bench`
//! binary can verify the vectorized engine's steady-state hot loops are
//! allocation-free (the buffer pool actually recycles). It is *not* wired
//! into any library crate — only binaries that opt in via
//! `#[global_allocator]` and then call [`CountingAlloc::start_counting`]
//! pay the two relaxed atomic increments per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A [`System`]-delegating allocator that counts allocation events and
/// allocated bytes. `realloc` counts as one event (it may move); `dealloc`
/// is free. Counters wrap at `u64::MAX` (never reached in practice) and
/// are read with [`CountingAlloc::snapshot`] deltas around a measured
/// region.
///
/// Counting starts off. Once on, every thread writes both counters on
/// every allocation, which contends across cores: the `snails` binary
/// turns it on only for `snails bench`, so `snails serve` worker threads
/// merely read the flag. The struct gets a cache line of its own so that
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

/// Nearest-rank percentile summary of a latency (or any `u64`) sample set.
///
/// Nearest-rank is exact and deterministic — no interpolation, so two runs
/// over identical samples produce identical summaries byte-for-byte, which
/// is what the serve load harness asserts. An empty sample set summarizes
/// to all zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Percentiles {
    /// Sample count.
    pub count: u64,
    /// 50th percentile (nearest rank).
    pub p50: u64,
    /// 90th percentile (nearest rank).
    pub p90: u64,
    /// 99th percentile (nearest rank).
    pub p99: u64,
    /// Maximum sample.
    pub max: u64,
}

impl Percentiles {
    /// Summarize `samples` (sorted in place).
    #[must_use]
    pub fn of(samples: &mut [u64]) -> Percentiles {
        if samples.is_empty() {
            return Percentiles::default();
        }
        samples.sort_unstable();
        let rank = |p: u64| {
            // Nearest-rank: ceil(p/100 * n), 1-based, clamped into range.
            let n = samples.len() as u64;
            let r = (p * n).div_ceil(100).max(1) - 1;
            samples[r as usize]
        };
        Percentiles {
            count: samples.len() as u64,
            p50: rank(50),
            p90: rank(90),
            p99: rank(99),
            max: samples[samples.len() - 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Not registered as the global allocator here — exercise the trait
    // surface directly.
    #[test]
    fn percentiles_use_nearest_rank() {
        let mut one_to_hundred: Vec<u64> = (1..=100).rev().collect();
        let p = Percentiles::of(&mut one_to_hundred);
        assert_eq!(p, Percentiles { count: 100, p50: 50, p90: 90, p99: 99, max: 100 });

        let mut tiny = [7u64];
        let p = Percentiles::of(&mut tiny);
        assert_eq!(p, Percentiles { count: 1, p50: 7, p90: 7, p99: 7, max: 7 });

        let mut pair = [10u64, 20];
        let p = Percentiles::of(&mut pair);
        assert_eq!((p.p50, p.p99, p.max), (10, 20, 20));

        assert_eq!(Percentiles::of(&mut []), Percentiles::default());
    }

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
