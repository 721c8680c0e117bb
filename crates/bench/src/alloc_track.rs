//! A peak-tracking global allocator for the §4.5 memory measurement.
//!
//! The paper reports 110 kB peak data memory for its C implementation on an
//! ARM926. To compare shape (not absolute numbers — different language,
//! different machine), the `repro perf` command installs [`PeakAlloc`] and
//! reports the peak live allocation during a mapping run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};

/// Byte- and call-counting wrapper around the system allocator.
///
/// It counts only inside [`PeakAlloc::peak_during`] and
/// [`PeakAlloc::allocations_during`]; outside, an
/// allocation costs one load of a flag nobody is writing, so the pool's
/// worker threads do not contend on the counters.
///
/// Install with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: rtsm_bench::alloc_track::PeakAlloc = rtsm_bench::alloc_track::PeakAlloc::new();
/// ```
pub struct PeakAlloc {
    armed: AtomicBool,
    /// Net bytes allocated since arming (negative once memory allocated
    /// before arming is freed).
    live: AtomicIsize,
    peak: AtomicIsize,
    /// Calls to `alloc` and `realloc` since arming.
    allocations: AtomicUsize,
}

impl PeakAlloc {
    /// A fresh, disarmed counter.
    pub const fn new() -> Self {
        PeakAlloc {
            armed: AtomicBool::new(false),
            live: AtomicIsize::new(0),
            peak: AtomicIsize::new(0),
            allocations: AtomicUsize::new(0),
        }
    }

    /// Runs `f` and returns the peak net heap growth, in bytes, any moment
    /// of the run reached above the heap at its start.
    pub fn peak_during<T>(&self, f: impl FnOnce() -> T) -> (usize, T) {
        let out = self.armed_during(f);
        (self.peak.load(Ordering::SeqCst) as usize, out)
    }

    /// Runs `f` and returns how many times it called the allocator
    /// (`alloc` or `realloc`; frees are not counted), on any thread.
    pub fn allocations_during<T>(&self, f: impl FnOnce() -> T) -> (usize, T) {
        let out = self.armed_during(f);
        (self.allocations.load(Ordering::SeqCst), out)
    }

    fn armed_during<T>(&self, f: impl FnOnce() -> T) -> T {
        self.live.store(0, Ordering::SeqCst);
        self.peak.store(0, Ordering::SeqCst);
        self.allocations.store(0, Ordering::SeqCst);
        self.armed.store(true, Ordering::SeqCst);
        let out = f();
        self.armed.store(false, Ordering::SeqCst);
        out
    }

    /// One `alloc`, or a `realloc` that grew by `size` bytes (0 when it
    /// shrank: still a call).
    fn add(&self, size: usize) {
        if self.armed.load(Ordering::SeqCst) {
            self.allocations.fetch_add(1, Ordering::Relaxed);
            let size = size as isize;
            let live = self.live.fetch_add(size, Ordering::Relaxed) + size;
            self.peak.fetch_max(live, Ordering::Relaxed);
        }
    }

    fn sub(&self, size: usize) {
        if self.armed.load(Ordering::SeqCst) {
            self.live.fetch_sub(size as isize, Ordering::Relaxed);
        }
    }
}

impl Default for PeakAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: delegates directly to `System`, only adding relaxed counter
// updates; layout handling is unchanged.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim to the system allocator.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.add(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim to the system allocator.
        unsafe { System.dealloc(ptr, layout) };
        self.sub(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim to the system allocator.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            self.add(new_size.saturating_sub(layout.size()));
            self.sub(layout.size().saturating_sub(new_size));
        }
        p
    }
}
