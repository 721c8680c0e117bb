//! The crate's counting global allocator.
//!
//! Counting is off by default, where an allocation costs one relaxed load on
//! top of the system allocator, so timed runs are not perturbed. The memory
//! pass switches it on around one replay to read the peak live heap and the
//! allocation count and volume, all of which repeat exactly for a seed.
//!
//! The live level is counted from `start` (just before the manager is
//! built); `mark` restarts the peak and the counters where the measured
//! phase begins. The peak is therefore the engine's whole footprint —
//! platform copy, template library, buffer memo, running applications and
//! the transients of the call in flight — at its highest over the measured
//! phase, not only what the phase added.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// System allocator plus switchable counters. All counters are statistics
/// that publish no other data, hence `Relaxed` throughout.
pub struct CountingAlloc {
    on: AtomicBool,
    live: AtomicU64,
    peak: AtomicU64,
    count: AtomicU64,
    bytes: AtomicU64,
}

/// What [`CountingAlloc::stop`] read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocReport {
    /// Peak, since `mark`, of the bytes live since `start`.
    pub peak_live_bytes: u64,
    /// Allocations (including growing reallocations) made since `mark`.
    pub count: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

impl CountingAlloc {
    /// A switched-off allocator.
    pub const fn new() -> Self {
        CountingAlloc {
            on: AtomicBool::new(false),
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            count: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Starts counting with the live level at zero.
    pub fn start(&self) {
        self.live.store(0, Ordering::Relaxed);
        self.mark();
        self.on.store(true, Ordering::Relaxed);
    }

    /// Restarts the peak at the current live level and zeroes the
    /// allocation counters.
    pub fn mark(&self) {
        self.peak
            .store(self.live.load(Ordering::Relaxed), Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
    }

    /// Stops counting and returns what was seen.
    pub fn stop(&self) -> AllocReport {
        self.on.store(false, Ordering::Relaxed);
        AllocReport {
            peak_live_bytes: self.peak.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    fn add(&self, size: usize) {
        if self.on.load(Ordering::Relaxed) {
            let size = size as u64;
            self.count.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(size, Ordering::Relaxed);
            let live = self.live.fetch_add(size, Ordering::Relaxed) + size;
            self.peak.fetch_max(live, Ordering::Relaxed);
        }
    }

    fn sub(&self, size: usize) {
        if self.on.load(Ordering::Relaxed) {
            // Saturating: a block allocated before `start` may be freed now.
            let _ = self
                .live
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
                    Some(live.saturating_sub(size as u64))
                });
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed on as received.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            self.add(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from a matching `alloc` on this
        // allocator, which forwarded to `System`.
        unsafe { System.dealloc(ptr, layout) };
        self.sub(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is passed on as received.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                self.add(new_size - layout.size());
            } else {
                self.sub(layout.size() - new_size);
            }
        }
        new
    }
}
