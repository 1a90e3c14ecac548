//! Counting global allocator: allocation calls, bytes requested, and the
//! peak of live heap bytes, so each measured op reports its own heap use.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Pass-through to the system allocator that keeps the counters above.
/// The counters publish no other data, so `Relaxed` suffices (the
/// benchmark runs its ops on one thread).
pub struct Counting;

fn grew(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counter
// updates touch no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            CALLS.fetch_add(1, Relaxed);
            BYTES.fetch_add(layout.size() as u64, Relaxed);
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            CALLS.fetch_add(1, Relaxed);
            BYTES.fetch_add(layout.size() as u64, Relaxed);
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            CALLS.fetch_add(1, Relaxed);
            BYTES.fetch_add(new_size as u64, Relaxed);
            let (old, new) = (layout.size() as u64, new_size as u64);
            if new >= old {
                grew(new - old);
            } else {
                LIVE.fetch_sub(old - new, Relaxed);
            }
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }
}

/// What one measured region cost.
#[derive(Debug, Clone, Copy)]
pub struct OpStats {
    pub wall: Duration,
    /// Peak live heap above what was live when the region started.
    pub peak_bytes: u64,
    /// Allocation calls (alloc, alloc_zeroed, realloc) in the region.
    pub allocs: u64,
    /// Bytes those calls requested.
    pub alloc_bytes: u64,
}

/// Run `f` as one measured region.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, OpStats) {
    let live0 = LIVE.load(Relaxed);
    PEAK.store(live0, Relaxed);
    let (calls0, bytes0) = (CALLS.load(Relaxed), BYTES.load(Relaxed));
    let start = Instant::now();
    let value = f();
    let wall = start.elapsed();
    let stats = OpStats {
        wall,
        peak_bytes: PEAK.load(Relaxed).saturating_sub(live0),
        allocs: CALLS.load(Relaxed) - calls0,
        alloc_bytes: BYTES.load(Relaxed) - bytes0,
    };
    (value, stats)
}
