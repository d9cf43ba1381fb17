//! A counting global allocator: live heap bytes and a resettable
//! high-water mark, so the benchmark can report peak heap per operation
//! and retained heap per profile node without touching the program.
//!
//! Each thread keeps its net allocation change in a thread-local and
//! folds it into the shared counters only once it passes
//! [`FLUSH_BYTES`]. Shared atomics bumped on every allocation would
//! bounce one cache line between cores and slow multi-threaded serving
//! several-fold; this way the allocate-and-free churn of a request
//! touches no shared state. The price is resolution: the high-water
//! mark may miss up to `FLUSH_BYTES` per thread.
//!
//! Even batched, the thread-local bookkeeping cost the paper-scale open
//! about 6% on a 2-vCPU VM (it allocates millions of small blocks), so
//! counting can be switched off around timed work that reports no heap
//! figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

/// Net bytes a thread may allocate or free before publishing them.
const FLUSH_BYTES: isize = 64 << 10;

/// Forwards to the system allocator and keeps the counts.
pub struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(true);

/// Turns counting on or off. Blocks allocated while it is off and freed
/// while it is on skew [`live`], so heap figures must take their
/// baseline ([`reset_peak`], [`live`]) after counting is back on.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

thread_local! {
    static DELTA: Cell<isize> = const { Cell::new(0) };
}

fn publish(delta: isize) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    if delta > 0 {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn note(bytes: isize) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    let unpublished = DELTA.try_with(|d| {
        let v = d.get() + bytes;
        if v.abs() < FLUSH_BYTES {
            d.set(v);
            0
        } else {
            d.set(0);
            v
        }
    });
    // A thread tearing down its locals publishes directly.
    match unpublished {
        Ok(0) => {}
        Ok(v) => publish(v),
        Err(_) => publish(bytes),
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only observe
// sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap bytes currently allocated, exact for this thread's allocations
/// (other threads' unpublished changes are at most `FLUSH_BYTES` each).
pub fn live() -> usize {
    let mine = DELTA.with(|d| d.replace(0));
    if mine != 0 {
        publish(mine);
    }
    LIVE.load(Ordering::Relaxed).max(0) as usize
}

/// Restarts the high-water mark at the current live size and returns
/// that size (the baseline a later [`peak_above`] is measured from).
pub fn reset_peak() -> usize {
    let base = live();
    PEAK.store(base as isize, Ordering::Relaxed);
    base
}

/// Peak heap bytes above `baseline` since the last [`reset_peak`].
pub fn peak_above(baseline: usize) -> usize {
    live();
    (PEAK.load(Ordering::Relaxed).max(0) as usize).saturating_sub(baseline)
}
