//! `ev-trace` — EasyView's self-profiling substrate.
//!
//! The paper's thesis is that profiles belong next to the code that
//! produced them; this crate closes the loop by making EasyView's own
//! pipeline (gunzip → wire decode → convert → analyze → layout → serve)
//! observable with EasyView itself. Every layer records *spans*
//! (named, nested wall-clock intervals) and *metrics* (counters and
//! log-scale histograms); the collected span tree is exported by
//! `ev-formats::trace` as an EasyView profile — so `easyview flame`
//! renders its own execution — or as Chrome trace-event JSON for
//! `chrome://tracing`.
//!
//! # Design constraints
//!
//! * **std only.** No dependencies, so even the leaf crates (`ev-flate`,
//!   `ev-wire`) can be instrumented without cycles.
//! * **Zero-cost when disabled.** [`span`] compiles to one relaxed
//!   atomic load and an early return: no clock read, no id allocation,
//!   no heap traffic (asserted by a counting-allocator test). Counters
//!   stay live so surfaces like `easyview stats` work without tracing,
//!   but a disabled-path counter bump is one relaxed `fetch_add` plus
//!   one relaxed load on a cached handle.
//! * **Determinism-preserving.** Instrumentation only *records*; it
//!   never reorders or gates work, so the `--threads` bit-identical
//!   output contract of `ev-par` is untouched.
//!
//! # Span model
//!
//! A span is opened with [`span`] and closed by dropping the returned
//! guard. Each thread keeps a private buffer and a stack of open span
//! ids; parent linkage is the enclosing span on the *same* thread
//! (spans opened on `ev-par` threads attach to the root). Completed
//! records are flushed to a global collector — one mutex-guarded
//! vector of records — whenever a thread's span stack empties or its
//! buffer fills, so the lock is taken once per flushed batch, never
//! per span. [`take_spans`] drains the collector into a deterministic
//! `(start, id)` order.
//!
//! For request-scoped observability, [`start_capture`] opens a
//! thread-local window that routes completing spans into the capture
//! instead of the global collector and mirrors this thread's counter
//! bumps into the same window
//! ([`SpanCapture::finish_with_counters`]), so concurrent requests on
//! other threads cannot contaminate either; [`FlightRecorder`] retains
//! the harvested trees of slow or failed requests in a bounded ring
//! with those per-request counter deltas.
//!
//! # Examples
//!
//! ```
//! ev_trace::set_enabled(true);
//! {
//!     let _outer = ev_trace::span("demo.outer");
//!     let _inner = ev_trace::span("demo.inner");
//!     ev_trace::counter("demo.events").inc();
//! }
//! let spans = ev_trace::take_spans();
//! ev_trace::set_enabled(false);
//! assert!(spans.iter().any(|s| s.name == "demo.inner" && s.parent != 0));
//! ```

#![forbid(unsafe_code)]

mod clock;
mod flight;
mod metrics;
mod span;

pub use clock::now_ns;
pub use flight::{
    CaptureReason, FlightCapture, FlightRecorder, DEFAULT_CAPACITY, DEFAULT_MAX_SPANS,
};
pub use metrics::{
    counter, counter_value, histogram, metrics_dump, snapshot_metrics, Counter, Histogram,
    HistogramSnapshot, MetricsSnapshot, HISTOGRAM_BUCKETS,
};
pub use span::{
    flush_thread, span, span_count, start_capture, take_spans, Span, SpanCapture, SpanRecord,
};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether span recording is on. One relaxed load; this is the whole
/// cost of a disabled [`span`] call site.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span recording on or off process-wide. Spans already open keep
/// recording to completion; spans opened while disabled stay inert even
/// if recording is re-enabled before they drop.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes tests that touch the global span collector.
    pub(crate) fn collector_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = collector_lock();
        set_enabled(false);
        let _ = take_spans();
        {
            let _s = span("test.disabled");
        }
        assert!(take_spans().is_empty());
    }

    #[test]
    fn enabled_spans_nest_and_link() {
        let _guard = collector_lock();
        set_enabled(true);
        let _ = take_spans();
        {
            let _a = span("test.a");
            {
                let _b = span("test.b");
            }
        }
        let spans = take_spans();
        set_enabled(false);
        let a = spans.iter().find(|s| s.name == "test.a").unwrap();
        let b = spans.iter().find(|s| s.name == "test.b").unwrap();
        assert_eq!(b.parent, a.id);
        assert_eq!(a.parent, 0);
        assert!(a.start_ns <= b.start_ns && b.end_ns <= a.end_ns);
        assert!(a.id < b.id, "ids are allocated in open order");
    }

    #[test]
    fn spans_from_other_threads_are_collected() {
        let _guard = collector_lock();
        set_enabled(true);
        let _ = take_spans();
        std::thread::spawn(|| {
            let _s = span("test.worker");
        })
        .join()
        .unwrap();
        let spans = take_spans();
        set_enabled(false);
        assert!(spans.iter().any(|s| s.name == "test.worker"));
    }

    #[test]
    fn concurrent_flushes_collect_each_record_once() {
        // Each thread records more than two buffers' worth under an
        // open outer span, so it flushes at the buffer limit and again
        // when the outer span closes; the barrier lines the threads'
        // flushes up against each other.
        const THREADS: usize = 4;
        const PER_THREAD: usize = 2500;
        let _guard = collector_lock();
        set_enabled(true);
        let _ = take_spans();
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    let _outer = span("test.flush_outer");
                    barrier.wait();
                    for _ in 0..PER_THREAD {
                        let _s = span("test.flush");
                    }
                });
            }
        });
        let spans = take_spans();
        set_enabled(false);
        let inner: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "test.flush").collect();
        assert_eq!(inner.len(), THREADS * PER_THREAD);
        let ids: std::collections::HashSet<u64> = inner.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), inner.len(), "a record was collected twice");
        let outers = spans
            .iter()
            .filter(|s| s.name == "test.flush_outer")
            .count();
        assert_eq!(outers, THREADS);
        let mut threads: Vec<u32> = inner.iter().map(|s| s.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        assert_eq!(threads.len(), THREADS);
        assert!(take_spans().is_empty(), "take_spans drains the collector");
    }

    #[test]
    fn take_spans_orders_deterministically() {
        let _guard = collector_lock();
        set_enabled(true);
        let _ = take_spans();
        for _ in 0..10 {
            let _s = span("test.order");
        }
        let spans = take_spans();
        set_enabled(false);
        let mut sorted = spans.clone();
        sorted.sort_by_key(|s| (s.start_ns, s.id));
        assert_eq!(spans, sorted);
    }
}
