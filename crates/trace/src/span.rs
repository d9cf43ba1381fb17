//! Spans: named wall-clock intervals with parent linkage, buffered
//! per-thread and flushed in batches to a global collector.

use crate::clock;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// Flush a thread buffer once it holds this many completed records,
/// even while spans are still open on that thread (records are complete
/// at flush time; only the chunk boundary moves).
const FLUSH_LEN: usize = 1024;

/// One completed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id, allocated in open order (so `parent < id` always).
    pub id: u64,
    /// Id of the enclosing span on the same thread; 0 = top level.
    pub parent: u64,
    /// Static stage name, e.g. `"flate.inflate"`.
    pub name: &'static str,
    /// Recording thread (dense per-process index, not the OS tid).
    pub thread: u32,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch (`>= start_ns`).
    pub end_ns: u64,
}

impl SpanRecord {
    /// Wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct ThreadBuf {
    records: Vec<SpanRecord>,
    stack: Vec<u64>,
    thread: u32,
    /// Records completed inside the active capture window (see
    /// [`start_capture`]); routed here *instead of* the global
    /// collector, so a capture never double-reports.
    captured: Vec<SpanRecord>,
    capturing: bool,
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf {
        records: Vec::new(),
        stack: Vec::new(),
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        captured: Vec::new(),
        capturing: false,
    });
}

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static SPAN_COUNT: AtomicU64 = AtomicU64::new(0);

/// The global collector: every record flushed from a thread buffer.
/// Threads take the lock once per flushed buffer, not once per span.
static COLLECTED: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

fn collect(records: &mut Vec<SpanRecord>) {
    if records.is_empty() {
        return;
    }
    // A panic cannot leave the vector half-appended, so a poisoned
    // lock still guards whole records.
    let mut collected = COLLECTED.lock().unwrap_or_else(|e| e.into_inner());
    collected.append(records);
}

/// Flushes the calling thread's completed records to the global
/// collector. Called automatically when the thread's span stack
/// empties; public so long-lived threads with open spans can flush at
/// their own safe points.
pub fn flush_thread() {
    BUF.with(|buf| collect(&mut buf.borrow_mut().records));
}

/// Drains every flushed span from the global collector, sorted by
/// `(start_ns, id)` so export output is deterministic for a given
/// recording. The caller's own buffer is flushed first; other threads'
/// records are visible once their span stacks emptied.
pub fn take_spans() -> Vec<SpanRecord> {
    flush_thread();
    let mut out = std::mem::take(&mut *COLLECTED.lock().unwrap_or_else(|e| e.into_inner()));
    out.sort_by_key(|r| (r.start_ns, r.id));
    out
}

/// Total spans recorded since process start (monotone; survives
/// [`take_spans`]). The delta across a request is the request's span
/// count.
pub fn span_count() -> u64 {
    SPAN_COUNT.load(Ordering::Relaxed)
}

/// An open capture window on the calling thread; see [`start_capture`].
/// Dropping it without [`SpanCapture::finish`] discards the window.
#[must_use = "a capture collects nothing once dropped; call finish() to take the spans"]
pub struct SpanCapture {
    active: bool,
}

/// Opens a request-scoped capture window on the calling thread: spans
/// that *complete* on this thread before [`SpanCapture::finish`] are
/// routed into the capture instead of the global collector, so a
/// request handler can harvest exactly its own span tree without
/// draining (or racing with) other threads' [`take_spans`] traffic.
/// Counter bumps made on this thread are mirrored into the same
/// window (see [`SpanCapture::finish_with_counters`]), giving
/// request-scoped counter deltas that concurrent requests on other
/// threads cannot contaminate.
///
/// Inert — no allocation, no thread-local traffic beyond one borrow —
/// when tracing is disabled or a capture is already open on this
/// thread (windows do not nest; the outer window keeps collecting).
pub fn start_capture() -> SpanCapture {
    if !crate::enabled() {
        return SpanCapture { active: false };
    }
    BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        if buf.capturing {
            return SpanCapture { active: false };
        }
        buf.capturing = true;
        crate::metrics::begin_counter_capture();
        SpanCapture { active: true }
    })
}

impl SpanCapture {
    /// Whether this window is actually collecting (tracing was enabled
    /// and no outer window existed at open time).
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Closes the window and returns the spans that completed inside
    /// it, sorted by `(start_ns, id)` like [`take_spans`]. Returns an
    /// empty (unallocated) vector for an inert window.
    pub fn finish(self) -> Vec<SpanRecord> {
        self.finish_with_counters().0
    }

    /// Closes the window and returns both the spans that completed
    /// inside it (sorted like [`take_spans`]) and the counter deltas
    /// accumulated *on this thread* while the window was open, sorted
    /// by counter name. Both are empty (unallocated) for an inert
    /// window.
    pub fn finish_with_counters(mut self) -> (Vec<SpanRecord>, Vec<(&'static str, u64)>) {
        if !self.active {
            return (Vec::new(), Vec::new());
        }
        self.active = false;
        let counters = crate::metrics::end_counter_capture();
        let spans = BUF.with(|buf| {
            let mut buf = buf.borrow_mut();
            buf.capturing = false;
            let mut spans = std::mem::take(&mut buf.captured);
            spans.sort_by_key(|r| (r.start_ns, r.id));
            spans
        });
        (spans, counters)
    }
}

impl Drop for SpanCapture {
    fn drop(&mut self) {
        if self.active {
            crate::metrics::abort_counter_capture();
            BUF.with(|buf| {
                let mut buf = buf.borrow_mut();
                buf.capturing = false;
                buf.captured.clear();
            });
        }
    }
}

struct ActiveSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

/// An open span; dropping it records the interval. Inert (a single
/// `None`) when tracing was disabled at open time.
#[must_use = "a span records its interval when dropped; binding to _ drops it immediately"]
pub struct Span {
    active: Option<ActiveSpan>,
}

/// Opens a span named `name`. When tracing is disabled this is one
/// atomic load and returns an inert guard — no clock read, no
/// allocation.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !crate::enabled() {
        return Span { active: None };
    }
    span_slow(name)
}

#[cold]
fn span_slow(name: &'static str) -> Span {
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let parent = BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        let parent = buf.stack.last().copied().unwrap_or(0);
        buf.stack.push(id);
        parent
    });
    Span {
        active: Some(ActiveSpan {
            id,
            parent,
            name,
            start_ns: clock::now_ns(),
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let end_ns = clock::now_ns();
        SPAN_COUNT.fetch_add(1, Ordering::Relaxed);
        BUF.with(|buf| {
            let mut buf = buf.borrow_mut();
            // Guards drop in reverse open order, so our id is on top;
            // tolerate leaks from mem::forget'd guards anyway.
            if buf.stack.last() == Some(&active.id) {
                buf.stack.pop();
            } else {
                buf.stack.retain(|&open| open != active.id);
            }
            let record = SpanRecord {
                id: active.id,
                parent: active.parent,
                name: active.name,
                thread: buf.thread,
                start_ns: active.start_ns,
                end_ns,
            };
            if buf.capturing {
                buf.captured.push(record);
                return;
            }
            buf.records.push(record);
            if buf.stack.is_empty() || buf.records.len() >= FLUSH_LEN {
                collect(&mut buf.records);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_record_duration() {
        let r = SpanRecord {
            id: 1,
            parent: 0,
            name: "x",
            thread: 0,
            start_ns: 10,
            end_ns: 35,
        };
        assert_eq!(r.duration_ns(), 25);
    }

    #[test]
    fn capture_takes_spans_exclusively() {
        let _guard = crate::tests::collector_lock();
        crate::set_enabled(true);
        let _ = take_spans();
        {
            let _outside = span("test.cap.outside");
        }
        let cap = start_capture();
        assert!(cap.is_active());
        {
            let _a = span("test.cap.a");
            let _b = span("test.cap.b");
        }
        let captured = cap.finish();
        {
            let _after = span("test.cap.after");
        }
        let global = take_spans();
        crate::set_enabled(false);
        assert_eq!(captured.len(), 2);
        let a = captured.iter().find(|s| s.name == "test.cap.a").unwrap();
        let b = captured.iter().find(|s| s.name == "test.cap.b").unwrap();
        assert_eq!(b.parent, a.id, "parent linkage survives capture");
        // Captured spans never reach the global collector; spans
        // outside the window do.
        assert!(!global.iter().any(|s| s.name == "test.cap.a"));
        assert!(!global.iter().any(|s| s.name == "test.cap.b"));
        assert!(global.iter().any(|s| s.name == "test.cap.outside"));
        assert!(global.iter().any(|s| s.name == "test.cap.after"));
    }

    #[test]
    fn capture_is_inert_when_disabled_or_nested() {
        let _guard = crate::tests::collector_lock();
        crate::set_enabled(false);
        let cap = start_capture();
        assert!(!cap.is_active());
        assert!(cap.finish().is_empty());

        crate::set_enabled(true);
        let _ = take_spans();
        let outer = start_capture();
        let inner = start_capture();
        assert!(!inner.is_active(), "windows do not nest");
        {
            let _s = span("test.cap.nested");
        }
        assert!(inner.finish().is_empty());
        // The outer window still owns the span.
        let outer_spans = outer.finish();
        crate::set_enabled(false);
        let _ = take_spans();
        assert!(outer_spans.iter().any(|s| s.name == "test.cap.nested"));
    }

    #[test]
    fn capture_scopes_counter_deltas_to_this_thread() {
        let _guard = crate::tests::collector_lock();
        crate::set_enabled(true);
        let _ = take_spans();
        let c = crate::counter("test.capcnt.a");
        c.inc(); // outside the window: not captured
        let cap = start_capture();
        c.add(3);
        crate::counter("test.capcnt.b").add(2);
        c.add(4); // repeated bumps merge into one delta
        std::thread::spawn(|| crate::counter("test.capcnt.a").add(100))
            .join()
            .unwrap();
        let (spans, counters) = cap.finish_with_counters();
        crate::set_enabled(false);
        let _ = take_spans();
        assert!(spans.is_empty());
        // Sorted by name; the other thread's bump of test.capcnt.a is
        // invisible here (it still lands in the global counter).
        assert_eq!(counters, vec![("test.capcnt.a", 7), ("test.capcnt.b", 2)]);
        assert!(crate::counter_value("test.capcnt.a") >= 108);
    }

    #[test]
    fn dropped_capture_discards_counters_too() {
        let _guard = crate::tests::collector_lock();
        crate::set_enabled(true);
        let _ = take_spans();
        {
            let cap = start_capture();
            assert!(cap.is_active());
            crate::counter("test.capcnt.dropped").inc();
        }
        // The dropped window's deltas are gone; a fresh window starts
        // empty.
        let cap = start_capture();
        let (_, counters) = cap.finish_with_counters();
        crate::set_enabled(false);
        let _ = take_spans();
        assert!(counters.is_empty(), "{counters:?}");
    }

    #[test]
    fn dropped_capture_discards_and_releases_the_window() {
        let _guard = crate::tests::collector_lock();
        crate::set_enabled(true);
        let _ = take_spans();
        {
            let cap = start_capture();
            assert!(cap.is_active());
            let _s = span("test.cap.dropped");
        }
        // The window closed on drop: a new capture works and the
        // dropped window's spans are gone (neither captured nor
        // flushed globally).
        let cap = start_capture();
        assert!(cap.is_active());
        assert!(cap.finish().is_empty());
        let global = take_spans();
        crate::set_enabled(false);
        assert!(!global.iter().any(|s| s.name == "test.cap.dropped"));
    }

    #[test]
    fn deep_nesting_flushes_once_at_depth_zero() {
        let _guard = crate::tests::collector_lock();
        crate::set_enabled(true);
        let _ = take_spans();
        fn nest(depth: usize) {
            if depth == 0 {
                return;
            }
            let _s = span("test.nest");
            nest(depth - 1);
        }
        nest(20);
        let spans = take_spans();
        crate::set_enabled(false);
        assert_eq!(spans.iter().filter(|s| s.name == "test.nest").count(), 20);
    }
}
