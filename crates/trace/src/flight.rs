//! The flight recorder: a bounded, fixed-memory ring buffer of
//! completed span trees.
//!
//! Continuous profilers keep a "black box" of the last N interesting
//! requests so a slow or failed call can be examined *after the fact*
//! without recording everything all the time. [`FlightRecorder`] is
//! that box: each entry is a [`FlightCapture`] — the request's span
//! tree (harvested with [`crate::start_capture`]), its wall time, why
//! it was kept, and the counter deltas of the same capture window
//! ([`crate::SpanCapture::finish_with_counters`]), which count only
//! this thread's bumps. Memory is bounded twice over:
//! the ring holds at most `capacity` captures (oldest overwritten
//! first), and each capture keeps at most `max_spans` spans (the rest
//! are dropped and counted in `truncated_spans`).

use crate::span::SpanRecord;
use std::collections::VecDeque;

/// Default ring capacity: enough history to cover a burst of slow
/// requests without holding more than a few MiB even at the span cap.
pub const DEFAULT_CAPACITY: usize = 64;

/// Default per-capture span cap. A pathological request that opens
/// millions of spans still costs at most `max_spans × size_of::<SpanRecord>`
/// (≈ 190 KiB at the default) in the recorder.
pub const DEFAULT_MAX_SPANS: usize = 4096;

/// Why a request was captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureReason {
    /// Wall time exceeded the slow-request threshold.
    Slow,
    /// The request failed.
    Error,
    /// Explicitly requested (tooling, tests).
    Forced,
}

impl CaptureReason {
    /// Stable lowercase name (`"slow"`, `"error"`, `"forced"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            CaptureReason::Slow => "slow",
            CaptureReason::Error => "error",
            CaptureReason::Forced => "forced",
        }
    }
}

/// One retained request: its span tree plus request-scoped context.
#[derive(Debug, Clone)]
pub struct FlightCapture {
    /// Monotone sequence number assigned by the recorder (never
    /// reused, so tooling can diff two retrievals).
    pub seq: u64,
    /// What the request was, e.g. the RPC method name.
    pub label: String,
    /// Why it was kept.
    pub reason: CaptureReason,
    /// End-to-end wall time in microseconds.
    pub wall_micros: u64,
    /// The request's completed spans, `(start_ns, id)`-ordered,
    /// truncated to the recorder's span cap.
    pub spans: Vec<SpanRecord>,
    /// Spans dropped by the per-capture cap (0 = complete tree).
    pub truncated_spans: usize,
    /// Counters that moved during the request, `(name, delta)`.
    pub counter_deltas: Vec<(&'static str, u64)>,
}

/// A bounded ring of [`FlightCapture`]s with overwrite-oldest
/// semantics. Not internally synchronized: the owner (e.g. the EVP
/// server, which already serializes requests) provides exclusion.
#[derive(Debug)]
pub struct FlightRecorder {
    captures: VecDeque<FlightCapture>,
    capacity: usize,
    max_spans: usize,
    next_seq: u64,
    total_recorded: u64,
    overwritten: u64,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(DEFAULT_CAPACITY, DEFAULT_MAX_SPANS)
    }
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` captures of at most
    /// `max_spans` spans each (both floored at 1).
    pub fn new(capacity: usize, max_spans: usize) -> FlightRecorder {
        FlightRecorder {
            captures: VecDeque::new(),
            capacity: capacity.max(1),
            max_spans: max_spans.max(1),
            next_seq: 1,
            total_recorded: 0,
            overwritten: 0,
        }
    }

    /// Records a capture, overwriting the oldest entry when full, and
    /// returns its sequence number. `spans` beyond the span cap are
    /// dropped (keeping the earliest-starting spans, which hold the
    /// tree's roots) and counted in the capture's `truncated_spans`.
    pub fn record(
        &mut self,
        label: impl Into<String>,
        reason: CaptureReason,
        wall_micros: u64,
        mut spans: Vec<SpanRecord>,
        counter_deltas: Vec<(&'static str, u64)>,
    ) -> u64 {
        let truncated_spans = spans.len().saturating_sub(self.max_spans);
        spans.truncate(self.max_spans);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.total_recorded += 1;
        if self.captures.len() == self.capacity {
            self.captures.pop_front();
            self.overwritten += 1;
        }
        self.captures.push_back(FlightCapture {
            seq,
            label: label.into(),
            reason,
            wall_micros,
            spans,
            truncated_spans,
            counter_deltas,
        });
        seq
    }

    /// Retained captures, oldest first.
    pub fn captures(&self) -> impl Iterator<Item = &FlightCapture> {
        self.captures.iter()
    }

    /// Number of retained captures (`<= capacity`).
    pub fn len(&self) -> usize {
        self.captures.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.captures.is_empty()
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The per-capture span cap.
    pub fn max_spans(&self) -> usize {
        self.max_spans
    }

    /// Captures recorded since construction (monotone, includes
    /// overwritten and cleared ones).
    pub fn total_recorded(&self) -> u64 {
        self.total_recorded
    }

    /// Captures lost to overwrite-oldest.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Drops every retained capture. Sequence numbers and totals keep
    /// counting from where they were.
    pub fn clear(&mut self) {
        self.captures.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, start_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent: 0,
            name: "test.flight",
            thread: 0,
            start_ns,
            end_ns: start_ns + 1,
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_keeps_monotone_seq() {
        let mut r = FlightRecorder::new(3, 16);
        for i in 0..5u64 {
            let seq = r.record(
                format!("req{i}"),
                CaptureReason::Slow,
                i,
                vec![span(i + 1, i)],
                Vec::new(),
            );
            assert_eq!(seq, i + 1, "seqs are monotone from 1");
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.capacity(), 3);
        assert_eq!(r.total_recorded(), 5);
        assert_eq!(r.overwritten(), 2);
        let labels: Vec<&str> = r.captures().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, ["req2", "req3", "req4"], "oldest first");
        let seqs: Vec<u64> = r.captures().map(|c| c.seq).collect();
        assert_eq!(seqs, [3, 4, 5]);
    }

    #[test]
    fn span_cap_truncates_and_counts() {
        let mut r = FlightRecorder::new(2, 3);
        let spans: Vec<SpanRecord> = (0..10).map(|i| span(i + 1, i)).collect();
        r.record("big", CaptureReason::Error, 7, spans, vec![("c", 2)]);
        let cap = r.captures().next().unwrap();
        assert_eq!(cap.spans.len(), 3);
        assert_eq!(cap.truncated_spans, 7);
        assert_eq!(cap.reason, CaptureReason::Error);
        assert_eq!(cap.reason.as_str(), "error");
        assert_eq!(cap.counter_deltas, [("c", 2)]);
        // The earliest-starting spans (tree roots) are the ones kept.
        assert_eq!(cap.spans[0].start_ns, 0);
    }

    #[test]
    fn clear_keeps_counting() {
        let mut r = FlightRecorder::default();
        assert_eq!(r.capacity(), DEFAULT_CAPACITY);
        assert_eq!(r.max_spans(), DEFAULT_MAX_SPANS);
        assert!(r.is_empty());
        r.record("a", CaptureReason::Forced, 1, Vec::new(), Vec::new());
        r.clear();
        assert!(r.is_empty());
        let seq = r.record("b", CaptureReason::Forced, 1, Vec::new(), Vec::new());
        assert_eq!(seq, 2, "clear does not reset sequence numbers");
        assert_eq!(r.total_recorded(), 2);
    }
}
