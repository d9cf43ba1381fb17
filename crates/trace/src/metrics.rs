//! The static metrics registry: named counters and log-scale
//! histograms.
//!
//! Handles are `&'static` and registered on first use; hot call sites
//! cache them in a `OnceLock` so the steady-state cost of a bump is one
//! relaxed `fetch_add`. Unlike spans, metrics stay live even when span
//! recording is disabled — they back always-on surfaces such as
//! `easyview stats` and the view-cache counters.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of histogram buckets: one per power of two plus a zero
/// bucket (`u64` values span 64 octaves).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotone counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n`.
    ///
    /// When tracing is enabled the bump is also mirrored into the
    /// thread's active counter-capture window, if one is open (see
    /// [`crate::start_capture`]); when disabled the cost stays one
    /// relaxed `fetch_add` plus one relaxed load.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        if crate::enabled() {
            capture_add(self.name, n);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Per-thread counter-capture window. While open, every counter bump
/// made *on this thread* is mirrored into a local delta vector, giving
/// an exact request-scoped view that cannot be contaminated by
/// concurrent requests on other threads (unlike a global
/// snapshot-subtract). Requests touch a handful of distinct counters,
/// so a linear scan beats a map.
struct CounterWindow {
    active: bool,
    deltas: Vec<(&'static str, u64)>,
}

thread_local! {
    static COUNTER_WINDOW: RefCell<CounterWindow> = const {
        RefCell::new(CounterWindow { active: false, deltas: Vec::new() })
    };
}

/// Mirrors a bump into the thread's capture window, if one is open.
/// Outlined: the hot path in [`Counter::add`] pays only the
/// `enabled()` load when tracing is off.
#[cold]
fn capture_add(name: &'static str, n: u64) {
    COUNTER_WINDOW.with(|w| {
        let mut w = w.borrow_mut();
        if !w.active {
            return;
        }
        match w.deltas.iter_mut().find(|(m, _)| *m == name) {
            Some(slot) => slot.1 += n,
            None => w.deltas.push((name, n)),
        }
    });
}

/// Opens this thread's counter-capture window. Returns `false` (and
/// changes nothing) if one is already open — capture windows are
/// exclusive per thread, mirroring span capture.
pub(crate) fn begin_counter_capture() -> bool {
    COUNTER_WINDOW.with(|w| {
        let mut w = w.borrow_mut();
        if w.active {
            return false;
        }
        w.active = true;
        w.deltas.clear();
        true
    })
}

/// Closes this thread's counter-capture window and returns the deltas
/// accumulated while it was open, sorted by counter name.
pub(crate) fn end_counter_capture() -> Vec<(&'static str, u64)> {
    COUNTER_WINDOW.with(|w| {
        let mut w = w.borrow_mut();
        w.active = false;
        let mut deltas = std::mem::take(&mut w.deltas);
        deltas.sort_unstable_by_key(|&(name, _)| name);
        deltas
    })
}

/// Closes this thread's counter-capture window, discarding the deltas.
pub(crate) fn abort_counter_capture() {
    COUNTER_WINDOW.with(|w| {
        let mut w = w.borrow_mut();
        w.active = false;
        w.deltas.clear();
    });
}

/// A log-scale (power-of-two bucketed) histogram of `u64` samples.
/// Bucket `0` holds zeros; bucket `k` holds values in
/// `[2^(k-1), 2^k)`.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

impl Histogram {
    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of this histogram's state, for interpolated
    /// quantiles. Buckets are read with relaxed loads, so a snapshot
    /// taken while writers are active is consistent per-bucket but not
    /// across buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            name: self.name,
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

/// A point-in-time copy of one histogram: counts per log-scale bucket
/// plus the running count/sum. Its quantiles are *interpolated*: a
/// value inside the bucket's range, placed by the rank's position
/// within the bucket, not the bucket's upper edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// The registered name.
    pub name: &'static str,
    /// Number of samples at snapshot time.
    pub count: u64,
    /// Sum of samples at snapshot time.
    pub sum: u64,
    /// Per-bucket sample counts (see [`Histogram`] for the bucketing).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// An empty snapshot named `name`.
    pub fn empty(name: &'static str) -> HistogramSnapshot {
        HistogramSnapshot {
            name,
            count: 0,
            sum: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }

    /// Interpolated quantile `q` in `[0, 1]` (0.0 when empty).
    ///
    /// Finds the bucket containing the rank `ceil(q·count)` sample and
    /// places the answer inside the bucket's value range `[2^(k-1),
    /// 2^k)` by linear interpolation on the rank's position within the
    /// bucket (midpoint convention, so a single-sample bucket reports
    /// its midpoint rather than either edge). Bucket 0 (zeros) reports
    /// 0. The true sample always lies in the same bucket, so the
    /// interpolated answer is within 2× of the exact order statistic.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                if k == 0 {
                    return 0.0;
                }
                let lo = if k == 1 { 1.0 } else { (1u128 << (k - 1)) as f64 };
                let hi = (1u128 << k) as f64;
                let into = (rank - seen) as f64 - 0.5;
                let frac = (into / n as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * frac;
            }
            seen += n;
        }
        // Unreachable while count covers the buckets; saturate at the
        // top edge for torn concurrent snapshots.
        (1u128 << 64) as f64
    }

    /// The conventional latency summary: interpolated p50/p90/p95/p99.
    pub fn percentiles(&self) -> [f64; 4] {
        [
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.95),
            self.quantile(0.99),
        ]
    }
}

/// A point-in-time copy of the whole metrics registry: every counter
/// value and every histogram state, sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` per registered counter, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// One snapshot per registered histogram, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The value of counter `name` (0 when absent from the snapshot).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|(n, _)| (*n).cmp(name))
            .map_or(0, |i| self.counters[i].1)
    }

    /// The snapshot of histogram `name`, if registered at capture time.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .binary_search_by(|h| h.name.cmp(name))
            .ok()
            .map(|i| &self.histograms[i])
    }
}

/// Snapshots every registered metric (one registry lock, relaxed
/// per-metric reads). See [`MetricsSnapshot`].
pub fn snapshot_metrics() -> MetricsSnapshot {
    let reg = registry().lock().unwrap();
    MetricsSnapshot {
        counters: reg.counters.iter().map(|(&n, c)| (n, c.get())).collect(),
        histograms: reg.histograms.values().map(|h| h.snapshot()).collect(),
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<&'static str, &'static Counter>,
    histograms: BTreeMap<&'static str, &'static Histogram>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

/// The counter registered under `name`, creating it on first use.
/// Registration takes a lock; hot call sites should cache the returned
/// handle in a `OnceLock`.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut reg = registry().lock().unwrap();
    reg.counters.entry(name).or_insert_with(|| {
        Box::leak(Box::new(Counter {
            name,
            value: AtomicU64::new(0),
        }))
    })
}

/// The histogram registered under `name`, creating it on first use.
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut reg = registry().lock().unwrap();
    reg.histograms.entry(name).or_insert_with(|| {
        Box::leak(Box::new(Histogram {
            name,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
        }))
    })
}

/// Current value of the counter named `name`, or 0 when none is
/// registered (read-only: does not create the counter).
pub fn counter_value(name: &str) -> u64 {
    registry()
        .lock()
        .unwrap()
        .counters
        .get(name)
        .map_or(0, |c| c.get())
}

/// A plain-text dump of every registered metric, sorted by name:
/// `counter <name> <value>` and
/// `histogram <name> count <n> sum <s> p50 <v> p99 <v>` lines, with the
/// interpolated quantiles of [`HistogramSnapshot::quantile`].
pub fn metrics_dump() -> String {
    let snapshot = snapshot_metrics();
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let _ = writeln!(out, "counter {name} {value}");
    }
    for h in &snapshot.histograms {
        let _ = writeln!(
            out,
            "histogram {} count {} sum {} p50 {} p99 {}",
            h.name,
            h.count,
            h.sum,
            h.quantile(0.5),
            h.quantile(0.99),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_registers_once_and_accumulates() {
        let a = counter("test.metrics.counter");
        let b = counter("test.metrics.counter");
        assert!(std::ptr::eq(a, b), "same handle for the same name");
        let before = a.get();
        a.inc();
        b.add(4);
        assert_eq!(a.get(), before + 5);
        assert_eq!(counter_value("test.metrics.counter"), a.get());
        assert_eq!(counter_value("test.metrics.unregistered"), 0);
    }

    #[test]
    fn histogram_buckets_are_log_scale() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_quantiles_bound_samples() {
        let h = histogram("test.metrics.hist");
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        // Each quantile lands in the bucket of its rank's sample.
        let s = h.snapshot();
        assert!((2.0..4.0).contains(&s.quantile(0.5)), "median sample 3");
        assert!(
            (512.0..1024.0).contains(&s.quantile(1.0)),
            "top sample 1000"
        );
        let empty = histogram("test.metrics.empty").snapshot();
        assert_eq!(empty.quantile(0.5), 0.0);
    }

    #[test]
    fn snapshot_interpolates_within_bucket_bounds() {
        let h = histogram("test.snapshot.interp");
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // Exact p50 of 1..=100 is 50, in bucket [32, 64); the
        // interpolated answer must land inside that bucket, strictly
        // between the edges.
        let p50 = s.quantile(0.5);
        assert!((32.0..64.0).contains(&p50), "p50 {p50}");
        // p99 rank 99 is in bucket [64, 128).
        let p99 = s.quantile(0.99);
        assert!((64.0..128.0).contains(&p99), "p99 {p99}");
        // Monotone in q.
        assert!(s.quantile(0.1) <= s.quantile(0.5));
        assert!(s.quantile(0.5) <= s.quantile(0.99));
        let [q50, q90, q95, q99] = s.percentiles();
        assert_eq!(q50, p50);
        assert!(q90 <= q95 && q95 <= q99);
    }

    #[test]
    fn metrics_snapshot_looks_up_by_name() {
        let moved = counter("test.lookup.moved");
        let h = histogram("test.lookup.hist");
        moved.add(3);
        h.record(9);
        let snapshot = snapshot_metrics();
        assert!(snapshot.counter("test.lookup.moved") >= 3);
        assert_eq!(snapshot.counter("test.lookup.absent"), 0);
        assert!(snapshot.histogram("test.lookup.hist").unwrap().count >= 1);
        assert!(snapshot.histogram("test.lookup.absent").is_none());
    }

    #[test]
    fn empty_snapshot_quantile_is_zero() {
        let s = HistogramSnapshot::empty("test.snapshot.empty");
        assert_eq!(s.quantile(0.5), 0.0);
    }

    #[test]
    fn dump_lists_sorted_metrics() {
        counter("test.dump.b").inc();
        counter("test.dump.a").inc();
        histogram("test.dump.h").record(7);
        let dump = metrics_dump();
        let a = dump.find("counter test.dump.a").unwrap();
        let b = dump.find("counter test.dump.b").unwrap();
        assert!(a < b, "sorted by name:\n{dump}");
        assert!(dump.contains("histogram test.dump.h count 1 sum 7"), "{dump}");
    }
}
