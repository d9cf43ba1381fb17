//! Histogram quantile edges: empty input, all-zero samples, top-bucket
//! saturation, and interpolated p50/p99 checked against a sorted-vector
//! reference on generated inputs.
//!
//! The log-scale bucketing guarantees the true order statistic and the
//! reported quantile share a bucket, so the contract checked here is:
//! the interpolated answer lies within the (half-open) bucket that
//! contains the exact rank-`ceil(q·n)` sample of the sorted input.

use ev_test::Rng;
use ev_trace::{histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};

/// Bucket index matching `ev_trace`'s internal bucketing: 0 for zero,
/// else `64 - leading_zeros` (bucket k holds `[2^(k-1), 2^k)`).
fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Exact quantile by sorting: the rank-`ceil(q·n)` order statistic,
/// the same rank convention the histogram uses.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// Asserts the interpolated quantile lands in the same log bucket as
/// the exact order statistic.
fn assert_same_bucket(snap: &HistogramSnapshot, sorted: &[u64], q: f64, ctx: &str) {
    let exact = exact_quantile(sorted, q);
    let interp = snap.quantile(q);
    let k = bucket_of(exact);
    if k == 0 {
        assert_eq!(interp, 0.0, "{ctx}: q={q} exact=0");
        return;
    }
    let lo = if k == 1 { 1.0 } else { (1u128 << (k - 1)) as f64 };
    let hi = (1u128 << k) as f64;
    assert!(
        (lo..=hi).contains(&interp),
        "{ctx}: q={q} exact={exact} (bucket [{lo}, {hi})) but interpolated {interp}"
    );
}

#[test]
fn empty_histogram_reports_zero() {
    let h = histogram("quantile_edges.empty");
    assert_eq!(h.count(), 0);
    let snap = h.snapshot();
    assert_eq!(snap.quantile(0.0), 0.0);
    assert_eq!(snap.quantile(0.5), 0.0);
    assert_eq!(snap.quantile(1.0), 0.0);
    assert_eq!(snap.percentiles(), [0.0; 4]);
}

#[test]
fn all_zero_samples_stay_in_the_zero_bucket() {
    let h = histogram("quantile_edges.zeros");
    for _ in 0..1000 {
        h.record(0);
    }
    assert_eq!(h.count(), 1000);
    assert_eq!(h.sum(), 0);
    let snap = h.snapshot();
    assert_eq!(snap.buckets[0], 1000);
    assert_eq!(snap.buckets[1..].iter().sum::<u64>(), 0);
    assert_eq!(snap.quantile(0.5), 0.0);
    assert_eq!(snap.quantile(0.999), 0.0);
}

#[test]
fn top_bucket_saturates_at_histogram_buckets() {
    let h = histogram("quantile_edges.top");
    // Values in the top octave [2^63, u64::MAX] all land in the last
    // bucket — index HISTOGRAM_BUCKETS - 1, never out of range.
    for v in [u64::MAX, u64::MAX - 1, 1u64 << 63, (1u64 << 63) + 7] {
        h.record(v);
    }
    let snap = h.snapshot();
    assert_eq!(snap.buckets[HISTOGRAM_BUCKETS - 1], 4);
    assert_eq!(snap.buckets[..HISTOGRAM_BUCKETS - 1].iter().sum::<u64>(), 0);
    // The interpolated quantile stays inside the top bucket's range
    // [2^63, 2^64].
    let p50 = snap.quantile(0.5);
    assert!(p50 >= (1u64 << 63) as f64, "p50 {p50}");
    assert!(p50 <= (1u128 << 64) as f64, "p50 {p50}");
    // Sum wrapped? No: sum is a saturating concern for callers, but
    // count is what quantiles use.
    assert_eq!(snap.count, 4);
}

#[test]
fn interpolated_quantiles_match_sorted_reference_on_generated_inputs() {
    let mut rng = Rng::seed_from_u64(0xF1177);
    // Several distribution shapes: uniform-in-octave picks a random
    // octave per sample (exercises many buckets), "latency" clusters
    // in a few octaves with a long tail, small-n hits rank edges.
    // Registered histograms are process-global: each case records into
    // its own.
    for (case, n, name) in [
        (0u32, 10_000usize, "quantile_edges.ref.octaves"),
        (1, 10_000, "quantile_edges.ref.latency"),
        (2, 17, "quantile_edges.ref.small"),
        (0, 257, "quantile_edges.ref.octaves_257"),
        (1, 3, "quantile_edges.ref.latency_3"),
    ] {
        let h = histogram(name);
        let mut samples: Vec<u64> = Vec::with_capacity(n);
        for _ in 0..n {
            let v = match case {
                0 => {
                    let octave = rng.gen_range(0..40u64);
                    (1u64 << octave) + rng.gen_range(0..(1u64 << octave).max(1))
                }
                1 => {
                    if rng.gen_bool(0.95) {
                        rng.gen_range(50_000..400_000u64)
                    } else {
                        rng.gen_range(1_000_000..50_000_000u64)
                    }
                }
                _ => rng.gen_range(0..100u64),
            };
            h.record(v);
            samples.push(v);
        }
        let snap = h.snapshot();
        samples.sort_unstable();
        assert_eq!(snap.count, n as u64);
        let ctx = format!("{name} n={n}");
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_same_bucket(&snap, &samples, q, &ctx);
        }
        // Interpolation is monotone in q.
        let mut last = -1.0f64;
        for q in [0.0, 0.1, 0.2, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = snap.quantile(q);
            assert!(v >= last, "{ctx}: quantile({q})={v} < previous {last}");
            last = v;
        }
    }
}
