//! A minimal self-contained benchmark timer (the workspace builds
//! offline, so the external criterion harness is replaced by this).
//!
//! Each measurement runs a warm-up pass, then `samples` timed
//! iterations, and reports min / median / mean wall-clock time. The
//! minimum is the headline number: it is the least noisy estimator for
//! compute-bound work on a shared machine.
//!
//! Timestamps come from [`ev_trace::now_ns`], the same monotonic clock
//! the tracing substrate stamps spans with, so bench numbers and
//! `--trace-out` recordings are directly comparable.

use std::time::Duration;

/// Result of one benchmark measurement.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Fastest observed iteration.
    pub min: Duration,
    /// Median iteration.
    pub median: Duration,
    /// Mean iteration.
    pub mean: Duration,
    /// Number of timed iterations.
    pub samples: usize,
}

impl Measurement {
    /// Throughput in MiB/s for a payload of `bytes`, based on `min`.
    pub fn mib_per_sec(&self, bytes: usize) -> f64 {
        bytes as f64 / (1 << 20) as f64 / self.min.as_secs_f64()
    }
}

/// Times `f` over `samples` iterations (after one warm-up) and prints a
/// one-line report.
pub fn bench<F: FnMut()>(label: &str, samples: usize, mut f: F) -> Measurement {
    let samples = samples.max(1);
    f(); // warm-up: faults pages, fills caches, spawns pools
    let mut times: Vec<Duration> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = ev_trace::now_ns();
        f();
        times.push(Duration::from_nanos(
            ev_trace::now_ns().saturating_sub(start),
        ));
    }
    times.sort();
    let min = times[0];
    let median = times[times.len() / 2];
    let mean = times.iter().sum::<Duration>() / samples as u32;
    let m = Measurement {
        min,
        median,
        mean,
        samples,
    };
    println!(
        "{label:<44} min {:>10.3?}  median {:>10.3?}  mean {:>10.3?}  ({samples} samples)",
        min, median, mean
    );
    m
}

/// Runs `a` and `b` in `pairs` back-to-back pairs, alternating which
/// side runs first, and returns each pair's seconds of `a` and `b`. A
/// slow spell of host load spoils only the pairs it overlaps, and a
/// median passes over them; a ratio of minima instead compares
/// whichever runs of each side the spells happened to miss.
pub fn interleaved_pairs(
    pairs: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> Vec<(f64, f64)> {
    let time = |f: &mut dyn FnMut()| {
        let start = ev_trace::now_ns();
        f();
        ev_trace::now_ns().saturating_sub(start) as f64 / 1e9
    };
    (0..pairs.max(1))
        .map(|pair| {
            if pair % 2 == 0 {
                let ta = time(&mut a);
                (ta, time(&mut b))
            } else {
                let tb = time(&mut b);
                (time(&mut a), tb)
            }
        })
        .collect()
}

/// The median of `values`: the middle one, or the mean of the middle
/// two for an even count.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Prints a section header.
pub fn group(name: &str) {
    println!("\n== {name} ==");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_pairs_alternate_which_side_runs_first() {
        let order = std::cell::RefCell::new(Vec::new());
        let pairs = interleaved_pairs(
            4,
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        assert_eq!(pairs.len(), 4);
        assert_eq!(order.into_inner(), ['a', 'b', 'b', 'a', 'a', 'b', 'b', 'a']);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn bench_reports_ordered_stats() {
        let m = bench("noop", 5, || {
            std::hint::black_box(1 + 1);
        });
        assert!(m.min <= m.median);
        assert_eq!(m.samples, 5);
        assert!(m.mib_per_sec(1 << 20) > 0.0);
    }
}
