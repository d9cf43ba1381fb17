//! The bench harness the `ingest`, `script` and `serve` bins share (the
//! workspace builds offline, so this replaces criterion): [`compare`]
//! times every comparison of two code paths on one input, and
//! [`write_report`] writes every report.
//!
//! [`compare`] gates on the median of per-pair ratios over pairs that
//! alternate which side runs first: a slow spell of host load spoils
//! only the pairs it overlaps, and the median passes over them, where a
//! ratio of minima taken one side after the other compares whichever
//! runs of each side the spells happened to miss.
//!
//! Timestamps come from [`ev_trace::now_ns`], the clock spans are
//! stamped with, so bench numbers and `--trace-out` recordings compare.

use ev_json::Value;
use std::path::{Path, PathBuf};

/// Two code paths timed on one input by [`compare`].
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Median seconds of one baseline run.
    pub baseline_secs: f64,
    /// Median seconds of one candidate run.
    pub candidate_secs: f64,
    /// Median of the per-pair ratios baseline / candidate: how many
    /// times faster the candidate runs.
    pub speedup: f64,
    /// Each pair's (baseline, candidate) seconds, in run order.
    pub pairs: Vec<(f64, f64)>,
}

/// Seconds one call of `f` takes.
pub fn time_secs(f: impl FnOnce()) -> f64 {
    let start = ev_trace::now_ns();
    f();
    ev_trace::now_ns().saturating_sub(start) as f64 / 1e9
}

/// Times `baseline` against `candidate`: one untimed run of each (page
/// faults, caches, lazily built tables), then `pairs` pairs that
/// alternate which side runs first, summarized as each side's median
/// and the median per-pair ratio. Each run's result goes through
/// `black_box` and is dropped inside the timed run.
pub fn compare<A, B>(
    pairs: usize,
    mut baseline: impl FnMut() -> A,
    mut candidate: impl FnMut() -> B,
) -> Comparison {
    let mut baseline = move || drop(std::hint::black_box(baseline()));
    let mut candidate = move || drop(std::hint::black_box(candidate()));
    baseline();
    candidate();
    summarize(interleaved_pairs(pairs, baseline, candidate))
}

/// Each side's median and the median per-pair ratio of `pairs`
/// (baseline, candidate) seconds.
fn summarize(pairs: Vec<(f64, f64)>) -> Comparison {
    Comparison {
        baseline_secs: median(pairs.iter().map(|p| p.0).collect()),
        candidate_secs: median(pairs.iter().map(|p| p.1).collect()),
        speedup: median(pairs.iter().map(|p| p.0 / p.1).collect()),
        pairs,
    }
}

/// Runs `a` and `b` in `pairs` back-to-back pairs, alternating which
/// side runs first, and returns each pair's seconds of `a` and `b`.
fn interleaved_pairs(pairs: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> Vec<(f64, f64)> {
    (0..pairs.max(1))
        .map(|pair| {
            if pair % 2 == 0 {
                let ta = time_secs(&mut a);
                (ta, time_secs(&mut b))
            } else {
                let tb = time_secs(&mut b);
                (time_secs(&mut a), tb)
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

/// The repository root: where full runs write their reports, and where
/// the `ingest` bin finds the golden fixtures.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Writes the `name` bin's `rows` under the report envelope — `schema`
/// (`ev-bench-<name>/v<version>`), `quick`, the host's `cores`, and
/// `pairs`, the interleaved pairs behind each A/B row (a row timed with
/// another count says so) — to `BENCH_<name>.json`: at the repo root
/// for a full run, the report of record, and under the root's `target/`
/// for a quick one, which must not overwrite it. Proves the file
/// re-parses, and returns the report.
pub fn write_report(
    name: &str,
    version: u32,
    quick: bool,
    pairs: usize,
    rows: Vec<(&str, Value)>,
) -> Value {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let envelope = [
        (
            "schema",
            Value::String(format!("ev-bench-{name}/v{version}")),
        ),
        ("quick", Value::Bool(quick)),
        ("cores", Value::Int(cores as i64)),
        ("pairs", Value::Int(pairs as i64)),
    ];
    let report = Value::object(envelope.into_iter().chain(rows));
    let dir = if quick {
        repo_root().join("target")
    } else {
        repo_root()
    };
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    std::fs::write(&path, ev_json::to_string_pretty(&report))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    let text = std::fs::read_to_string(&path).expect("re-read the report");
    ev_json::parse(&text).unwrap_or_else(|e| panic!("{} does not re-parse: {e}", path.display()));
    println!("\nwrote {}", path.display());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_pairs_alternate_which_side_runs_first() {
        let order = std::cell::RefCell::new(Vec::new());
        let c = compare(
            4,
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        assert_eq!(c.pairs.len(), 4);
        // One untimed run of each side, then the four pairs.
        assert_eq!(
            order.into_inner(),
            ['a', 'b', 'a', 'b', 'b', 'a', 'a', 'b', 'b', 'a']
        );
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn summarize_takes_medians_of_sides_and_of_pair_ratios() {
        // Odd count: the middle pair ratio (2), where the side medians
        // (4 and 3) would give 4 / 3.
        let odd = summarize(vec![(2.0, 1.0), (9.0, 3.0), (4.0, 4.0)]);
        assert_eq!((odd.baseline_secs, odd.candidate_secs), (4.0, 3.0));
        assert_eq!(odd.speedup, 2.0);
        // Even count: the mean of the middle two ratios (1 and 2), where
        // the side medians (5 and 2.5) would give 2.
        let even = summarize(vec![(8.0, 2.0), (2.0, 2.0), (4.0, 4.0), (6.0, 3.0)]);
        assert_eq!((even.baseline_secs, even.candidate_secs), (5.0, 2.5));
        assert_eq!(even.speedup, 1.5);
    }

    #[test]
    fn quick_report_carries_the_envelope_and_re_parses() {
        let report = write_report("timer_test", 3, true, 7, vec![("rows", Value::Int(1))]);
        let get = |key: &str| report.get(key).cloned();
        assert_eq!(get("schema"), Some(Value::from("ev-bench-timer_test/v3")));
        assert_eq!(get("quick"), Some(Value::Bool(true)));
        assert!(get("cores").and_then(|c| c.as_i64()).unwrap() >= 1);
        assert_eq!(get("pairs"), Some(Value::Int(7)));
        assert_eq!(get("rows"), Some(Value::Int(1)));
        // Quick reports go under target/, never over a committed one.
        let path = repo_root().join("target/BENCH_timer_test.json");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(ev_json::parse(&text).unwrap(), report);
    }
}
