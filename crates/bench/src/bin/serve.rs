//! Serve benchmark: EVP request latency and throughput under
//! concurrent editor sessions, written to `BENCH_serve.json` through
//! `ev_bench::timer`'s report writer.
//!
//! The paper's §VII-B experiment measures how fast EasyView answers
//! the IDE; this benchmark measures our server the same way, but under
//! load. Deterministic [`ev_gen::ide_session`] traces — one per editor
//! session: code links, hovers, lenses, view switches, searches, plus
//! a rare deterministic failure — are replayed against ONE shared
//! [`ev_ide::SharedEvpServer`] by 1, 2, and 4 worker threads. Every
//! session folds its responses into a chained CRC-32; the benchmark
//! asserts each session's digest is identical at every thread count,
//! so the latency numbers are known to come from a concurrent server
//! computing exactly the same answers as a sequential one.
//!
//! Reported per thread count: per-method p50/p95/p99 (exact, from the
//! sorted latency vectors), aggregate requests/second, and the shared
//! view-cache statistics (hits/misses/coalesced). On hosts with ≥ 2
//! cores a throughput gate requires the best multi-thread run to beat
//! single-thread by ≥ 1.4×. A `metrics` section cross-checks with the
//! `ide.latency.*` dispatch histograms' interpolated quantiles and
//! reports the `ide.phase.*` frame-decode and response-encode
//! histograms beside them, and a `flight` section exercises the flight
//! recorder end to end: a capture-everything server replays a short
//! session with tracing on, exports chrome trace JSON over
//! `debug/flightRecorder`, and the export is re-imported through our
//! own chrome parser.
//!
//! A `coldViews` section times the uncached bottom-up and flat
//! layouts, which every profile write sends back through the
//! transform: `FlameGraph::bottom_up` and `flat` against the retained
//! owned-`Frame` transforms (`ev_bench::oracle`) plus a top-down
//! layout of their tree, in interleaved pairs
//! (`ev_bench::timer::compare`), on a paper-shaped profile (21,200
//! functions, 1.06M samples), after checking that both sides give the
//! same rects. Full mode gates each view's median per-pair ratio at
//! [`MIN_COLD_VIEW_RATIO`]. Its `flameGraphMiss` rows time what a cold
//! `profile/flameGraph` costs the server per view, the budgeted layout
//! plus the direct write (`ev_ide::encode_flame_graph`), against the
//! retained whole layout plus row-form `Value` plus `to_string`, after
//! checking both give the same bytes: at the mix's limit on the serve
//! profile and at the server's default limit on the paper-shaped one.
//! Each row splits its median run into the layout and write stages.
//! These rows are reported, not gated. The thread-count replays are
//! one run each: those whole runs also produce the latency tables and
//! the digest check.
//!
//! Usage: `serve [--quick] [--flight-out <path>]` (quick: smaller
//! profiles, shorter traces, thread counts 1 and 2 only, cold views
//! reported without the gate, and the report written under `target/`).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use ev_analysis::Transformed;
use ev_bench::oracle;
use ev_bench::serve::{replay, replay_shared, ReplayResult, FLAME_LIMIT};
use ev_bench::timer::{compare, group, write_report};
use ev_flame::{FlameGraph, FlameRect, FlameView};
use ev_gen::ide_session::{session_traces, SessionOp};
use ev_gen::synthetic::SyntheticSpec;
use ev_ide::{EditorClient, ServerOptions, SharedEvpServer, DEFAULT_FLAME_LIMIT};
use ev_json::Value;

/// Session-trace seed; fixed so runs are comparable across commits.
const SEED: u64 = 0x5E12E;

/// Required multi-thread speedup over single-thread on multi-core
/// hosts (enforced only when the host actually has ≥ 2 cores).
const MIN_SPEEDUP: f64 = 1.4;

/// Required median speedup of each cold view over the retained
/// transform plus top-down layout (full mode only).
const MIN_COLD_VIEW_RATIO: f64 = 3.0;

/// Interleaved pairs per cold view.
const COLD_VIEW_PAIRS: usize = 7;

/// Exact quantile of a sorted latency vector, in microseconds.
fn pct_micros(sorted_nanos: &[u64], q: f64) -> f64 {
    assert!(!sorted_nanos.is_empty());
    let rank = ((q * sorted_nanos.len() as f64).ceil() as usize).max(1);
    sorted_nanos[rank - 1] as f64 / 1000.0
}

/// Server options for timed runs: slow-capture off (`u64::MAX`) so
/// host scheduling noise never changes what the recorder retains —
/// only the trace's deterministic `BadLink` failures are captured.
fn timed_options() -> ServerOptions {
    ServerOptions {
        slow_request_micros: u64::MAX,
        ..ServerOptions::default()
    }
}

/// One thread-count run: a FRESH shared server (so cache state is
/// comparable across runs), the profile opened once untimed, then
/// `threads` workers replay the sessions round-robin (worker t takes
/// sessions t, t+threads, …). Returns pooled per-method latencies,
/// per-session digests (indexed by session), wall time, and the shared
/// view-cache statistics.
fn run_shared(
    profile: &ev_core::Profile,
    traces: &[Vec<SessionOp>],
    threads: usize,
) -> (
    BTreeMap<&'static str, Vec<u64>>,
    Vec<u32>,
    std::time::Duration,
    ev_analysis::CacheStats,
) {
    let server = SharedEvpServer::with_options(timed_options());
    let mut opener = EditorClient::connect_shared(server.clone()).expect("session/open");
    let profile_id = opener.open_profile(profile).expect("open profile");
    let start = Instant::now();
    let session_results: Vec<(usize, ReplayResult)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let server = server.clone();
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut s = t;
                    while s < traces.len() {
                        out.push((s, replay_shared(&server, profile, profile_id, &traces[s])));
                        s += threads;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let mut digests = vec![0u32; traces.len()];
    let mut pooled: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (session, result) in session_results {
        digests[session] = result.digest;
        for (method, latencies) in result.per_method {
            pooled.entry(method).or_default().extend(latencies);
        }
    }
    (pooled, digests, wall, server.view_cache_stats())
}

/// Flight-recorder demo: capture-everything server, tracing on, short
/// replay, chrome export round-tripped through our own importer.
/// Returns (captures, chrome events, re-imported CCT nodes, chrome
/// JSON text).
fn flight_demo(profile: &ev_core::Profile, ops: &[SessionOp]) -> (usize, usize, usize, String) {
    let options = ServerOptions {
        slow_request_micros: 0,
        ..ServerOptions::default()
    };
    ev_trace::set_enabled(true);
    let (_, mut client) = replay(profile, ops, options);
    let report = client
        .flight_recorder(Some("chrome"))
        .expect("debug/flightRecorder");
    ev_trace::set_enabled(false);
    let captures = report
        .get("captures")
        .and_then(Value::as_array)
        .map_or(0, <[Value]>::len);
    let export = report.get("export").expect("chrome export present");
    let events = export
        .get("traceEvents")
        .and_then(Value::as_array)
        .map_or(0, <[Value]>::len);
    let text = ev_json::to_string(export);
    let reimported = ev_formats::chrome::parse(&text)
        .expect("re-import our own chrome export")
        .node_count();
    (captures, events, reimported, text)
}

/// One cold view: the frame-id layout against the retained transform
/// plus a top-down layout of its tree, rects checked equal first (the
/// retained side's nodes mapped to their representatives), then timed
/// in interleaved pairs. Returns the report row and the median ratio.
fn cold_view(
    name: &str,
    profile: &ev_core::Profile,
    metric: ev_core::MetricId,
    new: fn(&ev_core::Profile, ev_core::MetricId) -> FlameGraph,
    retained: fn(&ev_core::Profile, ev_core::MetricId) -> Transformed,
) -> (Value, f64) {
    let old = |profile: &ev_core::Profile| {
        let shaped = retained(profile, metric);
        let graph = FlameGraph::top_down(&shaped.profile, ev_core::MetricId::from_index(0));
        (graph, shaped.sources)
    };
    let got = new(profile, metric);
    let (want, sources) = old(profile);
    assert_eq!(got.rects().len(), want.rects().len(), "{name}: rect count");
    for (i, (a, b)) in got.rects().iter().zip(want.rects()).enumerate() {
        let b = FlameRect {
            node: sources[b.node.index()],
            ..b.clone()
        };
        assert_eq!(a, &b, "{name}: rect {i}");
    }
    assert_eq!(
        (got.max_depth(), got.elided(), got.total()),
        (want.max_depth(), want.elided(), want.total()),
        "{name}: maxDepth, elided or total"
    );
    let timed = compare(COLD_VIEW_PAIRS, || old(profile), || new(profile, metric));
    let (new_ms, old_ms) = (timed.candidate_secs * 1e3, timed.baseline_secs * 1e3);
    println!(
        "  {name:<9} {} rects, {} elided: {new_ms:>9.1} ms vs retained {old_ms:>9.1} ms, \
         median ratio {:.2}x (pairs {})",
        got.rects().len(),
        got.elided(),
        timed.speedup,
        timed
            .pairs
            .iter()
            .map(|&(old, new)| format!("{:.2}", old / new))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let row = Value::object([
        ("rects", Value::Int(got.rects().len() as i64)),
        ("elided", Value::Int(got.elided() as i64)),
        ("medianMillis", Value::Float(new_ms)),
        ("retainedMedianMillis", Value::Float(old_ms)),
        ("medianRatio", Value::Float(timed.speedup)),
        (
            "pairMillis",
            timed
                .pairs
                .iter()
                .map(|&(old, new)| {
                    Value::Array(vec![Value::Float(new * 1e3), Value::Float(old * 1e3)])
                })
                .collect(),
        ),
    ]);
    (row, timed.speedup)
}

/// Cold `profile/flameGraph` misses at `limit`, one row per view: the
/// server's budgeted layout plus direct write against the retained
/// whole layout plus row-form `Value` plus `to_string`, bodies checked
/// equal first, then timed in interleaved pairs. A row's layout and
/// write stages are those of its median run, so they add up to it.
fn flame_graph_misses(profile: &ev_core::Profile, limit: usize) -> Value {
    let views = [
        ("topDown", FlameView::TopDown),
        ("bottomUp", FlameView::BottomUp),
        ("flat", FlameView::Flat),
    ];
    let metric = ev_core::MetricId::from_index(0);
    let mut rows = vec![
        ("limit", Value::Int(limit as i64)),
        ("nodes", Value::Int(profile.node_count() as i64)),
    ];
    for (name, view) in views {
        // Seconds of each miss's layout and write, in call order.
        let stages = RefCell::new(Vec::new());
        let miss = || {
            let start = ev_trace::now_ns();
            let graph = FlameGraph::layout(profile, metric, view, limit);
            let laid = ev_trace::now_ns();
            let body = ev_ide::encode_flame_graph(&graph);
            let end = ev_trace::now_ns();
            let secs = |from: u64, to: u64| to.saturating_sub(from) as f64 / 1e9;
            stages
                .borrow_mut()
                .push((secs(start, laid), secs(laid, end)));
            (body, graph.rects().len(), graph.truncated())
        };
        let retained = || {
            let whole = FlameGraph::layout(profile, metric, view, usize::MAX);
            ev_json::to_string(&oracle::flame_value(&whole, limit))
        };
        let (body, rects, truncated) = miss();
        assert_eq!(body, retained(), "{name} at limit {limit}: served body");
        stages.borrow_mut().clear();
        let timed = compare(COLD_VIEW_PAIRS, retained, miss);
        // `compare` runs each side once untimed, then once per pair.
        let mut order: Vec<usize> = (0..timed.pairs.len()).collect();
        order.sort_by(|&a, &b| timed.pairs[a].1.total_cmp(&timed.pairs[b].1));
        let (layout, write) = stages.borrow()[order[order.len() / 2] + 1];
        let (new_ms, old_ms) = (timed.candidate_secs * 1e3, timed.baseline_secs * 1e3);
        println!(
            "  {name:<9} {rects} rects (+{truncated} counted), {} bytes: {new_ms:>8.2} ms \
             (layout {:.2} + write {:.2}) vs retained {old_ms:>8.2} ms, median ratio {:.2}x",
            body.len(),
            layout * 1e3,
            write * 1e3,
            timed.speedup
        );
        rows.push((
            name,
            Value::object([
                ("rects", Value::Int(rects as i64)),
                ("truncated", Value::Int(truncated as i64)),
                ("bodyBytes", Value::Int(body.len() as i64)),
                ("medianMillis", Value::Float(new_ms)),
                ("layoutMillis", Value::Float(layout * 1e3)),
                ("writeMillis", Value::Float(write * 1e3)),
                ("retainedMedianMillis", Value::Float(old_ms)),
                ("medianRatio", Value::Float(timed.speedup)),
                (
                    "pairMillis",
                    timed
                        .pairs
                        .iter()
                        .map(|&(old, new)| {
                            Value::Array(vec![Value::Float(new * 1e3), Value::Float(old * 1e3)])
                        })
                        .collect(),
                ),
            ]),
        ));
    }
    Value::object(rows)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flight_out = args
        .iter()
        .position(|a| a == "--flight-out")
        .map(|i| PathBuf::from(args.get(i + 1).expect("--flight-out needs a path")));

    let (functions, samples, trace_len, sessions, thread_counts): (
        usize,
        usize,
        usize,
        usize,
        &[usize],
    ) = if quick {
        (300, 1_500, 400, 2, &[1, 2])
    } else {
        (2_000, 10_000, 1_000, 4, &[1, 2, 4])
    };
    let profile = SyntheticSpec {
        functions,
        samples,
        ..SyntheticSpec::default()
    }
    .build();
    let traces = session_traces(SEED, sessions, trace_len);
    let expected_errors: u64 = traces
        .iter()
        .flatten()
        .filter(|op| op.expects_error())
        .count() as u64;
    let total_per_run = (sessions * trace_len) as u64;
    println!(
        "{sessions} sessions x {trace_len} ops against one shared server, \
         {expected_errors} expected errors per run"
    );

    let mut reference_digests: Option<Vec<u32>> = None;
    let mut throughput: Vec<(usize, f64)> = Vec::new();
    let mut runs: Vec<Value> = Vec::new();
    for &threads in thread_counts {
        group(&format!("serve: {threads} thread(s)"));
        let (pooled, digests, wall, cache) = run_shared(&profile, &traces, threads);
        match &reference_digests {
            None => {
                println!(
                    "session digests: {}",
                    digests
                        .iter()
                        .map(|d| format!("{d:08x}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                reference_digests = Some(digests);
            }
            Some(reference) => assert_eq!(
                &digests, reference,
                "per-session digests diverged at {threads} threads"
            ),
        }
        let requests_per_sec = total_per_run as f64 / wall.as_secs_f64();
        throughput.push((threads, requests_per_sec));
        println!(
            "{total_per_run} requests in {wall:.3?} ({requests_per_sec:.0} req/s), \
             cache hits {} misses {} coalesced {}",
            cache.hits, cache.misses, cache.coalesced
        );
        let per_method: Vec<(&str, Value)> = pooled
            .iter()
            .map(|(method, latencies)| {
                let mut sorted = latencies.clone();
                sorted.sort_unstable();
                let (p50, p95, p99) = (
                    pct_micros(&sorted, 0.50),
                    pct_micros(&sorted, 0.95),
                    pct_micros(&sorted, 0.99),
                );
                println!(
                    "  {method:<24} n={:<6} p50 {p50:>9.1}us  p95 {p95:>9.1}us  p99 {p99:>9.1}us",
                    sorted.len()
                );
                (
                    *method,
                    Value::object([
                        ("count", Value::Int(sorted.len() as i64)),
                        ("p50Micros", Value::Float(p50)),
                        ("p95Micros", Value::Float(p95)),
                        ("p99Micros", Value::Float(p99)),
                    ]),
                )
            })
            .collect();
        runs.push(Value::object([
            ("threads", Value::Int(threads as i64)),
            ("wallMillis", Value::Float(wall.as_secs_f64() * 1_000.0)),
            ("requests", Value::Int(total_per_run as i64)),
            ("requestsPerSec", Value::Float(requests_per_sec)),
            (
                "viewCache",
                Value::object([
                    ("hits", Value::Int(cache.hits as i64)),
                    ("misses", Value::Int(cache.misses as i64)),
                    ("coalesced", Value::Int(cache.coalesced as i64)),
                ]),
            ),
            ("perMethod", Value::object(per_method)),
        ]));
    }
    let reference_digests = reference_digests.expect("at least one run");

    // Cross-check against the process-global ide.latency.* dispatch
    // histograms every server recorded into (interpolated log-bucket
    // quantiles), next to the ide.phase.* histograms of the frame
    // decode and response encode around each dispatch.
    let snapshot = ev_trace::snapshot_metrics();
    let histograms = |prefix: &str| -> Vec<(&'static str, Value)> {
        snapshot
            .histograms
            .iter()
            .filter(|h| h.name.starts_with(prefix) && h.count > 0)
            .map(|h| {
                let [p50, _, p95, p99] = h.percentiles();
                (
                    h.name,
                    Value::object([
                        ("count", Value::Int(h.count as i64)),
                        ("p50Micros", Value::Float(p50)),
                        ("p95Micros", Value::Float(p95)),
                        ("p99Micros", Value::Float(p99)),
                    ]),
                )
            })
            .collect()
    };
    let latency = histograms("ide.latency.");
    let phase = histograms("ide.phase.");
    let latency_methods = latency.len();
    let phases = phase.len();
    let metrics = Value::object([
        (
            "ide.requests",
            Value::Int(snapshot.counter("ide.requests") as i64),
        ),
        (
            "ide.errors",
            Value::Int(snapshot.counter("ide.errors") as i64),
        ),
        (
            "cache.coalesced",
            Value::Int(snapshot.counter("cache.coalesced") as i64),
        ),
        ("latency", Value::object(latency)),
        ("phase", Value::object(phase)),
    ]);

    group("serve: flight recorder round-trip");
    let flight_ops = &traces[0][..traces[0].len().min(48)];
    let (captures, events, reimported, chrome_text) = flight_demo(&profile, flight_ops);
    println!(
        "{captures} captures -> {events} chrome events -> {reimported} re-imported nodes"
    );
    if let Some(path) = &flight_out {
        std::fs::write(path, &chrome_text).expect("write --flight-out");
        println!("chrome trace written to {}", path.display());
    }

    group("serve: cold views (frame-id transform vs retained, interleaved)");
    let (cold_functions, cold_samples) = if quick {
        (functions, samples)
    } else {
        (21_200, 1_060_000)
    };
    let cold_profile = SyntheticSpec {
        seed: SEED,
        functions: cold_functions,
        samples: cold_samples,
        ..SyntheticSpec::default()
    }
    .build();
    let cold_metric = ev_core::MetricId::from_index(0);
    println!("{} nodes", cold_profile.node_count());
    let (bottom_up_row, bottom_up_ratio) = cold_view(
        "bottomUp",
        &cold_profile,
        cold_metric,
        FlameGraph::bottom_up,
        oracle::bottom_up,
    );
    let (flat_row, flat_ratio) = cold_view(
        "flat",
        &cold_profile,
        cold_metric,
        FlameGraph::flat,
        oracle::flatten,
    );
    group("serve: cold flameGraph misses (budgeted layout + write vs retained, interleaved)");
    println!("serve profile, the mix's limit {FLAME_LIMIT}:");
    let serve_misses = flame_graph_misses(&profile, FLAME_LIMIT as usize);
    println!("paper-shaped profile, the default limit {DEFAULT_FLAME_LIMIT}:");
    let paper_misses = flame_graph_misses(&cold_profile, DEFAULT_FLAME_LIMIT);
    let cold_views = Value::object([
        ("functions", Value::Int(cold_functions as i64)),
        ("samples", Value::Int(cold_samples as i64)),
        ("nodes", Value::Int(cold_profile.node_count() as i64)),
        ("bottomUp", bottom_up_row),
        ("flat", flat_row),
        (
            "flameGraphMiss",
            Value::object([("serve", serve_misses), ("paper", paper_misses)]),
        ),
    ]);
    drop(cold_profile);

    let report = write_report(
        "serve",
        3,
        quick,
        COLD_VIEW_PAIRS,
        vec![
            (
                "profile",
                Value::object([
                    ("functions", Value::Int(functions as i64)),
                    ("samples", Value::Int(samples as i64)),
                    ("nodes", Value::Int(profile.node_count() as i64)),
                ]),
            ),
            (
                "session",
                Value::object([
                    ("seed", Value::Int(SEED as i64)),
                    ("sessions", Value::Int(sessions as i64)),
                    ("opsPerSession", Value::Int(trace_len as i64)),
                    ("expectedErrors", Value::Int(expected_errors as i64)),
                ]),
            ),
            (
                "digests",
                reference_digests
                    .iter()
                    .map(|&d| Value::Int(i64::from(d)))
                    .collect(),
            ),
            ("runs", Value::Array(runs)),
            ("metrics", metrics),
            (
                "flight",
                Value::object([
                    ("captures", Value::Int(captures as i64)),
                    ("chromeEvents", Value::Int(events as i64)),
                    ("reimportedNodes", Value::Int(reimported as i64)),
                ]),
            ),
            ("coldViews", cold_views),
        ],
    );
    let cores = report
        .get("cores")
        .and_then(Value::as_i64)
        .expect("envelope cores");

    // Gates: a report that violates these is a bug, not a slow run.
    for run in report.get("runs").and_then(Value::as_array).unwrap() {
        assert!(run.get("requestsPerSec").and_then(Value::as_f64).unwrap() > 0.0);
        let methods = run.get("perMethod").unwrap();
        for method in [
            "profile/flameGraph",
            "profile/codeLink",
            "profile/hover",
            "profile/codeLens",
            "profile/search",
            "profile/summary",
        ] {
            let m = methods
                .get(method)
                .unwrap_or_else(|| panic!("run missing {method}"));
            let p50 = m.get("p50Micros").and_then(Value::as_f64).unwrap();
            let p95 = m.get("p95Micros").and_then(Value::as_f64).unwrap();
            let p99 = m.get("p99Micros").and_then(Value::as_f64).unwrap();
            assert!(p50 <= p95 && p95 <= p99, "{method}: {p50} {p95} {p99}");
        }
    }
    // Throughput gate: concurrency must actually pay off, but only
    // where the host can run threads in parallel at all.
    let single = throughput
        .iter()
        .find(|&&(t, _)| t == 1)
        .map(|&(_, rps)| rps)
        .expect("single-thread run present");
    let best_multi = throughput
        .iter()
        .filter(|&&(t, _)| t > 1)
        .map(|&(_, rps)| rps)
        .fold(0.0f64, f64::max);
    let speedup = best_multi / single;
    println!("multi-thread speedup: {speedup:.2}x on {cores} core(s)");
    if cores >= 2 {
        assert!(
            speedup >= MIN_SPEEDUP,
            "multi-thread throughput {best_multi:.0} req/s is under \
             {MIN_SPEEDUP}x single-thread {single:.0} req/s"
        );
    }
    let replayed: u64 = (thread_counts.len() as u64) * total_per_run;
    assert!(
        snapshot.counter("ide.requests") >= replayed,
        "ide.requests counter undercounts"
    );
    assert!(latency_methods >= 6, "expected per-method histograms");
    assert_eq!(
        phases, 2,
        "expected the frame-decode and response-encode phases"
    );
    if !quick {
        for (view, ratio) in [("bottomUp", bottom_up_ratio), ("flat", flat_ratio)] {
            assert!(
                ratio >= MIN_COLD_VIEW_RATIO,
                "cold {view} view is {ratio:.2}x the retained transform plus layout, \
                 under the {MIN_COLD_VIEW_RATIO}x gate"
            );
        }
    }
    assert!(captures > 0, "flight recorder captured nothing");
    assert!(events > 0 && reimported > 1, "chrome round-trip degenerate");
    println!("serve gates passed");
}
