//! The EasyView benchmark: one command, two workloads, end-to-end
//! metrics from untraced runs and per-layer metrics from a separate
//! traced run. Every layer is timed from outside, around calls into the
//! crates' public functions; the program itself is not instrumented.
//!
//! Workloads (inputs are generated from `--seed`):
//!
//! * `open_paper` — opens a ~1M-node synthetic pprof (about 8 MiB
//!   gzip'd) over and over: inflate → decode → metric view → top-down
//!   layout → encoded flame response. Its traced run also replays the
//!   editor mix against the paper-scale profile for the per-method
//!   request phases.
//! * `serve_script` — two closed-loop editor sessions against one
//!   `SharedEvpServer` holding a ~10k-node profile, with about 5%
//!   `profile/script` ops, each session mutating its own copy of the
//!   profile.
//!
//! Two serving mixes are not workloads, because no allowed bound held
//! their run-to-run spread on a 2-vCPU shared host. The read-only mix on
//! the ~10k-node profile fell into two modes a factor of two apart
//! (`serve_script` runs the same requests at that scale and stayed
//! steady). At paper scale, hover, code-lens and search latencies scan a
//! ~100 MiB profile and moved by up to half between runs with the host's
//! load, with one or two client threads alike.
//!
//! Serve set-up ends with the editor's first look at the opened profile
//! (the three flame-graph views and the summary), so the cold layouts
//! are paid in `setup_s` and the timed window starts warm.
//!
//! Correctness is checked outside the timed window: open digests
//! against the retained `parse_reference` oracle, and per-session serve
//! digests equal at 2 clients, at 1 client, and over the phase-by-phase
//! sequential path. A mismatch makes the run incorrect.

pub mod alloc;
pub mod inputs;
pub mod open;
pub mod probe;
pub mod serve;
pub mod spans;
pub mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use ev_core::Profile;
use ev_formats::pprof::{self, WriteOptions};

use inputs::{paper_spec, session_mixes, small_spec, Scale, METHODS};
use open::OpenDigests;
use serve::{Replay, ServeState};
use spans::Spans;
use stats::{mean, median, tail_mean};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["open_paper", "serve_script"];

/// End-to-end metrics: `(name, unit)`. Every workload reports all of
/// them; an "op" is one open on `open_paper` and one EVP request on
/// `serve_script`. Request latencies fall into clusters (cheap lookups,
/// full-profile scans, cached and recomputed views), and a quantile near
/// a cluster boundary jumps from run to run. So `op_ms` is each method's
/// median latency weighted by the method's share of the ops (one method
/// on `open_paper`), and the tail, `op_tail_ms`, is the mean latency of
/// the slowest tenth of all ops, but of at least [`TAIL_MIN_OPS`] ops
/// (a window holds only 20-30 paper-scale opens, and the slowest two
/// of them swung with single host stalls). `heap_mib` is the peak heap
/// above the starting heap during the set-up's open on `open_paper`,
/// and the heap the server holds at the end of the timed window (its
/// profiles, view cache and sessions) on `serve_script`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("heap_mib", "MiB"),
    ("ok_share", "ratio"),
];

/// The fewest ops `op_tail_ms` averages over.
const TAIL_MIN_OPS: usize = 5;

fn op_tail_ms(ms: &[f64]) -> f64 {
    tail_mean(ms, 0.1, TAIL_MIN_OPS)
}

/// Per-layer metrics that are not per EVP method: `(name, unit)`.
const LAYERS: [(&str, &str); 24] = [
    ("flate.inflate_ms", "ms"),
    ("wire.walk_ms", "ms"),
    ("formats.pprof_decode_ms", "ms"),
    ("core.heap_bytes_per_node", "B"),
    ("core.nodes", "count"),
    ("analysis.metric_view_ms", "ms"),
    ("flame.layout_ms", "ms"),
    ("json.value_build_ms", "ms"),
    ("json.encode_ms", "ms"),
    ("json.response_bytes", "B"),
    ("trace.open_ms", "ms"),
    ("trace.open_unaccounted_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("host.memcpy_gib_s", "GiB/s"),
    ("host.bytescan_gib_s", "GiB/s"),
    ("flate.inflate_vs_memcpy", "ratio"),
    ("formats.decode_vs_bytescan", "ratio"),
    ("flame.layout_bottom_up_ms", "ms"),
    ("flame.layout_flat_ms", "ms"),
    ("analysis.fingerprint_us", "us"),
    ("analysis.cache_hit_ratio", "ratio"),
    ("analysis.cache_coalesced", "count"),
    ("script.run_us", "us"),
    ("script.vm_ops", "count"),
];

/// EVP methods with a per-phase breakdown: every method of the session
/// mix (the first six of [`METHODS`]; scripts are timed by
/// `script.run_us`).
const PHASE_METHODS: usize = 6;

/// Per-method request phases, as `ide.<phase>_us.<method>`. `client` is
/// the latency an `EditorClient` observes; the five timed phases and the
/// remainder (`unaccounted`) should add up to it; `meta_wall` is the
/// server's own `meta.wallMicros`.
const PHASES: [&str; 8] = [
    "client",
    "client_encode",
    "frame_decode",
    "handle",
    "response_encode",
    "client_decode",
    "meta_wall",
    "unaccounted",
];

/// Every per-layer metric: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    for phase in PHASES {
        for m in &METHODS[..PHASE_METHODS] {
            out.push((format!("ide.{phase}_us.{m}"), "us"));
        }
    }
    out
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run: report per-layer instead of end-to-end metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Where a traced run writes its spans (none: keep them in memory).
    pub trace_dir: Option<PathBuf>,
}

/// The result line.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// Operations with an unexpected outcome.
    pub failed: u64,
    /// `(name, value, unit)` in catalog order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Why a check failed, for stderr.
    pub problems: Vec<String>,
}

impl Report {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.problems.push(what());
        }
    }
}

/// Values keyed by metric name, turned into a [`Report`]'s metric list
/// in catalog order. A catalog name without a value is a benchmark bug.
fn collect(
    catalog: Vec<(String, &'static str)>,
    mut values: BTreeMap<String, f64>,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let out = catalog
        .into_iter()
        .map(|(name, unit)| match values.remove(&name) {
            Some(v) => Ok((name, v, unit)),
            None => Err(format!("metric {name} was not measured")),
        })
        .collect::<Result<Vec<_>, String>>()?;
    if let Some(extra) = values.keys().next() {
        return Err(format!("metric {extra} is not in the catalog"));
    }
    Ok(out)
}

const MIB: f64 = (1u64 << 20) as f64;

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload, or a failure that leaves nothing to report.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let mut values = BTreeMap::new();
    match cfg.workload.as_str() {
        "open_paper" => run_open(cfg, &mut report, &mut values)?,
        "serve_script" => run_serve(cfg, &mut report, &mut values)?,
        other => return Err(format!("unknown workload {other:?} (one of {WORKLOADS:?})")),
    }
    let catalog = if cfg.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    report.metrics = collect(catalog, values)?;
    Ok(report)
}

/// Runs `setup` `repeats` times (at least once), dropping each result
/// before the next, and returns the last result with the seconds each
/// set-up took.
fn time_setups<T>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), secs))
}

/// `setup_s`: the median of the set-ups before the window (`before`)
/// and as many again after it. Set-ups on both sides of the window
/// sample the host over the whole run, not only its first seconds.
fn setup_seconds<T>(
    mut before: Vec<f64>,
    setup: impl FnMut() -> Result<T, String>,
) -> Result<f64, String> {
    let (_, after) = time_setups(before.len(), setup)?;
    before.extend(after);
    Ok(median(&before))
}

fn run_open(
    cfg: &Config,
    report: &mut Report,
    values: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let repeats = if cfg.trace {
        1
    } else {
        cfg.scale.setup_repeats_paper
    };
    // Set-up: generate the input, then one untimed open (warms caches)
    // that also gives `heap_mib`.
    let mut setup = || {
        let gz = paper_spec(&cfg.scale, cfg.seed).build_pprof();
        let base = alloc::reset_peak();
        let warm = open::open(&gz, &mut Spans::new(false))?;
        let peak = alloc::peak_above(base);
        Ok((gz, warm, peak))
    };
    let ((gz, warm, peak), setup_secs) = time_setups(repeats, &mut setup)?;
    let expect = OpenDigests::of(&warm.profile, &warm.body);
    let profile = warm.profile;
    eprintln!(
        "perfbench: open_paper input is {} bytes of gzip'd pprof, {} nodes",
        gz.len(),
        profile.node_count()
    );

    // The window. A traced run alternates untraced and traced opens, so
    // the tracing overhead is measured on interleaved samples; it keeps
    // counting allocations for `core.heap_bytes_per_node`. An untraced
    // run reports no heap figure from the window and runs it uncounted.
    let mut spans = Spans::new(cfg.trace);
    alloc::set_counting(cfg.trace);
    let runs = open_loop(
        &gz,
        Some(expect.flame),
        cfg.trace,
        &mut spans,
        report,
        |n, secs| secs >= cfg.seconds && (!cfg.trace || n >= 2),
    );
    alloc::set_counting(true);

    let oracle = OpenDigests::oracle(&gz)?;
    report.check(oracle == expect, || {
        format!("open digests {expect:?} differ from the parse_reference oracle {oracle:?}")
    });

    if !cfg.trace {
        drop((gz, profile));
        values.insert("setup_s".into(), setup_seconds(setup_secs, setup)?);
        values.insert("op_ms".into(), median(&runs.untraced_ms));
        values.insert("op_tail_ms".into(), op_tail_ms(&runs.untraced_ms));
        values.insert(
            "ops_per_s".into(),
            runs.untraced_ms.len() as f64 / runs.wall_s,
        );
        values.insert("heap_mib".into(), peak as f64 / MIB);
        values.insert("ok_share".into(), ok_share(report));
        return Ok(());
    }

    // Traced run: half the window's opens carried the open-layer spans.
    open_layers(values, &spans, &runs, profile.node_count(), &gz, &cfg.scale)?;
    let mixes = session_mixes(cfg.seed, 2, PAPER_MIX_LEN, false);
    let state = serve::setup(profile, mixes)?;
    serve_layers(cfg, report, values, &state, None)?;
    common_layers(values, &state.profile, 4)?;
    write_spans(cfg, &spans, "open");
    Ok(())
}

/// Ops generated per session mix on the paper-scale and the small
/// profile (replays wrap around if a window outruns them).
const PAPER_MIX_LEN: usize = 4_000;
const SMALL_MIX_LEN: usize = 20_000;

fn ok_share(report: &Report) -> f64 {
    1.0 - report.failed as f64 / report.attempted.max(1) as f64
}

fn run_serve(
    cfg: &Config,
    report: &mut Report,
    values: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let scale = &cfg.scale;
    let repeats = if cfg.trace {
        1
    } else {
        scale.setup_repeats_small
    };
    // Set-up: generate the profile and the session mixes, then the
    // untimed `profile/open` and first look at its views.
    let mut setup = || {
        let mixes = session_mixes(cfg.seed, 2, SMALL_MIX_LEN, true);
        serve::setup(small_spec(scale, cfg.seed).build(), mixes)
    };
    let (state, setup_secs) = time_setups(repeats, &mut setup)?;
    let chain_len = scale.check_ops;

    let win = serve::window(&state, cfg.seconds, chain_len)?;
    report.attempted = win.attempted;
    report.failed = win.failed;
    let counts: Vec<usize> = win.completed.iter().map(|&c| c.min(chain_len)).collect();

    if !cfg.trace {
        check_serve(
            report,
            &state,
            Some(&win),
            &counts,
            &counts,
            &mut Spans::new(false),
        )?;
        let lat_ms: Vec<f64> = win.latency_us.iter().flatten().map(|us| us / 1e3).collect();
        let weighted: f64 = win
            .latency_us
            .iter()
            .map(|m| m.len() as f64 * median(m) / 1e3)
            .sum::<f64>()
            / lat_ms.len().max(1) as f64;
        drop(state);
        values.insert("setup_s".into(), setup_seconds(setup_secs, setup)?);
        values.insert("op_ms".into(), weighted);
        values.insert("op_tail_ms".into(), op_tail_ms(&lat_ms));
        values.insert("ops_per_s".into(), win.attempted as f64 / win.wall_s);
        values.insert("heap_mib".into(), win.held_heap as f64 / MIB);
        values.insert("ok_share".into(), ok_share(report));
        return Ok(());
    }

    serve_layers(cfg, report, values, &state, Some((&win, &counts)))?;

    // Open layers on this workload's profile, from its gzip'd pprof.
    let gz = pprof::write(&state.profile, WriteOptions::default());
    let mut spans = Spans::new(true);
    let runs = open_loop(&gz, None, true, &mut spans, report, |n, secs| {
        n >= 6 && secs >= 1.0
    });
    open_layers(
        values,
        &spans,
        &runs,
        state.profile.node_count(),
        &gz,
        scale,
    )?;
    common_layers(values, &state.profile, 20)?;
    write_spans(cfg, &spans, "open");
    Ok(())
}

/// The serve correctness check: per-session digests after `counts[s]`
/// ops must agree between the 1-client replay, the sequential phase
/// replay and, when given, the timed 2-client window. The check replays
/// run `replay_counts[s] >= counts[s]` ops; they are returned.
fn check_serve(
    report: &mut Report,
    state: &ServeState,
    win: Option<&Replay>,
    counts: &[usize],
    replay_counts: &[usize],
    spans: &mut Spans,
) -> Result<(Replay, Replay), String> {
    let (one, seq) = serve::check_replay(state, replay_counts, spans)?;
    for (s, &k) in counts.iter().enumerate() {
        let two = win.map(|w| serve::digest_at(w, s, k));
        let a = serve::digest_at(&one, s, k);
        let b = serve::digest_at(&seq, s, k);
        report.check(a.is_some() && a == b && two.is_none_or(|t| t == a), || {
            format!("session {s} digests after {k} ops: 2 clients {two:?}, 1 client {a:?}, sequential {b:?}")
        });
    }
    report.check(one.failed == 0 && seq.failed == 0, || {
        format!(
            "check replays saw {} + {} unexpected outcomes",
            one.failed, seq.failed
        )
    });
    Ok((one, seq))
}

/// Request phases timed on the sequential path, by span name.
const TIMED_PHASES: [&str; 5] = [
    "client_encode",
    "frame_decode",
    "handle",
    "response_encode",
    "client_decode",
];

/// The traced serve layers: check replays long enough to give every
/// method a few samples, and the per-method phase breakdown. `window`
/// is the timed window with its per-session checked op counts, if the
/// workload had one; its digests are then checked too.
fn serve_layers(
    cfg: &Config,
    report: &mut Report,
    values: &mut BTreeMap<String, f64>,
    state: &ServeState,
    window: Option<(&Replay, &[usize])>,
) -> Result<(), String> {
    let floor = window.map_or(0, |(_, counts)| counts.iter().copied().max().unwrap_or(0));
    let n = serve::ops_covering(
        &state.mixes,
        PHASE_METHODS,
        cfg.scale.trace_min_per_method,
        floor,
    );
    let replay_counts = vec![n; state.mixes.len()];
    let counts = window.map_or(&replay_counts[..], |(_, counts)| counts);
    let mut spans = Spans::new(true);
    let (one, seq) = check_serve(
        report,
        state,
        window.map(|(w, _)| w),
        counts,
        &replay_counts,
        &mut spans,
    )?;
    let stats = state.server.view_cache_stats();
    values.insert(
        "analysis.cache_hit_ratio".into(),
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
    );
    values.insert("analysis.cache_coalesced".into(), stats.coalesced as f64);
    let own = spans.self_ms();
    for (m, method) in METHODS[..PHASE_METHODS].iter().enumerate() {
        let client = mean(&one.latency_us[m]);
        let mut timed = 0.0;
        for phase in TIMED_PHASES {
            let us = own.get(&(phase, *method)).map_or(0.0, |v| mean(v) * 1e3);
            timed += us;
            values.insert(format!("ide.{phase}_us.{method}"), us);
        }
        values.insert(format!("ide.client_us.{method}"), client);
        values.insert(
            format!("ide.meta_wall_us.{method}"),
            mean(&seq.meta_wall_us[m]),
        );
        values.insert(format!("ide.unaccounted_us.{method}"), client - timed);
    }
    write_spans(cfg, &spans, "serve");
    Ok(())
}

/// What a run of repeated opens measured.
struct OpenRuns {
    /// Milliseconds per open without spans.
    untraced_ms: Vec<f64>,
    /// Milliseconds per open with spans (traced runs only).
    traced_ms: Vec<f64>,
    /// Heap retained by the decoded profile per node, per open.
    heap_per_node: Vec<f64>,
    /// Size of the encoded flame response.
    response_bytes: usize,
    /// Wall seconds of the whole loop.
    wall_s: f64,
}

/// Opens `gz` until `done(opens, seconds)`, checking each flame response
/// against `expect_flame`. With `alternate`, every second open records
/// its spans into `spans`; the others run untraced.
fn open_loop(
    gz: &[u8],
    expect_flame: Option<u32>,
    alternate: bool,
    spans: &mut Spans,
    report: &mut Report,
    done: impl Fn(usize, f64) -> bool,
) -> OpenRuns {
    let mut off = Spans::new(false);
    let mut runs = OpenRuns {
        untraced_ms: Vec::new(),
        traced_ms: Vec::new(),
        heap_per_node: Vec::new(),
        response_bytes: 0,
        wall_s: 0.0,
    };
    let start = Instant::now();
    let mut n = 0usize;
    loop {
        let traced = alternate && n % 2 == 1;
        n += 1;
        report.attempted += 1;
        let t = Instant::now();
        let opened = open::open(gz, if traced { &mut *spans } else { &mut off });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match opened {
            Ok(o) if expect_flame.is_none_or(|d| d == ev_flate::crc32(o.body.as_bytes())) => {
                if traced {
                    runs.traced_ms.push(ms);
                } else {
                    runs.untraced_ms.push(ms);
                }
                runs.heap_per_node
                    .push(o.profile_heap as f64 / o.profile.node_count() as f64);
                runs.response_bytes = o.body.len();
            }
            Ok(_) => {
                report.failed += 1;
                report.check(false, || {
                    "an open's flame response differs from the first open's".to_owned()
                });
            }
            Err(e) => {
                report.failed += 1;
                report.check(false, || format!("open failed: {e}"));
            }
        }
        if done(n, start.elapsed().as_secs_f64()) {
            break;
        }
    }
    runs.wall_s = start.elapsed().as_secs_f64();
    runs
}

/// Open-layer metrics from traced opens (`spans`), their untraced
/// twins, and a wire walk of the decompressed body.
fn open_layers(
    values: &mut BTreeMap<String, f64>,
    spans: &Spans,
    runs: &OpenRuns,
    nodes: usize,
    gz: &[u8],
    scale: &Scale,
) -> Result<(), String> {
    // Means, so the stages add up to the traced open exactly (the
    // remainder is the open span's own time).
    let own = spans.self_ms();
    let stage = |name: &'static str| own.get(&(name, "")).map_or(0.0, |v| mean(v));
    let stages = [
        ("flate.inflate_ms", "flate.inflate"),
        ("formats.pprof_decode_ms", "formats.pprof_decode"),
        ("analysis.metric_view_ms", "analysis.metric_view"),
        ("flame.layout_ms", "flame.layout"),
        ("json.value_build_ms", "json.value_build"),
        ("json.encode_ms", "json.encode"),
    ];
    let mut stage_sum = 0.0;
    for (metric, span) in stages {
        stage_sum += stage(span);
        values.insert(metric.into(), stage(span));
    }
    let traced_open = mean(&spans.total_ms("open"));
    values.insert("trace.open_ms".into(), traced_open);
    values.insert("trace.open_unaccounted_ms".into(), traced_open - stage_sum);
    // Each traced open follows an untraced one; the overhead is the
    // median difference within those adjacent pairs.
    let pair_diffs: Vec<f64> = runs
        .traced_ms
        .iter()
        .zip(&runs.untraced_ms)
        .map(|(t, u)| t - u)
        .collect();
    values.insert("trace.overhead_ms".into(), median(&pair_diffs));
    values.insert(
        "core.heap_bytes_per_node".into(),
        median(&runs.heap_per_node),
    );
    values.insert("core.nodes".into(), nodes as f64);

    let raw = ev_flate::gzip_decompress(gz).map_err(|e| format!("inflate: {e}"))?;
    let mut walk_ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        std::hint::black_box(open::wire_walk(&raw)?);
        walk_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    values.insert("wire.walk_ms".into(), median(&walk_ms));
    values.insert("json.response_bytes".into(), runs.response_bytes as f64);

    let (memcpy, bytescan) = probe::ceilings(scale.ceiling_bytes);
    values.insert("host.memcpy_gib_s".into(), memcpy);
    values.insert("host.bytescan_gib_s".into(), bytescan);
    let gib = raw.len() as f64 / (1u64 << 30) as f64;
    values.insert(
        "flate.inflate_vs_memcpy".into(),
        gib / (stage("flate.inflate") / 1e3) / memcpy,
    );
    values.insert(
        "formats.decode_vs_bytescan".into(),
        gib / (stage("formats.pprof_decode") / 1e3) / bytescan,
    );
    Ok(())
}

/// Layers every traced run probes directly on its profile: cold view
/// layouts, the view fingerprint, and EVscript.
fn common_layers(
    values: &mut BTreeMap<String, f64>,
    profile: &Profile,
    script_runs: usize,
) -> Result<(), String> {
    let metric = profile
        .metric_by_name("cpu")
        .ok_or("profile has no cpu metric")?;
    let (bottom_up, flat) = probe::layouts(profile, metric);
    values.insert("flame.layout_bottom_up_ms".into(), bottom_up);
    values.insert("flame.layout_flat_ms".into(), flat);
    values.insert(
        "analysis.fingerprint_us".into(),
        probe::fingerprint_us(profile, metric, 5),
    );
    let (run_us, vm_ops) = probe::scripts(profile, script_runs.max(2))?;
    values.insert("script.run_us".into(), run_us);
    values.insert("script.vm_ops".into(), vm_ops);
    Ok(())
}

fn write_spans(cfg: &Config, spans: &Spans, part: &str) {
    if let Some(dir) = &cfg.trace_dir {
        let path = dir.join(format!("{}-seed{}-{part}.jsonl", cfg.workload, cfg.seed));
        if let Err(e) = spans.write_jsonl(&path) {
            eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            );
        }
    }
}
