//! Command implementations. All return their output as a `String` so
//! they are testable without capturing stdout.

use crate::args::{Cli, Command, Options, TraceFormat};
use crate::{CliError, USAGE};
use ev_analysis::{aggregate_with, classify_timeline, view_key, ExecPolicy, MetricView, ViewCache};
use ev_core::{MetricId, Profile};
use ev_flame::{render, DiffFlameGraph, FlameGraph, FlameView, Histogram, TreeTable};
use ev_script::ScriptHost;
use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// The process-wide memoized flame-graph cache: repeated identical view
/// requests (same profile content, metric, shape, threshold) skip the
/// layout entirely.
fn view_cache() -> &'static ViewCache<FlameGraph> {
    static CACHE: OnceLock<ViewCache<FlameGraph>> = OnceLock::new();
    CACHE.get_or_init(ViewCache::default)
}

fn policy(options: &Options) -> ExecPolicy {
    if options.threads == 0 {
        ExecPolicy::auto()
    } else {
        ExecPolicy::with_threads(options.threads)
    }
}

fn cache_stats_line(out: &mut String) {
    let stats = view_cache().stats();
    let _ = writeln!(
        out,
        "view-cache: {} hit(s), {} miss(es), {}/{} resident",
        stats.hits, stats.misses, stats.len, stats.capacity
    );
}

/// Executes a parsed command, returning the text to print.
///
/// # Errors
///
/// Returns a user-facing message on I/O, format, or analysis errors.
pub fn run(command: Command) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(USAGE.to_owned()),
        Command::Info { input } => info(&input),
        Command::View { input, options } => view(&input, &options),
        Command::Table { input, options } => table(&input, &options),
        Command::Diff {
            before,
            after,
            options,
        } => diff_cmd(&before, &after, &options),
        Command::Aggregate { inputs, options } => aggregate_cmd(&inputs, &options),
        Command::Search { input, query } => search(&input, &query),
        Command::Script {
            input,
            script,
            options,
        } => script_cmd(&input, &script, &options),
        Command::Convert { input, output } => convert(&input, &output),
        Command::Stats { input, options } => stats_cmd(input.as_deref(), &options),
    }
}

/// Executes a parsed command line, honoring the self-profiling options:
/// with `--trace-out`, span recording is enabled for the duration of
/// the command and the recording is written to the requested path in
/// the requested format.
///
/// # Errors
///
/// Returns a user-facing message on I/O, format, or analysis errors.
pub fn run_cli(cli: Cli) -> Result<String, CliError> {
    let Some(trace_path) = cli.trace.out.clone() else {
        return run(cli.command);
    };
    ev_trace::set_enabled(true);
    let _ = ev_trace::take_spans(); // drop spans recorded before this command
    let result = run(cli.command);
    let spans = ev_trace::take_spans();
    ev_trace::set_enabled(false);
    let mut out = result?;
    let bytes: Vec<u8> = match cli.trace.format {
        TraceFormat::EasyView => {
            ev_core::format::to_bytes(&ev_formats::trace::self_profile(&spans))
        }
        TraceFormat::Chrome => ev_formats::trace::chrome_trace_json(&spans).into_bytes(),
    };
    std::fs::write(&trace_path, &bytes)
        .map_err(|e| CliError(format!("cannot write {trace_path}: {e}")))?;
    let _ = writeln!(out, "wrote trace {trace_path} ({} spans)", spans.len());
    Ok(out)
}

fn stats_cmd(input: Option<&str>, options: &Options) -> Result<String, CliError> {
    let mut profile_summary: Option<(String, usize, usize)> = None;
    if let Some(path) = input {
        // Exercise the full pipeline once so the counters below reflect
        // this profile (load → convert → layout), then report. Tracing
        // is enabled for the duration so even the gated pipeline
        // counters (flate, wire) fill in; the spans themselves are
        // discarded — `stats` reports metrics, `--trace-out` records.
        let was_enabled = ev_trace::enabled();
        ev_trace::set_enabled(true);
        let result = (|| -> Result<(String, usize, usize), CliError> {
            let exec = policy(options);
            let mut profile = load(path, exec)?;
            if let Some(script_path) = &options.script {
                // `--script`: run the analysis script inside the traced
                // window so the script-engine counters (`script.vm_ops`
                // etc.) land in the dump below.
                let source = std::fs::read_to_string(script_path)
                    .map_err(|e| CliError(format!("cannot read {script_path}: {e}")))?;
                ScriptHost::new(&mut profile)
                    .with_policy(exec)
                    .run(&source)
                    .map_err(|e| CliError(e.to_string()))?;
            }
            let metric = pick_metric(&profile, options)?;
            let threshold_tag = format!("threshold:{}", options.threshold);
            let key =
                view_key(&profile, metric, &[shape_tag(options.shape), &threshold_tag]);
            let graph = view_cache().get_or_insert_with(key, || {
                let pruned = maybe_pruned(&profile, metric, options);
                FlameGraph::layout(&pruned, metric, options.shape, usize::MAX)
            });
            Ok((
                profile.meta().name.clone(),
                profile.node_count(),
                graph.rects().len(),
            ))
        })();
        if !was_enabled {
            ev_trace::set_enabled(false);
            let _ = ev_trace::take_spans();
        }
        profile_summary = Some(result?);
    }
    if options.json {
        return Ok(stats_json(profile_summary.as_ref()));
    }
    let mut out = String::new();
    if let Some((name, contexts, rects)) = &profile_summary {
        let _ = writeln!(
            out,
            "profile : {name} ({contexts} contexts, {rects} frames laid out)",
        );
    }
    cache_stats_line(&mut out);
    let dump = ev_trace::metrics_dump();
    if !dump.is_empty() {
        out.push_str(&dump);
    }
    Ok(out)
}

/// `stats --json`: one machine-readable document — view-cache counters
/// plus the whole metrics registry, histograms reported as interpolated
/// p50/p90/p95/p99 (the same estimator the serve benchmark uses).
fn stats_json(profile_summary: Option<&(String, usize, usize)>) -> String {
    use ev_json::Value;
    let cache = view_cache().stats();
    let snapshot = ev_trace::snapshot_metrics();
    let counters: Vec<(&str, Value)> = snapshot
        .counters
        .iter()
        .map(|&(name, value)| (name, Value::Int(value as i64)))
        .collect();
    let histograms: Vec<(&str, Value)> = snapshot
        .histograms
        .iter()
        .map(|h| {
            let [p50, p90, p95, p99] = h.percentiles();
            (
                h.name,
                Value::object([
                    ("count", Value::Int(h.count as i64)),
                    ("sum", Value::Int(h.sum as i64)),
                    ("p50", Value::Float(p50)),
                    ("p90", Value::Float(p90)),
                    ("p95", Value::Float(p95)),
                    ("p99", Value::Float(p99)),
                ]),
            )
        })
        .collect();
    let mut pairs = vec![
        ("schema", Value::from("easyview-stats/v1")),
        (
            "viewCache",
            Value::object([
                ("hits", Value::Int(cache.hits as i64)),
                ("misses", Value::Int(cache.misses as i64)),
                ("len", Value::Int(cache.len as i64)),
                ("capacity", Value::Int(cache.capacity as i64)),
            ]),
        ),
        ("counters", Value::object(counters)),
        ("histograms", Value::object(histograms)),
    ];
    if let Some((name, contexts, rects)) = profile_summary {
        pairs.push((
            "profile",
            Value::object([
                ("name", Value::from(name.as_str())),
                ("contexts", Value::Int(*contexts as i64)),
                ("rects", Value::Int(*rects as i64)),
            ]),
        ));
    }
    let mut out = ev_json::to_string_pretty(&Value::object(pairs));
    out.push('\n');
    out
}

/// Reads and converts a profile; the input picks the decoder
/// ([`ev_formats::parse_auto_with`]). The policy reaches ingest only on
/// the streaming route for large gzip'd pprof, with output
/// bit-identical at any thread count.
fn load(path: &str, exec: ExecPolicy) -> Result<Profile, CliError> {
    let bytes =
        std::fs::read(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
    ev_formats::parse_auto_with(&bytes, exec).map_err(|e| CliError(format!("{path}: {e}")))
}

fn pick_metric(profile: &Profile, options: &Options) -> Result<MetricId, CliError> {
    match &options.metric {
        Some(name) => profile.metric_by_name(name).ok_or_else(|| {
            let known: Vec<&str> = profile.metrics().iter().map(|m| m.name.as_str()).collect();
            CliError(format!(
                "no metric {name:?}; profile has: {}",
                known.join(", ")
            ))
        }),
        None => {
            if profile.metrics().is_empty() {
                Err(CliError("profile has no metrics".to_owned()))
            } else {
                Ok(MetricId::from_index(0))
            }
        }
    }
}

fn maybe_pruned<'p>(profile: &'p Profile, metric: MetricId, options: &Options) -> Cow<'p, Profile> {
    if options.threshold > 0.0 {
        Cow::Owned(ev_analysis::prune(profile, metric, options.threshold))
    } else {
        Cow::Borrowed(profile)
    }
}

fn info(input: &str) -> Result<String, CliError> {
    let profile = load(input, ExecPolicy::auto())?;
    let mut out = String::new();
    let meta = profile.meta();
    let _ = writeln!(out, "profile : {}", meta.name);
    if !meta.profiler.is_empty() {
        let _ = writeln!(out, "profiler: {}", meta.profiler);
    }
    let _ = writeln!(out, "contexts: {}", profile.node_count());
    if !profile.links().is_empty() {
        let _ = writeln!(out, "links   : {}", profile.links().len());
    }
    let _ = writeln!(out, "metrics :");
    for (i, m) in profile.metrics().iter().enumerate() {
        let total = profile.total(MetricId::from_index(i));
        let _ = writeln!(out, "  {:<20} total {}", m.name, m.unit.format(total));
    }
    if let Some(first) = profile.metrics().first() {
        let metric = profile.metric_by_name(&first.name).expect("exists");
        let view = MetricView::compute(&profile, metric);
        let _ = writeln!(out, "hottest contexts by self {}:", first.name);
        for (id, v) in view.hottest(5) {
            let _ = writeln!(
                out,
                "  {:<44} {}",
                profile.resolve_frame(id).to_string(),
                first.unit.format(v)
            );
        }
    }
    Ok(out)
}

fn shape_tag(shape: FlameView) -> &'static str {
    match shape {
        FlameView::TopDown => "top_down",
        FlameView::BottomUp => "bottom_up",
        FlameView::Flat => "flat",
    }
}

fn view(input: &str, options: &Options) -> Result<String, CliError> {
    let profile = load(input, policy(options))?;
    let metric = pick_metric(&profile, options)?;
    // The transform chain descriptor covers everything between the
    // loaded profile and the rendered geometry. The policy is NOT part
    // of the key: outputs are bit-identical across thread counts.
    let threshold_tag = format!("threshold:{}", options.threshold);
    let key = view_key(&profile, metric, &[shape_tag(options.shape), &threshold_tag]);
    let graph = view_cache().get_or_insert_with(key, || {
        let pruned = maybe_pruned(&profile, metric, options);
        FlameGraph::layout(&pruned, metric, options.shape, usize::MAX)
    });
    let mut out = render::ansi(&graph, options.width, options.color);
    if graph.elided() > 0 {
        let _ = writeln!(out, "({} sub-pixel frames elided)", graph.elided());
    }
    if let Some(path) = &options.svg {
        let svg = render::svg(&graph, &render::SvgOptions::default());
        std::fs::write(path, &svg)
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "wrote {path}");
    }
    Ok(out)
}

fn table(input: &str, options: &Options) -> Result<String, CliError> {
    let profile = load(input, policy(options))?;
    let metric = pick_metric(&profile, options)?;
    let base = maybe_pruned(&profile, metric, options);
    let shaped = match options.shape {
        FlameView::TopDown => base,
        FlameView::BottomUp => Cow::Owned(ev_analysis::bottom_up(&base, metric).profile),
        FlameView::Flat => Cow::Owned(ev_analysis::flatten(&base, metric).profile),
    };
    let metric = pick_metric(&shaped, options)?;
    let mut t = TreeTable::new(&shaped, &[metric]);
    t.expand_to_depth(options.depth);
    Ok(t.render())
}

fn diff_cmd(before: &str, after: &str, options: &Options) -> Result<String, CliError> {
    let p1 = load(before, policy(options))?;
    let p2 = load(after, policy(options))?;
    let metric = pick_metric(&p1, options)?;
    let metric_name = p1.metric(metric).name.clone();
    let dfg = DiffFlameGraph::new(&p1, &p2, &metric_name).map_err(|i| {
        CliError(format!(
            "{} lacks metric {metric_name:?}",
            if i == 0 { before } else { after }
        ))
    })?;
    let mut out = render::ansi(dfg.graph(), options.width, options.color);
    let _ = writeln!(out);
    for (tag, count) in dfg.diff().tag_counts() {
        let _ = writeln!(out, "{tag}  {count} context(s)");
    }
    let d = dfg.diff();
    let unit = p1.metric(metric).unit;
    let _ = writeln!(
        out,
        "total: {} -> {} ({:+.1}%)",
        unit.format(d.profile.total(d.before)),
        unit.format(d.profile.total(d.after)),
        (d.profile.total(d.after) / d.profile.total(d.before).max(f64::MIN_POSITIVE) - 1.0)
            * 100.0
    );
    if let Some(path) = &options.svg {
        let svg = render::svg(dfg.graph(), &render::SvgOptions::default());
        std::fs::write(path, &svg)
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "wrote {path}");
    }
    Ok(out)
}

fn aggregate_cmd(inputs: &[String], options: &Options) -> Result<String, CliError> {
    let profiles: Vec<Profile> = inputs
        .iter()
        .map(|p| load(p, policy(options)))
        .collect::<Result<_, _>>()?;
    let metric_name = match &options.metric {
        Some(name) => name.clone(),
        None => profiles[0]
            .metrics()
            .first()
            .map(|m| m.name.clone())
            .ok_or_else(|| CliError("first profile has no metrics".to_owned()))?,
    };
    let refs: Vec<&Profile> = profiles.iter().collect();
    let agg = aggregate_with(&refs, &metric_name, policy(options))
        .map_err(|i| CliError(format!("{} lacks metric {metric_name:?}", inputs[i])))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "aggregated {} profiles over {metric_name:?} ({} contexts)",
        inputs.len(),
        agg.profile.node_count()
    );
    let _ = writeln!(out, "\nper-context timelines (leaves):");
    for node in agg.profile.node_ids() {
        if !agg.profile.node(node).children().is_empty() {
            continue;
        }
        let frame = agg.profile.resolve_frame(node);
        if frame.name.is_empty() {
            continue;
        }
        let series = agg.series(node);
        let hist = Histogram::new(series);
        let _ = writeln!(
            out,
            "  {:<44} {} {}",
            frame.name,
            hist.sparkline(),
            classify_timeline(series)
        );
    }
    let graph = FlameGraph::top_down(&agg.profile, agg.metrics.sum);
    let _ = writeln!(out, "\nsum view:");
    out.push_str(&render::ansi(&graph, options.width, options.color));
    Ok(out)
}

fn search(input: &str, query: &str) -> Result<String, CliError> {
    let profile = load(input, ExecPolicy::auto())?;
    let matches: Vec<_> = ev_analysis::search(&profile, query).collect();
    let mut out = String::new();
    for &id in &matches {
        let path: Vec<String> = profile
            .path(id)
            .iter()
            .map(|&n| profile.resolve_frame(n).name)
            .collect();
        let _ = writeln!(out, "{}", path.join(";"));
    }
    let _ = writeln!(out, "{} match(es)", matches.len());
    Ok(out)
}

fn script_cmd(input: &str, script_path: &str, options: &Options) -> Result<String, CliError> {
    let mut profile = load(input, policy(options))?;
    let source = std::fs::read_to_string(script_path)
        .map_err(|e| CliError(format!("cannot read {script_path}: {e}")))?;
    // `--threads` governs the parallel fan-out of pure per-node callbacks.
    let output = ScriptHost::new(&mut profile)
        .with_policy(policy(options))
        .run(&source)
        .map_err(|e| CliError(e.to_string()))?;
    Ok(output.stdout)
}

fn convert(input: &str, output: &str) -> Result<String, CliError> {
    let profile = load(input, ExecPolicy::auto())?;
    let bytes: Vec<u8> = if output.ends_with(".evpf") {
        ev_core::format::to_bytes(&profile)
    } else if output.ends_with(".pprof") || output.ends_with(".pb.gz") {
        ev_formats::pprof::write(&profile, ev_formats::pprof::WriteOptions::default())
    } else if output.ends_with(".folded") || output.ends_with(".collapsed") {
        ev_formats::collapsed::write(&profile).into_bytes()
    } else if output.ends_with(".speedscope.json") || output.ends_with(".json") {
        ev_formats::speedscope::write(&profile).into_bytes()
    } else {
        return Err(CliError(format!(
            "cannot infer output format from {output:?} (.evpf | .pprof | .folded | .speedscope.json)"
        )));
    };
    std::fs::write(output, &bytes)
        .map_err(|e| CliError(format!("cannot write {output}: {e}")))?;
    Ok(format!("wrote {output} ({} bytes)\n", bytes.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_cli;
    use ev_core::{Frame, MetricDescriptor, MetricKind, MetricUnit};

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ev-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_profile(name: &str, samples: &[(&[&str], f64)]) -> String {
        let mut p = Profile::new(name);
        let m = p.add_metric(MetricDescriptor::new(
            "cpu",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ));
        for &(path, v) in samples {
            let frames: Vec<Frame> = path
                .iter()
                .map(|&n| Frame::function(n).with_source(format!("{n}.c"), 1))
                .collect();
            p.add_sample(&frames, &[(m, v)]);
        }
        let path = tmpdir().join(format!("{name}.evpf"));
        std::fs::write(&path, ev_core::format::to_bytes(&p)).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn run_line(line: &[&str]) -> Result<String, CliError> {
        let argv: Vec<String> = line.iter().map(|s| s.to_string()).collect();
        run(parse_cli(&argv)?.command)
    }

    #[test]
    fn info_lists_metrics_and_hotspots() {
        let path = write_profile("info", &[(&["main", "hot"], 90.0), (&["main"], 10.0)]);
        let out = run_line(&["info", &path]).unwrap();
        assert!(out.contains("contexts: 3"), "{out}");
        assert!(out.contains("cpu"), "{out}");
        assert!(out.contains("hot"), "{out}");
    }

    #[test]
    fn view_renders_all_shapes() {
        let path = write_profile("view", &[(&["main", "a"], 70.0), (&["main", "b"], 30.0)]);
        for shape in ["topdown", "bottomup", "flat"] {
            let out = run_line(&["view", &path, "--shape", shape, "--width", "60"]).unwrap();
            assert!(out.lines().count() >= 2, "{shape}: {out}");
        }
    }

    #[test]
    fn repeated_view_requests_hit_the_cache() {
        let path = write_profile(
            "cache-hit",
            &[(&["main", "work"], 80.0), (&["main", "idle"], 20.0)],
        );
        // The cache is process-wide and other tests use it concurrently,
        // so assert monotone deltas of its counters, not exact values.
        let before = view_cache().stats();
        let first = run_line(&["view", &path]).unwrap();
        let second = run_line(&["view", &path]).unwrap();
        // Identical requests render identically and the second one is
        // served from the cache.
        assert_eq!(first, second);
        let after = view_cache().stats();
        assert!(after.hits > before.hits, "{after:?}");
        // A different shape is a different key: it must miss.
        run_line(&["view", &path, "--shape", "bottomup"]).unwrap();
        let other = view_cache().stats();
        assert!(other.misses > after.misses, "{other:?}");
    }

    #[test]
    fn threads_flag_does_not_change_output() {
        let path = write_profile(
            "threads-eq",
            &[(&["main", "a", "b"], 60.0), (&["main", "c"], 40.0)],
        );
        let seq = run_line(&["view", &path, "--threads", "1"]).unwrap();
        for threads in ["2", "4", "8"] {
            let par = run_line(&["view", &path, "--threads", threads]).unwrap();
            assert_eq!(seq, par, "--threads {threads}");
        }
    }

    /// Writes a gzip'd pprof fixture, so ingest runs inflate → wire walk.
    fn write_pprof_gz(name: &str) -> String {
        let mut p = Profile::new(name);
        let m = p.add_metric(MetricDescriptor::new(
            "cpu",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ));
        p.add_sample(
            &[Frame::function("main"), Frame::function("hot")],
            &[(m, 90.0)],
        );
        p.add_sample(&[Frame::function("main")], &[(m, 10.0)]);
        let bytes = ev_formats::pprof::write(&p, ev_formats::pprof::WriteOptions::default());
        let path = tmpdir().join(format!("{name}.pprof"));
        std::fs::write(&path, bytes).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn stats_json_emits_machine_readable_metrics() {
        let path = write_pprof_gz("stats-json");
        let out = run_line(&["stats", &path, "--json"]).unwrap();
        let doc = ev_json::parse(&out).unwrap();
        assert_eq!(
            doc.get("schema").and_then(ev_json::Value::as_str),
            Some("easyview-stats/v1")
        );
        let cache = doc.get("viewCache").unwrap();
        assert!(cache.get("capacity").and_then(ev_json::Value::as_i64).unwrap() > 0);
        // The pipeline ran under tracing, so its counters must be
        // present with positive values.
        let counters = doc.get("counters").unwrap();
        assert!(
            counters
                .get("flate.in_bytes")
                .and_then(ev_json::Value::as_i64)
                .unwrap_or(0)
                > 0,
            "{out}"
        );
        let profile = doc.get("profile").unwrap();
        // The pprof importer names profiles after the format.
        assert_eq!(
            profile.get("name").and_then(ev_json::Value::as_str),
            Some("pprof")
        );
        assert!(profile.get("rects").and_then(ev_json::Value::as_i64).unwrap() > 0);
        // Histogram entries carry the interpolated percentile ladder.
        if let Some(ev_json::Value::Object(hists)) = doc.get("histograms") {
            for (name, h) in hists {
                let p50 = h.get("p50").and_then(ev_json::Value::as_f64).unwrap();
                let p99 = h.get("p99").and_then(ev_json::Value::as_f64).unwrap();
                assert!(p50 <= p99, "{name}: p50 {p50} > p99 {p99}");
            }
        }
        // Without --json the same command still prints the text dump.
        let text = run_line(&["stats", &path]).unwrap();
        assert!(text.contains("view-cache:"), "{text}");
    }

    #[test]
    fn view_writes_svg() {
        let path = write_profile("svg", &[(&["main"], 1.0)]);
        let svg_path = tmpdir().join("out.svg");
        let out = run_line(&["view", &path, "--svg", svg_path.to_str().unwrap()]).unwrap();
        assert!(out.contains("wrote"), "{out}");
        let svg = std::fs::read_to_string(svg_path).unwrap();
        assert!(svg.starts_with("<svg"));
    }

    #[test]
    fn table_respects_depth() {
        let path = write_profile("table", &[(&["a", "b", "c", "d"], 1.0)]);
        let shallow = run_line(&["table", &path, "--depth", "1"]).unwrap();
        let deep = run_line(&["table", &path, "--depth", "8"]).unwrap();
        assert!(deep.lines().count() > shallow.lines().count());
        assert!(deep.contains("cpu(I)"));
    }

    #[test]
    fn diff_tags_and_totals() {
        let p1 = write_profile("diff1", &[(&["main", "gone"], 50.0), (&["main", "same"], 10.0)]);
        let p2 = write_profile("diff2", &[(&["main", "new"], 20.0), (&["main", "same"], 10.0)]);
        let out = run_line(&["diff", &p1, &p2]).unwrap();
        assert!(out.contains("[A]  1 context(s)"), "{out}");
        assert!(out.contains("[D]  1 context(s)"), "{out}");
        assert!(out.contains("total: 60 -> 30"), "{out}");
    }

    #[test]
    fn aggregate_classifies_timelines() {
        let mut paths = Vec::new();
        for k in 0..6 {
            paths.push(write_profile(
                &format!("agg{k}"),
                &[(&["main", "leaky"], f64::from(k + 1) * 10.0)],
            ));
        }
        let refs: Vec<&str> = paths.iter().map(String::as_str).collect();
        let mut argv = vec!["aggregate"];
        argv.extend(refs);
        let out = run_line(&argv).unwrap();
        assert!(out.contains("leaky"), "{out}");
        assert!(out.contains("potential-leak"), "{out}");
    }

    #[test]
    fn search_prints_full_paths() {
        let path = write_profile("search", &[(&["main", "alpha", "beta"], 1.0)]);
        let out = run_line(&["search", &path, "BETA"]).unwrap();
        assert!(out.contains("main;alpha;beta"), "{out}");
        assert!(out.contains("1 match(es)"), "{out}");
    }

    #[test]
    fn script_runs_from_file() {
        let path = write_profile("script", &[(&["main"], 5.0)]);
        let script = tmpdir().join("s.evs");
        std::fs::write(&script, "print(\"total\", total(\"cpu\"));").unwrap();
        let out = run_line(&["script", &path, script.to_str().unwrap()]).unwrap();
        assert_eq!(out, "total 5\n");
    }

    #[test]
    fn deeply_nested_scripts_are_clean_errors() {
        let path = write_profile("script-deep", &[(&["main"], 5.0)]);
        let deep = 100_000;
        let sources = [
            format!("print({}1{});", "(".repeat(deep), ")".repeat(deep)),
            format!("print({}1);", "-".repeat(deep)),
        ];
        for (i, source) in sources.iter().enumerate() {
            let script = tmpdir().join(format!("deep{i}.evs"));
            std::fs::write(&script, source).unwrap();
            let err = run_line(&["script", &path, script.to_str().unwrap()]).unwrap_err();
            assert!(err.0.contains("nesting"), "{err}");
        }
    }

    #[test]
    fn convert_roundtrips_through_every_extension() {
        let path = write_profile("conv", &[(&["main", "f"], 7.0)]);
        for ext in ["evpf", "pprof", "folded", "speedscope.json"] {
            let out_path = tmpdir().join(format!("conv-out.{ext}"));
            let out = run_line(&["convert", &path, out_path.to_str().unwrap()]).unwrap();
            assert!(out.contains("wrote"), "{out}");
            // Converted output parses back and conserves the total.
            let bytes = std::fs::read(&out_path).unwrap();
            let p = ev_formats::parse_auto(&bytes).unwrap();
            let m = ev_core::MetricId::from_index(0);
            assert_eq!(p.total(m), 7.0, "{ext}");
        }
        assert!(run_line(&["convert", &path, "out.unknown"]).is_err());
    }

    #[test]
    fn missing_file_and_bad_metric_are_clean_errors() {
        assert!(run_line(&["info", "/nonexistent/file"]).is_err());
        let path = write_profile("err", &[(&["main"], 1.0)]);
        let err = run_line(&["view", &path, "--metric", "nope"]).unwrap_err();
        assert!(err.0.contains("profile has: cpu"), "{err}");
    }

    #[test]
    fn help_text() {
        let out = run_line(&["help"]).unwrap();
        assert!(out.contains("USAGE"));
    }
}
