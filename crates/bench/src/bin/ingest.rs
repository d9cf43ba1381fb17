//! The ingest benchmark: measures the fast decode path introduced for
//! the `flate.inflate → wire.decode → convert.pprof` pipeline and
//! writes `BENCH_ingest.json` (through `ev_bench::timer`'s report
//! writer) so the perf trajectory is machine-readable across PRs.
//! Every fast/reference and streaming/buffered ratio is the median
//! per-pair ratio of interleaved pairs (`ev_bench::timer::compare`).
//!
//! Also the correctness gate for the fast paths: every golden fixture is
//! decoded by both the fast LUT decoder and the retained reference
//! decoder, the outputs must be byte-identical, and the decompressed
//! bytes must match pinned CRC32 digests. The same pattern guards the
//! pprof layer: the one-pass arena-backed decoder and the retained
//! two-pass `parse_reference` must produce equal `Profile`s before
//! either is timed.
//!
//! Usage: `ingest [--quick]` — `--quick` (used by `scripts/ci.sh`)
//! runs fewer pairs, skips the large synthetic and long-capture
//! workloads, relaxes the speedup gates to 2× to tolerate noisy CI
//! hosts, and writes its report under `target/`.
//!
//! Speedup gates run on the *largest* workload only: the sub-kilobyte
//! fixtures finish one decode in microseconds, where the fast/reference
//! ratio swings tens of percent with allocator and cache state alone.
//! They are still timed and reported — just not gated on.

use ev_bench::pipeline::easyview_open;
use ev_bench::timer::{compare, group, median, repo_root, time_secs, write_report, Comparison};
use ev_flate::{
    crc32, crc32_reference, gzip_decompress, inflate, inflate_reference, ExecPolicy,
    DEFAULT_CHUNK_SIZE,
};
use ev_formats::pprof;
use ev_gen::synthetic::{pprof_longrun, pprof_with_size};
use ev_json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counting global allocator with a high-water mark, for the
/// peak-memory probe: the streaming ingest path exists to bound peak
/// memory, so the bench measures it, not just throughput. Counts are
/// process-wide (streaming starts pipeline threads whose allocations
/// must count). The two relaxed atomics per alloc cost the same on the fast
/// and reference sides of every speedup gate, so the ratios are
/// unaffected.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn note_live(live: usize) {
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_live(LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                let grow = new_size - layout.size();
                note_live(LIVE.fetch_add(grow, Ordering::Relaxed) + grow);
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Runs `f` and returns its result plus the peak heap growth above the
/// live baseline at entry, in bytes.
fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let r = f();
    let peak = PEAK.load(Ordering::Relaxed);
    (r, peak.saturating_sub(baseline))
}

/// The one-pass decode's three phases as EasyView's own spans time
/// them: `wire.decode` (the walk over the body into entity tables),
/// `formats.pprof_samples` (sample payload decode and location
/// resolution) and `core.cct_build` (the batch inserts into the CCT
/// columns), in seconds per parse, each the minimum over `samples`
/// traced parses. Tracing bumps the wire counters per field, so all
/// read somewhat above their share of an untraced parse.
fn decode_phases(raw: &[u8], samples: usize) -> (f64, f64, f64) {
    let was_enabled = ev_trace::enabled();
    ev_trace::set_enabled(true);
    let (mut walk, mut resolve, mut build) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..samples.max(1) {
        let capture = ev_trace::start_capture();
        black_box(pprof::parse(raw).expect("traced pprof parse"));
        let spans = capture.finish();
        let secs = |name: &str| {
            let ns: u64 = spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns())
                .sum();
            ns as f64 / 1e9
        };
        walk = walk.min(secs("wire.decode"));
        resolve = resolve.min(secs("formats.pprof_samples"));
        build = build.min(secs("core.cct_build"));
    }
    ev_trace::set_enabled(was_enabled);
    (walk, resolve, build)
}

/// DESIGN §4c's budget for span recording compiled in but switched off,
/// as a share of one open.
const TRACE_OFF_BUDGET: f64 = 0.02;

/// Nanoseconds one span costs: the minimum over `rounds` runs of
/// 100,000 spans nested under one open outer span, the way an open's
/// stage spans nest. With tracing off that is the flag load and the
/// inert guard; with it on, the clock reads, the thread buffer and its
/// flushes into the collector each time the buffer fills.
fn span_cost_ns(enabled: bool, rounds: usize) -> f64 {
    const SPANS: usize = 100_000;
    let was_enabled = ev_trace::enabled();
    ev_trace::set_enabled(enabled);
    let mut best = f64::INFINITY;
    for _ in 0..rounds.max(1) {
        let secs = time_secs(|| {
            let _outer = ev_trace::span("bench.span_cost_outer");
            for _ in 0..SPANS {
                let _span = black_box(ev_trace::span("bench.span_cost"));
            }
        });
        best = best.min(secs * 1e9 / SPANS as f64);
        drop(ev_trace::take_spans());
    }
    ev_trace::set_enabled(was_enabled);
    best
}

/// Pinned CRC32 digests of the decompressed golden fixtures; a digest
/// change means the fixture bytes changed, which must be deliberate.
const FIXTURE_DIGESTS: [(&str, u32); 2] = [
    ("synthetic_cpu.pb.gz", 0x3bfc_9e67),
    ("grpc_leak.pb.gz", 0x4889_efab),
];

struct Workload {
    name: String,
    /// Raw DEFLATE body (gzip header/trailer stripped).
    body: Vec<u8>,
    /// Expected decompressed bytes.
    raw: Vec<u8>,
    /// The full gzip member, for the end-to-end convert measurement.
    gz: Vec<u8>,
}

/// Strips the gzip framing our own writer emits (fixed 10-byte header,
/// no optional fields, 8-byte trailer), so inflate can be measured on
/// the raw DEFLATE stream without container overhead.
fn strip_gzip(gz: &[u8]) -> &[u8] {
    assert!(gz.len() > 18 && gz[3] == 0, "fixture has optional gzip fields");
    &gz[10..gz.len() - 8]
}

fn load_workloads(quick: bool) -> Vec<Workload> {
    let fixtures = repo_root().join("tests/fixtures");
    let mut workloads = Vec::new();
    for (name, digest) in FIXTURE_DIGESTS {
        let gz = std::fs::read(fixtures.join(name))
            .unwrap_or_else(|e| panic!("read fixture {name}: {e}"));
        let raw = gzip_decompress(&gz).expect("fixture decompresses");
        assert_eq!(
            crc32(&raw),
            digest,
            "fixture {name} digest drifted from the pinned value"
        );
        workloads.push(Workload {
            name: name.to_string(),
            body: strip_gzip(&gz).to_vec(),
            raw,
            gz,
        });
    }
    if !quick {
        // A paper-scale profile (§VII-B sweeps MB-range inputs); the
        // fixtures alone are too small to saturate the decoder.
        let gz = pprof_with_size(8 << 20, 0x1173);
        let raw = gzip_decompress(&gz).expect("synthetic decompresses");
        workloads.push(Workload {
            name: format!("synthetic_{}mib", gz.len() >> 20),
            body: strip_gzip(&gz).to_vec(),
            raw,
            gz,
        });
    }
    workloads
}

/// [`compare`] with `iters` calls of each side per timed run, its side
/// medians in seconds per call: small inputs decode in microseconds,
/// where one call per run would leave the ratio to timer noise. Both
/// sides make the same number of calls, so the speedup is unaffected.
fn compare_calls<A, B>(
    pairs: usize,
    iters: usize,
    mut baseline: impl FnMut() -> A,
    mut candidate: impl FnMut() -> B,
) -> Comparison {
    let timed = compare(
        pairs,
        || (0..iters).for_each(|_| drop(black_box(baseline()))),
        || (0..iters).for_each(|_| drop(black_box(candidate()))),
    );
    Comparison {
        baseline_secs: timed.baseline_secs / iters as f64,
        candidate_secs: timed.candidate_secs / iters as f64,
        ..timed
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Interleaved pairs behind each A/B row (the long capture's
    // throughput row has its own count).
    let pairs = if quick { 5 } else { 20 };
    let min_speedup = if quick { 2.0 } else { 3.0 };
    // The inflate gate has its own floor: the byte-at-a-time reference
    // is branchy enough that its throughput moves ~20% with host load
    // and frequency state, which a 3× floor does not absorb (observed
    // 2.9–3.7× on the same binary across machine states, as a ratio of
    // minima timed one side after the other).
    let min_inflate_speedup = if quick { 2.0 } else { 2.5 };

    group("ingest: fast vs reference inflate");
    let workloads = load_workloads(quick);
    let mut entries: Vec<Value> = Vec::new();
    let mut worst_speedup = f64::INFINITY;

    let mut wire_gate_speedup = f64::NAN;
    let mut inflate_gate_speedup = f64::NAN;
    let mut wire_gate_name = String::new();
    let mut wire_gate_bytes = 0usize;

    // All inflate timing runs before any pprof-layer work: parsing
    // builds (and frees) million-node profiles, and that allocator
    // warmth measurably flatters the allocation-heavy reference
    // inflate — enough to move its speedup gate by tens of percent on
    // the small fixtures.
    let mut inflate_runs = Vec::new();
    for w in &workloads {
        // Correctness gate first: fast and reference byte-identical.
        let fast_out = inflate(&w.body).expect("fast inflate");
        let ref_out = inflate_reference(&w.body).expect("reference inflate");
        assert_eq!(fast_out, ref_out, "{}: decoder outputs differ", w.name);
        assert_eq!(fast_out, w.raw, "{}: decode differs from gzip path", w.name);

        // Amortize small inputs: decode enough times per timed run
        // that one run spans ~1 ms.
        let iters = (256 << 10) / w.raw.len().max(1) + 1;
        let inflated = compare_calls(
            pairs,
            iters,
            || inflate_reference(black_box(&w.body)).unwrap(),
            || inflate(black_box(&w.body)).unwrap(),
        );
        inflate_runs.push((iters, inflated));
    }

    group("ingest: one-pass vs reference pprof decode");
    for (w, (iters, inflated)) in workloads.iter().zip(inflate_runs) {
        // Same correctness gate one layer up: the one-pass pprof
        // decoder must agree with the retained two-pass reference on
        // every workload.
        let live_before = LIVE.load(Ordering::Relaxed);
        let one = pprof::parse(&w.raw).expect("one-pass pprof parse");
        // Heap the decoded profile keeps, per CCT node.
        let heap_per_node = LIVE.load(Ordering::Relaxed).saturating_sub(live_before) as f64
            / one.node_count() as f64;
        let two = pprof::parse_reference(&w.raw).expect("reference pprof parse");
        assert_eq!(one, two, "{}: pprof decoders disagree", w.name);
        drop((one, two));
        let (walk_secs, resolve_secs, build_secs) = decode_phases(&w.raw, pairs);

        // And the streaming decoder one layer further up: the
        // bounded-memory inflate→walk pipeline must produce the same
        // profile as the buffered end-to-end path, while its peak heap
        // growth is the number the pipeline exists to shrink.
        let stream_policy = ExecPolicy::auto();
        let (buffered_gz, peak_buffered) =
            peak_during(|| pprof::parse(&w.gz).expect("buffered gz parse"));
        let (streamed, peak_streaming) = peak_during(|| {
            pprof::parse_streaming_with(&w.gz, stream_policy, DEFAULT_CHUNK_SIZE)
                .expect("streaming pprof parse")
        });
        assert_eq!(
            streamed, buffered_gz,
            "{}: streaming profile differs from buffered",
            w.name
        );
        drop((buffered_gz, streamed));

        let decoded = compare_calls(
            pairs,
            iters,
            || pprof::parse_reference(black_box(&w.raw)).unwrap(),
            || pprof::parse(black_box(&w.raw)).unwrap(),
        );
        let streaming = compare_calls(
            pairs,
            iters,
            || pprof::parse(black_box(&w.gz)).unwrap(),
            || {
                pprof::parse_streaming_with(black_box(&w.gz), stream_policy, DEFAULT_CHUNK_SIZE)
                    .unwrap()
            },
        );

        worst_speedup = worst_speedup.min(inflated.speedup);
        // Gates run on the largest workload only (see module docs):
        // tiny fixtures are dominated by per-parse fixed costs (profile
        // setup, metric registration) paid equally by both decoders, so
        // their ratio says little about the decode loop itself.
        if w.raw.len() > wire_gate_bytes {
            wire_gate_bytes = w.raw.len();
            wire_gate_speedup = decoded.speedup;
            inflate_gate_speedup = inflated.speedup;
            wire_gate_name = w.name.clone();
        }
        println!(
            "{:<44} inflate {:>9.3} ms (ref {:>9.3})  speedup {:.2}x  \
             wire {:>9.3} ms (ref {:>9.3})  speedup {:.2}x",
            w.name,
            inflated.candidate_secs * 1e3,
            inflated.baseline_secs * 1e3,
            inflated.speedup,
            decoded.candidate_secs * 1e3,
            decoded.baseline_secs * 1e3,
            decoded.speedup,
        );
        println!(
            "{:<44} e2e buffered {:>9.3} ms  streaming {:>9.3} ms ({:.2}x)  \
             peak {:.1} MiB -> {:.1} MiB ({:.1}x)",
            "",
            streaming.baseline_secs * 1e3,
            streaming.candidate_secs * 1e3,
            streaming.speedup,
            peak_buffered as f64 / (1 << 20) as f64,
            peak_streaming as f64 / (1 << 20) as f64,
            peak_buffered as f64 / peak_streaming.max(1) as f64,
        );
        println!(
            "{:<44} traced wire_walk {:.3} ms  resolve {:.3} ms  cct_build {:.3} ms  \
             retained {heap_per_node:.1} B/node",
            "",
            walk_secs * 1e3,
            resolve_secs * 1e3,
            build_secs * 1e3,
        );

        entries.push(Value::object([
            ("name", Value::String(w.name.clone())),
            ("compressed_bytes", Value::Int(w.body.len() as i64)),
            ("raw_bytes", Value::Int(w.raw.len() as i64)),
            ("iters_per_run", Value::Int(iters as i64)),
            ("inflate_secs", Value::Float(inflated.candidate_secs)),
            (
                "inflate_reference_secs",
                Value::Float(inflated.baseline_secs),
            ),
            ("inflate_speedup", Value::Float(inflated.speedup)),
            (
                "wire_decode_onepass_secs",
                Value::Float(decoded.candidate_secs),
            ),
            (
                "wire_decode_reference_secs",
                Value::Float(decoded.baseline_secs),
            ),
            ("wire_decode_speedup", Value::Float(decoded.speedup)),
            ("wire_walk_secs", Value::Float(walk_secs)),
            ("resolve_secs", Value::Float(resolve_secs)),
            ("cct_build_secs", Value::Float(build_secs)),
            ("heap_bytes_per_node", Value::Float(heap_per_node)),
            ("end_to_end_secs", Value::Float(streaming.baseline_secs)),
            (
                "end_to_end_streaming_secs",
                Value::Float(streaming.candidate_secs),
            ),
            ("throughput_vs_buffered", Value::Float(streaming.speedup)),
            ("peak_bytes_buffered", Value::Int(peak_buffered as i64)),
            ("peak_bytes_streaming", Value::Int(peak_streaming as i64)),
        ]));
    }

    // CRC32 kernel: slice-by-8 vs the retained byte-at-a-time
    // reference, differentially checked on the largest workload before
    // timing. The checksum runs over every decompressed byte of every
    // member, so a slow kernel caps the whole ingest path.
    group("ingest: crc32 slice-by-8 vs reference");
    let largest = workloads
        .iter()
        .max_by_key(|w| w.raw.len())
        .expect("at least one workload");
    assert_eq!(
        crc32(&largest.raw),
        crc32_reference(&largest.raw),
        "crc32 kernels disagree on {}",
        largest.name
    );
    let crc_iters = (8 << 20) / largest.raw.len().max(1) + 1;
    let crc = compare_calls(
        pairs,
        crc_iters,
        || crc32_reference(black_box(&largest.raw)),
        || crc32(black_box(&largest.raw)),
    );
    println!(
        "{:<44} crc32 {:>9.3} ms (ref {:>9.3})  speedup {:.2}x",
        largest.name,
        crc.candidate_secs * 1e3,
        crc.baseline_secs * 1e3,
        crc.speedup,
    );

    // Tracing overhead: the spans one traced open of the largest
    // workload records (the Fig. 5 open: decode, metric view, top-down
    // layout), times the cost of one span with tracing off and on, as
    // a share of the untraced open. Per-field counters that only tick
    // while tracing is on are not spans and are not counted here.
    group("ingest: tracing overhead per open");
    ev_trace::set_enabled(true);
    let spans_before = ev_trace::span_count();
    black_box(easyview_open(&largest.gz).expect("traced open"));
    let spans_per_open = ev_trace::span_count() - spans_before;
    ev_trace::set_enabled(false);
    drop(ev_trace::take_spans());
    let open_secs = median(
        (0..pairs.min(5))
            .map(|_| time_secs(|| _ = black_box(easyview_open(black_box(&largest.gz)).unwrap())))
            .collect(),
    );
    let span_ns_off = span_cost_ns(false, pairs);
    let span_ns_on = span_cost_ns(true, pairs);
    let open_share = |span_ns: f64| spans_per_open as f64 * span_ns / 1e9 / open_secs;
    let (trace_off_share, trace_on_share) = (open_share(span_ns_off), open_share(span_ns_on));
    println!(
        "{:<44} {spans_per_open} spans per {:.1} ms open: off {span_ns_off:.2} ns/span \
         ({:.5} %), on {span_ns_on:.1} ns/span ({:.5} %)",
        largest.name,
        open_secs * 1e3,
        trace_off_share * 100.0,
        trace_on_share * 100.0,
    );

    // Streaming bounded-memory gate, on the workload shape the
    // streaming path exists for: a long capture — a million
    // individually-written samples over a small chain pool, string
    // table last, the way Go's runtime emits long runs. There the
    // sample stream dominates the file while the decoded profile stays
    // small, so buffered ingest peaks at the whole decompressed body
    // and streaming ingest at one chunk window. The fixture-scale
    // workloads above still report their streaming numbers, but their
    // decoded Profile dominates peak on both paths, so gating them on
    // a 4x reduction would be meaningless.
    group("ingest: streaming bounded-memory gate (long-capture)");
    let mut peak_gate_ratio = f64::NAN;
    let mut stream_tp_ratio = f64::NAN;
    // With >= 2 cores the pipeline's producer thread hides the second
    // inflate behind the decode and streaming must stay within 10% of
    // buffered. On a 1-core host auto() runs the producer inline, so
    // streaming structurally pays the pass-1 counting walk plus one
    // extra inflate — ~0.83x on an idle host, observed down to 0.76x
    // under load swings, nothing a pipeline can hide without a second
    // core. Both floors catch the regression class this gate exists
    // for: the StreamReader double-parse bug alone cost 25% on any
    // host (0.83 -> ~0.62 here).
    let tp_floor = if ExecPolicy::auto().threads >= 2 { 0.9 } else { 0.7 };
    // One parse here runs for about a second, so the row takes fewer
    // pairs than the others.
    const LONGRUN_PAIRS: usize = 15;
    let mut streaming_gate = Value::object([("skipped", Value::Bool(true))]);
    if !quick {
        let longrun_samples = 1_000_000usize;
        let gz = pprof_longrun(longrun_samples, 0x10c4);
        let raw_len = gzip_decompress(&gz).expect("longrun decompresses").len();
        let stream_policy = ExecPolicy::auto();
        let (buffered, peak_buffered) =
            peak_during(|| pprof::parse(&gz).expect("buffered longrun parse"));
        let (streamed, peak_streaming) = peak_during(|| {
            pprof::parse_streaming_with(&gz, stream_policy, DEFAULT_CHUNK_SIZE)
                .expect("streaming longrun parse")
        });
        assert_eq!(streamed, buffered, "longrun: streaming differs from buffered");
        drop((buffered, streamed));
        let longrun = compare(
            LONGRUN_PAIRS,
            || pprof::parse(black_box(&gz)).unwrap(),
            || {
                pprof::parse_streaming_with(black_box(&gz), stream_policy, DEFAULT_CHUNK_SIZE)
                    .unwrap()
            },
        );
        peak_gate_ratio = peak_buffered as f64 / peak_streaming.max(1) as f64;
        stream_tp_ratio = longrun.speedup;
        println!(
            "{:<44} e2e buffered {:>9.1} ms  streaming {:>9.1} ms ({:.2}x)  \
             peak {:.1} MiB -> {:.1} MiB ({:.1}x)",
            "pprof_longrun_1m",
            longrun.baseline_secs * 1e3,
            longrun.candidate_secs * 1e3,
            stream_tp_ratio,
            peak_buffered as f64 / (1 << 20) as f64,
            peak_streaming as f64 / (1 << 20) as f64,
            peak_gate_ratio,
        );
        streaming_gate = Value::object([
            ("workload", Value::String("pprof_longrun_1m".to_string())),
            ("samples", Value::Int(longrun_samples as i64)),
            ("compressed_bytes", Value::Int(gz.len() as i64)),
            ("raw_bytes", Value::Int(raw_len as i64)),
            ("chunk_size", Value::Int(DEFAULT_CHUNK_SIZE as i64)),
            ("peak_bytes_buffered", Value::Int(peak_buffered as i64)),
            ("peak_bytes_streaming", Value::Int(peak_streaming as i64)),
            ("peak_reduction", Value::Float(peak_gate_ratio)),
            ("timed_pairs", Value::Int(LONGRUN_PAIRS as i64)),
            ("end_to_end_secs", Value::Float(longrun.baseline_secs)),
            (
                "end_to_end_streaming_secs",
                Value::Float(longrun.candidate_secs),
            ),
            ("throughput_vs_buffered", Value::Float(stream_tp_ratio)),
            ("throughput_floor", Value::Float(tp_floor)),
        ]);
    }

    write_report(
        "ingest",
        2,
        quick,
        pairs,
        vec![
            ("worst_inflate_speedup", Value::Float(worst_speedup)),
            (
                "wire_decode_gate",
                Value::object([
                    ("workload", Value::String(wire_gate_name.clone())),
                    ("wire_decode_speedup", Value::Float(wire_gate_speedup)),
                ]),
            ),
            (
                "inflate_gate",
                Value::object([
                    ("workload", Value::String(wire_gate_name.clone())),
                    ("inflate_speedup", Value::Float(inflate_gate_speedup)),
                ]),
            ),
            ("workloads", Value::Array(entries)),
            (
                "crc32",
                Value::object([
                    ("workload", Value::String(largest.name.clone())),
                    ("bytes_per_iter", Value::Int(largest.raw.len() as i64)),
                    ("crc32_secs", Value::Float(crc.candidate_secs)),
                    ("crc32_reference_secs", Value::Float(crc.baseline_secs)),
                    ("crc32_speedup", Value::Float(crc.speedup)),
                ]),
            ),
            ("streaming_gate", streaming_gate),
            (
                "tracing_overhead",
                Value::object([
                    ("workload", Value::String(largest.name.clone())),
                    ("spans_per_open", Value::Int(spans_per_open as i64)),
                    ("open_secs", Value::Float(open_secs)),
                    ("span_ns_disabled", Value::Float(span_ns_off)),
                    ("span_ns_enabled", Value::Float(span_ns_on)),
                    ("disabled_share_of_open", Value::Float(trace_off_share)),
                    ("enabled_share_of_open", Value::Float(trace_on_share)),
                    ("disabled_share_budget", Value::Float(TRACE_OFF_BUDGET)),
                ]),
            ),
        ],
    );

    assert!(
        inflate_gate_speedup >= min_inflate_speedup,
        "fast inflate is only {inflate_gate_speedup:.2}x the reference on \
         {wire_gate_name} (need >= {min_inflate_speedup}x)"
    );
    assert!(
        crc.speedup >= min_speedup,
        "slice-by-8 crc32 is only {:.2}x the reference (need >= {min_speedup}x)",
        crc.speedup
    );
    assert!(
        wire_gate_speedup >= min_speedup,
        "one-pass pprof decode is only {wire_gate_speedup:.2}x the reference on \
         {wire_gate_name} (need >= {min_speedup}x)"
    );
    assert!(
        trace_off_share < TRACE_OFF_BUDGET,
        "spans cost {:.3} % of an open with tracing off (budget {} %)",
        trace_off_share * 100.0,
        TRACE_OFF_BUDGET * 100.0
    );
    if !quick {
        // Streaming gates run on the long-capture workload only (quick
        // mode skips it): that is the shape whose peak the streaming
        // path exists to bound.
        assert!(
            peak_gate_ratio >= 4.0,
            "streaming ingest peak is only {peak_gate_ratio:.2}x below buffered on \
             the long-capture workload (need >= 4x)"
        );
        assert!(
            stream_tp_ratio >= tp_floor,
            "streaming ingest runs at {stream_tp_ratio:.2}x buffered throughput on \
             the long-capture workload (need >= {tp_floor}x)"
        );
    }
    println!(
        "OK: inflate speedup {inflate_gate_speedup:.2}x (gate {min_inflate_speedup}x), \
         crc32 speedup {:.2}x, one-pass pprof speedup {wire_gate_speedup:.2}x \
         (gate {min_speedup}x), both on {wire_gate_name}",
        crc.speedup
    );
}
