//! Opening a profile the way an editor does: gzip'd pprof bytes →
//! inflate → pprof decode → metric view → top-down flame layout → the
//! encoded `profile/flameGraph` response at the server's default
//! 100,000-rect limit. Each stage is one call into a crate's public API,
//! so a traced open attributes its time layer by layer.

use ev_analysis::MetricView;
use ev_core::Profile;
use ev_flame::FlameGraph;
use ev_flate::ExecPolicy;
use ev_formats::pprof;
use ev_json::Value;

use crate::alloc;
use crate::spans::Spans;

/// Rect limit of an opened flame graph: the server's default.
pub const OPEN_FLAME_LIMIT: usize = 100_000;

/// Everything an open produced. Callers drop it outside their timers:
/// an editor keeps an opened profile, it does not free it per open.
pub struct Opened {
    /// The decoded profile.
    pub profile: Profile,
    /// Its metric view (the summary's totals).
    pub view: MetricView,
    /// The laid-out top-down flame graph.
    pub graph: FlameGraph,
    /// The response value before encoding.
    pub value: Value,
    /// The encoded `profile/flameGraph` result.
    pub body: String,
    /// Heap retained by the decoded profile, bytes.
    pub profile_heap: usize,
}

/// The `profile/flameGraph` result for `graph`, built exactly as
/// `EvpServer` builds it.
pub fn flame_value(graph: &FlameGraph, limit: usize) -> Value {
    let rects: Value = graph
        .rects()
        .iter()
        .take(limit)
        .map(|r| {
            Value::object([
                ("node", Value::Int(r.node.index() as i64)),
                ("depth", Value::Int(r.depth as i64)),
                ("x", Value::Float(r.x)),
                ("width", Value::Float(r.width)),
                ("label", Value::from(r.label.clone())),
                ("value", Value::Float(r.value)),
                ("self", Value::Float(r.self_value)),
                ("color", Value::from(r.color.to_hex())),
                ("mapped", Value::Bool(r.mapped)),
            ])
        })
        .collect();
    Value::object([
        ("total", Value::Float(graph.total())),
        ("maxDepth", Value::Int(graph.max_depth() as i64)),
        ("elided", Value::Int(graph.elided() as i64)),
        ("rects", rects),
    ])
}

/// Opens gzip'd pprof bytes, one span per layer call.
pub fn open(gz: &[u8], spans: &mut Spans) -> Result<Opened, String> {
    let root = spans.enter("open", "");
    let opened = open_stages(gz, spans);
    spans.exit(root);
    opened
}

fn open_stages(gz: &[u8], spans: &mut Spans) -> Result<Opened, String> {
    let raw = spans
        .time("flate.inflate", "", || {
            ev_flate::gzip_decompress_with(gz, ExecPolicy::SEQUENTIAL)
        })
        .map_err(|e| format!("inflate: {e}"))?;
    let before = alloc::live();
    let profile = spans
        .time("formats.pprof_decode", "", || pprof::parse(&raw))
        .map_err(|e| format!("decode: {e}"))?;
    let profile_heap = alloc::live().saturating_sub(before);
    drop(raw);
    let metric = profile
        .metric_by_name("cpu")
        .ok_or("decoded profile has no cpu metric")?;
    let view = spans.time("analysis.metric_view", "", || {
        MetricView::compute(&profile, metric)
    });
    let graph = spans.time("flame.layout", "", || {
        FlameGraph::top_down(&profile, metric)
    });
    let value = spans.time("json.value_build", "", || {
        flame_value(&graph, OPEN_FLAME_LIMIT)
    });
    let body = spans.time("json.encode", "", || ev_json::to_string(&value));
    Ok(Opened {
        profile,
        view,
        graph,
        value,
        body,
        profile_heap,
    })
}

/// Digests that identify an open's output: the decoded profile's EVPF
/// bytes and the encoded flame response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenDigests {
    /// CRC-32 of `ev_core::format::to_bytes(profile)`.
    pub evpf: u32,
    /// CRC-32 of the encoded flame response.
    pub flame: u32,
}

impl OpenDigests {
    /// Digests of an open's profile and response.
    pub fn of(profile: &Profile, body: &str) -> OpenDigests {
        OpenDigests {
            evpf: ev_flate::crc32(&ev_core::format::to_bytes(profile)),
            flame: ev_flate::crc32(body.as_bytes()),
        }
    }

    /// The same digests from the retained two-pass `parse_reference`
    /// decoder: the oracle the one-pass open path must agree with.
    pub fn oracle(gz: &[u8]) -> Result<OpenDigests, String> {
        let profile = pprof::parse_reference(gz).map_err(|e| format!("reference decode: {e}"))?;
        let metric = profile
            .metric_by_name("cpu")
            .ok_or("reference profile has no cpu metric")?;
        let graph = FlameGraph::top_down(&profile, metric);
        let body = ev_json::to_string(&flame_value(&graph, OPEN_FLAME_LIMIT));
        Ok(OpenDigests::of(&profile, &body))
    }
}

/// A top-level `ev-wire` field walk over a raw pprof body: the floor
/// under any decode of it. Returns the number of fields.
pub fn wire_walk(raw: &[u8]) -> Result<usize, String> {
    let mut reader = ev_wire::Reader::new(raw);
    let mut fields = 0usize;
    while reader
        .next_field()
        .map_err(|e| format!("wire walk: {e}"))?
        .is_some()
    {
        fields += 1;
    }
    Ok(fields)
}
