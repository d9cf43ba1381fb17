//! The EVP server: the profile-side endpoint an editor talks to.
//!
//! The server is concurrent: every handler takes `&self`, so one
//! instance (shared via [`SharedEvpServer`]) can answer many editor
//! sessions at once. Loaded profiles sit in one reader-writer locked
//! map, expensive views are memoized in a shared [`ViewCache`] with
//! request coalescing, and per-session in-flight budgets convert
//! overload into a clean `BUSY` error instead of unbounded queueing.
//! One sorted table, `METHODS`, names every method the server
//! answers.

use crate::rpc::{
    codes, decode_frame, encode_frame, encode_result_frame, Request, Response, ResponseMeta,
};
use ev_analysis::{
    aggregate, classify_timeline, diff, fingerprint_view_key, profile_fingerprint, search,
    CacheStats, MetricView, ViewCache,
};
use ev_core::{MetricId, NodeId, Profile};
use ev_flame::{FlameGraph, FlameView};
use ev_json::Value;
use ev_script::ScriptHost;
use ev_trace::{CaptureReason, FlightRecorder, SpanRecord};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard};

/// Tunables for an [`EvpServer`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Requests slower than this (microseconds) are logged to stderr
    /// and captured into the flight recorder. The paper's §VII-B
    /// response-time budget is 100 ms; `u64::MAX` disables slow
    /// capture entirely (benchmarks use this so host scheduling noise
    /// never perturbs deterministic capture contents).
    pub slow_request_micros: u64,
    /// Flight-recorder ring capacity (retained captures).
    pub flight_capacity: usize,
    /// Per-capture span cap; see [`ev_trace::FlightRecorder`].
    pub flight_max_spans: usize,
    /// Maximum concurrently in-flight requests per session; the
    /// request that would exceed it is refused with `BUSY` so clients
    /// see backpressure instead of unbounded queueing. Requests that
    /// carry no `sessionId` are not budgeted.
    pub session_max_inflight: u32,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            slow_request_micros: 100_000,
            flight_capacity: ev_trace::DEFAULT_CAPACITY,
            flight_max_spans: ev_trace::DEFAULT_MAX_SPANS,
            session_max_inflight: 64,
        }
    }
}

/// Cached handle for the `ide.requests` counter.
fn request_counter() -> &'static ev_trace::Counter {
    static HANDLE: OnceLock<&'static ev_trace::Counter> = OnceLock::new();
    HANDLE.get_or_init(|| ev_trace::counter("ide.requests"))
}

/// Cached handle for the `ide.errors` counter.
fn error_counter() -> &'static ev_trace::Counter {
    static HANDLE: OnceLock<&'static ev_trace::Counter> = OnceLock::new();
    HANDLE.get_or_init(|| ev_trace::counter("ide.errors"))
}

/// Cached handle for the `ide.phase.frame_decode` histogram: the
/// microseconds [`EvpServer::handle_bytes`] spends turning one frame
/// into a request, outside the `ide.latency.*` dispatch window.
fn frame_decode_histogram() -> &'static ev_trace::Histogram {
    static HANDLE: OnceLock<&'static ev_trace::Histogram> = OnceLock::new();
    HANDLE.get_or_init(|| ev_trace::histogram("ide.phase.frame_decode"))
}

/// Cached handle for the `ide.phase.response_encode` histogram: the
/// microseconds spent framing one response (splicing a cached view's
/// bytes included), outside the `ide.latency.*` dispatch window.
fn response_encode_histogram() -> &'static ev_trace::Histogram {
    static HANDLE: OnceLock<&'static ev_trace::Histogram> = OnceLock::new();
    HANDLE.get_or_init(|| ev_trace::histogram("ide.phase.response_encode"))
}

/// A method handler: the request's params to its result.
type Handler = fn(&EvpServer, &Value) -> Result<Reply, (i64, String)>;

/// Every EVP method, sorted by name, with its handler. The one list of
/// methods: dispatch binary-searches it for the handler, `respond`
/// records into the method's `ide.latency.<method>` histogram, and
/// `initialize` lists the rest of it as capabilities.
const METHODS: &[(&str, Handler)] = &[
    ("debug/flightRecorder", |s, p| {
        s.flight_recorder_rpc(p).map(Reply::Tree)
    }),
    ("initialize", |_, _| Ok(Reply::Tree(initialize_result()))),
    ("profile/aggregate", |s, p| s.aggregate(p).map(Reply::Tree)),
    ("profile/close", |s, p| s.close(p).map(Reply::Tree)),
    ("profile/codeLens", |s, p| s.code_lens(p).map(Reply::Tree)),
    ("profile/codeLink", |s, p| s.code_link(p).map(Reply::Tree)),
    ("profile/correlated", |s, p| {
        s.correlated(p).map(Reply::Tree)
    }),
    ("profile/diff", |s, p| s.diff(p).map(Reply::Tree)),
    ("profile/flameGraph", |s, p| {
        s.flame_graph(p).map(Reply::Encoded)
    }),
    ("profile/histogram", |s, p| s.histogram(p).map(Reply::Tree)),
    ("profile/hover", |s, p| s.hover(p).map(Reply::Tree)),
    ("profile/open", |s, p| s.open(p).map(Reply::Tree)),
    ("profile/script", |s, p| s.script(p).map(Reply::Tree)),
    ("profile/search", |s, p| s.search(p).map(Reply::Tree)),
    ("profile/summary", |s, p| s.summary(p).map(Reply::Encoded)),
    ("profile/treeTable", |s, p| {
        s.tree_table(p).map(Reply::Encoded)
    }),
    ("session/close", |s, p| s.session_close(p).map(Reply::Tree)),
    ("session/open", |s, _| s.session_open().map(Reply::Tree)),
];

/// The `ide.latency.<method>` histogram of [`METHODS`] entry `method`,
/// or `ide.latency.unknown` for a method outside the table (bounding
/// registry growth against arbitrary method strings). Handles are
/// cached, so the per-request cost is one index.
fn latency_histogram(method: Option<usize>) -> &'static ev_trace::Histogram {
    static HANDLES: OnceLock<Vec<&'static ev_trace::Histogram>> = OnceLock::new();
    static UNKNOWN: OnceLock<&'static ev_trace::Histogram> = OnceLock::new();
    let Some(i) = method else {
        return UNKNOWN.get_or_init(|| ev_trace::histogram("ide.latency.unknown"));
    };
    HANDLES.get_or_init(|| {
        METHODS
            .iter()
            .map(|&(name, _)| {
                // The registry keys histograms by `&'static str`: each
                // name is built and leaked once per process.
                let name = format!("ide.latency.{name}").into_boxed_str();
                ev_trace::histogram(Box::leak(name))
            })
            .collect()
    })[i]
}

/// `initialize`: the server's name, version and every other method of
/// [`METHODS`].
fn initialize_result() -> Value {
    Value::object([
        ("name", Value::from("easyview")),
        ("version", Value::from(env!("CARGO_PKG_VERSION"))),
        (
            "capabilities",
            METHODS
                .iter()
                .filter(|&&(name, _)| name != "initialize")
                .map(|&(name, _)| Value::from(name))
                .collect(),
        ),
    ])
}

/// Hex encoding used to carry binary profiles inside JSON params.
/// Nibble lookup table: no per-byte formatting machinery on the
/// `profile/open`/easyview-export round trip.
fn hex_encode(data: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = Vec::with_capacity(data.len() * 2);
    for &b in data {
        out.push(HEX[(b >> 4) as usize]);
        out.push(HEX[(b & 0x0f) as usize]);
    }
    String::from_utf8(out).expect("hex digits are ascii")
}

/// The value of one ASCII hex digit, or `None` for anything else
/// (including bytes of a multi-byte UTF-8 sequence).
fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Decodes hex byte-wise. Byte-wise (not `&s[i..i+2]` slicing) matters:
/// `s` is untrusted request payload, and slicing at even *byte*
/// offsets panics on multi-byte UTF-8 — this must reject such input as
/// an error, never unwind mid-request.
fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err("odd-length hex".to_owned());
    }
    bytes
        .chunks_exact(2)
        .map(|pair| match (hex_val(pair[0]), hex_val(pair[1])) {
            (Some(hi), Some(lo)) => Ok(hi << 4 | lo),
            _ => Err("bad hex digit".to_owned()),
        })
        .collect()
}

/// Serializes a profile for the `profile/open` request.
pub(crate) fn profile_to_param(profile: &Profile) -> Value {
    Value::object([
        ("format", Value::from("evpf-hex")),
        (
            "data",
            Value::from(hex_encode(&ev_core::format::to_bytes(profile))),
        ),
    ])
}

/// A loaded profile with the [`profile_fingerprint`] of its current
/// version. Both sit under one lock, and the writers (`register` and
/// `profile/script`) refresh the fingerprint before releasing it, so a
/// reader always keys views with the fingerprint of exactly the
/// profile it reads — and no request has to sweep the profile again.
#[derive(Debug)]
struct LoadedProfile {
    profile: Profile,
    fingerprint: u64,
}

/// One loaded profile. The profile itself sits behind its own
/// `RwLock` so view requests (readers) proceed concurrently while
/// `profile/script` (the only writer) gets exclusive access; the
/// `Arc` lets a request keep using a profile that `profile/close`
/// concurrently removed from the table.
#[derive(Debug, Clone)]
struct ProfileEntry {
    profile: Arc<RwLock<LoadedProfile>>,
    /// Per-node value series for profiles created by
    /// `profile/aggregate` (the data behind `profile/histogram`).
    series: Option<Arc<Vec<Vec<f64>>>>,
}

/// Per-session server state: currently just the in-flight budget.
#[derive(Debug, Default)]
struct SessionState {
    inflight: AtomicU32,
}

/// A handler's successful result.
enum Reply {
    /// A JSON tree, encoded when the response is framed.
    Tree(Value),
    /// The encoded JSON of a memoized view, spliced into the response
    /// frame as is.
    Encoded(Arc<Box<str>>),
}

/// A handled request: everything its response frame carries.
struct Answer {
    id: i64,
    outcome: Result<Reply, (i64, String)>,
    meta: ResponseMeta,
}

impl Answer {
    /// The response as a value tree; an encoded view is decoded.
    fn into_response(self) -> Response {
        let outcome = self.outcome.map(|reply| match reply {
            Reply::Tree(value) => value,
            Reply::Encoded(json) => ev_json::parse(&json).expect("a memoized view is valid JSON"),
        });
        Response {
            id: Some(self.id),
            outcome,
            meta: Some(self.meta),
        }
    }

    /// The framed response. A result is encoded (or, for a memoized
    /// view, already was) straight into the frame, never copied as a
    /// tree.
    fn into_frame(self) -> Vec<u8> {
        let meta = Some(self.meta);
        match self.outcome {
            Ok(Reply::Tree(value)) => {
                encode_result_frame(self.id, meta, &ev_json::to_string(&value))
            }
            Ok(Reply::Encoded(json)) => encode_result_frame(self.id, meta, &json),
            Err((code, message)) => {
                let response = Response::error(self.id, code, message).with_meta(self.meta);
                encode_frame(&response.to_value())
            }
        }
    }
}

/// The compact JSON of a view result, as the view cache holds it.
fn encode_view(result: &Value) -> Box<str> {
    ev_json::to_string(result).into_boxed_str()
}

/// `limit` of a `profile/flameGraph` request when it names none.
pub const DEFAULT_FLAME_LIMIT: usize = 100_000;

/// The most matches a `profile/search` answer lists; `truncated`
/// counts the rest. It keeps every match of a query on a profile of ten
/// thousand nodes.
pub(crate) const SEARCH_CAP: usize = 10_000;

/// The `profile/flameGraph` result for `graph`, written straight into
/// text: keys in the sorted order a `Value::Object` gives them, numbers
/// and strings through `ev_json`'s own writers, so the text is
/// byte-identical to `ev_json::to_string` of the row-form `Value` (which
/// `ev_bench::oracle::flame_value` keeps as the oracle). `truncated` is
/// written only for a cut view, so a complete view keeps the bytes it
/// always had.
pub fn encode_flame_graph(graph: &FlameGraph) -> String {
    let _span = ev_trace::span("ide.view_write");
    // About 170 bytes per rect, as written for paper-scale profiles.
    let mut out = String::with_capacity(96 + 176 * graph.rects().len());
    out.push_str("{\"elided\":");
    ev_json::write_int(&mut out, graph.elided() as i64);
    out.push_str(",\"maxDepth\":");
    ev_json::write_int(&mut out, graph.max_depth() as i64);
    out.push_str(",\"rects\":[");
    for (i, r) in graph.rects().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"color\":\"");
        r.color.write_hex(&mut out);
        out.push_str("\",\"depth\":");
        ev_json::write_int(&mut out, r.depth as i64);
        out.push_str(",\"label\":");
        ev_json::write_string(&mut out, &r.label);
        out.push_str(if r.mapped {
            ",\"mapped\":true,\"node\":"
        } else {
            ",\"mapped\":false,\"node\":"
        });
        ev_json::write_int(&mut out, r.node.index() as i64);
        out.push_str(",\"self\":");
        ev_json::write_float(&mut out, r.self_value);
        out.push_str(",\"value\":");
        ev_json::write_float(&mut out, r.value);
        out.push_str(",\"width\":");
        ev_json::write_float(&mut out, r.width);
        out.push_str(",\"x\":");
        ev_json::write_float(&mut out, r.x);
        out.push('}');
    }
    out.push_str("],\"total\":");
    ev_json::write_float(&mut out, graph.total());
    if graph.truncated() > 0 {
        out.push_str(",\"truncated\":");
        ev_json::write_int(&mut out, graph.truncated() as i64);
    }
    out.push('}');
    out
}

/// RAII decrement of a session's in-flight count.
struct SessionGuard {
    session: Arc<SessionState>,
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        self.session.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The EVP server: holds loaded profiles and answers EVP requests.
///
/// Every handler takes `&self` — the profile and session tables are
/// reader-writer locked maps, ids and request sequence numbers are
/// atomics, and the flight recorder sits behind a mutex — so one
/// instance can serve many concurrent sessions (wrap it in
/// [`SharedEvpServer`] to share across threads). A table lock is held
/// only to look an entry up or change the table, never while a handler
/// reads a profile. Expensive views
/// (`profile/flameGraph`, `profile/treeTable`, `profile/summary`) are
/// memoized as encoded JSON in a [`ViewCache`] keyed by the content
/// fingerprint of the profile version; identical concurrent requests
/// coalesce onto one computation.
#[derive(Debug)]
pub struct EvpServer {
    profiles: RwLock<HashMap<i64, ProfileEntry>>,
    next_id: AtomicI64,
    options: ServerOptions,
    /// Black box of slow/failed requests; see `debug/flightRecorder`.
    recorder: Mutex<FlightRecorder>,
    /// Monotone request sequence, carried as `requestSeq` in meta.
    next_seq: AtomicU64,
    /// Memoized view results as encoded JSON, shared (and coalesced)
    /// across sessions.
    views: ViewCache<Box<str>>,
    sessions: RwLock<HashMap<u64, Arc<SessionState>>>,
    next_session: AtomicU64,
}

impl Default for EvpServer {
    fn default() -> EvpServer {
        EvpServer::new()
    }
}

/// Memoized view responses the server retains.
const VIEW_CACHE_CAPACITY: usize = 64;

impl EvpServer {
    /// Creates a server with no profiles loaded and default options.
    pub fn new() -> EvpServer {
        EvpServer::with_options(ServerOptions::default())
    }

    /// Creates a server with explicit options.
    pub fn with_options(options: ServerOptions) -> EvpServer {
        let recorder = FlightRecorder::new(options.flight_capacity, options.flight_max_spans);
        EvpServer {
            profiles: RwLock::new(HashMap::new()),
            next_id: AtomicI64::new(0),
            options,
            recorder: Mutex::new(recorder),
            next_seq: AtomicU64::new(0),
            views: ViewCache::new(VIEW_CACHE_CAPACITY),
            sessions: RwLock::new(HashMap::new()),
            next_session: AtomicU64::new(0),
        }
    }

    /// The active options.
    pub fn options(&self) -> &ServerOptions {
        &self.options
    }

    /// The flight recorder (locked; mutate via RPC). Do not hold the
    /// guard across a `handle` call.
    pub fn flight_recorder(&self) -> MutexGuard<'_, FlightRecorder> {
        self.recorder.lock().unwrap()
    }

    /// Number of loaded profiles.
    pub fn profile_count(&self) -> usize {
        self.profiles.read().unwrap().len()
    }

    /// Number of open sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.read().unwrap().len()
    }

    /// Hit/miss/coalesce statistics of the shared view cache.
    pub fn view_cache_stats(&self) -> CacheStats {
        self.views.stats()
    }

    /// The entry for profile `id`, cloned out of the table (so the
    /// table lock is held only for the lookup).
    fn entry(&self, id: i64) -> Result<ProfileEntry, (i64, String)> {
        self.profiles
            .read()
            .unwrap()
            .get(&id)
            .cloned()
            .ok_or_else(|| not_loaded(id))
    }

    /// Runs `read` over the profiles `ids` names, in request order. The
    /// ids are resolved in request order, so a missing one is reported
    /// as the first the client named. Each distinct profile is then
    /// read-locked once, in ascending id order, so concurrent
    /// multi-profile requests cannot deadlock, and a repeated id is
    /// never read-locked twice on one thread.
    fn read_profiles<T>(
        &self,
        ids: &[i64],
        read: impl FnOnce(&[&Profile]) -> T,
    ) -> Result<T, (i64, String)> {
        let mut distinct = ids.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let entries: Vec<ProfileEntry> = {
            let table = self.profiles.read().unwrap();
            if let Some(&missing) = ids.iter().find(|id| !table.contains_key(id)) {
                return Err(not_loaded(missing));
            }
            distinct.iter().map(|id| table[id].clone()).collect()
        };
        let guards: Vec<RwLockReadGuard<'_, LoadedProfile>> = entries
            .iter()
            .map(|entry| entry.profile.read().unwrap())
            .collect();
        let profiles: Vec<&Profile> = ids
            .iter()
            .map(|id| &guards[distinct.binary_search(id).expect("id was resolved")].profile)
            .collect();
        Ok(read(&profiles))
    }

    /// Registers a new server-side profile, fingerprinting it, and
    /// returns its id.
    fn register(&self, profile: Profile, series: Option<Vec<Vec<f64>>>) -> i64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let loaded = LoadedProfile {
            fingerprint: profile_fingerprint(&profile),
            profile,
        };
        let entry = ProfileEntry {
            profile: Arc::new(RwLock::new(loaded)),
            series: series.map(Arc::new),
        };
        self.profiles.write().unwrap().insert(id, entry);
        id
    }

    /// Processes every complete frame in `input`, returning the framed
    /// responses and the number of input bytes consumed.
    ///
    /// Malformed requests are answered with `INVALID_REQUEST` carrying
    /// the request's own id when one can be extracted (JSON-RPC `null`
    /// otherwise), so clients can correlate the error.
    ///
    /// The phases around dispatch are timed here, since `meta.wallMicros`
    /// covers dispatch only: decoding a frame into a request records
    /// into `ide.phase.frame_decode`, framing the response into
    /// `ide.phase.response_encode` (microseconds). A memoized view's
    /// encoded result is spliced into its frame, never re-encoded.
    ///
    /// # Errors
    ///
    /// Returns a description on transport-level corruption.
    pub fn handle_bytes(&self, input: &[u8]) -> Result<(Vec<u8>, usize), String> {
        let mut consumed = 0usize;
        let mut out = Vec::new();
        loop {
            let decode_start = ev_trace::now_ns();
            let Some((value, used)) = decode_frame(&input[consumed..])? else {
                break;
            };
            consumed += used;
            let request = Request::from_value(&value);
            frame_decode_histogram().record((ev_trace::now_ns() - decode_start) / 1_000);
            let answer = match request {
                Ok(request) => match self.respond(&request) {
                    Some(answer) => Ok(answer),
                    None => continue,
                },
                Err(err) => Err(Response::error_for(
                    value.get("id").and_then(Value::as_i64),
                    codes::INVALID_REQUEST,
                    err,
                )),
            };
            let encode_start = ev_trace::now_ns();
            let frame = match answer {
                Ok(answer) => answer.into_frame(),
                Err(refusal) => encode_frame(&refusal.to_value()),
            };
            if out.is_empty() {
                out = frame;
            } else {
                out.extend_from_slice(&frame);
            }
            response_encode_histogram().record((ev_trace::now_ns() - encode_start) / 1_000);
        }
        Ok((out, consumed))
    }

    /// Resolves the request's optional `sessionId` and reserves one
    /// slot of that session's in-flight budget (released when the
    /// returned guard drops). Requests without a `sessionId` are
    /// anonymous: no session state, no budget.
    fn acquire_session(&self, params: &Value) -> Result<Option<SessionGuard>, (i64, String)> {
        let Some(raw) = params.get("sessionId") else {
            return Ok(None);
        };
        let sid = raw.as_i64().filter(|&s| s >= 0).ok_or((
            codes::INVALID_PARAMS,
            "sessionId must be a non-negative integer".to_owned(),
        ))? as u64;
        let session = self
            .sessions
            .read()
            .unwrap()
            .get(&sid)
            .cloned()
            .ok_or((codes::UNKNOWN_SESSION, format!("session {sid} not open")))?;
        let budget = self.options.session_max_inflight;
        let prev = session.inflight.fetch_add(1, Ordering::AcqRel);
        if prev >= budget {
            session.inflight.fetch_sub(1, Ordering::AcqRel);
            return Err((
                codes::BUSY,
                format!("session {sid} is at its in-flight budget ({budget})"),
            ));
        }
        Ok(Some(SessionGuard { session }))
    }

    /// Handles one request; notifications return `None`. Safe to call
    /// from many threads at once.
    ///
    /// Every response carries [`crate::rpc::ResponseMeta`] — a monotone
    /// `requestSeq`, wall time, and the number of `ev-trace` spans
    /// recorded while handling. Every request bumps `ide.requests`
    /// (errors also bump `ide.errors`) and records its wall time in the
    /// per-method `ide.latency.<method>` histogram. Requests slower than
    /// [`ServerOptions::slow_request_micros`] are logged to stderr (the
    /// paper's §VII-B response-time budget is 100 ms); slow or failed
    /// requests additionally have their span tree and counter deltas
    /// captured into the flight recorder, retrievable via
    /// `debug/flightRecorder`. Both the span count and the counter
    /// deltas come from the thread-local capture window
    /// ([`ev_trace::SpanCapture::finish_with_counters`]), so they are
    /// exactly this request's — concurrent requests on other threads
    /// cannot contaminate them. With tracing disabled the
    /// instrumentation degrades to counter/histogram bumps — no
    /// capture, no allocation beyond the response itself.
    ///
    /// Memoized views are held as encoded JSON, so for
    /// `profile/flameGraph`, `profile/treeTable` and `profile/summary`
    /// this convenience form decodes the cached bytes into the result;
    /// [`EvpServer::handle_bytes`] splices them instead.
    pub fn handle(&self, request: &Request) -> Option<Response> {
        self.respond(request).map(Answer::into_response)
    }

    /// Handles one request up to its unframed answer; the shared core
    /// of [`EvpServer::handle`] and [`EvpServer::handle_bytes`].
    fn respond(&self, request: &Request) -> Option<Answer> {
        let id = request.id?;
        let request_seq = self.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
        request_counter().inc();
        let method = METHODS
            .binary_search_by(|&(name, _)| name.cmp(request.method.as_str()))
            .ok();
        let capture = ev_trace::start_capture();
        let start = ev_trace::now_ns();
        let outcome = {
            let _span = ev_trace::span("ide.request");
            self.acquire_session(&request.params)
                .and_then(|_session| match method {
                    Some(i) => (METHODS[i].1)(self, &request.params),
                    None => Err((
                        codes::METHOD_NOT_FOUND,
                        format!("unknown method {:?}", request.method),
                    )),
                })
        };
        let wall_micros = (ev_trace::now_ns() - start) / 1_000;
        let (captured, counter_deltas) = capture.finish_with_counters();
        let spans = captured.len() as u64;
        latency_histogram(method).record(wall_micros);
        let failed = outcome.is_err();
        if failed {
            error_counter().inc();
        }
        let slow = wall_micros > self.options.slow_request_micros;
        if slow {
            eprintln!(
                "easyview: slow request {} took {:.1} ms",
                request.method,
                wall_micros as f64 / 1_000.0
            );
        }
        if slow || failed {
            let reason = if failed {
                CaptureReason::Error
            } else {
                CaptureReason::Slow
            };
            self.recorder.lock().unwrap().record(
                request.method.as_str(),
                reason,
                wall_micros,
                captured,
                counter_deltas,
            );
        }
        let meta = ResponseMeta {
            request_seq,
            wall_micros,
            spans,
        };
        Some(Answer { id, outcome, meta })
    }

    /// Opens a new session and returns its id. Sessions carry the
    /// per-session in-flight budget; clients attach the id to
    /// subsequent requests as `sessionId`.
    fn session_open(&self) -> Result<Value, (i64, String)> {
        let sid = self.next_session.fetch_add(1, Ordering::Relaxed) + 1;
        self.sessions
            .write()
            .unwrap()
            .insert(sid, Arc::new(SessionState::default()));
        Ok(Value::object([("sessionId", Value::Int(sid as i64))]))
    }

    fn session_close(&self, params: &Value) -> Result<Value, (i64, String)> {
        let sid = params
            .get("sessionId")
            .and_then(Value::as_i64)
            .filter(|&s| s >= 0)
            .ok_or((codes::INVALID_PARAMS, "missing sessionId".to_owned()))?
            as u64;
        match self.sessions.write().unwrap().remove(&sid) {
            Some(_) => Ok(Value::Bool(true)),
            None => Err((codes::UNKNOWN_SESSION, format!("session {sid} not open"))),
        }
    }

    /// Resolves `profileId` to its table entry.
    fn profile_entry(&self, params: &Value) -> Result<(i64, ProfileEntry), (i64, String)> {
        let id = params
            .get("profileId")
            .and_then(Value::as_i64)
            .ok_or((codes::INVALID_PARAMS, "missing profileId".to_owned()))?;
        Ok((id, self.entry(id)?))
    }

    fn metric(profile: &Profile, params: &Value) -> Result<MetricId, (i64, String)> {
        let name = params
            .get("metric")
            .and_then(Value::as_str)
            .ok_or((codes::INVALID_PARAMS, "missing metric".to_owned()))?;
        profile
            .metric_by_name(name)
            .ok_or((codes::UNKNOWN_ENTITY, format!("unknown metric {name:?}")))
    }

    fn open(&self, params: &Value) -> Result<Value, (i64, String)> {
        let format = params.get("format").and_then(Value::as_str).unwrap_or("");
        if format != "evpf-hex" {
            return Err((
                codes::INVALID_PARAMS,
                format!("unsupported payload format {format:?}"),
            ));
        }
        let data = params
            .get("data")
            .and_then(Value::as_str)
            .ok_or((codes::INVALID_PARAMS, "missing data".to_owned()))?;
        let bytes = hex_decode(data).map_err(|e| (codes::INVALID_PARAMS, e))?;
        let profile = ev_core::format::from_bytes(&bytes)
            .map_err(|e| (codes::INTERNAL_ERROR, e.to_string()))?;
        let name = profile.meta().name.clone();
        let profiler = profile.meta().profiler.clone();
        let nodes = profile.node_count() as i64;
        let metrics: Value = profile
            .metrics()
            .iter()
            .map(|m| Value::from(m.name.clone()))
            .collect();
        let id = self.register(profile, None);
        Ok(Value::object([
            ("profileId", Value::Int(id)),
            ("name", Value::from(name)),
            ("profiler", Value::from(profiler)),
            ("nodes", Value::Int(nodes)),
            ("metrics", metrics),
        ]))
    }

    fn close(&self, params: &Value) -> Result<Value, (i64, String)> {
        let id = params
            .get("profileId")
            .and_then(Value::as_i64)
            .ok_or((codes::INVALID_PARAMS, "missing profileId".to_owned()))?;
        match self.profiles.write().unwrap().remove(&id) {
            Some(_) => Ok(Value::Bool(true)),
            None => Err(not_loaded(id)),
        }
    }

    /// Multi-profile aggregation over the wire (§V-A-c): merges the
    /// referenced profiles into a new server-side profile carrying
    /// sum/min/max/mean channels, and retains the per-node series for
    /// `profile/histogram`.
    fn aggregate(&self, params: &Value) -> Result<Value, (i64, String)> {
        let raw = params
            .get("profileIds")
            .and_then(Value::as_array)
            .ok_or((codes::INVALID_PARAMS, "missing profileIds".to_owned()))?;
        let mut ids: Vec<i64> = Vec::with_capacity(raw.len());
        for v in raw {
            ids.push(v.as_i64().ok_or((
                codes::INVALID_PARAMS,
                "profileIds entries must be integers".to_owned(),
            ))?);
        }
        if ids.is_empty() {
            return Err((codes::INVALID_PARAMS, "profileIds is empty".to_owned()));
        }
        let metric = params
            .get("metric")
            .and_then(Value::as_str)
            .ok_or((codes::INVALID_PARAMS, "missing metric".to_owned()))?
            .to_owned();
        let agg = self
            .read_profiles(&ids, |inputs| aggregate(inputs, &metric))?
            .map_err(|i| {
                (
                    codes::UNKNOWN_ENTITY,
                    format!("profile {} lacks metric {metric:?}", ids[i]),
                )
            })?;
        let (profile, series) = agg.into_parts();
        let node_count = profile.node_count();
        let metrics: Value = profile
            .metrics()
            .iter()
            .map(|m| Value::from(m.name.clone()))
            .collect();
        let new_id = self.register(profile, Some(series));
        Ok(Value::object([
            ("profileId", Value::Int(new_id)),
            ("profiles", Value::Int(ids.len() as i64)),
            ("nodes", Value::Int(node_count as i64)),
            ("metrics", metrics),
        ]))
    }

    /// Differentiation over the wire (§V-A-c): registers the union tree
    /// (with before/after/delta channels) as a new profile.
    fn diff(&self, params: &Value) -> Result<Value, (i64, String)> {
        let base = params
            .get("baseId")
            .and_then(Value::as_i64)
            .ok_or((codes::INVALID_PARAMS, "missing baseId".to_owned()))?;
        let other = params
            .get("otherId")
            .and_then(Value::as_i64)
            .ok_or((codes::INVALID_PARAMS, "missing otherId".to_owned()))?;
        let metric = params
            .get("metric")
            .and_then(Value::as_str)
            .ok_or((codes::INVALID_PARAMS, "missing metric".to_owned()))?
            .to_owned();
        let d = self
            .read_profiles(&[base, other], |p| diff(p[0], p[1], &metric, 0.0))?
            .map_err(|i| {
                (
                    codes::UNKNOWN_ENTITY,
                    format!(
                        "profile {} lacks metric {metric:?}",
                        if i == 0 { base } else { other }
                    ),
                )
            })?;
        let tags: Value = Value::object(
            d.tag_counts()
                .iter()
                .map(|(tag, count)| {
                    let key = match tag {
                        ev_analysis::DiffTag::Added => "added",
                        ev_analysis::DiffTag::Deleted => "deleted",
                        ev_analysis::DiffTag::Increased => "increased",
                        ev_analysis::DiffTag::Decreased => "decreased",
                        ev_analysis::DiffTag::Unchanged => "unchanged",
                    };
                    (key, Value::Int(*count as i64))
                })
                .collect::<Vec<_>>(),
        );
        let new_id = self.register(d.profile, None);
        Ok(Value::object([
            ("profileId", Value::Int(new_id)),
            ("tags", tags),
        ]))
    }

    /// The correlated view (§VI-A-b, Fig. 7): walks a profile's
    /// cross-context links pane by pane. `position` selects which
    /// endpoint pane to lay out; `selection` holds the endpoints chosen
    /// in earlier panes.
    fn correlated(&self, params: &Value) -> Result<Value, (i64, String)> {
        let (_, entry) = self.profile_entry(params)?;
        let loaded = entry.profile.read().unwrap();
        let profile = &loaded.profile;
        let metric = Self::metric(profile, params)?;
        let kind = match params.get("kind").and_then(Value::as_str) {
            Some("useReuse") | None => ev_core::LinkKind::UseReuse,
            Some("redundantKilling") => ev_core::LinkKind::RedundantKilling,
            Some("dataRace") => ev_core::LinkKind::DataRace,
            Some("falseSharing") => ev_core::LinkKind::FalseSharing,
            Some("allocAccess") => ev_core::LinkKind::AllocAccess,
            Some(other) => {
                return Err((
                    codes::INVALID_PARAMS,
                    format!("unknown link kind {other:?}"),
                ))
            }
        };
        let position = params
            .get("position")
            .and_then(Value::as_i64)
            .unwrap_or(0)
            .max(0) as usize;
        let selection: Vec<NodeId> = params
            .get("selection")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(Value::as_i64)
            .map(|n| NodeId::from_index(n.max(0) as usize))
            .collect();
        for &node in &selection {
            if node.index() >= profile.node_count() {
                return Err((codes::UNKNOWN_ENTITY, "selection node out of range".to_owned()));
            }
        }
        let view = ev_flame::CorrelatedView::new(profile, kind, metric);
        let endpoints: Value = view
            .endpoints(position, &selection)
            .into_iter()
            .map(|node| {
                Value::object([
                    ("node", Value::Int(node.index() as i64)),
                    (
                        "label",
                        Value::from(profile.resolve_frame(node).name),
                    ),
                ])
            })
            .collect();
        let pane = view.pane(position, &selection);
        let rects: Value = pane
            .rects()
            .iter()
            .map(|r| {
                Value::object([
                    ("depth", Value::Int(r.depth as i64)),
                    ("x", Value::Float(r.x)),
                    ("width", Value::Float(r.width)),
                    ("label", Value::from(r.label.clone())),
                    ("value", Value::Float(r.value)),
                ])
            })
            .collect();
        Ok(Value::object([
            ("endpoints", endpoints),
            ("rects", rects),
        ]))
    }

    /// The per-context histogram of the aggregate view (Fig. 4's hover):
    /// the value series of one node across the aggregated profiles, with
    /// its timeline classification.
    fn histogram(&self, params: &Value) -> Result<Value, (i64, String)> {
        let (_, entry) = self.profile_entry(params)?;
        let profile = &entry.profile.read().unwrap().profile;
        let node = params
            .get("node")
            .and_then(Value::as_i64)
            .ok_or((codes::INVALID_PARAMS, "missing node".to_owned()))?;
        if node < 0 || node as usize >= profile.node_count() {
            return Err((codes::UNKNOWN_ENTITY, format!("unknown node {node}")));
        }
        let series = entry.series.as_ref().ok_or((
            codes::INVALID_PARAMS,
            "profile is not an aggregate".to_owned(),
        ))?;
        let values = &series[node as usize];
        let pattern = classify_timeline(values);
        Ok(Value::object([
            ("series", values.iter().map(|&v| Value::Float(v)).collect()),
            ("pattern", Value::from(pattern.to_string())),
        ]))
    }

    fn flame_graph(&self, params: &Value) -> Result<Arc<Box<str>>, (i64, String)> {
        let (_, entry) = self.profile_entry(params)?;
        let loaded = entry.profile.read().unwrap();
        let profile = &loaded.profile;
        let metric = Self::metric(profile, params)?;
        let view = params
            .get("view")
            .and_then(Value::as_str)
            .unwrap_or("topDown");
        let shape = match view {
            "topDown" => FlameView::TopDown,
            "bottomUp" => FlameView::BottomUp,
            "flat" => FlameView::Flat,
            _ => {
                return Err((
                    codes::INVALID_PARAMS,
                    format!("unknown view {view:?} (topDown|bottomUp|flat)"),
                ))
            }
        };
        // `limit`: the default when absent, 0 when negative. Any other
        // value than an integer is refused, not read as the default.
        let limit = match params.get("limit") {
            None => DEFAULT_FLAME_LIMIT,
            Some(limit) => {
                let limit = limit.as_i64().ok_or_else(|| {
                    (
                        codes::INVALID_PARAMS,
                        format!("limit must be an integer, not {limit}"),
                    )
                })?;
                usize::try_from(limit).unwrap_or(0)
            }
        };
        // The result is memoized on the profile version's content
        // fingerprint + metric + the full transform descriptor (view
        // and limit shape the JSON), so a cached answer is
        // byte-identical to a computed one and a mutated profile never
        // aliases a stale entry.
        let limit_tag = format!("limit:{limit}");
        let key = fingerprint_view_key(loaded.fingerprint, metric, &["flame", view, &limit_tag]);
        Ok(self.views.get_or_insert_with(key, || {
            encode_flame_graph(&FlameGraph::layout(profile, metric, shape, limit)).into_boxed_str()
        }))
    }

    fn tree_table(&self, params: &Value) -> Result<Arc<Box<str>>, (i64, String)> {
        let (_, entry) = self.profile_entry(params)?;
        let loaded = entry.profile.read().unwrap();
        let profile = &loaded.profile;
        let metric = Self::metric(profile, params)?;
        let depth = params
            .get("depth")
            .and_then(Value::as_i64)
            .unwrap_or(3)
            .max(1) as usize;
        let depth_tag = format!("depth:{depth}");
        let key = fingerprint_view_key(loaded.fingerprint, metric, &["treeTable", &depth_tag]);
        Ok(self.views.get_or_insert_with(key, || {
            let mut table = ev_flame::TreeTable::new(profile, &[metric]);
            table.expand_to_depth(depth);
            let rows: Value = table
                .rows()
                .iter()
                .map(|row| {
                    Value::object([
                        ("node", Value::Int(row.node.index() as i64)),
                        ("depth", Value::Int(row.depth as i64)),
                        ("label", Value::from(row.label.clone())),
                        ("inclusive", Value::Float(row.values[0].0)),
                        ("exclusive", Value::Float(row.values[0].1)),
                        ("expandable", Value::Bool(row.expandable)),
                    ])
                })
                .collect();
            encode_view(&Value::object([("rows", rows)]))
        }))
    }

    /// The mandatory action (§VI-B-a): resolve a frame to its source
    /// location so the editor can open, jump, and highlight.
    fn code_link(&self, params: &Value) -> Result<Value, (i64, String)> {
        let (_, entry) = self.profile_entry(params)?;
        let profile = &entry.profile.read().unwrap().profile;
        let node = params
            .get("node")
            .and_then(Value::as_i64)
            .ok_or((codes::INVALID_PARAMS, "missing node".to_owned()))?;
        if node < 0 || node as usize >= profile.node_count() {
            return Err((codes::UNKNOWN_ENTITY, format!("unknown node {node}")));
        }
        let frame = profile.resolve_frame(NodeId::from_index(node as usize));
        if !frame.has_source_mapping() {
            return Err((
                codes::UNKNOWN_ENTITY,
                format!("frame {:?} has no source mapping", frame.name),
            ));
        }
        Ok(Value::object([
            ("file", Value::from(frame.file)),
            ("line", Value::Int(i64::from(frame.line))),
            ("highlight", Value::Bool(true)),
        ]))
    }

    /// Code lens (§VI-B-b): per-line annotations for one file.
    fn code_lens(&self, params: &Value) -> Result<Value, (i64, String)> {
        let (_, entry) = self.profile_entry(params)?;
        let profile = &entry.profile.read().unwrap().profile;
        let file = params
            .get("file")
            .and_then(Value::as_str)
            .ok_or((codes::INVALID_PARAMS, "missing file".to_owned()))?;
        Ok(code_lens_result(profile, file))
    }

    /// Hover (§VI-B-b): all metric values attached to one source line.
    fn hover(&self, params: &Value) -> Result<Value, (i64, String)> {
        let (_, entry) = self.profile_entry(params)?;
        let profile = &entry.profile.read().unwrap().profile;
        let file = params
            .get("file")
            .and_then(Value::as_str)
            .ok_or((codes::INVALID_PARAMS, "missing file".to_owned()))?;
        let line = params
            .get("line")
            .and_then(Value::as_i64)
            .ok_or((codes::INVALID_PARAMS, "missing line".to_owned()))?;
        let line = u32::try_from(line).map_err(|_| {
            (
                codes::INVALID_PARAMS,
                format!("line {line} is out of range (0..={})", u32::MAX),
            )
        })?;
        Ok(hover_result(profile, file, line))
    }

    /// Floating window (§VI-B-b): global summary of the whole profile.
    fn summary(&self, params: &Value) -> Result<Arc<Box<str>>, (i64, String)> {
        let (_, entry) = self.profile_entry(params)?;
        let loaded = entry.profile.read().unwrap();
        let profile = &loaded.profile;
        let key = fingerprint_view_key(loaded.fingerprint, MetricId::from_index(0), &["summary"]);
        Ok(self.views.get_or_insert_with(key, || {
            let mut hottest: Vec<Value> = Vec::new();
            if let Some(first) = profile.metrics().first() {
                let metric = profile.metric_by_name(&first.name).expect("exists");
                hottest = MetricView::compute(profile, metric)
                    .hottest(5)
                    .into_iter()
                    .map(|(id, v)| {
                        Value::object([
                            ("label", Value::from(profile.resolve_frame(id).name)),
                            ("self", Value::Float(v)),
                        ])
                    })
                    .collect();
            }
            let totals: Value = profile
                .metrics()
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    let total = profile.total(MetricId::from_index(i));
                    Value::object([
                        ("metric", Value::from(m.name.clone())),
                        ("total", Value::Float(total)),
                        ("formatted", Value::from(m.unit.format(total))),
                    ])
                })
                .collect();
            encode_view(&Value::object([
                ("name", Value::from(profile.meta().name.clone())),
                ("profiler", Value::from(profile.meta().profiler.clone())),
                ("nodes", Value::Int(profile.node_count() as i64)),
                ("links", Value::Int(profile.links().len() as i64)),
                ("totals", totals),
                ("hottest", Value::Array(hottest)),
            ]))
        }))
    }

    fn search(&self, params: &Value) -> Result<Value, (i64, String)> {
        let (_, entry) = self.profile_entry(params)?;
        let profile = &entry.profile.read().unwrap().profile;
        let query = params
            .get("query")
            .and_then(Value::as_str)
            .ok_or((codes::INVALID_PARAMS, "missing query".to_owned()))?;
        Ok(search_result(profile, query, SEARCH_CAP))
    }

    /// The flight-recorder surface: lists retained captures (oldest
    /// first) with their span counts and per-request counter deltas.
    /// `export: "chrome" | "easyview"` additionally renders every
    /// retained span through the `ev_formats::trace` exporters — chrome
    /// trace-event JSON for `chrome://tracing`, or an EasyView profile
    /// (evpf-hex, the same envelope `profile/open` accepts) so the
    /// recorder's contents can be examined in EasyView itself.
    /// `clear: true` drops the retained captures after reporting.
    fn flight_recorder_rpc(&self, params: &Value) -> Result<Value, (i64, String)> {
        let mut recorder = self.recorder.lock().unwrap();
        let captures: Value = recorder
            .captures()
            .map(|c| {
                let deltas: Vec<(&str, Value)> = c
                    .counter_deltas
                    .iter()
                    .map(|&(name, delta)| (name, Value::Int(delta as i64)))
                    .collect();
                Value::object([
                    ("seq", Value::Int(c.seq as i64)),
                    ("method", Value::from(c.label.clone())),
                    ("reason", Value::from(c.reason.as_str())),
                    ("wallMicros", Value::Int(c.wall_micros as i64)),
                    ("spanCount", Value::Int(c.spans.len() as i64)),
                    ("truncatedSpans", Value::Int(c.truncated_spans as i64)),
                    ("counterDeltas", Value::object(deltas)),
                ])
            })
            .collect();
        let mut pairs = vec![
            ("captures", captures),
            ("capacity", Value::Int(recorder.capacity() as i64)),
            (
                "totalRecorded",
                Value::Int(recorder.total_recorded() as i64),
            ),
            ("overwritten", Value::Int(recorder.overwritten() as i64)),
        ];
        if let Some(format) = params.get("export").and_then(Value::as_str) {
            let spans: Vec<SpanRecord> = recorder
                .captures()
                .flat_map(|c| c.spans.iter().copied())
                .collect();
            let exported = match format {
                "chrome" => ev_formats::trace::chrome_trace(&spans),
                "easyview" => profile_to_param(&ev_formats::trace::self_profile(&spans)),
                other => {
                    return Err((
                        codes::INVALID_PARAMS,
                        format!("unknown export format {other:?} (chrome|easyview)"),
                    ))
                }
            };
            pairs.push(("export", exported));
        }
        if params.get("clear").and_then(Value::as_bool) == Some(true) {
            recorder.clear();
        }
        Ok(Value::object(pairs))
    }

    /// Customization (§V-B): run an EVscript against the loaded
    /// profile. Scripts may mutate the profile, so this takes the
    /// profile's write lock — concurrent view requests on the same
    /// profile wait; other profiles are unaffected. The fingerprint is
    /// recomputed before the lock is released, whether the script
    /// succeeded or failed part-way through its mutations, so memoized
    /// views of the old state never alias the new one.
    fn script(&self, params: &Value) -> Result<Value, (i64, String)> {
        let id = params
            .get("profileId")
            .and_then(Value::as_i64)
            .ok_or((codes::INVALID_PARAMS, "missing profileId".to_owned()))?;
        let source = params
            .get("source")
            .and_then(Value::as_str)
            .ok_or((codes::INVALID_PARAMS, "missing source".to_owned()))?
            .to_owned();
        let entry = self.entry(id)?;
        let mut loaded = entry.profile.write().unwrap();
        let output = ScriptHost::new(&mut loaded.profile).run(&source);
        loaded.fingerprint = profile_fingerprint(&loaded.profile);
        drop(loaded);
        let output = output.map_err(|e| (codes::INTERNAL_ERROR, e.to_string()))?;
        Ok(Value::object([("stdout", Value::from(output.stdout))]))
    }
}

/// `profile/codeLens`: per source line of `file`, the exclusive values
/// of every context on it, summed per metric. Frames are matched on
/// their interned file id and line, never resolved to owned strings:
/// the string table interns each string once, so one id names every
/// frame in `file`, and a file no frame names has no id at all.
fn code_lens_result(profile: &Profile, file: &str) -> Value {
    // line -> metric -> accumulated exclusive value.
    let mut lines: HashMap<u32, Vec<f64>> = HashMap::new();
    if let Some(file) = profile.strings().lookup(file) {
        for node in profile.node_ids() {
            let node = profile.node(node);
            let frame = node.frame();
            if frame.file != file || frame.line == 0 {
                continue;
            }
            let slot = lines
                .entry(frame.line)
                .or_insert_with(|| vec![0.0; profile.metrics().len()]);
            for (m, v) in node.values() {
                slot[m.index()] += v;
            }
        }
    }
    let mut entries: Vec<(u32, Vec<f64>)> = lines.into_iter().collect();
    entries.sort_by_key(|&(line, _)| line);
    let lenses: Value = entries
        .into_iter()
        .map(|(line, values)| {
            let text = profile
                .metrics()
                .iter()
                .zip(&values)
                .filter(|&(_, &v)| v != 0.0)
                .map(|(m, &v)| format!("{}: {}", m.name, m.unit.format(v)))
                .collect::<Vec<_>>()
                .join(" | ");
            Value::object([
                ("line", Value::Int(i64::from(line))),
                ("text", Value::from(text)),
            ])
        })
        .collect();
    Value::object([("lenses", lenses)])
}

/// `profile/hover`: how many contexts sit on `file:line` and their
/// summed values per metric, matched on interned file id and line as
/// in [`code_lens_result`].
fn hover_result(profile: &Profile, file: &str, line: u32) -> Value {
    let mut totals = vec![0.0; profile.metrics().len()];
    let mut contexts = 0usize;
    if let Some(file) = profile.strings().lookup(file) {
        for node in profile.node_ids() {
            let node = profile.node(node);
            let frame = node.frame();
            if frame.file != file || frame.line != line {
                continue;
            }
            contexts += 1;
            for (m, v) in node.values() {
                totals[m.index()] += v;
            }
        }
    }
    let contents: Value = profile
        .metrics()
        .iter()
        .zip(&totals)
        .filter(|&(_, &v)| v != 0.0)
        .map(|(m, &v)| Value::from(format!("{}: {}", m.name, m.unit.format(v))))
        .collect();
    Value::object([
        ("contexts", Value::Int(contexts as i64)),
        ("contents", contents),
    ])
}

/// `profile/search`: the first `cap` nodes [`ev_analysis::search`]
/// matches, with their names. `truncated` counts the matches past
/// `cap`, which are never collected; a complete result has no
/// `truncated` field.
fn search_result(profile: &Profile, query: &str, cap: usize) -> Value {
    let mut found = search(profile, query);
    let matches: Value = found
        .by_ref()
        .take(cap)
        .map(|id| {
            let name = profile.node(id).frame().name;
            Value::object([
                ("node", Value::Int(id.index() as i64)),
                ("label", Value::from(profile.strings().resolve(name))),
            ])
        })
        .collect();
    let mut fields = vec![("matches", matches)];
    let truncated = found.count();
    if truncated > 0 {
        fields.push(("truncated", Value::Int(truncated as i64)));
    }
    Value::object(fields)
}

/// The error for a profile id the table does not hold.
fn not_loaded(id: i64) -> (i64, String) {
    (codes::UNKNOWN_PROFILE, format!("profile {id} not loaded"))
}

/// A cloneable, thread-shareable handle to one [`EvpServer`].
///
/// All server methods take `&self`, so the handle simply `Deref`s to
/// the shared instance: clone it into as many session threads as
/// needed and call [`EvpServer::handle_bytes`] (or
/// [`EvpServer::handle`]) concurrently.
#[derive(Debug, Clone, Default)]
pub struct SharedEvpServer {
    pub(crate) inner: Arc<EvpServer>,
}

impl SharedEvpServer {
    /// A shared server with no profiles loaded and default options.
    pub fn new() -> SharedEvpServer {
        SharedEvpServer::with_options(ServerOptions::default())
    }

    /// A shared server with explicit options.
    pub fn with_options(options: ServerOptions) -> SharedEvpServer {
        SharedEvpServer {
            inner: Arc::new(EvpServer::with_options(options)),
        }
    }
}

impl std::ops::Deref for SharedEvpServer {
    type Target = EvpServer;

    fn deref(&self) -> &EvpServer {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::{Frame, MetricDescriptor, MetricKind, MetricUnit};
    use ev_test::prelude::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes tests that toggle process-global tracing.
    fn tracing_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn small_profile() -> Profile {
        let mut p = Profile::new("small");
        let m = p.add_metric(MetricDescriptor::new(
            "cpu",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ));
        p.add_sample(
            &[
                Frame::function("main").with_source("main.c", 1),
                Frame::function("work").with_source("work.c", 10),
            ],
            &[(m, 5.0)],
        );
        p.add_sample(&[Frame::function("main").with_source("main.c", 1)], &[(m, 2.0)]);
        p
    }

    fn open_profile(server: &EvpServer, profile: &Profile) -> i64 {
        server
            .handle(&Request::new(1, "profile/open", profile_to_param(profile)))
            .unwrap()
            .outcome
            .unwrap()
            .get("profileId")
            .and_then(Value::as_i64)
            .unwrap()
    }

    /// Sends one request through `handle_bytes`, returning the raw
    /// response frame.
    fn wire(server: &EvpServer, id: i64, method: &str, params: Value) -> Vec<u8> {
        let frame = encode_frame(&Request::new(id, method, params).to_value());
        let (bytes, consumed) = server.handle_bytes(&frame).unwrap();
        assert_eq!(consumed, frame.len());
        bytes
    }

    /// The response a raw frame carries.
    fn decode_response(bytes: &[u8]) -> Response {
        let (value, used) = decode_frame(bytes).unwrap().unwrap();
        assert_eq!(used, bytes.len(), "one frame");
        Response::try_from(value).unwrap()
    }

    /// `profile/codeLens` as it scanned before matching on interned
    /// ids: every node's frame resolved to owned strings. The oracle
    /// for [`code_lens_result`].
    fn code_lens_oracle(profile: &Profile, file: &str) -> Value {
        let mut lines: HashMap<u32, Vec<f64>> = HashMap::new();
        for node in profile.node_ids() {
            let frame = profile.resolve_frame(node);
            if frame.file != file || frame.line == 0 {
                continue;
            }
            let slot = lines
                .entry(frame.line)
                .or_insert_with(|| vec![0.0; profile.metrics().len()]);
            for (m, v) in profile.node(node).values() {
                slot[m.index()] += v;
            }
        }
        let mut entries: Vec<(u32, Vec<f64>)> = lines.into_iter().collect();
        entries.sort_by_key(|&(line, _)| line);
        let lenses: Value = entries
            .into_iter()
            .map(|(line, values)| {
                let text = profile
                    .metrics()
                    .iter()
                    .zip(&values)
                    .filter(|&(_, &v)| v != 0.0)
                    .map(|(m, &v)| format!("{}: {}", m.name, m.unit.format(v)))
                    .collect::<Vec<_>>()
                    .join(" | ");
                Value::object([
                    ("line", Value::Int(i64::from(line))),
                    ("text", Value::from(text)),
                ])
            })
            .collect();
        Value::object([("lenses", lenses)])
    }

    /// `profile/hover` by resolved frames; the oracle for
    /// [`hover_result`].
    fn hover_oracle(profile: &Profile, file: &str, line: u32) -> Value {
        let mut totals = vec![0.0; profile.metrics().len()];
        let mut contexts = 0usize;
        for node in profile.node_ids() {
            let frame = profile.resolve_frame(node);
            if frame.file != file || frame.line != line {
                continue;
            }
            contexts += 1;
            for (m, v) in profile.node(node).values() {
                totals[m.index()] += v;
            }
        }
        let contents: Value = profile
            .metrics()
            .iter()
            .zip(&totals)
            .filter(|&(_, &v)| v != 0.0)
            .map(|(m, &v)| Value::from(format!("{}: {}", m.name, m.unit.format(v))))
            .collect();
        Value::object([
            ("contexts", Value::Int(contexts as i64)),
            ("contents", contents),
        ])
    }

    /// `profile/search` lowercasing every node's resolved name and
    /// collecting every match before it cuts them to `cap`; the oracle
    /// for [`search_result`].
    fn search_oracle(profile: &Profile, query: &str, cap: usize) -> Value {
        let query = query.to_lowercase();
        let mut matches: Vec<Value> = profile
            .node_ids()
            .filter_map(|id| {
                let frame = profile.resolve_frame(id);
                if frame.name.to_lowercase().contains(&query) {
                    Some(Value::object([
                        ("node", Value::Int(id.index() as i64)),
                        ("label", Value::from(frame.name)),
                    ]))
                } else {
                    None
                }
            })
            .collect();
        let cut = matches.split_off(cap.min(matches.len()));
        let mut fields = vec![("matches", Value::Array(matches))];
        if !cut.is_empty() {
            fields.push(("truncated", Value::Int(cut.len() as i64)));
        }
        Value::object(fields)
    }

    /// Files the generated profiles draw from: mapped, empty (unmapped
    /// frames) and non-ASCII.
    const ORACLE_FILES: [&str; 4] = ["main.c", "Work.rs", "über/ünï.c", ""];

    /// Profiles whose frames mix source-mapped and unmapped frames,
    /// line 0, mixed-case and non-ASCII names (including ones whose
    /// lowercase form has a different length), over two metrics.
    fn arb_source_profile() -> impl Gen<Value = Profile> {
        const NAMES: [&str; 8] = [
            "main",
            "Work",
            "parse_JSON",
            "ÉCOLE",
            "école",
            "İnit",
            "ΣΊΣΥΦΟΣ",
            "",
        ];
        seeded(0..40, |rng, size| {
            let mut p = Profile::new("oracle");
            let cpu = p.add_metric(MetricDescriptor::new(
                "cpu",
                MetricUnit::Count,
                MetricKind::Exclusive,
            ));
            let bytes = p.add_metric(MetricDescriptor::new(
                "bytes",
                MetricUnit::Bytes,
                MetricKind::Exclusive,
            ));
            for _ in 0..size {
                let depth = rng.gen_range(1usize..5);
                let path: Vec<Frame> = (0..depth)
                    .map(|_| {
                        let name = NAMES[rng.gen_range(0..NAMES.len())];
                        let file = ORACLE_FILES[rng.gen_range(0..ORACLE_FILES.len())];
                        Frame::function(name).with_source(file, rng.gen_range(0u32..4))
                    })
                    .collect();
                let mut values = vec![(cpu, f64::from(rng.gen_range(0u32..50)))];
                if rng.gen_bool(0.5) {
                    values.push((bytes, f64::from(rng.gen_range(0u32..5000))));
                }
                p.add_sample(&path, &values);
            }
            p
        })
    }

    property! {
        #![cases(128)]

        fn string_id_scans_answer_like_resolved_frames(profile in arb_source_profile()) {
            // "absent.c" is in no string table.
            for file in ORACLE_FILES.into_iter().chain(["absent.c"]) {
                prop_assert_eq!(
                    code_lens_result(&profile, file),
                    code_lens_oracle(&profile, file)
                );
                for line in 0..5 {
                    prop_assert_eq!(
                        hover_result(&profile, file, line),
                        hover_oracle(&profile, file, line)
                    );
                }
            }
            let queries = [
                "", "main", "WORK", "_json", "école", "ÉCOLE", "i̇", "σίσυφος", "Σ", "absent",
            ];
            for query in queries {
                for cap in [SEARCH_CAP, 0, 1, 3] {
                    prop_assert_eq!(
                        search_result(&profile, query, cap),
                        search_oracle(&profile, query, cap)
                    );
                }
            }
        }
    }

    #[test]
    fn hover_rejects_lines_outside_u32() {
        let server = EvpServer::new();
        let id = open_profile(&server, &small_profile());
        let hover = |rid: i64, line: i64| {
            let params = Value::object([
                ("profileId", Value::Int(id)),
                ("file", Value::from("work.c")),
                ("line", Value::Int(line)),
            ]);
            decode_response(&wire(&server, rid, "profile/hover", params)).outcome
        };
        let contexts = |result: Value| result.get("contexts").and_then(Value::as_i64);
        assert_eq!(contexts(hover(1, 10).unwrap()), Some(1));
        // 2^32 + 10 used to wrap to line 10, and -1 to u32::MAX.
        for (rid, line) in (2..).zip([(1i64 << 32) + 10, -1, i64::MIN, i64::MAX]) {
            let err = hover(rid, line).unwrap_err();
            assert_eq!(err.0, codes::INVALID_PARAMS, "line {line}");
            assert!(err.1.contains("out of range"), "{}", err.1);
        }
        assert_eq!(contexts(hover(9, 0).unwrap()), Some(0));
        assert_eq!(contexts(hover(10, i64::from(u32::MAX)).unwrap()), Some(0));
    }

    #[test]
    fn memoized_views_splice_into_tree_identical_frames() {
        let server = EvpServer::new();
        let id = open_profile(&server, &small_profile());
        let pid = || ("profileId", Value::Int(id));
        let cpu = || ("metric", Value::from("cpu"));
        let flame = |view: &str| {
            let params = Value::object([pid(), cpu(), ("view", Value::from(view))]);
            ("profile/flameGraph", params)
        };
        let views = [
            flame("topDown"),
            flame("bottomUp"),
            flame("flat"),
            (
                "profile/treeTable",
                Value::object([pid(), cpu(), ("depth", Value::Int(2))]),
            ),
            ("profile/summary", Value::object([pid()])),
        ];
        for (rid, (method, params)) in (10..).zip(views) {
            // A miss, then a hit: each frame must be the one the tree
            // path frames from the same result and meta.
            let results: Vec<String> = (0..2)
                .map(|_| {
                    let bytes = wire(&server, rid, method, params.clone());
                    let response = decode_response(&bytes);
                    let result = response.outcome.clone().unwrap();
                    let meta = response.meta.unwrap();
                    let rebuilt = Response::ok(rid, result.clone()).with_meta(meta);
                    assert_eq!(
                        String::from_utf8(bytes).unwrap(),
                        String::from_utf8(encode_frame(&rebuilt.to_value())).unwrap(),
                        "{method} {params}"
                    );
                    ev_json::to_string(&result)
                })
                .collect();
            assert_eq!(
                results[0], results[1],
                "{method}: hit and miss answer alike"
            );
            // The Value API decodes the same cached bytes.
            let handled = server.handle(&Request::new(rid, method, params)).unwrap();
            assert_eq!(ev_json::to_string(&handled.outcome.unwrap()), results[0]);
        }
        let stats = server.view_cache_stats();
        assert_eq!((stats.misses, stats.hits), (5, 10));
    }

    #[test]
    fn flame_graph_counts_the_rects_limit_drops() {
        let server = EvpServer::new();
        let id = open_profile(&server, &small_profile());
        // A miss, then a hit, which must answer alike: (rect count,
        // `truncated`, 0 when absent).
        let flame = |rid: i64, limit: Option<i64>| {
            let mut params = vec![
                ("profileId", Value::Int(id)),
                ("metric", Value::from("cpu")),
            ];
            params.extend(limit.map(|l| ("limit", Value::Int(l))));
            let [miss, hit] = [0, 1].map(|_| {
                let bytes = wire(
                    &server,
                    rid,
                    "profile/flameGraph",
                    Value::object(params.clone()),
                );
                decode_response(&bytes).outcome.unwrap()
            });
            assert_eq!(
                ev_json::to_string(&miss),
                ev_json::to_string(&hit),
                "limit {limit:?}"
            );
            let rects = miss.get("rects").and_then(Value::as_array).unwrap().len();
            let truncated = miss.get("truncated").map(|t| t.as_i64().unwrap());
            assert_ne!(truncated, Some(0), "a complete view leaves the field out");
            (rects, truncated.unwrap_or(0))
        };
        // Root, main and work, all under the default limit.
        assert_eq!(flame(1, None), (3, 0));
        assert_eq!(flame(2, Some(3)), (3, 0));
        assert_eq!(flame(3, Some(1)), (1, 2));
        assert_eq!(flame(4, Some(0)), (0, 3));
    }

    #[test]
    fn search_counts_the_matches_past_its_cap() {
        // The root, main and `SEARCH_CAP` leaves f0, f1, ...
        let mut profile = Profile::new("wide");
        let m = profile.add_metric(MetricDescriptor::new(
            "cpu",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ));
        for i in 0..SEARCH_CAP {
            profile.add_sample(
                &[Frame::function("main"), Frame::function(format!("f{i}"))],
                &[(m, 1.0)],
            );
        }
        let server = EvpServer::new();
        let id = open_profile(&server, &profile);
        // (matches, `truncated`, 0 when absent).
        let search = |rid: i64, query: &str| {
            let params =
                Value::object([("profileId", Value::Int(id)), ("query", Value::from(query))]);
            let bytes = wire(&server, rid, "profile/search", params);
            let result = decode_response(&bytes).outcome.unwrap();
            let matches = result
                .get("matches")
                .and_then(Value::as_array)
                .unwrap()
                .len();
            let truncated = result.get("truncated").map(|t| t.as_i64().unwrap());
            assert_ne!(truncated, Some(0), "a complete result leaves the field out");
            (matches, truncated.unwrap_or(0))
        };
        // "" matches every node; "f1" matches f1, f10-f19, f100-f199
        // and f1000-f1999.
        assert_eq!(search(1, ""), (SEARCH_CAP, 2));
        assert_eq!(search(2, "f1"), (1_111, 0));
    }

    #[test]
    fn flame_graph_refuses_a_non_integer_limit() {
        let server = EvpServer::new();
        let id = open_profile(&server, &small_profile());
        let flame = |rid: i64, limit: Value| {
            let params = Value::object([
                ("profileId", Value::Int(id)),
                ("metric", Value::from("cpu")),
                ("limit", limit),
            ]);
            decode_response(&wire(&server, rid, "profile/flameGraph", params)).outcome
        };
        for (rid, limit) in [
            Value::from("10"),
            Value::Float(1.5),
            Value::Float(1e300),
            Value::Null,
        ]
        .into_iter()
        .enumerate()
        {
            let err = flame(rid as i64, limit.clone()).unwrap_err();
            assert_eq!(err.0, codes::INVALID_PARAMS, "limit {limit}");
            assert!(err.1.contains("limit"), "{}", err.1);
        }
        // A whole-number float is an integer.
        let outcome = flame(9, Value::Float(2.0));
        assert!(outcome.is_ok(), "{outcome:?}");
    }

    #[test]
    fn options_default_and_explicit() {
        assert_eq!(ServerOptions::default().slow_request_micros, 100_000);
        assert_eq!(EvpServer::new().options().slow_request_micros, 100_000);
        let server = EvpServer::with_options(ServerOptions {
            slow_request_micros: 7,
            flight_capacity: 3,
            flight_max_spans: 10,
            ..ServerOptions::default()
        });
        assert_eq!(server.options().slow_request_micros, 7);
        assert_eq!(server.flight_recorder().capacity(), 3);
    }

    #[test]
    fn method_latency_table_is_sorted_and_resolved() {
        // binary_search demands byte order ("codeLens" < "codeLink":
        // 'e' < 'i'); every method must resolve to its own histogram,
        // not pool into unknown.
        assert!(
            METHODS.windows(2).all(|w| w[0].0 < w[1].0),
            "METHODS must be sorted by method name"
        );
        for (i, &(method, _)) in METHODS.iter().enumerate() {
            assert_eq!(
                latency_histogram(Some(i)).name(),
                format!("ide.latency.{method}")
            );
        }
        assert_eq!(latency_histogram(None).name(), "ide.latency.unknown");
    }

    #[test]
    fn multi_profile_requests_report_the_first_missing_id_in_request_order() {
        let server = EvpServer::new();
        let a = open_profile(&server, &small_profile());
        let b = open_profile(&server, &small_profile());
        let call = |rid: i64, method: &str, params: Value| {
            server
                .handle(&Request::new(rid, method, params))
                .unwrap()
                .outcome
        };
        let cpu = || ("metric", Value::from("cpu"));
        let aggregate_ids = |rid: i64, ids: &[i64]| {
            let ids = Value::array(ids.iter().map(|&id| Value::Int(id)));
            call(
                rid,
                "profile/aggregate",
                Value::object([("profileIds", ids), cpu()]),
            )
        };
        let diff_ids = |rid: i64, base: i64, other: i64| {
            let params = Value::object([
                ("baseId", Value::Int(base)),
                ("otherId", Value::Int(other)),
                cpu(),
            ]);
            call(rid, "profile/diff", params)
        };
        let missing = |outcome: Result<Value, (i64, String)>| {
            let (code, message) = outcome.unwrap_err();
            assert_eq!(code, codes::UNKNOWN_PROFILE, "{message}");
            message
        };
        // Repeated and out-of-order ids, loaded and missing.
        let found = aggregate_ids(1, &[b, a, b, a]).unwrap();
        assert_eq!(found.get("profiles").and_then(Value::as_i64), Some(4));
        assert_eq!(
            missing(aggregate_ids(2, &[b, 98, a, 97, b])),
            "profile 98 not loaded"
        );
        assert_eq!(
            missing(aggregate_ids(3, &[97, b, 98])),
            "profile 97 not loaded"
        );
        // A profile diffed with itself is read-locked once.
        let tags = diff_ids(4, a, a).unwrap();
        let tags = tags.get("tags").unwrap();
        assert_eq!(tags.get("added").and_then(Value::as_i64), Some(0));
        assert_eq!(missing(diff_ids(5, 99, 98)), "profile 99 not loaded");
        assert_eq!(missing(diff_ids(6, 98, 99)), "profile 98 not loaded");
        assert_eq!(missing(diff_ids(7, b, 99)), "profile 99 not loaded");
        assert_eq!(missing(diff_ids(8, 99, 99)), "profile 99 not loaded");
    }

    #[test]
    fn meta_carries_monotone_request_seq() {
        let server = EvpServer::new();
        let first = server
            .handle(&Request::new(1, "initialize", Value::Null))
            .unwrap();
        let second = server
            .handle(&Request::new(9, "initialize", Value::Null))
            .unwrap();
        let a = first.meta.unwrap();
        let b = second.meta.unwrap();
        assert_eq!(a.request_seq, 1);
        assert_eq!(b.request_seq, 2, "seq is server-assigned, not the id");
    }

    #[test]
    fn failed_requests_land_in_the_flight_recorder() {
        let server = EvpServer::new();
        server.handle(&Request::new(1, "initialize", Value::Null));
        server.handle(&Request::new(2, "bogus/method", Value::Null));
        server.handle(&Request::new(
            3,
            "profile/summary",
            Value::object([("profileId", Value::Int(404))]),
        ));
        let recorder = server.flight_recorder();
        assert_eq!(recorder.len(), 2, "only the failures are retained");
        let labels: Vec<&str> = recorder.captures().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, ["bogus/method", "profile/summary"]);
        assert!(recorder
            .captures()
            .all(|c| c.reason == CaptureReason::Error));
    }

    #[test]
    fn flight_recorder_rpc_lists_exports_and_clears() {
        let _guard = tracing_lock();
        ev_trace::set_enabled(true);
        let server = EvpServer::new();
        server.handle(&Request::new(1, "bogus/method", Value::Null));
        ev_trace::set_enabled(false);

        let listing = server
            .handle(&Request::new(
                2,
                "debug/flightRecorder",
                Value::object([("export", Value::from("chrome"))]),
            ))
            .unwrap()
            .outcome
            .unwrap();
        let captures = listing.get("captures").unwrap().as_array().unwrap();
        assert_eq!(captures.len(), 1);
        let cap = &captures[0];
        assert_eq!(cap.get("method").and_then(Value::as_str), Some("bogus/method"));
        assert_eq!(cap.get("reason").and_then(Value::as_str), Some("error"));
        assert_eq!(cap.get("seq").and_then(Value::as_i64), Some(1));
        // Tracing was on, so the ide.request span was captured.
        let span_count = cap.get("spanCount").and_then(Value::as_i64).unwrap();
        assert!(span_count >= 1, "spanCount {span_count}");
        assert_eq!(
            listing.get("totalRecorded").and_then(Value::as_i64),
            Some(1)
        );
        // The chrome export re-imports through our own parser.
        let export = listing.get("export").unwrap();
        let events = export.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len() as i64, span_count);
        let reimported = ev_formats::chrome::parse(&ev_json::to_string(export)).unwrap();
        assert!(reimported.node_count() > 1);

        // The easyview export is an envelope profile/open accepts.
        let listing = server
            .handle(&Request::new(
                3,
                "debug/flightRecorder",
                Value::object([
                    ("export", Value::from("easyview")),
                    ("clear", Value::Bool(true)),
                ]),
            ))
            .unwrap()
            .outcome
            .unwrap();
        let envelope = listing.get("export").unwrap().clone();
        let opened = server
            .handle(&Request::new(4, "profile/open", envelope))
            .unwrap()
            .outcome
            .unwrap();
        assert!(opened.get("profileId").and_then(Value::as_i64).is_some());
        // clear=true dropped the retained captures but kept totals.
        assert_eq!(server.flight_recorder().len(), 0);
        assert_eq!(server.flight_recorder().total_recorded(), 1);

        // Unknown export format is a clean error.
        let err = server
            .handle(&Request::new(
                5,
                "debug/flightRecorder",
                Value::object([("export", Value::from("svg"))]),
            ))
            .unwrap()
            .outcome
            .unwrap_err();
        assert_eq!(err.0, codes::INVALID_PARAMS);
    }

    #[test]
    fn slow_threshold_zero_captures_successes() {
        let server = EvpServer::with_options(ServerOptions {
            slow_request_micros: 0,
            ..ServerOptions::default()
        });
        // A hex-encoded multi-thousand-node profile: decoding it takes
        // well over a microsecond, so `wall_micros > 0` holds.
        let profile = ev_gen::synthetic::SyntheticSpec {
            samples: 2_000,
            ..ev_gen::synthetic::SyntheticSpec::default()
        }
        .build();
        let open = server
            .handle(&Request::new(1, "profile/open", profile_to_param(&profile)))
            .unwrap();
        assert!(open.outcome.is_ok());
        let recorder = server.flight_recorder();
        assert_eq!(recorder.len(), 1, "threshold 0 captures successes");
        let cap = recorder.captures().next().unwrap();
        assert_eq!(cap.reason, CaptureReason::Slow);
        assert_eq!(cap.label, "profile/open");
        assert!(cap.wall_micros > 0);
    }

    #[test]
    fn hex_roundtrip() {
        let data = [0u8, 1, 0xab, 0xff];
        assert_eq!(hex_decode(&hex_encode(&data)).unwrap(), data);
        assert_eq!(hex_encode(&data), "0001abff");
        assert_eq!(hex_decode("0001ABff").unwrap(), data, "mixed case accepted");
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
    }

    #[test]
    fn hex_decode_rejects_multibyte_utf8_without_panicking() {
        // "✓a" is 4 bytes (even length), so it reaches digit decoding;
        // byte-offset slicing would panic on the UTF-8 boundary.
        assert_eq!(hex_decode("✓a"), Err("bad hex digit".to_owned()));
        assert_eq!(hex_decode("ab✓abc"), Err("bad hex digit".to_owned()));
        assert_eq!(hex_decode("é"), Err("bad hex digit".to_owned()));
        // And over the wire: profile/open answers INVALID_PARAMS.
        let server = EvpServer::new();
        let err = server
            .handle(&Request::new(
                1,
                "profile/open",
                Value::object([
                    ("format", Value::from("evpf-hex")),
                    ("data", Value::from("✓a")),
                ]),
            ))
            .unwrap()
            .outcome
            .unwrap_err();
        assert_eq!(err.0, codes::INVALID_PARAMS);
    }

    #[test]
    fn malformed_requests_echo_the_request_id() {
        let server = EvpServer::new();
        // Missing method, but the id is extractable: the error must
        // carry id 7 so the client can correlate it.
        let bad = encode_frame(&Value::object([
            ("jsonrpc", Value::from("2.0")),
            ("id", Value::Int(7)),
        ]));
        let (bytes, _) = server.handle_bytes(&bad).unwrap();
        let (value, _) = decode_frame(&bytes).unwrap().unwrap();
        let response = Response::from_value(&value).unwrap();
        assert_eq!(response.id, Some(7));
        assert_eq!(response.outcome.unwrap_err().0, codes::INVALID_REQUEST);
        // No id at all: JSON-RPC null.
        let bad = encode_frame(&Value::object([("jsonrpc", Value::from("2.0"))]));
        let (bytes, _) = server.handle_bytes(&bad).unwrap();
        let (value, _) = decode_frame(&bytes).unwrap().unwrap();
        assert_eq!(value.get("id"), Some(&Value::Null));
    }

    #[test]
    fn deeply_nested_script_is_an_error_not_an_abort() {
        let server = EvpServer::new();
        let id = open_profile(&server, &small_profile());
        let pid = || ("profileId", Value::Int(id));
        let deep = 100_000;
        let sources = [
            (
                format!("print({}1{});", "(".repeat(deep), ")".repeat(deep)),
                "nesting",
            ),
            (format!("print({}1);", "-".repeat(deep)), "nesting"),
            // Too large to compile; no engine may walk it instead.
            (
                ev_gen::scripts::too_large(70_000, 63, 120),
                "program too large",
            ),
        ];
        let call = |rid: i64, method: &str, params: Value| {
            let frame = encode_frame(&Request::new(rid, method, params).to_value());
            let (bytes, _) = server.handle_bytes(&frame).unwrap();
            let (value, _) = decode_frame(&bytes).unwrap().unwrap();
            Response::from_value(&value).unwrap().outcome
        };
        for (rid, (source, expect)) in (10..).zip(sources) {
            let params = Value::object([pid(), ("source", Value::from(source))]);
            let err = call(rid, "profile/script", params).unwrap_err();
            assert!(err.1.contains(expect), "{}", err.1);
            // The same server keeps answering.
            let summary = call(rid + 100, "profile/summary", Value::object([pid()]));
            assert!(summary.is_ok(), "{summary:?}");
        }
    }

    #[test]
    fn aggregate_rejects_mixed_type_profile_ids() {
        let server = EvpServer::new();
        let err = server
            .handle(&Request::new(
                1,
                "profile/aggregate",
                Value::object([
                    (
                        "profileIds",
                        Value::array([Value::Int(1), Value::from("two"), Value::Int(3)]),
                    ),
                    ("metric", Value::from("cpu")),
                ]),
            ))
            .unwrap()
            .outcome
            .unwrap_err();
        assert_eq!(err.0, codes::INVALID_PARAMS);
        assert!(err.1.contains("integers"), "{}", err.1);
    }

    #[test]
    fn sessions_budget_and_close() {
        let server = EvpServer::with_options(ServerOptions::default());
        let open = server
            .handle(&Request::new(1, "session/open", Value::Null))
            .unwrap()
            .outcome
            .unwrap();
        let sid = open.get("sessionId").and_then(Value::as_i64).unwrap();
        assert_eq!(server.session_count(), 1);
        // A budgeted request under the session works.
        let ok = server
            .handle(&Request::new(
                2,
                "initialize",
                Value::object([("sessionId", Value::Int(sid))]),
            ))
            .unwrap();
        assert!(ok.outcome.is_ok());
        // Unknown and ill-typed session ids are clean errors.
        let err = server
            .handle(&Request::new(
                3,
                "initialize",
                Value::object([("sessionId", Value::Int(999))]),
            ))
            .unwrap()
            .outcome
            .unwrap_err();
        assert_eq!(err.0, codes::UNKNOWN_SESSION);
        let err = server
            .handle(&Request::new(
                4,
                "initialize",
                Value::object([("sessionId", Value::from("nope"))]),
            ))
            .unwrap()
            .outcome
            .unwrap_err();
        assert_eq!(err.0, codes::INVALID_PARAMS);
        // Closing twice: second close is UNKNOWN_SESSION.
        let closed = server
            .handle(&Request::new(
                5,
                "session/close",
                Value::object([("sessionId", Value::Int(sid))]),
            ))
            .unwrap();
        assert_eq!(closed.outcome.unwrap(), Value::Bool(true));
        assert_eq!(server.session_count(), 0);
        let err = server
            .handle(&Request::new(
                6,
                "session/close",
                Value::object([("sessionId", Value::Int(sid))]),
            ))
            .unwrap()
            .outcome
            .unwrap_err();
        assert_eq!(err.0, codes::UNKNOWN_SESSION);
    }

    #[test]
    fn exhausted_session_budget_returns_busy() {
        let server = EvpServer::with_options(ServerOptions {
            session_max_inflight: 1,
            ..ServerOptions::default()
        });
        let open = server
            .handle(&Request::new(1, "session/open", Value::Null))
            .unwrap()
            .outcome
            .unwrap();
        let sid = open.get("sessionId").and_then(Value::as_i64).unwrap();
        // Occupy the single budget slot as a concurrent request would.
        let session = server
            .sessions
            .read()
            .unwrap()
            .get(&(sid as u64))
            .cloned()
            .unwrap();
        session.inflight.fetch_add(1, Ordering::AcqRel);
        let err = server
            .handle(&Request::new(
                2,
                "initialize",
                Value::object([("sessionId", Value::Int(sid))]),
            ))
            .unwrap()
            .outcome
            .unwrap_err();
        assert_eq!(err.0, codes::BUSY);
        // Anonymous requests are not budgeted.
        assert!(server
            .handle(&Request::new(3, "initialize", Value::Null))
            .unwrap()
            .outcome
            .is_ok());
        // Releasing the slot un-wedges the session (the refused
        // request must not have leaked its reservation).
        session.inflight.fetch_sub(1, Ordering::AcqRel);
        assert!(server
            .handle(&Request::new(
                4,
                "initialize",
                Value::object([("sessionId", Value::Int(sid))]),
            ))
            .unwrap()
            .outcome
            .is_ok());
        assert_eq!(session.inflight.load(Ordering::Acquire), 0);
    }

    #[test]
    fn shared_server_serves_identical_views_across_threads() {
        let server = SharedEvpServer::with_options(ServerOptions::default());
        let id = open_profile(&server, &small_profile());
        let pid = || ("profileId", Value::Int(id));
        let requests = [
            (
                "profile/flameGraph",
                Value::object([
                    pid(),
                    ("metric", Value::from("cpu")),
                    ("view", Value::from("topDown")),
                ]),
            ),
            (
                "profile/treeTable",
                Value::object([
                    pid(),
                    ("metric", Value::from("cpu")),
                    ("depth", Value::Int(3)),
                ]),
            ),
            ("profile/summary", Value::object([pid()])),
        ];
        let references: Vec<Value> = requests
            .iter()
            .map(|(method, params)| {
                server
                    .handle(&Request::new(1, *method, params.clone()))
                    .unwrap()
                    .outcome
                    .unwrap()
            })
            .collect();
        std::thread::scope(|s| {
            for t in 0..4 {
                let server = server.clone();
                let requests = &requests;
                let references = &references;
                s.spawn(move || {
                    for i in 0..8 {
                        for ((method, params), reference) in requests.iter().zip(references) {
                            let got = server
                                .handle(&Request::new(t * 100 + i, *method, params.clone()))
                                .unwrap()
                                .outcome
                                .unwrap();
                            assert_eq!(&got, reference, "{method}");
                        }
                    }
                });
            }
        });
        let stats = server.view_cache_stats();
        assert_eq!(stats.misses, 3, "each view was built once");
        assert!(
            stats.hits + stats.coalesced >= 96,
            "everything else was served from the shared cache: {stats:?}"
        );
    }

    #[test]
    fn concurrent_requests_keep_request_scoped_observability() {
        let _guard = tracing_lock();
        ev_trace::set_enabled(true);
        let _ = ev_trace::take_spans();
        let server = EvpServer::with_options(ServerOptions {
            slow_request_micros: u64::MAX,
            ..ServerOptions::default()
        });
        let noisy_param = profile_to_param(&small_profile());
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            // A noisy neighbor: opens profiles in a tight loop, each
            // one recording spans and bumping flate/wire counters on
            // its own thread.
            let noisy_server = &server;
            let noisy_param = &noisy_param;
            let stop = &stop;
            s.spawn(move || {
                let mut i = 1_000;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    let opened = noisy_server
                        .handle(&Request::new(i, "profile/open", noisy_param.clone()))
                        .unwrap();
                    assert!(opened.outcome.is_ok());
                }
            });
            // Meanwhile: initialize records exactly one span (the
            // ide.request root) every time. Under the old global
            // span_count() subtraction this flaked, absorbing the
            // neighbor's spans.
            for i in 0..100 {
                let meta = server
                    .handle(&Request::new(i, "initialize", Value::Null))
                    .unwrap()
                    .meta
                    .unwrap();
                assert_eq!(meta.spans, 1, "request-scoped span count");
            }
            // A failing request's flight capture must carry only this
            // thread's counter deltas — none of the neighbor's
            // decode-path counters.
            let err = server
                .handle(&Request::new(901, "bogus/method", Value::Null))
                .unwrap();
            assert!(err.outcome.is_err());
            stop.store(true, Ordering::Relaxed);
        });
        ev_trace::set_enabled(false);
        let _ = ev_trace::take_spans();
        let recorder = server.flight_recorder();
        let cap = recorder
            .captures()
            .find(|c| c.label == "bogus/method")
            .expect("failure captured");
        assert!(
            cap.counter_deltas
                .iter()
                .all(|&(name, _)| !name.starts_with("flate.") && !name.starts_with("wire.")),
            "neighbor's decode counters leaked into the capture: {:?}",
            cap.counter_deltas
        );
    }

    #[test]
    fn unknown_method() {
        let server = EvpServer::new();
        let response = server
            .handle(&Request::new(1, "bogus/method", Value::Null))
            .unwrap();
        assert_eq!(
            response.outcome.unwrap_err().0,
            codes::METHOD_NOT_FOUND
        );
    }

    #[test]
    fn notifications_get_no_response() {
        let server = EvpServer::new();
        let note = Request {
            id: None,
            method: "initialized".to_owned(),
            params: Value::Null,
        };
        assert!(server.handle(&note).is_none());
    }

    #[test]
    fn unknown_profile_error_code() {
        let server = EvpServer::new();
        let response = server
            .handle(&Request::new(
                1,
                "profile/summary",
                Value::object([("profileId", Value::Int(99))]),
            ))
            .unwrap();
        assert_eq!(response.outcome.unwrap_err().0, codes::UNKNOWN_PROFILE);
    }

    #[test]
    fn initialize_lists_capabilities() {
        let server = EvpServer::new();
        let response = server
            .handle(&Request::new(1, "initialize", Value::Null))
            .unwrap();
        let result = response.outcome.unwrap();
        let caps: Vec<&str> = result
            .get("capabilities")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|c| c.as_str().unwrap())
            .collect();
        // Every dispatched method but `initialize` itself, sorted.
        let others: Vec<&str> = METHODS
            .iter()
            .map(|&(method, _)| method)
            .filter(|&method| method != "initialize")
            .collect();
        assert_eq!(caps, others);
        assert!(caps.contains(&"profile/close"));
    }

    #[test]
    fn summary_lists_the_five_hottest_positive_contexts_past_a_nan() {
        let mut p = Profile::new("nan");
        let m = p.add_metric(MetricDescriptor::new(
            "cpu",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ));
        for (name, v) in [("a", 1.0), ("nan", f64::NAN), ("b", 6.0), ("c", 2.0)] {
            p.add_sample(&[Frame::function(name)], &[(m, v)]);
        }
        for (name, v) in [("d", 5.0), ("e", -1.0), ("f", 6.0), ("g", 3.0)] {
            p.add_sample(&[Frame::function(name)], &[(m, v)]);
        }
        let server = EvpServer::new();
        let id = open_profile(&server, &p);
        let summary = server
            .handle(&Request::new(
                2,
                "profile/summary",
                Value::object([("profileId", Value::Int(id))]),
            ))
            .unwrap()
            .outcome
            .unwrap();
        // NaN ranks above every number in the total order but is not
        // positive: it takes no slot, as in `easyview info`.
        let hottest: Vec<(String, f64)> = summary
            .get("hottest")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|h| {
                let label = h.get("label").and_then(Value::as_str).unwrap().to_owned();
                (label, h.get("self").and_then(Value::as_f64).unwrap())
            })
            .collect();
        let expect = [("b", 6.0), ("f", 6.0), ("d", 5.0), ("g", 3.0), ("c", 2.0)];
        let expect: Vec<(String, f64)> = expect.iter().map(|&(l, v)| (l.to_owned(), v)).collect();
        assert_eq!(hottest, expect);
    }
}
