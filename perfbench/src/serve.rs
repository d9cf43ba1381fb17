//! EVP serving: editor sessions replayed against one `SharedEvpServer`.
//!
//! Three replays share one request model:
//!
//! * [`window`] — the timed run: one closed-loop client thread per
//!   session through `EditorClient::connect_shared`, each waiting for
//!   its reply before sending the next request, for a fixed wall time;
//! * [`check_replay`] — one thread replaying every session's prefix
//!   round-robin, each op once through `EditorClient` (the 1-client
//!   check) and once through the public calls `handle_bytes` is built
//!   from (`rpc` encode/decode and `EvpServer::handle`, the sequential
//!   check), with one span per phase on the latter.
//!
//! Every session folds its responses into a chained CRC-32 digest that
//! covers response payloads only, so a session's digest must not depend
//! on how many clients run or which path carried the bytes.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use ev_core::Profile;
use ev_gen::ide_session::SessionOp;
use ev_ide::rpc::{codes, decode_frame, encode_frame, Request, Response};
use ev_ide::{EditorClient, IdeError, ServerOptions, SharedEvpServer};
use ev_json::Value;

use crate::alloc;
use crate::inputs::{Op, PickTables, METHODS};
use crate::spans::Spans;

/// Server options for every replay: slow-request capture off, so host
/// scheduling noise never changes what the server logs or records.
fn options() -> ServerOptions {
    ServerOptions {
        slow_request_micros: u64::MAX,
        ..ServerOptions::default()
    }
}

/// A server with the workload's profile open and its sessions' mixes.
pub struct ServeState {
    /// The shared server.
    pub server: SharedEvpServer,
    /// The profile as opened (fresh copies are reopened from it).
    pub profile: Profile,
    tables: PickTables,
    /// One op mix per session.
    pub mixes: Vec<Vec<Op>>,
    /// The profile id each session targets.
    pub ids: Vec<i64>,
    /// Whether the mix writes to the profile, so each session needs a
    /// private copy.
    pub mutates: bool,
    /// Heap in use just before the server was created.
    heap_base: usize,
}

/// Opens `profile` on a fresh server: once for all sessions, or once
/// per session when the mix mutates.
pub fn setup(profile: Profile, mixes: Vec<Vec<Op>>) -> Result<ServeState, String> {
    let mutates = mixes
        .iter()
        .flatten()
        .any(|op| matches!(op, Op::Script { mutate: true, .. }));
    let tables = PickTables::derive(&profile);
    let heap_base = alloc::live();
    let server = SharedEvpServer::with_options(options());
    let mut state = ServeState {
        server,
        profile,
        tables,
        mixes,
        ids: Vec::new(),
        mutates,
        heap_base,
    };
    state.ids = state.open_ids()?;
    state.warm_views()?;
    Ok(state)
}

impl ServeState {
    /// Requests the views an editor shows first after opening a profile
    /// (the three flame-graph layouts and the summary), so their cold
    /// computation is part of set-up and the timed window starts warm.
    /// Private copies share the content fingerprint, so one profile
    /// warms them all.
    fn warm_views(&self) -> Result<(), String> {
        let mut client = EditorClient::connect_shared(self.server.clone())
            .map_err(|e| format!("session/open: {e}"))?;
        let first_look = [
            SessionOp::FlameGraph { view: "topDown" },
            SessionOp::FlameGraph { view: "bottomUp" },
            SessionOp::FlameGraph { view: "flat" },
            SessionOp::Summary,
        ];
        for op in first_look.map(Op::Session) {
            client
                .request(op.method(), self.tables.params(&op, self.ids[0]))
                .map_err(|e| format!("{}: {e}", op.method()))?;
        }
        Ok(())
    }

    /// Profile ids for a replay from the opened state: the shared id,
    /// or a fresh private copy per session for a mutating mix.
    fn open_ids(&self) -> Result<Vec<i64>, String> {
        let mut opener = EditorClient::connect_shared(self.server.clone())
            .map_err(|e| format!("session/open: {e}"))?;
        let mut open = || {
            opener
                .open_profile(&self.profile)
                .map_err(|e| format!("profile/open: {e}"))
        };
        if self.mutates {
            self.mixes.iter().map(|_| open()).collect()
        } else {
            let id = open()?;
            Ok(vec![id; self.mixes.len()])
        }
    }

    /// Ids for a check replay: reuse the window's profile unless the
    /// window mutated it.
    fn check_ids(&self) -> Result<Vec<i64>, String> {
        if self.mutates {
            self.open_ids()
        } else {
            Ok(self.ids.clone())
        }
    }
}

/// Whether `outcome` is the correct kind of answer for `op`: success
/// for every op but a `BadLink`, which must fail with `UNKNOWN_ENTITY`.
/// `BUSY`, transport errors and any other error or success count as
/// failures.
fn is_expected(op: &Op, outcome: &Result<Value, IdeError>) -> bool {
    match outcome {
        Ok(_) => !op.expects_error(),
        Err(IdeError::Rpc { code, .. }) => op.expects_error() && *code == codes::UNKNOWN_ENTITY,
        Err(IdeError::Protocol(_)) => false,
    }
}

/// Chains one response into a session digest.
fn fold(digest: u32, outcome: &Result<Value, IdeError>) -> u32 {
    let leaf = match outcome {
        Ok(value) => ev_flate::crc32(ev_json::to_string(value).as_bytes()),
        Err(IdeError::Rpc { code, .. }) => ev_flate::crc32(format!("err:{code}").as_bytes()),
        Err(IdeError::Protocol(_)) => !0,
    };
    let mut chain = [0u8; 8];
    chain[..4].copy_from_slice(&digest.to_le_bytes());
    chain[4..].copy_from_slice(&leaf.to_le_bytes());
    ev_flate::crc32(&chain)
}

/// What one replay measured.
#[derive(Default)]
pub struct Replay {
    /// Client-observed latency in microseconds, per [`METHODS`] index.
    pub latency_us: Vec<Vec<f64>>,
    /// Per session: the digest after each of its first ops (as many as
    /// the replay was asked to chain).
    pub chains: Vec<Vec<u32>>,
    /// Per session: ops completed.
    pub completed: Vec<usize>,
    /// Requests issued.
    pub attempted: u64,
    /// Requests with an unexpected outcome.
    pub failed: u64,
    /// Server-reported `meta.wallMicros` per method (phase replay only).
    pub meta_wall_us: Vec<Vec<f64>>,
    /// Wall time of the timed window, seconds.
    pub wall_s: f64,
    /// Heap held at the end of the timed window above the heap before
    /// the server was created, less the replay's own bookkeeping: the
    /// server's profiles, view cache and sessions (timed window only).
    pub held_heap: usize,
}

impl Replay {
    fn new(sessions: usize) -> Replay {
        Replay {
            latency_us: vec![Vec::new(); METHODS.len()],
            meta_wall_us: vec![Vec::new(); METHODS.len()],
            chains: vec![Vec::new(); sessions],
            completed: vec![0; sessions],
            ..Replay::default()
        }
    }

    /// Heap bytes held by this replay's own bookkeeping: the buffers of
    /// its latency, digest and count vectors (the counting allocator
    /// sees a vector's capacity, not its length).
    fn heap_bytes(&self) -> usize {
        fn buffers<T>(rows: &[Vec<T>]) -> usize {
            rows.iter().map(|r| r.capacity() * size_of::<T>()).sum()
        }
        buffers(&self.latency_us)
            + buffers(&self.meta_wall_us)
            + buffers(&self.chains)
            + self.latency_us.capacity() * size_of::<Vec<f64>>()
            + self.meta_wall_us.capacity() * size_of::<Vec<f64>>()
            + self.chains.capacity() * size_of::<Vec<u32>>()
            + self.completed.capacity() * size_of::<usize>()
    }

    fn absorb(&mut self, session: usize, part: Replay) {
        for (all, mine) in self.latency_us.iter_mut().zip(part.latency_us) {
            all.extend(mine);
        }
        self.chains[session] = part.chains.into_iter().next().unwrap_or_default();
        self.completed[session] = part.completed[0];
        self.attempted += part.attempted;
        self.failed += part.failed;
    }
}

/// One client's bookkeeping for one session.
struct Session {
    client: EditorClient,
    digest: u32,
}

impl Session {
    fn connect(server: &SharedEvpServer) -> Result<Session, String> {
        Ok(Session {
            client: EditorClient::connect_shared(server.clone())
                .map_err(|e| format!("session/open: {e}"))?,
            digest: 0,
        })
    }

    /// Issues `op`, recording its latency and outcome into `out` (as
    /// session `slot`), chaining the response into the digest if `chain`.
    fn issue(
        &mut self,
        out: &mut Replay,
        slot: usize,
        tables: &PickTables,
        op: &Op,
        id: i64,
        chain: bool,
    ) {
        let params = tables.params(op, id);
        let start = Instant::now();
        let outcome = self.client.request(op.method(), params);
        let micros = start.elapsed().as_nanos() as f64 / 1e3;
        out.latency_us[op.method_index()].push(micros);
        out.attempted += 1;
        if !is_expected(op, &outcome) {
            out.failed += 1;
        }
        if chain {
            self.digest = fold(self.digest, &outcome);
            out.chains[slot].push(self.digest);
        }
        out.completed[slot] += 1;
    }
}

/// The timed run: one closed-loop client thread per session, all
/// starting together and sending until `seconds` have passed. Each
/// session chains its first `chain_len` responses.
pub fn window(state: &ServeState, seconds: f64, chain_len: usize) -> Result<Replay, String> {
    let sessions = state.mixes.len();
    let barrier = Barrier::new(sessions + 1);
    let deadline_cell = std::sync::OnceLock::<Instant>::new();
    let mut total = Replay::new(sessions);
    let parts: Vec<Result<Replay, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|s| {
                let barrier = &barrier;
                let deadline_cell = &deadline_cell;
                scope.spawn(move || {
                    let connected = Session::connect(&state.server);
                    barrier.wait();
                    let mut session = connected?;
                    let deadline = *deadline_cell.wait();
                    let mut out = Replay::new(1);
                    let mix = &state.mixes[s];
                    let mut i = 0usize;
                    while Instant::now() < deadline {
                        let op = &mix[i % mix.len()];
                        session.issue(&mut out, 0, &state.tables, op, state.ids[s], i < chain_len);
                        i += 1;
                    }
                    drop(session);
                    alloc::live(); // publish this thread's heap count
                    Ok(out)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        deadline_cell
            .set(start + Duration::from_secs_f64(seconds))
            .expect("deadline set once");
        let parts: Vec<Result<Replay, String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_owned()))
            })
            .collect();
        total.wall_s = start.elapsed().as_secs_f64();
        // The clients' own latency and digest vectors are not the
        // server's heap.
        let own: usize = parts
            .iter()
            .map(|p| p.as_ref().map_or(0, Replay::heap_bytes))
            .sum();
        total.held_heap = alloc::live()
            .saturating_sub(state.heap_base)
            .saturating_sub(own + total.heap_bytes());
        parts
    });
    for (s, part) in parts.into_iter().enumerate() {
        total.absorb(s, part?);
    }
    Ok(total)
}

/// A session on the phase-by-phase path: requests go through the
/// public calls `EvpServer::handle_bytes` is built from (`rpc` frame
/// encode/decode, `Request`/`Response` conversion, `EvpServer::handle`),
/// with a span around each phase.
struct PhaseSession {
    sid: i64,
    next_id: i64,
    digest: u32,
}

impl PhaseSession {
    fn open(server: &SharedEvpServer) -> Result<PhaseSession, String> {
        let opened = server
            .handle(&Request::new(1, "session/open", Value::Null))
            .ok_or("session/open got no response")?;
        let sid = match opened.outcome {
            Ok(v) => v.get("sessionId").and_then(Value::as_i64),
            Err(_) => None,
        }
        .ok_or("session/open failed")?;
        Ok(PhaseSession {
            sid,
            next_id: 1,
            digest: 0,
        })
    }

    fn issue(
        &mut self,
        out: &mut Replay,
        slot: usize,
        state: &ServeState,
        op: &Op,
        id: i64,
        spans: &mut Spans,
    ) {
        let m = op.method_index();
        let tag = METHODS[m];
        let params = state.tables.params(op, id);
        self.next_id += 1;
        let (sid, next_id) = (self.sid, self.next_id);
        let t0 = Instant::now();
        let root = spans.enter("request", tag);
        let frame = spans.time("client_encode", tag, || {
            let params = match params {
                Value::Object(mut map) => {
                    map.insert("sessionId".to_owned(), Value::Int(sid));
                    Value::Object(map)
                }
                other => other,
            };
            encode_frame(&Request::new(next_id, op.method(), params).to_value())
        });
        let request = spans.time("frame_decode", tag, || {
            decode_frame(&frame)
                .ok()
                .flatten()
                .and_then(|(value, _)| Request::from_value(&value).ok())
        });
        let response =
            request.and_then(|request| spans.time("handle", tag, || state.server.handle(&request)));
        let reply = response.map(|response| {
            let meta = response.meta;
            let bytes = spans.time("response_encode", tag, || {
                encode_frame(&response.to_value())
            });
            (bytes, meta)
        });
        let outcome = match reply {
            Some((bytes, meta)) => {
                if let Some(meta) = meta {
                    out.meta_wall_us[m].push(meta.wall_micros as f64);
                }
                spans.time("client_decode", tag, || match decode_frame(&bytes) {
                    Ok(Some((value, _))) => match Response::from_value(&value) {
                        Ok(r) => r
                            .outcome
                            .map_err(|(code, message)| IdeError::Rpc { code, message }),
                        Err(e) => Err(IdeError::Protocol(e)),
                    },
                    _ => Err(IdeError::Protocol("bad response frame".to_owned())),
                })
            }
            None => Err(IdeError::Protocol("request did not round-trip".to_owned())),
        };
        spans.exit(root);
        out.latency_us[m].push(t0.elapsed().as_nanos() as f64 / 1e3);
        out.attempted += 1;
        if !is_expected(op, &outcome) {
            out.failed += 1;
        }
        self.digest = fold(self.digest, &outcome);
        out.chains[slot].push(self.digest);
        out.completed[slot] += 1;
    }
}

/// The check replays, on one thread in lockstep: the first `counts[s]`
/// ops of every session, round-robin over sessions, each op issued once
/// through an `EditorClient` (the 1-client replay) and once through the
/// phase-by-phase path (the sequential replay). Alternating which path
/// goes first keeps drift in host speed from landing on one side, so
/// the two latencies can be compared. A mutating mix gives each path
/// its own fresh copy of the profile per session.
pub fn check_replay(
    state: &ServeState,
    counts: &[usize],
    spans: &mut Spans,
) -> Result<(Replay, Replay), String> {
    let client_ids = state.check_ids()?;
    let phase_ids = state.check_ids()?;
    let mut client = Replay::new(state.mixes.len());
    let mut phase = Replay::new(state.mixes.len());
    let mut clients = state
        .mixes
        .iter()
        .map(|_| Session::connect(&state.server))
        .collect::<Result<Vec<_>, _>>()?;
    let mut phased = state
        .mixes
        .iter()
        .map(|_| PhaseSession::open(&state.server))
        .collect::<Result<Vec<_>, _>>()?;
    for i in 0..counts.iter().copied().max().unwrap_or(0) {
        for s in 0..state.mixes.len() {
            if i >= counts[s] {
                continue;
            }
            let op = &state.mixes[s][i % state.mixes[s].len()];
            let mut via_client = |client: &mut Replay| {
                clients[s].issue(client, s, &state.tables, op, client_ids[s], true);
            };
            if (i + s) % 2 == 0 {
                via_client(&mut client);
                phased[s].issue(&mut phase, s, state, op, phase_ids[s], spans);
            } else {
                phased[s].issue(&mut phase, s, state, op, phase_ids[s], spans);
                via_client(&mut client);
            }
        }
    }
    Ok((client, phase))
}

/// The per-session digest after `count` ops, if the replay got there.
pub fn digest_at(replay: &Replay, session: usize, count: usize) -> Option<u32> {
    count
        .checked_sub(1)
        .and_then(|i| replay.chains[session].get(i).copied())
}

/// The shortest per-session op count, at least `floor`, at which every
/// one of the first `methods` [`METHODS`] appears at least `min` times
/// over all sessions' prefixes (capped at the mix length).
pub fn ops_covering(mixes: &[Vec<Op>], methods: usize, min: usize, floor: usize) -> usize {
    let len = mixes.iter().map(Vec::len).min().unwrap_or(0);
    let mut seen = vec![0usize; METHODS.len()];
    for i in 0..len {
        if i >= floor && seen[..methods].iter().all(|&c| c >= min) {
            return i;
        }
        for mix in mixes {
            seen[mix[i].method_index()] += 1;
        }
    }
    len
}
