//! An in-memory editor client — the stand-in for the VSCode extension
//! front end.
//!
//! The client talks to [`EvpServer`] over the byte-level framed
//! transport (the same wire format a real editor process would use) and
//! maintains a tiny editor model: which file is open, which line is
//! highlighted, which code lenses are displayed. Integration tests and
//! the user-study cost model drive this client exactly the way Fig. 4's
//! steps ①–④ describe: select a frame → histogram → right-click →
//! code link → hover.

use crate::rpc::{decode_frame, encode_frame, Request, Response, ResponseMeta};
use crate::server::{profile_to_param, EvpServer, SharedEvpServer};
use crate::IdeError;
use ev_core::{NodeId, Profile};
use ev_json::Value;
use std::sync::Arc;

/// The simulated editor surface the EVP actions drive.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EditorState {
    /// File currently open in the source pane.
    pub open_file: Option<String>,
    /// Line currently highlighted by a code link.
    pub highlighted_line: Option<u32>,
    /// Code lenses displayed in the open file: `(line, text)`.
    pub lenses: Vec<(u32, String)>,
}

/// A flame rectangle as reported over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct RectInfo {
    /// Server-side node handle.
    pub node: i64,
    /// Row index.
    pub depth: usize,
    /// Left edge in `[0, 1]`.
    pub x: f64,
    /// Width in `[0, 1]`.
    pub width: f64,
    /// Display label.
    pub label: String,
    /// Inclusive value.
    pub value: f64,
    /// Exclusive value.
    pub self_value: f64,
    /// Whether a code link is available.
    pub mapped: bool,
}

/// An editor client connected to an in-process [`EvpServer`].
#[derive(Debug)]
pub struct EditorClient {
    server: SharedEvpServer,
    next_id: i64,
    editor: EditorState,
    last_meta: Option<ResponseMeta>,
    /// Server-issued session id ([`EditorClient::connect_shared`]);
    /// attached to every outgoing request so the server can enforce
    /// the per-session in-flight budget.
    session_id: Option<i64>,
}

impl EditorClient {
    /// Connects to `server` (in-process; the bytes still go through the
    /// full frame encode/decode path).
    pub fn connect(server: EvpServer) -> EditorClient {
        EditorClient {
            server: SharedEvpServer {
                inner: Arc::new(server),
            },
            next_id: 0,
            editor: EditorState::default(),
            last_meta: None,
            session_id: None,
        }
    }

    /// Connects to a shared server and opens a server-side session:
    /// the returned client tags every request with its `sessionId`, so
    /// the server's per-session in-flight budget applies. Many clients
    /// (one per editor window or thread) can connect to the same
    /// [`SharedEvpServer`]; they see the same profile table and share
    /// the memoized view cache.
    ///
    /// # Errors
    ///
    /// Fails if `session/open` fails.
    pub fn connect_shared(server: SharedEvpServer) -> Result<EditorClient, IdeError> {
        let mut client = EditorClient {
            server,
            next_id: 0,
            editor: EditorState::default(),
            last_meta: None,
            session_id: None,
        };
        let opened = client.request("session/open", Value::Null)?;
        client.session_id = Some(
            opened
                .get("sessionId")
                .and_then(Value::as_i64)
                .ok_or_else(|| IdeError::Protocol("missing sessionId".to_owned()))?,
        );
        Ok(client)
    }

    /// The server-issued session id, if connected via
    /// [`EditorClient::connect_shared`].
    pub fn session_id(&self) -> Option<i64> {
        self.session_id
    }

    /// The simulated editor state.
    pub fn editor(&self) -> &EditorState {
        &self.editor
    }

    /// The `meta` block of the most recent response: the server's
    /// request sequence number, wall time, and span count. `None`
    /// before the first request.
    pub fn last_meta(&self) -> Option<ResponseMeta> {
        self.last_meta
    }

    /// Sends one request over the framed transport and decodes the
    /// response.
    ///
    /// # Errors
    ///
    /// Fails on transport corruption or a server-side error response.
    pub fn request(&mut self, method: &str, params: Value) -> Result<Value, IdeError> {
        self.next_id += 1;
        let params = match self.session_id {
            Some(sid) => with_session_id(params, sid),
            None => params,
        };
        let request = Request::new(self.next_id, method, params);
        let frame = encode_frame(&request.to_value());
        let (reply, consumed) = self
            .server
            .handle_bytes(&frame)
            .map_err(IdeError::Protocol)?;
        if consumed != frame.len() {
            return Err(IdeError::Protocol("server did not consume frame".to_owned()));
        }
        let (value, _) = decode_frame(&reply)
            .map_err(IdeError::Protocol)?
            .ok_or_else(|| IdeError::Protocol("no response frame".to_owned()))?;
        let response = Response::try_from(value).map_err(IdeError::Protocol)?;
        self.last_meta = response.meta;
        match response.outcome {
            Ok(result) => Ok(result),
            Err((code, message)) => Err(IdeError::Rpc { code, message }),
        }
    }

    /// Fetches the server's flight recorder (`debug/flightRecorder`).
    /// `export` optionally asks for the retained spans rendered as
    /// `"chrome"` trace JSON or an `"easyview"` profile envelope.
    ///
    /// # Errors
    ///
    /// Propagates server errors (e.g. an unknown export format).
    pub fn flight_recorder(&mut self, export: Option<&str>) -> Result<Value, IdeError> {
        let params = match export {
            Some(format) => Value::object([("export", Value::from(format))]),
            None => Value::object(Vec::<(&str, Value)>::new()),
        };
        self.request("debug/flightRecorder", params)
    }

    /// Opens a profile on the server, returning its handle.
    ///
    /// # Errors
    ///
    /// Propagates server errors.
    pub fn open_profile(&mut self, profile: &Profile) -> Result<i64, IdeError> {
        let result = self.request("profile/open", profile_to_param(profile))?;
        result
            .get("profileId")
            .and_then(Value::as_i64)
            .ok_or_else(|| IdeError::Protocol("missing profileId".to_owned()))
    }

    /// Requests a flame-graph layout (`view` ∈ topDown|bottomUp|flat).
    ///
    /// # Errors
    ///
    /// Propagates server errors.
    pub fn flame_graph(
        &mut self,
        profile_id: i64,
        view: &str,
        metric: &str,
    ) -> Result<Vec<RectInfo>, IdeError> {
        let result = self.request(
            "profile/flameGraph",
            Value::object([
                ("profileId", Value::Int(profile_id)),
                ("view", Value::from(view)),
                ("metric", Value::from(metric)),
            ]),
        )?;
        let rects = result
            .get("rects")
            .and_then(Value::as_array)
            .ok_or_else(|| IdeError::Protocol("missing rects".to_owned()))?;
        Ok(rects
            .iter()
            .map(|r| RectInfo {
                node: r.get("node").and_then(Value::as_i64).unwrap_or(-1),
                depth: r.get("depth").and_then(Value::as_i64).unwrap_or(0) as usize,
                x: r.get("x").and_then(Value::as_f64).unwrap_or(0.0),
                width: r.get("width").and_then(Value::as_f64).unwrap_or(0.0),
                label: r
                    .get("label")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_owned(),
                value: r.get("value").and_then(Value::as_f64).unwrap_or(0.0),
                self_value: r.get("self").and_then(Value::as_f64).unwrap_or(0.0),
                mapped: r.get("mapped").and_then(Value::as_bool).unwrap_or(false),
            })
            .collect())
    }

    /// The mandatory code-link action: resolves `node` and moves the
    /// simulated editor to the target file/line.
    ///
    /// # Errors
    ///
    /// Propagates server errors (e.g. the frame has no source mapping).
    pub fn code_link(&mut self, profile_id: i64, node: i64) -> Result<(), IdeError> {
        let result = self.request(
            "profile/codeLink",
            Value::object([
                ("profileId", Value::Int(profile_id)),
                ("node", Value::Int(node)),
            ]),
        )?;
        let file = result
            .get("file")
            .and_then(Value::as_str)
            .ok_or_else(|| IdeError::Protocol("missing file".to_owned()))?
            .to_owned();
        let line = result.get("line").and_then(Value::as_i64).unwrap_or(0) as u32;
        // Opening a file refreshes its code lenses, like a real editor.
        let lenses = self.code_lens(profile_id, &file)?;
        self.editor.open_file = Some(file);
        self.editor.highlighted_line = Some(line);
        self.editor.lenses = lenses;
        Ok(())
    }

    /// Fetches code lenses for `file`.
    ///
    /// # Errors
    ///
    /// Propagates server errors.
    pub fn code_lens(
        &mut self,
        profile_id: i64,
        file: &str,
    ) -> Result<Vec<(u32, String)>, IdeError> {
        let result = self.request(
            "profile/codeLens",
            Value::object([
                ("profileId", Value::Int(profile_id)),
                ("file", Value::from(file)),
            ]),
        )?;
        Ok(result
            .get("lenses")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|l| {
                (
                    l.get("line").and_then(Value::as_i64).unwrap_or(0) as u32,
                    l.get("text").and_then(Value::as_str).unwrap_or("").to_owned(),
                )
            })
            .collect())
    }

    /// Hover contents for a source position.
    ///
    /// # Errors
    ///
    /// Propagates server errors.
    pub fn hover(
        &mut self,
        profile_id: i64,
        file: &str,
        line: u32,
    ) -> Result<Vec<String>, IdeError> {
        let result = self.request(
            "profile/hover",
            Value::object([
                ("profileId", Value::Int(profile_id)),
                ("file", Value::from(file)),
                ("line", Value::Int(i64::from(line))),
            ]),
        )?;
        Ok(result
            .get("contents")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|v| v.as_str().map(str::to_owned))
            .collect())
    }

    /// The floating-window summary.
    ///
    /// # Errors
    ///
    /// Propagates server errors.
    pub fn summary(&mut self, profile_id: i64) -> Result<Value, IdeError> {
        self.request(
            "profile/summary",
            Value::object([("profileId", Value::Int(profile_id))]),
        )
    }

    /// Searches frames by name substring: the (node, label) matches the
    /// server lists, and how many more it left out past its cap (0 for
    /// a complete answer).
    ///
    /// # Errors
    ///
    /// Propagates server errors.
    pub fn search(
        &mut self,
        profile_id: i64,
        query: &str,
    ) -> Result<(Vec<(i64, String)>, usize), IdeError> {
        let result = self.request(
            "profile/search",
            Value::object([
                ("profileId", Value::Int(profile_id)),
                ("query", Value::from(query)),
            ]),
        )?;
        let matches = result
            .get("matches")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|m| {
                (
                    m.get("node").and_then(Value::as_i64).unwrap_or(-1),
                    m.get("label").and_then(Value::as_str).unwrap_or("").to_owned(),
                )
            })
            .collect();
        let truncated = result.get("truncated").and_then(Value::as_i64).unwrap_or(0);
        Ok((matches, usize::try_from(truncated).unwrap_or(0)))
    }

    /// Aggregates several opened profiles into a new server-side
    /// profile (§V-A-c), returning its handle.
    ///
    /// # Errors
    ///
    /// Propagates server errors.
    pub fn aggregate_profiles(
        &mut self,
        profile_ids: &[i64],
        metric: &str,
    ) -> Result<i64, IdeError> {
        let result = self.request(
            "profile/aggregate",
            Value::object([
                (
                    "profileIds",
                    profile_ids.iter().map(|&id| Value::Int(id)).collect(),
                ),
                ("metric", Value::from(metric)),
            ]),
        )?;
        result
            .get("profileId")
            .and_then(Value::as_i64)
            .ok_or_else(|| IdeError::Protocol("missing profileId".to_owned()))
    }

    /// Differentiates two opened profiles, returning the union profile's
    /// handle and the per-tag context counts.
    ///
    /// # Errors
    ///
    /// Propagates server errors.
    pub fn diff_profiles(
        &mut self,
        base_id: i64,
        other_id: i64,
        metric: &str,
    ) -> Result<(i64, Vec<(String, i64)>), IdeError> {
        let result = self.request(
            "profile/diff",
            Value::object([
                ("baseId", Value::Int(base_id)),
                ("otherId", Value::Int(other_id)),
                ("metric", Value::from(metric)),
            ]),
        )?;
        let id = result
            .get("profileId")
            .and_then(Value::as_i64)
            .ok_or_else(|| IdeError::Protocol("missing profileId".to_owned()))?;
        let tags = result
            .get("tags")
            .and_then(Value::as_object)
            .map(|map| {
                map.iter()
                    .map(|(k, v)| (k.clone(), v.as_i64().unwrap_or(0)))
                    .collect()
            })
            .unwrap_or_default();
        Ok((id, tags))
    }

    /// Fetches an aggregate node's per-profile value series and its
    /// timeline classification (the Fig. 4 hover histogram).
    ///
    /// # Errors
    ///
    /// Propagates server errors (e.g. the profile is not an aggregate).
    pub fn histogram(
        &mut self,
        profile_id: i64,
        node: i64,
    ) -> Result<(Vec<f64>, String), IdeError> {
        let result = self.request(
            "profile/histogram",
            Value::object([
                ("profileId", Value::Int(profile_id)),
                ("node", Value::Int(node)),
            ]),
        )?;
        let series = result
            .get("series")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(Value::as_f64)
            .collect();
        let pattern = result
            .get("pattern")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_owned();
        Ok((series, pattern))
    }

    /// Runs an EVscript in the server-side programming pane.
    ///
    /// # Errors
    ///
    /// Propagates script and server errors.
    pub fn run_script(&mut self, profile_id: i64, source: &str) -> Result<String, IdeError> {
        let result = self.request(
            "profile/script",
            Value::object([
                ("profileId", Value::Int(profile_id)),
                ("source", Value::from(source)),
            ]),
        )?;
        Ok(result
            .get("stdout")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_owned())
    }
}

/// Returns `params` with `sessionId` attached; `Null` params become a
/// fresh object. An explicit `sessionId` already in `params` wins.
fn with_session_id(params: Value, sid: i64) -> Value {
    match params {
        Value::Object(mut map) => {
            map.entry("sessionId".to_owned()).or_insert(Value::Int(sid));
            Value::Object(map)
        }
        Value::Null => Value::object([("sessionId", Value::Int(sid))]),
        other => other,
    }
}

/// Helper for NodeId-based call sites in tests.
impl EditorClient {
    /// Like [`EditorClient::code_link`] for a strongly-typed node id.
    ///
    /// # Errors
    ///
    /// Propagates server errors.
    pub fn code_link_node(&mut self, profile_id: i64, node: NodeId) -> Result<(), IdeError> {
        self.code_link(profile_id, node.index() as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SEARCH_CAP;
    use ev_core::{Frame, MetricDescriptor, MetricKind, MetricUnit};

    fn demo_profile() -> Profile {
        let mut p = Profile::new("grpc-client");
        p.meta_mut().profiler = "pprof".to_owned();
        let alloc = p.add_metric(MetricDescriptor::new(
            "alloc_space",
            MetricUnit::Bytes,
            MetricKind::Exclusive,
        ));
        p.add_sample(
            &[
                Frame::function("main").with_source("main.go", 12),
                Frame::function("newBufWriter").with_source("transport.go", 88),
            ],
            &[(alloc, 8192.0)],
        );
        p.add_sample(
            &[
                Frame::function("main").with_source("main.go", 12),
                Frame::function("passthrough").with_source("resolver.go", 30),
            ],
            &[(alloc, 100.0)],
        );
        p
    }

    #[test]
    fn full_session_fig4_steps() {
        let mut client = EditorClient::connect(EvpServer::new());
        let id = client.open_profile(&demo_profile()).unwrap();

        // ① select a frame in the flame graph
        let rects = client.flame_graph(id, "topDown", "alloc_space").unwrap();
        let frame = rects.iter().find(|r| r.label == "newBufWriter").unwrap();
        assert!(frame.mapped);
        assert_eq!(frame.value, 8192.0);

        // ③ right-click → code link opens the source
        client.code_link(id, frame.node).unwrap();
        assert_eq!(client.editor().open_file.as_deref(), Some("transport.go"));
        assert_eq!(client.editor().highlighted_line, Some(88));
        // Code lenses for the opened file carry the metric.
        assert_eq!(client.editor().lenses.len(), 1);
        assert!(client.editor().lenses[0].1.contains("alloc_space"));

        // ④ hover on the highlighted line shows detailed metrics
        let hover = client.hover(id, "transport.go", 88).unwrap();
        assert_eq!(hover, ["alloc_space: 8.00 KiB"]);
    }

    #[test]
    fn bottom_up_and_flat_views_over_the_wire() {
        let mut client = EditorClient::connect(EvpServer::new());
        let id = client.open_profile(&demo_profile()).unwrap();
        let bu = client.flame_graph(id, "bottomUp", "alloc_space").unwrap();
        assert!(bu.iter().any(|r| r.label == "newBufWriter" && r.depth == 1));
        let flat = client.flame_graph(id, "flat", "alloc_space").unwrap();
        assert!(flat.iter().any(|r| r.label == "(unknown module)"));
        assert!(client.flame_graph(id, "sideways", "alloc_space").is_err());
    }

    #[test]
    fn search_and_summary() {
        let mut client = EditorClient::connect(EvpServer::new());
        let id = client.open_profile(&demo_profile()).unwrap();
        let (hits, truncated) = client.search(id, "buf").unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, "newBufWriter");
        assert_eq!(truncated, 0);
        // Past the server's cap the client reports what it left out.
        let mut wide = Profile::new("wide");
        let m = wide.add_metric(MetricDescriptor::new(
            "cpu",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ));
        for i in 0..SEARCH_CAP {
            wide.add_sample(
                &[Frame::function("main"), Frame::function(format!("f{i}"))],
                &[(m, 1.0)],
            );
        }
        let wide = client.open_profile(&wide).unwrap();
        let (hits, truncated) = client.search(wide, "").unwrap();
        assert_eq!((hits.len(), truncated), (SEARCH_CAP, 2));
        let summary = client.summary(id).unwrap();
        assert_eq!(summary.get("nodes").and_then(Value::as_i64), Some(4));
        let hottest = summary.get("hottest").unwrap().as_array().unwrap();
        assert_eq!(
            hottest[0].get("label").and_then(Value::as_str),
            Some("newBufWriter")
        );
    }

    #[test]
    fn script_pane_over_the_wire() {
        let mut client = EditorClient::connect(EvpServer::new());
        let id = client.open_profile(&demo_profile()).unwrap();
        let out = client
            .run_script(id, "print(\"total:\", total(\"alloc_space\"));")
            .unwrap();
        assert_eq!(out, "total: 8292\n");
        // Script errors surface as RPC errors.
        let err = client.run_script(id, "syntax error(").unwrap_err();
        assert!(matches!(err, IdeError::Rpc { .. }));
    }

    #[test]
    fn code_link_without_mapping_is_an_error() {
        let mut p = Profile::new("unmapped");
        let m = p.add_metric(MetricDescriptor::new(
            "cpu",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ));
        p.add_sample(&[Frame::function("mystery")], &[(m, 1.0)]);
        let mut client = EditorClient::connect(EvpServer::new());
        let id = client.open_profile(&p).unwrap();
        let rects = client.flame_graph(id, "topDown", "cpu").unwrap();
        let frame = rects.iter().find(|r| r.label == "mystery").unwrap();
        assert!(!frame.mapped);
        let err = client.code_link(id, frame.node).unwrap_err();
        assert!(matches!(err, IdeError::Rpc { code, .. } if code == crate::rpc::codes::UNKNOWN_ENTITY));
        // Editor state untouched on failure.
        assert_eq!(client.editor().open_file, None);
    }

    #[test]
    fn task_iii_over_the_wire() {
        // The control-group Task III: open snapshot profiles, aggregate
        // them, read per-context histograms, classify timelines — all
        // through the protocol.
        let mut client = EditorClient::connect(EvpServer::new());
        let mut ids = Vec::new();
        // Ten snapshots: "leaky" grows monotonically, "ok" drains.
        for k in 0..10u32 {
            let mut p = Profile::new(format!("snap{k}"));
            let m = p.add_metric(MetricDescriptor::new(
                "inuse",
                MetricUnit::Bytes,
                MetricKind::Exclusive,
            ));
            p.add_sample(
                &[Frame::function("main"), Frame::function("leaky")],
                &[(m, f64::from(k + 1) * 100.0)],
            );
            p.add_sample(
                &[Frame::function("main"), Frame::function("ok")],
                &[(m, f64::from(9 - k) * 100.0)],
            );
            ids.push(client.open_profile(&p).unwrap());
        }
        let agg_id = client.aggregate_profiles(&ids, "inuse").unwrap();
        let rects = client.flame_graph(agg_id, "topDown", "inuse/sum").unwrap();
        let leaky = rects.iter().find(|r| r.label == "leaky").unwrap();
        let ok = rects.iter().find(|r| r.label == "ok").unwrap();
        let (series, pattern) = client.histogram(agg_id, leaky.node).unwrap();
        assert_eq!(series.len(), 10);
        assert_eq!(pattern, "potential-leak");
        let (_, pattern) = client.histogram(agg_id, ok.node).unwrap();
        assert_eq!(pattern, "reclaimed");
        // Histogram on a non-aggregate profile is a clean error.
        let err = client.histogram(ids[0], 0).unwrap_err();
        assert!(matches!(err, IdeError::Rpc { .. }));
    }

    #[test]
    fn diff_over_the_wire() {
        let mut client = EditorClient::connect(EvpServer::new());
        let build = |name: &str, f: &str, v: f64| {
            let mut p = Profile::new(name);
            let m = p.add_metric(MetricDescriptor::new(
                "cpu",
                MetricUnit::Count,
                MetricKind::Exclusive,
            ));
            p.add_sample(&[Frame::function("main"), Frame::function(f)], &[(m, v)]);
            p
        };
        let base = client.open_profile(&build("p1", "old_path", 10.0)).unwrap();
        let other = client.open_profile(&build("p2", "new_path", 4.0)).unwrap();
        let (diff_id, tags) = client.diff_profiles(base, other, "cpu").unwrap();
        let tag = |name: &str| tags.iter().find(|(k, _)| k == name).map(|&(_, v)| v);
        assert_eq!(tag("added"), Some(1));
        assert_eq!(tag("deleted"), Some(1));
        // The diff profile serves views over its before/after channels.
        let rects = client.flame_graph(diff_id, "topDown", "after").unwrap();
        assert!(rects.iter().any(|r| r.label == "new_path"));
        let rects = client.flame_graph(diff_id, "topDown", "before").unwrap();
        assert!(rects.iter().any(|r| r.label == "old_path"));
        // Mismatched metric reports which side.
        let err = client.diff_profiles(base, 9999, "cpu").unwrap_err();
        assert!(matches!(err, IdeError::Rpc { .. }));
    }

    #[test]
    fn correlated_view_over_the_wire() {
        // Fig. 7 through the protocol, on the LULESH reuse workload.
        let reuse = ev_gen::lulesh::reuse_profile(5);
        let mut client = EditorClient::connect(EvpServer::new());
        let id = client.open_profile(&reuse.profile).unwrap();
        let pane0 = client
            .request(
                "profile/correlated",
                Value::object([
                    ("profileId", Value::Int(id)),
                    ("metric", Value::from("alloc_bytes")),
                    ("kind", Value::from("useReuse")),
                    ("position", Value::Int(0)),
                ]),
            )
            .unwrap();
        let endpoints = pane0.get("endpoints").unwrap().as_array().unwrap();
        assert_eq!(endpoints.len(), 8, "one allocation per array");
        let first = endpoints[0].get("node").and_then(Value::as_i64).unwrap();
        // Select the first allocation; pane 1 shows its single use.
        let pane1 = client
            .request(
                "profile/correlated",
                Value::object([
                    ("profileId", Value::Int(id)),
                    ("metric", Value::from("alloc_bytes")),
                    ("position", Value::Int(1)),
                    ("selection", Value::array([Value::Int(first)])),
                ]),
            )
            .unwrap();
        assert_eq!(
            pane1.get("endpoints").unwrap().as_array().unwrap().len(),
            1
        );
        let rects = pane1.get("rects").unwrap().as_array().unwrap();
        assert!(rects
            .iter()
            .any(|r| r.get("label").and_then(Value::as_str) == Some("CalcVolumeForceForElems")));
        // Unknown link kind errors cleanly.
        let err = client
            .request(
                "profile/correlated",
                Value::object([
                    ("profileId", Value::Int(id)),
                    ("metric", Value::from("alloc_bytes")),
                    ("kind", Value::from("sideways")),
                ]),
            )
            .unwrap_err();
        assert!(matches!(err, IdeError::Rpc { .. }));
    }

    #[test]
    fn last_meta_and_flight_recorder_helper() {
        let mut client = EditorClient::connect(EvpServer::new());
        assert!(client.last_meta().is_none());
        let id = client.open_profile(&demo_profile()).unwrap();
        let meta = client.last_meta().unwrap();
        assert_eq!(meta.request_seq, 1);
        // A failing request is captured even with tracing off — span
        // tree empty, but method/reason/wall time retained.
        let err = client.code_link(id, 9999).unwrap_err();
        assert!(matches!(err, IdeError::Rpc { .. }));
        assert_eq!(client.last_meta().unwrap().request_seq, 2);
        let report = client.flight_recorder(None).unwrap();
        let captures = report.get("captures").unwrap().as_array().unwrap();
        assert_eq!(captures.len(), 1);
        assert_eq!(
            captures[0].get("method").and_then(Value::as_str),
            Some("profile/codeLink")
        );
        assert_eq!(
            captures[0].get("reason").and_then(Value::as_str),
            Some("error")
        );
        assert_eq!(client.last_meta().unwrap().request_seq, 3);
    }

    #[test]
    fn shared_clients_share_profiles_and_sessions() {
        let server = SharedEvpServer::new();
        let mut alice = EditorClient::connect_shared(server.clone()).unwrap();
        let mut bob = EditorClient::connect_shared(server.clone()).unwrap();
        assert_ne!(alice.session_id(), bob.session_id());
        assert_eq!(server.session_count(), 2);
        // Profiles opened by one client are visible to the other — it
        // is one shared profile table.
        let id = alice.open_profile(&demo_profile()).unwrap();
        let rects = bob.flame_graph(id, "topDown", "alloc_space").unwrap();
        assert!(rects.iter().any(|r| r.label == "newBufWriter"));
        // Both clients can drive sessions concurrently from threads.
        std::thread::scope(|s| {
            for _ in 0..2 {
                let server = server.clone();
                s.spawn(move || {
                    let mut client = EditorClient::connect_shared(server).unwrap();
                    let summary = client.summary(id).unwrap();
                    assert_eq!(summary.get("nodes").and_then(Value::as_i64), Some(4));
                });
            }
        });
        // A closed session is refused afterward.
        let sid = bob.session_id().unwrap();
        bob.request(
            "session/close",
            Value::object([("sessionId", Value::Int(sid))]),
        )
        .unwrap();
        let err = bob.summary(id).unwrap_err();
        assert!(
            matches!(err, IdeError::Rpc { code, .. } if code == crate::rpc::codes::UNKNOWN_SESSION)
        );
    }

    #[test]
    fn multiple_profiles_coexist() {
        let mut client = EditorClient::connect(EvpServer::new());
        let id1 = client.open_profile(&demo_profile()).unwrap();
        let id2 = client.open_profile(&demo_profile()).unwrap();
        assert_ne!(id1, id2);
        assert!(client.flame_graph(id1, "topDown", "alloc_space").is_ok());
        client
            .request(
                "profile/close",
                Value::object([("profileId", Value::Int(id1))]),
            )
            .unwrap();
        assert!(client.flame_graph(id1, "topDown", "alloc_space").is_err());
        assert!(client.flame_graph(id2, "topDown", "alloc_space").is_ok());
    }
}
