//! JSON-RPC 2.0 messages with LSP-style `Content-Length` framing.
//!
//! LSP frames each message as
//! `Content-Length: N\r\n\r\n<N bytes of JSON>`; EVP reuses that
//! framing so existing editor plumbing (VSCode's `vscode-jsonrpc`,
//! JetBrains' LSP client) can carry it unchanged.

use ev_json::Value;

/// Standard JSON-RPC error codes used by EVP.
pub mod codes {
    /// The JSON was not a valid request object.
    pub const INVALID_REQUEST: i64 = -32600;
    /// Unknown method.
    pub const METHOD_NOT_FOUND: i64 = -32601;
    /// Missing or ill-typed params.
    pub const INVALID_PARAMS: i64 = -32602;
    /// Server-side failure while handling the request.
    pub const INTERNAL_ERROR: i64 = -32603;
    /// EVP: the referenced profile id is not loaded.
    pub const UNKNOWN_PROFILE: i64 = -32001;
    /// EVP: the referenced node/metric does not exist.
    pub const UNKNOWN_ENTITY: i64 = -32002;
    /// EVP: the session's in-flight request budget is exhausted; the
    /// client should back off and retry.
    pub const BUSY: i64 = -32003;
    /// EVP: the referenced session id is not open.
    pub const UNKNOWN_SESSION: i64 = -32004;
}

/// A request (or notification, when `id` is `None`).
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Request id; notifications have none.
    pub id: Option<i64>,
    /// Method name, e.g. `profile/codeLink`.
    pub method: String,
    /// Parameters object.
    pub params: Value,
}

impl Request {
    /// Builds a request.
    pub fn new(id: i64, method: impl Into<String>, params: Value) -> Request {
        Request {
            id: Some(id),
            method: method.into(),
            params,
        }
    }

    /// Serializes to a JSON value.
    pub fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("jsonrpc", Value::from("2.0")),
            ("method", Value::from(self.method.clone())),
            ("params", self.params.clone()),
        ];
        if let Some(id) = self.id {
            pairs.push(("id", Value::Int(id)));
        }
        Value::object(pairs)
    }

    /// Parses from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns a description when the value is not a request object.
    pub fn from_value(value: &Value) -> Result<Request, String> {
        let method = value
            .get("method")
            .and_then(Value::as_str)
            .ok_or("missing method")?
            .to_owned();
        let id = value.get("id").and_then(Value::as_i64);
        let params = value.get("params").cloned().unwrap_or(Value::Null);
        Ok(Request { id, method, params })
    }
}

/// Per-request observability attached to a [`Response`]: how long the
/// server spent on it and how many `ev-trace` spans it recorded. Editors
/// can surface this without a separate round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseMeta {
    /// Server-assigned monotone request sequence number (1-based;
    /// distinct from the client-chosen JSON-RPC id). Flight-recorder
    /// captures are keyed by method name + this sequence.
    pub request_seq: u64,
    /// Server-side wall time, microseconds.
    pub wall_micros: u64,
    /// Spans recorded while handling (0 when tracing is disabled).
    pub spans: u64,
}

/// A response: either a result or an error.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Mirrors the request id. `None` serializes as JSON-RPC `null` —
    /// the answer to a malformed request whose id could not be
    /// extracted.
    pub id: Option<i64>,
    /// `Ok(result)` or `Err((code, message))`.
    pub outcome: Result<Value, (i64, String)>,
    /// Optional per-request timing metadata.
    pub meta: Option<ResponseMeta>,
}

impl Response {
    /// A success response.
    pub fn ok(id: i64, result: Value) -> Response {
        Response {
            id: Some(id),
            outcome: Ok(result),
            meta: None,
        }
    }

    /// An error response.
    pub fn error(id: i64, code: i64, message: impl Into<String>) -> Response {
        Response {
            id: Some(id),
            outcome: Err((code, message.into())),
            meta: None,
        }
    }

    /// An error response for a request whose id may be unknown
    /// (malformed requests answer with a `null` id per JSON-RPC).
    pub fn error_for(id: Option<i64>, code: i64, message: impl Into<String>) -> Response {
        Response {
            id,
            outcome: Err((code, message.into())),
            meta: None,
        }
    }

    /// Attaches per-request metadata.
    pub fn with_meta(mut self, meta: ResponseMeta) -> Response {
        self.meta = Some(meta);
        self
    }

    /// Serializes to a JSON value.
    pub fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("jsonrpc", Value::from("2.0")),
            ("id", self.id.map_or(Value::Null, Value::Int)),
        ];
        match &self.outcome {
            Ok(result) => pairs.push(("result", result.clone())),
            Err((code, message)) => pairs.push((
                "error",
                Value::object([
                    ("code", Value::Int(*code)),
                    ("message", Value::from(message.clone())),
                ]),
            )),
        }
        if let Some(meta) = self.meta {
            pairs.push((
                "meta",
                Value::object([
                    ("requestSeq", Value::Int(meta.request_seq as i64)),
                    ("spans", Value::Int(meta.spans as i64)),
                    ("wallMicros", Value::Int(meta.wall_micros as i64)),
                ]),
            ));
        }
        Value::object(pairs)
    }

    /// Parses from a JSON value; see [`Response::try_from`], which
    /// takes the value by move and so avoids copying `result`.
    ///
    /// # Errors
    ///
    /// Returns a description when the value is not a response object.
    pub fn from_value(value: &Value) -> Result<Response, String> {
        Response::try_from(value.clone())
    }
}

impl TryFrom<Value> for Response {
    type Error = String;

    /// Parses a response, moving `result` out of `value` instead of
    /// cloning it (a flame-graph result is the bulk of its frame).
    ///
    /// # Errors
    ///
    /// Returns a description when the value is not a response object.
    fn try_from(value: Value) -> Result<Response, String> {
        let Value::Object(mut map) = value else {
            return Err("missing result".to_owned());
        };
        let id = map.get("id").and_then(Value::as_i64);
        let meta = map.get("meta").map(|m| ResponseMeta {
            request_seq: m
                .get("requestSeq")
                .and_then(Value::as_i64)
                .unwrap_or(0)
                .max(0) as u64,
            wall_micros: m
                .get("wallMicros")
                .and_then(Value::as_i64)
                .unwrap_or(0)
                .max(0) as u64,
            spans: m.get("spans").and_then(Value::as_i64).unwrap_or(0).max(0) as u64,
        });
        if let Some(err) = map.get("error") {
            let code = err.get("code").and_then(Value::as_i64).unwrap_or(0);
            let message = err
                .get("message")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_owned();
            let mut response = Response::error_for(id, code, message);
            response.meta = meta;
            return Ok(response);
        }
        let result = map.remove("result").ok_or("missing result")?;
        let id = id.ok_or("missing id")?;
        let mut response = Response::ok(id, result);
        response.meta = meta;
        Ok(response)
    }
}

/// Frames a JSON payload with a `Content-Length` header.
pub fn encode_frame(payload: &Value) -> Vec<u8> {
    frame_parts(&[ev_json::to_string(payload).as_bytes()])
}

/// Frames the success response to request `id` whose `result` is the
/// already-encoded JSON `result`, splicing those bytes in instead of
/// building and encoding a tree. The frame is byte-identical to
/// `encode_frame` of the same response: objects serialize with sorted
/// keys, and `result` sorts after `id`, `jsonrpc` and `meta`, so it is
/// the envelope's last member.
pub fn encode_result_frame(id: i64, meta: Option<ResponseMeta>, result: &str) -> Vec<u8> {
    let mut head = Response::ok(id, Value::Null);
    head.meta = meta;
    let envelope = ev_json::to_string(&head.to_value());
    let open = envelope
        .strip_suffix("null}")
        .expect("result is the envelope's last member");
    frame_parts(&[open.as_bytes(), result.as_bytes(), b"}"])
}

/// One frame whose body is `parts` back to back.
fn frame_parts(parts: &[&[u8]]) -> Vec<u8> {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let header = format!("Content-Length: {len}\r\n\r\n");
    let mut out = Vec::with_capacity(header.len() + len);
    out.extend_from_slice(header.as_bytes());
    for part in parts {
        out.extend_from_slice(part);
    }
    out
}

/// Decodes one frame from the front of `input`, returning the payload
/// and the bytes consumed, or `None` when the buffer does not yet hold a
/// complete frame.
///
/// # Errors
///
/// Returns a description on malformed headers or JSON.
pub fn decode_frame(input: &[u8]) -> Result<Option<(Value, usize)>, String> {
    let header_end = match find_subslice(input, b"\r\n\r\n") {
        Some(i) => i,
        None => return Ok(None),
    };
    let header = std::str::from_utf8(&input[..header_end]).map_err(|_| "non-utf8 header")?;
    let mut length: Option<usize> = None;
    for line in header.split("\r\n") {
        if let Some(rest) = line.strip_prefix("Content-Length:") {
            length = Some(
                rest.trim()
                    .parse()
                    .map_err(|_| "bad Content-Length value")?,
            );
        }
    }
    let length = length.ok_or("missing Content-Length header")?;
    let body_start = header_end + 4;
    if input.len() < body_start + length {
        return Ok(None);
    }
    let body = std::str::from_utf8(&input[body_start..body_start + length])
        .map_err(|_| "non-utf8 body")?;
    let value = ev_json::parse(body).map_err(|e| e.to_string())?;
    Ok(Some((value, body_start + length)))
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request::new(7, "profile/open", Value::object([("name", Value::from("x"))]));
        let parsed = Request::from_value(&req.to_value()).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn notification_has_no_id() {
        let note = Request {
            id: None,
            method: "initialized".to_owned(),
            params: Value::Null,
        };
        let value = note.to_value();
        assert!(value.get("id").is_none());
        assert_eq!(Request::from_value(&value).unwrap().id, None);
    }

    #[test]
    fn response_roundtrips() {
        let ok = Response::ok(1, Value::Int(42));
        assert_eq!(Response::from_value(&ok.to_value()).unwrap(), ok);
        let err = Response::error(2, codes::METHOD_NOT_FOUND, "nope");
        assert_eq!(Response::from_value(&err.to_value()).unwrap(), err);
    }

    #[test]
    fn null_id_error_response_roundtrips() {
        let err = Response::error_for(None, codes::INVALID_REQUEST, "malformed");
        let value = err.to_value();
        assert_eq!(value.get("id"), Some(&Value::Null), "null id on the wire");
        assert_eq!(Response::from_value(&value).unwrap(), err);
        // A success response without an id stays malformed, as does a
        // value that is no object at all.
        let bad = Value::object([("jsonrpc", Value::from("2.0")), ("result", Value::Int(1))]);
        assert!(Response::from_value(&bad).is_err());
        assert!(Response::try_from(Value::Int(1)).is_err());
    }

    #[test]
    fn response_meta_roundtrips() {
        let meta = ResponseMeta {
            request_seq: 41,
            wall_micros: 1234,
            spans: 7,
        };
        let ok = Response::ok(5, Value::Int(1)).with_meta(meta);
        let value = ok.to_value();
        assert_eq!(
            value.get("meta").and_then(|m| m.get("wallMicros")),
            Some(&Value::Int(1234))
        );
        assert_eq!(
            value.get("meta").and_then(|m| m.get("requestSeq")),
            Some(&Value::Int(41))
        );
        assert_eq!(Response::from_value(&value).unwrap(), ok);
        let err = Response::error(6, codes::INTERNAL_ERROR, "boom").with_meta(meta);
        assert_eq!(Response::from_value(&err.to_value()).unwrap(), err);
    }

    #[test]
    fn result_frames_splice_like_tree_frames() {
        let result = Value::object([
            ("rects", Value::array([Value::Float(1.0), Value::Int(-2)])),
            ("label", Value::from("a\"b✓")),
        ]);
        let body = ev_json::to_string(&result);
        for meta in [
            None,
            Some(ResponseMeta {
                request_seq: 12,
                wall_micros: 345,
                spans: 6,
            }),
        ] {
            let mut response = Response::ok(7, result.clone());
            response.meta = meta;
            assert_eq!(
                encode_result_frame(7, meta, &body),
                encode_frame(&response.to_value())
            );
        }
    }

    #[test]
    fn frame_roundtrip() {
        let value = Value::object([("k", Value::from("v"))]);
        let frame = encode_frame(&value);
        let (decoded, used) = decode_frame(&frame).unwrap().unwrap();
        assert_eq!(decoded, value);
        assert_eq!(used, frame.len());
    }

    #[test]
    fn partial_frames_wait() {
        let value = Value::object([("k", Value::from("v"))]);
        let frame = encode_frame(&value);
        for cut in 0..frame.len() {
            assert_eq!(decode_frame(&frame[..cut]).unwrap(), None, "cut {cut}");
        }
    }

    #[test]
    fn two_frames_in_one_buffer() {
        let a = Value::Int(1);
        let b = Value::Int(2);
        let mut buf = encode_frame(&a);
        buf.extend_from_slice(&encode_frame(&b));
        let (first, used) = decode_frame(&buf).unwrap().unwrap();
        assert_eq!(first, a);
        let (second, used2) = decode_frame(&buf[used..]).unwrap().unwrap();
        assert_eq!(second, b);
        assert_eq!(used + used2, buf.len());
    }

    #[test]
    fn malformed_frames_error() {
        assert!(decode_frame(b"Content-Length: x\r\n\r\n{}").is_err());
        assert!(decode_frame(b"No-Header: 1\r\n\r\n{}").is_err());
        assert!(decode_frame(b"Content-Length: 2\r\n\r\n{]").is_err());
    }

    #[test]
    fn multiple_headers_tolerated() {
        let buf = b"Content-Type: application/evp\r\nContent-Length: 4\r\n\r\nnull";
        let (v, _) = decode_frame(buf).unwrap().unwrap();
        assert!(v.is_null());
    }
}
