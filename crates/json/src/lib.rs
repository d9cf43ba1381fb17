//! `ev-json` — a from-scratch JSON (RFC 8259) parser and serializer, the
//! substrate for EasyView's JSON-based profile bindings and its IDE
//! protocol.
//!
//! Several profilers the paper's data-binding layer supports (§IV-B)
//! serialize profiles as JSON: the Chrome profiler, speedscope,
//! pyinstrument, and Scalene. EasyView's IDE integration protocol
//! (`ev-ide`) is JSON-RPC, like the Language Server Protocol that
//! inspired it (§VI-B). This crate provides the common JSON layer:
//! a recursive-descent parser producing a [`Value`] tree, and a
//! serializer with compact and pretty modes. The serializer's number and
//! string writers ([`write_int`], [`write_float`], [`write_string`]) are
//! public, so a caller can write a large document straight into text,
//! byte-identical to [`to_string`] of the same tree.
//!
//! # Examples
//!
//! ```
//! use ev_json::Value;
//!
//! # fn main() -> Result<(), ev_json::JsonError> {
//! let v = ev_json::parse(r#"{"name": "main", "value": 42, "children": []}"#)?;
//! assert_eq!(v.get("name").and_then(Value::as_str), Some("main"));
//! assert_eq!(v.get("value").and_then(Value::as_i64), Some(42));
//! // Keys serialize in sorted order (deterministic output).
//! assert_eq!(ev_json::to_string(&v), r#"{"children":[],"name":"main","value":42}"#);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod parse;
mod ser;
mod value;

pub use parse::parse;
pub use ser::{to_string, to_string_pretty, write_float, write_int, write_string};
pub use value::Value;

use std::error::Error;
use std::fmt;

/// A parse error with 1-based line/column position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub kind: JsonErrorKind,
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based column of the offending byte.
    pub column: usize,
}

/// The category of a [`JsonError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// Input ended inside a value.
    UnexpectedEof,
    /// A byte that cannot start or continue the expected token.
    UnexpectedChar(char),
    /// `\x` style escape that RFC 8259 does not define.
    InvalidEscape(char),
    /// `\u` escape with non-hex digits or an unpaired surrogate.
    InvalidUnicodeEscape,
    /// A number token violating the JSON grammar (e.g. `01`, `1.`, `+5`).
    InvalidNumber,
    /// A literal control character (U+0000–U+001F) inside a string.
    ControlCharacterInString,
    /// Data remained after the top-level value.
    TrailingData,
    /// Arrays/objects nested beyond the supported depth.
    RecursionLimit,
    /// The input is not valid UTF-8.
    InvalidUtf8,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match &self.kind {
            JsonErrorKind::UnexpectedEof => "unexpected end of input".to_owned(),
            JsonErrorKind::UnexpectedChar(c) => format!("unexpected character {c:?}"),
            JsonErrorKind::InvalidEscape(c) => format!("invalid escape \\{c}"),
            JsonErrorKind::InvalidUnicodeEscape => "invalid \\u escape".to_owned(),
            JsonErrorKind::InvalidNumber => "invalid number literal".to_owned(),
            JsonErrorKind::ControlCharacterInString => "control character in string".to_owned(),
            JsonErrorKind::TrailingData => "trailing data after value".to_owned(),
            JsonErrorKind::RecursionLimit => "nesting too deep".to_owned(),
            JsonErrorKind::InvalidUtf8 => "invalid utf-8".to_owned(),
        };
        write!(f, "{} at line {} column {}", what, self.line, self.column)
    }
}

impl Error for JsonError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_carries_position() {
        let err = parse("[1,").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 1"), "{msg}");
    }
}
