//! `ev-ide` — the EasyView Protocol (**EVP**): LSP-inspired integration
//! of profiles into IDEs and editors (paper §VI-B).
//!
//! The paper defines "a set of actions to annotate source code with
//! profiling data shown in IDEs", modeled on the Language Server
//! Protocol. This crate implements that protocol end to end:
//!
//! * [`rpc`] — JSON-RPC 2.0 messages with LSP-style `Content-Length`
//!   framing;
//! * [`EvpServer`] — the profile-side endpoint: loads profiles, serves
//!   flame-graph layouts and tree tables, and implements the actions:
//!   * **code link** (mandatory): clicking a frame resolves to a
//!     `{file, line}` the editor opens and highlights;
//!   * **code lens**: per-line annotations above statements with metric
//!     values;
//!   * **hover**: all metric values attached to a source line;
//!   * **floating window**: a global summary of the whole profile;
//!   * **color semantics**: every flame rect carries its color and
//!     mapping availability;
//! * [`EditorClient`] — an in-memory editor standing in for VSCode: it
//!   speaks EVP over byte buffers and tracks which file/line the
//!   (simulated) editor has open and highlighted, which is what the
//!   integration tests and the user-study cost model drive.
//!
//! # Examples
//!
//! ```
//! use ev_core::{Frame, MetricDescriptor, MetricKind, MetricUnit, Profile};
//! use ev_ide::{EditorClient, EvpServer};
//!
//! let mut p = Profile::new("demo");
//! let m = p.add_metric(MetricDescriptor::new(
//!     "cpu",
//!     MetricUnit::Count,
//!     MetricKind::Exclusive,
//! ));
//! p.add_sample(
//!     &[Frame::function("main").with_source("main.c", 10)],
//!     &[(m, 5.0)],
//! );
//!
//! let mut client = EditorClient::connect(EvpServer::new());
//! let id = client.open_profile(&p).unwrap();
//! let rects = client.flame_graph(id, "topDown", "cpu").unwrap();
//! let main = rects.iter().find(|r| r.label == "main").unwrap();
//! client.code_link(id, main.node).unwrap();
//! assert_eq!(client.editor().open_file.as_deref(), Some("main.c"));
//! assert_eq!(client.editor().highlighted_line, Some(10));
//! ```

#![forbid(unsafe_code)]

mod client;
pub mod rpc;
mod server;

pub use client::{EditorClient, EditorState, RectInfo};
pub use server::{
    encode_flame_graph, EvpServer, ServerOptions, SharedEvpServer, DEFAULT_FLAME_LIMIT,
};

use std::error::Error;
use std::fmt;

/// Errors surfaced by the client-side convenience API.
#[derive(Debug, Clone, PartialEq)]
pub enum IdeError {
    /// The server answered with a JSON-RPC error.
    Rpc {
        /// JSON-RPC error code.
        code: i64,
        /// Error message.
        message: String,
    },
    /// The transport or response was malformed.
    Protocol(String),
}

impl fmt::Display for IdeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdeError::Rpc { code, message } => write!(f, "rpc error {code}: {message}"),
            IdeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl Error for IdeError {}
