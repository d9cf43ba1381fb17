//! `ev-core` — EasyView's generic profile representation (paper §IV-A).
//!
//! EasyView unifies the output of more than 50 profilers into one
//! representation built from four common features:
//!
//! * **Profiling contexts** — code regions at any granularity (program,
//!   function, loop, basic block, instruction) *and* data objects (heap
//!   allocations identified by their allocation call path, static objects
//!   identified by symbol name). See [`ContextKind`] and [`Frame`].
//! * **Metrics** — named, typed measurement channels ([`MetricDescriptor`])
//!   whose values attach to monitoring points.
//! * **Call paths** — monitoring points are organized into a compact
//!   calling context tree ([`Profile`]) by merging common call-path
//!   prefixes, minimizing memory and disk footprint (paper Fig. 2).
//! * **Code mapping** — every frame can carry a load module, source file,
//!   line number, and instruction address for binary/source attribution.
//!
//! Beyond the common features, the representation supports the paper's
//! advanced ones: multiple metrics per monitoring point, and metrics that
//! span *multiple* contexts ([`ContextLink`]) — data reuse pairs,
//! redundant/killing pairs, data races, false sharing (§IV-A).
//!
//! Profiles serialize to a protobuf-encoded binary format (the paper
//! expresses the schema in Protocol Buffers); see [`mod@format`]. Producers
//! adapt to EasyView through the [`ProfileBuilder`] data-builder API
//! (§IV-B) or through the converters in `ev-formats`.
//!
//! # Examples
//!
//! Building a tiny CPU profile through the data-builder API:
//!
//! ```
//! use ev_core::{Frame, MetricDescriptor, MetricKind, MetricUnit, ProfileBuilder};
//!
//! let mut b = ProfileBuilder::new("quickstart");
//! let cpu = b.add_metric(MetricDescriptor::new(
//!     "cpu",
//!     MetricUnit::Nanoseconds,
//!     MetricKind::Exclusive,
//! ));
//! b.push(Frame::function("main"));
//! b.push(Frame::function("compute"));
//! b.sample(&[(cpu, 800.0)]);
//! b.pop();
//! b.push(Frame::function("io"));
//! b.sample(&[(cpu, 200.0)]);
//! let profile = b.finish();
//!
//! assert_eq!(profile.node_count(), 4); // root, main, compute, io
//! assert_eq!(profile.total(cpu), 1000.0);
//! ```

#![forbid(unsafe_code)]

mod builder;
pub mod fast_hash;
pub mod format;
mod frame;
mod link;
mod metric;
mod profile;
mod string_table;

pub use builder::ProfileBuilder;
pub use frame::{ContextKind, Frame, FrameRef};
pub use link::{ContextLink, LinkKind};
pub use metric::{MetricDescriptor, MetricId, MetricKind, MetricUnit};
pub use profile::{FrameId, FrameMap, Node, NodeId, Profile, ProfileMeta};
pub use string_table::{StringId, StringTable};

use std::error::Error;
use std::fmt;

/// Errors produced by `ev-core` operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A [`NodeId`] that does not name a node in this profile.
    InvalidNodeId(u32),
    /// A [`MetricId`] that does not name a registered metric.
    InvalidMetricId(u16),
    /// A [`StringId`] outside the string table.
    InvalidStringId(u32),
    /// Attempted to pop past the root in [`ProfileBuilder`].
    StackUnderflow,
    /// Deserialization failed.
    Format(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidNodeId(id) => write!(f, "invalid node id {id}"),
            CoreError::InvalidMetricId(id) => write!(f, "invalid metric id {id}"),
            CoreError::InvalidStringId(id) => write!(f, "invalid string id {id}"),
            CoreError::StackUnderflow => write!(f, "pop would underflow the frame stack"),
            CoreError::Format(msg) => write!(f, "malformed profile: {msg}"),
        }
    }
}

impl Error for CoreError {}

impl From<ev_wire::WireError> for CoreError {
    fn from(err: ev_wire::WireError) -> CoreError {
        CoreError::Format(err.to_string())
    }
}
