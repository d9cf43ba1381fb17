//! `ev-analysis` — EasyView's data analysis engine (paper §V).
//!
//! The engine operates on the tree representation from `ev-core`:
//!
//! * **Tree traversal** (§V-A-a): [`MetricView`] computes
//!   inclusive/exclusive metrics in one sweep, children before
//!   parents; [`prune`]
//!   removes insignificant nodes; [`collapse_recursion`] folds recursive
//!   call cycles.
//! * **Tree transformation** (§V-A-b): [`bottom_up`] reverses call paths
//!   to surface hot leaf functions and their callers; [`flatten`] elides
//!   call paths into the program → load-module → file → function
//!   hierarchy. (The top-down shape is the profile itself.)
//! * **Operations across multiple profiles** (§V-A-c): [`aggregate`]
//!   merges profiles into a unified tree with sum/min/max/mean derived
//!   metrics and a per-node value series (the histograms of Fig. 4);
//!   [`diff`] differentiates two profiles with the paper's
//!   `[A]`/`[D]`/`[+]`/`[−]` tags (Fig. 3). Both, like [`prune`], copy
//!   trees with [`ev_core::Profile::graft`].
//! * **Scaling analysis**: [`scaling_diff`] differentiates by division
//!   instead of subtraction — the memory-scaling measurement of §V-B.
//! * **Search**: [`search`] finds the contexts whose function name
//!   contains a query, case folded (§VI-A-a).
//! * **Timeline classification**: [`classify_timeline`] detects the
//!   memory-leak pattern of the cloud case study (§VII-C1) — sustained
//!   active memory with no reclamation across snapshots.
//!
//! # Examples
//!
//! ```
//! use ev_analysis::MetricView;
//! use ev_core::{Frame, MetricDescriptor, MetricKind, MetricUnit, Profile};
//!
//! let mut p = Profile::new("demo");
//! let cpu = p.add_metric(MetricDescriptor::new(
//!     "cpu",
//!     MetricUnit::Count,
//!     MetricKind::Exclusive,
//! ));
//! p.add_sample(&[Frame::function("main"), Frame::function("f")], &[(cpu, 3.0)]);
//! p.add_sample(&[Frame::function("main")], &[(cpu, 1.0)]);
//!
//! let view = MetricView::compute(&p, cpu);
//! assert_eq!(view.inclusive(p.root()), 4.0);
//! ```

#![forbid(unsafe_code)]

mod aggregate;
mod cache;
mod diff;
mod scaling;
mod search;
mod timeline;
mod transform;
mod traverse;

pub use aggregate::{aggregate, aggregate_with, Aggregate, AggregateMetrics};
pub use cache::{
    fingerprint_view_key, profile_fingerprint, view_key, CacheStats, ViewCache,
    DEFAULT_CACHE_CAPACITY,
};
pub use diff::{diff, DiffEntry, DiffProfile, DiffTag};
pub use ev_par::ExecPolicy;
pub use scaling::{scaling_diff, ScalingProfile};
pub use search::search;
pub use timeline::{classify_timeline, TimelinePattern};
pub use transform::{bottom_up, flatten, Transformed};
pub use traverse::{collapse_recursion, prune, MetricView};
