//! `ev-flame` — EasyView's visualization layer (paper §VI).
//!
//! The layer is split at the rendering boundary: [`FlameGraph`] computes
//! the *layout* (normalized rectangles with depth, position, width,
//! color, and labels), and the renderers turn a layout into pixels-ish
//! output — [`render::svg`] for documents, [`render::ansi`] for
//! terminals. The original renders the same geometry through WebGL in
//! VSCode; everything below that boundary is reproduced here.
//!
//! Views:
//!
//! * **Generic flame graphs** (§VI-A-a): [`FlameGraph::layout`] of a
//!   [`FlameView`] under a rect budget, or the whole
//!   [`FlameGraph::top_down`], [`FlameGraph::bottom_up`] and
//!   [`FlameGraph::flat`] layouts — the three tree shapes from the
//!   analysis engine.
//! * **Differential flame graphs** (§VI-A-b, Fig. 3):
//!   [`DiffFlameGraph`] tags every frame `[A]`/`[D]`/`[+]`/`[-]` and
//!   quantifies the delta.
//! * **Correlated flame graphs** (§VI-A-b, Fig. 7): [`CorrelatedView`]
//!   chains flame graphs through a profile's cross-context links
//!   (allocation → uses → reuses).
//! * **Aggregate histograms** (§VI-A-b, Fig. 4): [`Histogram`] renders a
//!   per-context value series across snapshots.
//! * **Tree tables** (§VI-A-c): [`TreeTable`], the unfoldable
//!   multi-metric table view of VTune/HPCToolkit/TAU.
//! * **Color semantics** (§VI-B): [`Color`], [`ColorScheme`] — hues by
//!   module/file, darkness by source-mapping availability.
//!
//! # Examples
//!
//! ```
//! use ev_core::{Frame, MetricDescriptor, MetricKind, MetricUnit, Profile};
//! use ev_flame::FlameGraph;
//!
//! let mut p = Profile::new("demo");
//! let m = p.add_metric(MetricDescriptor::new(
//!     "cpu",
//!     MetricUnit::Count,
//!     MetricKind::Exclusive,
//! ));
//! p.add_sample(&[Frame::function("main"), Frame::function("work")], &[(m, 9.0)]);
//! p.add_sample(&[Frame::function("main")], &[(m, 1.0)]);
//!
//! let fg = FlameGraph::top_down(&p, m);
//! assert_eq!(fg.max_depth(), 2);
//! let work = fg.rects().iter().find(|r| r.label == "work").unwrap();
//! assert!((work.width - 0.9).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]

mod color;
mod correlated;
mod differential;
mod histogram;
mod layout;
pub mod render;
mod tree_table;

pub use color::{Color, ColorScheme};
pub use correlated::CorrelatedView;
pub use differential::DiffFlameGraph;
pub use histogram::Histogram;
pub use layout::{FlameGraph, FlameRect, FlameView};
pub use tree_table::{TableRow, TreeTable};
