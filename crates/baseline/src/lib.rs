//! `ev-baseline` — reimplementations of the comparator pipelines from
//! the response-time experiment (paper §VII-B, Fig. 5).
//!
//! Fig. 5 compares EasyView against the default PProf web visualizer and
//! GoLand's pprof plugin on the end-to-end time to *open* a profile. We
//! cannot run the originals headlessly, so this crate reimplements the
//! processing structure that dominates each tool's cost; the absolute
//! numbers differ from the authors' testbed, but the algorithmic
//! reasons the baselines fall behind — and therefore the ordering and
//! the growing gap with profile size — are preserved:
//!
//! * [`PprofBaseline`] mirrors pprof's report path: it keeps samples in
//!   flat form (no prefix-merged CCT), re-resolves every location id to
//!   function/file strings *per sample*, keys its aggregation maps by
//!   joined stack strings, and renders a full DOT call-graph report
//!   up front.
//! * [`GolandBaseline`] mirrors an IDE tree-table plugin: it builds the
//!   tree, then eagerly materializes every row of the fully-expanded
//!   table — one boxed, formatted row object per node, with per-row
//!   string formatting — before anything is shown.
//!
//! The EasyView pipeline they are compared against (in `ev-bench`)
//! parses once into the prefix-merged CCT and lays out only the
//! geometry actually rendered.

#![forbid(unsafe_code)]

use ev_formats::{pprof, FormatError};
use std::collections::HashMap;

/// The outcome of opening a profile with a baseline, with enough
/// byproducts that benchmarks can't be optimized away.
#[derive(Debug)]
pub struct Opened {
    /// Number of logical rows/graph nodes materialized.
    pub items: usize,
    /// Total bytes of rendered text produced during opening.
    pub rendered_bytes: usize,
}

/// The default-PProf-style pipeline.
#[derive(Debug, Default)]
pub struct PprofBaseline;

impl PprofBaseline {
    /// Opens a (gzip'd) pprof profile the way `pprof -http` prepares its
    /// first view: decompress, decode, re-resolve and stringify every
    /// sample, aggregate into string-keyed maps, then render a DOT
    /// call-graph and a flat top table.
    ///
    /// # Errors
    ///
    /// Propagates container/schema errors.
    pub fn open(&self, data: &[u8]) -> Result<Opened, FormatError> {
        // pprof decodes into its own object graph; reuse the converter
        // for the decode so the comparison isolates the *processing*
        // differences, not parser quality.
        let profile = pprof::parse(data)?;
        let metric = ev_core::MetricId::from_index(0);

        // Stage 1: flatten the CCT back into per-sample stacks (pprof
        // keeps samples flat) and stringify every frame of every stack.
        let mut stacks: Vec<(String, f64)> = Vec::new();
        for node in profile.node_ids() {
            let value = profile.value(node, metric);
            if value == 0.0 {
                continue;
            }
            let path = profile.path(node);
            // Per-sample re-resolution: every frame formatted anew, no
            // interning, exactly the repeated work a flat sample list
            // forces.
            let key = path
                .iter()
                .map(|&id| {
                    let f = profile.resolve_frame(id);
                    format!("{}@{}:{}({})", f.name, f.file, f.line, f.module)
                })
                .collect::<Vec<_>>()
                .join(";");
            stacks.push((key, value));
        }

        // Stage 2: string-keyed aggregation into nodes and edges.
        let mut node_weights: HashMap<String, f64> = HashMap::new();
        let mut edge_weights: HashMap<(String, String), f64> = HashMap::new();
        for (stack, value) in &stacks {
            let frames: Vec<&str> = stack.split(';').collect();
            for window in frames.windows(2) {
                *edge_weights
                    .entry((window[0].to_owned(), window[1].to_owned()))
                    .or_default() += value;
            }
            for frame in &frames {
                *node_weights.entry((*frame).to_owned()).or_default() += value;
            }
        }

        // Stage 3: render the DOT graph + the flat "top" table.
        let mut dot = String::from("digraph profile {\n");
        let mut nodes: Vec<(&String, &f64)> = node_weights.iter().collect();
        nodes.sort_by(|a, b| b.1.total_cmp(a.1).then(a.0.cmp(b.0)));
        for (name, weight) in &nodes {
            dot.push_str(&format!("  \"{name}\" [label=\"{name}\\n{weight:.1}\"];\n"));
        }
        for ((from, to), weight) in &edge_weights {
            dot.push_str(&format!("  \"{from}\" -> \"{to}\" [weight={weight:.1}];\n"));
        }
        dot.push_str("}\n");
        let mut top = String::new();
        for (name, weight) in nodes.iter().take(5000) {
            top.push_str(&format!("{weight:>16.2}  {name}\n"));
        }

        Ok(Opened {
            items: node_weights.len() + edge_weights.len(),
            rendered_bytes: dot.len() + top.len(),
        })
    }
}

/// The GoLand-pprof-plugin-style pipeline.
#[derive(Debug, Default)]
pub struct GolandBaseline;

/// One eagerly materialized tree-table row.
#[derive(Debug)]
struct Row {
    label: String,
    location: String,
    formatted_total: String,
    formatted_self: String,
    formatted_percent: String,
    depth: usize,
}

impl GolandBaseline {
    /// Opens a pprof profile the way an eager IDE plugin does: parse,
    /// then pre-build every row of the fully expanded tree table —
    /// boxed row objects with pre-formatted strings for each column —
    /// before the view opens.
    ///
    /// # Errors
    ///
    /// Propagates container/schema errors.
    pub fn open(&self, data: &[u8]) -> Result<Opened, FormatError> {
        let profile = pprof::parse(data)?;
        let metric = ev_core::MetricId::from_index(0);
        let view = ev_analysis::MetricView::compute(&profile, metric);
        let total = view.total().max(f64::MIN_POSITIVE);

        // Eager full materialization: one boxed row per node, fully
        // formatted, sorted per level.
        let mut rows: Vec<Box<Row>> = Vec::with_capacity(profile.node_count());
        let mut rendered_bytes = 0usize;
        let mut stack: Vec<(ev_core::NodeId, usize)> = vec![(profile.root(), 0)];
        while let Some((node, depth)) = stack.pop() {
            let frame = profile.resolve_frame(node);
            let inclusive = view.inclusive(node);
            let row = Box::new(Row {
                label: frame.name.clone(),
                location: format!("{}:{} in {}", frame.file, frame.line, frame.module),
                formatted_total: format!("{inclusive:.2}"),
                formatted_self: format!("{:.2}", view.exclusive(node)),
                formatted_percent: format!("{:.2}%", inclusive / total * 100.0),
                depth,
            });
            rendered_bytes += row.label.len()
                + row.location.len()
                + row.formatted_total.len()
                + row.formatted_self.len()
                + row.formatted_percent.len()
                + row.depth;
            rows.push(row);
            // Sort each level by value (the plugin displays sorted).
            let mut children: Vec<(ev_core::NodeId, f64)> = profile
                .node(node)
                .children()
                .iter()
                .map(|&c| (c, view.inclusive(c)))
                .collect();
            children.sort_by(|a, b| a.1.total_cmp(&b.1));
            for (child, _) in children {
                stack.push((child, depth + 1));
            }
        }

        Ok(Opened {
            items: rows.len(),
            rendered_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::{Frame, MetricDescriptor, MetricKind, MetricUnit, Profile};
    use ev_formats::pprof::WriteOptions;

    fn pprof_bytes() -> Vec<u8> {
        let mut p = Profile::new("b");
        let m = p.add_metric(MetricDescriptor::new(
            "cpu",
            MetricUnit::Nanoseconds,
            MetricKind::Exclusive,
        ));
        p.add_sample(
            &[
                Frame::function("main").with_module("app").with_source("m.go", 1),
                Frame::function("handler").with_module("app").with_source("h.go", 2),
            ],
            &[(m, 100.0)],
        );
        p.add_sample(
            &[
                Frame::function("main").with_module("app").with_source("m.go", 1),
                Frame::function("gc").with_module("runtime"),
            ],
            &[(m, 50.0)],
        );
        pprof::write(&p, WriteOptions::default())
    }

    #[test]
    fn pprof_baseline_produces_graph() {
        let opened = PprofBaseline.open(&pprof_bytes()).unwrap();
        // 3 distinct frames as nodes + 2 edges.
        assert!(opened.items >= 5, "items {}", opened.items);
        assert!(opened.rendered_bytes > 100);
    }

    #[test]
    fn goland_baseline_materializes_every_node() {
        let opened = GolandBaseline.open(&pprof_bytes()).unwrap();
        assert_eq!(opened.items, 4); // root, main, handler, gc
        assert!(opened.rendered_bytes > 50);
    }

    #[test]
    fn corrupt_input_errors() {
        assert!(PprofBaseline.open(b"\x1f\x8b garbage").is_err());
        assert!(GolandBaseline.open(b"\x1f\x8b garbage").is_err());
    }
}
