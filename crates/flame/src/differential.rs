//! The differential flame graph (paper §VI-A-b, Fig. 3).
//!
//! Unlike prior differential flame graphs that only color a top-down
//! view, EasyView tags every frame with `[A]`/`[D]`/`[+]`/`[-]`,
//! quantifies the delta, and supports all three shapes — the underlying
//! diff tree is an ordinary profile, so bottom-up and flat layouts come
//! for free.

use crate::color::diff_color;
use crate::layout::{FlameGraph, FlameRect};
use ev_analysis::{diff, DiffProfile, DiffTag};
use ev_core::{NodeId, Profile};

/// A flame graph over the differential tree of two profiles.
#[derive(Debug, Clone)]
pub struct DiffFlameGraph {
    graph: FlameGraph,
    diff: DiffProfile,
}

impl DiffFlameGraph {
    /// Differentiates `second` against `first` over `metric_name` and
    /// lays out a top-down flame graph of the union tree, sized by
    /// `|before| + |after|` so both vanished and new subtrees stay
    /// visible.
    ///
    /// # Errors
    ///
    /// Propagates `ev_analysis::diff`'s error (the index of the profile
    /// missing the metric).
    pub fn new(first: &Profile, second: &Profile, metric_name: &str) -> Result<DiffFlameGraph, usize> {
        let d = diff(first, second, metric_name, 0.0)?;
        // Lay out by a magnitude channel: |before| + |after|.
        let mut sized = d.profile.clone();
        let magnitude = sized.add_metric(ev_core::MetricDescriptor::new(
            "magnitude",
            first
                .metric_by_name(metric_name)
                .map(|m| first.metric(m).unit)
                .unwrap_or_default(),
            ev_core::MetricKind::Exclusive,
        ));
        for node in sized.node_ids().collect::<Vec<_>>() {
            let e = d.entry(node);
            let v = e.before.abs() + e.after.abs();
            if v != 0.0 {
                sized.set_value(node, magnitude, v);
            }
        }
        let mut graph = FlameGraph::top_down(&sized, magnitude);
        // Re-label and re-color each rect with its diff tag.
        let max_delta = d
            .entries()
            .map(|(_, e)| e.delta().abs())
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        let rects: Vec<FlameRect> = graph
            .rects()
            .iter()
            .map(|r| {
                let entry = d.entry(r.node);
                let mut rect = r.clone();
                if r.node != NodeId::ROOT {
                    rect.label = format!("{} {}", entry.tag, r.label);
                }
                let signed = match entry.tag {
                    DiffTag::Added => entry.after.max(f64::MIN_POSITIVE),
                    DiffTag::Deleted => -entry.before.max(f64::MIN_POSITIVE),
                    _ => entry.delta(),
                };
                rect.color = diff_color(signed, (signed.abs() / max_delta).clamp(0.15, 1.0));
                rect
            })
            .collect();
        graph = graph.with_rects(rects);
        Ok(DiffFlameGraph { graph, diff: d })
    }

    /// The tagged, laid-out flame graph.
    pub fn graph(&self) -> &FlameGraph {
        &self.graph
    }

    /// The underlying differential result (tags, deltas, tag counts).
    pub fn diff(&self) -> &DiffProfile {
        &self.diff
    }
}

impl FlameGraph {
    /// Replaces the rectangles (labels/colors), keeping the geometry —
    /// used by the differential view to retag frames.
    pub(crate) fn with_rects(mut self, rects: Vec<FlameRect>) -> FlameGraph {
        self.replace_rects(rects);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::{Frame, MetricDescriptor, MetricKind, MetricUnit};

    fn profile(samples: &[(&[&str], f64)]) -> Profile {
        let mut p = Profile::new("p");
        let m = p.add_metric(MetricDescriptor::new(
            "cpu",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ));
        for &(path, v) in samples {
            let frames: Vec<Frame> = path.iter().map(|&n| Frame::function(n)).collect();
            p.add_sample(&frames, &[(m, v)]);
        }
        p
    }

    #[test]
    fn tags_appear_in_labels() {
        // The Spark RDD vs SQL shape from Fig. 3.
        let rdd = profile(&[
            (&["run", "shuffle", "sort"], 50.0),
            (&["run", "iterate"], 30.0),
        ]);
        let sql = profile(&[
            (&["run", "sql_engine", "codegen"], 20.0),
            (&["run", "iterate"], 10.0),
        ]);
        let dfg = DiffFlameGraph::new(&rdd, &sql, "cpu").unwrap();
        let labels: Vec<&str> = dfg.graph().rects().iter().map(|r| r.label.as_str()).collect();
        assert!(labels.contains(&"[D] shuffle"), "{labels:?}");
        assert!(labels.contains(&"[A] sql_engine"), "{labels:?}");
        assert!(labels.contains(&"[-] iterate"), "{labels:?}");
        // Nested frames inherit A/D.
        assert!(labels.contains(&"[D] sort"), "{labels:?}");
        assert!(labels.contains(&"[A] codegen"), "{labels:?}");
    }

    #[test]
    fn deleted_subtrees_keep_visible_width() {
        let p1 = profile(&[(&["gone"], 100.0)]);
        let p2 = profile(&[(&["new"], 1.0)]);
        let dfg = DiffFlameGraph::new(&p1, &p2, "cpu").unwrap();
        let gone = dfg
            .graph()
            .rects()
            .iter()
            .find(|r| r.label == "[D] gone")
            .unwrap();
        assert!(gone.width > 0.9, "deleted frame keeps its magnitude");
    }

    #[test]
    fn colors_encode_direction() {
        let p1 = profile(&[(&["up"], 10.0), (&["down"], 50.0)]);
        let p2 = profile(&[(&["up"], 50.0), (&["down"], 10.0)]);
        let dfg = DiffFlameGraph::new(&p1, &p2, "cpu").unwrap();
        let rect = |l: &str| {
            dfg.graph()
                .rects()
                .iter()
                .find(|r| r.label == l)
                .unwrap()
                .color
        };
        let up = rect("[+] up");
        let down = rect("[-] down");
        assert!(up.r > up.b);
        assert!(down.b > down.r);
    }

    #[test]
    fn missing_metric_propagates_index() {
        let p1 = profile(&[(&["f"], 1.0)]);
        let mut p2 = Profile::new("x");
        p2.add_metric(MetricDescriptor::new(
            "other",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ));
        assert_eq!(DiffFlameGraph::new(&p1, &p2, "cpu").unwrap_err(), 1);
    }
}
