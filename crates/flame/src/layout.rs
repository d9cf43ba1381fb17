//! Flame-graph layout: the geometry below the rendering boundary.

use crate::color::{Color, ColorScheme};
use ev_analysis::{MetricView, Transformed};
use ev_core::{MetricId, NodeId, Profile};
use std::sync::OnceLock;

/// Rectangles narrower than this fraction of the total width are elided
/// from the layout (they would be sub-pixel at any realistic viewport);
/// the count of elided frames is kept for display.
const MIN_WIDTH: f64 = 1e-5;

/// Whether a rect of `width` is elided. A NaN width is not.
fn sub_pixel(width: f64) -> bool {
    width < MIN_WIDTH
}

/// Cached handle for the `flame.rects_counted` counter: rects a layout
/// counted past its budget but never built.
fn rects_counted() -> &'static ev_trace::Counter {
    static HANDLE: OnceLock<&'static ev_trace::Counter> = OnceLock::new();
    HANDLE.get_or_init(|| ev_trace::counter("flame.rects_counted"))
}

/// One frame rectangle of a laid-out flame graph.
///
/// `x` and `width` are normalized to `[0, 1]`; `depth` counts from 0 at
/// the root row. Multiply by the viewport size to get pixels.
#[derive(Debug, Clone, PartialEq)]
pub struct FlameRect {
    /// A node of the caller's profile, in every view. For
    /// [`FlameView::TopDown`] it is the node the rectangle draws. For
    /// [`FlameView::BottomUp`] and [`FlameView::Flat`] it is the
    /// first source context that contributes to the rectangle (its
    /// [`ev_analysis::Transformed::sources`] entry): one with the
    /// rectangle's frame for bottom-up, one in the rectangle's module,
    /// file or function for flat.
    pub node: NodeId,
    /// Row index (0 = root).
    pub depth: usize,
    /// Left edge in `[0, 1]`.
    pub x: f64,
    /// Width in `[0, 1]`, proportional to the inclusive metric.
    pub width: f64,
    /// Display label (function name, or the diff-tagged name).
    pub label: String,
    /// Inclusive metric value.
    pub value: f64,
    /// Exclusive (self) metric value.
    pub self_value: f64,
    /// Fill color under the active [`ColorScheme`].
    pub color: Color,
    /// Whether the frame has file/line mapping (drives the code-link
    /// action availability).
    pub mapped: bool,
}

/// The tree shape a flame graph draws (paper §VI-A-a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlameView {
    /// The calling context tree itself (paper Fig. 4): root at depth 0,
    /// callees below.
    TopDown,
    /// Leaf functions at the first level, callers below (paper Fig. 6).
    BottomUp,
    /// Load modules → files → functions.
    Flat,
}

/// A laid-out flame graph. It holds only geometry: the profile it was
/// laid out from stays with the caller.
#[derive(Debug, Clone)]
pub struct FlameGraph {
    rects: Vec<FlameRect>,
    max_depth: usize,
    elided: usize,
    total: f64,
    truncated: usize,
}

impl FlameGraph {
    /// Lays out `view` of `profile`, building at most `limit` rects:
    /// the first `limit` of the whole layout's (depth, x, node id)
    /// order. The rects past the budget are only counted
    /// ([`FlameGraph::truncated`]); `max_depth`, `elided` and `total`
    /// are those of the whole layout.
    ///
    /// The layout walks the tree row by row. Each row's visible nodes
    /// are sorted by (x, node id), and a rect (label and color) is built
    /// for each while the budget lasts. Each node's children go left to
    /// right by decreasing value (classic flame-graph ordering), each
    /// offset by the cumulative width of its earlier siblings. Past the
    /// budget the walk only counts visible and sub-pixel nodes: it sorts
    /// no children and builds no rect.
    pub fn layout(
        profile: &Profile,
        metric: MetricId,
        view: FlameView,
        limit: usize,
    ) -> FlameGraph {
        match view {
            FlameView::TopDown => Self::budgeted(profile, metric, limit),
            FlameView::BottomUp => Self::transformed(
                profile,
                metric,
                ev_analysis::bottom_up(profile, metric),
                limit,
            ),
            FlameView::Flat => Self::transformed(
                profile,
                metric,
                ev_analysis::flatten(profile, metric),
                limit,
            ),
        }
    }

    /// Lays out the whole top-down view: [`FlameGraph::layout`] with no
    /// budget.
    pub fn top_down(profile: &Profile, metric: MetricId) -> FlameGraph {
        Self::layout(profile, metric, FlameView::TopDown, usize::MAX)
    }

    /// Lays out the whole bottom-up view: [`FlameGraph::layout`] with
    /// no budget.
    pub fn bottom_up(profile: &Profile, metric: MetricId) -> FlameGraph {
        Self::layout(profile, metric, FlameView::BottomUp, usize::MAX)
    }

    /// Lays out the whole flat view: [`FlameGraph::layout`] with no
    /// budget.
    pub fn flat(profile: &Profile, metric: MetricId) -> FlameGraph {
        Self::layout(profile, metric, FlameView::Flat, usize::MAX)
    }

    /// Lays out a tree transformed from `profile`, then names each
    /// rect's source node. The rects stay sorted by the transformed
    /// tree's ids.
    fn transformed(
        profile: &Profile,
        metric: MetricId,
        shaped: Transformed,
        limit: usize,
    ) -> FlameGraph {
        let m = shaped
            .profile
            .metric_by_name(&profile.metric(metric).name)
            .expect("transform keeps the metric");
        let mut graph = Self::budgeted(&shaped.profile, m, limit);
        for rect in &mut graph.rects {
            rect.node = shaped.sources[rect.node.index()];
        }
        graph
    }

    /// The one layout body behind [`FlameGraph::layout`].
    fn budgeted(profile: &Profile, metric: MetricId, limit: usize) -> FlameGraph {
        let _span = ev_trace::span("flame.layout");
        let view = MetricView::compute(profile, metric);
        let scheme = ColorScheme::default();
        let strings = profile.strings();
        let total = view.total().max(f64::MIN_POSITIVE);
        let mut graph = FlameGraph {
            rects: Vec::new(),
            max_depth: 0,
            elided: 0,
            total,
            truncated: 0,
        };
        let mut budget = limit;
        // The visible nodes of row `depth`, each with its left edge.
        let mut row: Vec<(f64, NodeId)> = vec![(0.0, profile.root())];
        let mut next: Vec<(f64, NodeId)> = Vec::new();
        // One buffer that orders each node's children.
        let mut ordered: Vec<(NodeId, f64)> = Vec::new();
        let mut depth = 0usize;
        loop {
            row.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.index().cmp(&b.1.index())));
            graph.max_depth = depth;
            let kept = budget.min(row.len());
            budget -= kept;
            graph.truncated += row.len() - kept;
            for &(x, node) in &row[..kept] {
                let inclusive = view.inclusive(node);
                let root = node == NodeId::ROOT;
                let frame = profile.node(node).frame();
                let name = strings.resolve(frame.name);
                let file = strings.resolve(frame.file);
                let mapped = !file.is_empty() && frame.line != 0;
                graph.rects.push(FlameRect {
                    node,
                    depth,
                    x,
                    width: if root { 1.0 } else { inclusive / total },
                    label: if root { "ROOT" } else { name }.to_owned(),
                    value: inclusive,
                    self_value: view.exclusive(node),
                    color: scheme.color_for(name, strings.resolve(frame.module), file, mapped),
                    mapped,
                });
            }
            if budget == 0 {
                // Past the budget: count what lies below this row, in
                // any order.
                let mut stack: Vec<(NodeId, usize)> =
                    row.iter().map(|&(_, node)| (node, depth)).collect();
                while let Some((node, depth)) = stack.pop() {
                    for &child in profile.node(node).children() {
                        if sub_pixel(view.inclusive(child) / total) {
                            graph.elided += 1;
                        } else {
                            graph.truncated += 1;
                            graph.max_depth = graph.max_depth.max(depth + 1);
                            stack.push((child, depth + 1));
                        }
                    }
                }
                break;
            }
            // The whole row was built, so every child's left edge counts.
            next.clear();
            for &(x, node) in &row {
                ordered.clear();
                ordered.extend(
                    profile
                        .node(node)
                        .children()
                        .iter()
                        .map(|&c| (c, view.inclusive(c))),
                );
                ordered.sort_by(|a, b| b.1.total_cmp(&a.1));
                let mut cursor = x;
                for &(child, inclusive) in &ordered {
                    let width = inclusive / total;
                    if sub_pixel(width) {
                        graph.elided += 1;
                    } else {
                        next.push((cursor, child));
                    }
                    cursor += width;
                }
            }
            if next.is_empty() {
                break;
            }
            std::mem::swap(&mut row, &mut next);
            depth += 1;
        }
        rects_counted().add(graph.truncated as u64);
        graph
    }

    /// The laid-out rectangles, sorted by (depth, x).
    pub fn rects(&self) -> &[FlameRect] {
        &self.rects
    }

    /// Deepest row index.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Number of frames elided for being sub-pixel.
    pub fn elided(&self) -> usize {
        self.elided
    }

    /// Total metric value (the root's inclusive value).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Number of visible rects past the layout's budget: counted, never
    /// built. 0 for a whole layout.
    pub fn truncated(&self) -> usize {
        self.truncated
    }

    pub(crate) fn replace_rects(&mut self, rects: Vec<FlameRect>) {
        self.rects = rects;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::{Frame, MetricDescriptor, MetricKind, MetricUnit};
    use ev_test::prelude::*;

    fn profile() -> (Profile, MetricId) {
        let mut p = Profile::new("t");
        let m = p.add_metric(MetricDescriptor::new(
            "cpu",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ));
        p.add_sample(
            &[Frame::function("main"), Frame::function("a"), Frame::function("x")],
            &[(m, 60.0)],
        );
        p.add_sample(&[Frame::function("main"), Frame::function("b")], &[(m, 30.0)]);
        p.add_sample(&[Frame::function("main")], &[(m, 10.0)]);
        (p, m)
    }

    #[test]
    fn widths_proportional_to_inclusive() {
        let (p, m) = profile();
        let fg = FlameGraph::top_down(&p, m);
        let rect = |label: &str| fg.rects().iter().find(|r| r.label == label).unwrap();
        assert!((rect("main").width - 1.0).abs() < 1e-9);
        assert!((rect("a").width - 0.6).abs() < 1e-9);
        assert!((rect("b").width - 0.3).abs() < 1e-9);
        assert_eq!(rect("main").self_value, 10.0);
        assert_eq!(fg.max_depth(), 3);
    }

    #[test]
    fn children_sorted_by_value() {
        let (p, m) = profile();
        let fg = FlameGraph::top_down(&p, m);
        let a = fg.rects().iter().find(|r| r.label == "a").unwrap();
        let b = fg.rects().iter().find(|r| r.label == "b").unwrap();
        assert!(a.x < b.x, "larger child lays out first");
        assert!((b.x - 0.6).abs() < 1e-9);
    }

    #[test]
    fn bottom_up_layout_leaves_first() {
        let (p, m) = profile();
        let fg = FlameGraph::bottom_up(&p, m);
        // Depth-1 rects are the hot functions.
        let depth1: Vec<&str> = fg
            .rects()
            .iter()
            .filter(|r| r.depth == 1)
            .map(|r| r.label.as_str())
            .collect();
        assert!(depth1.contains(&"x"));
        assert!(depth1.contains(&"b"));
        assert!(depth1.contains(&"main"));
    }

    #[test]
    fn flat_layout_modules_first() {
        let (p, m) = profile();
        let fg = FlameGraph::flat(&p, m);
        let depth1: Vec<&str> = fg
            .rects()
            .iter()
            .filter(|r| r.depth == 1)
            .map(|r| r.label.as_str())
            .collect();
        assert_eq!(depth1, ["(unknown module)"]);
    }

    #[test]
    fn tiny_frames_elided() {
        let mut p = Profile::new("t");
        let m = p.add_metric(MetricDescriptor::new(
            "cpu",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ));
        p.add_sample(&[Frame::function("big")], &[(m, 1e9)]);
        p.add_sample(&[Frame::function("tiny")], &[(m, 1.0)]);
        let fg = FlameGraph::top_down(&p, m);
        assert_eq!(fg.elided(), 1);
        assert!(fg.rects().iter().all(|r| r.label != "tiny"));
    }

    #[test]
    fn empty_profile_lays_out_root_only() {
        let mut p = Profile::new("empty");
        let m = p.add_metric(MetricDescriptor::new(
            "cpu",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ));
        let fg = FlameGraph::top_down(&p, m);
        assert_eq!(fg.rects().len(), 1);
        assert_eq!(fg.rects()[0].label, "ROOT");
    }

    fn arb_profile() -> impl Gen<Value = Profile> {
        vec(
            (vec(0u8..6, 1..7), 0.5f64..100.0),
            1..40,
        )
        .prop_map(|samples| {
            let mut p = Profile::new("arb");
            let m = p.add_metric(MetricDescriptor::new(
                "m",
                MetricUnit::Count,
                MetricKind::Exclusive,
            ));
            for (path, v) in samples {
                let frames: Vec<Frame> =
                    path.iter().map(|i| Frame::function(format!("f{i}"))).collect();
                p.add_sample(&frames, &[(m, v)]);
            }
            p
        })
    }

    property! {
        fn layout_invariants(p in arb_profile()) {
            let m = p.metric_by_name("m").unwrap();
            let fg = FlameGraph::top_down(&p, m);
            for rect in fg.rects() {
                // Geometry is inside the unit strip.
                prop_assert!(rect.x >= -1e-9 && rect.x + rect.width <= 1.0 + 1e-9);
                prop_assert!(rect.width >= 0.0);
            }
            // Siblings at the same depth do not overlap: sorted by x,
            // consecutive same-depth rects must not intersect.
            for pair in fg.rects().windows(2) {
                if pair[0].depth == pair[1].depth {
                    prop_assert!(pair[0].x + pair[0].width <= pair[1].x + 1e-9);
                }
            }
            // Every rect is contained in its parent's span.
            for rect in fg.rects() {
                if let Some(parent) = p.node(rect.node).parent() {
                    if let Some(pr) = fg.rects().iter().find(|r| r.node == parent) {
                        prop_assert!(rect.x >= pr.x - 1e-9);
                        prop_assert!(rect.x + rect.width <= pr.x + pr.width + 1e-9);
                        prop_assert_eq!(rect.depth, pr.depth + 1);
                    }
                }
            }
        }
    }
}
