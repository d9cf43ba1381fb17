//! Traversal-based analyses: inclusive/exclusive metrics, pruning, and
//! recursion collapsing (paper §V-A-a).

use ev_core::{ContextKind, Frame, FrameMap, FrameRef, MetricId, MetricKind, NodeId, Profile};

/// Inclusive and exclusive values of one metric over a profile, computed
/// in one sweep over node ids from high to low.
///
/// The stored profile values are interpreted per the metric's
/// [`MetricKind`]:
///
/// * `Exclusive` — stored values are self costs; inclusive values are
///   derived by summing subtrees.
/// * `Inclusive` — stored values already include callees (HPCToolkit
///   `(I)` style); exclusive values are derived by subtracting children.
/// * `Point` — both views return the stored value unchanged.
#[derive(Debug, Clone)]
pub struct MetricView {
    metric: MetricId,
    inclusive: Vec<f64>,
    exclusive: Vec<f64>,
}

impl MetricView {
    /// Computes the view for `metric` over `profile`.
    ///
    /// Every node's parent has a smaller id than the node: constructors
    /// append nodes, and [`Profile::validate`] (run on every decode)
    /// rejects anything else. So visiting ids from high to low finishes
    /// every child before its parent, and each node folds its own value,
    /// then its children's inclusive values in `children()` order — one
    /// left fold per node, the same at any thread count.
    pub fn compute(profile: &Profile, metric: MetricId) -> MetricView {
        let _span = ev_trace::span("analysis.metric_view");
        let n = profile.node_count();
        let kind = profile.metric(metric).kind;
        let mut inclusive = vec![0.0; n];
        let mut exclusive = vec![0.0; n];
        for i in (0..n).rev() {
            let node = profile.node(NodeId::from_index(i));
            let own = node.value(metric);
            let children = node.children();
            match kind {
                MetricKind::Exclusive => {
                    let mut total = own;
                    for &c in children {
                        total += inclusive[c.index()];
                    }
                    inclusive[i] = total;
                    exclusive[i] = own;
                }
                // A zero-valued interior node (common for synthetic
                // roots) inherits its children's total.
                MetricKind::Inclusive if own == 0.0 => {
                    inclusive[i] = children.iter().map(|c| inclusive[c.index()]).sum();
                    exclusive[i] = 0.0;
                }
                MetricKind::Inclusive => {
                    let stored: f64 = children.iter().map(|&c| profile.value(c, metric)).sum();
                    inclusive[i] = own;
                    exclusive[i] = own - stored;
                }
                MetricKind::Point => {
                    inclusive[i] = own;
                    exclusive[i] = own;
                }
            }
        }
        MetricView {
            metric,
            inclusive,
            exclusive,
        }
    }

    /// The metric this view describes.
    pub fn metric(&self) -> MetricId {
        self.metric
    }

    /// Inclusive (subtree) value at `node`.
    pub fn inclusive(&self, node: NodeId) -> f64 {
        self.inclusive[node.index()]
    }

    /// Exclusive (self) value at `node`.
    pub fn exclusive(&self, node: NodeId) -> f64 {
        self.exclusive[node.index()]
    }

    /// Total program cost (inclusive value at the root).
    pub fn total(&self) -> f64 {
        self.inclusive[NodeId::ROOT.index()]
    }

    /// The `n` nodes with the highest positive exclusive value, hottest
    /// first, ties by ascending node id: the first `n` of a stable
    /// descending sort, found by partial selection instead of sorting
    /// every node.
    pub fn hottest(&self, n: usize) -> Vec<(NodeId, f64)> {
        let mut hot: Vec<(NodeId, f64)> = self
            .exclusive
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v > 0.0)
            .map(|(i, &v)| (NodeId::from_index(i), v))
            .collect();
        let hotter = |a: &(NodeId, f64), b: &(NodeId, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
        if n == 0 {
            hot.clear();
        } else if hot.len() > n {
            hot.select_nth_unstable_by(n - 1, hotter);
            hot.truncate(n);
        }
        hot.sort_unstable_by(hotter);
        hot
    }
}

/// Copies `profile`, dropping every subtree whose inclusive share of
/// `metric` is below `threshold` (a fraction of the total). Dropped
/// siblings are folded into a single `«pruned»` child so totals are
/// conserved.
///
/// This is the paper's "pruning insignificant tree nodes", used before
/// rendering very large profiles.
///
/// # Panics
///
/// Panics if `threshold` is not in `[0, 1]`.
pub fn prune(profile: &Profile, metric: MetricId, threshold: f64) -> Profile {
    let _span = ev_trace::span("analysis.prune");
    assert!(
        (0.0..=1.0).contains(&threshold),
        "threshold must be a fraction"
    );
    let view = MetricView::compute(profile, metric);
    let cutoff = view.total() * threshold;

    let mut out = Profile::new(profile.meta().name.clone());
    *out.meta_mut() = profile.meta().clone();
    for m in profile.metrics() {
        out.add_metric(m.clone());
    }

    let kept = |child: NodeId| view.inclusive(child) >= cutoff;
    let mut pruned_frame = None;
    out.graft(profile, kept, |out, src, dst| {
        for (m, v) in profile.node(src).values() {
            out.add_value(dst, m, v);
        }
        let mut pruned_total = 0.0;
        for &child in profile.node(src).children() {
            if !kept(child) {
                pruned_total += view.inclusive(child);
            }
        }
        if pruned_total > 0.0 {
            let frame =
                *pruned_frame.get_or_insert_with(|| out.intern_frame(&Frame::function("«pruned»")));
            let frame = out.frame_id(frame);
            let pruned = out.child_id(dst, frame);
            out.add_value(pruned, metric, pruned_total);
        }
    });
    out.finish();
    out
}

/// Copies `profile`, collapsing runs of recursive frames: consecutive
/// path steps whose (kind, name, module) agree merge into one node, so a
/// 10 000-deep recursive descent becomes a single frame with accumulated
/// costs — the paper's "collapsing deep and recursive call paths".
///
/// Frames are compared by id in the source's string table, and a frame
/// is copied, once, only when a step does not merge, so node ids and
/// string-table order are those of inserting each unmerged step's
/// resolved frame with [`Profile::child`].
pub fn collapse_recursion(profile: &Profile) -> Profile {
    let _span = ev_trace::span("analysis.collapse_recursion");
    let mut out = Profile::new(profile.meta().name.clone());
    *out.meta_mut() = profile.meta().clone();
    for m in profile.metrics() {
        out.add_metric(m.clone());
    }
    let mut frames = FrameMap::new(profile);
    // (source node, its destination, the source frame the destination
    // was copied from); the root's is the root frame, which never merges.
    let mut work: Vec<(NodeId, NodeId, FrameRef)> =
        vec![(profile.root(), out.root(), FrameRef::root())];
    while let Some((src, dst, dst_frame)) = work.pop() {
        for v in profile.node(src).values() {
            out.add_value(dst, v.0, v.1);
        }
        for &child in profile.node(src).children() {
            let node = profile.node(child);
            let frame = node.frame();
            let recursive = frame.kind == dst_frame.kind
                && frame.kind != ContextKind::Root
                && frame.name == dst_frame.name
                && frame.module == dst_frame.module;
            if recursive {
                work.push((child, dst, dst_frame));
            } else {
                let copied = frames.frame(&mut out, node.frame_id());
                work.push((child, out.child_id(dst, copied), frame));
            }
        }
    }
    out.finish();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::{MetricDescriptor, MetricUnit};
    use ev_test::prelude::*;

    fn exclusive_metric(p: &mut Profile) -> MetricId {
        p.add_metric(MetricDescriptor::new(
            "m",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ))
    }

    #[test]
    fn inclusive_sums_subtrees() {
        let mut p = Profile::new("t");
        let m = exclusive_metric(&mut p);
        p.add_sample(
            &[Frame::function("main"), Frame::function("a"), Frame::function("b")],
            &[(m, 4.0)],
        );
        p.add_sample(&[Frame::function("main"), Frame::function("a")], &[(m, 1.0)]);
        p.add_sample(&[Frame::function("main"), Frame::function("c")], &[(m, 5.0)]);
        let view = MetricView::compute(&p, m);
        let a = p
            .node_ids()
            .find(|&id| p.resolve_frame(id).name == "a")
            .unwrap();
        assert_eq!(view.inclusive(a), 5.0);
        assert_eq!(view.exclusive(a), 1.0);
        assert_eq!(view.total(), 10.0);
    }

    #[test]
    fn hottest_breaks_ties_by_node_id_like_a_stable_sort() {
        let mut p = Profile::new("t");
        let m = exclusive_metric(&mut p);
        // Self values with ties, a zero, a negative and a NaN; ids 1..=9.
        let values = [3.0, 7.0, 3.0, 0.0, 7.0, -1.0, f64::NAN, 3.0, 7.0];
        for (i, &v) in values.iter().enumerate() {
            p.add_sample(&[Frame::function(format!("f{i}"))], &[(m, v)]);
        }
        let view = MetricView::compute(&p, m);
        // The reference: every positive node, stable-sorted descending.
        let mut sorted: Vec<(NodeId, f64)> = p
            .node_ids()
            .map(|id| (id, view.exclusive(id)))
            .filter(|&(_, v)| v > 0.0)
            .collect();
        sorted.sort_by(|a, b| b.1.total_cmp(&a.1));
        for n in 0..=sorted.len() + 1 {
            let expect: Vec<_> = sorted.iter().copied().take(n).collect();
            assert_eq!(view.hottest(n), expect, "n = {n}");
        }
        let ids: Vec<usize> = view.hottest(5).iter().map(|(id, _)| id.index()).collect();
        assert_eq!(ids, [2, 5, 9, 1, 3]);
    }

    #[test]
    fn inclusive_kind_derives_exclusive() {
        let mut p = Profile::new("t");
        let m = p.add_metric(MetricDescriptor::new(
            "inc",
            MetricUnit::Count,
            MetricKind::Inclusive,
        ));
        let main = p.child(p.root(), &Frame::function("main"));
        let a = p.child(main, &Frame::function("a"));
        p.set_value(main, m, 10.0);
        p.set_value(a, m, 7.0);
        let view = MetricView::compute(&p, m);
        assert_eq!(view.inclusive(main), 10.0);
        assert_eq!(view.exclusive(main), 3.0);
        assert_eq!(view.exclusive(a), 7.0);
        // Root has no stored value: inherits children.
        assert_eq!(view.total(), 10.0);
    }

    #[test]
    fn point_kind_passes_through() {
        let mut p = Profile::new("t");
        let m = p.add_metric(MetricDescriptor::new(
            "hwm",
            MetricUnit::Bytes,
            MetricKind::Point,
        ));
        let n = p.add_sample(&[Frame::function("f")], &[(m, 100.0)]);
        let view = MetricView::compute(&p, m);
        assert_eq!(view.inclusive(n), 100.0);
        assert_eq!(view.exclusive(n), 100.0);
        // No subtree summation for point metrics.
        assert_eq!(view.inclusive(p.root()), 0.0);
    }

    #[test]
    fn prune_folds_small_subtrees() {
        let mut p = Profile::new("t");
        let m = exclusive_metric(&mut p);
        p.add_sample(&[Frame::function("big")], &[(m, 95.0)]);
        p.add_sample(&[Frame::function("tiny1")], &[(m, 3.0)]);
        p.add_sample(&[Frame::function("tiny2")], &[(m, 2.0)]);
        let pruned = prune(&p, m, 0.05);
        pruned.validate().unwrap();
        // tiny1/tiny2 fold into «pruned»; totals conserved.
        assert_eq!(pruned.total(m), 100.0);
        let names: Vec<String> = pruned
            .node_ids()
            .map(|id| pruned.resolve_frame(id).name)
            .collect();
        assert!(names.contains(&"big".to_owned()));
        assert!(names.contains(&"«pruned»".to_owned()));
        assert!(!names.contains(&"tiny1".to_owned()));
    }

    #[test]
    fn prune_zero_threshold_is_identity_shape() {
        let mut p = Profile::new("t");
        let m = exclusive_metric(&mut p);
        p.add_sample(&[Frame::function("a"), Frame::function("b")], &[(m, 1.0)]);
        let pruned = prune(&p, m, 0.0);
        assert_eq!(pruned.node_count(), p.node_count());
        assert_eq!(pruned.total(m), p.total(m));
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn prune_rejects_bad_threshold() {
        let mut p = Profile::new("t");
        let m = exclusive_metric(&mut p);
        prune(&p, m, 1.5);
    }

    #[test]
    fn collapse_merges_recursive_chains() {
        let mut p = Profile::new("t");
        let m = exclusive_metric(&mut p);
        // main -> fib -> fib -> fib -> leaf
        p.add_sample(
            &[
                Frame::function("main"),
                Frame::function("fib"),
                Frame::function("fib"),
                Frame::function("fib"),
                Frame::function("leaf"),
            ],
            &[(m, 1.0)],
        );
        // Values on intermediate recursive frames accumulate.
        let mut node = p.root();
        for name in ["main", "fib", "fib"] {
            node = p.child(node, &Frame::function(name));
        }
        p.add_value(node, m, 2.0);

        let collapsed = collapse_recursion(&p);
        collapsed.validate().unwrap();
        let fibs: Vec<NodeId> = collapsed
            .node_ids()
            .filter(|&id| collapsed.resolve_frame(id).name == "fib")
            .collect();
        assert_eq!(fibs.len(), 1);
        assert_eq!(collapsed.value(fibs[0], m), 2.0);
        assert_eq!(collapsed.total(m), 3.0);
        // leaf now hangs directly off the single fib.
        let leaf = collapsed
            .node_ids()
            .find(|&id| collapsed.resolve_frame(id).name == "leaf")
            .unwrap();
        assert_eq!(collapsed.node(leaf).parent(), Some(fibs[0]));
    }

    #[test]
    fn collapse_keeps_distinct_lines_of_same_function() {
        // Recursion detection ignores line numbers: f:1 -> f:2 merges.
        let mut p = Profile::new("t");
        let m = exclusive_metric(&mut p);
        p.add_sample(
            &[
                Frame::function("f").with_source("a.c", 1),
                Frame::function("f").with_source("a.c", 2),
            ],
            &[(m, 1.0)],
        );
        let collapsed = collapse_recursion(&p);
        let fs: Vec<NodeId> = collapsed
            .node_ids()
            .filter(|&id| collapsed.resolve_frame(id).name == "f")
            .collect();
        assert_eq!(fs.len(), 1);
    }

    /// Random profile generator for property tests.
    fn arb_profile() -> impl Gen<Value = Profile> {
        vec(
            (
                vec(0u8..6, 1..8), // path of function indices
                0.0f64..100.0,
            ),
            1..40,
        )
        .prop_map(|samples| {
            let mut p = Profile::new("arb");
            let m = p.add_metric(MetricDescriptor::new(
                "m",
                MetricUnit::Count,
                MetricKind::Exclusive,
            ));
            for (path, value) in samples {
                let frames: Vec<Frame> = path
                    .iter()
                    .map(|i| Frame::function(format!("f{i}")))
                    .collect();
                p.add_sample(&frames, &[(m, value)]);
            }
            p
        })
    }

    property! {
        fn inclusive_equals_exclusive_plus_children(p in arb_profile()) {
            let m = p.metric_by_name("m").unwrap();
            let view = MetricView::compute(&p, m);
            for id in p.node_ids() {
                let child_sum: f64 = p
                    .node(id)
                    .children()
                    .iter()
                    .map(|c| view.inclusive(*c))
                    .sum();
                let expect = view.exclusive(id) + child_sum;
                prop_assert!((view.inclusive(id) - expect).abs() < 1e-9);
            }
            prop_assert!((view.total() - p.total(m)).abs() < 1e-6);
        }

        fn prune_conserves_totals(p in arb_profile(), threshold in 0.0f64..0.5) {
            let m = p.metric_by_name("m").unwrap();
            let pruned = prune(&p, m, threshold);
            pruned.validate().unwrap();
            prop_assert!((pruned.total(m) - p.total(m)).abs() < 1e-6);
            prop_assert!(pruned.node_count() <= p.node_count() + 64);
        }

        fn collapse_conserves_totals(p in arb_profile()) {
            let m = p.metric_by_name("m").unwrap();
            let collapsed = collapse_recursion(&p);
            collapsed.validate().unwrap();
            prop_assert!((collapsed.total(m) - p.total(m)).abs() < 1e-6);
            // Collapsing never grows the tree.
            prop_assert!(collapsed.node_count() <= p.node_count());
        }
    }
}
