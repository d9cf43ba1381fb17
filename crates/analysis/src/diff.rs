//! Differentiation of two profiles (paper §V-A-c, Fig. 3).
//!
//! The differential view compares a baseline profile P₁ against a
//! changed profile P₂ and tags every context:
//!
//! * `[A]` — added: present in P₂ only;
//! * `[D]` — deleted: present in P₁ only;
//! * `[+]` — in both, metric grew in P₂;
//! * `[-]` — in both, metric shrank in P₂;
//! * `[=]` — in both, unchanged.
//!
//! Following the paper, "two nodes are differentiable [only] if all the
//! parents (ancestors) are differentiable": contexts match by identical
//! root paths, so a subtree under an added node is wholly `[A]` and one
//! under a deleted node wholly `[D]`. Unlike color-only prior work, the
//! result carries quantified deltas and can be re-shaped into top-down,
//! bottom-up, and flat views (the merged tree is an ordinary
//! [`Profile`]).

use ev_core::{MetricDescriptor, MetricId, MetricKind, NodeId, Profile};
use std::fmt;

/// The difference class of one context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiffTag {
    /// Present only in the second profile.
    Added,
    /// Present only in the first profile.
    Deleted,
    /// Present in both; value increased.
    Increased,
    /// Present in both; value decreased.
    Decreased,
    /// Present in both; value unchanged.
    Unchanged,
}

impl fmt::Display for DiffTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self {
            DiffTag::Added => "[A]",
            DiffTag::Deleted => "[D]",
            DiffTag::Increased => "[+]",
            DiffTag::Decreased => "[-]",
            DiffTag::Unchanged => "[=]",
        };
        f.write_str(tag)
    }
}

/// Per-node difference record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffEntry {
    /// Difference class.
    pub tag: DiffTag,
    /// Exclusive value in P₁ (0 for added contexts).
    pub before: f64,
    /// Exclusive value in P₂ (0 for deleted contexts).
    pub after: f64,
}

impl DiffEntry {
    /// `after - before`.
    pub fn delta(&self) -> f64 {
        self.after - self.before
    }
}

/// The merged differential profile.
#[derive(Debug, Clone)]
pub struct DiffProfile {
    /// The union tree. Carries three metrics: `before`, `after`, and
    /// `delta` (all exclusive), so the standard transforms and views
    /// apply directly.
    pub profile: Profile,
    /// Metric channel holding P₁ values.
    pub before: MetricId,
    /// Metric channel holding P₂ values.
    pub after: MetricId,
    /// Metric channel holding `after - before`.
    pub delta: MetricId,
    entries: Vec<DiffEntry>,
}

impl DiffProfile {
    /// The difference record for `node`.
    pub fn entry(&self, node: NodeId) -> DiffEntry {
        self.entries[node.index()]
    }

    /// Iterates `(node, entry)` pairs in pre-order.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, DiffEntry)> + '_ {
        self.profile.pre_order().map(|id| (id, self.entry(id)))
    }

    /// Counts nodes per tag — a quick summary for floating windows.
    pub fn tag_counts(&self) -> [(DiffTag, usize); 5] {
        let mut counts = [
            (DiffTag::Added, 0),
            (DiffTag::Deleted, 0),
            (DiffTag::Increased, 0),
            (DiffTag::Decreased, 0),
            (DiffTag::Unchanged, 0),
        ];
        for (node, entry) in self.entries() {
            if node == NodeId::ROOT {
                continue;
            }
            let slot = match entry.tag {
                DiffTag::Added => 0,
                DiffTag::Deleted => 1,
                DiffTag::Increased => 2,
                DiffTag::Decreased => 3,
                DiffTag::Unchanged => 4,
            };
            counts[slot].1 += 1;
        }
        counts
    }
}

/// Differentiates `second` against `first` over the metric named
/// `metric_name`, comparing exclusive values per matched context.
///
/// Values within `epsilon` (absolute) count as unchanged. The union
/// tree is P₁ grafted into an empty profile, then P₂ grafted on top
/// ([`Profile::graft`]), so node ids and string-table order depend only
/// on the two inputs.
///
/// # Errors
///
/// Returns `0` if `first` lacks the metric, `1` if `second` does.
pub fn diff(
    first: &Profile,
    second: &Profile,
    metric_name: &str,
    epsilon: f64,
) -> Result<DiffProfile, usize> {
    let _span = ev_trace::span("analysis.diff");
    let m1 = first.metric_by_name(metric_name).ok_or(0usize)?;
    let m2 = second.metric_by_name(metric_name).ok_or(1usize)?;
    let descriptor = first.metric(m1).clone();

    let mut out = Profile::new(format!(
        "diff: {} vs {}",
        first.meta().name,
        second.meta().name
    ));
    out.meta_mut().description = format!("differential over {metric_name}");
    let before = out.add_metric(
        MetricDescriptor::new("before", descriptor.unit, MetricKind::Exclusive)
            .with_description(format!("{metric_name} in P1")),
    );
    let after = out.add_metric(
        MetricDescriptor::new("after", descriptor.unit, MetricKind::Exclusive)
            .with_description(format!("{metric_name} in P2")),
    );
    let delta = out.add_metric(
        MetricDescriptor::new("delta", descriptor.unit, MetricKind::Exclusive)
            .with_description(format!("{metric_name} change (P2 - P1)")),
    );

    // Graft P1, then P2, recording each side's raw value per unified
    // node (`None` where the context is absent from that side).
    let mut sides: [Vec<Option<f64>>; 2] = Default::default();
    for (side, (source, metric)) in sides.iter_mut().zip([(first, m1), (second, m2)]) {
        out.graft(
            source,
            |_| true,
            |out, src, dst| {
                side.resize(out.node_count(), None);
                *side[dst.index()].get_or_insert(0.0) += source.value(src, metric);
            },
        );
    }
    let n = out.node_count();
    let [firsts, seconds] = sides.map(|mut side| {
        side.resize(n, None);
        side
    });

    let mut entries: Vec<DiffEntry> = Vec::with_capacity(n);
    for node in out.node_ids().collect::<Vec<_>>() {
        let (p1, p2) = (firsts[node.index()], seconds[node.index()]);
        let (b, a) = (p1.unwrap_or(0.0), p2.unwrap_or(0.0));
        let tag = match (p1.is_some(), p2.is_some()) {
            (true, false) => DiffTag::Deleted,
            (false, true) => DiffTag::Added,
            _ => {
                if (a - b).abs() <= epsilon {
                    DiffTag::Unchanged
                } else if a > b {
                    DiffTag::Increased
                } else {
                    DiffTag::Decreased
                }
            }
        };
        if b != 0.0 {
            out.set_value(node, before, b);
        }
        if a != 0.0 {
            out.set_value(node, after, a);
        }
        if a - b != 0.0 {
            out.set_value(node, delta, a - b);
        }
        entries.push(DiffEntry {
            tag,
            before: b,
            after: a,
        });
    }

    out.finish();
    Ok(DiffProfile {
        profile: out,
        before,
        after,
        delta,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::{Frame, MetricUnit};
    use ev_test::prelude::*;

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

    fn find(d: &DiffProfile, name: &str) -> NodeId {
        d.profile
            .node_ids()
            .find(|&id| d.profile.resolve_frame(id).name == name)
            .unwrap()
    }

    #[test]
    fn tags_follow_paper_semantics() {
        let p1 = profile(&[
            (&["main", "shuffle"], 50.0),
            (&["main", "common"], 10.0),
            (&["main", "shrinking"], 20.0),
        ]);
        let p2 = profile(&[
            (&["main", "sql_engine"], 30.0),
            (&["main", "common"], 10.0),
            (&["main", "shrinking"], 5.0),
        ]);
        let d = diff(&p1, &p2, "cpu", 0.0).unwrap();
        d.profile.validate().unwrap();
        assert_eq!(d.entry(find(&d, "shuffle")).tag, DiffTag::Deleted);
        assert_eq!(d.entry(find(&d, "sql_engine")).tag, DiffTag::Added);
        assert_eq!(d.entry(find(&d, "common")).tag, DiffTag::Unchanged);
        assert_eq!(d.entry(find(&d, "shrinking")).tag, DiffTag::Decreased);
        // main: 80 -> 45 exclusive? main has 0 exclusive in both; unchanged.
        assert_eq!(d.entry(find(&d, "main")).tag, DiffTag::Unchanged);
        assert_eq!(d.entry(find(&d, "shrinking")).delta(), -15.0);
    }

    #[test]
    fn subtrees_of_added_nodes_are_added() {
        let p1 = profile(&[(&["main"], 1.0)]);
        let p2 = profile(&[(&["main", "new", "deeper"], 5.0)]);
        let d = diff(&p1, &p2, "cpu", 0.0).unwrap();
        assert_eq!(d.entry(find(&d, "new")).tag, DiffTag::Added);
        assert_eq!(d.entry(find(&d, "deeper")).tag, DiffTag::Added);
    }

    #[test]
    fn same_name_different_path_does_not_match() {
        // helper under a in P1, under b in P2: both [D] and [A], per the
        // "ancestors must be differentiable" rule.
        let p1 = profile(&[(&["main", "a", "helper"], 5.0)]);
        let p2 = profile(&[(&["main", "b", "helper"], 5.0)]);
        let d = diff(&p1, &p2, "cpu", 0.0).unwrap();
        let helpers: Vec<DiffTag> = d
            .profile
            .node_ids()
            .filter(|&id| d.profile.resolve_frame(id).name == "helper")
            .map(|id| d.entry(id).tag)
            .collect();
        assert_eq!(helpers.len(), 2);
        assert!(helpers.contains(&DiffTag::Deleted));
        assert!(helpers.contains(&DiffTag::Added));
    }

    #[test]
    fn epsilon_treats_noise_as_unchanged() {
        let p1 = profile(&[(&["f"], 100.0)]);
        let p2 = profile(&[(&["f"], 100.4)]);
        let d = diff(&p1, &p2, "cpu", 0.5).unwrap();
        assert_eq!(d.entry(find(&d, "f")).tag, DiffTag::Unchanged);
        let d = diff(&p1, &p2, "cpu", 0.0).unwrap();
        assert_eq!(d.entry(find(&d, "f")).tag, DiffTag::Increased);
    }

    #[test]
    fn metrics_channels_hold_values() {
        let p1 = profile(&[(&["f"], 10.0)]);
        let p2 = profile(&[(&["f"], 25.0)]);
        let d = diff(&p1, &p2, "cpu", 0.0).unwrap();
        let f = find(&d, "f");
        assert_eq!(d.profile.value(f, d.before), 10.0);
        assert_eq!(d.profile.value(f, d.after), 25.0);
        assert_eq!(d.profile.value(f, d.delta), 15.0);
    }

    #[test]
    fn missing_metric_reports_side() {
        let p1 = profile(&[(&["f"], 1.0)]);
        let mut p2 = Profile::new("q");
        p2.add_metric(MetricDescriptor::new(
            "other",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ));
        assert_eq!(diff(&p1, &p2, "cpu", 0.0).unwrap_err(), 1);
        assert_eq!(diff(&p2, &p1, "cpu", 0.0).unwrap_err(), 0);
    }

    #[test]
    fn tag_counts_summarize() {
        let p1 = profile(&[(&["a"], 1.0), (&["b"], 2.0)]);
        let p2 = profile(&[(&["a"], 1.0), (&["c"], 3.0)]);
        let d = diff(&p1, &p2, "cpu", 0.0).unwrap();
        let counts = d.tag_counts();
        assert_eq!(counts[0], (DiffTag::Added, 1)); // c
        assert_eq!(counts[1], (DiffTag::Deleted, 1)); // b
        assert_eq!(counts[4], (DiffTag::Unchanged, 1)); // a
    }

    fn arb_profile() -> impl Gen<Value = Profile> {
        vec(
            (vec(0u8..5, 1..6), 0.5f64..50.0),
            1..25,
        )
        .prop_map(|samples| {
            let mut p = Profile::new("arb");
            let m = p.add_metric(MetricDescriptor::new(
                "cpu",
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
        fn diff_with_self_is_all_unchanged(p in arb_profile()) {
            let d = diff(&p, &p, "cpu", 0.0).unwrap();
            for (node, entry) in d.entries() {
                prop_assert_eq!(entry.tag, DiffTag::Unchanged, "node {:?}", node);
                prop_assert_eq!(entry.delta(), 0.0);
            }
            prop_assert_eq!(d.profile.node_count(), p.node_count());
        }

        fn diff_is_antisymmetric(p in arb_profile(), q in arb_profile()) {
            let d1 = diff(&p, &q, "cpu", 0.0).unwrap();
            let d2 = diff(&q, &p, "cpu", 0.0).unwrap();
            // Same union size, and total deltas negate.
            prop_assert_eq!(d1.profile.node_count(), d2.profile.node_count());
            let t1 = d1.profile.total(d1.delta);
            let t2 = d2.profile.total(d2.delta);
            prop_assert!((t1 + t2).abs() < 1e-6);
            // Tag counts swap A<->D and +<->-.
            let c1 = d1.tag_counts();
            let c2 = d2.tag_counts();
            prop_assert_eq!(c1[0].1, c2[1].1);
            prop_assert_eq!(c1[1].1, c2[0].1);
            prop_assert_eq!(c1[2].1, c2[3].1);
            prop_assert_eq!(c1[3].1, c2[2].1);
            prop_assert_eq!(c1[4].1, c2[4].1);
        }

        fn delta_totals_match_profile_totals(p in arb_profile(), q in arb_profile()) {
            let d = diff(&p, &q, "cpu", 0.0).unwrap();
            let mp = p.metric_by_name("cpu").unwrap();
            let mq = q.metric_by_name("cpu").unwrap();
            prop_assert!((d.profile.total(d.before) - p.total(mp)).abs() < 1e-6);
            prop_assert!((d.profile.total(d.after) - q.total(mq)).abs() < 1e-6);
            prop_assert!(
                (d.profile.total(d.delta) - (q.total(mq) - p.total(mp))).abs() < 1e-6
            );
        }
    }
}
