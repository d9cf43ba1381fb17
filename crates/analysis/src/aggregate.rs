//! Aggregation across multiple profiles (paper §V-A-c).
//!
//! Aggregation merges N profiles into one unified tree and derives
//! statistical metrics (sum, min, max, mean) per node, while keeping the
//! full per-profile value series for each node — the data behind the
//! per-context histograms of Fig. 4 and the snapshot-timeline leak
//! analysis of §VII-C1.

use ev_core::{MetricDescriptor, MetricId, MetricKind, NodeId, Profile};
use ev_par::{fan_out, ExecPolicy};

/// The derived statistic channels of an [`Aggregate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregateMetrics {
    /// Σ over profiles.
    pub sum: MetricId,
    /// Minimum over profiles.
    pub min: MetricId,
    /// Maximum over profiles.
    pub max: MetricId,
    /// Arithmetic mean over profiles.
    pub mean: MetricId,
}

/// The result of aggregating N profiles over one metric.
#[derive(Debug, Clone)]
pub struct Aggregate {
    /// The unified tree carrying the derived statistic metrics.
    pub profile: Profile,
    /// Handles to the derived metrics inside [`Aggregate::profile`].
    pub metrics: AggregateMetrics,
    /// `series[node][k]` = the metric value of unified-tree node `node`
    /// in input profile `k` (0 where the context is absent).
    series: Vec<Vec<f64>>,
    profiles: usize,
}

impl Aggregate {
    /// The per-profile value series of `node` — the histogram EasyView
    /// attaches to a context in the aggregate view.
    pub fn series(&self, node: NodeId) -> &[f64] {
        &self.series[node.index()]
    }

    /// Number of input profiles.
    pub fn profile_count(&self) -> usize {
        self.profiles
    }

    /// Splits the aggregate into its unified tree and the per-node value
    /// series (`series[node.index()]`), moving both out without a copy.
    pub fn into_parts(self) -> (Profile, Vec<Vec<f64>>) {
        (self.profile, self.series)
    }
}

/// Merges `profiles` over the metric named `metric_name` (each input
/// must carry it).
///
/// Contexts merge by frame identity along root paths, exactly like
/// samples within one profile; a context absent from profile `k`
/// reports 0 in slot `k` of its series.
///
/// # Errors
///
/// Returns the offending profile's index if it lacks `metric_name`.
///
/// # Panics
///
/// Panics when `profiles` is empty.
pub fn aggregate(profiles: &[&Profile], metric_name: &str) -> Result<Aggregate, usize> {
    aggregate_with(profiles, metric_name, ExecPolicy::auto())
}

/// One profile's slice of the reduction: a structure-only tree plus a
/// per-node value matrix covering a contiguous run of input profiles.
struct Partial {
    /// Unified tree of the covered profiles (no metrics, structure and
    /// interning only).
    tree: Profile,
    /// `series[node][j]` = value in the `j`-th covered profile.
    series: Vec<Vec<f64>>,
    /// Number of profiles this partial covers.
    width: usize,
}

/// Builds the leaf partial for a single input profile: `profile`
/// grafted into an empty tree.
fn build_leaf(profile: &Profile, metric: MetricId) -> Partial {
    let mut tree = Profile::new("partial");
    let mut series: Vec<Vec<f64>> = Vec::new();
    tree.graft(
        profile,
        |_| true,
        |tree, src, dst| {
            series.resize_with(tree.node_count(), || vec![0.0]);
            let value = profile.value(src, metric);
            if value != 0.0 {
                series[dst.index()][0] += value;
            }
        },
    );
    Partial {
        tree,
        series,
        width: 1,
    }
}

/// Merges `b` into `a` by grafting `b`'s tree onto `a`'s. The two cover
/// adjacent profile runs, so their value columns concatenate; no
/// floating-point value is ever combined with another, which keeps
/// every thread count bit-identical.
fn merge_partials(mut a: Partial, b: Partial) -> Partial {
    let (wa, width) = (a.width, a.width + b.width);
    for row in &mut a.series {
        row.resize(width, 0.0);
    }
    let series = &mut a.series;
    a.tree.graft(
        &b.tree,
        |_| true,
        |tree, src, dst| {
            series.resize_with(tree.node_count(), || vec![0.0; width]);
            for (j, &v) in b.series[src.index()].iter().enumerate() {
                if v != 0.0 {
                    series[dst.index()][wa + j] = v;
                }
            }
        },
    );
    a.width = width;
    a
}

/// [`aggregate`] with an explicit parallelism policy.
///
/// The reduction is a balanced binary merge tree whose shape depends
/// only on `profiles.len()` — never on the thread count — and column
/// slots are disjoint per profile, so the output is bit-identical for
/// every [`ExecPolicy`] (threads = 1 runs the same reduction inline).
///
/// # Errors
///
/// Returns the offending profile's index if it lacks `metric_name`.
///
/// # Panics
///
/// Panics when `profiles` is empty.
pub fn aggregate_with(
    profiles: &[&Profile],
    metric_name: &str,
    policy: ExecPolicy,
) -> Result<Aggregate, usize> {
    let _span = ev_trace::span("analysis.aggregate");
    assert!(!profiles.is_empty(), "aggregate requires at least one profile");
    let n = profiles.len();
    let source_metrics: Vec<MetricId> = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| p.metric_by_name(metric_name).ok_or(i))
        .collect::<Result<_, _>>()?;

    // Leaves: one partial per input profile, built concurrently.
    let inputs: Vec<(&Profile, MetricId)> = profiles
        .iter()
        .copied()
        .zip(source_metrics.iter().copied())
        .collect();
    let leaves: Vec<Partial> = fan_out(inputs, policy, |(p, metric)| build_leaf(p, metric));

    // Balanced pairwise reduction; merges within a level are
    // independent and run concurrently, the level order is fixed.
    let mut current = leaves;
    while current.len() > 1 {
        let mut iter = current.into_iter();
        let mut pairs: Vec<(Partial, Option<Partial>)> = Vec::new();
        while let Some(a) = iter.next() {
            pairs.push((a, iter.next()));
        }
        current = fan_out(pairs, policy, |(a, b)| match b {
            Some(b) => merge_partials(a, b),
            None => a,
        });
    }
    let unified = current.pop().unwrap();
    let series = unified.series;
    let mut out = unified.tree;

    let descriptor = profiles[0].metric(source_metrics[0]).clone();
    out.meta_mut().name = format!("aggregate of {n} profiles");
    out.meta_mut().profiler = profiles[0].meta().profiler.clone();
    out.meta_mut().description = format!("aggregate over {metric_name}");
    let metrics = AggregateMetrics {
        sum: out.add_metric(
            MetricDescriptor::new(format!("{metric_name}/sum"), descriptor.unit, descriptor.kind)
                .with_description("sum across profiles"),
        ),
        min: out.add_metric(
            MetricDescriptor::new(
                format!("{metric_name}/min"),
                descriptor.unit,
                MetricKind::Point,
            )
            .with_description("minimum across profiles"),
        ),
        max: out.add_metric(
            MetricDescriptor::new(
                format!("{metric_name}/max"),
                descriptor.unit,
                MetricKind::Point,
            )
            .with_description("maximum across profiles"),
        ),
        mean: out.add_metric(
            MetricDescriptor::new(
                format!("{metric_name}/mean"),
                descriptor.unit,
                MetricKind::Point,
            )
            .with_description("mean across profiles"),
        ),
    };

    // Derived statistics: computed per node concurrently (row order is
    // fixed, so the summation order is too), applied sequentially.
    let nodes: Vec<NodeId> = out.node_ids().collect();
    let stats: Vec<Option<(f64, f64, f64)>> = fan_out(nodes, policy, |node| {
        let values = &series[node.index()];
        if values.iter().all(|&v| v == 0.0) {
            return None;
        }
        let sum: f64 = values.iter().sum();
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some((sum, min, max))
    });
    for (node, stat) in out.node_ids().zip(stats) {
        if let Some((sum, min, max)) = stat {
            out.set_value(node, metrics.sum, sum);
            out.set_value(node, metrics.min, min);
            out.set_value(node, metrics.max, max);
            out.set_value(node, metrics.mean, sum / n as f64);
        }
    }

    out.finish();
    Ok(Aggregate {
        profile: out,
        metrics,
        series,
        profiles: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::{Frame, MetricUnit, Profile};
    use ev_test::prelude::*;

    fn snapshot(values: &[(&str, f64)]) -> Profile {
        let mut p = Profile::new("snap");
        let m = p.add_metric(MetricDescriptor::new(
            "inuse",
            MetricUnit::Bytes,
            MetricKind::Exclusive,
        ));
        for &(name, v) in values {
            p.add_sample(
                &[Frame::function("main"), Frame::function(name)],
                &[(m, v)],
            );
        }
        p
    }

    #[test]
    fn derives_statistics_per_node() {
        let p1 = snapshot(&[("alloc", 10.0), ("tmp", 5.0)]);
        let p2 = snapshot(&[("alloc", 20.0)]);
        let p3 = snapshot(&[("alloc", 30.0), ("tmp", 1.0)]);
        let agg = aggregate(&[&p1, &p2, &p3], "inuse").unwrap();
        agg.profile.validate().unwrap();
        assert_eq!(agg.profile_count(), 3);

        let alloc = agg
            .profile
            .node_ids()
            .find(|&id| agg.profile.resolve_frame(id).name == "alloc")
            .unwrap();
        assert_eq!(agg.profile.value(alloc, agg.metrics.sum), 60.0);
        assert_eq!(agg.profile.value(alloc, agg.metrics.min), 10.0);
        assert_eq!(agg.profile.value(alloc, agg.metrics.max), 30.0);
        assert_eq!(agg.profile.value(alloc, agg.metrics.mean), 20.0);
        assert_eq!(agg.series(alloc), [10.0, 20.0, 30.0]);

        // tmp is absent from p2: zero in its slot.
        let tmp = agg
            .profile
            .node_ids()
            .find(|&id| agg.profile.resolve_frame(id).name == "tmp")
            .unwrap();
        assert_eq!(agg.series(tmp), [5.0, 0.0, 1.0]);
        assert_eq!(agg.profile.value(tmp, agg.metrics.min), 0.0);
    }

    #[test]
    fn missing_metric_reports_profile_index() {
        let p1 = snapshot(&[("a", 1.0)]);
        let mut p2 = Profile::new("other");
        p2.add_metric(MetricDescriptor::new(
            "different",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ));
        assert_eq!(aggregate(&[&p1, &p2], "inuse").unwrap_err(), 1);
    }

    #[test]
    fn single_profile_aggregate_is_identityish() {
        let p = snapshot(&[("a", 4.0)]);
        let agg = aggregate(&[&p], "inuse").unwrap();
        let a = agg
            .profile
            .node_ids()
            .find(|&id| agg.profile.resolve_frame(id).name == "a")
            .unwrap();
        assert_eq!(agg.profile.value(a, agg.metrics.sum), 4.0);
        assert_eq!(agg.profile.value(a, agg.metrics.mean), 4.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_input_panics() {
        let _ = aggregate(&[], "m");
    }

    property! {
        fn sum_equals_total_of_totals(
            snapshots in vec(
                vec((0u8..5, 0.0f64..100.0), 1..10),
                1..6,
            )
        ) {
            let profiles: Vec<Profile> = snapshots
                .iter()
                .map(|entries| {
                    let pairs: Vec<(String, f64)> = entries
                        .iter()
                        .map(|&(i, v)| (format!("site{i}"), v))
                        .collect();
                    let borrowed: Vec<(&str, f64)> =
                        pairs.iter().map(|(s, v)| (s.as_str(), *v)).collect();
                    snapshot(&borrowed)
                })
                .collect();
            let refs: Vec<&Profile> = profiles.iter().collect();
            let agg = aggregate(&refs, "inuse").unwrap();
            let expected: f64 = profiles
                .iter()
                .map(|p| p.total(p.metric_by_name("inuse").unwrap()))
                .sum();
            prop_assert!((agg.profile.total(agg.metrics.sum) - expected).abs() < 1e-6);
            // Mean * n == sum per node.
            for id in agg.profile.node_ids() {
                let sum = agg.profile.value(id, agg.metrics.sum);
                let mean = agg.profile.value(id, agg.metrics.mean);
                prop_assert!((mean * profiles.len() as f64 - sum).abs() < 1e-6);
                // Series length is always n.
                prop_assert_eq!(agg.series(id).len(), profiles.len());
            }
        }
    }
}
