//! Ratio-based differentiation — the memory-scaling analysis
//! (paper §V-B: "users can use division instead of subtraction to
//! derive differential metrics, which is used to measure memory
//! scaling", after ScaAnalyzer).
//!
//! Given the same program measured at two scales (e.g. 2 ranks vs
//! 8 ranks), the per-context *ratio* `P₂/P₁` exposes which contexts
//! scale worse than the program as a whole: a context whose memory grows
//! 4× while the program grows 2× is a scaling bottleneck regardless of
//! its absolute size.

use crate::diff::{diff, DiffProfile};
use ev_core::{MetricDescriptor, MetricId, MetricKind, MetricUnit, NodeId, Profile};

/// The result of a scaling analysis.
#[derive(Debug, Clone)]
pub struct ScalingProfile {
    /// The union tree carrying `before`, `after`, and the derived
    /// `scaling` ratio channel.
    pub profile: Profile,
    /// Per-context ratio `after / before` ([`MetricKind::Point`];
    /// 0 where the context is missing from either side).
    pub scaling: MetricId,
    /// The whole-program ratio (total after / total before).
    pub program_ratio: f64,
    diff: DiffProfile,
}

impl ScalingProfile {
    /// The underlying subtraction-based differential (tags, deltas).
    pub fn diff(&self) -> &DiffProfile {
        &self.diff
    }

    /// The per-context ratio, 0 when undefined.
    pub fn ratio(&self, node: NodeId) -> f64 {
        self.profile.value(node, self.scaling)
    }

    /// Contexts whose ratio exceeds the program ratio by more than
    /// `tolerance` (multiplicative): the scaling bottlenecks, worst
    /// first.
    pub fn bottlenecks(&self, tolerance: f64) -> Vec<(NodeId, f64)> {
        let cutoff = self.program_ratio * (1.0 + tolerance);
        let mut out: Vec<(NodeId, f64)> = self
            .profile
            .node_ids()
            .filter(|&id| id != NodeId::ROOT)
            .map(|id| (id, self.ratio(id)))
            .filter(|&(_, r)| r > cutoff)
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }
}

/// Differentiates `second` against `first` by division over the metric
/// named `metric_name`.
///
/// # Errors
///
/// Returns `0`/`1` for the profile missing the metric, like
/// [`diff`].
pub fn scaling_diff(
    first: &Profile,
    second: &Profile,
    metric_name: &str,
) -> Result<ScalingProfile, usize> {
    let m1 = first.metric_by_name(metric_name).ok_or(0usize)?;
    let m2 = second.metric_by_name(metric_name).ok_or(1usize)?;
    let d = diff(first, second, metric_name, 0.0)?;
    let mut profile = d.profile.clone();
    let scaling = profile.add_metric(
        MetricDescriptor::new("scaling", MetricUnit::Ratio, MetricKind::Point)
            .with_description(format!("{metric_name} ratio P2/P1")),
    );
    for node in profile.node_ids().collect::<Vec<_>>() {
        let entry = d.entry(node);
        if entry.before > 0.0 && entry.after > 0.0 {
            profile.set_value(node, scaling, entry.after / entry.before);
        }
    }
    let (t1, t2) = (first.total(m1), second.total(m2));
    let program_ratio = if t1 > 0.0 { t2 / t1 } else { 0.0 };
    Ok(ScalingProfile {
        profile,
        scaling,
        program_ratio,
        diff: d,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::Frame;
    use ev_test::prelude::*;

    fn run_at_scale(scale: f64, bad_site_factor: f64) -> Profile {
        let mut p = Profile::new(format!("scale-{scale}"));
        let m = p.add_metric(MetricDescriptor::new(
            "heap",
            MetricUnit::Bytes,
            MetricKind::Exclusive,
        ));
        // Linear contexts grow with scale; the bad one superlinearly.
        p.add_sample(
            &[Frame::function("main"), Frame::function("halo_buffers")],
            &[(m, 100.0 * scale * bad_site_factor)],
        );
        p.add_sample(
            &[Frame::function("main"), Frame::function("local_state")],
            &[(m, 400.0 * scale)],
        );
        p.add_sample(
            &[Frame::function("main"), Frame::function("constants")],
            &[(m, 50.0)],
        );
        p
    }

    #[test]
    fn detects_superlinear_context() {
        // 4x the ranks: linear contexts grow 4x, halo buffers 16x.
        let p1 = run_at_scale(1.0, 1.0);
        let p2 = run_at_scale(4.0, 4.0);
        let s = scaling_diff(&p1, &p2, "heap").unwrap();
        let halo = s
            .profile
            .node_ids()
            .find(|&id| s.profile.resolve_frame(id).name == "halo_buffers")
            .unwrap();
        let local = s
            .profile
            .node_ids()
            .find(|&id| s.profile.resolve_frame(id).name == "local_state")
            .unwrap();
        assert_eq!(s.ratio(halo), 16.0);
        assert_eq!(s.ratio(local), 4.0);
        // The program grows < 16x, so only halo_buffers is flagged.
        let bottlenecks = s.bottlenecks(0.5);
        assert_eq!(bottlenecks.len(), 1);
        assert_eq!(bottlenecks[0].0, halo);
        assert!(s.program_ratio > 3.0 && s.program_ratio < 16.0);
    }

    #[test]
    fn missing_contexts_have_zero_ratio() {
        let p1 = run_at_scale(1.0, 1.0);
        let mut p2 = run_at_scale(2.0, 1.0);
        let m = p2.metric_by_name("heap").unwrap();
        p2.add_sample(&[Frame::function("new_site")], &[(m, 7.0)]);
        let s = scaling_diff(&p1, &p2, "heap").unwrap();
        let fresh = s
            .profile
            .node_ids()
            .find(|&id| s.profile.resolve_frame(id).name == "new_site")
            .unwrap();
        assert_eq!(s.ratio(fresh), 0.0, "added contexts have no ratio");
    }

    #[test]
    fn missing_metric_reports_side() {
        let p1 = run_at_scale(1.0, 1.0);
        let p2 = Profile::new("other");
        assert_eq!(scaling_diff(&p1, &p2, "heap").unwrap_err(), 1);
        assert_eq!(scaling_diff(&p2, &p1, "heap").unwrap_err(), 0);
    }

    property! {
        fn self_scaling_is_identity(scale in 0.5f64..8.0) {
            let p = run_at_scale(scale, 1.0);
            let s = scaling_diff(&p, &p, "heap").unwrap();
            prop_assert!((s.program_ratio - 1.0).abs() < 1e-9);
            for id in s.profile.node_ids() {
                let r = s.ratio(id);
                prop_assert!(r == 0.0 || (r - 1.0).abs() < 1e-9);
            }
            prop_assert!(s.bottlenecks(0.01).is_empty());
        }

        fn uniform_scaling_flags_nothing(factor in 1.1f64..10.0) {
            let p1 = run_at_scale(1.0, 1.0);
            let mut p2 = p1.clone();
            let m = p2.metric_by_name("heap").unwrap();
            for id in p2.node_ids().collect::<Vec<_>>() {
                let v = p2.value(id, m);
                if v != 0.0 {
                    p2.set_value(id, m, v * factor);
                }
            }
            let s = scaling_diff(&p1, &p2, "heap").unwrap();
            prop_assert!((s.program_ratio - factor).abs() < 1e-9);
            prop_assert!(s.bottlenecks(0.05).is_empty());
        }
    }
}
