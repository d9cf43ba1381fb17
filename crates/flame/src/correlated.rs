//! Correlated flame graphs (paper §VI-A-b, Fig. 7).
//!
//! The representation can attach one metric to several contexts
//! ([`ev_core::ContextLink`]); this view walks those links
//! interactively. For the LULESH locality study: the first pane shows
//! all array *allocations*; selecting one reveals the *uses* of that
//! array; selecting a use reveals the *reuses* that follow it — three
//! flame graphs correlated through `UseReuse` links, which "can easily
//! guide locality optimization".

use crate::layout::FlameGraph;
use ev_core::{Frame, LinkKind, MetricDescriptor, MetricId, MetricKind, NodeId, Profile};

/// An interactive chain of flame graphs over a profile's links.
#[derive(Debug, Clone)]
pub struct CorrelatedView<'p> {
    profile: &'p Profile,
    kind: LinkKind,
    metric: MetricId,
}

impl<'p> CorrelatedView<'p> {
    /// Creates a view over `profile`'s links of `kind`, sizing panes by
    /// `metric` (each link's attached value).
    pub fn new(profile: &'p Profile, kind: LinkKind, metric: MetricId) -> CorrelatedView<'p> {
        CorrelatedView {
            profile,
            kind,
            metric,
        }
    }

    /// Distinct endpoint contexts at `position` within the links,
    /// optionally filtered by the already-selected earlier endpoints.
    ///
    /// Position 0 with no selection = the left pane (e.g. allocations);
    /// position 1 filtered by a selected allocation = the middle pane
    /// (uses of that allocation); and so on.
    pub fn endpoints(&self, position: usize, selection: &[NodeId]) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = Vec::new();
        for link in self.profile.links() {
            if link.kind() != self.kind {
                continue;
            }
            if link.endpoints().len() <= position {
                continue;
            }
            if !selection
                .iter()
                .enumerate()
                .all(|(i, &s)| link.endpoints().get(i) == Some(&s))
            {
                continue;
            }
            let endpoint = link.endpoints()[position];
            if !out.contains(&endpoint) {
                out.push(endpoint);
            }
        }
        out
    }

    /// Lays out the pane at `position` given `selection`: the call paths
    /// of all matching endpoint contexts, weighted by the link metric.
    pub fn pane(&self, position: usize, selection: &[NodeId]) -> FlameGraph {
        let mut out = Profile::new(format!(
            "{} pane {position} of {}",
            self.kind,
            self.profile.meta().name
        ));
        let descriptor = self.profile.metric(self.metric).clone();
        let m = out.add_metric(MetricDescriptor::new(
            descriptor.name,
            descriptor.unit,
            MetricKind::Exclusive,
        ));
        for link in self.profile.links() {
            if link.kind() != self.kind || link.endpoints().len() <= position {
                continue;
            }
            if !selection
                .iter()
                .enumerate()
                .all(|(i, &s)| link.endpoints().get(i) == Some(&s))
            {
                continue;
            }
            let endpoint = link.endpoints()[position];
            let path: Vec<Frame> = self
                .profile
                .path(endpoint)
                .iter()
                .map(|&id| self.profile.resolve_frame(id))
                .collect();
            let value = link.value(self.metric);
            out.add_sample(&path, &[(m, value)]);
        }
        FlameGraph::top_down(&out, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::{ContextLink, MetricUnit};

    /// Builds a LULESH-shaped profile: two allocations, each used and
    /// reused in hot loops.
    fn reuse_profile() -> (Profile, MetricId, Vec<NodeId>) {
        let mut p = Profile::new("lulesh");
        let bytes = p.add_metric(MetricDescriptor::new(
            "bytes",
            MetricUnit::Bytes,
            MetricKind::Exclusive,
        ));
        let main = p.child(p.root(), &Frame::function("main"));
        let alloc_a = p.child(main, &Frame::heap_object("determ[]"));
        let alloc_b = p.child(main, &Frame::heap_object("x8n[]"));
        let calc_v = p.child(main, &Frame::function("CalcVolumeForceForElems"));
        let use_a = p.child(calc_v, &Frame::function("load determ"));
        let calc_h = p.child(calc_v, &Frame::function("CalcHourglassForceForElems"));
        let reuse_a = p.child(calc_h, &Frame::function("reload determ"));
        let use_b = p.child(calc_h, &Frame::function("load x8n"));
        let reuse_b = p.child(calc_h, &Frame::function("reload x8n"));

        p.add_link(
            ContextLink::new(LinkKind::UseReuse)
                .with_endpoint(alloc_a)
                .with_endpoint(use_a)
                .with_endpoint(reuse_a)
                .with_value(bytes, 800.0),
        );
        p.add_link(
            ContextLink::new(LinkKind::UseReuse)
                .with_endpoint(alloc_b)
                .with_endpoint(use_b)
                .with_endpoint(reuse_b)
                .with_value(bytes, 200.0),
        );
        (p, bytes, vec![alloc_a, alloc_b, use_a, reuse_a])
    }

    #[test]
    fn first_pane_lists_allocations() {
        let (p, bytes, ids) = reuse_profile();
        let view = CorrelatedView::new(&p, LinkKind::UseReuse, bytes);
        let allocs = view.endpoints(0, &[]);
        assert_eq!(allocs, vec![ids[0], ids[1]]);
        let pane = view.pane(0, &[]);
        let labels: Vec<&str> = pane.rects().iter().map(|r| r.label.as_str()).collect();
        assert!(labels.contains(&"determ[]"));
        assert!(labels.contains(&"x8n[]"));
        // Widths ∝ link values: determ 800/1000.
        let determ = pane.rects().iter().find(|r| r.label == "determ[]").unwrap();
        assert!((determ.width - 0.8).abs() < 1e-9);
    }

    #[test]
    fn selecting_allocation_filters_uses() {
        let (p, bytes, ids) = reuse_profile();
        let view = CorrelatedView::new(&p, LinkKind::UseReuse, bytes);
        let uses = view.endpoints(1, &[ids[0]]);
        assert_eq!(uses, vec![ids[2]]);
        let pane = view.pane(1, &[ids[0]]);
        let labels: Vec<&str> = pane.rects().iter().map(|r| r.label.as_str()).collect();
        assert!(labels.contains(&"load determ"), "{labels:?}");
        assert!(!labels.contains(&"load x8n"), "{labels:?}");
        // The use's call path is visible (CalcVolumeForceForElems above it).
        assert!(labels.contains(&"CalcVolumeForceForElems"));
    }

    #[test]
    fn selecting_use_filters_reuses() {
        let (p, bytes, ids) = reuse_profile();
        let view = CorrelatedView::new(&p, LinkKind::UseReuse, bytes);
        let reuses = view.endpoints(2, &[ids[0], ids[2]]);
        assert_eq!(reuses, vec![ids[3]]);
        let pane = view.pane(2, &[ids[0], ids[2]]);
        let labels: Vec<&str> = pane.rects().iter().map(|r| r.label.as_str()).collect();
        assert!(labels.contains(&"reload determ"), "{labels:?}");
        assert!(labels.contains(&"CalcHourglassForceForElems"), "{labels:?}");
    }

    #[test]
    fn other_link_kinds_are_invisible() {
        let (mut p, bytes, ids) = reuse_profile();
        p.add_link(
            ContextLink::new(LinkKind::DataRace)
                .with_endpoint(ids[0])
                .with_endpoint(ids[1]),
        );
        let view = CorrelatedView::new(&p, LinkKind::DataRace, bytes);
        assert_eq!(view.endpoints(0, &[]).len(), 1);
        let view = CorrelatedView::new(&p, LinkKind::UseReuse, bytes);
        assert_eq!(view.endpoints(0, &[]).len(), 2);
    }

    #[test]
    fn empty_selection_of_unknown_node_yields_empty_pane() {
        let (p, bytes, _) = reuse_profile();
        let view = CorrelatedView::new(&p, LinkKind::UseReuse, bytes);
        let pane = view.pane(1, &[NodeId::ROOT]);
        assert_eq!(pane.rects().len(), 1, "only the synthetic root remains");
    }
}
