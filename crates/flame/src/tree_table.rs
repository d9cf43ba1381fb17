//! The tree-table view (paper §VI-A-c) — the fold/unfold table of
//! VTune, HPCToolkit, and TAU, "particularly useful to visualize a
//! profile with multiple metrics".

use ev_analysis::MetricView;
use ev_core::{MetricId, NodeId, Profile};

/// One visible row of a [`TreeTable`].
#[derive(Debug, Clone, PartialEq)]
pub struct TableRow {
    /// The node this row shows.
    pub node: NodeId,
    /// Indentation depth.
    pub depth: usize,
    /// Frame label.
    pub label: String,
    /// `(inclusive, exclusive)` per requested metric, in order.
    pub values: Vec<(f64, f64)>,
    /// Whether the node has children (fold affordance).
    pub expandable: bool,
    /// Whether the node is currently expanded.
    pub expanded: bool,
}

/// A fold/unfold tree table over a borrowed profile with one or more
/// metric columns. Call [`TreeTable::expand`]/[`TreeTable::collapse`]
/// (the "manually unfold any call paths" interaction), then
/// [`TreeTable::rows`] for the visible rows.
#[derive(Debug, Clone)]
pub struct TreeTable<'a> {
    profile: &'a Profile,
    metrics: Vec<MetricId>,
    views: Vec<MetricView>,
    expanded: Vec<bool>,
}

impl<'a> TreeTable<'a> {
    /// Builds a table over `profile` with the given metric columns.
    /// Initially only the root is expanded.
    pub fn new(profile: &'a Profile, metrics: &[MetricId]) -> TreeTable<'a> {
        let views = metrics
            .iter()
            .map(|&m| MetricView::compute(profile, m))
            .collect();
        let mut expanded = vec![false; profile.node_count()];
        expanded[NodeId::ROOT.index()] = true;
        TreeTable {
            profile,
            metrics: metrics.to_vec(),
            views,
            expanded,
        }
    }

    /// The metric columns.
    pub fn metrics(&self) -> &[MetricId] {
        &self.metrics
    }

    /// Expands `node`, revealing its children.
    pub fn expand(&mut self, node: NodeId) {
        self.expanded[node.index()] = true;
    }

    /// Collapses `node`, hiding its subtree.
    pub fn collapse(&mut self, node: NodeId) {
        self.expanded[node.index()] = false;
    }

    /// Expands every ancestor chain down to `depth`. Parents precede
    /// their children, so one forward sweep finds every node's depth.
    pub fn expand_to_depth(&mut self, depth: usize) {
        let mut depths = vec![0usize; self.profile.node_count()];
        for id in self.profile.node_ids() {
            if let Some(parent) = self.profile.node(id).parent() {
                depths[id.index()] = depths[parent.index()] + 1;
            }
            if depths[id.index()] < depth {
                self.expanded[id.index()] = true;
            }
        }
    }

    /// Expands the highest-value child chain from the root — the "hot
    /// path" affordance most tree tables bind to a double-click.
    pub fn expand_hot_path(&mut self, metric_index: usize) {
        let view = &self.views[metric_index];
        let mut node = NodeId::ROOT;
        loop {
            self.expanded[node.index()] = true;
            let next = self
                .profile
                .node(node)
                .children()
                .iter()
                .copied()
                .max_by(|&a, &b| view.inclusive(a).total_cmp(&view.inclusive(b)));
            match next {
                Some(child) if view.inclusive(child) > 0.0 => node = child,
                _ => break,
            }
        }
    }

    /// The visible rows, in depth-first order, respecting fold state.
    /// Children are ordered by the first metric's inclusive value,
    /// descending.
    pub fn rows(&self) -> Vec<TableRow> {
        let mut out = Vec::new();
        let mut stack: Vec<(NodeId, usize)> = vec![(NodeId::ROOT, 0)];
        while let Some((node, depth)) = stack.pop() {
            let frame = self.profile.resolve_frame(node);
            let label = if node == NodeId::ROOT {
                "ROOT".to_owned()
            } else {
                frame.name
            };
            let expandable = !self.profile.node(node).children().is_empty();
            let expanded = self.expanded[node.index()];
            out.push(TableRow {
                node,
                depth,
                label,
                values: self
                    .views
                    .iter()
                    .map(|v| (v.inclusive(node), v.exclusive(node)))
                    .collect(),
                expandable,
                expanded,
            });
            if expanded && expandable {
                let mut children: Vec<NodeId> =
                    self.profile.node(node).children().to_vec();
                if let Some(view) = self.views.first() {
                    children.sort_by(|&a, &b| view.inclusive(a).total_cmp(&view.inclusive(b)));
                } else {
                    children.reverse();
                }
                // Sorted ascending then pushed: pop order is descending.
                for child in children {
                    stack.push((child, depth + 1));
                }
            }
        }
        out
    }

    /// Renders the visible rows as aligned text: fold markers,
    /// indentation, and one inclusive/exclusive column pair per metric.
    pub fn render(&self) -> String {
        let rows = self.rows();
        let mut out = String::new();
        // Header.
        out.push_str(&format!("{:<50}", "context"));
        for &m in &self.metrics {
            let name = &self.profile.metric(m).name;
            out.push_str(&format!(" {:>14} {:>14}", format!("{name}(I)"), format!("{name}(E)")));
        }
        out.push('\n');
        for row in rows {
            let marker = if !row.expandable {
                ' '
            } else if row.expanded {
                '▾'
            } else {
                '▸'
            };
            let indent = "  ".repeat(row.depth);
            let label = format!("{indent}{marker} {}", row.label);
            let mut line = format!("{label:<50}");
            for (i, &(inc, exc)) in row.values.iter().enumerate() {
                let unit = self.profile.metric(self.metrics[i]).unit;
                line.push_str(&format!(" {:>14} {:>14}", unit.format(inc), unit.format(exc)));
            }
            out.push_str(line.trim_end());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::{Frame, MetricDescriptor, MetricKind, MetricUnit};

    fn profile() -> (Profile, [MetricId; 2]) {
        let mut p = Profile::new("t");
        let cpu = p.add_metric(MetricDescriptor::new(
            "cpu",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ));
        let mem = p.add_metric(MetricDescriptor::new(
            "mem",
            MetricUnit::Bytes,
            MetricKind::Exclusive,
        ));
        p.add_sample(
            &[Frame::function("main"), Frame::function("big")],
            &[(cpu, 70.0), (mem, 1024.0)],
        );
        p.add_sample(
            &[Frame::function("main"), Frame::function("small"), Frame::function("leaf")],
            &[(cpu, 30.0)],
        );
        (p, [cpu, mem])
    }

    #[test]
    fn initially_only_root_level_visible() {
        let (p, metrics) = profile();
        let t = TreeTable::new(&p, &metrics);
        let rows = t.rows();
        assert_eq!(rows.len(), 2); // ROOT + main
        assert_eq!(rows[0].label, "ROOT");
        assert_eq!(rows[1].label, "main");
        assert!(rows[1].expandable);
        assert!(!rows[1].expanded);
    }

    #[test]
    fn expanding_reveals_children_sorted_by_value() {
        let (p, metrics) = profile();
        let mut t = TreeTable::new(&p, &metrics);
        let main = t.rows()[1].node;
        t.expand(main);
        let rows = t.rows();
        let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["ROOT", "main", "big", "small"]);
        // big (70) sorts before small (30).
        assert_eq!(rows[2].values[0], (70.0, 70.0));
        assert_eq!(rows[3].values[0], (30.0, 0.0));
    }

    #[test]
    fn collapse_hides_subtree() {
        let (p, metrics) = profile();
        let mut t = TreeTable::new(&p, &metrics);
        t.expand_to_depth(10);
        assert_eq!(t.rows().len(), 5);
        let main = t.rows()[1].node;
        t.collapse(main);
        assert_eq!(t.rows().len(), 2);
    }

    #[test]
    fn hot_path_expansion() {
        let (p, metrics) = profile();
        let mut t = TreeTable::new(&p, &metrics);
        t.expand_hot_path(0);
        let labels: Vec<String> = t.rows().into_iter().map(|r| r.label).collect();
        // Hot path: ROOT -> main -> big. small stays collapsed but is
        // visible as a sibling of big.
        assert!(labels.contains(&"big".to_owned()));
        assert!(!labels.contains(&"leaf".to_owned()));
    }

    #[test]
    fn multiple_metric_columns() {
        let (p, metrics) = profile();
        let mut t = TreeTable::new(&p, &metrics);
        t.expand_to_depth(10);
        let rows = t.rows();
        let big = rows.iter().find(|r| r.label == "big").unwrap();
        assert_eq!(big.values.len(), 2);
        assert_eq!(big.values[1], (1024.0, 1024.0));
    }

    #[test]
    fn render_shows_markers_and_units() {
        let (p, metrics) = profile();
        let mut t = TreeTable::new(&p, &metrics);
        t.expand_to_depth(10);
        let text = t.render();
        assert!(text.contains("cpu(I)"));
        assert!(text.contains("mem(E)"));
        assert!(text.contains("▾ main"), "{text}");
        assert!(text.contains("1.00 KiB"), "{text}");
        // Leaf rows get no fold marker arrow.
        assert!(text.contains("  leaf") || text.contains("   leaf"), "{text}");
    }
}
