//! The calling context tree (CCT) at the heart of the representation.

use crate::frame::{Frame, FrameRef};
use crate::link::ContextLink;
use crate::metric::{MetricDescriptor, MetricId};
use crate::fast_hash::FxHashMap;
use crate::string_table::{StringId, StringTable};

/// A handle to a node in a [`Profile`]'s calling context tree.
///
/// `NodeId` values are only meaningful for the profile that produced
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The root node, present in every profile.
    pub const ROOT: NodeId = NodeId(0);

    /// The raw index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from a raw index (used by deserialization).
    pub fn from_index(index: usize) -> NodeId {
        NodeId(index as u32)
    }
}

/// One monitoring point: a frame in the CCT plus its metric values.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    pub(crate) frame: FrameRef,
    pub(crate) parent: Option<NodeId>,
    pub(crate) children: Vec<NodeId>,
    /// Sparse metric values, sorted by [`MetricId`].
    pub(crate) values: Vec<(MetricId, f64)>,
}

impl Node {
    /// The interned frame of this node.
    pub fn frame(&self) -> FrameRef {
        self.frame
    }

    /// The parent node, `None` for the root.
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Child nodes in insertion order.
    pub fn children(&self) -> &[NodeId] {
        &self.children
    }

    /// Sparse `(metric, value)` pairs attached to this node.
    pub fn values(&self) -> &[(MetricId, f64)] {
        &self.values
    }

    /// The value of `metric` at this node, 0 if absent.
    pub fn value(&self, metric: MetricId) -> f64 {
        match self.values.binary_search_by_key(&metric, |&(m, _)| m) {
            Ok(i) => self.values[i].1,
            Err(_) => 0.0,
        }
    }

    pub(crate) fn add_value(&mut self, metric: MetricId, delta: f64) {
        match self.values.binary_search_by_key(&metric, |&(m, _)| m) {
            Ok(i) => self.values[i].1 += delta,
            Err(i) => self.values.insert(i, (metric, delta)),
        }
    }

    pub(crate) fn set_value(&mut self, metric: MetricId, value: f64) {
        match self.values.binary_search_by_key(&metric, |&(m, _)| m) {
            Ok(i) => self.values[i].1 = value,
            Err(i) => self.values.insert(i, (metric, value)),
        }
    }
}

/// Descriptive metadata about a profile.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProfileMeta {
    /// A short name for the profile (e.g. the workload or file name).
    pub name: String,
    /// The tool that produced the original data (`pprof`, `perf`,
    /// `hpctoolkit`, …).
    pub profiler: String,
    /// Free-form notes (command line, host, duration…).
    pub description: String,
    /// Wall-clock capture timestamp in nanoseconds since the epoch,
    /// 0 if unknown. Used to order snapshot series (paper §VII-C1).
    pub timestamp_nanos: u64,
}

/// A profile: metadata, metric schema, a prefix-merged calling context
/// tree, and cross-context links.
///
/// The CCT invariant: among the children of any node, every
/// [`FrameRef::merge_key`] appears at most once. [`Profile::child`]
/// maintains this by returning the existing child when one matches.
///
/// # Examples
///
/// ```
/// use ev_core::{Frame, MetricDescriptor, MetricKind, MetricUnit, NodeId, Profile};
///
/// let mut p = Profile::new("demo");
/// let cpu = p.add_metric(MetricDescriptor::new(
///     "cpu",
///     MetricUnit::Count,
///     MetricKind::Exclusive,
/// ));
/// let main = p.child(NodeId::ROOT, &Frame::function("main"));
/// let work = p.child(main, &Frame::function("work"));
/// p.add_value(work, cpu, 10.0);
///
/// // Re-inserting the same path merges into the same nodes.
/// assert_eq!(p.child(main, &Frame::function("work")), work);
/// assert_eq!(p.total(cpu), 10.0);
/// ```
#[derive(Debug, Clone)]
pub struct Profile {
    strings: StringTable,
    metrics: Vec<MetricDescriptor>,
    nodes: Vec<Node>,
    links: Vec<ContextLink>,
    meta: ProfileMeta,
    /// Fast child lookup: (parent, frame) → child. Not serialized.
    child_index: FxHashMap<(NodeId, FrameRef), NodeId>,
    /// True when `child_index` lags behind `nodes` (after bulk builds
    /// via [`Profile::push_child_unchecked`] or deserialization).
    /// [`Profile::child_ref`] rebuilds lazily before its first probe.
    index_stale: bool,
}

impl Profile {
    /// Creates an empty profile containing only the root node.
    pub fn new(name: impl Into<String>) -> Profile {
        Profile {
            strings: StringTable::new(),
            metrics: Vec::new(),
            nodes: vec![Node {
                frame: FrameRef::root(),
                parent: None,
                children: Vec::new(),
                values: Vec::new(),
            }],
            links: Vec::new(),
            meta: ProfileMeta {
                name: name.into(),
                ..ProfileMeta::default()
            },
            child_index: FxHashMap::default(),
            index_stale: false,
        }
    }

    /// The profile metadata.
    pub fn meta(&self) -> &ProfileMeta {
        &self.meta
    }

    /// Mutable access to the metadata.
    pub fn meta_mut(&mut self) -> &mut ProfileMeta {
        &mut self.meta
    }

    /// The string table backing this profile's frames.
    pub fn strings(&self) -> &StringTable {
        &self.strings
    }

    /// Interns a string into this profile's table.
    pub fn intern(&mut self, s: &str) -> StringId {
        self.strings.intern(s)
    }

    /// Interns a frame's strings, returning the compact stored form.
    /// Producers that reuse frames many times (generators, converters)
    /// intern once and insert with [`Profile::child_ref`], avoiding
    /// per-sample string hashing.
    pub fn intern_frame(&mut self, frame: &Frame) -> FrameRef {
        frame.intern(&mut self.strings)
    }

    /// Registers a metric, returning its id.
    ///
    /// # Panics
    ///
    /// Panics after 65 535 metrics; real profiles carry a handful.
    pub fn add_metric(&mut self, descriptor: MetricDescriptor) -> MetricId {
        assert!(self.metrics.len() < u16::MAX as usize, "too many metrics");
        let id = MetricId(self.metrics.len() as u16);
        self.metrics.push(descriptor);
        id
    }

    /// The descriptor for `metric`.
    ///
    /// # Panics
    ///
    /// Panics if `metric` is not registered in this profile.
    pub fn metric(&self, metric: MetricId) -> &MetricDescriptor {
        &self.metrics[metric.index()]
    }

    /// All registered metric descriptors, in id order.
    pub fn metrics(&self) -> &[MetricDescriptor] {
        &self.metrics
    }

    /// Returns the id of the metric named `name`, if registered.
    pub fn metric_by_name(&self, name: &str) -> Option<MetricId> {
        self.metrics
            .iter()
            .position(|m| m.name == name)
            .map(MetricId::from_index)
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        NodeId::ROOT
    }

    /// The node for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this profile.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Number of nodes, including the root.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// All node ids in creation order (root first).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Returns the child of `parent` matching `frame`, creating it if
    /// absent — the prefix-merging step that keeps the CCT compact.
    pub fn child(&mut self, parent: NodeId, frame: &Frame) -> NodeId {
        let frame_ref = frame.intern(&mut self.strings);
        self.child_ref(parent, frame_ref)
    }

    /// Pre-reserves capacity for about `additional` more nodes.
    /// Converters that know the scale of the profile they are building
    /// (e.g. its sample count) call this once up front so CCT
    /// construction does not repeatedly regrow a million-node table
    /// mid-build. The child index is left alone: bulk builders go
    /// through [`Profile::push_child_unchecked`] and never populate it.
    pub fn reserve_nodes(&mut self, additional: usize) {
        self.nodes.reserve(additional);
    }

    /// Like [`Profile::child`] for an already-interned frame.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not a node of this profile.
    pub fn child_ref(&mut self, parent: NodeId, frame: FrameRef) -> NodeId {
        assert!(parent.index() < self.nodes.len(), "invalid parent id");
        if self.index_stale {
            self.rebuild_index();
        }
        // Entry API: one hash of the (parent, frame) key per call instead
        // of a get-then-insert pair on the create path.
        let id = NodeId(self.nodes.len() as u32);
        match self.child_index.entry((parent, frame)) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(id);
                self.nodes.push(Node {
                    frame,
                    parent: Some(parent),
                    children: Vec::new(),
                    values: Vec::new(),
                });
                self.nodes[parent.index()].children.push(id);
                id
            }
        }
    }

    /// Appends a new child of `parent` without consulting or updating
    /// the child-lookup index — the bulk-construction primitive for
    /// decoders that maintain their own (cheaper) edge dedup.
    ///
    /// The caller must guarantee `parent` has no existing child whose
    /// frame equals `frame`, or [`Profile::validate`] will later reject
    /// the profile (duplicate child frames). The child index is marked
    /// stale; the next [`Profile::child`]/[`Profile::child_ref`] call
    /// rebuilds it in one pass, so mixing this with the checked API
    /// stays correct — bulk builders just shouldn't interleave the two
    /// per node, or the rebuild cost comes back.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not a node of this profile.
    pub fn push_child_unchecked(&mut self, parent: NodeId, frame: FrameRef) -> NodeId {
        assert!(parent.index() < self.nodes.len(), "invalid parent id");
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            frame,
            parent: Some(parent),
            children: Vec::new(),
            values: Vec::new(),
        });
        self.nodes[parent.index()].children.push(id);
        self.index_stale = true;
        id
    }

    /// Copies `src`'s calling context tree into this one by frame
    /// identity, root onto root: every source node lands on the child of
    /// its parent's destination with the same frame, created through
    /// [`Profile::child_ref`] if absent. This is the one copy step behind
    /// aggregation, differentiation and pruning (paper §V-A-a, §V-A-c).
    ///
    /// The walk is depth-first on a stack, so the last child is entered
    /// first. Each source string is interned here once, on first use, in
    /// name → module → file order, so node ids and string-table order
    /// are exactly what inserting each resolved [`Frame`] with
    /// [`Profile::child`] along the same walk would give.
    ///
    /// A source child and its subtree are copied only if `keep(child)`
    /// holds. `visit(self, src_node, dst_node)` runs once per copied
    /// node, after that node's kept children exist here and before any
    /// of them is visited. Metric values are not copied: `visit` moves
    /// whatever the caller needs.
    pub fn graft(
        &mut self,
        src: &Profile,
        mut keep: impl FnMut(NodeId) -> bool,
        mut visit: impl FnMut(&mut Profile, NodeId, NodeId),
    ) {
        let _span = ev_trace::span("analysis.graft");
        let mut remap: Vec<Option<StringId>> = vec![None; src.strings.len()];
        let mut map = |strings: &mut StringTable, id: StringId| {
            *remap[id.index()].get_or_insert_with(|| strings.intern(src.strings.resolve(id)))
        };
        let mut work: Vec<(NodeId, NodeId)> = vec![(NodeId::ROOT, NodeId::ROOT)];
        while let Some((from, to)) = work.pop() {
            for &child in &src.nodes[from.index()].children {
                if !keep(child) {
                    continue;
                }
                let frame = src.nodes[child.index()].frame;
                // Fields initialise in the order written: name, module, file.
                let frame = FrameRef {
                    name: map(&mut self.strings, frame.name),
                    module: map(&mut self.strings, frame.module),
                    file: map(&mut self.strings, frame.file),
                    ..frame
                };
                work.push((child, self.child_ref(to, frame)));
            }
            visit(self, from, to);
        }
    }

    /// Inserts a full call path (outermost frame first) and adds the
    /// metric values at the leaf. Returns the leaf node.
    pub fn add_sample(&mut self, path: &[Frame], values: &[(MetricId, f64)]) -> NodeId {
        let mut node = NodeId::ROOT;
        for frame in path {
            node = self.child(node, frame);
        }
        for &(metric, value) in values {
            self.add_value(node, metric, value);
        }
        node
    }

    /// Adds `delta` to the value of `metric` at `node`.
    pub fn add_value(&mut self, node: NodeId, metric: MetricId, delta: f64) {
        self.nodes[node.index()].add_value(metric, delta);
    }

    /// Overwrites the value of `metric` at `node`.
    pub fn set_value(&mut self, node: NodeId, metric: MetricId, value: f64) {
        self.nodes[node.index()].set_value(metric, value);
    }

    /// The value of `metric` at `node`, 0 if absent.
    pub fn value(&self, node: NodeId, metric: MetricId) -> f64 {
        self.nodes[node.index()].value(metric)
    }

    /// Sum of `metric` over all nodes — for exclusive metrics this is the
    /// program total.
    pub fn total(&self, metric: MetricId) -> f64 {
        self.nodes.iter().map(|n| n.value(metric)).sum()
    }

    /// Resolves a node's frame to owned strings.
    pub fn resolve_frame(&self, node: NodeId) -> Frame {
        self.node(node).frame.resolve(&self.strings)
    }

    /// The call path from the root (exclusive) down to `node` (inclusive),
    /// outermost first.
    pub fn path(&self, node: NodeId) -> Vec<NodeId> {
        let mut path = Vec::new();
        let mut current = Some(node);
        while let Some(id) = current {
            if id == NodeId::ROOT {
                break;
            }
            path.push(id);
            current = self.node(id).parent;
        }
        path.reverse();
        path
    }

    /// Depth of `node` (root = 0).
    pub fn depth(&self, node: NodeId) -> usize {
        let mut depth = 0;
        let mut current = self.node(node).parent;
        while let Some(id) = current {
            depth += 1;
            current = self.node(id).parent;
        }
        depth
    }

    /// Pre-order (parent before children) traversal from the root.
    pub fn pre_order(&self) -> PreOrder<'_> {
        self.pre_order_from(NodeId::ROOT)
    }

    /// Pre-order traversal of the subtree rooted at `start`.
    pub fn pre_order_from(&self, start: NodeId) -> PreOrder<'_> {
        PreOrder {
            profile: self,
            stack: vec![start],
        }
    }

    /// Post-order (children before parent) traversal from the root.
    pub fn post_order(&self) -> PostOrder {
        let mut order = Vec::with_capacity(self.nodes.len());
        // Reverse pre-order with child order flipped gives post-order.
        let mut stack = vec![NodeId::ROOT];
        while let Some(id) = stack.pop() {
            order.push(id);
            stack.extend(self.node(id).children.iter().copied());
        }
        PostOrder { order }
    }

    /// Registers a cross-context link (use/reuse pair, race pair, …).
    pub fn add_link(&mut self, link: ContextLink) {
        self.links.push(link);
    }

    /// All cross-context links.
    pub fn links(&self) -> &[ContextLink] {
        &self.links
    }

    /// Validates internal invariants; used by tests and after
    /// deserializing untrusted data.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("profile has no root".to_owned());
        }
        if self.nodes[0].parent.is_some() {
            return Err("root has a parent".to_owned());
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if let Some(parent) = node.parent {
                if parent.index() >= self.nodes.len() {
                    return Err(format!("node {i} has out-of-range parent"));
                }
                if parent.index() >= i {
                    return Err(format!("node {i} precedes its parent"));
                }
                if !self.nodes[parent.index()].children.contains(&NodeId(i as u32)) {
                    return Err(format!("node {i} missing from parent's child list"));
                }
            } else if i != 0 {
                return Err(format!("non-root node {i} has no parent"));
            }
            // Prefix-merge invariant: sibling merge keys are unique.
            let mut seen = std::collections::HashSet::new();
            for &child in &node.children {
                if child.index() >= self.nodes.len() {
                    return Err(format!("node {i} has out-of-range child"));
                }
                let key = self.nodes[child.index()].frame.merge_key();
                if !seen.insert(key) {
                    return Err(format!("node {i} has duplicate child frames"));
                }
            }
            for &(metric, _) in &node.values {
                if metric.index() >= self.metrics.len() {
                    return Err(format!("node {i} references unknown metric"));
                }
            }
            // Frame string ids must resolve.
            for sid in [node.frame.name, node.frame.module, node.frame.file] {
                if self.strings.get(sid).is_none() {
                    return Err(format!("node {i} references unknown string"));
                }
            }
        }
        for (i, link) in self.links.iter().enumerate() {
            for &node in link.endpoints() {
                if node.index() >= self.nodes.len() {
                    return Err(format!("link {i} references unknown node"));
                }
            }
        }
        Ok(())
    }

    /// Rebuilds the child-lookup index from the node table. Runs
    /// lazily, on the first [`Profile::child_ref`] after the index went
    /// stale — deserialized or bulk-built profiles that are only ever
    /// read never pay for it.
    pub(crate) fn rebuild_index(&mut self) {
        self.child_index.clear();
        self.child_index.reserve(self.nodes.len().saturating_sub(1));
        for (i, node) in self.nodes.iter().enumerate() {
            if let Some(parent) = node.parent {
                self.child_index.insert((parent, node.frame), NodeId(i as u32));
            }
        }
        self.index_stale = false;
    }

    /// Constructs a profile from raw parts (used by deserialization).
    pub(crate) fn from_parts(
        strings: StringTable,
        metrics: Vec<MetricDescriptor>,
        nodes: Vec<Node>,
        links: Vec<ContextLink>,
        meta: ProfileMeta,
    ) -> Profile {
        Profile {
            strings,
            metrics,
            nodes,
            links,
            meta,
            child_index: FxHashMap::default(),
            // Lazy: read-only consumers (views, exporters) never probe
            // the child index, so don't build it on deserialization.
            index_stale: true,
        }
    }

    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }
}

impl PartialEq for Profile {
    fn eq(&self, other: &Profile) -> bool {
        self.strings == other.strings
            && self.metrics == other.metrics
            && self.nodes == other.nodes
            && self.links == other.links
            && self.meta == other.meta
    }
}

/// Iterator over node ids in pre-order. Created by
/// [`Profile::pre_order`].
#[derive(Debug)]
pub struct PreOrder<'a> {
    profile: &'a Profile,
    stack: Vec<NodeId>,
}

impl Iterator for PreOrder<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        // Push children reversed so the leftmost child pops first.
        let children = self.profile.node(id).children();
        self.stack.extend(children.iter().rev().copied());
        Some(id)
    }
}

/// Iterator over node ids in post-order. Created by
/// [`Profile::post_order`].
#[derive(Debug)]
pub struct PostOrder {
    order: Vec<NodeId>,
}

impl Iterator for PostOrder {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        self.order.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{MetricKind, MetricUnit};

    fn metric(p: &mut Profile, name: &str) -> MetricId {
        p.add_metric(MetricDescriptor::new(
            name,
            MetricUnit::Count,
            MetricKind::Exclusive,
        ))
    }

    fn sample_profile() -> (Profile, MetricId) {
        // root -> main -> {a -> c, b}
        let mut p = Profile::new("test");
        let m = metric(&mut p, "cpu");
        p.add_sample(
            &[Frame::function("main"), Frame::function("a"), Frame::function("c")],
            &[(m, 4.0)],
        );
        p.add_sample(&[Frame::function("main"), Frame::function("b")], &[(m, 6.0)]);
        (p, m)
    }

    #[test]
    fn new_profile_has_only_root() {
        let p = Profile::new("empty");
        assert_eq!(p.node_count(), 1);
        assert_eq!(p.node(NodeId::ROOT).parent(), None);
        assert!(p.node(NodeId::ROOT).children().is_empty());
        p.validate().unwrap();
    }

    #[test]
    fn prefix_merging() {
        let (mut p, m) = sample_profile();
        assert_eq!(p.node_count(), 5); // root, main, a, c, b
        // Same path again merges, values accumulate.
        p.add_sample(&[Frame::function("main"), Frame::function("b")], &[(m, 1.0)]);
        assert_eq!(p.node_count(), 5);
        assert_eq!(p.total(m), 11.0);
        p.validate().unwrap();
    }

    #[test]
    fn distinct_lines_do_not_merge() {
        let mut p = Profile::new("t");
        let main1 = p.child(NodeId::ROOT, &Frame::function("main").with_source("m.c", 1));
        let main2 = p.child(NodeId::ROOT, &Frame::function("main").with_source("m.c", 2));
        assert_ne!(main1, main2);
        p.validate().unwrap();
    }

    #[test]
    fn value_accessors() {
        let (mut p, m) = sample_profile();
        let main = p.child(NodeId::ROOT, &Frame::function("main"));
        let b = p.child(main, &Frame::function("b"));
        assert_eq!(p.value(b, m), 6.0);
        p.set_value(b, m, 2.5);
        assert_eq!(p.value(b, m), 2.5);
        p.add_value(b, m, 0.5);
        assert_eq!(p.value(b, m), 3.0);
        let unregistered = MetricId::from_index(0);
        assert_eq!(p.node(NodeId::ROOT).value(unregistered), 0.0);
    }

    #[test]
    fn multiple_metrics_per_node() {
        let mut p = Profile::new("t");
        let cpu = metric(&mut p, "cpu");
        let mem = metric(&mut p, "mem");
        let n = p.add_sample(&[Frame::function("f")], &[(cpu, 1.0), (mem, 64.0)]);
        assert_eq!(p.value(n, cpu), 1.0);
        assert_eq!(p.value(n, mem), 64.0);
        assert_eq!(p.node(n).values().len(), 2);
    }

    #[test]
    fn metric_by_name() {
        let mut p = Profile::new("t");
        let cpu = metric(&mut p, "cpu");
        assert_eq!(p.metric_by_name("cpu"), Some(cpu));
        assert_eq!(p.metric_by_name("nope"), None);
        assert_eq!(p.metric(cpu).name, "cpu");
    }

    #[test]
    fn pre_order_visits_parents_first() {
        let (p, _) = sample_profile();
        let order: Vec<String> = p
            .pre_order()
            .map(|id| p.resolve_frame(id).name)
            .collect();
        assert_eq!(order, ["", "main", "a", "c", "b"]);
    }

    #[test]
    fn post_order_visits_children_first() {
        let (p, _) = sample_profile();
        let order: Vec<String> = p
            .post_order()
            .map(|id| p.resolve_frame(id).name)
            .collect();
        assert_eq!(order, ["c", "a", "b", "main", ""]);
    }

    #[test]
    fn pre_order_from_subtree() {
        let (mut p, _) = sample_profile();
        let main = p.child(NodeId::ROOT, &Frame::function("main"));
        let names: Vec<String> = p
            .pre_order_from(main)
            .map(|id| p.resolve_frame(id).name)
            .collect();
        assert_eq!(names, ["main", "a", "c", "b"]);
    }

    #[test]
    fn path_and_depth() {
        let (mut p, _) = sample_profile();
        let main = p.child(NodeId::ROOT, &Frame::function("main"));
        let a = p.child(main, &Frame::function("a"));
        let c = p.child(a, &Frame::function("c"));
        assert_eq!(p.path(c), vec![main, a, c]);
        assert_eq!(p.depth(c), 3);
        assert_eq!(p.depth(NodeId::ROOT), 0);
        assert_eq!(p.path(NodeId::ROOT), Vec::<NodeId>::new());
    }

    #[test]
    fn traversals_cover_every_node_once() {
        let (p, _) = sample_profile();
        let pre: std::collections::HashSet<_> = p.pre_order().collect();
        let post: std::collections::HashSet<_> = p.post_order().collect();
        assert_eq!(pre.len(), p.node_count());
        assert_eq!(post.len(), p.node_count());
        assert_eq!(pre, post);
    }

    #[test]
    fn deep_tree_traversal_is_iterative() {
        // 100k-deep chain must not overflow the stack.
        let mut p = Profile::new("deep");
        let mut node = NodeId::ROOT;
        for i in 0..100_000 {
            node = p.child(node, &Frame::function(format!("f{}", i % 10)).with_address(i));
        }
        assert_eq!(p.pre_order().count(), 100_001);
        assert_eq!(p.post_order().count(), 100_001);
        assert_eq!(p.depth(node), 100_000);
    }

    #[test]
    fn meta_roundtrip() {
        let mut p = Profile::new("named");
        assert_eq!(p.meta().name, "named");
        p.meta_mut().profiler = "pprof".to_owned();
        p.meta_mut().timestamp_nanos = 12345;
        assert_eq!(p.meta().profiler, "pprof");
    }

    #[test]
    fn graft_matches_child_insertion_along_the_walk() {
        let mut src = Profile::new("src");
        let m = metric(&mut src, "cpu");
        let f = |name: &str, file: &str, line| {
            Frame::function(name)
                .with_module("app")
                .with_source(file, line)
                .with_address(0x40 + u64::from(line))
        };
        src.add_sample(&[f("main", "m.c", 1), f("größe", "g.c", 2)], &[(m, 1.0)]);
        src.add_sample(&[f("main", "m.c", 1), f("größe", "h.c", 3)], &[(m, 2.0)]);
        src.add_sample(&[f("aux", "a.c", 4)], &[(m, 3.0)]);

        // Insert every resolved frame with `child` along the same stack walk.
        let mut expect = Profile::new("dst");
        expect.child(NodeId::ROOT, &Frame::function("seed"));
        let mut work = vec![(NodeId::ROOT, NodeId::ROOT)];
        while let Some((from, to)) = work.pop() {
            for &c in src.node(from).children() {
                work.push((c, expect.child(to, &src.resolve_frame(c))));
            }
        }

        let mut got = Profile::new("dst");
        got.child(NodeId::ROOT, &Frame::function("seed"));
        let mut visited = Vec::new();
        got.graft(
            &src,
            |_| true,
            |dst, from, to| {
                // Children exist before their parent is visited.
                for &c in src.node(from).children() {
                    let frame = src.resolve_frame(c);
                    let copied = dst.node(to).children().iter();
                    assert!(copied.clone().any(|&d| dst.resolve_frame(d) == frame));
                }
                visited.push((from, to));
            },
        );
        // Equal node tables and string tables, in the same order.
        assert_eq!(got, expect);
        assert_eq!(visited.len(), src.node_count());
        assert_eq!(visited[0], (NodeId::ROOT, NodeId::ROOT));
    }

    #[test]
    fn graft_merges_into_existing_nodes_and_honours_keep() {
        let (src, _) = sample_profile();
        let mut dst = src.clone();
        let before = dst.node_count();
        let mut pairs = Vec::new();
        dst.graft(&src, |_| true, |_, from, to| pairs.push((from, to)));
        // Same tree: every node merges onto its twin.
        assert_eq!(dst.node_count(), before);
        assert!(pairs.iter().all(|(from, to)| from == to));

        // Dropping `a` drops its subtree too.
        let a = src
            .node_ids()
            .find(|&id| src.resolve_frame(id).name == "a")
            .unwrap();
        let mut pruned = Profile::new("pruned");
        pruned.graft(&src, |c| c != a, |_, _, _| {});
        let names: Vec<String> = pruned
            .node_ids()
            .map(|id| pruned.resolve_frame(id).name)
            .collect();
        assert_eq!(names, ["", "main", "b"]);
        pruned.validate().unwrap();
    }

    #[test]
    fn validate_catches_duplicate_children() {
        let (mut p, _) = sample_profile();
        // Forge a duplicate child by bypassing the index.
        let main = p.child(NodeId::ROOT, &Frame::function("main"));
        let dup = NodeId(p.nodes.len() as u32);
        let frame = p.nodes[main.index()].frame;
        p.nodes.push(Node {
            frame,
            parent: Some(NodeId::ROOT),
            children: Vec::new(),
            values: Vec::new(),
        });
        p.nodes[NodeId::ROOT.index()].children.push(dup);
        assert!(p.validate().is_err());
    }
}
