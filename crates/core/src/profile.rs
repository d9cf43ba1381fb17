//! The calling context tree (CCT) at the heart of the representation.
//!
//! The tree is stored as columns, one entry per node: the parent, the
//! frame (an id into a deduplicated frame table) and one value column
//! per metric, dense where enough nodes set the metric. Children are not
//! stored; they are derived from the parent column on first use
//! (DESIGN §4f).

use crate::fast_hash::FxHashMap;
use crate::frame::{Frame, FrameRef};
use crate::link::ContextLink;
use crate::metric::{MetricDescriptor, MetricId};
use crate::string_table::{StringId, StringTable};
use std::fmt;
use std::sync::OnceLock;

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

/// A handle to a distinct frame in a [`Profile`]'s frame table. Two
/// nodes of one profile have equal `FrameId`s iff their [`FrameRef`]s
/// are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(u32);

impl FrameId {
    /// The raw index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The parent-column entry of the root.
const NO_PARENT: u32 = u32::MAX;

/// The last map of the depth-partitioned child index: children of
/// parents at this depth or deeper share it.
const LAST_LEVEL: usize = 63;

/// One monitoring point: a borrowed view of a node's frame, parent,
/// children and metric values. Created by [`Profile::node`].
#[derive(Clone, Copy)]
pub struct Node<'a> {
    profile: &'a Profile,
    index: usize,
}

impl<'a> Node<'a> {
    /// The interned frame of this node.
    pub fn frame(self) -> FrameRef {
        self.profile.frames[self.frame_id().index()]
    }

    /// The frame-table id of this node's frame.
    pub fn frame_id(self) -> FrameId {
        self.profile.frame[self.index]
    }

    /// The parent node, `None` for the root.
    pub fn parent(self) -> Option<NodeId> {
        match self.profile.parent[self.index] {
            NO_PARENT => None,
            p => Some(NodeId(p)),
        }
    }

    /// Child nodes in insertion order (ascending id).
    pub fn children(self) -> &'a [NodeId] {
        self.profile.children().of(self.index)
    }

    /// The `(metric, value)` pairs stored at this node, by metric id.
    pub fn values(self) -> impl Iterator<Item = (MetricId, f64)> + 'a {
        let index = self.index;
        self.profile
            .columns
            .iter()
            .enumerate()
            .filter(move |(_, column)| column.is_present(index))
            .map(move |(m, column)| (MetricId(m as u16), column.get(index)))
    }

    /// The value of `metric` at this node, 0 if absent.
    pub fn value(self, metric: MetricId) -> f64 {
        self.profile
            .columns
            .get(metric.index())
            .map_or(0.0, |column| column.get(self.index))
    }
}

impl fmt::Debug for Node<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.index)
            .field("frame", &self.frame())
            .field("parent", &self.parent())
            .field("values", &self.values().collect::<Vec<_>>())
            .finish()
    }
}

/// A column's dense part holds at least one stored value per this many
/// nodes.
const DENSITY: usize = 8;

/// One metric's values. Nodes below `values.len()` are dense: a slot and
/// a presence bit each, so a stored `0.0` or `-0.0` stays distinct from
/// an absent value (which reads as `0.0`). Values of later nodes wait in
/// `sparse` until the dense part can take them all and still hold one
/// stored value per [`DENSITY`] nodes. So a metric's memory grows with
/// its stored values, not with the depth of the nodes holding them.
#[derive(Debug, Clone, Default)]
struct Column {
    values: Vec<f64>,
    present: Vec<u64>,
    /// Values of nodes at or past `values.len()`.
    sparse: FxHashMap<u32, f64>,
    /// One past the highest node in `sparse`, 0 if it is empty.
    sparse_end: usize,
    /// Stored values, dense and sparse.
    count: usize,
}

impl Column {
    // `get` and `is_present` run once per column per node in other
    // crates' sweeps; `#[inline]` lets them inline there, and the map
    // probe stays out of line in `sparse_value`.
    #[inline]
    fn get(&self, index: usize) -> f64 {
        match self.values.get(index) {
            Some(&value) => value,
            None if index >= self.sparse_end => 0.0,
            None => self.sparse_value(index).unwrap_or(0.0),
        }
    }

    #[inline]
    fn is_present(&self, index: usize) -> bool {
        if index < self.values.len() {
            self.present[index / 64] >> (index % 64) & 1 == 1
        } else {
            index < self.sparse_end && self.sparse_value(index).is_some()
        }
    }

    fn sparse_value(&self, index: usize) -> Option<f64> {
        self.sparse.get(&(index as u32)).copied()
    }

    /// The slot of `index`, marked present; `true` if it already was.
    fn slot(&mut self, index: usize) -> (&mut f64, bool) {
        if index >= self.values.len() {
            let end = self.sparse_end.max(index + 1);
            if (self.count + 1) * DENSITY < end {
                let mut was = true;
                let value = self.sparse.entry(index as u32).or_insert_with(|| {
                    was = false;
                    0.0
                });
                if !was {
                    self.count += 1;
                    self.sparse_end = end;
                }
                return (value, was);
            }
            self.grow(end);
        }
        let (word, bit) = (index / 64, 1u64 << (index % 64));
        let was = self.present[word] & bit != 0;
        if !was {
            self.present[word] |= bit;
            self.count += 1;
        }
        (&mut self.values[index], was)
    }

    /// Makes the first `end` nodes dense, moving every sparse value in.
    fn grow(&mut self, end: usize) {
        self.values.resize(end, 0.0);
        self.present.resize(end.div_ceil(64), 0);
        for (index, value) in std::mem::take(&mut self.sparse) {
            let index = index as usize;
            self.values[index] = value;
            self.present[index / 64] |= 1 << (index % 64);
        }
        self.sparse_end = 0;
    }

    fn shrink_to_fit(&mut self) {
        self.values.shrink_to_fit();
        self.present.shrink_to_fit();
        self.sparse.shrink_to_fit();
    }
}

/// Children in compressed sparse rows: node `i`'s children are
/// `ids[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone)]
struct Children {
    offsets: Vec<u32>,
    ids: Vec<NodeId>,
}

impl Children {
    /// Every insert appends, so a node's children are exactly the later
    /// nodes naming it as parent: a counting sort of the parent column
    /// lists them in ascending id order.
    fn derive(parent: &[u32]) -> Children {
        static BUILDS: OnceLock<&'static ev_trace::Counter> = OnceLock::new();
        BUILDS
            .get_or_init(|| ev_trace::counter("core.cct_children"))
            .inc();
        let n = parent.len();
        let mut offsets = vec![0u32; n + 1];
        for &p in &parent[1..] {
            offsets[p as usize] += 1;
        }
        // Exclusive prefix sum: offsets[p] becomes p's first slot.
        let mut sum = 0;
        for slot in &mut offsets[..n] {
            let count = *slot;
            *slot = sum;
            sum += count;
        }
        let mut ids = vec![NodeId::ROOT; n - 1];
        for (i, &p) in parent.iter().enumerate().skip(1) {
            let slot = &mut offsets[p as usize];
            ids[*slot as usize] = NodeId(i as u32);
            *slot += 1;
        }
        // offsets[p] now ends p's run, which is where p + 1's starts.
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        Children { offsets, ids }
    }

    fn of(&self, index: usize) -> &[NodeId] {
        &self.ids[self.offsets[index] as usize..self.offsets[index + 1] as usize]
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
    /// Distinct frames, indexed by [`FrameId`].
    frames: Vec<FrameRef>,
    /// Per node: the parent's index, [`NO_PARENT`] for the root.
    parent: Vec<u32>,
    /// Per node: its frame.
    frame: Vec<FrameId>,
    /// Per metric: its values.
    columns: Vec<Column>,
    links: Vec<ContextLink>,
    meta: ProfileMeta,
    /// Derived from `parent` by [`Profile::finish`] or on first use;
    /// every node insert drops it.
    children: OnceLock<Children>,
    /// Build-time index, frame → id. Complete iff it has one entry per
    /// frame; filled lazily and dropped by [`Profile::finish`].
    frame_index: FxHashMap<FrameRef, FrameId>,
    /// Build-time child index, `(parent << 32) | frame id` → child.
    /// Complete iff it has one entry per non-root node; filled lazily
    /// and dropped by [`Profile::finish`].
    edges: FxHashMap<u64, NodeId>,
    /// Build-time child index of [`Profile::insert_paths`], keyed like
    /// `edges` but partitioned by the parent's depth: `levels[d]` holds
    /// the children of parents at depth `d`, and parents deeper than
    /// [`LAST_LEVEL`] share the last map. Complete iff it has one entry
    /// per non-root node; rebuilt when it is not, dropped by
    /// [`Profile::finish`].
    levels: Vec<FxHashMap<u64, NodeId>>,
}

impl Profile {
    /// Creates an empty profile containing only the root node.
    pub fn new(name: impl Into<String>) -> Profile {
        Profile {
            strings: StringTable::new(),
            metrics: Vec::new(),
            frames: vec![FrameRef::root()],
            parent: vec![NO_PARENT],
            frame: vec![FrameId(0)],
            columns: Vec::new(),
            links: Vec::new(),
            meta: ProfileMeta {
                name: name.into(),
                ..ProfileMeta::default()
            },
            children: OnceLock::new(),
            frame_index: FxHashMap::default(),
            edges: FxHashMap::default(),
            levels: Vec::new(),
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
    /// intern once, look the frame's id up with [`Profile::frame_id`]
    /// and insert with [`Profile::child_id`], avoiding per-sample
    /// string hashing.
    pub fn intern_frame(&mut self, frame: &Frame) -> FrameRef {
        frame.intern(&mut self.strings)
    }

    /// Number of distinct frames: every [`FrameId`] of this profile
    /// indexes below it.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// The frame-table id of `frame`, adding it to the table if new.
    /// Producers that insert one frame under many parents look its id
    /// up once and insert with [`Profile::child_id`].
    pub fn frame_id(&mut self, frame: FrameRef) -> FrameId {
        if self.frame_index.len() != self.frames.len() {
            self.frame_index = (0..self.frames.len() as u32)
                .map(|i| (self.frames[i as usize], FrameId(i)))
                .collect();
        }
        let frames = &mut self.frames;
        *self.frame_index.entry(frame).or_insert_with(|| {
            frames.push(frame);
            FrameId(frames.len() as u32 - 1)
        })
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
        self.columns.push(Column::default());
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
    pub fn node(&self, id: NodeId) -> Node<'_> {
        assert!(id.index() < self.parent.len(), "invalid node id {}", id.0);
        Node {
            profile: self,
            index: id.index(),
        }
    }

    /// Number of nodes, including the root.
    pub fn node_count(&self) -> usize {
        self.parent.len()
    }

    /// All node ids in creation order (root first).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.parent.len() as u32).map(NodeId)
    }

    /// Returns the child of `parent` matching `frame`, creating it if
    /// absent — the prefix-merging step that keeps the CCT compact.
    pub fn child(&mut self, parent: NodeId, frame: &Frame) -> NodeId {
        let frame_ref = frame.intern(&mut self.strings);
        let frame = self.frame_id(frame_ref);
        self.child_id(parent, frame)
    }

    /// Like [`Profile::child`] for a frame-table id: one probe of the
    /// child index keyed by `(parent, frame)`, built on the first call
    /// after the index was dropped or never built (decoded profiles).
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not a node, or `frame` not a frame, of
    /// this profile.
    pub fn child_id(&mut self, parent: NodeId, frame: FrameId) -> NodeId {
        assert!(parent.index() < self.parent.len(), "invalid parent id");
        assert!(frame.index() < self.frames.len(), "invalid frame id");
        if self.edges.len() + 1 != self.parent.len() {
            self.edges = (1..self.parent.len())
                .map(|i| (edge_key(self.parent[i], self.frame[i]), NodeId(i as u32)))
                .collect();
        }
        let next = NodeId(self.parent.len() as u32);
        let mut created = false;
        let child = *self
            .edges
            .entry(edge_key(parent.0, frame))
            .or_insert_with(|| {
                created = true;
                next
            });
        if created {
            self.push_node(parent.0, frame);
        }
        child
    }

    /// Inserts a batch of call paths, outermost frame first, and returns
    /// each path's leaf (the root for an empty path). Path `i` is
    /// `frames[ends[i - 1]..ends[i]]`, where path 0 starts at 0.
    ///
    /// The tree, node ids and leaves are exactly those of one
    /// [`Profile::child_id`] call per frame step, path after path. The
    /// batch is built one depth at a time instead: at depth `d` the
    /// `(parent, frame)` keys of the paths that reach `d` are deduped in
    /// path order, in a map that holds only that depth's keys; a key
    /// whose parent predates the batch is looked up in a child index
    /// partitioned by depth, so each probe goes to a map of one depth's
    /// nodes, not of the whole tree. New nodes get temporary ids and are
    /// then numbered by (first path reaching them, depth), the order the
    /// per-step calls create them in.
    ///
    /// # Panics
    ///
    /// Panics if `ends` decreases or passes `frames.len()`, or if a
    /// frame is not a frame of this profile.
    pub fn insert_paths(&mut self, frames: &[FrameId], ends: &[u32]) -> Vec<NodeId> {
        static BATCHES: OnceLock<&'static ev_trace::Counter> = OnceLock::new();
        BATCHES
            .get_or_init(|| ev_trace::counter("core.cct_batches"))
            .inc();
        let _span = ev_trace::span("core.cct_build");
        assert!(
            ends.windows(2).all(|w| w[0] <= w[1])
                && ends.last().is_none_or(|&end| end as usize <= frames.len()),
            "path ends out of order"
        );
        let frame_count = self.frames.len();
        assert!(
            frames.iter().all(|frame| frame.index() < frame_count),
            "invalid frame id"
        );
        self.index_levels();

        // Ids from `base` on are temporary: new node `base + t` is the
        // `t`th created, depth by depth.
        let base = self.parent.len() as u32;
        // Per path, the node it has reached.
        let mut at = vec![NodeId::ROOT.0; ends.len()];
        // The paths that reach the current depth, in path order, each
        // with the position of its frame at that depth.
        let mut alive: Vec<(u32, u32)> = ends
            .iter()
            .enumerate()
            .filter_map(|(path, &end)| {
                let start = if path == 0 { 0 } else { ends[path - 1] };
                (start < end).then_some((path as u32, start))
            })
            .collect();
        // Per new node: its parent (real or temporary id), its frame and
        // the first path reaching it.
        let mut new_parent: Vec<u32> = Vec::new();
        let mut new_frame: Vec<FrameId> = Vec::new();
        let mut new_first: Vec<u32> = Vec::new();
        // Per depth, the first temporary id created there.
        let mut level_starts: Vec<usize> = Vec::new();
        let mut keys: FxHashMap<u64, u32> = FxHashMap::default();
        let mut depth = 0;
        while !alive.is_empty() {
            // Clearing costs the map's capacity: a map sized for an
            // earlier, wider depth is dropped instead.
            if keys.capacity() > 4 * alive.len().max(16) {
                keys = FxHashMap::default();
            } else {
                keys.clear();
            }
            level_starts.push(new_parent.len());
            let index = self.levels.get(depth.min(LAST_LEVEL));
            // Neighbouring paths mostly share their prefixes, so a key
            // equal to the previous one skips the map. No key is
            // `u64::MAX`: frame ids stay below `u32::MAX`.
            let mut last = (u64::MAX, 0);
            let mut kept = 0;
            for k in 0..alive.len() {
                let (path, pos) = alive[k];
                let parent = at[path as usize];
                let frame = frames[pos as usize];
                let key = edge_key(parent, frame);
                if key != last.0 {
                    let child = *keys.entry(key).or_insert_with(|| {
                        let old = match index {
                            Some(index) if parent < base => index.get(&key),
                            _ => None,
                        };
                        old.map_or_else(
                            || {
                                new_parent.push(parent);
                                new_frame.push(frame);
                                new_first.push(path);
                                base + new_parent.len() as u32 - 1
                            },
                            |child| child.0,
                        )
                    });
                    last = (key, child);
                }
                at[path as usize] = last.1;
                if pos + 1 < ends[path as usize] {
                    alive[kept] = (path, pos + 1);
                    kept += 1;
                }
            }
            alive.truncate(kept);
            depth += 1;
        }
        level_starts.push(new_parent.len());

        // A counting sort by first path. Within one path, creation order
        // is depth order, so the ids come out by (first path, depth).
        let mut next = vec![0u32; ends.len() + 1];
        for &path in &new_first {
            next[path as usize + 1] += 1;
        }
        for path in 1..next.len() {
            next[path] += next[path - 1];
        }
        let renumber: Vec<u32> = new_first
            .iter()
            .map(|&path| {
                let slot = &mut next[path as usize];
                *slot += 1;
                base + *slot - 1
            })
            .collect();
        let real = |id: u32| {
            if id < base {
                id
            } else {
                renumber[(id - base) as usize]
            }
        };

        let end = base as usize + new_parent.len();
        self.parent.resize(end, NO_PARENT);
        self.frame.resize(end, FrameId(0));
        for (t, &id) in renumber.iter().enumerate() {
            self.parent[id as usize] = real(new_parent[t]);
            self.frame[id as usize] = new_frame[t];
        }
        // Keep the depth index complete for the next batch.
        for (depth, run) in level_starts.windows(2).enumerate() {
            let level = depth.min(LAST_LEVEL);
            if self.levels.len() <= level {
                self.levels.resize_with(level + 1, FxHashMap::default);
            }
            let index = &mut self.levels[level];
            index.reserve(run[1] - run[0]);
            for t in run[0]..run[1] {
                let id = renumber[t];
                index.insert(edge_key(self.parent[id as usize], new_frame[t]), NodeId(id));
            }
        }
        if !new_parent.is_empty() {
            self.children.take();
            // Stale now; `child_id` would rebuild it from scratch anyway.
            self.edges = FxHashMap::default();
        }
        at.into_iter().map(|id| NodeId(real(id))).collect()
    }

    /// Makes the depth-partitioned child index complete, rebuilding it
    /// from the columns when nodes were added without it.
    fn index_levels(&mut self) {
        let indexed: usize = self.levels.iter().map(FxHashMap::len).sum();
        if indexed + 1 == self.parent.len() {
            return;
        }
        self.levels = Vec::new();
        // Per node, its depth capped at `LAST_LEVEL`: the map its
        // children go in. Parents precede their children.
        let mut level = vec![0u8; self.parent.len()];
        for i in 1..self.parent.len() {
            let parent = self.parent[i];
            let at = usize::from(level[parent as usize]);
            level[i] = (at + 1).min(LAST_LEVEL) as u8;
            if self.levels.len() <= at {
                self.levels.resize_with(at + 1, FxHashMap::default);
            }
            self.levels[at].insert(edge_key(parent, self.frame[i]), NodeId(i as u32));
        }
    }

    /// Appends a node without consulting the child index; the caller
    /// keeps the CCT invariant (decoders of already-merged trees).
    pub(crate) fn push_node(&mut self, parent: u32, frame: FrameId) {
        self.parent.push(parent);
        self.frame.push(frame);
        self.children.take();
    }

    /// Readies a built profile for readers. It releases what only
    /// building needs, the frame and child indexes (the next insert
    /// rebuilds them) and spare column capacity, then derives the child
    /// lists that every view walks, so the first view does not pay for
    /// them. Decoders, converters and transforms call it before handing
    /// a profile on.
    pub fn finish(&mut self) {
        self.frame_index = FxHashMap::default();
        self.edges = FxHashMap::default();
        self.levels = Vec::new();
        self.frames.shrink_to_fit();
        self.parent.shrink_to_fit();
        self.frame.shrink_to_fit();
        for column in &mut self.columns {
            column.shrink_to_fit();
        }
        self.children();
    }

    /// Copies `src`'s calling context tree into this one by frame
    /// identity, root onto root: every source node lands on the child of
    /// its parent's destination with the same frame, created through
    /// [`Profile::child_id`] if absent. This is the one copy step behind
    /// aggregation, differentiation and pruning (paper §V-A-a, §V-A-c).
    ///
    /// The walk is depth-first on a stack, so the last child is entered
    /// first. Each source frame is translated once, on first use,
    /// through a [`FrameMap`], so node ids and string-table order are
    /// exactly what inserting each resolved [`Frame`] with
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
        let mut frames = FrameMap::new(src);
        let src_children = src.children();
        let mut work: Vec<(NodeId, NodeId)> = vec![(NodeId::ROOT, NodeId::ROOT)];
        while let Some((from, to)) = work.pop() {
            for &child in src_children.of(from.index()) {
                if !keep(child) {
                    continue;
                }
                let frame = frames.frame(self, src.frame[child.index()]);
                work.push((child, self.child_id(to, frame)));
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

    /// The stored slot of `metric` at `node`, marked present; `true` if
    /// it already was.
    fn slot(&mut self, node: NodeId, metric: MetricId) -> (&mut f64, bool) {
        assert!(
            node.index() < self.parent.len(),
            "invalid node id {}",
            node.0
        );
        self.columns
            .get_mut(metric.index())
            .unwrap_or_else(|| panic!("invalid metric id {}", metric.0))
            .slot(node.index())
    }

    /// Adds `delta` to the value of `metric` at `node`. A first value is
    /// stored as given, so a first `-0.0` stays `-0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `metric` is not part of this profile.
    pub fn add_value(&mut self, node: NodeId, metric: MetricId, delta: f64) {
        match self.slot(node, metric) {
            (value, true) => *value += delta,
            (value, false) => *value = delta,
        }
    }

    /// Overwrites the value of `metric` at `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `metric` is not part of this profile.
    pub fn set_value(&mut self, node: NodeId, metric: MetricId, value: f64) {
        *self.slot(node, metric).0 = value;
    }

    /// The value of `metric` at `node`, 0 if absent.
    pub fn value(&self, node: NodeId, metric: MetricId) -> f64 {
        self.node(node).value(metric)
    }

    /// Sum of `metric` over all nodes in id order — for exclusive
    /// metrics this is the program total.
    pub fn total(&self, metric: MetricId) -> f64 {
        let n = self.node_count();
        match self.columns.get(metric.index()) {
            Some(column) => {
                let dense = column.values.iter().take(n).copied();
                let rest = (column.values.len().min(n)..n).map(|i| column.get(i));
                dense.chain(rest).sum()
            }
            None => std::iter::repeat_n(0.0, n).sum(),
        }
    }

    /// Resolves a node's frame to owned strings.
    pub fn resolve_frame(&self, node: NodeId) -> Frame {
        self.node(node).frame().resolve(&self.strings)
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
            current = self.node(id).parent();
        }
        path.reverse();
        path
    }

    /// Depth of `node` (root = 0).
    pub fn depth(&self, node: NodeId) -> usize {
        let mut depth = 0;
        let mut current = self.node(node).parent();
        while let Some(id) = current {
            depth += 1;
            current = self.node(id).parent();
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
        let mut order = Vec::with_capacity(self.node_count());
        // Reverse pre-order with child order flipped gives post-order.
        let mut stack = vec![NodeId::ROOT];
        while let Some(id) = stack.pop() {
            order.push(id);
            stack.extend(self.node(id).children().iter().copied());
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
        if self.parent.first() != Some(&NO_PARENT) {
            return Err("root has a parent".to_owned());
        }
        let bad_frame: Vec<bool> = self
            .frames
            .iter()
            .map(|f| {
                [f.name, f.module, f.file]
                    .iter()
                    .any(|&s| self.strings.get(s).is_none())
            })
            .collect();
        for i in 1..self.parent.len() {
            match self.parent[i] {
                NO_PARENT => return Err(format!("non-root node {i} has no parent")),
                p if p as usize >= i => return Err(format!("node {i} precedes its parent")),
                _ => {}
            }
        }
        // Prefix-merge invariant: sibling frames are distinct. Frame ids
        // are a bijection with frame content, so comparing ids suffices.
        let children = self.children();
        let mut siblings: Vec<FrameId> = Vec::new();
        for i in 0..self.parent.len() {
            siblings.clear();
            siblings.extend(children.of(i).iter().map(|c| self.frame[c.index()]));
            siblings.sort_unstable();
            if siblings.windows(2).any(|w| w[0] == w[1]) {
                return Err(format!("node {i} has duplicate child frames"));
            }
            if bad_frame[self.frame[i].index()] {
                return Err(format!("node {i} references unknown string"));
            }
        }
        for (i, link) in self.links.iter().enumerate() {
            for &node in link.endpoints() {
                if node.index() >= self.parent.len() {
                    return Err(format!("link {i} references unknown node"));
                }
            }
        }
        Ok(())
    }

    /// The derived child lists, built on first use.
    fn children(&self) -> &Children {
        self.children.get_or_init(|| Children::derive(&self.parent))
    }

    /// Constructs an empty profile from decoded parts: only the root,
    /// whose frame [`Profile::push_node`]-built nodes never need.
    pub(crate) fn from_parts(
        strings: StringTable,
        metrics: Vec<MetricDescriptor>,
        links: Vec<ContextLink>,
        meta: ProfileMeta,
    ) -> Profile {
        let columns = metrics.iter().map(|_| Column::default()).collect();
        Profile {
            strings,
            metrics,
            columns,
            links,
            meta,
            parent: Vec::new(),
            frame: Vec::new(),
            frames: Vec::new(),
            ..Profile::new("")
        }
    }

    /// Appends a decoded node: its parent (`None` for the root) and
    /// frame. The decoder validates the tree afterwards.
    pub(crate) fn push_decoded(&mut self, parent: Option<NodeId>, frame: FrameRef) -> NodeId {
        let id = NodeId(self.parent.len() as u32);
        let frame = self.frame_id(frame);
        self.push_node(parent.map_or(NO_PARENT, |p| p.0), frame);
        id
    }

    /// Stores a decoded value; `false` if `node` already had one for
    /// `metric`.
    pub(crate) fn insert_value(&mut self, node: NodeId, metric: MetricId, value: f64) -> bool {
        let (slot, was) = self.slot(node, metric);
        *slot = value;
        !was
    }
}

#[cfg(test)]
impl Profile {
    /// Dense value slots over every column, stored or not.
    pub(crate) fn dense_slots(&self) -> usize {
        self.columns.iter().map(|column| column.values.len()).sum()
    }
}

/// A memo from one source profile's strings and frames to a
/// destination profile's. Each source string or frame is translated on
/// first use, so copying a frame that recurs in many source contexts
/// costs one table read per use. [`Profile::graft`] and the tree
/// transforms in `ev-analysis` copy frames through it.
#[derive(Debug)]
pub struct FrameMap<'a> {
    src: &'a Profile,
    strings: Vec<Option<StringId>>,
    frames: Vec<Option<FrameId>>,
}

impl<'a> FrameMap<'a> {
    /// An empty memo for the strings and frames of `src`.
    pub fn new(src: &'a Profile) -> FrameMap<'a> {
        FrameMap {
            src,
            strings: vec![None; src.strings.len()],
            frames: vec![None; src.frames.len()],
        }
    }

    /// `dst`'s id for the source string `id`, interned on first use.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a string of the source profile.
    pub fn string(&mut self, dst: &mut Profile, id: StringId) -> StringId {
        let src = self.src;
        *self.strings[id.index()].get_or_insert_with(|| dst.intern(src.strings.resolve(id)))
    }

    /// `dst`'s frame-table id for the source frame `id`. On first use
    /// the frame's strings are interned name → module → file, the
    /// order [`Frame::intern`] uses, and the frame is added to `dst`'s
    /// table.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a frame of the source profile.
    pub fn frame(&mut self, dst: &mut Profile, id: FrameId) -> FrameId {
        if let Some(frame) = self.frames[id.index()] {
            return frame;
        }
        let frame = self.src.frames[id.index()];
        // Fields initialise in the order written: name, module, file.
        let frame = FrameRef {
            name: self.string(dst, frame.name),
            module: self.string(dst, frame.module),
            file: self.string(dst, frame.file),
            ..frame
        };
        *self.frames[id.index()].insert(dst.frame_id(frame))
    }
}

/// The child-index key of `(parent, frame)`.
fn edge_key(parent: u32, frame: FrameId) -> u64 {
    (u64::from(parent) << 32) | u64::from(frame.0)
}

impl PartialEq for Profile {
    /// Content equality: per node, the same parent, the same frame (not
    /// frame-table id) and the same stored values, bit for bit.
    fn eq(&self, other: &Profile) -> bool {
        let n = self.node_count();
        self.strings == other.strings
            && self.metrics == other.metrics
            && self.parent == other.parent
            && (0..n)
                .all(|i| self.frames[self.frame[i].index()] == other.frames[other.frame[i].index()])
            && self.columns.iter().zip(&other.columns).all(|(a, b)| {
                (0..n).all(|i| {
                    a.is_present(i) == b.is_present(i) && a.get(i).to_bits() == b.get(i).to_bits()
                })
            })
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
    use ev_test::prelude::*;
    use ev_test::Rng;

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
        let unregistered = MetricId::from_index(7);
        assert_eq!(p.node(NodeId::ROOT).value(unregistered), 0.0);
    }

    #[test]
    fn stored_zeros_stay_distinct_from_absent_values() {
        let mut p = Profile::new("t");
        let m = metric(&mut p, "cpu");
        let a = p.child(NodeId::ROOT, &Frame::function("a"));
        let b = p.child(NodeId::ROOT, &Frame::function("b"));
        p.add_value(a, m, -0.0);
        assert_eq!(p.value(a, m).to_bits(), (-0.0f64).to_bits());
        assert_eq!(p.node(a).values().collect::<Vec<_>>().len(), 1);
        assert!(p.node(b).values().next().is_none());
        assert_eq!(p.value(b, m).to_bits(), 0.0f64.to_bits());
        let mut q = p.clone();
        assert_eq!(p, q);
        q.set_value(b, m, 0.0);
        assert_ne!(p, q, "a stored 0.0 differs from an absent value");
    }

    #[test]
    fn columns_go_dense_only_where_enough_nodes_set_them() {
        let mut p = Profile::new("t");
        let m = metric(&mut p, "cpu");
        let mut node = NodeId::ROOT;
        for i in 0..1000u64 {
            node = p.child(node, &Frame::function("f").with_address(i));
        }
        // Every 5th node, deepest first: sparse until one stored value
        // per DENSITY nodes covers the deepest, then dense.
        let mut stored = Vec::new();
        for i in (5..=1000u32).rev().step_by(5) {
            p.add_value(NodeId(i), m, f64::from(i));
            stored.push(i);
            let dense = p.dense_slots();
            assert!(dense <= DENSITY * stored.len(), "{dense} slots");
            let sparse = stored.len() * DENSITY < 1001;
            assert_eq!(dense == 0, sparse, "{} stored", stored.len());
        }
        assert_eq!(p.dense_slots(), 1001);
        // A value far past the dense part waits in the sparse part.
        for i in 0..2000u64 {
            node = p.child(node, &Frame::function("g").with_address(i));
        }
        p.add_value(node, m, -0.0);
        assert_eq!(p.dense_slots(), 1001);
        assert_eq!(p.value(node, m).to_bits(), (-0.0f64).to_bits());
        p.add_value(node, m, 2.0);
        stored.push(node.0);
        for id in p.node_ids() {
            let expect = stored.contains(&id.0).then_some(f64::from(id.0));
            let expect = expect.map(|v| if id == node { 2.0 } else { v });
            let got: Vec<(MetricId, f64)> = p.node(id).values().collect();
            assert_eq!(got, expect.map(|v| (m, v)).into_iter().collect::<Vec<_>>());
            assert_eq!(p.value(id, m), expect.unwrap_or(0.0));
        }
        let folded: f64 = p.node_ids().map(|id| p.value(id, m)).sum();
        assert_eq!(p.total(m).to_bits(), folded.to_bits());
        assert_eq!(p, p.clone());
    }

    #[test]
    fn sparse_and_dense_columns_compare_by_content() {
        // The same values, reached through different layouts.
        let build = |order: &[u32]| {
            let mut p = Profile::new("t");
            let m = metric(&mut p, "cpu");
            let mut node = NodeId::ROOT;
            for i in 0..64 {
                node = p.child(node, &Frame::function(format!("f{i}")));
            }
            for &i in order {
                p.set_value(NodeId(i), m, f64::from(i) - 32.0);
            }
            p
        };
        let deep_first = build(&[64, 40, 2, 3]);
        let shallow_first = build(&[2, 3, 40, 64]);
        assert_eq!(deep_first.dense_slots(), 0);
        assert!(shallow_first.dense_slots() > 0);
        assert_eq!(deep_first, shallow_first);
        assert_ne!(deep_first, build(&[64, 40, 2]));
    }

    #[test]
    fn totals_fold_in_id_order_like_a_node_sum() {
        let mut p = Profile::new("t");
        let m = metric(&mut p, "cpu");
        let a = p.child(NodeId::ROOT, &Frame::function("a"));
        p.child(NodeId::ROOT, &Frame::function("b"));
        p.add_value(a, m, -0.0);
        let folded: f64 = p.node_ids().map(|id| p.value(id, m)).sum();
        assert_eq!(p.total(m).to_bits(), folded.to_bits());
        let unset = metric(&mut p, "unset");
        let folded: f64 = p.node_ids().map(|id| p.value(id, unset)).sum();
        assert_eq!(p.total(unset).to_bits(), folded.to_bits());
    }

    #[test]
    fn multiple_metrics_per_node() {
        let mut p = Profile::new("t");
        let cpu = metric(&mut p, "cpu");
        let mem = metric(&mut p, "mem");
        let n = p.add_sample(&[Frame::function("f")], &[(cpu, 1.0), (mem, 64.0)]);
        assert_eq!(p.value(n, cpu), 1.0);
        assert_eq!(p.value(n, mem), 64.0);
        assert_eq!(p.node(n).values().count(), 2);
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
    fn children_are_later_nodes_naming_the_parent() {
        let (mut p, _) = sample_profile();
        let main = p.child(NodeId::ROOT, &Frame::function("main"));
        let b = p.child(main, &Frame::function("b"));
        let a = p.child(main, &Frame::function("a"));
        assert_eq!(p.node(main).children(), &[a, b]);
        // An insert after the lists were derived shows up in them.
        let d = p.child(main, &Frame::function("d"));
        assert_eq!(p.node(main).children(), &[a, b, d]);
        // After the indexes are dropped, inserts rebuild them and still
        // merge with the existing children.
        let mut q = p.clone();
        q.finish();
        assert_eq!(q.child(main, &Frame::function("a")), a);
        assert_eq!(q.node_count(), p.node_count());
        assert_eq!(q.child(main, &Frame::function("e")).index(), p.node_count());
        q.validate().unwrap();
    }

    #[test]
    fn equality_compares_frames_not_frame_ids() {
        let mut p = Profile::new("t");
        let mut q = Profile::new("t");
        // Same strings in the same order, frames registered in
        // different orders.
        let fa = p.intern_frame(&Frame::function("a"));
        let fb = p.intern_frame(&Frame::function("b"));
        q.intern_frame(&Frame::function("a"));
        q.intern_frame(&Frame::function("b"));
        q.frame_id(fb);
        q.frame_id(fa);
        let (pfa, pfb) = (p.frame_id(fa), p.frame_id(fb));
        let pa = p.child_id(NodeId::ROOT, pfa);
        p.child_id(pa, pfb);
        let (qfa, qfb) = (q.frame_id(fa), q.frame_id(fb));
        let qa = q.child_id(NodeId::ROOT, qfa);
        q.child_id(qa, qfb);
        assert_ne!(p.frame[1], q.frame[1]);
        assert_eq!(p, q);
        q.child_id(qa, qfa);
        assert_ne!(p, q);
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

    /// A batch-insert scenario: a frame table and batches of call
    /// paths over it.
    #[derive(Debug)]
    struct PathScript {
        frames: usize,
        batches: Vec<ScriptBatch>,
    }

    /// Single `child_id` steps as `(node seed, frame)`, then one batch
    /// of paths as frame-table indexes, outermost first.
    #[derive(Debug)]
    struct ScriptBatch {
        singles: Vec<(usize, u32)>,
        paths: Vec<Vec<u32>>,
    }

    fn path_script(rng: &mut Rng, size: usize) -> PathScript {
        let frames = rng.gen_range(1..size + 3);
        let mut paths: Vec<Vec<u32>> = Vec::new();
        for _ in 0..rng.gen_range(0..4 * size + 2) {
            let frame = |rng: &mut Rng| rng.gen_range(0..frames as u32);
            let path = match rng.gen_range(0..20u32) {
                0..=1 => Vec::new(),
                2..=4 if !paths.is_empty() => paths[rng.gen_range(0..paths.len())].clone(),
                5..=11 if !paths.is_empty() => {
                    let base = &paths[rng.gen_range(0..paths.len())];
                    let keep = rng.gen_range(0..base.len() + 1);
                    let mut path = base[..keep].to_vec();
                    for _ in 0..rng.gen_range(0..6usize) {
                        path.push(frame(rng));
                    }
                    path
                }
                // Deep enough to share the last map of the depth index.
                12 => (0..rng.gen_range(60..150usize))
                    .map(|_| frame(rng))
                    .collect(),
                _ => (0..rng.gen_range(1..9usize)).map(|_| frame(rng)).collect(),
            };
            paths.push(path);
        }
        let mut batches = Vec::new();
        let mut rest = &paths[..];
        loop {
            let singles = (0..rng.gen_range(0..3usize))
                .map(|_| (rng.next_u64() as usize, rng.gen_range(0..frames as u32)))
                .collect();
            let take = rng.gen_range(0..rest.len() + 1);
            let paths = rest[..take].to_vec();
            batches.push(ScriptBatch { singles, paths });
            rest = &rest[take..];
            if rest.is_empty() && rng.gen_bool(0.7) {
                break;
            }
        }
        PathScript { frames, batches }
    }

    /// Plays `script` into two profiles, one through `insert_paths`
    /// batches and one through a `child_id` call per frame step, and
    /// checks they agree after every batch.
    fn check_against_per_step_inserts(script: &PathScript) {
        let fresh = || {
            let mut p = Profile::new("paths");
            let m = metric(&mut p, "cpu");
            let ids: Vec<FrameId> = (0..script.frames)
                .map(|i| {
                    let frame = p.intern_frame(&Frame::function(format!("f{i}")));
                    p.frame_id(frame)
                })
                .collect();
            (p, m, ids)
        };
        let (mut got, m, ids) = fresh();
        let (mut want, _, _) = fresh();
        let mut value = 0.0;
        for ScriptBatch { singles, paths } in &script.batches {
            for &(node, frame) in singles {
                let node = NodeId((node % want.node_count()) as u32);
                let a = got.child_id(node, ids[frame as usize]);
                assert_eq!(a, want.child_id(node, ids[frame as usize]));
            }
            let mut frames = Vec::new();
            let mut ends = Vec::new();
            for path in paths {
                frames.extend(path.iter().map(|&f| ids[f as usize]));
                ends.push(frames.len() as u32);
            }
            let leaves = got.insert_paths(&frames, &ends);
            let oracle: Vec<NodeId> = paths
                .iter()
                .map(|path| {
                    path.iter().fold(NodeId::ROOT, |node, &f| {
                        want.child_id(node, ids[f as usize])
                    })
                })
                .collect();
            assert_eq!(leaves, oracle);
            for &leaf in &leaves {
                value += 1.0;
                got.add_value(leaf, m, value);
                want.add_value(leaf, m, value);
            }
            assert_eq!(got.parent, want.parent);
            assert_eq!(got.frame, want.frame);
        }
        assert_eq!(got, want);
        assert_eq!(
            crate::format::to_bytes(&got),
            crate::format::to_bytes(&want)
        );
        got.validate().unwrap();
        got.finish();
        assert!(
            got.levels.is_empty(),
            "a finished profile holds no depth index"
        );
    }

    property! {
        fn batch_inserts_match_one_child_id_per_step(script in seeded(1..24, path_script)) {
            check_against_per_step_inserts(&script);
        }
    }

    #[test]
    fn empty_batches_and_paths_end_at_the_root() {
        let mut p = Profile::new("t");
        assert!(p.insert_paths(&[], &[]).is_empty());
        assert_eq!(p.insert_paths(&[], &[0, 0]), [NodeId::ROOT, NodeId::ROOT]);
        assert_eq!(p.node_count(), 1);
    }

    #[test]
    fn validate_catches_duplicate_children() {
        let (mut p, _) = sample_profile();
        // Forge a duplicate child by bypassing the index.
        let main = p.child(NodeId::ROOT, &Frame::function("main"));
        let frame = p.frame[main.index()];
        p.push_node(NodeId::ROOT.0, frame);
        assert!(p.validate().is_err());
    }
}
