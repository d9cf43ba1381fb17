//! Tree transformations: top-down, bottom-up, and flat shapes
//! (paper §V-A-b).

use crate::traverse::MetricView;
use ev_core::{ContextKind, FrameMap, FrameRef, MetricId, NodeId, Profile, StringId};

/// A transformed tree and, per node, the source context it stands for.
#[derive(Debug, Clone)]
pub struct Transformed {
    /// The transformed tree, with the one metric it was built for.
    pub profile: Profile,
    /// Per node of `profile`, by index: the source node at the step
    /// whose insert created it (the root for the root). A bottom-up
    /// node shares its source node's frame; a flat node's source node
    /// has the node's module, file or function.
    pub sources: Vec<NodeId>,
}

/// Builds the bottom-up tree for `metric`: every monitoring point's call
/// path is reversed, so the first level holds leaf functions (the
/// paper's "hot functions") and descending shows *where they are called
/// from* (Fig. 6).
///
/// Each node's exclusive cost in the source contributes its full value
/// along the reversed path; the bottom-up tree's exclusive values at the
/// first level therefore equal the source's per-function exclusive
/// totals.
///
/// Source nodes are visited in id order, and each one with a nonzero
/// exclusive value walks the parent column up to the root, inserting
/// one [`Profile::child_id`] per step with its frame translated once
/// per source frame. Node ids, string-table order and value order are
/// those of inserting each reversed path's resolved frames with
/// [`Profile::add_sample`].
pub fn bottom_up(profile: &Profile, metric: MetricId) -> Transformed {
    let _span = ev_trace::span("analysis.bottom_up");
    let view = MetricView::compute(profile, metric);
    let (mut out, m) = shaped(profile, metric, "bottom-up");
    let mut frames = FrameMap::new(profile);
    let mut sources = vec![NodeId::ROOT];
    for id in profile.node_ids().skip(1) {
        let value = view.exclusive(id);
        if value == 0.0 {
            continue;
        }
        let mut node = NodeId::ROOT;
        let mut step = id;
        loop {
            let src = profile.node(step);
            let frame = frames.frame(&mut out, src.frame_id());
            node = out.child_id(node, frame);
            sources.resize(out.node_count(), step);
            match src.parent() {
                Some(parent) if parent != NodeId::ROOT => step = parent,
                _ => break,
            }
        }
        out.add_value(node, m, value);
    }
    out.finish();
    Transformed {
        profile: out,
        sources,
    }
}

/// Builds the flat tree for `metric`: call paths are elided and
/// exclusive costs re-attributed into the fixed hierarchy
/// *load module → file → function* (top level = modules, the paper's
/// "hot shared libraries, files, and functions"). Functions are
/// identified by name, module and file: all their lines merge.
///
/// Every source frame maps to one function node, so the three inserts
/// run once per distinct frame, on its first node with a nonzero
/// exclusive value; later nodes add their value straight to the
/// memoized function node.
pub fn flatten(profile: &Profile, metric: MetricId) -> Transformed {
    let _span = ev_trace::span("analysis.flatten");
    let view = MetricView::compute(profile, metric);
    let (mut out, m) = shaped(profile, metric, "flat");
    let mut strings = FrameMap::new(profile);
    let mut functions: Vec<Option<NodeId>> = vec![None; profile.frame_count()];
    let mut sources = vec![NodeId::ROOT];
    for id in profile.node_ids().skip(1) {
        let value = view.exclusive(id);
        if value == 0.0 {
            continue;
        }
        let node = profile.node(id);
        let func = match functions[node.frame_id().index()] {
            Some(func) => func,
            None => {
                let frame = node.frame();
                let mut row = |out: &mut Profile, parent, [name, module, file]: [StringId; 3]| {
                    let frame = out.frame_id(FrameRef {
                        kind: ContextKind::Function,
                        name,
                        module,
                        file,
                        line: 0,
                        address: 0,
                    });
                    let row = out.child_id(parent, frame);
                    sources.resize(out.node_count(), id);
                    row
                };
                let module_name = match frame.module {
                    StringId::EMPTY => out.intern("(unknown module)"),
                    module => strings.string(&mut out, module),
                };
                let module = row(
                    &mut out,
                    NodeId::ROOT,
                    [module_name, module_name, StringId::EMPTY],
                );
                let file_name = match frame.file {
                    StringId::EMPTY => out.intern("(unknown file)"),
                    file => strings.string(&mut out, file),
                };
                let file = row(&mut out, module, [file_name, StringId::EMPTY, file_name]);
                // Interned name → module → file, as `Frame::intern` does.
                let name = strings.string(&mut out, frame.name);
                let module_id = strings.string(&mut out, frame.module);
                let file_id = strings.string(&mut out, frame.file);
                let func = row(&mut out, file, [name, module_id, file_id]);
                *functions[node.frame_id().index()].insert(func)
            }
        };
        out.add_value(func, m, value);
    }
    out.finish();
    Transformed {
        profile: out,
        sources,
    }
}

/// An empty profile for the `shape` view of `profile` by `metric`:
/// the source's metadata with a new description, and that one metric.
fn shaped(profile: &Profile, metric: MetricId, shape: &str) -> (Profile, MetricId) {
    let mut out = Profile::new(profile.meta().name.clone());
    *out.meta_mut() = profile.meta().clone();
    out.meta_mut().description = format!(
        "{shape} view of {} by {}",
        profile.meta().name,
        profile.metric(metric).name
    );
    let m = out.add_metric(profile.metric(metric).clone());
    (out, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::{Frame, MetricDescriptor, MetricKind, MetricUnit};
    use ev_test::prelude::*;

    fn build() -> (Profile, MetricId) {
        let mut p = Profile::new("t");
        let m = p.add_metric(MetricDescriptor::new(
            "cpu",
            MetricUnit::Count,
            MetricKind::Exclusive,
        ));
        // malloc is called from two different paths.
        p.add_sample(
            &[
                Frame::function("main").with_module("app").with_source("m.c", 1),
                Frame::function("parse").with_module("app").with_source("p.c", 5),
                Frame::function("malloc").with_module("libc.so"),
            ],
            &[(m, 7.0)],
        );
        p.add_sample(
            &[
                Frame::function("main").with_module("app").with_source("m.c", 1),
                Frame::function("eval").with_module("app").with_source("e.c", 9),
                Frame::function("malloc").with_module("libc.so"),
            ],
            &[(m, 3.0)],
        );
        p.add_sample(
            &[Frame::function("main").with_module("app").with_source("m.c", 1)],
            &[(m, 2.0)],
        );
        (p, m)
    }

    #[test]
    fn bottom_up_merges_hot_leaves() {
        let (p, m) = build();
        let bu = bottom_up(&p, m).profile;
        bu.validate().unwrap();
        let bm = bu.metric_by_name("cpu").unwrap();
        // Mass conserved.
        assert_eq!(bu.total(bm), 12.0);
        // First level: malloc (10) and main (2).
        let roots: Vec<(String, f64)> = bu
            .node(bu.root())
            .children()
            .iter()
            .map(|&c| {
                let view = MetricView::compute(&bu, bm);
                (bu.resolve_frame(c).name, view.inclusive(c))
            })
            .collect();
        let malloc = roots.iter().find(|(n, _)| n == "malloc").unwrap();
        assert_eq!(malloc.1, 10.0);
        // Under malloc: parse (7) and eval (3) as callers.
        let malloc_node = bu
            .node(bu.root())
            .children()
            .iter()
            .copied()
            .find(|&c| bu.resolve_frame(c).name == "malloc")
            .unwrap();
        let callers: Vec<String> = bu
            .node(malloc_node)
            .children()
            .iter()
            .map(|&c| bu.resolve_frame(c).name)
            .collect();
        assert!(callers.contains(&"parse".to_owned()));
        assert!(callers.contains(&"eval".to_owned()));
    }

    #[test]
    fn flat_groups_by_module_file_function() {
        let (p, m) = build();
        let flat = flatten(&p, m).profile;
        flat.validate().unwrap();
        let fm = flat.metric_by_name("cpu").unwrap();
        assert_eq!(flat.total(fm), 12.0);
        // Top level: libc.so (10) and app (2).
        let view = MetricView::compute(&flat, fm);
        let mut tops: Vec<(String, f64)> = flat
            .node(flat.root())
            .children()
            .iter()
            .map(|&c| (flat.resolve_frame(c).name, view.inclusive(c)))
            .collect();
        tops.sort_by(|a, b| b.1.total_cmp(&a.1));
        assert_eq!(tops[0], ("libc.so".to_owned(), 10.0));
        assert_eq!(tops[1], ("app".to_owned(), 2.0));
        // Depth is exactly 3: module -> file -> function.
        for id in flat.node_ids() {
            assert!(flat.depth(id) <= 3);
        }
    }

    #[test]
    fn flat_merges_same_function_across_paths() {
        let (p, m) = build();
        let flat = flatten(&p, m).profile;
        let mallocs: Vec<NodeId> = flat
            .node_ids()
            .filter(|&id| flat.resolve_frame(id).name == "malloc")
            .collect();
        assert_eq!(mallocs.len(), 1);
    }

    fn arb_profile() -> impl Gen<Value = Profile> {
        vec(
            (vec(0u8..5, 1..6), 0.0f64..50.0),
            1..30,
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
                    .map(|i| {
                        Frame::function(format!("f{i}"))
                            .with_module(format!("mod{}", i % 2))
                            .with_source(format!("file{}.c", i % 3), 1)
                    })
                    .collect();
                p.add_sample(&frames, &[(m, value)]);
            }
            p
        })
    }

    property! {
        fn transforms_conserve_mass(p in arb_profile()) {
            let m = p.metric_by_name("m").unwrap();
            let total = p.total(m);
            let bu = bottom_up(&p, m).profile;
            let flat = flatten(&p, m).profile;
            prop_assert!((bu.total(bu.metric_by_name("m").unwrap()) - total).abs() < 1e-6);
            prop_assert!((flat.total(flat.metric_by_name("m").unwrap()) - total).abs() < 1e-6);
            bu.validate().unwrap();
            flat.validate().unwrap();
        }

        fn bottom_up_first_level_matches_function_totals(p in arb_profile()) {
            let m = p.metric_by_name("m").unwrap();
            // Per-function exclusive totals in the source...
            let mut by_name: std::collections::HashMap<String, f64> = Default::default();
            for id in p.node_ids() {
                if id == NodeId::ROOT { continue; }
                *by_name.entry(p.resolve_frame(id).name).or_default() += p.value(id, m);
            }
            by_name.retain(|_, v| *v != 0.0);
            // ...must equal the inclusive value of each first-level
            // bottom-up node.
            let bu = bottom_up(&p, m).profile;
            let bm = bu.metric_by_name("m").unwrap();
            let view = MetricView::compute(&bu, bm);
            let mut got: std::collections::HashMap<String, f64> = Default::default();
            for &c in bu.node(bu.root()).children() {
                got.insert(bu.resolve_frame(c).name, view.inclusive(c));
            }
            prop_assert_eq!(by_name.len(), got.len());
            for (name, v) in by_name {
                let g = got.get(&name).copied().unwrap_or(f64::NAN);
                prop_assert!((g - v).abs() < 1e-6, "{}: {} vs {}", name, g, v);
            }
        }
    }
}
