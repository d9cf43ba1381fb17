//! The tree transforms that `ev_analysis::bottom_up`, `flatten` and
//! `collapse_recursion` replaced, kept as oracles for the differential
//! tests (`tests/transform_oracle.rs`, `tests/open_oracle.rs`,
//! `tests/views_cross.rs`) and the `serve` bin's `coldViews` gate; and
//! [`flame_value`], the row-form `profile/flameGraph` result that
//! `ev_ide::encode_flame_graph` replaced.
//!
//! Each resolves every frame to owned strings and inserts it with
//! [`Profile::child`]. The bodies are the replaced ones, except that
//! the two view transforms insert their paths one `child` call at a
//! time, as `add_sample` did, to record representatives the plain
//! way: each new node's representative is the source node of the step
//! whose `child` call grew the node count.

use ev_analysis::{MetricView, Transformed};
use ev_core::{ContextKind, Frame, MetricId, NodeId, Profile};
use ev_flame::FlameGraph;
use ev_json::Value;

/// The bottom-up tree: every nonzero exclusive value inserted along
/// its reversed call path of resolved frames.
pub fn bottom_up(profile: &Profile, metric: MetricId) -> Transformed {
    let view = MetricView::compute(profile, metric);
    let mut out = Profile::new(profile.meta().name.clone());
    *out.meta_mut() = profile.meta().clone();
    out.meta_mut().description = format!(
        "bottom-up view of {} by {}",
        profile.meta().name,
        profile.metric(metric).name
    );
    let m = out.add_metric(profile.metric(metric).clone());
    let mut sources = vec![NodeId::ROOT];

    let mut reversed: Vec<(NodeId, Frame)> = Vec::new();
    for id in profile.node_ids() {
        if id == NodeId::ROOT {
            continue;
        }
        let value = view.exclusive(id);
        if value == 0.0 {
            continue;
        }
        reversed.clear();
        let path = profile.path(id);
        for &step in path.iter().rev() {
            reversed.push((step, profile.resolve_frame(step)));
        }
        let mut node = out.root();
        for (step, frame) in &reversed {
            node = out.child(node, frame);
            sources.resize(out.node_count(), *step);
        }
        out.add_value(node, m, value);
    }
    out.finish();
    Transformed {
        profile: out,
        sources,
    }
}

/// The flat tree: every nonzero exclusive value inserted under its
/// resolved frame's module, file and function rows.
pub fn flatten(profile: &Profile, metric: MetricId) -> Transformed {
    let view = MetricView::compute(profile, metric);
    let mut out = Profile::new(profile.meta().name.clone());
    *out.meta_mut() = profile.meta().clone();
    out.meta_mut().description = format!(
        "flat view of {} by {}",
        profile.meta().name,
        profile.metric(metric).name
    );
    let m = out.add_metric(profile.metric(metric).clone());
    let mut sources = vec![NodeId::ROOT];

    for id in profile.node_ids() {
        if id == NodeId::ROOT {
            continue;
        }
        let value = view.exclusive(id);
        if value == 0.0 {
            continue;
        }
        let frame = profile.resolve_frame(id);
        let module_name = if frame.module.is_empty() {
            "(unknown module)".to_owned()
        } else {
            frame.module.clone()
        };
        let file_name = if frame.file.is_empty() {
            "(unknown file)".to_owned()
        } else {
            frame.file.clone()
        };
        let module = out.child(
            out.root(),
            &Frame::new(ContextKind::Function, module_name.clone()).with_module(module_name),
        );
        sources.resize(out.node_count(), id);
        let file = out.child(
            module,
            &Frame::new(ContextKind::Function, file_name.clone()).with_source(file_name, 0),
        );
        sources.resize(out.node_count(), id);
        // Function level: identified by name only (all lines merge).
        let func = out.child(
            file,
            &Frame::function(frame.name.clone())
                .with_module(frame.module)
                .with_source(frame.file, 0),
        );
        sources.resize(out.node_count(), id);
        out.add_value(func, m, value);
    }
    out.finish();
    Transformed {
        profile: out,
        sources,
    }
}

/// The recursion-collapsed copy, comparing two resolved frames per
/// child.
pub fn collapse_recursion(profile: &Profile) -> Profile {
    let mut out = Profile::new(profile.meta().name.clone());
    *out.meta_mut() = profile.meta().clone();
    for m in profile.metrics() {
        out.add_metric(m.clone());
    }
    let mut work: Vec<(NodeId, NodeId)> = vec![(profile.root(), out.root())];
    while let Some((src, dst)) = work.pop() {
        for v in profile.node(src).values() {
            out.add_value(dst, v.0, v.1);
        }
        for &child in profile.node(src).children() {
            let child_frame = profile.resolve_frame(child);
            let dst_frame = out.resolve_frame(dst);
            let recursive = child_frame.kind == dst_frame.kind
                && child_frame.kind != ContextKind::Root
                && child_frame.name == dst_frame.name
                && child_frame.module == dst_frame.module;
            let new_dst = if recursive {
                dst
            } else {
                out.child(dst, &child_frame)
            };
            work.push((child, new_dst));
        }
    }
    out.finish();
    out
}

/// The `profile/flameGraph` result as the server built it from a whole
/// layout: a row-form object per rect for the first `limit` rects of
/// `graph`, and `truncated`, the rects `limit` dropped, when it dropped
/// any. `ev_json::to_string` of it is the body
/// `ev_ide::encode_flame_graph` writes for the budgeted layout.
pub fn flame_value(graph: &FlameGraph, limit: usize) -> Value {
    let rects: Value = graph
        .rects()
        .iter()
        .take(limit)
        .map(|r| {
            Value::object([
                ("node", Value::Int(r.node.index() as i64)),
                ("depth", Value::Int(r.depth as i64)),
                ("x", Value::Float(r.x)),
                ("width", Value::Float(r.width)),
                ("label", Value::from(r.label.clone())),
                ("value", Value::Float(r.value)),
                ("self", Value::Float(r.self_value)),
                ("color", Value::from(r.color.to_hex())),
                ("mapped", Value::Bool(r.mapped)),
            ])
        })
        .collect();
    let mut fields = vec![
        ("total", Value::Float(graph.total())),
        ("maxDepth", Value::Int(graph.max_depth() as i64)),
        ("elided", Value::Int(graph.elided() as i64)),
        ("rects", rects),
    ];
    let truncated = graph.rects().len().saturating_sub(limit);
    if truncated > 0 {
        fields.push(("truncated", Value::Int(truncated as i64)));
    }
    Value::object(fields)
}
