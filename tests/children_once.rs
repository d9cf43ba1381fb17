//! A profile's child lists are derived from its parent column at most
//! once per version: the decoder or transform that finishes a profile
//! derives them, every later graft (diff, aggregate, prune) and view
//! reuses them, and only inserting a node forces another derivation.
//! Counted with the `core.cct_children` counter, which is
//! process-wide, so this binary holds a single test.

use ev_analysis::{aggregate_with, diff, profile_fingerprint, prune, ExecPolicy, MetricView};
use ev_core::{format, Frame, MetricId, NodeId, Profile};
use ev_flame::{FlameGraph, TreeTable};

fn derivations() -> u64 {
    ev_trace::counter_value("core.cct_children")
}

/// Every read-only view of `profile` that walks its children.
fn every_view(profile: &Profile, metric: MetricId) {
    let view = MetricView::compute(profile, metric);
    view.hottest(5);
    FlameGraph::top_down(profile, metric);
    let mut table = TreeTable::new(profile, &[metric]);
    table.expand_to_depth(4);
    table.expand_hot_path(0);
    table.rows();
    profile_fingerprint(profile);
    profile.pre_order().count();
    profile.post_order().count();
    profile.validate().unwrap();
    format::to_bytes(profile);
}

/// Runs `step` and returns how many child lists it derived.
fn derived_by(step: impl FnOnce()) -> u64 {
    let before = derivations();
    step();
    derivations() - before
}

#[test]
fn child_lists_are_derived_once_per_profile_version() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/synthetic_cpu.pb.gz"
    );
    let bytes = std::fs::read(path).unwrap();

    // Both decoders hand over finished profiles; views derive nothing.
    let mut a = None;
    assert_eq!(
        derived_by(|| a = Some(ev_formats::pprof::parse(&bytes).unwrap())),
        1
    );
    let a = a.unwrap();
    let cpu = a.metric_by_name("cpu").unwrap();
    assert_eq!(derived_by(|| every_view(&a, cpu)), 0);
    let mut b = None;
    assert_eq!(
        derived_by(|| b = Some(format::from_bytes(&format::to_bytes(&a)).unwrap())),
        1
    );
    let b = b.unwrap();
    assert_eq!(derived_by(|| every_view(&b, cpu)), 0);
    // A clone carries the lists along.
    let c = a.clone();
    assert_eq!(derived_by(|| every_view(&c, cpu)), 0);

    // Grafts read their sources' lists; each output derives once, when
    // it is finished.
    let mut d = None;
    assert_eq!(
        derived_by(|| d = Some(diff(&a, &b, "cpu", 0.0).unwrap())),
        1
    );
    let d = d.unwrap();
    assert_eq!(derived_by(|| every_view(&d.profile, d.delta)), 0);
    let mut pruned = None;
    assert_eq!(derived_by(|| pruned = Some(prune(&a, cpu, 0.01))), 1);
    assert_eq!(derived_by(|| every_view(pruned.as_ref().unwrap(), cpu)), 0);

    // Aggregating three profiles merges partial trees pairwise: each
    // of the two merges reads one fresh partial tree, and the result is
    // finished once.
    let mut agg = None;
    let inputs = [&a, &b, &c];
    assert_eq!(
        derived_by(|| agg = Some(aggregate_with(&inputs, "cpu", ExecPolicy::SEQUENTIAL).unwrap())),
        3
    );
    let agg = agg.unwrap();
    assert_eq!(derived_by(|| every_view(&agg.profile, agg.metrics.sum)), 0);

    // Values do not touch the tree; inserting a node makes a new
    // version whose lists the next reader derives once.
    let mut e = a.clone();
    e.set_value(NodeId::ROOT, cpu, 1.0);
    assert_eq!(derived_by(|| every_view(&e, cpu)), 0);
    e.child(NodeId::ROOT, &Frame::function("fresh"));
    assert_eq!(derived_by(|| every_view(&e, cpu)), 1);
    assert_eq!(derived_by(|| every_view(&e, cpu)), 0);
}
