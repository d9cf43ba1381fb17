//! Oracle equivalence for the analyses that copy calling context trees
//! with `Profile::graft`: `diff`, `aggregate` and `prune` must give
//! exactly what the hand-written copy loops they replaced gave. Those
//! loops live on here, in `oracle`, as the reference: each copies a
//! node by resolving its frame to owned strings and inserting it with
//! `Profile::child`. Outputs are compared as EasyView native bytes
//! (tree shape, node ids, string-table order, values), and diff entries
//! and aggregate series bit for bit.

use ev_analysis::{aggregate_with, diff, prune, DiffEntry, ExecPolicy};
use ev_core::{ContextKind, Frame, MetricDescriptor, MetricKind, MetricUnit, Profile};
use ev_gen::synthetic::SyntheticSpec;
use ev_test::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn easyview_bytes(p: &Profile) -> Vec<u8> {
    ev_core::format::to_bytes(p)
}

/// Frames with full code mapping, since a copy must carry every field:
/// `parse` repeats across two files and modules, two names are
/// non-ASCII, and one frame is a loop.
const FRAMES: [(ContextKind, &str, &str, &str, u32, u64); 10] = [
    (
        ContextKind::Function,
        "main",
        "app",
        "src/main.c",
        12,
        0x40_1000,
    ),
    (
        ContextKind::Function,
        "parse",
        "app",
        "src/parse.c",
        40,
        0x40_2000,
    ),
    (
        ContextKind::Function,
        "parse",
        "libfmt.so",
        "fmt/parse.c",
        7,
        0x7f00_0100,
    ),
    (
        ContextKind::Function,
        "größe_berechnen",
        "app",
        "src/größe.c",
        3,
        0x40_3000,
    ),
    (
        ContextKind::Function,
        "計算",
        "libcalc.so",
        "calc/計算.cc",
        99,
        0x7f10_0040,
    ),
    (
        ContextKind::Loop,
        "loop@compute",
        "app",
        "src/compute.c",
        214,
        0x40_4040,
    ),
    (
        ContextKind::Function,
        "compute",
        "app",
        "src/compute.c",
        210,
        0x40_4000,
    ),
    (
        ContextKind::Function,
        "alloc",
        "libc.so.6",
        "malloc/malloc.c",
        3021,
        0x7f20_0010,
    ),
    (
        ContextKind::Function,
        "emit",
        "app",
        "src/emit.c",
        5,
        0x40_5000,
    ),
    (
        ContextKind::Function,
        "merge",
        "libfmt.so",
        "fmt/merge.c",
        1,
        0x7f00_0200,
    ),
];

/// A sample: a call path of indices into [`FRAMES`] plus a value.
type Sample = (Vec<usize>, f64);

/// Up to 40 samples, paths up to 6 frames deep.
fn samples() -> impl Gen<Value = Vec<Sample>, Repr = Vec<Sample>> {
    vec((vec(0..FRAMES.len(), 1..7), 0.0f64..1000.0), 0..41)
}

/// A profile over [`FRAMES`] with two exclusive metrics: `cpu` holds
/// each sample's value and `alloc` a value derived from it.
fn profile(name: &str, samples: &[Sample]) -> Profile {
    let mut p = Profile::new(name);
    let cpu = p.add_metric(MetricDescriptor::new(
        "cpu",
        MetricUnit::Count,
        MetricKind::Exclusive,
    ));
    let alloc = p.add_metric(MetricDescriptor::new(
        "alloc",
        MetricUnit::Bytes,
        MetricKind::Exclusive,
    ));
    for (path, value) in samples {
        let frames: Vec<Frame> = path
            .iter()
            .map(|&i| {
                let (kind, name, module, file, line, address) = FRAMES[i];
                Frame::new(kind, name)
                    .with_module(module)
                    .with_source(file, line)
                    .with_address(address)
            })
            .collect();
        p.add_sample(&frames, &[(cpu, *value), (alloc, value * 8.0 + 16.0)]);
    }
    p
}

/// Two profiles drawn from the same frames, so their trees overlap.
fn arb_pair() -> impl Gen<Value = (Profile, Profile), Repr = (Vec<Sample>, Vec<Sample>)> {
    (samples(), samples()).prop_map(|(a, b)| (profile("first", &a), profile("second", &b)))
}

/// One to eight profiles for aggregation.
fn arb_batch() -> impl Gen<Value = Vec<Profile>, Repr = Vec<Vec<Sample>>> {
    vec(samples(), 1..9).prop_map(|batch| batch.iter().map(|s| profile("member", s)).collect())
}

/// The copy loops `Profile::graft` replaced, with the code around them
/// unchanged, run sequentially.
mod oracle {
    use ev_analysis::{DiffEntry, DiffTag, MetricView};
    use ev_core::{Frame, MetricDescriptor, MetricId, MetricKind, NodeId, Profile};

    /// A structure-only copy of one diff input plus the accumulated
    /// exclusive value per node.
    struct Side {
        tree: Profile,
        values: Vec<f64>,
    }

    fn build_side(profile: &Profile, metric: MetricId) -> Side {
        let mut tree = Profile::new("partial");
        let mut values: Vec<f64> = vec![0.0];
        let mut work: Vec<(NodeId, NodeId)> = vec![(profile.root(), tree.root())];
        while let Some((src, dst)) = work.pop() {
            values[dst.index()] += profile.value(src, metric);
            for &child in profile.node(src).children() {
                let frame: Frame = profile.resolve_frame(child);
                let new_dst = tree.child(dst, &frame);
                if new_dst.index() >= values.len() {
                    values.resize(new_dst.index() + 1, 0.0);
                }
                work.push((child, new_dst));
            }
        }
        Side { tree, values }
    }

    fn graft_side(
        out: &mut Profile,
        side: &Side,
        accum: &mut Vec<f64>,
        other: &mut Vec<f64>,
        present: &mut Vec<bool>,
        other_present: &mut Vec<bool>,
    ) {
        let mut work: Vec<(NodeId, NodeId)> = vec![(side.tree.root(), out.root())];
        while let Some((src, dst)) = work.pop() {
            accum[dst.index()] += side.values[src.index()];
            present[dst.index()] = true;
            for &child in side.tree.node(src).children() {
                let frame: Frame = side.tree.resolve_frame(child);
                let new_dst = out.child(dst, &frame);
                if new_dst.index() >= accum.len() {
                    accum.resize(new_dst.index() + 1, 0.0);
                    other.resize(new_dst.index() + 1, 0.0);
                    present.resize(new_dst.index() + 1, false);
                    other_present.resize(new_dst.index() + 1, false);
                }
                work.push((child, new_dst));
            }
        }
    }

    pub fn diff(
        first: &Profile,
        second: &Profile,
        metric_name: &str,
        epsilon: f64,
    ) -> (Profile, Vec<DiffEntry>) {
        let m1 = first.metric_by_name(metric_name).unwrap();
        let m2 = second.metric_by_name(metric_name).unwrap();
        let descriptor = first.metric(m1).clone();
        let (side1, side2) = (build_side(first, m1), build_side(second, m2));

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

        let mut befores: Vec<f64> = vec![0.0];
        let mut afters: Vec<f64> = vec![0.0];
        let mut in_first: Vec<bool> = vec![true];
        let mut in_second: Vec<bool> = vec![false];
        graft_side(
            &mut out,
            &side1,
            &mut befores,
            &mut afters,
            &mut in_first,
            &mut in_second,
        );
        in_second[NodeId::ROOT.index()] = true;
        graft_side(
            &mut out,
            &side2,
            &mut afters,
            &mut befores,
            &mut in_second,
            &mut in_first,
        );

        let mut entries: Vec<DiffEntry> = Vec::with_capacity(out.node_count());
        for node in out.node_ids().collect::<Vec<_>>() {
            let b = befores[node.index()];
            let a = afters[node.index()];
            let tag = match (in_first[node.index()], in_second[node.index()]) {
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
        (out, entries)
    }

    /// A structure-only tree plus a per-node value matrix covering a
    /// contiguous run of aggregate inputs.
    struct Partial {
        tree: Profile,
        series: Vec<Vec<f64>>,
        width: usize,
    }

    fn build_leaf(profile: &Profile, metric: MetricId) -> Partial {
        let mut tree = Profile::new("partial");
        let mut series: Vec<Vec<f64>> = vec![vec![0.0]];
        let mut work: Vec<(NodeId, NodeId)> = vec![(profile.root(), tree.root())];
        while let Some((src, dst)) = work.pop() {
            let value = profile.value(src, metric);
            if value != 0.0 {
                series[dst.index()][0] += value;
            }
            for &child in profile.node(src).children() {
                let frame: Frame = profile.resolve_frame(child);
                let new_dst = tree.child(dst, &frame);
                if new_dst.index() >= series.len() {
                    series.resize(new_dst.index() + 1, vec![0.0]);
                }
                work.push((child, new_dst));
            }
        }
        Partial {
            tree,
            series,
            width: 1,
        }
    }

    fn merge_partials(mut a: Partial, b: Partial) -> Partial {
        let (wa, wb) = (a.width, b.width);
        let width = wa + wb;
        for row in &mut a.series {
            row.resize(width, 0.0);
        }
        let mut work: Vec<(NodeId, NodeId)> = vec![(b.tree.root(), a.tree.root())];
        while let Some((src, dst)) = work.pop() {
            let row = &b.series[src.index()];
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    a.series[dst.index()][wa + j] = v;
                }
            }
            for &child in b.tree.node(src).children() {
                let frame: Frame = b.tree.resolve_frame(child);
                let new_dst = a.tree.child(dst, &frame);
                if new_dst.index() >= a.series.len() {
                    a.series.resize(new_dst.index() + 1, vec![0.0; width]);
                }
                work.push((child, new_dst));
            }
        }
        a.width = width;
        a
    }

    pub fn aggregate(profiles: &[&Profile], metric_name: &str) -> (Profile, Vec<Vec<f64>>) {
        let n = profiles.len();
        let source_metrics: Vec<MetricId> = profiles
            .iter()
            .map(|p| p.metric_by_name(metric_name).unwrap())
            .collect();
        // The same balanced pairwise reduction, one level at a time.
        let mut current: Vec<Partial> = profiles
            .iter()
            .zip(&source_metrics)
            .map(|(p, &m)| build_leaf(p, m))
            .collect();
        while current.len() > 1 {
            let mut next = Vec::new();
            let mut iter = current.into_iter();
            while let Some(a) = iter.next() {
                next.push(match iter.next() {
                    Some(b) => merge_partials(a, b),
                    None => a,
                });
            }
            current = next;
        }
        let unified = current.pop().unwrap();
        let series = unified.series;
        let mut out = unified.tree;

        let descriptor = profiles[0].metric(source_metrics[0]).clone();
        out.meta_mut().name = format!("aggregate of {n} profiles");
        out.meta_mut().profiler = profiles[0].meta().profiler.clone();
        out.meta_mut().description = format!("aggregate over {metric_name}");
        let sum = out.add_metric(
            MetricDescriptor::new(
                format!("{metric_name}/sum"),
                descriptor.unit,
                descriptor.kind,
            )
            .with_description("sum across profiles"),
        );
        let min = out.add_metric(
            MetricDescriptor::new(
                format!("{metric_name}/min"),
                descriptor.unit,
                MetricKind::Point,
            )
            .with_description("minimum across profiles"),
        );
        let max = out.add_metric(
            MetricDescriptor::new(
                format!("{metric_name}/max"),
                descriptor.unit,
                MetricKind::Point,
            )
            .with_description("maximum across profiles"),
        );
        let mean = out.add_metric(
            MetricDescriptor::new(
                format!("{metric_name}/mean"),
                descriptor.unit,
                MetricKind::Point,
            )
            .with_description("mean across profiles"),
        );
        for node in out.node_ids().collect::<Vec<_>>() {
            let values = &series[node.index()];
            if values.iter().all(|&v| v == 0.0) {
                continue;
            }
            let total: f64 = values.iter().sum();
            out.set_value(node, sum, total);
            out.set_value(
                node,
                min,
                values.iter().copied().fold(f64::INFINITY, f64::min),
            );
            out.set_value(
                node,
                max,
                values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            );
            out.set_value(node, mean, total / n as f64);
        }
        (out, series)
    }

    pub fn prune(profile: &Profile, metric: MetricId, threshold: f64) -> Profile {
        let view = MetricView::compute(profile, metric);
        let cutoff = view.total() * threshold;

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
            let mut pruned_total = 0.0;
            for &child in profile.node(src).children() {
                if view.inclusive(child) >= cutoff {
                    let frame = profile.resolve_frame(child);
                    let new_child = out.child(dst, &frame);
                    work.push((child, new_child));
                } else {
                    pruned_total += view.inclusive(child);
                }
            }
            if pruned_total > 0.0 {
                let pruned = out.child(dst, &Frame::function("«pruned»"));
                out.add_value(pruned, metric, pruned_total);
            }
        }
        out
    }
}

fn entry_bits(e: &DiffEntry) -> (String, u64, u64) {
    (e.tag.to_string(), e.before.to_bits(), e.after.to_bits())
}

fn check_diff(first: &Profile, second: &Profile, metric: &str) -> Result<(), String> {
    let got = diff(first, second, metric, 0.0).unwrap();
    let (profile, entries) = oracle::diff(first, second, metric, 0.0);
    if easyview_bytes(&got.profile) != easyview_bytes(&profile) {
        return Err("diff profile bytes differ from the oracle".to_owned());
    }
    for (node, entry) in got.entries() {
        let want = &entries[node.index()];
        if entry_bits(&entry) != entry_bits(want) {
            return Err(format!("diff entry {node:?}: {entry:?} != {want:?}"));
        }
    }
    Ok(())
}

fn check_aggregate(profiles: &[&Profile], metric: &str) -> Result<(), String> {
    let (profile, series) = oracle::aggregate(profiles, metric);
    let want_bytes = easyview_bytes(&profile);
    for &t in &THREADS {
        let got = aggregate_with(profiles, metric, ExecPolicy::with_threads(t)).unwrap();
        if easyview_bytes(&got.profile) != want_bytes {
            return Err(format!(
                "aggregate bytes differ from the oracle at threads={t}"
            ));
        }
        for node in got.profile.node_ids() {
            let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            if bits(got.series(node)) != bits(&series[node.index()]) {
                return Err(format!("series of {node:?} differs at threads={t}"));
            }
        }
    }
    Ok(())
}

fn check_prune(profile: &Profile, threshold: f64) -> Result<(), String> {
    for metric in profile.metrics().iter().map(|m| m.name.as_str()) {
        let m = profile.metric_by_name(metric).unwrap();
        let got = prune(profile, m, threshold);
        if easyview_bytes(&got) != easyview_bytes(&oracle::prune(profile, m, threshold)) {
            return Err(format!(
                "prune({metric}, {threshold}) differs from the oracle"
            ));
        }
    }
    Ok(())
}

property! {
    #![cases(64)]

    // `named` profiles come from `ev_test`'s generators: name-only
    // frames, so empty module and file strings are remapped too.
    fn diff_matches_oracle(pair in arb_pair(), named in arb_profile_pair(40, 6)) {
        let (first, second) = pair;
        prop_assert_eq!(check_diff(&first, &second, "cpu"), Ok(()));
        prop_assert_eq!(check_diff(&second, &first, "alloc"), Ok(()));
        prop_assert_eq!(check_diff(&first, &first, "cpu"), Ok(()));
        prop_assert_eq!(check_diff(&named.0, &named.1, "cpu"), Ok(()));
        prop_assert_eq!(check_diff(&named.0, &first, "cpu"), Ok(()));
    }

    fn aggregate_matches_oracle(batch in arb_batch(), named in arb_profile_batch(1..9, 30, 6)) {
        let refs: Vec<&Profile> = batch.iter().collect();
        prop_assert_eq!(check_aggregate(&refs, "cpu"), Ok(()));
        let refs: Vec<&Profile> = named.iter().chain(&batch).collect();
        prop_assert_eq!(check_aggregate(&refs, "cpu"), Ok(()));
    }

    fn prune_matches_oracle(
        pair in arb_pair(),
        named in arb_profile_pair(40, 6),
        threshold in 0.0f64..0.5,
    ) {
        for t in [0.0, 1e-4, 1e-3, 1e-2, threshold] {
            prop_assert_eq!(check_prune(&pair.0, t), Ok(()));
            prop_assert_eq!(check_prune(&named.0, t), Ok(()));
        }
    }
}

/// Two default-shape synthetic profiles (about 10k nodes each) with
/// different seeds: deep paths, shared structure, interned-up-front
/// string tables whose order differs from the walk order.
#[test]
fn mid_size_synthetic_pair_matches_oracle() {
    let build = |seed| {
        SyntheticSpec {
            seed,
            ..SyntheticSpec::default()
        }
        .build()
    };
    let (first, second) = (build(1), build(2));
    check_diff(&first, &second, "cpu").unwrap();
    check_diff(&second, &first, "alloc_space").unwrap();
    check_aggregate(&[&first, &second], "cpu").unwrap();
    for threshold in [0.0, 1e-4, 1e-3, 1e-2] {
        check_prune(&first, threshold).unwrap();
    }
}
