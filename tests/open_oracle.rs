//! Oracle equivalence for opening a profile: `MetricView::compute`, the
//! three flame layouts, `ColorScheme::color_for` and the `ev-json`
//! writers must give exactly what the code they replaced gave. That
//! code lives on here, in `oracle`: the post-order metric view, the
//! layout that cloned its profile and resolved every frame to owned
//! strings, the `Frame`-based color function, and the `fmt`-based
//! number and string writers. The bottom-up and flat oracles lay out
//! the retained transforms of `ev_bench::oracle`, whose rect nodes are
//! then replaced by their representatives in the source profile.
//! Views are compared bit for bit, layouts rect by rect, JSON as bytes.
//! A layout under a rect budget must keep the first rects of the whole
//! oracle layout and count the rest, and every `profile/flameGraph`
//! body the server writes must be the bytes of the row-form result
//! (`ev_bench::oracle::flame_value`) of the whole layout.

use ev_analysis::{aggregate, diff, prune, MetricView};
use ev_core::{
    ContextKind, Frame, MetricDescriptor, MetricId, MetricKind, MetricUnit, NodeId, Profile,
};
use ev_flame::{Color, ColorScheme, FlameGraph, FlameRect, FlameView};
use ev_gen::synthetic::SyntheticSpec;
use ev_ide::rpc::{encode_frame, Request};
use ev_ide::{EditorClient, SharedEvpServer};
use ev_json::Value;
use ev_test::prelude::*;
use ev_test::profiles::SampleSpec;
use std::path::PathBuf;

/// The code the open path replaced, unchanged apart from standing
/// outside its crates.
mod oracle {
    use ev_analysis::Transformed;
    use ev_core::{Frame, MetricId, MetricKind, NodeId, Profile};
    use ev_flame::{Color, ColorScheme, FlameRect};
    use std::fmt::Write as _;

    /// Inclusive and exclusive values from the sequential post-order
    /// `MetricView`.
    pub struct View {
        inclusive: Vec<f64>,
        exclusive: Vec<f64>,
    }

    impl View {
        pub fn compute(profile: &Profile, metric: MetricId) -> View {
            let n = profile.node_count();
            let mut inclusive = vec![0.0; n];
            let mut exclusive = vec![0.0; n];
            match profile.metric(metric).kind {
                MetricKind::Exclusive => {
                    for id in profile.node_ids() {
                        let v = profile.value(id, metric);
                        exclusive[id.index()] = v;
                        inclusive[id.index()] = v;
                    }
                    // Post-order: children are finalized before parents.
                    for id in profile.post_order() {
                        if let Some(parent) = profile.node(id).parent() {
                            inclusive[parent.index()] += inclusive[id.index()];
                        }
                    }
                }
                MetricKind::Inclusive => {
                    for id in profile.node_ids() {
                        inclusive[id.index()] = profile.value(id, metric);
                    }
                    for id in profile.node_ids() {
                        let child_sum: f64 = profile
                            .node(id)
                            .children()
                            .iter()
                            .map(|c| inclusive[c.index()])
                            .sum();
                        exclusive[id.index()] = inclusive[id.index()] - child_sum;
                    }
                    // A zero-valued interior node (common for synthetic roots)
                    // inherits its children's total.
                    for id in profile.post_order() {
                        if inclusive[id.index()] == 0.0 {
                            let child_sum: f64 = profile
                                .node(id)
                                .children()
                                .iter()
                                .map(|c| inclusive[c.index()])
                                .sum();
                            inclusive[id.index()] = child_sum;
                            exclusive[id.index()] = 0.0;
                        }
                    }
                }
                MetricKind::Point => {
                    for id in profile.node_ids() {
                        let v = profile.value(id, metric);
                        inclusive[id.index()] = v;
                        exclusive[id.index()] = v;
                    }
                }
            }
            View {
                inclusive,
                exclusive,
            }
        }

        pub fn inclusive(&self, node: NodeId) -> f64 {
            self.inclusive[node.index()]
        }

        pub fn exclusive(&self, node: NodeId) -> f64 {
            self.exclusive[node.index()]
        }

        pub fn total(&self) -> f64 {
            self.inclusive[NodeId::ROOT.index()]
        }
    }

    /// FNV-1a, for stable name → hue hashing.
    fn fnv1a(s: &str) -> u64 {
        let mut hash: u64 = 0xcbf29ce484222325;
        for b in s.as_bytes() {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x100000001b3);
        }
        hash
    }

    /// HSL → RGB for h in [0, 360), s/l in [0, 1].
    fn hsl(h: f64, s: f64, l: f64) -> Color {
        let c = (1.0 - (2.0 * l - 1.0).abs()) * s;
        let hp = h / 60.0;
        let x = c * (1.0 - (hp % 2.0 - 1.0).abs());
        let (r1, g1, b1) = match hp as u32 {
            0 => (c, x, 0.0),
            1 => (x, c, 0.0),
            2 => (0.0, c, x),
            3 => (0.0, x, c),
            4 => (x, 0.0, c),
            _ => (c, 0.0, x),
        };
        let m = l - c / 2.0;
        Color {
            r: ((r1 + m) * 255.0) as u8,
            g: ((g1 + m) * 255.0) as u8,
            b: ((b1 + m) * 255.0) as u8,
        }
    }

    /// `ColorScheme::color_for` as it took a resolved [`Frame`].
    pub fn color_for(scheme: ColorScheme, frame: &Frame) -> Color {
        let base = match scheme {
            ColorScheme::Warm => {
                // Warm hues: 0–55° (red → yellow).
                let hue = (fnv1a(&frame.name) % 56) as f64;
                hsl(hue, 0.85, 0.55)
            }
            ColorScheme::ByModule => {
                let hue = (fnv1a(&frame.module) % 360) as f64;
                hsl(hue, 0.6, 0.55)
            }
            ColorScheme::ByFile => {
                let hue = (fnv1a(&frame.file) % 360) as f64;
                hsl(hue, 0.6, 0.55)
            }
        };
        if frame.has_source_mapping() {
            base
        } else {
            base.darken(0.6)
        }
    }

    const MIN_WIDTH: f64 = 1e-5;

    /// What a laid-out `FlameGraph` exposes.
    pub struct Layout {
        pub rects: Vec<FlameRect>,
        pub max_depth: usize,
        pub elided: usize,
        pub total: f64,
    }

    /// The top-down layout over a clone of `profile`.
    pub fn top_down(profile: &Profile, metric: MetricId) -> Layout {
        layout(profile.clone(), metric, ColorScheme::default())
    }

    pub fn bottom_up(profile: &Profile, metric: MetricId) -> Layout {
        transformed(profile, metric, ev_bench::oracle::bottom_up(profile, metric))
    }

    pub fn flat(profile: &Profile, metric: MetricId) -> Layout {
        transformed(profile, metric, ev_bench::oracle::flatten(profile, metric))
    }

    /// The layout of a retained transform's tree, each rect's node then
    /// replaced by its representative in `profile`.
    fn transformed(profile: &Profile, metric: MetricId, shaped: Transformed) -> Layout {
        let m = shaped
            .profile
            .metric_by_name(&profile.metric(metric).name)
            .expect("transform keeps the metric");
        let mut layout = layout(shaped.profile, m, ColorScheme::default());
        for rect in &mut layout.rects {
            rect.node = shaped.sources[rect.node.index()];
        }
        layout
    }

    /// The sequential branch of the owned-profile layout.
    fn layout(profile: Profile, metric: MetricId, scheme: ColorScheme) -> Layout {
        let view = View::compute(&profile, metric);
        let total = view.total().max(f64::MIN_POSITIVE);
        let mut rects = Vec::with_capacity(profile.node_count());
        let mut max_depth = 0usize;
        let mut elided = 0usize;

        // Work list of (node, depth, left edge).
        let mut work: Vec<(NodeId, usize, f64)> = vec![(profile.root(), 0, 0.0)];
        while let Some((node, depth, x)) = work.pop() {
            let step = layout_one(&profile, &view, total, scheme, node, depth, x);
            match step.rect {
                Some(rect) => {
                    max_depth = max_depth.max(depth);
                    rects.push(rect);
                    work.extend(step.children);
                }
                None => elided += 1,
            }
        }
        rects.sort_by(|a, b| {
            a.depth
                .cmp(&b.depth)
                .then(a.x.total_cmp(&b.x))
                .then(a.node.index().cmp(&b.node.index()))
        });
        Layout {
            rects,
            max_depth,
            elided,
            total,
        }
    }

    struct LayoutStep {
        rect: Option<FlameRect>,
        children: Vec<(NodeId, usize, f64)>,
    }

    fn layout_one(
        profile: &Profile,
        view: &View,
        total: f64,
        scheme: ColorScheme,
        node: NodeId,
        depth: usize,
        x: f64,
    ) -> LayoutStep {
        let inclusive = view.inclusive(node);
        let width = inclusive / total;
        if width < MIN_WIDTH && node != NodeId::ROOT {
            return LayoutStep {
                rect: None,
                children: Vec::new(),
            };
        }
        let frame = profile.resolve_frame(node);
        let label = if node == NodeId::ROOT {
            "ROOT".to_owned()
        } else {
            frame.name.clone()
        };
        let rect = FlameRect {
            node,
            depth,
            x,
            width: if node == NodeId::ROOT { 1.0 } else { width },
            label,
            value: inclusive,
            self_value: view.exclusive(node),
            color: color_for(scheme, &frame),
            mapped: frame.has_source_mapping(),
        };
        let mut ordered: Vec<(NodeId, f64)> = profile
            .node(node)
            .children()
            .iter()
            .map(|&c| (c, view.inclusive(c)))
            .collect();
        ordered.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut children = Vec::with_capacity(ordered.len());
        let mut cursor = x;
        for (child, inclusive) in ordered {
            children.push((child, depth + 1, cursor));
            cursor += inclusive / total;
        }
        LayoutStep {
            rect: Some(rect),
            children,
        }
    }

    /// `Value::Int` as the serializer wrote it.
    pub fn int(i: i64) -> String {
        let mut out = String::new();
        let _ = write!(out, "{i}");
        out
    }

    /// `Value::Float` as the serializer wrote it.
    pub fn float(f: f64) -> String {
        let mut out = String::new();
        write_f64(&mut out, f);
        out
    }

    /// A string literal as the serializer wrote it.
    pub fn string(s: &str) -> String {
        let mut out = String::new();
        write_escaped(&mut out, s);
        out
    }

    fn write_f64(out: &mut String, f: f64) {
        if f.is_finite() {
            if f == f.trunc() && f.abs() < 1e15 {
                // Keep a trailing .0 so the value re-parses as Float, not Int.
                let _ = write!(out, "{f:.1}");
            } else {
                let _ = write!(out, "{f}");
            }
        } else {
            out.push_str("null");
        }
    }

    fn write_escaped(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{8}' => out.push_str("\\b"),
                '\u{c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

// ---------------------------------------------------------------------
// Comparisons.

fn assert_view_matches(p: &Profile, metric: MetricId, what: &str) {
    let new = MetricView::compute(p, metric);
    let old = oracle::View::compute(p, metric);
    for id in p.node_ids() {
        assert_eq!(
            new.inclusive(id).to_bits(),
            old.inclusive(id).to_bits(),
            "{what}: inclusive({id:?})"
        );
        assert_eq!(
            new.exclusive(id).to_bits(),
            old.exclusive(id).to_bits(),
            "{what}: exclusive({id:?})"
        );
    }
    assert_eq!(
        new.total().to_bits(),
        old.total().to_bits(),
        "{what}: total"
    );
}

/// Every field of a rect, floats as bits.
type RectKey<'a> = (NodeId, usize, u64, u64, &'a str, u64, u64, Color, bool);

fn rect_key(r: &FlameRect) -> RectKey<'_> {
    (
        r.node,
        r.depth,
        r.x.to_bits(),
        r.width.to_bits(),
        &r.label,
        r.value.to_bits(),
        r.self_value.to_bits(),
        r.color,
        r.mapped,
    )
}

/// The limits a budget can end at in a layout of `rects`:
/// nothing, one rect, exactly at a depth boundary and in the middle of
/// the next row (every depth, or every eighth of a deep layout), all
/// rects, more than all, and `pick` mod (rect count + 2).
fn budget_limits(rects: &[FlameRect], max_depth: usize, pick: u64) -> Vec<usize> {
    let n = rects.len();
    // `ends[d]`: the rects at depth `d` or above.
    let mut ends = vec![0usize; max_depth + 1];
    for r in rects {
        ends[r.depth] += 1;
    }
    for d in 1..ends.len() {
        ends[d] += ends[d - 1];
    }
    let mut limits = vec![0, 1, n, n + 1, (pick % (n as u64 + 2)) as usize];
    for d in (0..=max_depth).step_by((max_depth / 8).max(1)) {
        limits.push(ends[d]);
        if let Some(&end) = ends.get(d + 1) {
            limits.push(ends[d] + (end - ends[d]) / 2);
        }
    }
    limits.sort_unstable();
    limits.dedup();
    limits
}

/// `new`, laid out under `limit`, keeps the first `limit` rects of the
/// whole oracle layout `old`, counts the rest as `truncated`, and
/// reports the whole layout's total, depth and elided count.
fn assert_budget_matches(new: &FlameGraph, old: &oracle::Layout, limit: usize, what: &str) {
    let kept = limit.min(old.rects.len());
    assert_eq!(new.rects().len(), kept, "{what}: rect count");
    for (i, (a, b)) in new.rects().iter().zip(&old.rects).enumerate() {
        assert_eq!(rect_key(a), rect_key(b), "{what}: rect {i}");
    }
    assert_eq!(new.truncated(), old.rects.len() - kept, "{what}: truncated");
    assert_eq!(new.total().to_bits(), old.total.to_bits(), "{what}: total");
    assert_eq!(new.max_depth(), old.max_depth, "{what}: max_depth");
    assert_eq!(new.elided(), old.elided, "{what}: elided");
}

/// Every view, whole and under each of [`budget_limits`], against the
/// oracle's whole layout.
fn assert_layouts_match(p: &Profile, metric: MetricId, pick: u64, what: &str) {
    type NewFn = fn(&Profile, MetricId) -> FlameGraph;
    type OldFn = fn(&Profile, MetricId) -> oracle::Layout;
    let views: [(FlameView, NewFn, OldFn); 3] = [
        (FlameView::TopDown, FlameGraph::top_down, oracle::top_down),
        (
            FlameView::BottomUp,
            FlameGraph::bottom_up,
            oracle::bottom_up,
        ),
        (FlameView::Flat, FlameGraph::flat, oracle::flat),
    ];
    for (view, whole, old) in views {
        let old = old(p, metric);
        let what = format!("{what} {view:?}");
        assert_budget_matches(&whole(p, metric), &old, usize::MAX, &what);
        for limit in budget_limits(&old.rects, old.max_depth, pick) {
            let new = FlameGraph::layout(p, metric, view, limit);
            assert_budget_matches(&new, &old, limit, &format!("{what} limit {limit}"));
        }
    }
}

fn assert_open_matches(p: &Profile, pick: u64, what: &str) {
    for (i, m) in p.metrics().iter().enumerate() {
        let metric = MetricId::from_index(i);
        let what = format!("{what} metric {:?}", m.name);
        assert_view_matches(p, metric, &what);
        assert_layouts_match(p, metric, pick, &what);
    }
}

// ---------------------------------------------------------------------
// Profiles.

/// Frames with module, file and line, frames without source mapping,
/// non-ASCII names, a loop and a heap object.
const FRAMES: [(ContextKind, &str, &str, &str, u32); 10] = [
    (ContextKind::Function, "main", "app", "src/main.c", 12),
    (ContextKind::Function, "parse", "app", "src/parse.c", 40),
    (
        ContextKind::Function,
        "parse",
        "libfmt.so",
        "fmt/parse.c",
        7,
    ),
    (
        ContextKind::Function,
        "größe_berechnen",
        "app",
        "src/größe.c",
        3,
    ),
    (
        ContextKind::Function,
        "計算",
        "libcalc.so",
        "calc/計算.cc",
        99,
    ),
    (
        ContextKind::Loop,
        "loop@compute",
        "app",
        "src/compute.c",
        214,
    ),
    (ContextKind::Function, "unmapped", "libc.so.6", "", 0),
    (ContextKind::Function, "no_line", "app", "src/emit.c", 0),
    (ContextKind::Function, "bare", "", "", 0),
    (ContextKind::HeapObject, "buffer[]", "", "", 0),
];

/// Sample values, weighted toward the ones that test a rule: zero,
/// negative zero, and values spanning many magnitudes.
const VALUES: [f64; 8] = [0.0, -0.0, 1.0, 3.0, 0.1, 1e-9, 250.0, 1e6];

/// A sample: a call path of indices into [`FRAMES`], an index into
/// [`VALUES`], and whether the sample's leaf parent also stores a
/// value (so `Inclusive` interiors are both zero and nonzero).
type Sample = (Vec<usize>, usize, bool);

fn samples() -> impl Gen<Value = Vec<Sample>, Repr = Vec<Sample>> {
    vec(
        (vec(0..FRAMES.len(), 1..7), 0..VALUES.len(), any_bool()),
        0..41,
    )
}

fn frame(i: usize) -> Frame {
    let (kind, name, module, file, line) = FRAMES[i];
    Frame::new(kind, name)
        .with_module(module)
        .with_source(file, line)
}

/// `samples` with their values replaced by `shape`: 0 keeps them, 1
/// zeroes every one (a zero total), 2 makes every one 1.0 (siblings of
/// equal width), and 3 makes each 1e6 or 1e-9 (sub-pixel subtrees
/// beside wide ones).
fn reshaped(samples: &[Sample], shape: u8) -> Vec<Sample> {
    samples
        .iter()
        .map(|(path, value, parent_too)| {
            let value = match shape {
                0 => *value,
                1 => 0,
                2 => 2,
                _ if value % 2 == 0 => 7,
                _ => 5,
            };
            (path.clone(), value, *parent_too)
        })
        .collect()
}

/// A profile with one metric of each kind over the same samples.
fn kinds_profile(samples: &[Sample]) -> Profile {
    let mut p = Profile::new("kinds");
    let exc = p.add_metric(MetricDescriptor::new(
        "exc",
        MetricUnit::Count,
        MetricKind::Exclusive,
    ));
    let inc = p.add_metric(MetricDescriptor::new(
        "inc",
        MetricUnit::Count,
        MetricKind::Inclusive,
    ));
    let point = p.add_metric(MetricDescriptor::new(
        "point",
        MetricUnit::Bytes,
        MetricKind::Point,
    ));
    for (path, value, parent_too) in samples {
        let frames: Vec<Frame> = path.iter().map(|&i| frame(i)).collect();
        let v = VALUES[*value];
        let leaf = p.add_sample(&frames, &[(exc, v), (inc, v), (point, v)]);
        if *parent_too {
            if let Some(parent) = p.node(leaf).parent() {
                p.add_value(parent, inc, v * 2.0);
            }
        }
    }
    p
}

/// The profile as written to and read back from EVPF bytes.
fn evpf_decoded(p: &Profile) -> Profile {
    ev_formats::easyview::parse(&ev_core::format::to_bytes(p)).expect("EVPF round trip")
}

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

/// A synthetic profile of more than 4,096 nodes.
fn big_profile() -> Profile {
    let p = SyntheticSpec {
        samples: 30_000,
        seed: 42,
        ..SyntheticSpec::default()
    }
    .build();
    assert!(p.node_count() >= 4096, "{} nodes", p.node_count());
    p
}

/// A profile of more than 4,096 nodes whose metric is `Inclusive`-kind,
/// with zero-valued interiors above every sampled leaf.
fn big_inclusive_profile() -> Profile {
    let mut rng = Rng::new(7);
    let mut samples: Vec<SampleSpec> = Vec::new();
    for _ in 0..20_000 {
        let depth = rng.gen_range(1..=12usize);
        let path: Vec<String> = (0..depth)
            .map(|_| format!("fn{}", rng.gen_range(0..50u32)))
            .collect();
        samples.push((path, rng.gen_range(0.0..100.0)));
    }
    let p = profile_from_samples_kind("inclusive-big", &samples, MetricKind::Inclusive);
    assert!(p.node_count() >= 4096, "{} nodes", p.node_count());
    p
}

// ---------------------------------------------------------------------
// Views and layouts.

property! {
    #![cases(64)]

    fn views_and_layouts_match_oracle(s in samples(), t in samples(), pick in any_u64()) {
        let p = kinds_profile(&s);
        assert_open_matches(&p, pick, "built");
        assert_open_matches(&evpf_decoded(&p), pick, "EVPF-decoded");
        // Graft-built trees: prune, diff and aggregate copy with
        // `Profile::graft`.
        let q = kinds_profile(&t);
        let exc = p.metric_by_name("exc").unwrap();
        assert_open_matches(&prune(&p, exc, 0.05), pick, "pruned");
        assert_open_matches(&diff(&p, &q, "exc", 0.0).unwrap().profile, pick, "diff");
        assert_open_matches(&aggregate(&[&p, &q], "exc").unwrap().profile, pick, "aggregate");
    }

    fn ev_test_profiles_match_oracle(p in arb_profile(40, 8), pick in any_u64()) {
        assert_open_matches(&p, pick, "arb_profile");
    }

    // The shapes a budget can trip on, made on purpose: zero totals,
    // rows of equal-width siblings, and wide nodes beside sub-pixel
    // subtrees (whose own children are never visited).
    fn budgeted_layouts_keep_the_oracles_first_rects(
        s in samples(),
        t in samples(),
        shape in 0u8..4,
        pick in any_u64(),
    ) {
        let p = kinds_profile(&reshaped(&s, shape));
        let q = kinds_profile(&reshaped(&t, shape));
        assert_open_matches(&p, pick, "budget");
        assert_open_matches(&diff(&p, &q, "exc", 0.0).unwrap().profile, pick, "budget diff");
        assert_open_matches(
            &aggregate(&[&p, &q], "exc").unwrap().profile,
            pick,
            "budget aggregate",
        );
    }

    fn colors_match_oracle_for_every_scheme(s in samples()) {
        let p = kinds_profile(&s);
        let strings = p.strings();
        for id in p.node_ids() {
            let frame = p.node(id).frame();
            let file = strings.resolve(frame.file);
            let mapped = !file.is_empty() && frame.line != 0;
            let resolved = p.resolve_frame(id);
            prop_assert_eq!(mapped, resolved.has_source_mapping());
            for scheme in [ColorScheme::Warm, ColorScheme::ByModule, ColorScheme::ByFile] {
                let new = scheme.color_for(
                    strings.resolve(frame.name),
                    strings.resolve(frame.module),
                    file,
                    mapped,
                );
                prop_assert_eq!(new, oracle::color_for(scheme, &resolved), "{:?}", scheme);
            }
        }
    }
}

#[test]
fn metric_view_matches_oracle_on_large_exclusive_profile() {
    let p = big_profile();
    assert_view_matches(&p, p.metric_by_name("cpu").unwrap(), "synthetic");
}

#[test]
fn metric_view_matches_oracle_on_large_inclusive_profile() {
    let p = big_inclusive_profile();
    assert_view_matches(&p, p.metric_by_name("cpu").unwrap(), "inclusive");
}

#[test]
fn flame_layouts_match_oracle_on_large_profile() {
    let p = big_profile();
    assert_layouts_match(&p, p.metric_by_name("cpu").unwrap(), 512, "synthetic");
}

#[test]
fn golden_fixture_views_match_oracle() {
    for file in [
        "synthetic_cpu.pb.gz",
        "grpc_leak.pb.gz",
        "multi_member.pb.gz",
    ] {
        let bytes = std::fs::read(fixture_dir().join(file)).expect("fixture exists");
        let profile = ev_formats::pprof::parse(&bytes).expect("fixture decodes");
        assert_open_matches(&profile, 512, file);
    }
}

// ---------------------------------------------------------------------
// Served flame graphs.

/// The `result` text of an EVP response frame. The envelope's keys sort
/// as `id`, `jsonrpc`, `meta`, `result`, and `meta` holds only numbers,
/// so the first `"result":` is the envelope's.
fn result_text(frame: &[u8]) -> &str {
    let text = std::str::from_utf8(frame).expect("frames are UTF-8");
    let body = &text[text.find("\r\n\r\n").expect("a framed response") + 4..];
    let start = body.find("\"result\":").expect("a result") + "\"result\":".len();
    body[start..]
        .strip_suffix('}')
        .expect("result is the envelope's last member")
}

/// Every `profile/flameGraph` body served for `p`, for each metric,
/// view and limit `limits` gives for the view's whole layout, on a miss
/// and then on a hit, is byte for byte `ev_json::to_string` of the
/// retained row-form result of the whole layout.
fn assert_served_bodies_match(p: &Profile, limits: impl Fn(&FlameGraph) -> Vec<usize>, what: &str) {
    let views = [
        ("topDown", FlameView::TopDown),
        ("bottomUp", FlameView::BottomUp),
        ("flat", FlameView::Flat),
    ];
    let server = SharedEvpServer::new();
    let mut client = EditorClient::connect_shared(server.clone()).expect("session/open");
    let id = client.open_profile(p).expect("profile/open");
    let mut requests = 0;
    for (i, m) in p.metrics().iter().enumerate() {
        for (view, shape) in views {
            let whole = FlameGraph::layout(p, MetricId::from_index(i), shape, usize::MAX);
            for limit in limits(&whole) {
                let want = ev_json::to_string(&ev_bench::oracle::flame_value(&whole, limit));
                let params = Value::object([
                    ("profileId", Value::Int(id)),
                    ("metric", Value::from(m.name.as_str())),
                    ("view", Value::from(view)),
                    ("limit", Value::Int(limit as i64)),
                ]);
                let frame = encode_frame(&Request::new(7, "profile/flameGraph", params).to_value());
                for pass in ["miss", "hit"] {
                    let (bytes, _) = server.handle_bytes(&frame).expect("one whole frame");
                    assert_eq!(
                        result_text(&bytes),
                        want,
                        "{what} metric {:?} {view} limit {limit} ({pass})",
                        m.name
                    );
                }
                requests += 1;
            }
        }
    }
    let stats = server.view_cache_stats();
    assert_eq!((stats.misses, stats.hits), (requests, requests), "{what}");
}

property! {
    #![cases(32)]

    fn served_flame_graphs_match_the_row_form_oracle(
        s in samples(),
        shape in 0u8..4,
        pick in any_u64(),
    ) {
        let limits = |g: &FlameGraph| budget_limits(g.rects(), g.max_depth(), pick);
        assert_served_bodies_match(&kinds_profile(&reshaped(&s, shape)), limits, "served");
    }
}

#[test]
fn served_flame_graphs_match_the_row_form_oracle_on_large_profiles() {
    let limits = |g: &FlameGraph| vec![512, g.rects().len() / 2, g.rects().len() + 1];
    assert_served_bodies_match(&big_profile(), limits, "synthetic");
    // LULESH's CPU time is fractional seconds.
    assert_served_bodies_match(&ev_gen::lulesh::cpu_profile(7), limits, "lulesh");
}

// ---------------------------------------------------------------------
// JSON writers.

fn assert_float_matches(f: f64) {
    assert_eq!(
        ev_json::to_string(&Value::Float(f)),
        oracle::float(f),
        "{f:?} (bits {:#x})",
        f.to_bits()
    );
}

#[test]
fn json_numbers_match_oracle_at_boundaries() {
    let two_53 = 9_007_199_254_740_992.0f64;
    let mut floats = vec![
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        -0.5,
        1e15,
        -1e15,
        1e15 - 1.0,
        -(1e15 - 1.0),
        1e15 + 2.0,
        999_999_999_999_999.0,
        999_999_999_999_999.9,
        two_53,
        -two_53,
        two_53 - 1.0,
        two_53 + 2.0,
        1e300,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        f64::EPSILON,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    for k in 0..64 {
        let p = 2f64.powi(k);
        floats.extend([p, -p, p - 1.0, p + 1.0, (p / 3.0).trunc()]);
    }
    let mut ten = 1.0f64;
    for _ in 0..20 {
        floats.extend([ten, ten - 1.0, -ten, ten + 1.0]);
        ten *= 10.0;
    }
    for f in floats {
        assert_float_matches(f);
    }
    let mut ints = vec![
        0,
        1,
        -1,
        9,
        10,
        -10,
        99,
        100,
        i64::MAX,
        i64::MIN,
        i64::MIN + 1,
    ];
    let mut ten = 1i64;
    for _ in 0..18 {
        ints.extend([ten, ten - 1, -ten, -(ten - 1)]);
        ten *= 10;
    }
    for i in ints {
        assert_eq!(ev_json::to_string(&Value::Int(i)), oracle::int(i), "{i}");
    }
}

#[test]
fn json_strings_match_oracle() {
    let mut strings: Vec<String> = (0u32..0x20)
        .map(|c| char::from_u32(c).unwrap().to_string())
        .collect();
    strings.extend(
        [
            "",
            "plain",
            "\"quoted\"",
            "back\\slash\\",
            "\\\"",
            "tab\there\nnewline\r\u{8}\u{c}",
            "größe_berechnen",
            "計算 main",
            "emoji 🔥 after",
            "\u{7f}\u{80}\u{9f}\u{a0}\u{2028}\u{2029}\u{feff}",
            "mixed \u{1}é\"\\中\u{1f}z",
        ]
        .map(str::to_owned),
    );
    let every_control: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
    strings.push(every_control.clone() + "x" + &every_control);
    for s in &strings {
        assert_eq!(
            ev_json::to_string(&Value::from(s.as_str())),
            oracle::string(s),
            "{s:?}"
        );
        // Object keys go through the same writer.
        let object = Value::object([(s.as_str(), Value::Int(1))]);
        assert_eq!(
            ev_json::to_string(&object),
            format!("{{{}:1}}", oracle::string(s)),
            "key {s:?}"
        );
    }
}

property! {
    #![cases(512)]

    fn json_floats_match_oracle(bits in any_u64(), whole in any_i64()) {
        assert_float_matches(f64::from_bits(bits));
        // Whole numbers of every magnitude, most of them below 1e15.
        assert_float_matches(whole as f64);
        assert_float_matches((whole >> 14) as f64);
        assert_float_matches((whole >> 40) as f64);
        prop_assert_eq!(ev_json::to_string(&Value::Int(whole)), oracle::int(whole));
    }

    fn json_strings_match_oracle_on_random_text(
        s in string_from("ab \"\\/\u{1}\n\t\u{1f}\u{7f}é中🔥", 0..40),
    ) {
        prop_assert_eq!(ev_json::to_string(&Value::from(s.as_str())), oracle::string(&s));
    }
}
