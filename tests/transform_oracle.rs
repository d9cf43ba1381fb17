//! Oracle equivalence for the frame-id tree transforms: `bottom_up`,
//! `flatten` and `collapse_recursion` must give exactly what the
//! owned-`Frame` transforms they replaced gave (`ev_bench::oracle`).
//! Trees are compared with `Profile` equality, which covers node ids,
//! frames, values bit for bit and string-table order, and as EVPF
//! bytes; each view transform's source map must equal the oracle's
//! representatives.

use ev_bench::oracle;
use ev_core::{
    format, ContextKind, Frame, MetricDescriptor, MetricId, MetricKind, MetricUnit, NodeId, Profile,
};
use ev_gen::synthetic::SyntheticSpec;
use ev_test::prelude::*;
use ev_test::Rng;
use std::path::PathBuf;

/// Frames with and without code mapping: `parse` in two modules and
/// files, `fib` at two lines of one file (collapse and flat merge
/// them, bottom-up keeps them apart), a loop, a heap object, frames
/// with a module but no file or a file but no line, and unsymbolized
/// addresses.
const FRAMES: [(ContextKind, &str, &str, &str, u32, u64); 14] = [
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
        "fib",
        "app",
        "src/fib.c",
        3,
        0x40_3000,
    ),
    (
        ContextKind::Function,
        "fib",
        "app",
        "src/fib.c",
        9,
        0x40_3040,
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
        "alloc",
        "libc.so.6",
        "",
        0,
        0x7f20_0010,
    ),
    (
        ContextKind::Function,
        "emit",
        "app",
        "src/emit.c",
        0,
        0x40_5000,
    ),
    (ContextKind::Function, "", "", "", 0, 0x7f30_0000),
    (ContextKind::Function, "0x7f300040", "", "", 0, 0x7f30_0040),
    (ContextKind::HeapObject, "buffer[]", "", "", 0, 0),
    (
        ContextKind::Function,
        "(unknown module)",
        "",
        "src/odd.c",
        1,
        0,
    ),
    (
        ContextKind::Instruction,
        "fib",
        "app",
        "src/fib.c",
        3,
        0x40_3004,
    ),
];

/// Values that test a rule: zeros of both signs, NaN, negative and
/// fractional values, and magnitudes far apart.
const VALUES: [f64; 12] = [
    0.0,
    -0.0,
    f64::NAN,
    1.0,
    3.0,
    0.1,
    -2.5,
    1e-9,
    250.0,
    1e15,
    -0.0,
    7.25,
];

fn frame(i: usize) -> Frame {
    let (kind, name, module, file, line, address) = FRAMES[i];
    Frame::new(kind, name)
        .with_module(module)
        .with_source(file, line)
        .with_address(address)
}

fn value(rng: &mut Rng) -> f64 {
    if rng.gen_bool(0.3) {
        rng.gen_range(-50.0..50.0)
    } else {
        VALUES[rng.gen_range(0..VALUES.len())]
    }
}

/// A random call path: a short mix of frames, or a recursive descent
/// that repeats one frame (or one pair of frames) at many depths.
fn path(rng: &mut Rng) -> Vec<usize> {
    let pick = |rng: &mut Rng| rng.gen_range(0..FRAMES.len());
    match rng.gen_range(0..4u32) {
        0 => {
            let (a, b) = (pick(rng), pick(rng));
            let mut path = vec![pick(rng)];
            for k in 0..rng.gen_range(2..40usize) {
                path.push(if k % 3 == 2 { b } else { a });
            }
            path.push(pick(rng));
            path
        }
        _ => (0..rng.gen_range(1..8usize)).map(|_| pick(rng)).collect(),
    }
}

/// A profile with three metrics over random paths: `cpu` (exclusive,
/// whole and fractional), `inc` (inclusive, with values on interior
/// nodes too) and `frac` (exclusive, signed, NaN and zeros).
fn arb_profile(rng: &mut Rng, size: usize) -> Profile {
    let mut p = Profile::new("arb");
    p.meta_mut().profiler = "ev-test".to_owned();
    let cpu = p.add_metric(MetricDescriptor::new(
        "cpu",
        MetricUnit::Nanoseconds,
        MetricKind::Exclusive,
    ));
    let inc = p.add_metric(MetricDescriptor::new(
        "inc",
        MetricUnit::Count,
        MetricKind::Inclusive,
    ));
    let frac = p.add_metric(MetricDescriptor::new(
        "frac",
        MetricUnit::Count,
        MetricKind::Exclusive,
    ));
    for _ in 0..size {
        let frames: Vec<Frame> = path(rng).into_iter().map(frame).collect();
        let leaf = p.add_sample(&frames, &[]);
        for m in [cpu, inc, frac] {
            if rng.gen_bool(0.8) {
                let v = if m == cpu {
                    value(rng).abs()
                } else {
                    value(rng)
                };
                p.add_value(leaf, m, v);
            }
        }
        if rng.gen_bool(0.3) {
            let parent = p.node(leaf).parent().unwrap_or(NodeId::ROOT);
            let m = [cpu, inc, frac][rng.gen_range(0..3usize)];
            p.add_value(parent, m, value(rng));
        }
    }
    p
}

fn assert_views_match(p: &Profile, what: &str) {
    type Transform = fn(&Profile, MetricId) -> ev_analysis::Transformed;
    let views: [(&str, Transform, Transform); 2] = [
        ("bottom_up", ev_analysis::bottom_up, oracle::bottom_up),
        ("flatten", ev_analysis::flatten, oracle::flatten),
    ];
    for i in 0..p.metrics().len() {
        let metric = MetricId::from_index(i);
        for (name, new, old) in views {
            let (new, old) = (new(p, metric), old(p, metric));
            let what = format!("{what} {name} metric {i}");
            assert!(new.profile == old.profile, "{what}: trees differ");
            assert_eq!(
                format::to_bytes(&new.profile),
                format::to_bytes(&old.profile),
                "{what}: EVPF bytes"
            );
            assert_eq!(new.sources, old.sources, "{what}: source maps");
            new.profile.validate().unwrap();
        }
    }
}

fn assert_collapse_matches(p: &Profile, what: &str) {
    let (new, old) = (
        ev_analysis::collapse_recursion(p),
        oracle::collapse_recursion(p),
    );
    assert!(new == old, "{what}: collapsed trees differ");
    assert_eq!(
        format::to_bytes(&new),
        format::to_bytes(&old),
        "{what}: EVPF bytes"
    );
    new.validate().unwrap();
}

fn assert_all_match(p: &Profile, what: &str) {
    assert_views_match(p, what);
    assert_collapse_matches(p, what);
}

/// The profile as written to and read back from EVPF bytes: no build
/// indexes, and a frame table in node order.
fn evpf_decoded(p: &Profile) -> Profile {
    format::from_bytes(&format::to_bytes(p)).expect("EVPF round trip")
}

property! {
    #![cases(96)]

    fn transforms_match_oracle_on_generated_profiles(p in seeded(0..48, arb_profile)) {
        assert_all_match(&p, "built");
        assert_all_match(&evpf_decoded(&p), "EVPF-decoded");
    }
}

#[test]
fn transforms_match_oracle_on_synthetic_profiles() {
    for (seed, samples, functions) in [(3, 4_000, 300), (11, 12_000, 2_000)] {
        let p = SyntheticSpec {
            seed,
            samples,
            functions,
            ..SyntheticSpec::default()
        }
        .build();
        assert_all_match(&p, &format!("synthetic seed {seed}"));
    }
}

#[test]
fn transforms_match_oracle_on_lulesh_and_fixtures() {
    let lulesh = ev_gen::lulesh::cpu_profile(3);
    assert_all_match(&lulesh, "lulesh");
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    for file in [
        "synthetic_cpu.pb.gz",
        "grpc_leak.pb.gz",
        "multi_member.pb.gz",
    ] {
        let bytes = std::fs::read(fixtures.join(file)).expect("fixture exists");
        let p = ev_formats::pprof::parse(&bytes).expect("fixture decodes");
        assert_all_match(&p, file);
    }
}

#[test]
fn deep_recursion_collapses_like_the_oracle() {
    // One function at 2,000 depths (two lines, alternating) under two
    // callers, with values on every twentieth level.
    let mut p = Profile::new("deep");
    let m = p.add_metric(MetricDescriptor::new(
        "cpu",
        MetricUnit::Count,
        MetricKind::Exclusive,
    ));
    for caller in [0, 1] {
        let mut node = p.child(NodeId::ROOT, &frame(caller));
        for depth in 0..2_000 {
            node = p.child(node, &frame(3 + depth % 2));
            if depth % 20 == 0 {
                p.add_value(node, m, depth as f64 * 0.5);
            }
        }
        let leaf = p.child(node, &frame(5));
        p.add_value(leaf, m, 1.0);
    }
    assert_all_match(&p, "deep");
    // The root, then caller → fib → leaf under each caller.
    assert_eq!(ev_analysis::collapse_recursion(&p).node_count(), 7);
}
