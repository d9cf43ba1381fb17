//! Sequential-vs-parallel equivalence: every parallel analysis path
//! must produce output **bit-identical** to `threads = 1` (the
//! determinism contract of `ev-par`). Random profiles are run at 1, 2,
//! 4, and 8 threads and compared through the serialized EasyView native
//! format, so any divergence — values, tree shape, string-table order,
//! node numbering — fails the test.

use ev_analysis::{aggregate_with, ExecPolicy, MetricView};
use ev_core::{MetricKind, Profile};
use ev_flame::FlameGraph;
use ev_gen::synthetic::SyntheticSpec;
use ev_test::prelude::*;
use ev_test::profiles::{arb_profile_batch, profile_from_samples_kind, SampleSpec};
use ev_test::Rng;

const THREADS: [usize; 3] = [2, 4, 8];

fn easyview_bytes(p: &Profile) -> Vec<u8> {
    ev_formats::easyview::write(p)
}

property! {
    #![cases(16)]

    fn aggregate_matches_sequential(batch in arb_profile_batch(2..9, 30, 6)) {
        let refs: Vec<&Profile> = batch.iter().collect();
        let seq = aggregate_with(&refs, "cpu", ExecPolicy::SEQUENTIAL).unwrap();
        let seq_bytes = easyview_bytes(&seq.profile);
        let nodes: Vec<_> = seq.profile.node_ids().collect();
        for &t in &THREADS {
            let par = aggregate_with(&refs, "cpu", ExecPolicy::with_threads(t)).unwrap();
            prop_assert_eq!(&easyview_bytes(&par.profile), &seq_bytes, "threads={}", t);
            for &node in &nodes {
                let (s, p) = (seq.series(node), par.series(node));
                prop_assert_eq!(s.len(), p.len());
                for (a, b) in s.iter().zip(p) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "threads={}", t);
                }
            }
        }
    }

    // Multi-member gzip ingest: a pprof body split into N gzip members
    // must convert bit-identically whether the members are inflated
    // sequentially or fanned out onto the pool.
    fn multi_member_ingest_matches_sequential(
        batch in arb_profile_batch(2..6, 30, 6),
        splits in 2usize..5,
    ) {
        use ev_flate::{crc32, deflate_compress, CompressionLevel};
        let refs: Vec<&Profile> = batch.iter().collect();
        let agg = aggregate_with(&refs, "cpu", ExecPolicy::SEQUENTIAL).unwrap();
        let single = ev_formats::pprof::write(&agg.profile, Default::default());
        let raw = ev_flate::gzip_decompress(&single).unwrap();
        // Re-wrap the body as `splits` concatenated members.
        let mut multi = Vec::new();
        for i in 0..splits {
            let part = &raw[raw.len() * i / splits..raw.len() * (i + 1) / splits];
            multi.extend_from_slice(&[0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 255]);
            multi.extend_from_slice(&deflate_compress(part, CompressionLevel::Fast));
            multi.extend_from_slice(&crc32(part).to_le_bytes());
            multi.extend_from_slice(&(part.len() as u32).to_le_bytes());
        }
        let seq = ev_formats::pprof::parse_with(&multi, ExecPolicy::SEQUENTIAL).unwrap();
        let seq_bytes = easyview_bytes(&seq);
        for &t in &THREADS {
            let par = ev_formats::pprof::parse_with(&multi, ExecPolicy::with_threads(t)).unwrap();
            prop_assert_eq!(&easyview_bytes(&par), &seq_bytes, "threads={}", t);
        }
    }
}

/// A profile big enough to cross the parallel-path node threshold in
/// `MetricView` and the flame layout (small trees fall back to the
/// sequential reference, which would make the test vacuous).
fn big_profile() -> Profile {
    let p = SyntheticSpec {
        samples: 30_000,
        seed: 42,
        ..SyntheticSpec::default()
    }
    .build();
    assert!(
        p.node_count() >= 4096,
        "synthetic profile too small to exercise the parallel path: {} nodes",
        p.node_count()
    );
    p
}

/// A large profile whose metric is `Inclusive`-kind, covering the
/// exclusive-derivation and zero-fix parallel passes.
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

fn assert_views_identical(p: &Profile, metric_name: &str) {
    let m = p.metric_by_name(metric_name).unwrap();
    let seq = MetricView::compute_with(p, m, ExecPolicy::SEQUENTIAL);
    for &t in &THREADS {
        let par = MetricView::compute_with(p, m, ExecPolicy::with_threads(t));
        for id in p.node_ids() {
            assert_eq!(
                par.inclusive(id).to_bits(),
                seq.inclusive(id).to_bits(),
                "inclusive({id:?}) threads={t}"
            );
            assert_eq!(
                par.exclusive(id).to_bits(),
                seq.exclusive(id).to_bits(),
                "exclusive({id:?}) threads={t}"
            );
        }
    }
}

#[test]
fn metric_view_parallel_path_matches_exclusive_kind() {
    assert_views_identical(&big_profile(), "cpu");
}

#[test]
fn metric_view_parallel_path_matches_inclusive_kind() {
    assert_views_identical(&big_inclusive_profile(), "cpu");
}

#[test]
fn flame_layouts_parallel_path_matches() {
    let p = big_profile();
    let m = p.metric_by_name("cpu").unwrap();
    type LayoutFn = fn(&Profile, ev_core::MetricId, ExecPolicy) -> FlameGraph;
    let layouts: [(&str, LayoutFn); 3] = [
        ("top_down", FlameGraph::top_down_with),
        ("bottom_up", FlameGraph::bottom_up_with),
        ("flat", FlameGraph::flat_with),
    ];
    for (name, layout) in layouts {
        let seq = layout(&p, m, ExecPolicy::SEQUENTIAL);
        for &t in &THREADS {
            let par = layout(&p, m, ExecPolicy::with_threads(t));
            assert_eq!(par.rects(), seq.rects(), "{name} rects threads={t}");
            assert_eq!(par.elided(), seq.elided(), "{name} elided threads={t}");
            assert_eq!(par.max_depth(), seq.max_depth(), "{name} depth threads={t}");
            assert_eq!(
                par.total().to_bits(),
                seq.total().to_bits(),
                "{name} total threads={t}"
            );
        }
    }
}

#[test]
fn aggregate_large_structure_sharing_batch_matches() {
    // Eight structure-sharing snapshots (same spec, different seeds
    // share the synthetic call-tree skeleton) — the workload shape the
    // paper's aggregation view targets.
    let snapshots: Vec<Profile> = (0..8)
        .map(|k| {
            SyntheticSpec {
                samples: 5_000,
                seed: 100 + k,
                ..SyntheticSpec::default()
            }
            .build()
        })
        .collect();
    let refs: Vec<&Profile> = snapshots.iter().collect();
    let seq = aggregate_with(&refs, "cpu", ExecPolicy::SEQUENTIAL).unwrap();
    let seq_bytes = easyview_bytes(&seq.profile);
    for &t in &THREADS {
        let par = aggregate_with(&refs, "cpu", ExecPolicy::with_threads(t)).unwrap();
        assert_eq!(easyview_bytes(&par.profile), seq_bytes, "threads={t}");
    }
}
