//! Sequential-vs-parallel equivalence: every parallel analysis path
//! must produce output **bit-identical** to `threads = 1` (the
//! determinism contract of `ev-par`). Random profiles are run at 1, 2,
//! 4, and 8 threads and compared through the serialized EasyView native
//! format, so any divergence — values, tree shape, string-table order,
//! node numbering — fails the test. The same comparison pins
//! multi-member gzip ingest to the single-member conversion.

use ev_analysis::{aggregate_with, ExecPolicy};
use ev_core::Profile;
use ev_gen::synthetic::SyntheticSpec;
use ev_test::prelude::*;
use ev_test::profiles::arb_profile_batch;

const THREADS: [usize; 3] = [2, 4, 8];

fn easyview_bytes(p: &Profile) -> Vec<u8> {
    ev_core::format::to_bytes(p)
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
    // must convert bit-identically to the same body in one member.
    fn multi_member_ingest_matches_single_member(
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
        let from_single = ev_formats::pprof::parse(&single).unwrap();
        let from_multi = ev_formats::pprof::parse(&multi).unwrap();
        prop_assert_eq!(easyview_bytes(&from_multi), easyview_bytes(&from_single));
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
