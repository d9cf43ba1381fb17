//! Differential decode-conformance suite for the pprof decoders.
//!
//! The one-pass decoder (`pprof::parse`) is only
//! shippable because the two-pass reference decoder
//! (`pprof::parse_reference`) is retained and these properties prove
//! the two produce **identical profiles and identical errors** on any
//! input — the `inflate_reference`/`crc32_reference` pattern applied to
//! wire decode.
//!
//! Payload fabricators live in `common/mod.rs`, shared with the
//! streaming chunk-boundary suite (`pprof_streaming.rs`).

mod common;

use common::{
    synth_deep_stacks, synth_degenerate, synth_multi_batch, synth_multi_type, synth_pprof,
    LateFlaw, MULTI_BATCH_STEPS,
};
use ev_core::Profile;
use ev_flate::{CompressionLevel, ExecPolicy};
use ev_formats::{pprof, FormatError};
use ev_test::prelude::*;
use ev_test::Rng;

/// Runs both decoders and returns their results.
fn decode_both(data: &[u8]) -> (Result<Profile, FormatError>, Result<Profile, FormatError>) {
    (pprof::parse(data), pprof::parse_reference(data))
}

property! {
    fn decoders_agree_on_synthetic_profiles(data in seeded(1..12, synth_pprof)) {
        let (one, reference) = decode_both(&data);
        prop_assert_eq!(one, reference);
    }

    fn decoders_agree_on_deep_stacks(data in seeded(1..8, synth_deep_stacks)) {
        let (one, reference) = decode_both(&data);
        prop_assert_eq!(one, reference);
    }

    fn decoders_agree_on_multi_sample_type(data in seeded(1..6, synth_multi_type)) {
        let (one, reference) = decode_both(&data);
        prop_assert_eq!(one, reference);
    }

    fn decoders_agree_on_degenerate_tables(data in seeded(1..4, synth_degenerate)) {
        let (one, reference) = decode_both(&data);
        prop_assert_eq!(one, reference);
    }

    fn decoders_agree_on_truncations(data in seeded(1..6, synth_pprof), cut in any_u64()) {
        // Any prefix of a valid payload must fail (or succeed)
        // identically in both decoders.
        let cut = (cut as usize) % (data.len() + 1);
        let (one, reference) = decode_both(&data[..cut]);
        prop_assert_eq!(one, reference);
    }

    fn decoders_agree_on_bitflips(
        data in seeded(1..6, synth_pprof),
        pos in any_u64(),
        bit in any_u64(),
    ) {
        let mut data = data.clone();
        if !data.is_empty() {
            let n = data.len();
            data[(pos as usize) % n] ^= 1 << (bit % 8);
        }
        let (one, reference) = decode_both(&data);
        prop_assert_eq!(one, reference);
    }

    fn decoders_agree_on_arbitrary_bytes(data in vec(any_u8(), 0..512)) {
        let (one, reference) = decode_both(&data);
        prop_assert_eq!(one, reference);
    }
}

#[test]
fn decoders_agree_on_every_prefix_of_a_small_profile() {
    // Exhaustive truncation sweep of one representative payload:
    // every cut must yield identical results (usually identical
    // errors) from both decoders.
    let mut rng = Rng::new(0x5eed);
    let data = synth_pprof(&mut rng, 4);
    for cut in 0..=data.len() {
        let (one, reference) = decode_both(&data[..cut]);
        assert_eq!(one, reference, "prefix of {cut}/{} bytes", data.len());
    }
}

#[test]
fn roundtrip_through_writer_agrees() {
    // A profile written by our own writer decodes identically through
    // both decoders and survives a write→parse→write fixpoint.
    let mut rng = Rng::new(42);
    for size in 1..8 {
        let data = synth_deep_stacks(&mut rng, size);
        let (one, reference) = decode_both(&data);
        let profile = one.expect("writer output must parse");
        assert_eq!(Ok(&profile), reference.as_ref());
        let rewritten = pprof::write(
            &profile,
            pprof::WriteOptions {
                gzip: false,
                level: CompressionLevel::Store,
            },
        );
        let (one2, reference2) = decode_both(&rewritten);
        assert_eq!(one2, reference2);
        assert!(one2.is_ok());
    }
}

#[test]
fn decoders_agree_across_replay_batches() {
    // The one-pass replay inserts samples into the CCT in bounded
    // batches. Profiles spanning several batches, clean or with a flaw
    // in a later batch, decode exactly as the reference's per-step
    // inserts do: the same profile or the same error.
    let mut rng = Rng::new(0xba7c);
    for flaw in [
        LateFlaw::None,
        LateFlaw::DanglingLocation,
        LateFlaw::TruncatedPayload,
    ] {
        let (data, steps) = synth_multi_batch(&mut rng, flaw);
        assert!(steps >= MULTI_BATCH_STEPS, "{steps} frame steps");
        let batches = ev_trace::counter_value("core.cct_batches");
        let (one, reference) = decode_both(&data);
        assert_eq!(one.is_ok(), flaw == LateFlaw::None, "{flaw:?}");
        if flaw == LateFlaw::None {
            assert!(ev_trace::counter_value("core.cct_batches") - batches >= 3);
        }
        assert_eq!(one, reference, "{flaw:?}");
    }
}

#[test]
fn wide_and_deep_batches_agree() {
    // 150,000 root children fill the first batch; two 150,000-deep
    // samples, the second sharing half of the first's path, fall in the
    // next two. Per-depth work in the batch insert follows the samples
    // still going at that depth, so the deep levels cost what the deep
    // samples do, not what the wide first level did.
    let wide = 150_000u64;
    let deep = 150_000usize;
    let mut w = ev_wire::Writer::new();
    w.write_message_with(1, |m| {
        m.write_int64(1, 1);
        m.write_int64(2, 2);
    });
    for id in 1..=wide {
        // Unsymbolized: each location is its own frame.
        common::write_location(&mut w, id, 0, id << 4, &[]);
    }
    for id in 1..=wide {
        common::write_sample(&mut w, &[id], &[1], true);
    }
    let first: Vec<u64> = (0..deep).map(|i| 1 + (i % 5) as u64).collect();
    let mut second = first[..deep / 2].to_vec();
    second.extend((deep / 2..deep).map(|i| 6 + (i % 3) as u64));
    for path in [&first, &second] {
        let leaf_first: Vec<u64> = path.iter().rev().copied().collect();
        common::write_sample(&mut w, &leaf_first, &[7], true);
    }
    for s in ["", "cpu", "nanoseconds"] {
        w.write_string(6, s);
    }
    let data = w.into_bytes();
    let reference = pprof::parse_reference(&data).expect("reference decode");
    assert_eq!(
        reference.node_count(),
        1 + wide as usize + deep - 1 + deep / 2
    );
    let batches = ev_trace::counter_value("core.cct_batches");
    assert_eq!(pprof::parse(&data).as_ref(), Ok(&reference));
    assert!(ev_trace::counter_value("core.cct_batches") - batches >= 3);
    let streamed = pprof::parse_streaming_with(&data, ExecPolicy::with_threads(2), 1 << 16);
    assert_eq!(streamed.as_ref(), Ok(&reference));
}
