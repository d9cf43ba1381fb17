//! Chunk-boundary differential conformance suite for the streaming
//! pprof decoder.
//!
//! `pprof::parse_streaming_with` re-derives the buffered one-pass
//! decode from a bounded-memory inflate→walk pipeline, so its contract
//! is **identical profiles and identical errors** to
//! `pprof::parse_with` at *any* chunk size — including 1 byte, where
//! every wire field straddles a refill — and any thread count (the
//! `ExecPolicy` reaches the pipelined per-chunk CRC). Fixtures cover
//! valid, truncated, and bit-flipped payloads, raw and gzip'd, so both
//! the wire-error and the container-error precedence paths are
//! differentially pinned.

mod common;

use common::{
    synth_deep_stacks, synth_degenerate, synth_multi_batch, synth_multi_type, synth_pprof,
    LateFlaw, MULTI_BATCH_STEPS,
};
use ev_flate::{gzip_compress, CompressionLevel, ExecPolicy};
use ev_formats::pprof;
use ev_test::prelude::*;
use ev_test::Rng;

const THREAD_COUNTS: [usize; 2] = [1, 8];

/// Asserts the streaming decoder matches the buffered one on `data`
/// at `chunk_size`, across thread counts. The buffered result is the
/// sequential reference; `ev-par` determinism makes any-thread
/// streaming comparable against it directly.
fn assert_stream_matches(data: &[u8], chunk_size: usize) {
    let buffered = pprof::parse(data);
    for &threads in &THREAD_COUNTS {
        let policy = ExecPolicy::with_threads(threads);
        let streamed = pprof::parse_streaming_with(data, policy, chunk_size);
        assert_eq!(
            streamed, buffered,
            "chunk={chunk_size} threads={threads} len={}",
            data.len()
        );
    }
}

/// Draws a chunk size biased toward the interesting small end.
fn chunk_from(raw: u64) -> usize {
    match raw % 4 {
        0 => 1,
        1 => 1 + (raw / 4) as usize % 7,
        2 => 1 + (raw / 4) as usize % 300,
        _ => 1 + (raw / 4) as usize % (64 << 10),
    }
}

property! {
    fn streaming_matches_buffered_on_synthetic_profiles(
        data in seeded(1..12, synth_pprof),
        raw_chunk in any_u64(),
    ) {
        assert_stream_matches(&data, chunk_from(raw_chunk));
    }

    fn streaming_matches_buffered_on_deep_stacks(
        data in seeded(1..8, synth_deep_stacks),
        raw_chunk in any_u64(),
    ) {
        // Heavy path-prefix sharing: the replay pass must feed the
        // fixup the exact id chains the buffered replay decodes from
        // its deferred payload slices.
        assert_stream_matches(&data, chunk_from(raw_chunk));
    }

    fn streaming_matches_buffered_on_multi_sample_type(
        data in seeded(1..6, synth_multi_type),
        raw_chunk in any_u64(),
    ) {
        assert_stream_matches(&data, chunk_from(raw_chunk));
    }

    fn streaming_matches_buffered_on_degenerate_tables(
        data in seeded(1..4, synth_degenerate),
        raw_chunk in any_u64(),
    ) {
        assert_stream_matches(&data, chunk_from(raw_chunk));
    }

    fn streaming_matches_buffered_on_truncations(
        data in seeded(1..6, synth_pprof),
        cut in any_u64(),
        raw_chunk in any_u64(),
    ) {
        // Truncating a gzip'd fixture yields container errors,
        // truncating a raw one yields wire errors; both must surface
        // the identical FormatError value the buffered path reports.
        let cut = (cut as usize) % (data.len() + 1);
        assert_stream_matches(&data[..cut], chunk_from(raw_chunk));
    }

    fn streaming_matches_buffered_on_bitflips(
        data in seeded(1..6, synth_pprof),
        pos in any_u64(),
        bit in any_u64(),
        raw_chunk in any_u64(),
    ) {
        let mut data = data.clone();
        if !data.is_empty() {
            let n = data.len();
            data[(pos as usize) % n] ^= 1 << (bit % 8);
        }
        assert_stream_matches(&data, chunk_from(raw_chunk));
    }

    fn streaming_matches_buffered_on_arbitrary_bytes(
        data in vec(any_u8(), 0..512),
        raw_chunk in any_u64(),
    ) {
        assert_stream_matches(&data, chunk_from(raw_chunk));
    }
}

#[test]
fn one_byte_chunks_match_buffered_exhaustively() {
    // The pathological floor: every refill adds a single byte, so
    // every varint, tag, and length prefix straddles chunk boundaries.
    let mut rng = Rng::new(0x57e4);
    for size in 1..6 {
        let raw = synth_pprof(&mut rng, size);
        assert_stream_matches(&raw, 1);
        let gz = gzip_compress(&raw, CompressionLevel::High);
        assert_stream_matches(&gz, 1);
    }
}

#[test]
fn gzip_error_precedence_over_wire_error() {
    // A fixture whose body is wire-invalid *and* whose container is
    // corrupted downstream of the wire error: the buffered path
    // decompresses first and reports the container error, so the
    // streaming path must drain past the wire error and report the
    // same. A multi-member file puts the corruption in a member the
    // walk has not yet pulled when the wire error surfaces.
    let mut rng = Rng::new(0xfade);
    let good = synth_deep_stacks(&mut rng, 3);
    let mut first = gzip_compress(&good, CompressionLevel::Fast);
    let bad_wire = vec![0xffu8; 64]; // invalid tags mid-body
    let mut second = gzip_compress(&bad_wire, CompressionLevel::Fast);
    let n = second.len();
    second[n - 6] ^= 0x01; // corrupt the second member's CRC trailer
    first.extend_from_slice(&second);
    let buffered = pprof::parse(&first);
    assert!(buffered.is_err(), "fixture must not parse");
    for chunk in [1usize, 37, 4096, 1 << 22] {
        for &threads in &THREAD_COUNTS {
            let streamed =
                pprof::parse_streaming_with(&first, ExecPolicy::with_threads(threads), chunk);
            assert_eq!(streamed, buffered, "chunk={chunk} threads={threads}");
        }
    }
}

#[test]
fn every_prefix_of_a_small_profile_matches() {
    let mut rng = Rng::new(0x5eed);
    let data = synth_pprof(&mut rng, 4);
    for cut in 0..=data.len() {
        assert_stream_matches(&data[..cut], 3);
    }
}

#[test]
fn streaming_matches_reference_across_replay_batches() {
    // The streaming replay feeds the same bounded batches as the
    // buffered one, from a chunk pipeline: across batches, at any chunk
    // size and thread count, it yields the reference's profile or its
    // error, including for a flaw in a later batch.
    let mut rng = Rng::new(0x5ba7);
    for flaw in [
        LateFlaw::None,
        LateFlaw::DanglingLocation,
        LateFlaw::TruncatedPayload,
    ] {
        let (raw, steps) = synth_multi_batch(&mut rng, flaw);
        assert!(steps >= MULTI_BATCH_STEPS, "{steps} frame steps");
        let reference = pprof::parse_reference(&raw);
        assert_eq!(reference.is_ok(), flaw == LateFlaw::None, "{flaw:?}");
        // Gzip'd, so the inflate stage streams too.
        let gz = gzip_compress(&raw, CompressionLevel::Fast);
        for chunk in [1usize, 13, 4096, 1 << 24] {
            for threads in [1usize, 4] {
                let policy = ExecPolicy::with_threads(threads);
                let streamed = pprof::parse_streaming_with(&gz, policy, chunk);
                assert_eq!(
                    streamed, reference,
                    "{flaw:?} chunk={chunk} threads={threads}"
                );
            }
        }
    }
}
