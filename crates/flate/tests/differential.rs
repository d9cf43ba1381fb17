//! Differential tests: the fast LUT `inflate` against the retained
//! bit-at-a-time `inflate_reference` through the public API. The two
//! must agree on output bytes *and* on which error is returned for
//! every stream — compressed at every level, truncated, corrupted, or
//! plain random bytes.

use ev_flate::{
    crc32, crc32_reference, deflate_compress, gzip_compress, gzip_decompress, inflate,
    inflate_member, inflate_reference, inflate_reference_member, CompressionLevel, FlateError,
};
use ev_test::prelude::*;

const LEVELS: [CompressionLevel; 3] = [
    CompressionLevel::Store,
    CompressionLevel::Fast,
    CompressionLevel::High,
];

/// Both decoders over one input; results (bytes and errors) must match.
fn both(input: &[u8]) -> Result<Vec<u8>, FlateError> {
    let fast = inflate(input);
    let reference = inflate_reference(input);
    assert_eq!(fast, reference, "decoder disagreement on {} bytes", input.len());
    // The member-streaming entry points must agree on output, error,
    // *and* the consumed-byte count (the member boundary).
    let fast_member = inflate_member(input, 0);
    let ref_member = inflate_reference_member(input);
    assert_eq!(fast_member, ref_member, "member decoders disagree");
    match (&fast, &fast_member) {
        (Ok(bytes), Ok((member_bytes, consumed))) => {
            assert_eq!(bytes, member_bytes);
            assert!(*consumed <= input.len());
        }
        (Err(e1), Err(e2)) => assert_eq!(e1, e2),
        _ => panic!("inflate and inflate_member disagree on success"),
    }
    fast
}

#[test]
fn roundtrip_all_levels() {
    let data: Vec<u8> = (0..50_000u32)
        .flat_map(|i| format!("sample_{} ", i % 313).into_bytes())
        .collect();
    for level in LEVELS {
        let compressed = deflate_compress(&data, level);
        assert_eq!(both(&compressed).unwrap(), data, "{level:?}");
    }
}

#[test]
fn every_truncation_of_a_small_stream_agrees() {
    let data = b"abcabcabcabc swiftly compressed".repeat(4);
    for level in LEVELS {
        let compressed = deflate_compress(&data, level);
        for cut in 0..compressed.len() {
            let _ = both(&compressed[..cut]);
        }
    }
}

#[test]
fn single_byte_corruptions_agree() {
    let data = b"the quick brown fox jumps over the lazy dog ".repeat(8);
    for level in LEVELS {
        let compressed = deflate_compress(&data, level);
        // Flip each byte of the header region and a sample of the body.
        for i in (0..compressed.len()).step_by(7).chain(0..16.min(compressed.len())) {
            let mut bad = compressed.clone();
            bad[i] ^= 0xff;
            let _ = both(&bad);
        }
    }
}

#[test]
fn size_hint_never_changes_output() {
    let data = b"hint independence ".repeat(100);
    let compressed = deflate_compress(&data, CompressionLevel::High);
    for hint in [0, 1, data.len(), data.len() * 10, usize::MAX] {
        assert_eq!(
            inflate_member(&compressed, hint).unwrap(),
            (data.clone(), compressed.len()),
            "hint {hint}"
        );
    }
}

#[test]
fn member_boundary_is_exact_with_trailing_bytes() {
    // Appending arbitrary bytes after a complete DEFLATE stream must
    // change neither the output nor the reported consumed length.
    let data = b"boundary test payload ".repeat(20);
    for level in LEVELS {
        let compressed = deflate_compress(&data, level);
        let (out, consumed) = inflate_member(&compressed, data.len()).unwrap();
        assert_eq!(out, data);
        assert_eq!(consumed, compressed.len(), "{level:?}");
        let mut extended = compressed.clone();
        extended.extend_from_slice(b"\x1f\x8b\x08 trailing member-ish bytes");
        let (out2, consumed2) = inflate_member(&extended, data.len()).unwrap();
        assert_eq!(out2, data);
        assert_eq!(consumed2, compressed.len(), "{level:?} with tail");
    }
}

#[test]
fn crc32_rfc1952_check_vector() {
    // RFC 1952 CRC-32 over "123456789" — the catalogue check value.
    assert_eq!(crc32(b"123456789"), 0xcbf43926);
    assert_eq!(crc32_reference(b"123456789"), 0xcbf43926);
}

property! {
    #![cases(64)]

    // The slice-by-8 CRC kernel against the byte-wise reference over
    // random lengths and alignments (offset slicing shifts the 8-byte
    // chunk window across every phase).
    fn crc_kernels_agree(data in vec(any_u8(), 0..2048), offset in 0usize..8) {
        let sub = &data[offset.min(data.len())..];
        prop_assert_eq!(crc32(sub), crc32_reference(sub));
    }

    // N random members concatenated decode to the same bytes as the
    // members decompressed individually.
    fn multi_member_matches_individual(
        parts in vec(vec(any_u8(), 0..512), 1..6),
        pick in 0usize..3,
    ) {
        let mut concatenated = Vec::new();
        let mut expected = Vec::new();
        for part in &parts {
            let gz = gzip_compress(part, LEVELS[pick]);
            prop_assert_eq!(gzip_decompress(&gz).unwrap(), part.clone());
            concatenated.extend_from_slice(&gz);
            expected.extend_from_slice(part);
        }
        prop_assert_eq!(gzip_decompress(&concatenated).unwrap(), expected);
    }

    // Mixed-content payloads across all three block types.
    fn differential_roundtrip(data in vec(any_u8(), 0..4096), pick in 0usize..3) {
        let compressed = deflate_compress(&data, LEVELS[pick]);
        prop_assert_eq!(both(&compressed).unwrap(), data);
    }

    // Compressible payloads (repeated runs) hit the LZ77 match copy
    // paths hard, including overlapping distances.
    fn differential_repetitive(unit in vec(any_u8(), 1..12), reps in 1usize..600, pick in 0usize..3) {
        let data: Vec<u8> = unit.iter().copied().cycle().take(unit.len() * reps).collect();
        let compressed = deflate_compress(&data, LEVELS[pick]);
        prop_assert_eq!(both(&compressed).unwrap(), data);
    }

    // Random truncation points on valid streams.
    fn differential_truncated(data in vec(any_u8(), 0..2048), cut_frac in 0u32..1000, pick in 0usize..3) {
        let compressed = deflate_compress(&data, LEVELS[pick]);
        let cut = (compressed.len() as u64 * u64::from(cut_frac) / 1000) as usize;
        let _ = both(&compressed[..cut]);
    }

    // Pure noise: both decoders must reject (or accept) identically and
    // never panic.
    fn differential_random_garbage(data in vec(any_u8(), 0..512)) {
        let _ = both(&data);
    }

    // Noise with a plausible block header prepended, to get past the
    // first 3 bits more often and into table parsing.
    fn differential_garbage_dynamic_header(data in vec(any_u8(), 0..256)) {
        let mut stream = vec![0b0000_0101u8]; // BFINAL=1, BTYPE=10 (dynamic)
        stream.extend_from_slice(&data);
        let _ = both(&stream);
    }
}
