//! Golden tests for RFC 1952 multi-member gzip ingest.
//!
//! `tests/fixtures/multi_member.pb.gz` is the grpc_leak pprof body
//! split into three gzip members — the middle one carrying FNAME, the
//! last FEXTRA — concatenated back to back, which is exactly what Go's
//! pprof writer or a `cat a.gz b.gz c.gz` pipeline produces. The
//! member-streaming decoder must reassemble it byte-identically to the
//! single-member fixture.
//!
//! Regenerate (after an intentional generator change) with:
//!
//! ```text
//! cargo test -p ev-bench --test multi_member_gzip -- --ignored regenerate
//! ```

use ev_flate::{crc32, deflate_compress, gzip_decompress, CompressionLevel};
use std::path::PathBuf;

const FIXTURE: &str = "multi_member.pb.gz";
const SOURCE_FIXTURE: &str = "grpc_leak.pb.gz";
/// Pinned CRC32 of the reassembled pprof body — identical to the
/// single-member source fixture's pinned digest by construction.
const PINNED_DIGEST: u32 = 0x4889_efab;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

/// Builds one gzip member with explicit header flags and field bytes.
fn member(data: &[u8], flags: u8, fields: &[u8]) -> Vec<u8> {
    let mut gz = vec![0x1f, 0x8b, 8, flags, 0, 0, 0, 0, 0, 255];
    gz.extend_from_slice(fields);
    gz.extend_from_slice(&deflate_compress(data, CompressionLevel::High));
    gz.extend_from_slice(&crc32(data).to_le_bytes());
    gz.extend_from_slice(&(data.len() as u32).to_le_bytes());
    gz
}

fn build_fixture() -> (Vec<u8>, Vec<u8>) {
    let single = std::fs::read(fixture_dir().join(SOURCE_FIXTURE)).expect("source fixture");
    let raw = gzip_decompress(&single).expect("source decompresses");
    let (a, b) = (raw.len() / 3, 2 * raw.len() / 3);
    let mut multi = member(&raw[..a], 0, &[]);
    multi.extend_from_slice(&member(&raw[a..b], 1 << 3 /* FNAME */, b"part2.pb\0"));
    let mut extra = Vec::new();
    extra.extend_from_slice(&6u16.to_le_bytes()); // XLEN
    extra.extend_from_slice(b"EV\x02\x00ok"); // subfield id + len + data
    multi.extend_from_slice(&member(&raw[b..], 1 << 2 /* FEXTRA */, &extra));
    (multi, raw)
}

#[test]
#[ignore = "writes tests/fixtures/multi_member.pb.gz"]
fn regenerate() {
    let (multi, raw) = build_fixture();
    std::fs::write(fixture_dir().join(FIXTURE), &multi).unwrap();
    println!(
        "{FIXTURE}: {} bytes, 3 members, body digest {:#010x}",
        multi.len(),
        crc32(&raw)
    );
}

#[test]
fn fixture_matches_generator() {
    let (expected, _) = build_fixture();
    let on_disk = std::fs::read(fixture_dir().join(FIXTURE)).expect("fixture checked in");
    assert_eq!(on_disk, expected, "fixture drifted; regenerate deliberately");
}

#[test]
fn decompresses_to_pinned_digest() {
    let multi = std::fs::read(fixture_dir().join(FIXTURE)).expect("fixture");
    let body = gzip_decompress(&multi).expect("multi-member decompresses");
    assert_eq!(crc32(&body), PINNED_DIGEST, "reassembled body digest drifted");
}

#[test]
fn converts_identically_to_the_single_member_source() {
    let multi = std::fs::read(fixture_dir().join(FIXTURE)).expect("fixture");
    let single = std::fs::read(fixture_dir().join(SOURCE_FIXTURE)).expect("source");
    // Same decompressed body ⇒ the converted profiles are identical.
    let from_single = ev_formats::pprof::parse(&single).unwrap();
    let from_multi = ev_formats::pprof::parse(&multi).unwrap();
    assert_eq!(from_multi, from_single);
    assert_eq!(
        ev_core::format::to_bytes(&from_multi),
        ev_core::format::to_bytes(&from_single)
    );
}

#[test]
fn negatives_truncation_and_garbage() {
    let multi = std::fs::read(fixture_dir().join(FIXTURE)).expect("fixture");
    // Truncating inside the second or third member must error, never
    // return a partial first-member result.
    let (_, raw) = build_fixture();
    let first_len = member(&raw[..raw.len() / 3], 0, &[]).len();
    for cut in [first_len + 5, multi.len() - 1] {
        assert!(gzip_decompress(&multi[..cut]).is_err(), "cut at {cut}");
    }
    // Trailing garbage after the final member is a loud error.
    let mut padded = multi.clone();
    padded.extend_from_slice(b"\0\0\0\0junk");
    assert!(matches!(
        gzip_decompress(&padded),
        Err(ev_flate::FlateError::TrailingGarbage { .. })
    ));
}
