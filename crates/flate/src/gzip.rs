//! The gzip container format (RFC 1952) around DEFLATE streams.
//!
//! RFC 1952 §2.2 explicitly allows a gzip file to be a *sequence* of
//! members — Go's `compress/gzip` (the pprof writer) and `gzip(1)`
//! pipelines (`gzip a; gzip b; cat a.gz b.gz`) both emit such files —
//! so the decoder here is member-streaming: each member's header is
//! parsed, its DEFLATE stream inflated to its own `BFINAL` boundary,
//! its *own* CRC32/ISIZE trailer verified in place, and decoding then
//! resumes at the next member's magic. Independent members are fanned
//! out onto `ev-par` threads by [`gzip_decompress_with`]; the join is
//! order-preserving and bit-identical at any thread count.

use crate::checksum::crc32;
use crate::deflate::{deflate_compress, CompressionLevel};
use crate::inflate::inflate_member;
use crate::FlateError;
use ev_par::ExecPolicy;

pub(crate) const MAGIC: [u8; 2] = [0x1f, 0x8b];
const METHOD_DEFLATE: u8 = 8;

const FTEXT: u8 = 1 << 0;
const FHCRC: u8 = 1 << 1;
const FEXTRA: u8 = 1 << 2;
const FNAME: u8 = 1 << 3;
const FCOMMENT: u8 = 1 << 4;
const RESERVED: u8 = 0xe0;

/// Smallest possible member: 10-byte header, a 2-byte DEFLATE stream
/// (a fixed-Huffman block holding only end-of-block), 8-byte trailer.
/// Used to prune candidate member starts during the parallel split.
const MIN_MEMBER_LEN: usize = 20;

/// Returns `true` if `data` begins with the gzip magic bytes.
///
/// EasyView's format auto-detection (`ev-formats`) uses this to decide
/// whether a profile needs decompression before parsing.
pub fn is_gzip(data: &[u8]) -> bool {
    data.len() >= 2 && data[..2] == MAGIC
}

/// Wraps `data` in a gzip member: header, DEFLATE body, CRC32 + ISIZE
/// trailer. The header carries no name/comment/extra fields and a zero
/// mtime, like Go's `compress/gzip` default used by pprof.
pub fn gzip_compress(data: &[u8], level: CompressionLevel) -> Vec<u8> {
    let _span = ev_trace::span("flate.deflate");
    let body = deflate_compress(data, level);
    if ev_trace::enabled() {
        crate::metrics::in_bytes().add(data.len() as u64);
        crate::metrics::out_bytes().add(body.len() as u64 + 18);
    }
    let mut out = Vec::with_capacity(body.len() + 18);
    out.extend_from_slice(&MAGIC);
    out.push(METHOD_DEFLATE);
    out.push(0); // FLG
    out.extend_from_slice(&[0, 0, 0, 0]); // MTIME
    out.push(0); // XFL
    out.push(255); // OS = unknown
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out
}

/// Parses one member header starting at `start`, returning the offset
/// of the DEFLATE body. Every optional-field length (FEXTRA's XLEN,
/// the FNAME/FCOMMENT NUL scans, the FHCRC skip) is bounds-checked
/// against the buffer: all fields are attacker-controlled, and an
/// oversized XLEN must surface as [`FlateError::UnexpectedEof`], never
/// as a slice panic.
pub(crate) fn parse_header(data: &[u8], start: usize) -> Result<usize, FlateError> {
    let header = data.get(start..).ok_or(FlateError::UnexpectedEof)?;
    if header.len() < 10 {
        return Err(FlateError::UnexpectedEof);
    }
    if header[..2] != MAGIC {
        return Err(FlateError::NotGzip);
    }
    let method = header[2];
    if method != METHOD_DEFLATE {
        return Err(FlateError::UnsupportedMethod(method));
    }
    let flags = header[3];
    if flags & RESERVED != 0 {
        return Err(FlateError::ReservedFlags(flags & RESERVED));
    }
    // Skip MTIME (4), XFL, OS. `pos <= header.len()` holds at every
    // step below, so the `header.len() - pos` checks cannot underflow.
    let mut pos = 10usize;

    if flags & FEXTRA != 0 {
        let xlen_bytes = header.get(pos..pos + 2).ok_or(FlateError::UnexpectedEof)?;
        let xlen = u16::from_le_bytes(xlen_bytes.try_into().expect("2 bytes")) as usize;
        pos += 2;
        if header.len() - pos < xlen {
            return Err(FlateError::UnexpectedEof);
        }
        pos += xlen;
    }
    for flag in [FNAME, FCOMMENT] {
        if flags & flag != 0 {
            let nul = header[pos..]
                .iter()
                .position(|&b| b == 0)
                .ok_or(FlateError::UnexpectedEof)?;
            pos += nul + 1;
        }
    }
    if flags & FHCRC != 0 {
        // The two CRC16 bytes are skipped, not verified (matching
        // zlib's default), but their presence is still required.
        if header.len() - pos < 2 {
            return Err(FlateError::UnexpectedEof);
        }
        pos += 2;
    }
    let _ = flags & FTEXT; // advisory only

    Ok(start + pos)
}

/// Reads the `(CRC32, ISIZE)` trailer fields at `pos`.
pub(crate) fn read_trailer(data: &[u8], pos: usize) -> (u32, u32) {
    let crc = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes"));
    let len = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().expect("4 bytes"));
    (crc, len)
}

/// Compares computed CRC32/length against a member's stored trailer —
/// CRC first, then length, an order both the buffered and streaming
/// paths must share for error identity. ISIZE records the uncompressed
/// size **mod 2^32** (RFC 1952), so callers pass a truncated length
/// rather than rejecting >4 GiB streams outright.
pub(crate) fn verify_trailer(
    actual_crc: u32,
    actual_len: u32,
    stored_crc: u32,
    stored_len: u32,
) -> Result<(), FlateError> {
    if stored_crc != actual_crc {
        return Err(FlateError::ChecksumMismatch {
            expected: stored_crc,
            actual: actual_crc,
        });
    }
    if stored_len != actual_len {
        return Err(FlateError::LengthMismatch {
            expected: stored_len,
            actual: actual_len,
        });
    }
    Ok(())
}

/// Verifies one member's trailer against its decompressed bytes.
fn check_trailer(out: &[u8], stored_crc: u32, stored_len: u32) -> Result<(), FlateError> {
    verify_trailer(crc32(out), out.len() as u32, stored_crc, stored_len)
}

/// Decompresses a gzip file: one member, or any number of concatenated
/// members (RFC 1952 §2.2) whose outputs are concatenated in order.
///
/// Optional header fields (FEXTRA, FNAME, FCOMMENT, FHCRC) are parsed
/// and skipped per member, so output from `gzip(1)` (which records
/// file names) is accepted. Each member's CRC32/ISIZE trailer is
/// verified against *that member's* output (ISIZE mod 2^32), not
/// against the file's final 8 bytes.
///
/// Trailing-garbage policy: every byte of the input must belong to a
/// well-formed member. Bytes after a member's trailer that do not
/// start another member's magic are an error
/// ([`FlateError::TrailingGarbage`]), never silently ignored —
/// truncating or padding a profile should be loud.
///
/// # Errors
///
/// Fails on a missing magic, unsupported method, reserved flags,
/// truncated input, DEFLATE errors, trailer mismatches, or trailing
/// garbage.
pub fn gzip_decompress(data: &[u8]) -> Result<Vec<u8>, FlateError> {
    gzip_decompress_with(data, ExecPolicy::SEQUENTIAL)
}

/// Like [`gzip_decompress`], inflating independent members on `ev-par`
/// threads under `policy`.
///
/// Output and errors are **bit-identical** to the sequential path at
/// any thread count: member boundaries are discovered by an optimistic
/// magic-byte split whose every segment must decode as exactly one
/// whole member (header, stream, matching trailer, nothing left
/// over) — a DEFLATE stream is self-delimiting, so a fully validated
/// split reproduces the sequential walk exactly — and any rejected
/// segment abandons the split for the sequential member walk.
///
/// # Errors
///
/// Same conditions as [`gzip_decompress`].
pub fn gzip_decompress_with(data: &[u8], policy: ExecPolicy) -> Result<Vec<u8>, FlateError> {
    let _span = ev_trace::span("flate.inflate");
    if ev_trace::enabled() {
        crate::metrics::in_bytes().add(data.len() as u64);
    }
    if !is_gzip(data) {
        return Err(FlateError::NotGzip);
    }
    if data.len() < 18 {
        return Err(FlateError::UnexpectedEof);
    }
    let (out, members) = decompress_members(data, policy)?;
    if ev_trace::enabled() {
        crate::metrics::members().add(members);
        crate::metrics::out_bytes().add(out.len() as u64);
    }
    Ok(out)
}

/// Minimum average compressed bytes per candidate member before the
/// parallel split is attempted. Below this, per-member work is too
/// small to amortize the candidate scan and fork-join overhead and the
/// split used to run *slower* than the sequential walk (the `ingest`
/// bench's 8 × ~40 KiB workload measured ~7% under sequential), so
/// small-member files take the sequential path outright. The
/// `flate.split_parallel` / `flate.split_fallback` counters record
/// which way each file went.
pub const PAR_MEMBER_MIN_BYTES: usize = 256 << 10;

fn decompress_members(data: &[u8], policy: ExecPolicy) -> Result<(Vec<u8>, u64), FlateError> {
    // Files too small for even two threshold-sized members skip the
    // candidate scan entirely.
    if !policy.is_sequential() && data.len() >= 2 * PAR_MEMBER_MIN_BYTES {
        let starts = member_start_candidates(data);
        if starts.len() > 1 {
            if data.len() / starts.len() >= PAR_MEMBER_MIN_BYTES {
                if ev_trace::enabled() {
                    crate::metrics::split_parallel().add(1);
                }
                if let Some(out) = decompress_split(data, &starts, policy) {
                    return Ok((out, starts.len() as u64));
                }
            } else if ev_trace::enabled() {
                crate::metrics::split_fallback().add(1);
            }
        }
    }
    decompress_members_seq(data)
}

/// The sequential member walk — the semantic reference the parallel
/// split must reproduce bit-for-bit (and error-for-error).
fn decompress_members_seq(data: &[u8]) -> Result<(Vec<u8>, u64), FlateError> {
    let mut out: Vec<u8> = Vec::new();
    let mut pos = 0usize;
    let mut members = 0u64;
    while pos < data.len() {
        if data.len() - pos < 2 || data[pos..pos + 2] != MAGIC {
            return Err(FlateError::TrailingGarbage { offset: pos });
        }
        let body = parse_header(data, pos)?;
        // Size hint: the first member of a single-member file (the
        // common case — every pprof from Go's runtime) finds its exact
        // ISIZE in the file's final 8 bytes, so typical profiles
        // decompress into one exact allocation. Later members (or a
        // multi-member first) fall back to an expansion heuristic; the
        // hint is untrusted either way and capped by inflate.
        let hint = if members == 0 {
            read_trailer(data, data.len() - 8).1 as usize
        } else {
            (data.len() - body).saturating_mul(3)
        };
        let (piece, consumed) = inflate_member(&data[body..], hint)?;
        let trailer = body + consumed;
        if data.len() - trailer < 8 {
            return Err(FlateError::UnexpectedEof);
        }
        let (stored_crc, stored_len) = read_trailer(data, trailer);
        check_trailer(&piece, stored_crc, stored_len)?;
        if members == 0 {
            out = piece;
        } else {
            out.extend_from_slice(&piece);
        }
        members += 1;
        pos = trailer + 8;
    }
    Ok((out, members))
}

/// Scans for plausible member starts: byte offsets where the gzip
/// magic, the DEFLATE method byte, and a clean flag byte line up, far
/// enough from the previous candidate to fit a whole member. Offset 0
/// is always a candidate. False positives (the pattern occurring
/// inside compressed data) cost only a rejected split, never
/// correctness.
fn member_start_candidates(data: &[u8]) -> Vec<usize> {
    let mut starts = vec![0usize];
    if data.len() < 2 * MIN_MEMBER_LEN {
        return starts;
    }
    let last = data.len() - MIN_MEMBER_LEN;
    let mut i = MIN_MEMBER_LEN;
    while i <= last {
        // memchr-style skip to the next 0x1f before the full check.
        match data[i..=last].iter().position(|&b| b == 0x1f) {
            None => break,
            Some(off) => i += off,
        }
        if data[i + 1] == MAGIC[1]
            && data[i + 2] == METHOD_DEFLATE
            && data[i + 3] & RESERVED == 0
            && i - starts.last().expect("non-empty") >= MIN_MEMBER_LEN
        {
            starts.push(i);
        }
        i += 1;
    }
    starts
}

/// Optimistically decodes the candidate split in parallel. Returns
/// `None` — falling back to the sequential walk — unless **every**
/// segment decodes as exactly one whole member. In the all-valid case
/// the concatenation equals the sequential result by induction:
/// segment 0 starts where the sequential walk starts, and a segment
/// that fully decodes consumes exactly the bytes the walk would,
/// placing the walk at the next segment's start.
fn decompress_split(data: &[u8], starts: &[usize], policy: ExecPolicy) -> Option<Vec<u8>> {
    let segments: Vec<&[u8]> = starts
        .iter()
        .zip(starts[1..].iter().chain(std::iter::once(&data.len())))
        .map(|(&a, &b)| &data[a..b])
        .collect();
    let pieces: Vec<Vec<u8>> = ev_par::fan_out(segments, policy, decode_whole_member)
        .into_iter()
        .collect::<Option<_>>()?;
    // Parallel ordered join: carve the output into one disjoint slice
    // per piece, then copy each piece into its own. The sequential
    // `extend_from_slice` walk this replaces was a measurable fraction
    // of multi-member wall-clock once inflate itself was parallel.
    let mut out = vec![0u8; pieces.iter().map(Vec::len).sum()];
    let mut rest = out.as_mut_slice();
    let mut copies = Vec::with_capacity(pieces.len());
    for piece in &pieces {
        let (dst, tail) = std::mem::take(&mut rest).split_at_mut(piece.len());
        copies.push((dst, piece.as_slice()));
        rest = tail;
    }
    ev_par::fan_out(copies, policy, |(dst, piece)| dst.copy_from_slice(piece));
    Some(out)
}

/// Decodes `segment` if and only if it is exactly one well-formed
/// member: header, DEFLATE stream ending precisely 8 bytes before the
/// segment end, and a matching trailer. Anything else (including any
/// decode error) returns `None`.
fn decode_whole_member(segment: &[u8]) -> Option<Vec<u8>> {
    let body = parse_header(segment, 0).ok()?;
    if segment.len() - body < 8 {
        return None;
    }
    let (stored_crc, stored_len) = read_trailer(segment, segment.len() - 8);
    let (out, consumed) = inflate_member(&segment[body..], stored_len as usize).ok()?;
    if body + consumed + 8 != segment.len() {
        return None;
    }
    check_trailer(&out, stored_crc, stored_len).ok()?;
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_test::prelude::*;

    /// Builds a member with arbitrary header flags/fields for tests.
    fn member_with_header(data: &[u8], flags: u8, fields: &[u8]) -> Vec<u8> {
        let body = deflate_compress(data, CompressionLevel::Store);
        let mut gz = vec![MAGIC[0], MAGIC[1], METHOD_DEFLATE, flags, 0, 0, 0, 0, 0, 255];
        gz.extend_from_slice(fields);
        gz.extend_from_slice(&body);
        gz.extend_from_slice(&crc32(data).to_le_bytes());
        gz.extend_from_slice(&(data.len() as u32).to_le_bytes());
        gz
    }

    #[test]
    fn detects_magic() {
        assert!(is_gzip(&[0x1f, 0x8b, 0x08]));
        assert!(!is_gzip(&[0x1f]));
        assert!(!is_gzip(b"plain text"));
    }

    #[test]
    fn rejects_non_gzip() {
        assert_eq!(gzip_decompress(b"hello"), Err(FlateError::NotGzip));
    }

    #[test]
    fn rejects_bad_method() {
        let mut gz = gzip_compress(b"x", CompressionLevel::Store);
        gz[2] = 7;
        assert_eq!(gzip_decompress(&gz), Err(FlateError::UnsupportedMethod(7)));
    }

    #[test]
    fn rejects_reserved_flags() {
        let mut gz = gzip_compress(b"x", CompressionLevel::Store);
        gz[3] = 0x20;
        assert_eq!(gzip_decompress(&gz), Err(FlateError::ReservedFlags(0x20)));
    }

    #[test]
    fn detects_corrupted_payload() {
        let data = b"profile payload for checksum test".repeat(4);
        let mut gz = gzip_compress(&data, CompressionLevel::Store);
        // Flip a byte inside the stored payload.
        let mid = gz.len() / 2;
        gz[mid] ^= 0xff;
        let err = gzip_decompress(&gz).unwrap_err();
        assert!(
            matches!(
                err,
                FlateError::ChecksumMismatch { .. } | FlateError::StoredLengthMismatch
            ),
            "unexpected error: {err:?}"
        );
    }

    #[test]
    fn detects_bad_isize() {
        let data = b"some data";
        let mut gz = gzip_compress(data, CompressionLevel::Store);
        let n = gz.len();
        gz[n - 1] ^= 1;
        assert!(matches!(
            gzip_decompress(&gz),
            Err(FlateError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn lying_isize_cannot_mask_or_overallocate() {
        // ISIZE claiming 4 GiB - 1: must fail as a clean length
        // mismatch after decoding, not pre-allocate the claimed size
        // (inflate caps hints at MAX_SIZE_HINT) and not mask the real
        // length.
        let data = b"short member";
        let mut gz = gzip_compress(data, CompressionLevel::Fast);
        let n = gz.len();
        gz[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            gzip_decompress(&gz),
            Err(FlateError::LengthMismatch {
                expected: u32::MAX,
                actual: data.len() as u32,
            })
        );
    }

    #[test]
    fn skips_fname_header() {
        let data = b"named member";
        let gz = member_with_header(data, FNAME, b"profile.pb\0");
        assert_eq!(gzip_decompress(&gz).unwrap(), data);
    }

    #[test]
    fn skips_fextra_fcomment_fhcrc() {
        let data = b"full-option member";
        let mut fields = Vec::new();
        fields.extend_from_slice(&4u16.to_le_bytes()); // XLEN
        fields.extend_from_slice(b"EVxx"); // extra payload
        fields.extend_from_slice(b"name.pb\0");
        fields.extend_from_slice(b"a comment\0");
        fields.extend_from_slice(&[0xab, 0xcd]); // header CRC16 (skipped)
        let gz = member_with_header(data, FEXTRA | FNAME | FCOMMENT | FHCRC, &fields);
        assert_eq!(gzip_decompress(&gz).unwrap(), data);
    }

    #[test]
    fn oversized_xlen_is_eof_not_panic() {
        // Regression: an XLEN past the end of the buffer used to drive
        // the header cursor out of bounds and panic on the FNAME scan.
        let data = b"payload";
        let real = member_with_header(data, FEXTRA | FNAME, b"\x04\x00EVxxname\0");
        for xlen in [0xffffu16, (real.len() + 1) as u16, 0x7f00] {
            let mut gz = real.clone();
            gz[10..12].copy_from_slice(&xlen.to_le_bytes());
            assert_eq!(
                gzip_decompress(&gz),
                Err(FlateError::UnexpectedEof),
                "xlen {xlen:#06x}"
            );
        }
    }

    #[test]
    fn truncated_optional_fields_are_eof() {
        let data = b"x";
        // FNAME flag set but no NUL terminator anywhere.
        let mut gz = member_with_header(data, 0, &[]);
        gz[3] = FNAME;
        let truncated = &gz[..12];
        assert_eq!(gzip_decompress(truncated), Err(FlateError::UnexpectedEof));
        // FHCRC flag set on a header cut right after the fixed fields.
        let mut short = gz[..10].to_vec();
        short[3] = FHCRC;
        short.extend_from_slice(&[0u8; 8]); // pad past the 18-byte floor
        assert!(gzip_decompress(&short).is_err());
    }

    #[test]
    fn truncated_member() {
        let gz = gzip_compress(b"hello world", CompressionLevel::Fast);
        for cut in [1, 5, 11, gz.len() - 1] {
            assert!(gzip_decompress(&gz[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn two_member_concatenation() {
        let a = b"first member payload ".repeat(3);
        let b = b"second member, different bytes".repeat(2);
        let mut gz = gzip_compress(&a, CompressionLevel::Fast);
        gz.extend_from_slice(&gzip_compress(&b, CompressionLevel::High));
        let mut expected = a.clone();
        expected.extend_from_slice(&b);
        assert_eq!(gzip_decompress(&gz).unwrap(), expected);
    }

    #[test]
    fn three_member_concatenation_with_header_fields() {
        let parts: [&[u8]; 3] = [b"alpha alpha alpha", b"", b"gamma"];
        let mut gz = gzip_compress(parts[0], CompressionLevel::Store);
        gz.extend_from_slice(&member_with_header(parts[1], FNAME, b"empty.bin\0"));
        let mut fields = Vec::new();
        fields.extend_from_slice(&2u16.to_le_bytes());
        fields.extend_from_slice(b"xy");
        gz.extend_from_slice(&member_with_header(parts[2], FEXTRA, &fields));
        let expected: Vec<u8> = parts.concat();
        for threads in [1, 2, 8] {
            assert_eq!(
                gzip_decompress_with(&gz, ExecPolicy::with_threads(threads)).unwrap(),
                expected,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        let mut gz = gzip_compress(b"clean member", CompressionLevel::Fast);
        let end = gz.len();
        gz.extend_from_slice(b"not a gzip member");
        assert_eq!(
            gzip_decompress(&gz),
            Err(FlateError::TrailingGarbage { offset: end })
        );
    }

    #[test]
    fn truncated_second_member_is_an_error() {
        let mut gz = gzip_compress(b"whole first member", CompressionLevel::Fast);
        let second = gzip_compress(b"second member that gets cut", CompressionLevel::Fast);
        gz.extend_from_slice(&second[..second.len() - 3]);
        for threads in [1, 4] {
            assert!(
                gzip_decompress_with(&gz, ExecPolicy::with_threads(threads)).is_err(),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn parallel_matches_sequential_on_many_members() {
        // Enough members that the split actually fans out, with bodies
        // containing 0x1f bytes to exercise false-positive candidates.
        let parts: Vec<Vec<u8>> = (0..12)
            .map(|i| {
                let mut p = format!("member {i} ").repeat(20 + i).into_bytes();
                p.extend_from_slice(&[0x1f, 0x8b, 0x08, 0x00, 0x1f, 0x8b]);
                p
            })
            .collect();
        let mut gz = Vec::new();
        let mut expected = Vec::new();
        for (i, p) in parts.iter().enumerate() {
            let level = if i % 2 == 0 { CompressionLevel::Fast } else { CompressionLevel::High };
            gz.extend_from_slice(&gzip_compress(p, level));
            expected.extend_from_slice(p);
        }
        let seq = gzip_decompress(&gz).unwrap();
        assert_eq!(seq, expected);
        for threads in [2, 4, 8] {
            assert_eq!(
                gzip_decompress_with(&gz, ExecPolicy::with_threads(threads)).unwrap(),
                seq,
                "threads {threads}"
            );
        }
    }

    property! {
        #![cases(48)]

        fn roundtrip_store(data in vec(any_u8(), 0..256)) {
            let gz = gzip_compress(&data, CompressionLevel::Store);
            prop_assert_eq!(gzip_decompress(&gz).unwrap(), data);
        }

        fn roundtrip_fast(data in vec(any_u8(), 0..256)) {
            let gz = gzip_compress(&data, CompressionLevel::Fast);
            prop_assert_eq!(gzip_decompress(&gz).unwrap(), data);
        }

        fn arbitrary_bytes_never_panic(data in vec(any_u8(), 0..256)) {
            let _ = gzip_decompress(&data);
        }

        fn arbitrary_header_fields_never_panic(
            flags in any_u8(),
            fields in vec(any_u8(), 0..64),
            body in vec(any_u8(), 0..64),
        ) {
            // Fully adversarial header: random flag byte (reserved bits
            // masked off so parsing proceeds) over random field bytes.
            let mut gz = vec![MAGIC[0], MAGIC[1], METHOD_DEFLATE, flags & !RESERVED,
                              0, 0, 0, 0, 0, 255];
            gz.extend_from_slice(&fields);
            gz.extend_from_slice(&body);
            let _ = gzip_decompress(&gz);
        }

        fn concatenated_members_equal_individual(
            parts in vec(vec(any_u8(), 0..96), 1..5),
            threads in 1usize..9,
        ) {
            let mut gz = Vec::new();
            let mut expected = Vec::new();
            for part in &parts {
                gz.extend_from_slice(&gzip_compress(part, CompressionLevel::Fast));
                expected.extend_from_slice(part);
            }
            let got = gzip_decompress_with(&gz, ExecPolicy::with_threads(threads)).unwrap();
            prop_assert_eq!(got, expected);
        }
    }
}
