//! DEFLATE decompression (RFC 1951), all three block types.
//!
//! Two decoders live here and must stay byte-for-byte (and
//! error-for-error) identical on every input:
//!
//! * [`inflate`] — the production fast path: two-tier LUT Huffman
//!   decoding ([`HuffmanLut`]), a batched peek/consume bit reader, a
//!   fused literal/length+distance inner loop, and chunked
//!   (overlap-safe) LZ77 match copies.
//! * [`inflate_reference`] — the original bit-at-a-time puff-style
//!   walker, retained as the oracle for differential testing
//!   (`tests/differential.rs` and the unit properties below).

use crate::bits::BitReader;
use crate::huffman::{
    fixed_distance_lengths, fixed_literal_lengths, Huffman, HuffmanLut, DIST_PRIMARY_BITS,
    LITLEN_PRIMARY_BITS, MAX_BITS,
};
use crate::FlateError;
use std::sync::OnceLock;

/// Length-code base values for codes 257–285 (RFC 1951 §3.2.5).
const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
/// Extra bits for length codes 257–285.
const LENGTH_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
/// Distance-code base values for codes 0–29.
const DIST_BASE: [u32; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
/// Extra bits for distance codes 0–29.
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];
/// Permuted order of code-length-code lengths in a dynamic block header.
const CLC_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];
/// Primary width for the (≤ 7-bit) code-length code: wide enough that
/// every clc lookup is a single primary load.
const CLC_PRIMARY_BITS: u32 = 7;

/// Worst-case bits one fused iteration consumes: a 15-bit
/// literal/length code, 5 extra length bits, a 15-bit distance code and
/// 13 extra distance bits. With at least this many bits buffered the
/// inner loop needs no per-step EOF checks.
const FUSED_BITS: u32 = 48;

/// Cap on speculative output preallocation. Size hints (the gzip ISIZE
/// trailer, the raw-deflate `len*3` heuristic) are untrusted input: a
/// lying ISIZE of up to 4 GiB must not translate into a 4 GiB
/// allocation before a single byte is decoded. Hints above this cap
/// preallocate exactly this much and the output grows organically
/// beyond it, so the cap bounds speculative memory, never output size.
pub const MAX_SIZE_HINT: usize = 256 << 20;

/// Fast-path vs. slow-path hit counts for one inflate call, accumulated
/// in locals so the hot loop never touches an atomic, and flushed to
/// the `ev-trace` registry only when tracing is enabled (the disabled
/// path stays allocation-free).
#[derive(Default)]
pub(crate) struct LutStats {
    primary: u64,
    sub: u64,
    tail: u64,
}

impl LutStats {
    #[inline]
    fn hit(&mut self, sub: bool) {
        if sub {
            self.sub += 1;
        } else {
            self.primary += 1;
        }
    }

    pub(crate) fn flush(&self) {
        if ev_trace::enabled() && self.primary | self.sub | self.tail != 0 {
            crate::metrics::lut_primary().add(self.primary);
            crate::metrics::lut_sub().add(self.sub);
            crate::metrics::lut_tail().add(self.tail);
        }
    }
}

/// The RFC 1951 fixed tables in LUT form, built once per process.
pub(crate) fn fixed_luts() -> &'static (HuffmanLut, HuffmanLut) {
    static TABLES: OnceLock<(HuffmanLut, HuffmanLut)> = OnceLock::new();
    TABLES.get_or_init(|| {
        (
            HuffmanLut::from_lengths(&fixed_literal_lengths(), LITLEN_PRIMARY_BITS)
                .expect("RFC 1951 fixed literal table is valid"),
            HuffmanLut::from_lengths(&fixed_distance_lengths(), DIST_PRIMARY_BITS)
                .expect("RFC 1951 fixed distance table is valid"),
        )
    })
}

/// The fixed tables for the reference decoder, built once per process.
fn fixed_reference_tables() -> &'static (Huffman, Huffman) {
    static TABLES: OnceLock<(Huffman, Huffman)> = OnceLock::new();
    TABLES.get_or_init(|| {
        (
            Huffman::from_lengths(&fixed_literal_lengths())
                .expect("RFC 1951 fixed literal table is valid"),
            Huffman::from_lengths(&fixed_distance_lengths())
                .expect("RFC 1951 fixed distance table is valid"),
        )
    })
}

/// Decompresses a raw DEFLATE stream (no gzip/zlib wrapper).
///
/// # Errors
///
/// Fails on truncated input, reserved block types, malformed Huffman
/// tables, undecodable symbols, or back-references beyond the produced
/// output.
///
/// # Examples
///
/// ```
/// use ev_flate::{deflate_compress, inflate, CompressionLevel};
///
/// # fn main() -> Result<(), ev_flate::FlateError> {
/// let raw = deflate_compress(b"hello hello hello", CompressionLevel::Fast);
/// assert_eq!(inflate(&raw)?, b"hello hello hello");
/// # Ok(())
/// # }
/// ```
pub fn inflate(input: &[u8]) -> Result<Vec<u8>, FlateError> {
    // Heuristic preallocation: deflate rarely exceeds ~4x expansion on
    // realistic profile data. Container callers that know the exact
    // output size (gzip ISIZE) pass it to `inflate_member` instead.
    inflate_member(input, input.len().saturating_mul(3)).map(|(out, _)| out)
}

/// Like [`inflate`], preallocating `size_hint` bytes of output and
/// additionally returning how many input bytes the DEFLATE stream
/// occupied (the bit position after the final block, rounded up to the
/// next byte boundary).
///
/// The gzip decoder passes each member's ISIZE trailer as the hint, so
/// typical profiles decompress into a single exact allocation. The hint
/// is advisory and untrusted: it is capped at [`MAX_SIZE_HINT`] and the
/// output still grows as needed, so a lying hint affects speed, never
/// correctness.
///
/// This is the member-streaming entry point: a gzip container holds
/// `header · deflate stream · trailer` per member, and RFC 1952 allows
/// members to be concatenated back to back, so the decompressor must
/// learn where each self-delimiting DEFLATE stream ends to find that
/// member's trailer and the next member's header. Bytes past the
/// stream end are never interpreted (the bit reader may *peek* ahead,
/// but consumption stops at the final end-of-block symbol).
///
/// # Errors
///
/// Same conditions as [`inflate`].
pub fn inflate_member(input: &[u8], size_hint: usize) -> Result<(Vec<u8>, usize), FlateError> {
    let mut reader = BitReader::new(input);
    let mut out = Vec::with_capacity(size_hint.min(MAX_SIZE_HINT));
    let mut stats = LutStats::default();
    let result = inflate_fast_loop(&mut reader, &mut out, &mut stats);
    stats.flush();
    result.map(|()| (out, reader.bytes_consumed()))
}

/// Reference-decoder counterpart of [`inflate_member`], for
/// differential testing: output bytes, error values, *and* the
/// consumed-byte count must match the fast path on every input.
///
/// # Errors
///
/// Same conditions as [`inflate`].
pub fn inflate_reference_member(input: &[u8]) -> Result<(Vec<u8>, usize), FlateError> {
    let mut reader = BitReader::new(input);
    inflate_reference_loop(&mut reader, input.len())
        .map(|out| (out, reader.bytes_consumed()))
}

/// How far a budget-bounded block decode got.
///
/// The buffered decoders pass `usize::MAX` as the budget and only ever
/// see `Done`; [`crate::InflateStream`] passes its chunk target and
/// suspends the block on `Budget`, resuming the same decode on the next
/// pull. Budget checks sit *between* symbols, so the decoded symbol
/// sequence — and therefore every output byte and every error — is
/// independent of where (or whether) the decode is suspended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockProgress {
    /// The block's end-of-block symbol was consumed.
    Done,
    /// The output budget was reached mid-block; call again to continue.
    Budget,
}

fn inflate_fast_loop(
    reader: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    stats: &mut LutStats,
) -> Result<(), FlateError> {
    loop {
        let bfinal = reader.bit()?;
        let btype = reader.bits(2)?;
        match btype {
            0 => inflate_stored(reader, out)?,
            1 => {
                let (lit, dist) = fixed_luts();
                let done = inflate_block_fast(reader, lit, dist, out, usize::MAX, stats)?;
                debug_assert_eq!(done, BlockProgress::Done);
            }
            2 => {
                let (lit, dist) = read_dynamic_luts(reader)?;
                let done = inflate_block_fast(reader, &lit, &dist, out, usize::MAX, stats)?;
                debug_assert_eq!(done, BlockProgress::Done);
            }
            _ => return Err(FlateError::InvalidBlockType),
        }
        if bfinal == 1 {
            return Ok(());
        }
    }
}

/// Reads a stored block's aligned LEN/NLEN header, returning LEN.
pub(crate) fn read_stored_header(reader: &mut BitReader<'_>) -> Result<usize, FlateError> {
    reader.align_to_byte();
    let len = reader.bits(16)? as u16;
    let nlen = reader.bits(16)? as u16;
    if len != !nlen {
        return Err(FlateError::StoredLengthMismatch);
    }
    Ok(len as usize)
}

fn inflate_stored(reader: &mut BitReader<'_>, out: &mut Vec<u8>) -> Result<(), FlateError> {
    let len = read_stored_header(reader)?;
    reader.copy_bytes(len, out)
}

/// Decodes a dynamic block header into the literal/length and distance
/// code lengths plus the literal/length count. The `decode_clc` hook
/// lets the fast and reference paths plug in their own code-length-code
/// decoder while sharing the (error-identical) header logic.
fn read_dynamic_lengths(
    reader: &mut BitReader<'_>,
    mut decode_clc: impl FnMut(&mut BitReader<'_>, &[u8]) -> Result<u16, FlateError>,
) -> Result<(Vec<u8>, usize), FlateError> {
    let hlit = reader.bits(5)? as usize + 257;
    let hdist = reader.bits(5)? as usize + 1;
    let hclen = reader.bits(4)? as usize + 4;
    if hlit > 286 || hdist > 30 {
        return Err(FlateError::InvalidHuffmanTable);
    }

    let mut clc_lengths = [0u8; 19];
    for &idx in CLC_ORDER.iter().take(hclen) {
        clc_lengths[idx] = reader.bits(3)? as u8;
    }

    // Decode the literal/length and distance code lengths as one run,
    // since repeat codes may cross the boundary.
    let mut lengths = Vec::with_capacity(hlit + hdist);
    while lengths.len() < hlit + hdist {
        let symbol = decode_clc(reader, &clc_lengths)?;
        match symbol {
            0..=15 => lengths.push(symbol as u8),
            16 => {
                let &prev = lengths.last().ok_or(FlateError::InvalidHuffmanTable)?;
                let repeat = reader.bits(2)? + 3;
                for _ in 0..repeat {
                    lengths.push(prev);
                }
            }
            17 => {
                let repeat = reader.bits(3)? + 3;
                lengths.extend(std::iter::repeat_n(0, repeat as usize));
            }
            18 => {
                let repeat = reader.bits(7)? + 11;
                lengths.extend(std::iter::repeat_n(0, repeat as usize));
            }
            _ => return Err(FlateError::InvalidSymbol),
        }
    }
    if lengths.len() != hlit + hdist {
        return Err(FlateError::InvalidHuffmanTable);
    }
    // End-of-block code must be present.
    if lengths[256] == 0 {
        return Err(FlateError::InvalidHuffmanTable);
    }
    Ok((lengths, hlit))
}

pub(crate) fn read_dynamic_luts(
    reader: &mut BitReader<'_>,
) -> Result<(HuffmanLut, HuffmanLut), FlateError> {
    let mut clc: Option<HuffmanLut> = None;
    let (lengths, hlit) = read_dynamic_lengths(reader, |reader, clc_lengths| {
        if clc.is_none() {
            clc = Some(HuffmanLut::from_lengths(clc_lengths, CLC_PRIMARY_BITS)?);
        }
        clc.as_ref().expect("built above").decode(reader)
    })?;
    let lit = HuffmanLut::from_lengths(&lengths[..hlit], LITLEN_PRIMARY_BITS)?;
    let dist = HuffmanLut::from_lengths(&lengths[hlit..], DIST_PRIMARY_BITS)?;
    Ok((lit, dist))
}

/// Appends a length/distance match to `out`.
///
/// Copies run through `Vec::extend_from_within` — memcpy-class chunked
/// copies with the borrow checker standing in for libdeflate's manual
/// 8-byte wild stamps. Overlapping matches (distance < length, the RLE
/// idiom) copy in runs of the currently available window, doubling the
/// window each round so even distance-2 matches finish in O(log n)
/// memcpys; distance 1 is a straight `resize` fill (memset).
#[inline]
fn copy_match(out: &mut Vec<u8>, distance: usize, length: usize) -> Result<(), FlateError> {
    if distance > out.len() {
        return Err(FlateError::DistanceTooFar {
            distance,
            produced: out.len(),
        });
    }
    let start = out.len() - distance;
    if length <= distance {
        out.extend_from_within(start..start + length);
    } else if distance == 1 {
        let byte = out[start];
        let new_len = out.len() + length;
        out.resize(new_len, byte);
    } else {
        out.reserve(length);
        let mut remaining = length;
        while remaining > 0 {
            let run = remaining.min(out.len() - start);
            out.extend_from_within(start..start + run);
            remaining -= run;
        }
    }
    Ok(())
}

pub(crate) fn inflate_block_fast(
    reader: &mut BitReader<'_>,
    lit: &HuffmanLut,
    dist: &HuffmanLut,
    out: &mut Vec<u8>,
    budget: usize,
    stats: &mut LutStats,
) -> Result<BlockProgress, FlateError> {
    loop {
        // Budget check between symbols only: the symbol sequence (and
        // so every byte/error) is unchanged by where we suspend. One
        // symbol may overshoot by up to 258 bytes — the stream layer
        // sizes its emit window to absorb that.
        if out.len() >= budget {
            return Ok(BlockProgress::Budget);
        }
        reader.refill();
        if reader.buffered() >= FUSED_BITS {
            // Fused path: one refill covers the worst-case symbol pair
            // plus extra bits, so every step below is unchecked
            // peek/consume (≥ 48 buffered bits also means an
            // unresolvable code is InvalidSymbol, never EOF).
            let (entry, sub) = lit.lookup(reader.peek(MAX_BITS as u32));
            stats.hit(sub);
            let len = entry >> 16;
            if len == 0 {
                return Err(FlateError::InvalidSymbol);
            }
            reader.consume(len);
            let symbol = entry & 0xffff;
            if symbol < 256 {
                out.push(symbol as u8);
                continue;
            }
            if symbol == 256 {
                return Ok(BlockProgress::Done);
            }
            if symbol > 285 {
                return Err(FlateError::InvalidSymbol);
            }
            let idx = symbol as usize - 257;
            let length =
                LENGTH_BASE[idx] as usize + reader.take(u32::from(LENGTH_EXTRA[idx])) as usize;
            let (dentry, dsub) = dist.lookup(reader.peek(MAX_BITS as u32));
            stats.hit(dsub);
            let dlen = dentry >> 16;
            if dlen == 0 {
                return Err(FlateError::InvalidSymbol);
            }
            reader.consume(dlen);
            let dsym = (dentry & 0xffff) as usize;
            if dsym >= 30 {
                return Err(FlateError::InvalidSymbol);
            }
            let distance =
                DIST_BASE[dsym] as usize + reader.take(u32::from(DIST_EXTRA[dsym])) as usize;
            copy_match(out, distance, length)?;
        } else {
            // Tail path: fewer than FUSED_BITS left in the stream, so
            // run the same logic with per-step EOF checking. At most a
            // handful of symbols per stream land here.
            stats.tail += 1;
            let symbol = lit.decode(reader)?;
            match symbol {
                0..=255 => out.push(symbol as u8),
                256 => return Ok(BlockProgress::Done),
                257..=285 => {
                    let idx = symbol as usize - 257;
                    let length = LENGTH_BASE[idx] as usize
                        + reader.bits(u32::from(LENGTH_EXTRA[idx]))? as usize;
                    let dsym = dist.decode(reader)? as usize;
                    if dsym >= 30 {
                        return Err(FlateError::InvalidSymbol);
                    }
                    let distance = DIST_BASE[dsym] as usize
                        + reader.bits(u32::from(DIST_EXTRA[dsym]))? as usize;
                    copy_match(out, distance, length)?;
                }
                _ => return Err(FlateError::InvalidSymbol),
            }
        }
    }
}

/// Decompresses a raw DEFLATE stream with the original bit-at-a-time
/// decoder. This is the reference implementation the fast path is
/// differentially tested against; output bytes and error values are
/// identical to [`inflate`] on every input, compressed or corrupt.
///
/// # Errors
///
/// Same conditions as [`inflate`].
pub fn inflate_reference(input: &[u8]) -> Result<Vec<u8>, FlateError> {
    let mut reader = BitReader::new(input);
    inflate_reference_loop(&mut reader, input.len())
}

fn inflate_reference_loop(
    reader: &mut BitReader<'_>,
    input_len: usize,
) -> Result<Vec<u8>, FlateError> {
    let mut out = Vec::with_capacity(input_len.saturating_mul(3).min(MAX_SIZE_HINT));
    loop {
        let bfinal = reader.bit()?;
        let btype = reader.bits(2)?;
        match btype {
            0 => inflate_stored(reader, &mut out)?,
            1 => {
                let (lit, dist) = fixed_reference_tables();
                inflate_block(reader, lit, dist, &mut out)?;
            }
            2 => {
                let (lit, dist) = read_dynamic_tables(reader)?;
                inflate_block(reader, &lit, &dist, &mut out)?;
            }
            _ => return Err(FlateError::InvalidBlockType),
        }
        if bfinal == 1 {
            return Ok(out);
        }
    }
}

fn read_dynamic_tables(reader: &mut BitReader<'_>) -> Result<(Huffman, Huffman), FlateError> {
    let mut clc: Option<Huffman> = None;
    let (lengths, hlit) = read_dynamic_lengths(reader, |reader, clc_lengths| {
        if clc.is_none() {
            clc = Some(Huffman::from_lengths(clc_lengths)?);
        }
        clc.as_ref().expect("built above").decode(reader)
    })?;
    let lit = Huffman::from_lengths(&lengths[..hlit])?;
    let dist = Huffman::from_lengths(&lengths[hlit..])?;
    Ok((lit, dist))
}

fn inflate_block(
    reader: &mut BitReader<'_>,
    lit: &Huffman,
    dist: &Huffman,
    out: &mut Vec<u8>,
) -> Result<(), FlateError> {
    loop {
        let symbol = lit.decode(reader)?;
        match symbol {
            0..=255 => out.push(symbol as u8),
            256 => return Ok(()),
            257..=285 => {
                let idx = symbol as usize - 257;
                let length =
                    LENGTH_BASE[idx] as usize + reader.bits(u32::from(LENGTH_EXTRA[idx]))? as usize;
                let dsym = dist.decode(reader)? as usize;
                if dsym >= 30 {
                    return Err(FlateError::InvalidSymbol);
                }
                let distance =
                    DIST_BASE[dsym] as usize + reader.bits(u32::from(DIST_EXTRA[dsym]))? as usize;
                if distance > out.len() {
                    return Err(FlateError::DistanceTooFar {
                        distance,
                        produced: out.len(),
                    });
                }
                // Byte-by-byte copy: overlapping copies (distance < length)
                // are the RLE idiom and must see freshly written bytes.
                let start = out.len() - distance;
                for i in 0..length {
                    let byte = out[start + i];
                    out.push(byte);
                }
            }
            _ => return Err(FlateError::InvalidSymbol),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitWriter;
    use crate::huffman::canonical_codes;

    /// Every decode-path test asserts through this: fast and reference
    /// must agree exactly, and the fast result is what's checked.
    fn both(input: &[u8]) -> Result<Vec<u8>, FlateError> {
        let fast = inflate(input);
        let reference = inflate_reference(input);
        assert_eq!(fast, reference, "fast and reference decoders disagree");
        fast
    }

    #[test]
    fn stored_block_roundtrip() {
        // Hand-build: BFINAL=1, BTYPE=00, align, LEN=5, NLEN=!5, "hello".
        let mut w = BitWriter::new();
        w.bits(1, 1);
        w.bits(0, 2);
        w.align_to_byte();
        w.raw_bytes(&5u16.to_le_bytes());
        w.raw_bytes(&(!5u16).to_le_bytes());
        w.raw_bytes(b"hello");
        assert_eq!(both(&w.into_bytes()).unwrap(), b"hello");
    }

    #[test]
    fn stored_block_bad_nlen() {
        let mut w = BitWriter::new();
        w.bits(1, 1);
        w.bits(0, 2);
        w.align_to_byte();
        w.raw_bytes(&5u16.to_le_bytes());
        w.raw_bytes(&5u16.to_le_bytes());
        w.raw_bytes(b"hello");
        assert_eq!(both(&w.into_bytes()), Err(FlateError::StoredLengthMismatch));
    }

    #[test]
    fn reserved_block_type() {
        let mut w = BitWriter::new();
        w.bits(1, 1);
        w.bits(3, 2);
        assert_eq!(both(&w.into_bytes()), Err(FlateError::InvalidBlockType));
    }

    #[test]
    fn empty_input_is_eof() {
        assert_eq!(both(&[]), Err(FlateError::UnexpectedEof));
    }

    /// Builds a fixed-Huffman block by hand with the given
    /// literal/length/distance operations.
    fn fixed_block(ops: &[Op]) -> Vec<u8> {
        let lit_codes = canonical_codes(&fixed_literal_lengths());
        let dist_codes = canonical_codes(&fixed_distance_lengths());
        let mut w = BitWriter::new();
        w.bits(1, 1); // BFINAL
        w.bits(1, 2); // fixed
        for op in ops {
            match *op {
                Op::Lit(b) => {
                    let (code, len) = lit_codes[b as usize];
                    w.huffman_code(code, u32::from(len));
                }
                Op::Match { len, dist } => {
                    // Find the length code.
                    let idx = (0..29)
                        .rev()
                        .find(|&i| LENGTH_BASE[i] as usize <= len)
                        .unwrap();
                    let (code, clen) = lit_codes[257 + idx];
                    w.huffman_code(code, u32::from(clen));
                    w.bits(
                        (len - LENGTH_BASE[idx] as usize) as u32,
                        u32::from(LENGTH_EXTRA[idx]),
                    );
                    let didx = (0..30)
                        .rev()
                        .find(|&i| DIST_BASE[i] as usize <= dist)
                        .unwrap();
                    let (dcode, dlen) = dist_codes[didx];
                    w.huffman_code(dcode, u32::from(dlen));
                    w.bits(
                        (dist - DIST_BASE[didx] as usize) as u32,
                        u32::from(DIST_EXTRA[didx]),
                    );
                }
            }
        }
        let (code, len) = lit_codes[256];
        w.huffman_code(code, u32::from(len));
        w.into_bytes()
    }

    enum Op {
        Lit(u8),
        Match { len: usize, dist: usize },
    }

    #[test]
    fn fixed_block_literals() {
        let block = fixed_block(&[Op::Lit(b'a'), Op::Lit(b'b'), Op::Lit(b'c')]);
        assert_eq!(both(&block).unwrap(), b"abc");
    }

    #[test]
    fn fixed_block_backreference() {
        // "abcabcabc" via one literal run + overlapping match.
        let block = fixed_block(&[
            Op::Lit(b'a'),
            Op::Lit(b'b'),
            Op::Lit(b'c'),
            Op::Match { len: 6, dist: 3 },
        ]);
        assert_eq!(both(&block).unwrap(), b"abcabcabc");
    }

    #[test]
    fn fixed_block_rle_distance_one() {
        let block = fixed_block(&[Op::Lit(b'x'), Op::Match { len: 258, dist: 1 }]);
        assert_eq!(both(&block).unwrap(), vec![b'x'; 259]);
    }

    #[test]
    fn overlapping_copy_distances() {
        // Every short distance exercises a different copy_match branch:
        // memset (1), doubling chunked copy (2..36), single memcpy (≥ 37).
        for dist in (1..=9).chain([16, 36, 37, 40]) {
            let mut ops: Vec<Op> = (0..dist).map(|i| Op::Lit((i % 251) as u8)).collect();
            ops.push(Op::Match { len: 37, dist });
            let block = fixed_block(&ops);
            let decoded = both(&block).unwrap();
            // Deflate match semantics: each output byte re-reads the
            // stream `dist` bytes back, seeing freshly copied bytes.
            let mut expected: Vec<u8> = (0..dist).map(|i| (i % 251) as u8).collect();
            for _ in 0..37 {
                let byte = expected[expected.len() - dist];
                expected.push(byte);
            }
            assert_eq!(decoded, expected, "dist {dist}");
        }
    }

    #[test]
    fn distance_before_start_fails() {
        let block = fixed_block(&[Op::Lit(b'x'), Op::Match { len: 3, dist: 5 }]);
        assert_eq!(
            both(&block),
            Err(FlateError::DistanceTooFar {
                distance: 5,
                produced: 1
            })
        );
    }

    #[test]
    fn multi_block_stream() {
        // Non-final stored block followed by a final fixed block.
        let mut w = BitWriter::new();
        w.bits(0, 1);
        w.bits(0, 2);
        w.align_to_byte();
        w.raw_bytes(&2u16.to_le_bytes());
        w.raw_bytes(&(!2u16).to_le_bytes());
        w.raw_bytes(b"hi");
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&fixed_block(&[Op::Lit(b'!')]));
        assert_eq!(both(&bytes).unwrap(), b"hi!");
    }

    /// A hand-built dynamic block: 'a' and 'b' literals, end-of-block,
    /// and a single-code (degenerate) distance tree, optionally using
    /// the missing branch of that one-code tree.
    fn degenerate_dynamic_block(use_missing_distance: bool) -> Vec<u8> {
        // Literal table: 'a'(97), 'b'(98), 256, 257 all length 2 —
        // exactly complete. Distance table: one code of length 1.
        let mut lit_lengths = vec![0u8; 258];
        lit_lengths[97] = 2;
        lit_lengths[98] = 2;
        lit_lengths[256] = 2;
        lit_lengths[257] = 2;
        let lit_codes = canonical_codes(&lit_lengths);

        let mut w = BitWriter::new();
        w.bits(1, 1); // BFINAL
        w.bits(2, 2); // dynamic
        w.bits(1, 5); // HLIT  = 258 - 257
        w.bits(0, 5); // HDIST = 1 - 1
        w.bits(15, 4); // HCLEN = 19 - 4: send all code-length codes
        // Code-length code: sym 2 (emit "length 2") gets 1 bit, syms 1
        // and 18 (zero runs) get 2 bits — exactly complete.
        let mut clc = [0u8; 19];
        clc[1] = 2;
        clc[2] = 1;
        clc[18] = 2;
        for &idx in CLC_ORDER.iter() {
            w.bits(u32::from(clc[idx]), 3);
        }
        let clc_codes = canonical_codes(&clc);
        let put = |w: &mut BitWriter, sym: usize| {
            let (code, len) = clc_codes[sym];
            w.huffman_code(code, u32::from(len));
        };
        put(&mut w, 18); // 0 × 97  (11 + 86)
        w.bits(86, 7);
        put(&mut w, 2); // 'a': len 2
        put(&mut w, 2); // 'b': len 2
        put(&mut w, 18); // 0 × 138 (99..237)
        w.bits(127, 7);
        put(&mut w, 18); // 0 × 19  (237..256)
        w.bits(8, 7);
        put(&mut w, 2); // 256: len 2
        put(&mut w, 2); // 257: len 2
        put(&mut w, 1); // distance table: the lone code, length 1
        // Body: "ab", then a length-3 match (code 257, no extra bits)
        // through the distance tree, then end-of-block.
        for sym in [97usize, 98, 257] {
            let (code, len) = lit_codes[sym];
            w.huffman_code(code, u32::from(len));
        }
        // The single 1-bit distance code is 0; '1' is the missing branch.
        w.bits(u32::from(use_missing_distance), 1);
        let (code, len) = lit_codes[256];
        w.huffman_code(code, u32::from(len));
        w.into_bytes()
    }

    #[test]
    fn degenerate_single_code_distance_tree_decodes() {
        // The length-3 match at distance 1 repeats the trailing 'b'.
        let block = degenerate_dynamic_block(false);
        assert_eq!(both(&block).unwrap(), b"abbbb");
    }

    #[test]
    fn degenerate_missing_distance_code_fails_identically() {
        let block = degenerate_dynamic_block(true);
        let err = both(&block).unwrap_err();
        assert!(
            matches!(err, FlateError::InvalidSymbol | FlateError::UnexpectedEof),
            "unexpected error: {err:?}"
        );
    }

    #[test]
    fn system_gzip_compatibility() {
        // If gzip(1) is available, verify we decode its output (dynamic
        // Huffman blocks from a real compressor).
        use std::io::Write as _;
        use std::process::{Command, Stdio};
        let data: Vec<u8> = (0..20000u32)
            .flat_map(|i| format!("frame_{} ", i % 97).into_bytes())
            .collect();
        let child = Command::new("gzip")
            .arg("-c")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn();
        let Ok(mut child) = child else {
            eprintln!("gzip not available; skipping");
            return;
        };
        child.stdin.as_mut().unwrap().write_all(&data).unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success());
        let decoded = crate::gzip_decompress(&out.stdout).unwrap();
        assert_eq!(decoded, data);
    }
}
