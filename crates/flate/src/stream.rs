//! Pull-based streaming decompression with bounded output memory.
//!
//! The buffered path ([`crate::gzip_decompress_with`]) materializes a
//! whole member's output before anything downstream runs, so peak
//! memory is O(raw profile). The two types here invert that into a
//! pull pipeline:
//!
//! * [`InflateStream`] resumes the LUT DEFLATE decoder across calls,
//!   yielding output in chunks of roughly `chunk_size` bytes while
//!   retaining only the 32 KiB LZ77 window between calls.
//! * [`GzipStream`] walks gzip members the same way the sequential
//!   buffered walk does, folding each emitted chunk into an
//!   incremental CRC32 as it is emitted and verifying each member's
//!   trailer the moment its stream ends.
//!
//! # Differential contract
//!
//! Concatenating every chunk a stream yields is **byte-identical** to
//! the buffered decoder's output, and a failing input fails with the
//! **identical [`FlateError`] value**, at any chunk size (including 1).
//! Two structural facts carry the proof:
//!
//! * Budget checks in the block decoder sit *between* symbols, so the
//!   decoded symbol sequence never depends on where a block is
//!   suspended; partial stored-block copies preserve byte alignment
//!   and fail with the same `UnexpectedEof` the one-shot copy would.
//! * DEFLATE's maximum back-reference distance is 32768 bytes —
//!   exactly the retained window — so once any chunk has been emitted
//!   the window covers every reachable distance and
//!   [`FlateError::DistanceTooFar`] (whose `produced` field counts
//!   total output) can only fire before the first emit, where the
//!   internal buffer *is* the total output.

use crate::bits::BitReader;
use crate::checksum::Crc32;
use crate::gzip::{parse_header, read_trailer, verify_trailer, MAGIC};
use crate::huffman::HuffmanLut;
use crate::inflate::{
    fixed_luts, inflate_block_fast, read_dynamic_luts, read_stored_header, BlockProgress, LutStats,
};
use crate::{is_gzip, FlateError};

/// The LZ77 history a resumable DEFLATE decoder must retain: RFC 1951's
/// maximum back-reference distance (`DIST_BASE[29] + 2^13 - 1 = 32768`).
pub const WINDOW_SIZE: usize = 32 * 1024;

/// Default streaming chunk size. Large enough that per-chunk overhead
/// (state machine re-entry, CRC hand-off, downstream refills) is noise,
/// small enough that peak memory stays megabytes even for GB profiles.
pub const DEFAULT_CHUNK_SIZE: usize = 256 * 1024;

/// Where the resumable decoder stands between [`InflateStream`] pulls.
enum BlockState {
    /// Before a block header (BFINAL + BTYPE).
    Header,
    /// Mid stored block, `remaining` bytes of its payload unread.
    Stored { remaining: usize },
    /// Mid fixed-Huffman block (tables are process-global).
    Fixed,
    /// Mid dynamic-Huffman block, carrying its decoded tables. Boxed:
    /// the LUT pair is large and this variant would otherwise dominate
    /// the enum's size.
    Dynamic(Box<(HuffmanLut, HuffmanLut)>),
    /// Final block fully decoded (or the stream failed).
    Done,
}

/// A resumable raw-DEFLATE decoder yielding bounded output chunks.
///
/// Feed it the full compressed input slice; each
/// [`next_chunk`](Self::next_chunk) call decodes roughly `chunk_size`
/// further output bytes. Between calls the stream holds only the
/// 32 KiB window plus in-flight chunk — input bytes are consumed in
/// place, never copied.
///
/// # Examples
///
/// ```
/// use ev_flate::{deflate_compress, inflate, CompressionLevel, InflateStream};
///
/// # fn main() -> Result<(), ev_flate::FlateError> {
/// let raw = deflate_compress(&b"data ".repeat(10_000), CompressionLevel::Fast);
/// let mut stream = InflateStream::new(&raw, 4096);
/// let mut streamed = Vec::new();
/// let mut chunk = Vec::new();
/// while stream.next_chunk(&mut chunk)? {
///     streamed.extend_from_slice(&chunk);
/// }
/// assert_eq!(streamed, inflate(&raw)?);
/// # Ok(())
/// # }
/// ```
pub struct InflateStream<'a> {
    reader: BitReader<'a>,
    state: BlockState,
    /// BFINAL bit of the block currently in `state`.
    bfinal: bool,
    /// Window + pending output. Everything before `len - WINDOW_SIZE`
    /// is emitted on the next pull; the tail stays as LZ77 history.
    out: Vec<u8>,
    chunk_size: usize,
    stats: LutStats,
}

impl<'a> InflateStream<'a> {
    /// Creates a stream over a raw DEFLATE input, yielding chunks of
    /// roughly `chunk_size` bytes (clamped to at least 1).
    pub fn new(input: &'a [u8], chunk_size: usize) -> InflateStream<'a> {
        InflateStream {
            reader: BitReader::new(input),
            state: BlockState::Header,
            bfinal: false,
            out: Vec::new(),
            chunk_size: chunk_size.max(1),
            stats: LutStats::default(),
        }
    }

    /// Decodes the next output chunk into `dst` (cleared first).
    ///
    /// Returns `Ok(true)` if `dst` now holds a non-empty chunk,
    /// `Ok(false)` once the stream is exhausted. After an error or
    /// `Ok(false)` the stream is finished and further calls return
    /// `Ok(false)`.
    ///
    /// # Errors
    ///
    /// Exactly the conditions — and values — of [`crate::inflate`] on
    /// the same input.
    pub fn next_chunk(&mut self, dst: &mut Vec<u8>) -> Result<bool, FlateError> {
        dst.clear();
        // Decode until a full chunk sits in front of the window (so the
        // emit below never exposes window bytes) or the stream ends. A
        // single match can overshoot `target` by at most 258 bytes.
        let target = WINDOW_SIZE + self.chunk_size;
        while !matches!(self.state, BlockState::Done) && self.out.len() < target {
            if let Err(e) = self.step(target) {
                self.state = BlockState::Done;
                self.out.clear();
                self.stats.flush();
                return Err(e);
            }
        }
        if matches!(self.state, BlockState::Done) {
            // Final drain: the window is no longer needed, emit it all.
            self.stats.flush();
            self.stats = LutStats::default();
            if self.out.is_empty() {
                return Ok(false);
            }
            dst.append(&mut self.out);
            if ev_trace::enabled() {
                crate::metrics::stream_chunks().add(1);
            }
            return Ok(true);
        }
        let emit = self.out.len() - WINDOW_SIZE;
        dst.extend_from_slice(&self.out[..emit]);
        self.out.copy_within(emit.., 0);
        self.out.truncate(WINDOW_SIZE);
        if ev_trace::enabled() {
            crate::metrics::stream_chunks().add(1);
        }
        Ok(true)
    }

    /// Runs one resumable decode step: either a block header or a
    /// budget-bounded slice of the current block's body.
    fn step(&mut self, target: usize) -> Result<(), FlateError> {
        match std::mem::replace(&mut self.state, BlockState::Header) {
            BlockState::Header => {
                self.bfinal = self.reader.bit()? == 1;
                let btype = self.reader.bits(2)?;
                match btype {
                    0 => {
                        let remaining = read_stored_header(&mut self.reader)?;
                        self.state = BlockState::Stored { remaining };
                    }
                    1 => self.state = BlockState::Fixed,
                    2 => {
                        let luts = read_dynamic_luts(&mut self.reader)?;
                        self.state = BlockState::Dynamic(Box::new(luts));
                    }
                    _ => return Err(FlateError::InvalidBlockType),
                }
            }
            BlockState::Stored { remaining } => {
                // Partial copies keep the reader byte-aligned, and a
                // truncated payload fails with the same UnexpectedEof
                // the buffered one-shot copy produces.
                let take = remaining.min(target - self.out.len());
                self.reader.copy_bytes(take, &mut self.out)?;
                if remaining > take {
                    self.state = BlockState::Stored {
                        remaining: remaining - take,
                    };
                } else {
                    self.finish_block();
                }
            }
            BlockState::Fixed => {
                let (lit, dist) = fixed_luts();
                match inflate_block_fast(
                    &mut self.reader,
                    lit,
                    dist,
                    &mut self.out,
                    target,
                    &mut self.stats,
                )? {
                    BlockProgress::Done => self.finish_block(),
                    BlockProgress::Budget => self.state = BlockState::Fixed,
                }
            }
            BlockState::Dynamic(luts) => {
                match inflate_block_fast(
                    &mut self.reader,
                    &luts.0,
                    &luts.1,
                    &mut self.out,
                    target,
                    &mut self.stats,
                )? {
                    BlockProgress::Done => self.finish_block(),
                    BlockProgress::Budget => self.state = BlockState::Dynamic(luts),
                }
            }
            BlockState::Done => unreachable!("step is never called after Done"),
        }
        Ok(())
    }

    fn finish_block(&mut self) {
        self.state = if self.bfinal {
            BlockState::Done
        } else {
            BlockState::Header
        };
    }

    /// Whole input bytes the DEFLATE stream has consumed so far. After
    /// the final block this is the member-framing offset — the same
    /// count [`crate::inflate_member`] returns.
    pub fn bytes_consumed(&self) -> usize {
        self.reader.bytes_consumed()
    }
}

/// One gzip member mid-decode inside a [`GzipStream`].
struct GzipMember<'a> {
    inflate: InflateStream<'a>,
    /// Absolute offset of the member's DEFLATE body in the file.
    body_start: usize,
    /// Incremental CRC over every chunk handed back to the caller.
    crc: Crc32,
    /// Total bytes this member has produced (for the ISIZE check).
    total_len: u64,
}

/// A streaming gzip decoder: the member walk of
/// [`crate::gzip_decompress_with`] as a pull pipeline.
///
/// Each [`next_chunk`](Self::next_chunk) yields the next slice of
/// decompressed output and folds it into the member's CRC32. Each
/// member's CRC32/ISIZE trailer is verified as soon as its stream
/// ends — errors therefore surface on the pull *after* the last chunk
/// of a corrupt member, with the identical [`FlateError`] the buffered
/// decoder returns.
///
/// # Examples
///
/// ```
/// use ev_flate::{gzip_compress, gzip_decompress, CompressionLevel, GzipStream};
///
/// # fn main() -> Result<(), ev_flate::FlateError> {
/// let gz = gzip_compress(&b"sample ".repeat(50_000), CompressionLevel::High);
/// let mut stream = GzipStream::new(&gz, 64 * 1024)?;
/// let mut streamed = Vec::new();
/// let mut chunk = Vec::new();
/// while stream.next_chunk(&mut chunk)? {
///     streamed.extend_from_slice(&chunk);
/// }
/// assert_eq!(streamed, gzip_decompress(&gz)?);
/// # Ok(())
/// # }
/// ```
pub struct GzipStream<'a> {
    data: &'a [u8],
    /// Offset of the next member header (when no member is in flight).
    pos: usize,
    chunk_size: usize,
    member: Option<GzipMember<'a>>,
    finished: bool,
}

impl<'a> GzipStream<'a> {
    /// Creates a stream over a gzip file (one or more members),
    /// yielding chunks of roughly `chunk_size` bytes.
    ///
    /// # Errors
    ///
    /// [`FlateError::NotGzip`] / [`FlateError::UnexpectedEof`] for
    /// inputs the buffered decoder rejects up front.
    pub fn new(data: &'a [u8], chunk_size: usize) -> Result<GzipStream<'a>, FlateError> {
        if ev_trace::enabled() {
            crate::metrics::in_bytes().add(data.len() as u64);
        }
        if !is_gzip(data) {
            return Err(FlateError::NotGzip);
        }
        if data.len() < 18 {
            return Err(FlateError::UnexpectedEof);
        }
        Ok(GzipStream {
            data,
            pos: 0,
            chunk_size,
            member: None,
            finished: false,
        })
    }

    /// Decodes the next chunk of decompressed output into `dst`
    /// (cleared first). Member boundaries are invisible: a pull that
    /// finishes one member continues into the next, so `Ok(true)`
    /// always means a non-empty chunk and `Ok(false)` means the whole
    /// file is done (every trailer verified).
    ///
    /// # Errors
    ///
    /// Exactly the conditions — and values — of
    /// [`crate::gzip_decompress`] on the same input. After an error the
    /// stream is finished.
    pub fn next_chunk(&mut self, dst: &mut Vec<u8>) -> Result<bool, FlateError> {
        dst.clear();
        loop {
            if self.finished {
                return Ok(false);
            }
            if self.member.is_none() {
                if self.pos >= self.data.len() {
                    self.finished = true;
                    return Ok(false);
                }
                // Same per-member gate order as the buffered walk:
                // magic, then full header parse.
                if self.data.len() - self.pos < 2 || self.data[self.pos..self.pos + 2] != MAGIC {
                    self.finished = true;
                    return Err(FlateError::TrailingGarbage { offset: self.pos });
                }
                let body = match parse_header(self.data, self.pos) {
                    Ok(body) => body,
                    Err(e) => {
                        self.finished = true;
                        return Err(e);
                    }
                };
                self.member = Some(GzipMember {
                    inflate: InflateStream::new(&self.data[body..], self.chunk_size),
                    body_start: body,
                    crc: Crc32::new(),
                    total_len: 0,
                });
            }
            let m = self.member.as_mut().expect("member installed above");
            match m.inflate.next_chunk(dst) {
                Err(e) => {
                    self.finished = true;
                    self.member = None;
                    return Err(e);
                }
                Ok(true) => {
                    m.crc.update(dst);
                    m.total_len += dst.len() as u64;
                    if ev_trace::enabled() {
                        crate::metrics::out_bytes().add(dst.len() as u64);
                    }
                    return Ok(true);
                }
                Ok(false) => {
                    // Member stream complete and every chunk is now in
                    // the CRC. Verify framing + trailer in the buffered
                    // walk's exact order, then continue into the next
                    // member within this same pull.
                    let result = self.finish_member();
                    self.member = None;
                    if let Err(e) = result {
                        self.finished = true;
                        return Err(e);
                    }
                }
            }
        }
    }

    /// Trailer verification for the member that just finished.
    fn finish_member(&mut self) -> Result<(), FlateError> {
        let m = self.member.as_ref().expect("called with a live member");
        let trailer = m.body_start + m.inflate.bytes_consumed();
        if self.data.len() - trailer < 8 {
            return Err(FlateError::UnexpectedEof);
        }
        let (stored_crc, stored_len) = read_trailer(self.data, trailer);
        verify_trailer(m.crc.finish(), m.total_len as u32, stored_crc, stored_len)?;
        if ev_trace::enabled() {
            crate::metrics::members().add(1);
        }
        self.pos = trailer + 8;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflate::{deflate_compress, CompressionLevel};
    use crate::gzip::gzip_compress;
    use crate::{gzip_decompress, inflate};
    use ev_test::prelude::*;

    fn drain_inflate(input: &[u8], chunk_size: usize) -> Result<Vec<u8>, FlateError> {
        let mut stream = InflateStream::new(input, chunk_size);
        let mut out = Vec::new();
        let mut chunk = Vec::new();
        while stream.next_chunk(&mut chunk)? {
            assert!(!chunk.is_empty(), "streams never yield empty chunks");
            out.extend_from_slice(&chunk);
        }
        Ok(out)
    }

    fn drain_gzip(input: &[u8], chunk_size: usize) -> Result<Vec<u8>, FlateError> {
        let mut stream = GzipStream::new(input, chunk_size)?;
        let mut out = Vec::new();
        let mut chunk = Vec::new();
        while stream.next_chunk(&mut chunk)? {
            assert!(!chunk.is_empty(), "streams never yield empty chunks");
            out.extend_from_slice(&chunk);
        }
        Ok(out)
    }

    /// Varied test corpus: matches shorter and longer than the window,
    /// stored blocks, high-entropy-ish regions, and an RLE run.
    fn mixed_payload(n: usize) -> Vec<u8> {
        let mut data = Vec::with_capacity(n);
        let mut state = 0x9e37_79b9u32;
        while data.len() < n {
            match (data.len() / 977) % 3 {
                0 => data.extend_from_slice(b"shared/frame/path/segment;"),
                1 => data.extend_from_slice(&[b'=' ; 61]),
                _ => {
                    for _ in 0..13 {
                        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                        data.push((state >> 24) as u8);
                    }
                }
            }
        }
        data.truncate(n);
        data
    }

    #[test]
    fn inflate_stream_matches_buffered_across_levels_and_chunks() {
        let data = mixed_payload(200_000);
        for level in [
            CompressionLevel::Store,
            CompressionLevel::Fast,
            CompressionLevel::High,
        ] {
            let raw = deflate_compress(&data, level);
            let expected = inflate(&raw).unwrap();
            for chunk_size in [1, 7, 4096, 100_000, 1 << 22] {
                assert_eq!(
                    drain_inflate(&raw, chunk_size).unwrap(),
                    expected,
                    "level {level:?} chunk {chunk_size}"
                );
            }
        }
    }

    #[test]
    fn inflate_stream_empty_output() {
        let raw = deflate_compress(b"", CompressionLevel::Fast);
        assert_eq!(drain_inflate(&raw, 64).unwrap(), b"");
    }

    #[test]
    fn inflate_stream_error_identity_on_truncation() {
        let data = mixed_payload(50_000);
        for level in [CompressionLevel::Fast, CompressionLevel::High] {
            let raw = deflate_compress(&data, level);
            for cut in [0, 1, 2, 5, raw.len() / 2, raw.len() - 1] {
                let buffered = inflate(&raw[..cut]);
                for chunk_size in [1, 333, 1 << 20] {
                    assert_eq!(
                        drain_inflate(&raw[..cut], chunk_size),
                        buffered,
                        "cut {cut} chunk {chunk_size}"
                    );
                }
            }
        }
    }

    #[test]
    fn inflate_stream_exhausted_returns_false_forever() {
        let raw = deflate_compress(b"tail behavior", CompressionLevel::Fast);
        let mut stream = InflateStream::new(&raw, 4);
        let mut chunk = Vec::new();
        while stream.next_chunk(&mut chunk).unwrap() {}
        assert!(!stream.next_chunk(&mut chunk).unwrap());
        assert!(!stream.next_chunk(&mut chunk).unwrap());
    }

    #[test]
    fn inflate_stream_bytes_consumed_matches_member_decoder() {
        let data = mixed_payload(30_000);
        let raw = deflate_compress(&data, CompressionLevel::High);
        let (_, consumed) = crate::inflate_member(&raw, 0).unwrap();
        let mut stream = InflateStream::new(&raw, 1024);
        let mut chunk = Vec::new();
        while stream.next_chunk(&mut chunk).unwrap() {}
        assert_eq!(stream.bytes_consumed(), consumed);
    }

    #[test]
    fn gzip_stream_matches_buffered_multi_member() {
        let parts = [
            mixed_payload(70_000),
            Vec::new(),
            mixed_payload(5),
            mixed_payload(40_000),
        ];
        let mut gz = Vec::new();
        let mut expected = Vec::new();
        for (i, p) in parts.iter().enumerate() {
            let level = if i % 2 == 0 { CompressionLevel::High } else { CompressionLevel::Fast };
            gz.extend_from_slice(&gzip_compress(p, level));
            expected.extend_from_slice(p);
        }
        assert_eq!(gzip_decompress(&gz).unwrap(), expected);
        for chunk_size in [1, 1000, 64 * 1024, 1 << 24] {
            assert_eq!(
                drain_gzip(&gz, chunk_size).unwrap(),
                expected,
                "chunk {chunk_size}"
            );
        }
    }

    #[test]
    fn gzip_stream_error_identity_on_corruption() {
        let data = mixed_payload(60_000);
        let clean = gzip_compress(&data, CompressionLevel::Fast);
        let mut cases: Vec<Vec<u8>> = Vec::new();
        // Bad CRC, bad ISIZE, truncations at every framing boundary,
        // trailing garbage, a second corrupt member.
        let mut bad_crc = clean.clone();
        let n = bad_crc.len();
        bad_crc[n - 5] ^= 0xff;
        cases.push(bad_crc);
        let mut bad_len = clean.clone();
        bad_len[n - 1] ^= 0x01;
        cases.push(bad_len);
        for cut in [1, 9, 12, n / 2, n - 9, n - 1] {
            cases.push(clean[..cut].to_vec());
        }
        let mut garbage = clean.clone();
        garbage.extend_from_slice(b"#not-gzip#");
        cases.push(garbage);
        let mut two = clean.clone();
        two.extend_from_slice(&clean);
        let mid = two.len() - 7;
        two[mid] ^= 0x40;
        cases.push(two);
        for (i, case) in cases.iter().enumerate() {
            let buffered = gzip_decompress(case);
            for chunk_size in [1, 509, 1 << 20] {
                let streamed = drain_gzip(case, chunk_size);
                match (&buffered, &streamed) {
                    (Err(be), Err(se)) => assert_eq!(be, se, "case {i} chunk {chunk_size}"),
                    (Ok(b), Ok(s)) => assert_eq!(b, s, "case {i} chunk {chunk_size}"),
                    _ => panic!(
                        "case {i} chunk {chunk_size}: buffered {buffered:?} vs streamed {streamed:?}"
                    ),
                }
            }
        }
    }

    #[test]
    fn gzip_stream_rejects_non_gzip_up_front() {
        assert_eq!(
            GzipStream::new(b"plainly not gzip bytes", 1024).err(),
            Some(FlateError::NotGzip)
        );
        assert_eq!(
            GzipStream::new(&[0x1f, 0x8b, 0x08], 1024).err(),
            Some(FlateError::UnexpectedEof)
        );
    }

    property! {
        #![cases(32)]

        fn stream_differential_random_inputs(
            data in vec(any_u8(), 0..4096),
            chunk_size in 1usize..8192,
        ) {
            let gz = gzip_compress(&data, CompressionLevel::Fast);
            let buffered = gzip_decompress(&gz).unwrap();
            prop_assert_eq!(&buffered, &data);
            prop_assert_eq!(drain_gzip(&gz, chunk_size).unwrap(), buffered);
        }

        fn stream_differential_corrupted(
            data in vec(any_u8(), 64..512),
            flip in 0usize..512,
            chunk_size in 1usize..600,
        ) {
            let mut gz = gzip_compress(&data, CompressionLevel::Fast);
            let i = flip % gz.len();
            gz[i] ^= 0x10;
            let buffered = gzip_decompress(&gz);
            let streamed = drain_gzip(&gz, chunk_size);
            match (buffered, streamed) {
                (Ok(b), Ok(s)) => prop_assert_eq!(b, s),
                (Err(be), Err(se)) => prop_assert_eq!(be, se),
                (b, s) => prop_assert!(false, "buffered {:?} vs streamed {:?}", b, s),
            }
        }
    }
}
