//! `ev-flate` — a from-scratch DEFLATE (RFC 1951) and gzip (RFC 1952)
//! implementation, used as the compression substrate for reading and
//! writing pprof profiles.
//!
//! Real pprof profiles — the inputs to EasyView's data binding layer
//! (paper §IV-B) and to the response-time experiment (§VII-B, Fig. 5) —
//! are gzip-compressed protobuf messages. Reproducing the end-to-end
//! "open a profile" path therefore requires a decompressor on the hot
//! path; this crate provides it without external dependencies.
//!
//! Three encoders are provided, one per DEFLATE block type:
//!
//! * [`CompressionLevel::Store`] emits uncompressed stored blocks —
//!   byte-exact size control, used when calibrating benchmark inputs to a
//!   target file size.
//! * [`CompressionLevel::Fast`] runs greedy LZ77 matching over a hash
//!   chain and codes the result with the fixed Huffman tables.
//! * [`CompressionLevel::High`] searches matches more deeply and codes
//!   each block with per-block dynamic Huffman tables (length-limited
//!   canonical codes shipped through the code-length code) — zlib-class
//!   ratios.
//!
//! The decoder likewise handles all three block types, so it accepts
//! output from any conforming compressor (zlib, gzip(1), Go's
//! `compress/gzip` as used by pprof); interop is tested in both
//! directions against the system `gzip(1)` when present.
//!
//! # Examples
//!
//! ```
//! use ev_flate::{gzip_compress, gzip_decompress, CompressionLevel};
//!
//! # fn main() -> Result<(), ev_flate::FlateError> {
//! let data = b"profiles profiles profiles".repeat(10);
//! let gz = gzip_compress(&data, CompressionLevel::Fast);
//! assert!(gz.len() < data.len());
//! assert_eq!(gzip_decompress(&gz)?, data);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod bits;
mod checksum;
mod deflate;
mod dynamic;
mod gzip;
mod huffman;
mod inflate;
mod stream;

/// Cached handles for this crate's `ev-trace` counters, registered on
/// first use so the steady-state bump is one relaxed `fetch_add`.
pub(crate) mod metrics {
    use ev_trace::Counter;
    use std::sync::OnceLock;

    /// Bytes entering the codec (compressed input on inflate,
    /// uncompressed input on deflate).
    pub(crate) fn in_bytes() -> &'static Counter {
        static HANDLE: OnceLock<&'static Counter> = OnceLock::new();
        HANDLE.get_or_init(|| ev_trace::counter("flate.in_bytes"))
    }

    /// Bytes leaving the codec.
    pub(crate) fn out_bytes() -> &'static Counter {
        static HANDLE: OnceLock<&'static Counter> = OnceLock::new();
        HANDLE.get_or_init(|| ev_trace::counter("flate.out_bytes"))
    }

    /// Gzip members decoded (a multi-member file counts once per
    /// member).
    pub(crate) fn members() -> &'static Counter {
        static HANDLE: OnceLock<&'static Counter> = OnceLock::new();
        HANDLE.get_or_init(|| ev_trace::counter("flate.members"))
    }

    /// Huffman symbols resolved by a single primary-table load.
    pub(crate) fn lut_primary() -> &'static Counter {
        static HANDLE: OnceLock<&'static Counter> = OnceLock::new();
        HANDLE.get_or_init(|| ev_trace::counter("flate.lut_primary"))
    }

    /// Huffman symbols that needed the second-tier subtable hop.
    pub(crate) fn lut_sub() -> &'static Counter {
        static HANDLE: OnceLock<&'static Counter> = OnceLock::new();
        HANDLE.get_or_init(|| ev_trace::counter("flate.lut_sub"))
    }

    /// Inner-loop iterations that fell off the fused fast path onto the
    /// checked end-of-stream tail.
    pub(crate) fn lut_tail() -> &'static Counter {
        static HANDLE: OnceLock<&'static Counter> = OnceLock::new();
        HANDLE.get_or_init(|| ev_trace::counter("flate.lut_tail"))
    }

    /// Output chunks yielded by the streaming decoders.
    pub(crate) fn stream_chunks() -> &'static Counter {
        static HANDLE: OnceLock<&'static Counter> = OnceLock::new();
        HANDLE.get_or_init(|| ev_trace::counter("flate.stream_chunks"))
    }
}

pub use checksum::{crc32, crc32_reference, Crc32};
pub use deflate::{deflate_compress, CompressionLevel};
pub use gzip::{gzip_compress, gzip_decompress, gzip_decompress_with, is_gzip};
pub use inflate::{
    inflate, inflate_member, inflate_reference, inflate_reference_member, inflate_with_size_hint,
    MAX_SIZE_HINT,
};
pub use stream::{GzipStream, InflateStream, DEFAULT_CHUNK_SIZE, WINDOW_SIZE};

// Re-exported so container callers can pick a decompression policy
// without depending on `ev-par` directly.
pub use ev_par::ExecPolicy;

use std::error::Error;
use std::fmt;

/// Errors produced while compressing or decompressing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlateError {
    /// The input ended before the stream was complete.
    UnexpectedEof,
    /// A block header used the reserved block type 11.
    InvalidBlockType,
    /// A stored block's LEN and NLEN fields were not complements.
    StoredLengthMismatch,
    /// A Huffman code table was over- or under-subscribed.
    InvalidHuffmanTable,
    /// A compressed symbol did not decode to any code in the table.
    InvalidSymbol,
    /// A back-reference pointed before the start of the output.
    DistanceTooFar {
        /// Requested distance.
        distance: usize,
        /// Bytes produced so far.
        produced: usize,
    },
    /// The gzip magic bytes were missing.
    NotGzip,
    /// The gzip header used an unsupported compression method.
    UnsupportedMethod(u8),
    /// The gzip CRC32 trailer did not match the decompressed data.
    ChecksumMismatch {
        /// CRC stored in the trailer.
        expected: u32,
        /// CRC computed over the output.
        actual: u32,
    },
    /// The gzip ISIZE trailer did not match the decompressed length.
    LengthMismatch {
        /// Length stored in the trailer (mod 2^32).
        expected: u32,
        /// Actual decompressed length (mod 2^32).
        actual: u32,
    },
    /// The gzip header declared reserved flag bits.
    ReservedFlags(u8),
    /// Bytes remained after the last member's trailer that do not
    /// begin another gzip member. Trailing garbage is an error, never
    /// silently ignored.
    TrailingGarbage {
        /// Byte offset where the garbage begins.
        offset: usize,
    },
}

impl fmt::Display for FlateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlateError::UnexpectedEof => write!(f, "unexpected end of compressed stream"),
            FlateError::InvalidBlockType => write!(f, "reserved deflate block type"),
            FlateError::StoredLengthMismatch => {
                write!(f, "stored block length check failed")
            }
            FlateError::InvalidHuffmanTable => write!(f, "invalid huffman code lengths"),
            FlateError::InvalidSymbol => write!(f, "undecodable huffman symbol"),
            FlateError::DistanceTooFar { distance, produced } => {
                write!(f, "distance {distance} exceeds output size {produced}")
            }
            FlateError::NotGzip => write!(f, "missing gzip magic bytes"),
            FlateError::UnsupportedMethod(m) => {
                write!(f, "unsupported gzip compression method {m}")
            }
            FlateError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "gzip crc mismatch: stored {expected:#010x}, computed {actual:#010x}"
                )
            }
            FlateError::LengthMismatch { expected, actual } => {
                write!(f, "gzip length mismatch: stored {expected}, computed {actual}")
            }
            FlateError::ReservedFlags(bits) => {
                write!(f, "gzip header sets reserved flag bits {bits:#04x}")
            }
            FlateError::TrailingGarbage { offset } => {
                write!(f, "trailing garbage after gzip member at byte {offset}")
            }
        }
    }
}

impl Error for FlateError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_nonempty() {
        let errs = [
            FlateError::UnexpectedEof,
            FlateError::InvalidBlockType,
            FlateError::StoredLengthMismatch,
            FlateError::InvalidHuffmanTable,
            FlateError::InvalidSymbol,
            FlateError::DistanceTooFar {
                distance: 9,
                produced: 1,
            },
            FlateError::NotGzip,
            FlateError::UnsupportedMethod(9),
            FlateError::ChecksumMismatch {
                expected: 1,
                actual: 2,
            },
            FlateError::LengthMismatch {
                expected: 1,
                actual: 2,
            },
            FlateError::ReservedFlags(0xe0),
            FlateError::TrailingGarbage { offset: 42 },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
