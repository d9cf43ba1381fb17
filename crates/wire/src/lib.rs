//! `ev-wire` — a from-scratch implementation of the Protocol Buffers wire
//! format, used as the serialization substrate for EasyView's generic
//! profile representation and for parsing/emitting pprof profiles.
//!
//! The paper expresses EasyView's representation "in a Protocol Buffer
//! schema" (§IV-A, Fig. 2) and binds it to pprof, whose on-disk format is a
//! gzip-compressed protobuf message. This crate implements the encoding
//! layer of that stack: base-128 varints, ZigZag signed encoding, wire-type
//! tags, length-delimited fields, and little-endian fixed-width fields, per
//! the official wire-format specification.
//!
//! It deliberately does *not* implement `.proto` schema compilation;
//! message types in `ev-core` and `ev-formats` hand-roll their field
//! bindings on top of [`Writer`] and [`Reader`], exactly like a `protoc`
//! generated module would.
//!
//! # Examples
//!
//! ```
//! use ev_wire::{Reader, Writer, WireType};
//!
//! # fn main() -> Result<(), ev_wire::WireError> {
//! let mut w = Writer::new();
//! w.write_uint64(1, 150); // field #1, varint
//! w.write_string(2, "easyview"); // field #2, length-delimited
//! let bytes = w.into_bytes();
//!
//! let mut r = Reader::new(&bytes);
//! let (field, ty) = r.read_tag()?.unwrap();
//! assert_eq!((field, ty), (1, WireType::Varint));
//! assert_eq!(r.read_varint()?, 150);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod reader;
mod stream;
mod varint;
mod walker;
mod writer;

pub use reader::Reader;
pub use stream::{ChunkSource, StreamError, StreamReader};
pub use varint::{decode_varint, encode_varint, zigzag_decode, zigzag_encode};
pub use walker::{decode_packed_int64, decode_packed_uint64, FieldSpan, FieldValue};
pub use writer::Writer;

use std::error::Error;
use std::fmt;

/// The wire type of a protobuf field, stored in the low 3 bits of a tag.
///
/// Group wire types (3 and 4) are deprecated in protobuf and are rejected
/// by [`Reader::read_tag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireType {
    /// Wire type 0: base-128 varint (`int32`, `int64`, `uint64`, `bool`, enums).
    Varint,
    /// Wire type 1: 8-byte little-endian (`fixed64`, `sfixed64`, `double`).
    Fixed64,
    /// Wire type 2: length-delimited (`string`, `bytes`, embedded messages,
    /// packed repeated fields).
    LengthDelimited,
    /// Wire type 5: 4-byte little-endian (`fixed32`, `sfixed32`, `float`).
    Fixed32,
}

impl WireType {
    /// Decodes a wire type from the low 3 bits of a tag.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::InvalidWireType`] for the deprecated group wire
    /// types (3, 4) and the reserved values (6, 7).
    pub fn from_bits(bits: u64) -> Result<WireType, WireError> {
        match bits & 0x7 {
            0 => Ok(WireType::Varint),
            1 => Ok(WireType::Fixed64),
            2 => Ok(WireType::LengthDelimited),
            5 => Ok(WireType::Fixed32),
            other => Err(WireError::InvalidWireType(other as u8)),
        }
    }

    /// Returns the 3-bit encoding of this wire type.
    pub fn bits(self) -> u64 {
        match self {
            WireType::Varint => 0,
            WireType::Fixed64 => 1,
            WireType::LengthDelimited => 2,
            WireType::Fixed32 => 5,
        }
    }
}

impl fmt::Display for WireType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            WireType::Varint => "varint",
            WireType::Fixed64 => "fixed64",
            WireType::LengthDelimited => "length-delimited",
            WireType::Fixed32 => "fixed32",
        };
        f.write_str(name)
    }
}

/// Errors produced while encoding or decoding the wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended in the middle of a value.
    UnexpectedEof,
    /// A varint ran past 10 bytes without terminating.
    VarintOverflow,
    /// A tag carried a wire type this implementation rejects.
    InvalidWireType(u8),
    /// A tag carried field number zero, which protobuf forbids.
    ZeroFieldNumber,
    /// A length-delimited field claimed more bytes than remain in the input.
    LengthOutOfBounds {
        /// Claimed payload length.
        wanted: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// A `string` field contained invalid UTF-8.
    InvalidUtf8,
    /// Recursion limit exceeded while skipping nested data.
    RecursionLimit,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of input"),
            WireError::VarintOverflow => write!(f, "varint exceeds 10 bytes"),
            WireError::InvalidWireType(b) => write!(f, "invalid wire type {b}"),
            WireError::ZeroFieldNumber => write!(f, "field number must be nonzero"),
            WireError::LengthOutOfBounds { wanted, available } => {
                write!(f, "length {wanted} exceeds remaining input {available}")
            }
            WireError::InvalidUtf8 => write!(f, "string field is not valid utf-8"),
            WireError::RecursionLimit => write!(f, "message nesting too deep"),
        }
    }
}

impl Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_type_roundtrip() {
        for ty in [
            WireType::Varint,
            WireType::Fixed64,
            WireType::LengthDelimited,
            WireType::Fixed32,
        ] {
            assert_eq!(WireType::from_bits(ty.bits()).unwrap(), ty);
        }
    }

    #[test]
    fn wire_type_rejects_groups_and_reserved() {
        for bits in [3u64, 4, 6, 7] {
            assert_eq!(
                WireType::from_bits(bits),
                Err(WireError::InvalidWireType(bits as u8))
            );
        }
    }

    #[test]
    fn wire_type_ignores_high_bits() {
        assert_eq!(WireType::from_bits(0x18).unwrap(), WireType::Varint);
    }

    #[test]
    fn error_display_nonempty() {
        let errs: Vec<WireError> = vec![
            WireError::UnexpectedEof,
            WireError::VarintOverflow,
            WireError::InvalidWireType(3),
            WireError::ZeroFieldNumber,
            WireError::LengthOutOfBounds {
                wanted: 10,
                available: 2,
            },
            WireError::InvalidUtf8,
            WireError::RecursionLimit,
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
