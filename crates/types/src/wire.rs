//! Binary wire primitives shared by every crate that puts a type on the
//! socket.
//!
//! The TCP mesh ships each message as a hand-written, fixed-width binary
//! payload (see `docs/RUNTIME.md`, "The wire format"). Each wire type
//! implements [`Wire`] next to its definition — bottom-up along the crate
//! DAG — and this module holds what they share: the trait, the
//! little-endian append helpers, the bounds-checked [`Reader`] cursor and the
//! [`WireError`] a hostile or corrupt payload decodes to.
//!
//! # Layout rules
//!
//! * integers are fixed-width little-endian;
//! * an enum is a 1-byte tag followed by the variant's fields, an `Option`
//!   a 1-byte `0`/`1` presence tag;
//! * a sequence is a `u32` count followed by the items, and the decoder
//!   checks the count against the bytes that remain **before** allocating
//!   ([`Reader::count`]), so no payload can make it reserve more memory than
//!   the payload itself occupies;
//! * unknown tags and bytes left over after the value ([`Reader::finish`])
//!   are errors, never ignored.

use std::fmt;

/// Why a payload did not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A field needed more bytes than the payload has left.
    Truncated {
        /// The field being read.
        what: &'static str,
        /// Bytes the field needs.
        need: usize,
        /// Bytes remaining.
        have: usize,
    },
    /// An enum or `Option` tag byte with no assigned meaning.
    UnknownTag {
        /// The type whose tag was being read.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A sequence count that the remaining bytes cannot possibly hold (or
    /// that the type forbids), rejected before any allocation.
    BadCount {
        /// The sequence being read.
        what: &'static str,
        /// The announced item count.
        count: u32,
        /// Bytes remaining after the count field.
        have: usize,
    },
    /// The value decoded but bytes were left over.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { what, need, have } => {
                write!(f, "{what} truncated: needs {need} bytes, {have} remain")
            }
            WireError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            WireError::BadCount { what, count, have } => {
                write!(
                    f,
                    "{what} count {count} is impossible with {have} bytes remaining"
                )
            }
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the message"),
        }
    }
}

impl std::error::Error for WireError {}

/// A type with a binary wire form.
///
/// `encode_into` appends exactly `encoded_len()` bytes, and `decode` reads
/// exactly those bytes back into an equal value.
pub trait Wire: Sized {
    /// Exact number of bytes [`Wire::encode_into`] appends, computed from
    /// the structure without encoding.
    fn encoded_len(&self) -> usize;

    /// Appends the wire form to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Reads one value off the front of `r`.
    ///
    /// # Errors
    ///
    /// A [`WireError`] if the bytes are truncated, carry an unknown tag or
    /// announce an impossible count. Never panics, whatever the input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Decodes `bytes` as exactly one value: anything left over is
    /// [`WireError::TrailingBytes`].
    fn decode_exact(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let value = Self::decode(&mut r)?;
        r.finish()?;
        Ok(value)
    }
}

/// Appends a `u32`, little-endian.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a `u64`, little-endian.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends an `i64`, little-endian two's complement.
#[inline]
pub fn put_i64(out: &mut Vec<u8>, value: i64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// A bounds-checked cursor over a received payload.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    #[inline]
    fn take<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], WireError> {
        let Some((head, tail)) = self.rest.split_first_chunk::<N>() else {
            return Err(WireError::Truncated {
                what,
                need: N,
                have: self.rest.len(),
            });
        };
        self.rest = tail;
        Ok(*head)
    }

    /// Reads an enum or `Option` tag byte of the type named `what`.
    #[inline]
    pub fn tag(&mut self, what: &'static str) -> Result<u8, WireError> {
        self.take::<1>(what).map(|[b]| b)
    }

    /// Reads a little-endian `u32` field named `what`.
    #[inline]
    pub fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        self.take(what).map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64` field named `what`.
    #[inline]
    pub fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        self.take(what).map(u64::from_le_bytes)
    }

    /// Reads a little-endian `i64` field named `what`.
    #[inline]
    pub fn i64(&mut self, what: &'static str) -> Result<i64, WireError> {
        self.take(what).map(i64::from_le_bytes)
    }

    /// Reads the `u32` count of the sequence named `what`, whose items are
    /// `item_len` bytes each, and rejects it unless that many items fit in
    /// the bytes that remain — so the caller may `Vec::with_capacity` the
    /// result: the allocation never exceeds the payload that backs it.
    pub fn count(&mut self, what: &'static str, item_len: usize) -> Result<usize, WireError> {
        let count = self.u32(what)?;
        match (count as usize).checked_mul(item_len) {
            Some(bytes) if bytes <= self.rest.len() => Ok(count as usize),
            _ => Err(WireError::BadCount {
                what,
                count,
                have: self.rest.len(),
            }),
        }
    }

    /// Ends decoding: bytes left over are an error.
    pub fn finish(self) -> Result<(), WireError> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(WireError::TrailingBytes(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_round_trip_little_endian() {
        let mut out = Vec::new();
        put_u32(&mut out, 0x0102_0304);
        put_u64(&mut out, u64::MAX - 1);
        put_i64(&mut out, -1);
        assert_eq!(&out[..4], &[4, 3, 2, 1]);
        let mut r = Reader::new(&out);
        assert_eq!(r.u32("a").unwrap(), 0x0102_0304);
        assert_eq!(r.u64("b").unwrap(), u64::MAX - 1);
        assert_eq!(r.i64("c").unwrap(), -1);
        assert_eq!(r.remaining(), 0);
        assert!(r.finish().is_ok());
    }

    #[test]
    fn truncated_fields_and_trailing_bytes_are_errors() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(
            r.u32("field"),
            Err(WireError::Truncated {
                what: "field",
                need: 4,
                have: 3
            })
        );
        // A failed read consumes nothing.
        assert_eq!(r.tag("t").unwrap(), 1);
        assert_eq!(r.finish(), Err(WireError::TrailingBytes(2)));
    }

    #[test]
    fn counts_are_checked_against_remaining_bytes() {
        // Two 12-byte items announced, 24 bytes follow: accepted.
        let mut bytes = 2u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 24]);
        assert_eq!(Reader::new(&bytes).count("seq", 12).unwrap(), 2);
        // Three announced: rejected before anything is allocated.
        bytes[0] = 3;
        assert_eq!(
            Reader::new(&bytes).count("seq", 12),
            Err(WireError::BadCount {
                what: "seq",
                count: 3,
                have: 24
            })
        );
        // u32::MAX announced: the multiplication cannot wrap into range.
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Reader::new(&bytes).count("seq", 12),
            Err(WireError::BadCount { .. })
        ));
    }

    #[test]
    fn errors_name_the_field() {
        let e = WireError::UnknownTag {
            what: "WireMessage",
            tag: 9,
        };
        assert_eq!(e.to_string(), "unknown WireMessage tag 0x09");
        assert!(WireError::TrailingBytes(3).to_string().contains('3'));
    }
}
