//! Byte-stable wire codec primitives.
//!
//! [`Wire`] is the serialization contract of the transport layer: a
//! hand-rolled, little-endian, length-prefixed encoding with no
//! external dependencies. Every encoder writes into a caller-supplied
//! buffer (so steady-state send paths can reuse one scratch
//! allocation), and every decoder reads through a bounds-checked
//! [`WireReader`] — malformed input surfaces as a typed [`WireError`],
//! never a panic.
//!
//! The encoding is *byte-stable*: `decode(encode(x))` re-encodes to the
//! identical byte string. Floats are carried as raw IEEE-754 bits
//! (`f64::to_bits`), so even NaN payloads round-trip exactly; the wire
//! round-trip proptests in `greenps-broker` pin this property for the
//! full broker message vocabulary.

use std::fmt;

/// Decoding failure: the input does not parse as the expected shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    Truncated,
    /// An enum tag byte had no corresponding variant.
    BadTag(u8),
    /// A length prefix exceeded the remaining input or a sanity bound.
    BadLength(u64),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A field value violated a domain invariant (e.g. a zero
    /// bit-vector capacity).
    BadValue,
    /// Decoding finished with unconsumed bytes left in the buffer.
    TrailingBytes,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => f.write_str("wire input truncated"),
            WireError::BadTag(t) => write!(f, "unknown wire tag {t}"),
            WireError::BadLength(n) => write!(f, "implausible wire length {n}"),
            WireError::BadUtf8 => f.write_str("wire string is not UTF-8"),
            WireError::BadValue => f.write_str("wire value violates a domain invariant"),
            WireError::TrailingBytes => f.write_str("trailing bytes after wire value"),
        }
    }
}

impl std::error::Error for WireError {}

/// A bounds-checked cursor over an input buffer.
///
/// All reads advance the cursor; a read past the end returns
/// [`WireError::Truncated`] and leaves the cursor unchanged.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wraps a buffer for reading from the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(bytes)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let b = self.take(1)?;
        b.first().copied().ok_or(WireError::Truncated)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b: [u8; 4] = self.take(4)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b: [u8; 8] = self.take(8)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        let b: [u8; 8] = self.take(8)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(i64::from_le_bytes(b))
    }

    /// Reads an `f64` carried as raw IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool` encoded as a `0`/`1` byte.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }

    /// Reads a `u32`-length-prefixed byte count, validated against the
    /// bytes actually remaining.
    pub fn seq_len(&mut self) -> Result<usize, WireError> {
        self.seq_len_of(1)
    }

    /// Reads a `u32`-length-prefixed collection count whose elements
    /// each encode to at least `min_bytes` bytes, validated against
    /// the bytes actually remaining — so a decoder may reserve for the
    /// count it returns: what it reserves is bounded by the frame in
    /// hand, not by a number the peer wrote.
    pub fn seq_len_of(&mut self, min_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()?;
        let n_usize = usize::try_from(n).map_err(|_| WireError::BadLength(u64::from(n)))?;
        if n_usize.saturating_mul(min_bytes.max(1)) > self.remaining() {
            return Err(WireError::BadLength(u64::from(n)));
        }
        Ok(n_usize)
    }

    /// Reads a `u32`-length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.seq_len()?;
        self.take(n)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string slice.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| WireError::BadUtf8)
    }

    /// Runs `read` on this cursor and returns what it returned with the
    /// bytes it consumed, so a receiver can check a value in place and
    /// keep its encoding instead of building it.
    pub fn spanned<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<(T, &'a [u8]), WireError> {
        let start = self.pos;
        let value = read(self)?;
        let span = self.buf.get(start..self.pos).ok_or(WireError::Truncated)?;
        Ok((value, span))
    }
}

/// Appends one byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `i64`.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as raw IEEE-754 bits.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a `bool` as a `0`/`1` byte.
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Appends a collection count as a `u32` prefix. Counts above
/// `u32::MAX` saturate — the greenps message vocabulary never comes
/// within orders of magnitude of that bound.
pub fn put_seq_len(out: &mut Vec<u8>, n: usize) {
    put_u32(out, u32::try_from(n).unwrap_or(u32::MAX));
}

/// Appends a `u32`-length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_seq_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// A value with a byte-stable wire encoding.
///
/// `encode` appends to a caller-owned buffer so hot send paths can
/// reuse one scratch `Vec` across messages; `decode` must consume
/// exactly the bytes `encode` produced.
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Reads one value from the cursor.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

/// Decodes a complete buffer, requiring every byte to be consumed.
pub fn decode_exact<T: Wire>(buf: &[u8]) -> Result<T, WireError> {
    let mut r = WireReader::new(buf);
    let v = T::decode(&mut r)?;
    if !r.is_empty() {
        return Err(WireError::TrailingBytes);
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 40_000);
        put_u64(&mut buf, u64::MAX - 3);
        put_i64(&mut buf, -12);
        put_f64(&mut buf, f64::NAN);
        put_bool(&mut buf, true);
        put_str(&mut buf, "YHOO");
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 40_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i64().unwrap(), -12);
        assert!(r.f64().unwrap().is_nan());
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "YHOO");
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut r = WireReader::new(&[1, 2]);
        assert_eq!(r.u32(), Err(WireError::Truncated));
        assert_eq!(r.remaining(), 2, "failed read consumes nothing");
    }

    #[test]
    fn implausible_sequence_lengths_are_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 1_000_000);
        let mut r = WireReader::new(&buf);
        assert!(matches!(r.seq_len(), Err(WireError::BadLength(_))));
    }

    #[test]
    fn sequence_counts_are_bounded_by_the_smallest_element() {
        // Count 3, then 20 bytes: room for three 6-byte elements, not
        // for three 7-byte ones.
        let mut buf = Vec::new();
        put_u32(&mut buf, 3);
        buf.extend_from_slice(&[0; 20]);
        assert_eq!(WireReader::new(&buf).seq_len_of(6), Ok(3));
        assert_eq!(
            WireReader::new(&buf).seq_len_of(7),
            Err(WireError::BadLength(3))
        );
        assert_eq!(WireReader::new(&buf).seq_len_of(0), Ok(3));
    }

    #[test]
    fn a_span_is_the_bytes_its_read_consumed() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 1);
        put_str(&mut buf, "YHOO");
        put_u8(&mut buf, 2);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8(), Ok(1));
        let (s, span) = r.spanned(|r| r.str()).unwrap();
        assert_eq!((s, span), ("YHOO", &buf[1..9]));
        assert_eq!(r.u8(), Ok(2));
        assert_eq!(r.spanned(|r| r.u8()), Err(WireError::Truncated));
    }

    #[test]
    fn bad_bool_byte_is_a_tag_error() {
        let mut r = WireReader::new(&[9]);
        assert_eq!(r.bool(), Err(WireError::BadTag(9)));
    }

    #[test]
    fn nan_bits_are_preserved_exactly() {
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut buf = Vec::new();
        put_f64(&mut buf, weird);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.f64().unwrap().to_bits(), weird.to_bits());
    }
}
