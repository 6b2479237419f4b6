//! Bounds-checked little-endian byte encoding for page payloads.
//!
//! Tree nodes are serialized by hand (no serde in the hot path): layouts
//! are tiny, fixed, and version-controlled by the node code itself. These
//! two cursors keep the call sites readable and panic-free.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

/// Error produced when decoding runs past the end of a page or encounters
/// an impossible value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Tried to read `wanted` bytes with only `available` left.
    OutOfBounds { wanted: usize, available: usize },
    /// A decoded discriminant or count was not valid for the target type.
    InvalidValue(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::OutOfBounds { wanted, available } => {
                write!(
                    f,
                    "decode out of bounds: wanted {wanted} bytes, {available} available"
                )
            }
            CodecError::InvalidValue(what) => write!(f, "invalid encoded value: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only little-endian writer over a byte buffer.
///
/// Every method is `#[inline]`, for the reason [`ByteReader`]'s are:
/// encoding a node is then a run of stores at known offsets, not a call
/// and a bounds check per field.
///
/// # Panics
/// Writing past the end of the buffer panics — encoders size their nodes
/// against the page capacity statically, so an overflow is a programming
/// error, not a runtime condition.
pub struct ByteWriter<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl<'a> ByteWriter<'a> {
    /// Start writing at the beginning of `buf`.
    #[inline]
    pub fn new(buf: &'a mut [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes written so far.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        let end = self.pos + bytes.len();
        assert!(
            end <= self.buf.len(),
            "page overflow at byte {end}/{}",
            self.buf.len()
        );
        #[expect(
            clippy::indexing_slicing,
            reason = "the assert above bounds `end` by the buffer length"
        )]
        self.buf[self.pos..end].copy_from_slice(bytes);
        self.pos = end;
    }

    /// Write a `u8`.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    /// Write a `u16` (little-endian).
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.put(&v.to_le_bytes());
    }

    /// Write a `u32` (little-endian).
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// Write a `u64` (little-endian).
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// Write an `f64` (little-endian IEEE-754 bits).
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put(&v.to_le_bytes());
    }
}

/// Little-endian reader over a byte buffer with explicit error results.
///
/// Every method is `#[inline]`: over a fixed-size record (a node entry)
/// the caller's optimizer then sees constant offsets and a constant
/// length, and the bounds checks fold away.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Start reading at the beginning of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.pos + n > self.buf.len() {
            return Err(CodecError::OutOfBounds {
                wanted: n,
                available: self.buf.len() - self.pos,
            });
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "the check above returned OutOfBounds unless `pos + n <= buf.len()`"
        )]
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Take exactly `N` bytes as a fixed-size array, without any
    /// slice-length fallibility at the call sites.
    #[inline]
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Read a `u8`.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(u8::from_le_bytes(self.take_array()?))
    }

    /// Read a `u16`.
    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    /// Read a `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Read a `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Read an `f64`.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.take_array()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip_all_types() {
        let mut buf = [0u8; 64];
        let mut w = ByteWriter::new(&mut buf);
        w.put_u8(0xab);
        w.put_u16(0x1234);
        w.put_u32(0xdead_beef);
        w.put_u64(0x0123_4567_89ab_cdef);
        w.put_f64(-1.5e300);
        let written = w.position();
        assert_eq!(written, 1 + 2 + 4 + 8 + 8);

        let mut r = ByteReader::new(&buf[..written]);
        assert_eq!(r.get_u8().unwrap(), 0xab);
        assert_eq!(r.get_u16().unwrap(), 0x1234);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.get_f64().unwrap(), -1.5e300);
        assert_eq!(r.position(), written);
    }

    #[test]
    fn reader_reports_out_of_bounds() {
        let buf = [0u8; 3];
        let mut r = ByteReader::new(&buf);
        r.get_u8().unwrap();
        let err = r.get_u32().unwrap_err();
        assert_eq!(
            err,
            CodecError::OutOfBounds {
                wanted: 4,
                available: 2
            }
        );
        assert!(err.to_string().contains("wanted 4"));
    }

    #[test]
    #[should_panic(expected = "page overflow")]
    fn writer_panics_on_overflow() {
        let mut buf = [0u8; 4];
        let mut w = ByteWriter::new(&mut buf);
        w.put_u64(1);
    }

    #[test]
    fn nan_round_trips_bitwise() {
        let mut buf = [0u8; 8];
        ByteWriter::new(&mut buf).put_f64(f64::NAN);
        let v = ByteReader::new(&buf).get_f64().unwrap();
        assert!(v.is_nan());
    }

    proptest! {
        #[test]
        fn u64_f64_round_trip(a in any::<u64>(), b in any::<f64>()) {
            let mut buf = [0u8; 16];
            let mut w = ByteWriter::new(&mut buf);
            w.put_u64(a);
            w.put_f64(b);
            let mut r = ByteReader::new(&buf);
            prop_assert_eq!(r.get_u64().unwrap(), a);
            let back = r.get_f64().unwrap();
            prop_assert_eq!(back.to_bits(), b.to_bits());
        }
    }
}
