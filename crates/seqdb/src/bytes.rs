//! Little-endian byte codec shared by the workspace's binary formats:
//! NMSEQDB's fixed-size header, record heads and footer, NMMODEL and
//! NMSTRCK.
//!
//! [`ByteReader`] is a bounds-checked cursor over a byte slice. Every read
//! names the field it decodes, so a failure says what was malformed and
//! where; each format turns a [`ByteError`] into its own error type and
//! wording. Count and length fields are read with
//! [`ByteReader::count_u32`] / [`ByteReader::count_u64`], which reject a
//! value the remaining bytes cannot hold *before* anything is allocated
//! for it. [`ByteWriter`] is the matching encoder, and [`write_durable`]
//! the crash-safe file write the artifact formats share.

use std::io::{self, Write as _};
use std::path::Path;

/// Why a [`ByteReader`] read failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ByteError {
    /// Fewer bytes were left than the field needs.
    Truncated {
        /// The field being read.
        what: &'static str,
        /// Offset of the field in the buffer.
        at: usize,
        /// Bytes the field needs.
        need: usize,
        /// Bytes that were left.
        left: usize,
    },
    /// A count or length field claims more items than the remaining bytes
    /// can hold.
    Overlong {
        /// The count field.
        what: &'static str,
        /// The value it holds.
        claimed: u64,
        /// Bytes left after the field.
        left: usize,
    },
}

/// A bounds-checked little-endian reader over a byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Number of unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ByteError> {
        let left = self.remaining();
        if n > left {
            return Err(ByteError::Truncated {
                what,
                at: self.pos,
                need: n,
                left,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], ByteError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N, what)?);
        Ok(a)
    }

    /// One byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, ByteError> {
        Ok(self.take(1, what)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, ByteError> {
        self.array(what).map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, ByteError> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, ByteError> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// A little-endian IEEE-754 `f64`, bit for bit.
    pub fn f64(&mut self, what: &'static str) -> Result<f64, ByteError> {
        self.u64(what).map(f64::from_bits)
    }

    /// A `u32` count of items that each take at least `item_len` bytes,
    /// rejected unless the remaining bytes can hold them all.
    pub fn count_u32(&mut self, item_len: usize, what: &'static str) -> Result<usize, ByteError> {
        let n = self.u32(what)?;
        self.bound(n.into(), item_len, what)
    }

    /// A `u64` count of items that each take at least `item_len` bytes,
    /// rejected unless the remaining bytes can hold them all.
    pub fn count_u64(&mut self, item_len: usize, what: &'static str) -> Result<usize, ByteError> {
        let n = self.u64(what)?;
        self.bound(n, item_len, what)
    }

    fn bound(&self, n: u64, item_len: usize, what: &'static str) -> Result<usize, ByteError> {
        let left = self.remaining();
        match usize::try_from(n) {
            Ok(count) if count.checked_mul(item_len).is_some_and(|need| need <= left) => Ok(count),
            _ => Err(ByteError::Overlong {
                what,
                claimed: n,
                left,
            }),
        }
    }
}

/// Little-endian encoders, the inverse of [`ByteReader`]'s reads.
pub trait ByteWriter {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a little-endian `u16`.
    fn put_u16(&mut self, v: u16);
    /// Appends a little-endian `u32`.
    fn put_u32(&mut self, v: u32);
    /// Appends a little-endian `u64`.
    fn put_u64(&mut self, v: u64);
    /// Appends an `f64`'s bits as a little-endian `u64`.
    fn put_f64(&mut self, v: f64);
}

impl ByteWriter for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

/// Replaces `path` with `bytes` so that a crash leaves either the old file
/// or the new one in full: the bytes go to `tmp`, are synced, and `tmp` is
/// renamed over `path`.
pub fn write_durable(path: &Path, tmp: &Path, bytes: &[u8]) -> io::Result<()> {
    {
        let mut f = std::fs::File::create(tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_width() {
        let mut out = Vec::new();
        out.put_u8(0xab);
        out.put_u16(0x0102);
        out.put_u32(0x0304_0506);
        out.put_u64(u64::MAX - 1);
        out.put_f64(-0.1875);
        assert_eq!(&out[..3], &[0xab, 0x02, 0x01]);
        let mut r = ByteReader::new(&out);
        assert_eq!(r.u8("a"), Ok(0xab));
        assert_eq!(r.u16("b"), Ok(0x0102));
        assert_eq!(r.u32("c"), Ok(0x0304_0506));
        assert_eq!(r.u64("d"), Ok(u64::MAX - 1));
        assert_eq!(r.f64("e").map(f64::to_bits), Ok((-0.1875f64).to_bits()));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn short_read_reports_field_offset_and_sizes() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        r.u8("tag").unwrap();
        assert_eq!(
            r.u32("len"),
            Err(ByteError::Truncated {
                what: "len",
                at: 1,
                need: 4,
                left: 2
            })
        );
        // A failed read consumes nothing.
        assert_eq!(r.remaining(), 2);
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        let mut buf = Vec::new();
        buf.put_u32(2);
        buf.extend_from_slice(&[0; 8]);
        assert_eq!(ByteReader::new(&buf).count_u32(4, "n"), Ok(2));
        assert_eq!(
            ByteReader::new(&buf).count_u32(5, "n"),
            Err(ByteError::Overlong {
                what: "n",
                claimed: 2,
                left: 8
            })
        );
        let mut huge = Vec::new();
        huge.put_u64(u64::MAX);
        assert!(matches!(
            ByteReader::new(&huge).count_u64(1, "n"),
            Err(ByteError::Overlong { .. })
        ));
    }
}
