//! The workspace's one little-endian decoder: a bounds-checked cursor over
//! a byte slice. Packed rows cross two byte boundaries — the `SHPK`
//! archive in `spechd-store` and the `SPHD` wire in `spechd-server` — and
//! both read every fixed-width field and every row of words through it,
//! each mapping a [`Short`] read into its own error type.

/// A read that wanted more bytes than the cursor had left. The cursor did
/// not move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Short {
    /// Bytes the read asked for.
    pub wanted: usize,
    /// The cursor's position at the read.
    pub at: usize,
    /// Bytes left from `at` on.
    pub have: usize,
}

impl std::fmt::Display for Short {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Short { wanted, at, have } = self;
        write!(f, "wanted {wanted} bytes at offset {at}, have {have}")
    }
}

impl std::error::Error for Short {}

/// Reads little-endian fields front to back from a byte slice. Every read
/// either consumes exactly its width or fails with a [`Short`] and
/// consumes nothing.
#[derive(Debug, Clone)]
pub struct LeReader<'a> {
    /// The bytes not yet read. A read moves only this slice, and the
    /// position is derived from it.
    rest: &'a [u8],
    /// Length of the whole input.
    len: usize,
}

impl<'a> LeReader<'a> {
    /// A cursor at the first byte of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            rest: bytes,
            len: bytes.len(),
        }
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn position(&self) -> usize {
        self.len - self.rest.len()
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Short> {
        if n > self.rest.len() {
            return Err(Short {
                wanted: n,
                at: self.position(),
                have: self.rest.len(),
            });
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    /// The next `N` bytes, by value.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], Short> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, Short> {
        self.array().map(u8::from_le_bytes)
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, Short> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, Short> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, Short> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian two's-complement `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, Short> {
        self.array().map(i64::from_le_bytes)
    }

    /// A little-endian IEEE-754 `f32`, bit for bit.
    #[inline]
    pub fn f32(&mut self) -> Result<f32, Short> {
        self.array().map(f32::from_le_bytes)
    }

    /// A little-endian IEEE-754 `f64`, bit for bit.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, Short> {
        self.array().map(f64::from_le_bytes)
    }

    /// `n` little-endian `u64` words — a packed row, or a row slab — in
    /// one pass over their `8 n` bytes. A byte count past `usize::MAX`
    /// is a [`Short`] of `usize::MAX` bytes.
    #[inline]
    pub fn words(&mut self, n: usize) -> Result<Vec<u64>, Short> {
        let bytes = self.take(n.saturating_mul(8))?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| {
                let mut word = [0; 8];
                word.copy_from_slice(c);
                u64::from_le_bytes(word)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_width_reads_little_endian() {
        let mut bytes = vec![0xAB];
        bytes.extend(0x0102u16.to_le_bytes());
        bytes.extend(0x0304_0506u32.to_le_bytes());
        bytes.extend(0x0708_090A_0B0C_0D0Eu64.to_le_bytes());
        bytes.extend((-2i64).to_le_bytes());
        bytes.extend(1.5f32.to_le_bytes());
        bytes.extend((-0.25f64).to_le_bytes());
        bytes.extend(*b"SHPK");
        let mut r = LeReader::new(&bytes);
        assert_eq!(r.u8(), Ok(0xAB));
        assert_eq!(r.u16(), Ok(0x0102));
        assert_eq!(r.u32(), Ok(0x0304_0506));
        assert_eq!(r.u64(), Ok(0x0708_090A_0B0C_0D0E));
        assert_eq!(r.i64(), Ok(-2));
        assert_eq!(r.f32(), Ok(1.5));
        assert_eq!(r.f64(), Ok(-0.25));
        assert_eq!(r.array::<4>(), Ok(*b"SHPK"));
        assert_eq!((r.position(), r.remaining()), (bytes.len(), 0));
        // The byte order is fixed, not the host's.
        assert_eq!(LeReader::new(&[1, 0]).u16(), Ok(1));
        assert_eq!(LeReader::new(&[0, 0, 0, 0x80]).u32(), Ok(1 << 31));
    }

    #[test]
    fn a_short_read_reports_itself_and_does_not_advance() {
        let bytes = [1, 2, 3, 4, 5, 6, 7];
        let mut r = LeReader::new(&bytes);
        assert_eq!(r.u16(), Ok(0x0201));
        let short = Short {
            wanted: 8,
            at: 2,
            have: 5,
        };
        assert_eq!(r.u64(), Err(short));
        assert_eq!(r.f64(), Err(short));
        assert_eq!(r.words(1), Err(short));
        assert_eq!(short.to_string(), "wanted 8 bytes at offset 2, have 5");
        assert_eq!((r.position(), r.remaining()), (2, 5));
        // Nothing was consumed, so the bytes are still there to read.
        assert_eq!(r.u32(), Ok(0x0605_0403));
        assert_eq!(r.take(1), Ok(&[7][..]));
        assert_eq!(
            r.u8(),
            Err(Short {
                wanted: 1,
                at: 7,
                have: 0
            })
        );
        assert_eq!(r.take(0), Ok(&[][..]));
    }

    #[test]
    fn words_equal_that_many_u64_reads() {
        let bytes: Vec<u8> = (0..=255u8).cycle().skip(3).take(8 * 9 + 5).collect();
        for n in 0..=9 {
            let mut one_pass = LeReader::new(&bytes);
            let mut one_by_one = LeReader::new(&bytes);
            let expected: Vec<u64> = (0..n).map(|_| one_by_one.u64().unwrap()).collect();
            assert_eq!(one_pass.words(n), Ok(expected));
            assert_eq!(one_pass.position(), one_by_one.position());
        }
        let mut r = LeReader::new(&bytes);
        assert_eq!(r.words(10).unwrap_err().wanted, 80);
        assert_eq!(r.position(), 0);
    }

    #[test]
    fn huge_requests_are_short_not_overflow() {
        let bytes = [0; 16];
        let mut r = LeReader::new(&bytes);
        r.take(3).unwrap();
        let short = |wanted| Short {
            wanted,
            at: 3,
            have: 13,
        };
        assert_eq!(r.take(usize::MAX), Err(short(usize::MAX)));
        assert_eq!(r.words(usize::MAX), Err(short(usize::MAX)));
        assert_eq!(r.words(usize::MAX / 8 + 1), Err(short(usize::MAX)));
        assert_eq!((r.position(), r.remaining()), (3, 13));
    }
}
