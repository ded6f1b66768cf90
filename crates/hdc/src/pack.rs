//! Contiguous struct-of-arrays storage for packed hypervectors.
//!
//! [`BinaryHypervector`] owns its words in a private `Vec<u64>`, so a
//! collection of N hypervectors is N separate heap allocations — fine for
//! algebra on a handful of vectors, hostile to the batch distance kernel
//! that wants to stream millions of XOR+popcount lanes the way the FPGA
//! streams packed spectra out of HBM. [`HvPack`] is the batch counterpart:
//! all N rows live back-to-back in one flat `Vec<u64>` with a fixed
//! per-row stride of `dim.div_ceil(64)` words, giving the tiled kernels in
//! [`crate::distance`] cache-friendly, allocation-free row views.

use crate::BinaryHypervector;

/// A structural defect found while building an [`HvPack`] from untrusted
/// words (rows off the wire or out of a file).
///
/// The panicking build API ([`HvPack::push`], [`HvPack::push_row_words`])
/// treats malformed rows as caller bugs; deserializers instead use the
/// fallible [`HvPack::from_raw_parts`] and surface these as data errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackError {
    /// The dimensionality was zero.
    ZeroDim,
    /// The word buffer is not a whole number of `stride`-sized rows.
    WordCountMismatch {
        /// Words per row the pack requires (`dim.div_ceil(64)`).
        stride: usize,
        /// Words actually supplied.
        found: usize,
    },
    /// A row has bits set beyond `dim` in its last word, violating the
    /// tail invariant the distance kernels rely on.
    NonZeroTail {
        /// Index of the offending row.
        row: usize,
    },
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackError::ZeroDim => write!(f, "hypervector dimensionality must be positive"),
            PackError::WordCountMismatch { stride, found } => write!(
                f,
                "word count {found} is not a multiple of the row stride {stride}"
            ),
            PackError::NonZeroTail { row } => {
                write!(f, "row {row} has non-zero bits beyond the dimensionality")
            }
        }
    }
}

impl std::error::Error for PackError {}

/// A contiguous store of `len` bit-packed hypervectors sharing one
/// dimensionality.
///
/// Rows are stored back-to-back in a single `Vec<u64>`; row `i` occupies
/// `words[i * stride .. (i + 1) * stride]` with `stride = dim.div_ceil(64)`
/// (little-endian bit order within each word, identical to
/// [`BinaryHypervector::words`]).
///
/// The tail invariant of [`BinaryHypervector`] carries over: bits beyond
/// `dim` in the last word of every row are zero. All constructors and the
/// batch encoder preserve it (the distance kernels rely on it so that the
/// masked tail never contributes to a popcount).
///
/// # Examples
///
/// ```
/// use spechd_hdc::{BinaryHypervector, HvPack};
///
/// let a = BinaryHypervector::from_fn(100, |i| i % 2 == 0);
/// let b = BinaryHypervector::from_fn(100, |i| i % 3 == 0);
/// let pack = HvPack::from_hypervectors(100, &[a.clone(), b.clone()]);
/// assert_eq!(pack.len(), 2);
/// assert_eq!(pack.stride(), 2);
/// assert_eq!(pack.hamming(0, 1), a.hamming(&b));
/// assert_eq!(pack.hypervector(0), a);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct HvPack {
    dim: usize,
    stride: usize,
    len: usize,
    words: Vec<u64>,
}

impl HvPack {
    /// Creates an empty pack for hypervectors of dimensionality `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        Self::with_capacity(dim, 0)
    }

    /// Creates an empty pack with storage reserved for `n` rows.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or if `n` rows of storage would overflow
    /// `usize`.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim > 0, "hypervector dimensionality must be positive");
        let stride = dim.div_ceil(64);
        let cap = stride
            .checked_mul(n)
            .unwrap_or_else(|| panic!("HvPack storage for {n} rows of dim {dim} overflows usize"));
        Self {
            dim,
            stride,
            len: 0,
            words: Vec::with_capacity(cap),
        }
    }

    /// Packs a slice of hypervectors into contiguous storage.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or any element's dimensionality differs from
    /// `dim`.
    pub fn from_hypervectors(dim: usize, hvs: &[BinaryHypervector]) -> Self {
        let mut pack = Self::with_capacity(dim, hvs.len());
        for hv in hvs {
            pack.push(hv);
        }
        pack
    }

    /// Appends one hypervector as a new row.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionality differs from the pack's.
    pub fn push(&mut self, hv: &BinaryHypervector) {
        assert_eq!(
            hv.dim(),
            self.dim,
            "pack/hypervector dimensionality mismatch"
        );
        self.words.extend_from_slice(hv.words());
        self.len += 1;
    }

    /// Appends an all-zero row and returns a mutable view of it, for
    /// callers that fill rows in place (the batch encoder does this to
    /// avoid intermediate allocations).
    ///
    /// Writers must keep bits beyond `dim` in the last word zero.
    pub(crate) fn push_zeroed(&mut self) -> &mut [u64] {
        self.words.resize(self.words.len() + self.stride, 0);
        self.len += 1;
        let start = (self.len - 1) * self.stride;
        &mut self.words[start..start + self.stride]
    }

    /// Appends one row from pre-packed words — the build primitive for
    /// stores assembled from rows that never existed as owned
    /// [`BinaryHypervector`]s (rows copied out of another pack, or
    /// hypervector words received off the wire).
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != stride`, or if any bit beyond `dim` in
    /// the last word is set (the tail invariant the distance kernels
    /// rely on).
    pub fn push_row_words(&mut self, words: &[u64]) {
        assert_eq!(
            words.len(),
            self.stride,
            "row word count/stride mismatch for dim {}",
            self.dim
        );
        if self.dim % 64 != 0 {
            assert_eq!(
                words[self.stride - 1] >> (self.dim % 64),
                0,
                "bits beyond dim {} must be zero",
                self.dim
            );
        }
        self.words.extend_from_slice(words);
        self.len += 1;
    }

    /// Builds a pack directly from a flat word buffer — the fallible
    /// deserialization counterpart of [`HvPack::from_hypervectors`], for
    /// rows read from untrusted bytes (a store file, the wire).
    ///
    /// The buffer must hold a whole number of `dim.div_ceil(64)`-word
    /// rows, each respecting the tail invariant (bits beyond `dim` in the
    /// last word zero). Violations are returned as [`PackError`]s, never
    /// panics.
    pub fn from_raw_parts(dim: usize, words: Vec<u64>) -> Result<Self, PackError> {
        if dim == 0 {
            return Err(PackError::ZeroDim);
        }
        let stride = dim.div_ceil(64);
        if words.len() % stride != 0 {
            return Err(PackError::WordCountMismatch {
                stride,
                found: words.len(),
            });
        }
        let len = words.len() / stride;
        if dim % 64 != 0 {
            for row in 0..len {
                if words[(row + 1) * stride - 1] >> (dim % 64) != 0 {
                    return Err(PackError::NonZeroTail { row });
                }
            }
        }
        Ok(Self {
            dim,
            stride,
            len,
            words,
        })
    }

    /// Copies the selected rows (in order, repeats allowed) into a new
    /// pack — the bucket-gather step of the clustering pipeline.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather(&self, indices: &[usize]) -> Self {
        let mut out = Self::with_capacity(self.dim, indices.len());
        for &i in indices {
            assert!(
                i < self.len,
                "row index {i} out of bounds for len {}",
                self.len
            );
            out.words.extend_from_slice(self.row(i));
        }
        out.len = indices.len();
        out
    }

    /// Number of stored hypervectors.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the pack holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality `D` shared by every row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Words per row, `dim.div_ceil(64)`.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The entire flat word buffer (row `i` at `i * stride`).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Borrowed view of row `i`'s packed words.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// Hamming distance between rows `i` and `j` (XOR + popcount over the
    /// shared stride).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn hamming(&self, i: usize, j: usize) -> u32 {
        self.row(i)
            .iter()
            .zip(self.row(j))
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// Materializes row `i` as an owned [`BinaryHypervector`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn hypervector(&self, i: usize) -> BinaryHypervector {
        BinaryHypervector::from_words(self.dim, self.row(i).to_vec())
    }

    /// Unpacks every row into owned hypervectors.
    pub fn to_hypervectors(&self) -> Vec<BinaryHypervector> {
        (0..self.len).map(|i| self.hypervector(i)).collect()
    }

    /// Storage footprint of the flat buffer in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

/// The shape and an FNV-1a 64 digest of the words, so two packs of one
/// shape that differ in content print differently.
impl std::fmt::Debug for HvPack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let bytes = self.words.iter().flat_map(|w| w.to_le_bytes());
        let digest = bytes.fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        write!(
            f,
            "HvPack {{ len: {}, dim: {}, stride: {}, words_fnv1a64: {digest:#018x} }}",
            self.len, self.dim, self.stride
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechd_rng::Xoshiro256StarStar;

    fn random_set(n: usize, dim: usize, seed: u64) -> Vec<BinaryHypervector> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        (0..n)
            .map(|_| BinaryHypervector::random(dim, &mut rng))
            .collect()
    }

    #[test]
    fn roundtrip_through_pack() {
        for dim in [63, 64, 65, 2048] {
            let hvs = random_set(7, dim, dim as u64);
            let pack = HvPack::from_hypervectors(dim, &hvs);
            assert_eq!(pack.len(), 7);
            assert_eq!(pack.stride(), dim.div_ceil(64));
            assert_eq!(pack.to_hypervectors(), hvs, "dim {dim}");
        }
    }

    #[test]
    fn hamming_matches_hypervector_hamming() {
        let hvs = random_set(5, 130, 1);
        let pack = HvPack::from_hypervectors(130, &hvs);
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(pack.hamming(i, j), hvs[i].hamming(&hvs[j]));
            }
        }
    }

    #[test]
    fn gather_selects_rows_in_order() {
        let hvs = random_set(6, 96, 2);
        let pack = HvPack::from_hypervectors(96, &hvs);
        let sub = pack.gather(&[4, 0, 4]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.hypervector(0), hvs[4]);
        assert_eq!(sub.hypervector(1), hvs[0]);
        assert_eq!(sub.hypervector(2), hvs[4]);
    }

    #[test]
    fn push_zeroed_appends_blank_row() {
        let mut pack = HvPack::new(100);
        let row = pack.push_zeroed();
        assert_eq!(row.len(), 2);
        assert!(row.iter().all(|&w| w == 0));
        assert_eq!(pack.len(), 1);
        assert_eq!(pack.hypervector(0), BinaryHypervector::zeros(100));
    }

    #[test]
    fn debug_shows_content_not_just_shape() {
        let hvs = random_set(4, 2048, 9);
        let pack = HvPack::from_hypervectors(2048, &hvs);
        let mut words = pack.words().to_vec();
        words[5] ^= 1 << 17;
        let flipped = HvPack::from_raw_parts(2048, words).unwrap();
        assert_ne!(format!("{pack:?}"), format!("{flipped:?}"));
        let twin = HvPack::from_hypervectors(2048, &hvs);
        assert_eq!(format!("{pack:?}"), format!("{twin:?}"));
        // The empty pack's digest is the FNV-1a 64 offset basis.
        assert_eq!(
            format!("{:?}", HvPack::new(64)),
            "HvPack { len: 0, dim: 64, stride: 1, words_fnv1a64: 0xcbf29ce484222325 }"
        );
    }

    #[test]
    fn empty_pack_properties() {
        let pack = HvPack::new(2048);
        assert!(pack.is_empty());
        assert_eq!(pack.storage_bytes(), 0);
        assert!(pack.to_hypervectors().is_empty());
    }

    #[test]
    fn storage_is_contiguous_with_stride() {
        let hvs = random_set(3, 65, 3);
        let pack = HvPack::from_hypervectors(65, &hvs);
        assert_eq!(pack.words().len(), 3 * 2);
        assert_eq!(&pack.words()[2..4], pack.row(1));
    }

    #[test]
    fn push_row_words_round_trips() {
        for dim in [63, 64, 65, 2048] {
            let hvs = random_set(5, dim, 40 + dim as u64);
            let src = HvPack::from_hypervectors(dim, &hvs);
            let mut dst = HvPack::new(dim);
            for i in 0..src.len() {
                dst.push_row_words(src.row(i));
            }
            assert_eq!(dst.to_hypervectors(), hvs, "dim {dim}");
        }
    }

    #[test]
    fn from_raw_parts_round_trips() {
        for dim in [63, 64, 65, 2048] {
            let hvs = random_set(4, dim, 80 + dim as u64);
            let src = HvPack::from_hypervectors(dim, &hvs);
            let rebuilt = HvPack::from_raw_parts(dim, src.words().to_vec()).unwrap();
            assert_eq!(rebuilt, src, "dim {dim}");
        }
        let empty = HvPack::from_raw_parts(100, Vec::new()).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.dim(), 100);
    }

    #[test]
    fn from_raw_parts_rejects_defects() {
        assert_eq!(HvPack::from_raw_parts(0, vec![]), Err(PackError::ZeroDim));
        assert_eq!(
            HvPack::from_raw_parts(100, vec![0; 3]),
            Err(PackError::WordCountMismatch {
                stride: 2,
                found: 3
            })
        );
        // Second row violates the tail invariant for dim 63.
        assert_eq!(
            HvPack::from_raw_parts(63, vec![0, 1u64 << 63]),
            Err(PackError::NonZeroTail { row: 1 })
        );
    }

    #[test]
    #[should_panic(expected = "stride mismatch")]
    fn push_row_words_wrong_stride_panics() {
        let mut pack = HvPack::new(64);
        pack.push_row_words(&[0, 0]);
    }

    #[test]
    #[should_panic(expected = "must be zero")]
    fn push_row_words_nonzero_tail_panics() {
        let mut pack = HvPack::new(63);
        pack.push_row_words(&[1u64 << 63]);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn push_wrong_dim_panics() {
        let mut pack = HvPack::new(64);
        pack.push(&BinaryHypervector::zeros(128));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_out_of_bounds_panics() {
        let pack = HvPack::from_hypervectors(64, &random_set(2, 64, 4));
        pack.gather(&[2]);
    }

    #[test]
    fn debug_is_nonempty() {
        let pack = HvPack::new(64);
        assert!(format!("{pack:?}").contains("dim: 64"));
    }
}
