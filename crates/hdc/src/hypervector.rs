//! Bit-packed binary hypervectors.

use spechd_rng::Rng;
use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor};

/// A dense binary hypervector of fixed dimensionality, bit-packed into
/// 64-bit words.
///
/// This is the unit of storage produced by the SpecHD encoder: one
/// hypervector per spectrum, `dim / 8` bytes (256 B at the paper's
/// `D = 2048`). All algebra the paper maps onto FPGA fabric — XOR, AND, OR,
/// popcount, Hamming distance — is provided here and operates one word
/// (64 lanes) at a time, mirroring the hardware's wide datapath.
///
/// Bits beyond `dim` in the last word are kept at zero as an invariant; all
/// constructors and operations preserve it.
///
/// # Examples
///
/// ```
/// use spechd_hdc::BinaryHypervector;
///
/// let a = BinaryHypervector::from_fn(128, |i| i % 2 == 0);
/// let b = BinaryHypervector::from_fn(128, |i| i % 4 == 0);
/// assert_eq!(a.hamming(&b), 32);           // bits 2, 6, 10, ... differ
/// assert_eq!((&a ^ &b).count_ones(), 32);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BinaryHypervector {
    dim: usize,
    words: Vec<u64>,
}

impl BinaryHypervector {
    /// Creates an all-zero hypervector of the given dimensionality.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn zeros(dim: usize) -> Self {
        assert!(dim > 0, "hypervector dimensionality must be positive");
        Self {
            dim,
            words: vec![0; dim.div_ceil(64)],
        }
    }

    /// Creates an all-ones hypervector of the given dimensionality.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn ones(dim: usize) -> Self {
        let mut hv = Self::zeros(dim);
        for w in &mut hv.words {
            *w = u64::MAX;
        }
        hv.mask_tail();
        hv
    }

    /// Creates a hypervector whose bit `i` is `f(i)`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn from_fn(dim: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut hv = Self::zeros(dim);
        for i in 0..dim {
            if f(i) {
                hv.words[i / 64] |= 1u64 << (i % 64);
            }
        }
        hv
    }

    /// Creates a uniformly random hypervector (each bit i.i.d. fair).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn random<R: Rng>(dim: usize, rng: &mut R) -> Self {
        let mut hv = Self::zeros(dim);
        for w in &mut hv.words {
            *w = rng.next_u64();
        }
        hv.mask_tail();
        hv
    }

    /// Builds a hypervector from raw little-endian packed words.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != dim.div_ceil(64)`, if `dim == 0`, or if any
    /// bit beyond `dim` is set.
    pub fn from_words(dim: usize, words: Vec<u64>) -> Self {
        assert!(dim > 0, "hypervector dimensionality must be positive");
        assert_eq!(words.len(), dim.div_ceil(64), "word count must match dim");
        let hv = Self { dim, words };
        let mut check = hv.clone();
        check.mask_tail();
        assert!(check == hv, "bits beyond dim must be zero");
        hv
    }

    /// The dimensionality `D` (number of usable bits).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The packed 64-bit words (little-endian bit order within each word).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Storage footprint in bytes (`dim / 8` rounded up to a word).
    pub fn storage_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(
            i < self.dim,
            "bit index {i} out of range for dim {}",
            self.dim
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Flips bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    pub(crate) fn flip_bit(&mut self, i: usize) {
        assert!(
            i < self.dim,
            "bit index {i} out of range for dim {}",
            self.dim
        );
        self.words[i / 64] ^= 1u64 << (i % 64);
    }

    /// Number of set bits (hardware `popcount`).
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Hamming distance to `other`: `popcount(self XOR other)`.
    ///
    /// This is the FPGA distance kernel's inner operation — a fully
    /// unrolled XOR feeding a popcount tree in the paper's architecture.
    ///
    /// # Panics
    ///
    /// Panics if dimensionalities differ.
    pub fn hamming(&self, other: &Self) -> u32 {
        assert_eq!(self.dim, other.dim, "hamming requires equal dimensionality");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// Cosine-like similarity in `[-1, 1]` for binary vectors:
    /// `1 - 2 * hamming / dim`.
    ///
    /// # Panics
    ///
    /// Panics if dimensionalities differ.
    pub fn similarity(&self, other: &Self) -> f64 {
        1.0 - 2.0 * self.hamming(other) as f64 / self.dim as f64
    }

    /// Cyclic permutation by `k` bit positions (used as a sequence-binding
    /// primitive in HDC literature; exposed for extension encoders).
    pub fn rotate(&self, k: usize) -> Self {
        let k = k % self.dim;
        Self::from_fn(self.dim, |i| self.bit((i + self.dim - k) % self.dim))
    }

    /// Flips `count` distinct, uniformly chosen bits. Used to build
    /// correlated level memories.
    ///
    /// # Panics
    ///
    /// Panics if `count > dim`.
    pub fn flip_random_bits<R: Rng>(&mut self, count: usize, rng: &mut R) {
        assert!(count <= self.dim, "cannot flip more bits than dim");
        for idx in spechd_rng::sample_indices(self.dim, count, rng) {
            self.flip_bit(idx);
        }
    }

    fn mask_tail(&mut self) {
        let rem = self.dim % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl fmt::Debug for BinaryHypervector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BinaryHypervector {{ dim: {}, ones: {}, head: ",
            self.dim,
            self.count_ones()
        )?;
        for i in 0..self.dim.min(16) {
            write!(f, "{}", u8::from(self.bit(i)))?;
        }
        if self.dim > 16 {
            write!(f, "…")?;
        }
        write!(f, " }}")
    }
}

impl BitXor for &BinaryHypervector {
    type Output = BinaryHypervector;

    fn bitxor(self, rhs: Self) -> BinaryHypervector {
        assert_eq!(self.dim, rhs.dim, "xor requires equal dimensionality");
        let mut out = self.clone();
        for (a, b) in out.words.iter_mut().zip(&rhs.words) {
            *a ^= b;
        }
        out
    }
}

impl BitAnd for &BinaryHypervector {
    type Output = BinaryHypervector;

    fn bitand(self, rhs: Self) -> BinaryHypervector {
        assert_eq!(self.dim, rhs.dim, "and requires equal dimensionality");
        let mut out = self.clone();
        for (a, b) in out.words.iter_mut().zip(&rhs.words) {
            *a &= b;
        }
        out
    }
}

impl BitOr for &BinaryHypervector {
    type Output = BinaryHypervector;

    fn bitor(self, rhs: Self) -> BinaryHypervector {
        assert_eq!(self.dim, rhs.dim, "or requires equal dimensionality");
        let mut out = self.clone();
        for (a, b) in out.words.iter_mut().zip(&rhs.words) {
            *a |= b;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechd_rng::Xoshiro256StarStar;

    #[test]
    fn zeros_and_ones_counts() {
        let z = BinaryHypervector::zeros(100);
        let o = BinaryHypervector::ones(100);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(o.count_ones(), 100);
        assert_eq!(z.hamming(&o), 100);
    }

    #[test]
    fn tail_bits_masked_for_non_word_dims() {
        for dim in [1, 63, 65, 100, 127, 2048, 2049] {
            let o = BinaryHypervector::ones(dim);
            assert_eq!(o.count_ones() as usize, dim, "dim {dim}");
        }
    }

    #[test]
    fn from_fn_and_bit_roundtrip() {
        let hv = BinaryHypervector::from_fn(130, |i| i % 3 == 0);
        for i in 0..130 {
            assert_eq!(hv.bit(i), i % 3 == 0, "bit {i}");
        }
    }

    #[test]
    fn set_and_flip_bits() {
        let mut hv = BinaryHypervector::zeros(70);
        hv.flip_bit(69);
        assert!(hv.bit(69));
        hv.flip_bit(69);
        assert!(!hv.bit(69));
        hv.flip_bit(0);
        assert!(hv.bit(0));
        assert_eq!(hv.count_ones(), 1);
    }

    #[test]
    fn random_is_roughly_balanced() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let hv = BinaryHypervector::random(4096, &mut rng);
        let ones = hv.count_ones();
        assert!((1800..2300).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn random_pair_hamming_near_half() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let a = BinaryHypervector::random(2048, &mut rng);
        let b = BinaryHypervector::random(2048, &mut rng);
        let d = a.hamming(&b);
        assert!((850..1200).contains(&d), "hamming = {d}");
    }

    #[test]
    fn xor_involution() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let a = BinaryHypervector::random(256, &mut rng);
        let b = BinaryHypervector::random(256, &mut rng);
        let bound = &a ^ &b;
        let recovered = &bound ^ &b;
        assert_eq!(recovered, a);
    }

    #[test]
    fn hamming_is_symmetric_and_zero_on_self() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let a = BinaryHypervector::random(300, &mut rng);
        let b = BinaryHypervector::random(300, &mut rng);
        assert_eq!(a.hamming(&b), b.hamming(&a));
        assert_eq!(a.hamming(&a), 0);
    }

    #[test]
    fn similarity_bounds() {
        let z = BinaryHypervector::zeros(64);
        let o = BinaryHypervector::ones(64);
        assert_eq!(z.similarity(&z), 1.0);
        assert_eq!(z.similarity(&o), -1.0);
    }

    #[test]
    fn and_or_operators() {
        let a = BinaryHypervector::from_fn(8, |i| i < 4);
        let b = BinaryHypervector::from_fn(8, |i| (2..6).contains(&i));
        assert_eq!((&a & &b).count_ones(), 2);
        assert_eq!((&a | &b).count_ones(), 6);
    }

    #[test]
    fn rotate_preserves_weight_and_inverts() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let a = BinaryHypervector::random(100, &mut rng);
        let r = a.rotate(17);
        assert_eq!(r.count_ones(), a.count_ones());
        let back = r.rotate(100 - 17);
        assert_eq!(back, a);
    }

    #[test]
    fn rotate_zero_is_identity() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        let a = BinaryHypervector::random(64, &mut rng);
        assert_eq!(a.rotate(0), a);
        assert_eq!(a.rotate(64), a);
    }

    #[test]
    fn flip_random_bits_changes_exactly_that_many() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let a = BinaryHypervector::random(512, &mut rng);
        let mut b = a.clone();
        b.flip_random_bits(37, &mut rng);
        assert_eq!(a.hamming(&b), 37);
    }

    #[test]
    fn from_words_roundtrip() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let a = BinaryHypervector::random(200, &mut rng);
        let b = BinaryHypervector::from_words(200, a.words().to_vec());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "must be zero")]
    fn from_words_rejects_dirty_tail() {
        BinaryHypervector::from_words(10, vec![u64::MAX]);
    }

    #[test]
    #[should_panic(expected = "equal dimensionality")]
    fn hamming_dim_mismatch_panics() {
        let a = BinaryHypervector::zeros(64);
        let b = BinaryHypervector::zeros(128);
        a.hamming(&b);
    }

    #[test]
    fn storage_bytes_at_paper_dim() {
        let hv = BinaryHypervector::zeros(2048);
        assert_eq!(hv.storage_bytes(), 256);
    }

    #[test]
    fn debug_is_nonempty() {
        let hv = BinaryHypervector::zeros(32);
        let s = format!("{hv:?}");
        assert!(s.contains("dim: 32"));
    }
}
