//! Pre-allocated hypervector memories: random ID vectors and correlated
//! Level vectors.
//!
//! The SpecHD encoder keeps two read-only arrays in FPGA on-chip memory,
//! partitioned by HLS pragmas so all lanes can be read in parallel:
//! `ID[0, f]` with one random hypervector per m/z bin, and `L[0, q]` with one
//! hypervector per intensity level. The ID memory is i.i.d. random so that
//! distinct m/z bins are quasi-orthogonal; the Level memory is *correlated*
//! — adjacent levels differ in only `D / (2(q-1))` bits — so that similar
//! intensities produce similar codes.

use crate::BinaryHypervector;
use spechd_rng::Xoshiro256StarStar;

/// Item memory of independent random hypervectors (`ID[0, f]`).
///
/// # Examples
///
/// ```
/// use spechd_hdc::ItemMemory;
/// let ids = ItemMemory::random(64, 2048, 42);
/// // Distinct entries are quasi-orthogonal: Hamming distance ≈ D/2.
/// let d = ids.get(0).hamming(ids.get(1));
/// assert!((850..1200).contains(&d));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemMemory {
    vectors: Vec<BinaryHypervector>,
    dim: usize,
}

impl ItemMemory {
    /// Allocates `count` independent random hypervectors of dimensionality
    /// `dim`, seeded deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` or `dim == 0`.
    pub fn random(count: usize, dim: usize, seed: u64) -> Self {
        assert!(count > 0, "item memory needs at least one entry");
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let vectors = (0..count)
            .map(|_| BinaryHypervector::random(dim, &mut rng))
            .collect();
        Self { vectors, dim }
    }

    /// Number of entries `f`.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the memory is empty (never true for constructed memories).
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Dimensionality of the stored vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Returns entry `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn get(&self, index: usize) -> &BinaryHypervector {
        &self.vectors[index]
    }

    /// Iterates over the stored vectors.
    pub fn iter(&self) -> impl Iterator<Item = &BinaryHypervector> {
        self.vectors.iter()
    }

    /// Total storage in bytes (what the paper keeps in partitioned BRAM).
    pub fn storage_bytes(&self) -> usize {
        self.vectors.iter().map(|v| v.storage_bytes()).sum()
    }

    /// Returns the index of the entry nearest to `query` in Hamming
    /// distance, together with that distance (associative recall).
    ///
    /// # Panics
    ///
    /// Panics if dimensionalities differ.
    pub fn nearest(&self, query: &BinaryHypervector) -> (usize, u32) {
        self.vectors
            .iter()
            .enumerate()
            .map(|(i, v)| (i, v.hamming(query)))
            .min_by_key(|&(_, d)| d)
            .expect("item memory is never empty")
    }
}

/// Correlated level memory (`L[0, q]`) for quantized intensities.
///
/// Level 0 is random; each subsequent level flips a fresh, disjoint batch of
/// `D / (2(q-1))` bit positions, so `hamming(L[a], L[b]) ≈ |a − b| · D/(2(q-1))`
/// and the extreme levels differ in about half their bits (quasi-orthogonal),
/// which is the standard thermometer-style construction used by HyperSpec
/// and SpecHD.
///
/// # Examples
///
/// ```
/// use spechd_hdc::LevelMemory;
/// let levels = LevelMemory::new(16, 2048, 1);
/// let near = levels.get(3).hamming(levels.get(4));
/// let far = levels.get(0).hamming(levels.get(15));
/// assert!(near < far);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelMemory {
    vectors: Vec<BinaryHypervector>,
    dim: usize,
}

impl LevelMemory {
    /// Builds a correlated level memory with `levels` entries of
    /// dimensionality `dim`, seeded deterministically.
    ///
    /// The flipped positions form a random partition of a `D/2`-subset: the
    /// positions flipped between consecutive levels are disjoint, making the
    /// inter-level distance exactly linear in the level gap.
    ///
    /// # Panics
    ///
    /// Panics if `levels < 2` or `dim == 0`.
    pub fn new(levels: usize, dim: usize, seed: u64) -> Self {
        assert!(levels >= 2, "level memory needs at least two levels");
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0xC0FF_EE00_DEAD_BEEF);
        let base = BinaryHypervector::random(dim, &mut rng);

        // Choose D/2 positions and split them into (levels-1) nearly equal
        // disjoint batches; level k flips batches 0..k of the base vector.
        let half = dim / 2;
        let mut positions: Vec<usize> = (0..dim).collect();
        spechd_rng::shuffle(&mut positions, &mut rng);
        positions.truncate(half);

        let segments = levels - 1;
        let mut vectors = Vec::with_capacity(levels);
        vectors.push(base.clone());
        let mut current = base;
        for seg in 0..segments {
            let start = seg * half / segments;
            let end = (seg + 1) * half / segments;
            for &pos in &positions[start..end] {
                current.flip_bit(pos);
            }
            vectors.push(current.clone());
        }
        Self { vectors, dim }
    }

    /// Number of levels `q`.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the memory is empty (never true for constructed memories).
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Dimensionality of the stored vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Returns the vector for level `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn get(&self, index: usize) -> &BinaryHypervector {
        &self.vectors[index]
    }

    /// Iterates over the level vectors from level 0 upward.
    pub fn iter(&self) -> impl Iterator<Item = &BinaryHypervector> {
        self.vectors.iter()
    }

    /// Total storage in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.vectors.iter().map(|v| v.storage_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_memory_deterministic() {
        let a = ItemMemory::random(10, 256, 5);
        let b = ItemMemory::random(10, 256, 5);
        assert_eq!(a, b);
        let c = ItemMemory::random(10, 256, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn item_memory_entries_quasi_orthogonal() {
        let mem = ItemMemory::random(20, 2048, 1);
        for i in 0..mem.len() {
            for j in (i + 1)..mem.len() {
                let d = mem.get(i).hamming(mem.get(j));
                assert!(
                    (820..1230).contains(&d),
                    "entries {i},{j} too close/far: {d}"
                );
            }
        }
    }

    #[test]
    fn item_memory_nearest_recalls_noisy_entry() {
        let mem = ItemMemory::random(32, 2048, 2);
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        for idx in [0usize, 7, 31] {
            let mut noisy = mem.get(idx).clone();
            noisy.flip_random_bits(300, &mut rng); // 15% noise
            let (found, d) = mem.nearest(&noisy);
            assert_eq!(found, idx);
            assert_eq!(d, 300);
        }
    }

    #[test]
    fn item_memory_storage() {
        let mem = ItemMemory::random(4, 2048, 0);
        assert_eq!(mem.storage_bytes(), 4 * 256);
    }

    #[test]
    fn level_memory_distance_linear_in_gap() {
        let q = 17;
        let dim = 2048;
        let levels = LevelMemory::new(q, dim, 9);
        let step = dim / 2 / (q - 1); // 64 bits per level step
        for a in 0..q {
            for b in a..q {
                let d = levels.get(a).hamming(levels.get(b)) as usize;
                let expect = (b - a) * step;
                assert!(
                    d.abs_diff(expect) <= (q - 1), // rounding slack from uneven batches
                    "levels {a}->{b}: d={d} expected≈{expect}"
                );
            }
        }
    }

    #[test]
    fn level_memory_extremes_near_orthogonal() {
        let levels = LevelMemory::new(32, 2048, 4);
        let d = levels.get(0).hamming(levels.get(31));
        assert_eq!(d, 1024, "extremes must differ in exactly D/2 bits");
    }

    #[test]
    fn level_memory_monotone_in_gap() {
        let levels = LevelMemory::new(8, 1024, 11);
        let base = levels.get(0);
        let mut prev = 0;
        for k in 1..8 {
            let d = base.hamming(levels.get(k));
            assert!(d > prev, "distance must grow with level gap");
            prev = d;
        }
    }

    #[test]
    fn level_memory_deterministic() {
        assert_eq!(LevelMemory::new(8, 512, 3), LevelMemory::new(8, 512, 3));
        assert_ne!(LevelMemory::new(8, 512, 3), LevelMemory::new(8, 512, 4));
    }

    #[test]
    #[should_panic(expected = "at least two levels")]
    fn level_memory_one_level_panics() {
        LevelMemory::new(1, 64, 0);
    }

    #[test]
    fn level_memory_len_and_dim() {
        let levels = LevelMemory::new(5, 100, 0);
        assert_eq!(levels.len(), 5);
        assert_eq!(levels.dim(), 100);
        assert_eq!(levels.iter().count(), 5);
    }
}
