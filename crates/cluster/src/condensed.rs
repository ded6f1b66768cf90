//! Lower-triangular (condensed) pairwise distance matrix.

use spechd_hdc::distance::PackedDistanceEngine;
use std::fmt;

/// A symmetric pairwise distance matrix storing only the strict lower
/// triangle, exactly as the SpecHD FPGA kernel keeps it in HBM
/// ("to conserve storage resources, only the lower triangular part of the
/// distance matrix is retained", §III-C).
///
/// Entry `(i, j)` with `i > j` lives at condensed index
/// `i·(i−1)/2 + j`; the diagonal is implicitly zero.
///
/// Storage follows the source. A matrix built from the distance kernel's
/// output ([`CondensedMatrix::from_u16`], [`CondensedMatrix::from_pack`])
/// keeps the kernel's 16-bit cells — 2 bytes each, the paper's fixed-point
/// format — and [`crate::nn_chain`] and [`crate::medoid`] work on them as
/// integers. A matrix built from arbitrary values
/// ([`CondensedMatrix::from_fn`], [`CondensedMatrix::from_condensed`],
/// [`CondensedMatrix::zeros`]) holds `f64` cells. [`CondensedMatrix::get`]
/// reads either as `f64` (the widening is exact). `==` compares storage,
/// so a 16-bit matrix never equals an `f64` one.
///
/// # Examples
///
/// ```
/// use spechd_cluster::CondensedMatrix;
/// let m = CondensedMatrix::from_fn(3, |i, j| (i + j) as f64);
/// assert_eq!(m.get(2, 1), 3.0);
/// assert_eq!(m.get(1, 2), 3.0); // symmetric access
/// assert_eq!(m.get(1, 1), 0.0); // diagonal
///
/// let k = CondensedMatrix::from_u16(3, &[100, 200, 300]);
/// assert_eq!(k.get(2, 1), 300.0);
/// assert_eq!(k.storage_bytes(), 6);
/// assert_eq!(m.storage_bytes(), 24);
/// ```
#[derive(Clone, PartialEq)]
pub struct CondensedMatrix {
    n: usize,
    cells: Cells,
}

/// The condensed cells, in the type their source produced.
#[derive(Clone, PartialEq)]
pub(crate) enum Cells {
    /// The distance kernel's 16-bit fixed-point output.
    U16(Vec<u16>),
    /// Arbitrary distances.
    F64(Vec<f64>),
}

/// 16-bit cells as `f64` (exact).
pub(crate) fn widened(cells: &[u16]) -> Vec<f64> {
    cells.iter().map(|&v| f64::from(v)).collect()
}

/// Condensed index of cell `(i, 0)`: row `i` is the `i` contiguous cells
/// `(i, 0) .. (i, i−1)` from here. Cannot overflow for `i < n`, because
/// `condensed_len(n)` was checked when the matrix was built.
#[inline]
pub(crate) fn row_start(i: usize) -> usize {
    i * i.saturating_sub(1) / 2
}

/// Condensed index of the unordered pair `{i, j}`, `i != j`.
#[inline]
pub(crate) fn pair_index(i: usize, j: usize) -> usize {
    debug_assert_ne!(i, j, "the diagonal is not stored");
    if i > j {
        row_start(i) + j
    } else {
        row_start(j) + i
    }
}

impl CondensedMatrix {
    /// Creates an all-zero `f64` matrix over `n` points.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn zeros(n: usize) -> Self {
        // condensed_len guards n·(n−1)/2 against usize overflow.
        Self::from_condensed(n, vec![0.0; spechd_hdc::distance::condensed_len(n)])
    }

    /// Builds an `f64` matrix by evaluating `f(i, j)` for every pair
    /// `i > j`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(spechd_hdc::distance::condensed_len(n));
        for i in 1..n {
            for j in 0..i {
                data.push(f(i, j));
            }
        }
        Self::from_condensed(n, data)
    }

    /// Wraps an existing condensed vector (length `n·(n−1)/2`, pair
    /// `(i, j)`, `i > j`, at `i·(i−1)/2 + j`).
    ///
    /// # Panics
    ///
    /// Panics if the length does not match `n` or `n == 0`.
    pub fn from_condensed(n: usize, data: Vec<f64>) -> Self {
        Self::checked(n, Cells::F64(data))
    }

    /// Wraps the 16-bit condensed vector the distance kernel produced
    /// (`spechd_hdc::distance::PackedDistanceEngine::pairwise_condensed`),
    /// taking the buffer as it is: nothing is copied or widened.
    ///
    /// # Panics
    ///
    /// Panics if the length does not match `n` or `n == 0`.
    pub(crate) fn from_condensed_u16(n: usize, data: Vec<u16>) -> Self {
        Self::checked(n, Cells::U16(data))
    }

    /// Copies a borrowed 16-bit condensed slice, keeping its 16-bit
    /// cells.
    ///
    /// # Panics
    ///
    /// Panics if the length does not match `n` or `n == 0`.
    pub fn from_u16(n: usize, data: &[u16]) -> Self {
        Self::from_condensed_u16(n, data.to_vec())
    }

    /// Builds the matrix directly from a packed hypervector store, running
    /// the tiled XOR+popcount kernel
    /// ([`PackedDistanceEngine::pairwise_condensed`]) over the contiguous
    /// buffer and keeping the buffer it returns. The kernel runs on the
    /// caller's thread, as [`crate::cluster_shard`]'s does: a pack here is
    /// one bucket, mostly a single tile, too small to repay a thread start.
    ///
    /// # Panics
    ///
    /// Panics if the pack is empty or its dimensionality exceeds the
    /// 16-bit distance range.
    pub fn from_pack(pack: &spechd_hdc::HvPack) -> Self {
        Self::from_condensed_u16(
            pack.len(),
            PackedDistanceEngine::new()
                .threads(1)
                .pairwise_condensed(pack),
        )
    }

    fn checked(n: usize, cells: Cells) -> Self {
        assert!(n > 0, "matrix needs at least one point");
        let matrix = Self { n, cells };
        assert_eq!(
            matrix.condensed_len(),
            spechd_hdc::distance::condensed_len(n),
            "condensed length mismatch"
        );
        matrix
    }

    /// Number of points.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored entries, `n·(n−1)/2`.
    pub fn condensed_len(&self) -> usize {
        match &self.cells {
            Cells::U16(d) => d.len(),
            Cells::F64(d) => d.len(),
        }
    }

    /// Bytes the cells occupy: 2 per entry for a matrix built from the
    /// kernel's 16-bit output (the quantity the paper's memory budgeting
    /// uses), 8 per entry otherwise.
    pub fn storage_bytes(&self) -> usize {
        match &self.cells {
            Cells::U16(d) => std::mem::size_of_val(d.as_slice()),
            Cells::F64(d) => std::mem::size_of_val(d.as_slice()),
        }
    }

    pub(crate) fn cells(&self) -> &Cells {
        &self.cells
    }

    /// Returns the distance between `i` and `j` (0 on the diagonal).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        if i == j {
            return 0.0;
        }
        match &self.cells {
            Cells::U16(d) => f64::from(d[pair_index(i, j)]),
            Cells::F64(d) => d[pair_index(i, j)],
        }
    }

    /// Sets the distance between `i` and `j` (symmetric). A 16-bit matrix
    /// is widened to `f64` cells first (one pass), so any value can be
    /// stored.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds or `i == j`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.n && j < self.n, "index out of bounds");
        assert_ne!(i, j, "diagonal is implicitly zero");
        if let Cells::U16(d) = &self.cells {
            self.cells = Cells::F64(widened(d));
        }
        let Cells::F64(d) = &mut self.cells else {
            unreachable!("widened above");
        };
        d[pair_index(i, j)] = value;
    }

    /// The minimum off-diagonal entry and its pair `(i, j)` with `i > j`
    /// (the first in condensed order among equals), or `None` for a
    /// single-point matrix.
    pub fn min_pair(&self) -> Option<(usize, usize, f64)> {
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 1..self.n {
            for j in 0..i {
                let d = self.get(i, j);
                if best.map_or(true, |(_, _, bd)| d < bd) {
                    best = Some((i, j, d));
                }
            }
        }
        best
    }
}

impl fmt::Debug for CondensedMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CondensedMatrix {{ n: {}, entries: {} }}",
            self.n,
            self.condensed_len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape() {
        let m = CondensedMatrix::zeros(5);
        assert_eq!(m.n(), 5);
        assert_eq!(m.condensed_len(), 10);
        assert_eq!(m.get(3, 1), 0.0);
    }

    #[test]
    fn from_fn_and_symmetry() {
        let m = CondensedMatrix::from_fn(4, |i, j| (10 * i + j) as f64);
        assert_eq!(m.get(3, 2), 32.0);
        assert_eq!(m.get(2, 3), 32.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = CondensedMatrix::zeros(4);
        m.set(2, 0, 7.5);
        m.set(1, 3, 2.5); // reversed order
        assert_eq!(m.get(0, 2), 7.5);
        assert_eq!(m.get(3, 1), 2.5);
    }

    #[test]
    fn condensed_index_formula() {
        // n=4: pairs in order (1,0),(2,0),(2,1),(3,0),(3,1),(3,2).
        let m = CondensedMatrix::from_condensed(4, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.get(1, 0), 1.0);
        assert_eq!(m.get(2, 0), 2.0);
        assert_eq!(m.get(2, 1), 3.0);
        assert_eq!(m.get(3, 0), 4.0);
        assert_eq!(m.get(3, 1), 5.0);
        assert_eq!(m.get(3, 2), 6.0);
    }

    #[test]
    fn from_pack_matches_pairwise_hamming() {
        use spechd_hdc::{BinaryHypervector, HvPack};
        let hvs = vec![
            BinaryHypervector::zeros(64),
            BinaryHypervector::ones(64),
            BinaryHypervector::from_fn(64, |i| i < 32),
        ];
        let m = CondensedMatrix::from_pack(&HvPack::from_hypervectors(64, &hvs));
        assert_eq!(m.get(1, 0), 64.0);
        assert_eq!(m.get(2, 0), 32.0);
        assert_eq!(m.get(2, 1), 32.0);
        assert_eq!(
            m.storage_bytes(),
            6,
            "the kernel's buffer, not a widened copy"
        );
    }

    #[test]
    fn from_u16_conversion() {
        let m = CondensedMatrix::from_u16(3, &[100, 200, 300]);
        assert_eq!(m.get(1, 0), 100.0);
        assert_eq!(m.get(2, 1), 300.0);
        assert_eq!(m.get(1, 2), 300.0);
        assert_eq!(m.get(2, 2), 0.0);
    }

    #[test]
    fn storage_follows_the_source() {
        let kernel = vec![100u16, 200, 300];
        let borrowed = CondensedMatrix::from_u16(3, &kernel);
        let moved = CondensedMatrix::from_condensed_u16(3, kernel);
        assert_eq!(borrowed, moved);
        assert_eq!(moved.storage_bytes(), 6);
        assert_eq!(moved.condensed_len(), 3);
        let wide = CondensedMatrix::from_condensed(3, vec![100.0, 200.0, 300.0]);
        assert_eq!(wide.storage_bytes(), 24);
        assert_eq!(CondensedMatrix::from_fn(3, |_, _| 1.0).storage_bytes(), 24);
        assert_eq!(CondensedMatrix::zeros(3).storage_bytes(), 24);
        assert_ne!(moved, wide, "equality compares storage");
        assert_eq!(moved.min_pair(), wide.min_pair());
    }

    #[test]
    fn set_widens_sixteen_bit_storage() {
        let mut m = CondensedMatrix::from_u16(3, &[100, 200, 300]);
        m.set(0, 2, 0.5);
        assert_eq!(m.storage_bytes(), 24);
        assert_eq!(m.get(2, 0), 0.5);
        assert_eq!(m.get(1, 0), 100.0);
        assert_eq!(m.get(2, 1), 300.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_condensed_u16_wrong_length() {
        CondensedMatrix::from_condensed_u16(4, vec![0; 5]);
    }

    #[test]
    fn min_pair_found() {
        let m = CondensedMatrix::from_condensed(4, vec![9.0, 2.0, 8.0, 7.0, 1.5, 6.0]);
        assert_eq!(m.min_pair(), Some((3, 1, 1.5)));
    }

    #[test]
    fn min_pair_single_point() {
        let m = CondensedMatrix::zeros(1);
        assert!(m.min_pair().is_none());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_condensed_wrong_length() {
        CondensedMatrix::from_condensed(4, vec![0.0; 5]);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn set_diagonal_panics() {
        CondensedMatrix::zeros(3).set(1, 1, 4.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        CondensedMatrix::zeros(3).get(3, 0);
    }

    #[test]
    fn debug_nonempty() {
        assert!(format!("{:?}", CondensedMatrix::zeros(3)).contains("n: 3"));
    }
}
