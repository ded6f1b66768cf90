//! Classic O(n³) hierarchical agglomerative clustering (the Fig. 2
//! baseline).

use crate::{CondensedMatrix, Dendrogram, HacResult, HacStats, Linkage};

/// Runs the textbook greedy HAC: at every step, scan the *entire* active
/// distance matrix for the global minimum pair, merge it, and update.
///
/// This is the baseline the paper contrasts with NN-chain in Fig. 2:
/// "these algorithms require full matrix updates to calculate pairwise
/// distances between all data points and to identify the minimum distance
/// among all pairs" — O(n³) total comparisons versus NN-chain's O(n²).
///
/// For the reducible linkages in [`Linkage`] the dendrogram is identical
/// to [`crate::nn_chain`]'s (up to ties).
///
/// # Panics
///
/// Panics if the matrix contains NaN distances.
///
/// # Examples
///
/// ```
/// use spechd_cluster::{naive_hac, nn_chain, CondensedMatrix, Linkage};
/// let m = CondensedMatrix::from_condensed(3, vec![1.0, 4.0, 2.0]);
/// let a = naive_hac(&m, Linkage::Average);
/// let b = nn_chain(&m, Linkage::Average);
/// assert_eq!(a.dendrogram, b.dendrogram);
/// ```
pub fn naive_hac(matrix: &CondensedMatrix, linkage: Linkage) -> HacResult {
    let n = matrix.n();
    let mut stats = HacStats::default();
    if n == 1 {
        return HacResult {
            dendrogram: Dendrogram::from_raw_merges(1, vec![]),
            stats,
        };
    }
    let mut d = matrix.clone();
    let mut size = vec![1usize; n];
    let mut active = vec![true; n];
    let mut raw: Vec<(usize, usize, f64)> = Vec::with_capacity(n - 1);

    for _ in 0..n - 1 {
        // Full scan over all active pairs.
        let mut best = (usize::MAX, usize::MAX);
        let mut best_d = f64::INFINITY;
        for i in 1..n {
            if !active[i] {
                continue;
            }
            for (j, &active_j) in active.iter().enumerate().take(i) {
                if !active_j {
                    continue;
                }
                stats.comparisons += 1;
                let dij = d.get(i, j);
                assert!(!dij.is_nan(), "distance matrix contains NaN");
                if dij < best_d {
                    best_d = dij;
                    best = (i, j);
                }
            }
        }
        let (a, b) = best;
        for k in 0..n {
            if !active[k] || k == a || k == b {
                continue;
            }
            let updated =
                linkage.update(d.get(a, k), d.get(b, k), best_d, size[a], size[b], size[k]);
            d.set(a, k, updated);
            stats.updates += 1;
        }
        size[a] += size[b];
        active[b] = false;
        raw.push((a, b, best_d));
        stats.merges += 1;
    }
    HacResult {
        dendrogram: Dendrogram::from_raw_merges(n, raw),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn_chain;
    use spechd_rng::{Rng, Xoshiro256StarStar};

    fn random_matrix(n: usize, seed: u64) -> CondensedMatrix {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        CondensedMatrix::from_fn(n, |_, _| rng.range_f64(0.1, 100.0))
    }

    #[test]
    fn matches_nnchain_on_random_inputs() {
        // Random continuous distances have no ties, so the dendrograms
        // must agree exactly for every reducible linkage.
        for linkage in Linkage::ALL {
            for seed in 0..6 {
                let m = random_matrix(30, seed * 7 + 1);
                let a = naive_hac(&m, linkage);
                let b = nn_chain(&m, linkage);
                let ha = a.dendrogram.heights();
                let hb = b.dendrogram.heights();
                for (x, y) in ha.iter().zip(&hb) {
                    assert!((x - y).abs() < 1e-9, "{linkage} seed {seed}: {x} vs {y}");
                }
                // Same flat clusters at several thresholds.
                for frac in [0.25, 0.5, 0.75] {
                    let t = ha[(ha.len() as f64 * frac) as usize];
                    assert_eq!(
                        a.dendrogram.cut(t),
                        b.dendrogram.cut(t),
                        "{linkage} seed {seed} cut {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_nnchain_on_tie_free_sixteen_bit_cells() {
        // Distinct cell values (a shuffled range): no scan can tie, so the
        // integer chain and the f64 baseline must build the same tree.
        for linkage in [Linkage::Complete, Linkage::Single] {
            for seed in 0..6 {
                let n = 30;
                let mut cells: Vec<u16> = (0..n * (n - 1) / 2).map(|v| 100 + v as u16).collect();
                spechd_rng::shuffle(&mut cells, &mut Xoshiro256StarStar::seed_from_u64(seed));
                let m = CondensedMatrix::from_condensed_u16(n, cells);
                let a = naive_hac(&m, linkage);
                let b = nn_chain(&m, linkage);
                assert_eq!(a.dendrogram, b.dendrogram, "{linkage} seed {seed}");
                assert_eq!(m.storage_bytes(), 2 * m.condensed_len(), "input untouched");
            }
        }
    }

    #[test]
    fn naive_does_cubically_more_comparisons() {
        let n = 100;
        let m = random_matrix(n, 2);
        let naive = naive_hac(&m, Linkage::Complete);
        let chain = nn_chain(&m, Linkage::Complete);
        // Naive is Θ(n³) comparisons, NN-chain Θ(n²): the gap must be wide.
        assert!(
            naive.stats.comparisons > 5 * chain.stats.comparisons,
            "naive {} vs chain {}",
            naive.stats.comparisons,
            chain.stats.comparisons
        );
    }

    #[test]
    fn merge_heights_non_decreasing() {
        for linkage in Linkage::ALL {
            let m = random_matrix(40, 5);
            let r = naive_hac(&m, linkage);
            assert!(r.dendrogram.is_monotonic(), "{linkage}");
        }
    }

    #[test]
    fn single_point() {
        let r = naive_hac(&CondensedMatrix::zeros(1), Linkage::Single);
        assert!(r.dendrogram.merges().is_empty());
    }

    #[test]
    fn first_merge_is_global_minimum() {
        let m = random_matrix(20, 8);
        let (_, _, dmin) = m.min_pair().unwrap();
        let r = naive_hac(&m, Linkage::Ward);
        assert_eq!(r.dendrogram.merges()[0].height, dmin);
    }

    #[test]
    fn update_count_is_quadratic_total() {
        let n = 50;
        let m = random_matrix(n, 3);
        let r = naive_hac(&m, Linkage::Average);
        // Each of the n-1 merges updates at most n-2 entries.
        assert!(r.stats.updates <= ((n - 1) * (n - 2)) as u64);
        assert!(r.stats.updates >= (n - 2) as u64);
    }
}
