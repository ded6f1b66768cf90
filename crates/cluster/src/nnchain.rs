//! The Nearest-Neighbor-Chain HAC algorithm.

use crate::condensed::{pair_index, row_start, widened, Cells};
use crate::{CondensedMatrix, Dendrogram, HacResult, HacStats, Linkage};

/// Runs NN-chain hierarchical agglomerative clustering over a precomputed
/// distance matrix.
///
/// The algorithm (§II-C of the SpecHD paper; Murtagh & Contreras 2011)
/// grows a chain of successive nearest neighbors until it finds a
/// *reciprocal nearest neighbor* (RNN) pair, merges it, updates the
/// distance matrix with the Lance–Williams rule for the chosen
/// [`Linkage`], and continues from the surviving chain — avoiding the full
/// matrix re-scan per merge that makes classic HAC O(n³).
///
/// For the reducible linkages implemented here the result is identical to
/// [`crate::naive_hac`] (up to tie-breaking on exactly equal distances);
/// total work is O(n²) comparisons.
///
/// **Cells.** The chain runs on a working copy of the cells the matrix
/// holds; the matrix itself stays as it was, for [`crate::medoid`]. Over
/// the distance kernel's 16-bit cells, [`Linkage::Complete`] and
/// [`Linkage::Single`] stay on 16-bit integers from the first scan to the
/// last update (`max` and `min` are closed over them), as the paper's
/// kernel does in HBM. [`Linkage::Average`] and [`Linkage::Ward`] produce
/// fractions, so they widen a 16-bit matrix to `f64` once; an `f64` matrix
/// is clustered as `f64`. It is one chain either way, and the dendrogram
/// and the [`HacStats`] do not depend on which cells it ran on.
///
/// **Ties.** The nearest neighbour of the chain's tip is the previous
/// chain element if that is at the minimum distance, otherwise the
/// lowest-indexed cluster at the minimum. Hamming distances tie all the
/// time, and the flat clusters below a cut depend on this rule — which is
/// why the chain always runs to the top of the tree instead of retiring
/// clusters whose nearest neighbour is already above the caller's cut:
/// retiring one changes where the next chain starts, and with it which of
/// two equidistant neighbours a later tip prefers.
///
/// # Panics
///
/// Panics if an `f64` matrix contains NaN distances, or if infinite
/// distances turn into NaN under the Average/Ward update.
///
/// # Examples
///
/// ```
/// use spechd_cluster::{nn_chain, CondensedMatrix, Linkage};
/// let m = CondensedMatrix::from_condensed(3, vec![1.0, 4.0, 2.0]);
/// let result = nn_chain(&m, Linkage::Complete);
/// assert_eq!(result.dendrogram.merges().len(), 2);
/// assert!(result.dendrogram.is_monotonic());
///
/// // The same distances as the kernel's 16-bit cells: the same tree.
/// let k = CondensedMatrix::from_u16(3, &[1, 4, 2]);
/// assert_eq!(nn_chain(&k, Linkage::Complete).dendrogram, result.dendrogram);
/// ```
pub fn nn_chain(matrix: &CondensedMatrix, linkage: Linkage) -> HacResult {
    let n = matrix.n();
    let wide = match (matrix.cells(), linkage) {
        (Cells::U16(d), Linkage::Complete) => {
            return chain(n, d.clone(), u16::MAX, |ak, bk, _, _, _, _| ak.max(bk));
        }
        (Cells::U16(d), Linkage::Single) => {
            return chain(n, d.clone(), u16::MAX, |ak, bk, _, _, _, _| ak.min(bk));
        }
        (Cells::U16(d), _) => widened(d),
        (Cells::F64(d), _) => {
            assert!(
                !d.iter().any(|v| v.is_nan()),
                "distance matrix contains NaN"
            );
            d.clone()
        }
    };
    chain(n, wide, f64::INFINITY, |ak, bk, ab, na, nb, nk| {
        let updated = linkage.update(ak, bk, ab, na, nb, nk);
        // ∞ − ∞ under Ward; finite inputs cannot get here.
        assert!(!updated.is_nan(), "distance matrix contains NaN");
        updated
    })
}

/// The NN-chain over working cells `d` (condensed, consumed) of either
/// type. `dead` is the greatest value of the type: it is written over
/// every cell of a retired cluster, so the contiguous half of a row scan
/// needs no liveness test. `update` is [`Linkage::update`]'s signature
/// over `T`.
fn chain<T>(
    n: usize,
    mut d: Vec<T>,
    dead: T,
    update: impl Fn(T, T, T, usize, usize, usize) -> T,
) -> HacResult
where
    T: Copy + PartialOrd + Into<f64>,
{
    let mut stats = HacStats::default();
    let mut size = vec![1usize; n];
    // Live cluster indices, ascending.
    let mut live: Vec<usize> = (0..n).collect();
    let mut raw: Vec<(usize, usize, f64)> = Vec::with_capacity(n - 1);
    let mut chain: Vec<usize> = Vec::with_capacity(n);

    while raw.len() < n - 1 {
        if chain.is_empty() {
            chain.push(live[0]);
        }
        loop {
            let a = *chain.last().expect("chain is non-empty inside the loop");
            let prev = chain.len().checked_sub(2).map(|at| chain[at]);
            let (best, best_d) = nearest(&d, &live, a, prev, dead);
            stats.comparisons += (live.len() - 1) as u64;

            if Some(best) == prev {
                // Reciprocal nearest neighbors: merge `best` into `a`.
                chain.pop();
                chain.pop();
                let b = best;
                for &k in &live {
                    if k == a || k == b {
                        continue;
                    }
                    let (ak, bk) = (pair_index(a, k), pair_index(b, k));
                    d[ak] = update(d[ak], d[bk], best_d, size[a], size[b], size[k]);
                    d[bk] = dead;
                }
                d[pair_index(a, b)] = dead;
                stats.updates += (live.len() - 2) as u64;
                size[a] += size[b];
                live.remove(live.binary_search(&b).expect("the merged cluster was live"));
                raw.push((a, b, best_d.into()));
                stats.merges += 1;
                break;
            }
            chain.push(best);
        }
    }
    HacResult {
        dendrogram: Dendrogram::from_raw_merges(n, raw),
        stats,
    }
}

/// The nearest live neighbour of live cluster `a` and its distance: the
/// previous chain element `prev` if it is at the minimum (so a reciprocal
/// pair is detected and the chain terminates), otherwise the lowest index
/// at the minimum. At least one other cluster is live.
fn nearest<T: Copy + PartialOrd>(
    d: &[T],
    live: &[usize],
    a: usize,
    prev: Option<usize>,
    dead: T,
) -> (usize, T) {
    // Row `a` of the condensed layout is a contiguous slice for `j < a`
    // (dead cells included, which hold `dead` and so never win) ...
    let row = &d[row_start(a)..row_start(a) + a];
    let mut best_d = row.iter().fold(dead, |m, &v| if v < m { v } else { m });
    // ... and a column walk with a growing stride for `j > a`, one cache
    // line per cell, so only live rows are visited. Strict `<` keeps the
    // lowest index, and a tie with the contiguous half goes to that half.
    let after = live.binary_search(&a).expect("the chain tip is live") + 1;
    let mut in_column = None;
    for &j in &live[after..] {
        let v = d[row_start(j) + a];
        if v < best_d {
            best_d = v;
            in_column = Some(j);
        }
    }
    let best = in_column.unwrap_or_else(|| {
        if best_d < dead {
            let first = row.iter().position(|&v| v == best_d);
            first.expect("the row holds its minimum")
        } else {
            // `dead` is also a legal distance (0xFFFF at dim = 65 535,
            // +∞ as f64), and here every live neighbour is exactly that
            // far: dead cells look the same, so ask the live list.
            live[usize::from(live[0] == a)]
        }
    });
    match prev {
        Some(p) if d[pair_index(a, p)] == best_d => (p, best_d),
        _ => (best, best_d),
    }
}

/// The chain as it was before it ran on the matrix's own cells: one
/// `get` per comparison behind a per-element liveness branch, `f64`
/// throughout. Kept verbatim as the oracle the tests hold [`nn_chain`] to,
/// dendrogram and counters.
#[cfg(test)]
fn per_element_chain(matrix: &CondensedMatrix, linkage: Linkage) -> HacResult {
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
    let mut chain: Vec<usize> = Vec::with_capacity(n);
    let mut scan_from = 0usize;

    while raw.len() < n - 1 {
        if chain.is_empty() {
            while !active[scan_from] {
                scan_from += 1;
            }
            chain.push(scan_from);
        }
        loop {
            let a = *chain.last().expect("chain is non-empty inside the loop");
            let prev = if chain.len() >= 2 {
                Some(chain[chain.len() - 2])
            } else {
                None
            };

            // Nearest active neighbor of `a`; ties prefer the previous
            // chain element so an RNN is detected and the loop terminates.
            let (mut best, mut best_d) = match prev {
                Some(p) => {
                    stats.comparisons += 1;
                    (p, d.get(a, p))
                }
                None => (usize::MAX, f64::INFINITY),
            };
            for (j, &active_j) in active.iter().enumerate().take(n) {
                if j == a || !active_j || Some(j) == prev {
                    continue;
                }
                stats.comparisons += 1;
                let dj = d.get(a, j);
                assert!(!dj.is_nan(), "distance matrix contains NaN");
                if dj < best_d {
                    best_d = dj;
                    best = j;
                }
            }
            debug_assert!(best != usize::MAX, "an active neighbor always exists");

            if Some(best) == prev {
                // Reciprocal nearest neighbors: merge `a` and `best`.
                chain.pop();
                chain.pop();
                let b = best;
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
                break;
            }
            chain.push(best);
        }
    }
    HacResult {
        dendrogram: Dendrogram::from_raw_merges(n, raw),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechd_rng::{Rng, Xoshiro256StarStar};

    fn random_matrix(n: usize, seed: u64) -> CondensedMatrix {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        CondensedMatrix::from_fn(n, |_, _| rng.range_f64(0.1, 100.0))
    }

    #[test]
    fn two_points() {
        let m = CondensedMatrix::from_condensed(2, vec![3.5]);
        let r = nn_chain(&m, Linkage::Complete);
        assert_eq!(r.dendrogram.merges().len(), 1);
        assert_eq!(r.dendrogram.merges()[0].height, 3.5);
        assert_eq!(r.stats.merges, 1);
    }

    #[test]
    fn single_point() {
        let m = CondensedMatrix::zeros(1);
        let r = nn_chain(&m, Linkage::Single);
        assert!(r.dendrogram.merges().is_empty());
    }

    #[test]
    fn well_separated_pairs_single_linkage() {
        // {0,1} at 1.0, {2,3} at 1.5, inter-group 50.
        let m = CondensedMatrix::from_fn(4, |i, j| {
            if (i < 2) == (j < 2) {
                if i < 2 {
                    1.0
                } else {
                    1.5
                }
            } else {
                50.0
            }
        });
        for linkage in Linkage::ALL {
            let dend = nn_chain(&m, linkage).dendrogram;
            let cut = dend.cut(10.0);
            assert_eq!(cut.num_clusters(), 2, "{linkage}");
            assert_eq!(cut.labels()[0], cut.labels()[1]);
            assert_eq!(cut.labels()[2], cut.labels()[3]);
        }
    }

    #[test]
    fn monotonic_for_all_linkages() {
        for linkage in Linkage::ALL {
            for seed in 0..5 {
                let m = random_matrix(40, seed);
                let r = nn_chain(&m, linkage);
                assert!(r.dendrogram.is_monotonic(), "{linkage} seed {seed}");
                assert_eq!(r.dendrogram.merges().len(), 39);
            }
        }
    }

    #[test]
    fn comparisons_quadratic_not_cubic() {
        // NN-chain on n points must do O(n^2) comparisons; allow a
        // generous constant but reject n^3 growth.
        let n = 120;
        let m = random_matrix(n, 9);
        let r = nn_chain(&m, Linkage::Complete);
        let n_u64 = n as u64;
        assert!(
            r.stats.comparisons < 8 * n_u64 * n_u64,
            "comparisons {} look super-quadratic",
            r.stats.comparisons
        );
    }

    #[test]
    fn ties_terminate() {
        // All-equal distances are the worst case for chain cycling.
        let m = CondensedMatrix::from_fn(12, |_, _| 1.0);
        let r = nn_chain(&m, Linkage::Average);
        assert_eq!(r.dendrogram.merges().len(), 11);
        assert!(r.dendrogram.heights().iter().all(|&h| h == 1.0));
    }

    #[test]
    fn deterministic() {
        let m = random_matrix(30, 3);
        let a = nn_chain(&m, Linkage::Ward);
        let b = nn_chain(&m, Linkage::Ward);
        assert_eq!(a.dendrogram, b.dendrogram);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn complete_linkage_height_is_max_pairwise_within_cluster() {
        // For complete linkage, cutting at threshold t guarantees every
        // within-cluster pairwise distance <= the height of the top merge
        // of that cluster; verify against the original matrix.
        let m = random_matrix(25, 4);
        let dend = nn_chain(&m, Linkage::Complete).dendrogram;
        let t = dend.heights()[12]; // mid-tree threshold
        let cut = dend.cut(t);
        for cluster in cut.clusters() {
            for (ai, &a) in cluster.iter().enumerate() {
                for &b in &cluster[ai + 1..] {
                    assert!(
                        m.get(a, b) <= t + 1e-9,
                        "pair ({a},{b}) = {} exceeds threshold {t}",
                        m.get(a, b)
                    );
                }
            }
        }
    }

    /// A `u16` matrix with cells drawn from `lo..=hi`, and the same
    /// distances as `f64` cells.
    fn tied_pair(n: usize, lo: u16, hi: u16, seed: u64) -> (CondensedMatrix, CondensedMatrix) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let span = u64::from(hi - lo) + 1;
        let cells: Vec<u16> = (0..n * (n - 1) / 2)
            .map(|_| lo + rng.bounded_u64(span) as u16)
            .collect();
        let wide = widened(&cells);
        (
            CondensedMatrix::from_condensed_u16(n, cells),
            CondensedMatrix::from_condensed(n, wide),
        )
    }

    fn assert_same(got: &HacResult, want: &HacResult, what: &str) {
        assert_eq!(got.dendrogram, want.dendrogram, "{what}: dendrogram");
        assert_eq!(got.stats, want.stats, "{what}: counters");
    }

    #[test]
    fn both_cell_types_equal_the_per_element_chain_under_heavy_ties() {
        // Few distinct values over many cells: nearly every scan ties.
        for values in [1u16, 2, 3, 8, 50, 2048] {
            for n in 2..=120 {
                let seed = u64::from(values) * 1000 + n as u64;
                let (narrow, wide) = tied_pair(n, 1, values, seed);
                for linkage in [Linkage::Complete, Linkage::Single] {
                    let want = per_element_chain(&wide, linkage);
                    let what = format!("{linkage} n {n} values {values}");
                    assert_same(&nn_chain(&narrow, linkage), &want, &format!("u16 {what}"));
                    assert_same(&nn_chain(&wide, linkage), &want, &format!("f64 {what}"));
                    assert_same(&per_element_chain(&narrow, linkage), &want, &what);
                }
            }
        }
    }

    #[test]
    fn all_equal_and_single_point_on_sixteen_bit_cells() {
        for linkage in Linkage::ALL {
            let one = CondensedMatrix::from_condensed_u16(1, vec![]);
            let r = nn_chain(&one, linkage);
            assert!(r.dendrogram.merges().is_empty());
            assert_eq!(r.stats, HacStats::default());

            let flat = CondensedMatrix::from_condensed_u16(12, vec![7; 66]);
            let r = nn_chain(&flat, linkage);
            assert_same(&r, &per_element_chain(&flat, linkage), linkage.name());
            assert!(r.dendrogram.heights().iter().all(|&h| h == 7.0));
        }
    }

    #[test]
    fn average_and_ward_widen_sixteen_bit_cells_once() {
        for linkage in [Linkage::Average, Linkage::Ward] {
            for (n, values) in [(2, 3u16), (17, 4), (60, 2048), (90, 9)] {
                let (narrow, wide) = tied_pair(n, 0, values, n as u64);
                let want = per_element_chain(&wide, linkage);
                let what = format!("{linkage} n {n}");
                assert_same(&nn_chain(&narrow, linkage), &want, &format!("u16 {what}"));
                assert_same(&nn_chain(&wide, linkage), &want, &format!("f64 {what}"));
            }
        }
    }

    #[test]
    fn the_largest_sixteen_bit_distance_is_not_mistaken_for_a_retired_cell() {
        // 0xFFFF is what retired cells are overwritten with and also a
        // legal distance at dim = 65 535: live cells at that distance must
        // still be found, at the lowest live index, and retired ones not.
        for linkage in [Linkage::Complete, Linkage::Single] {
            for n in 2..=40 {
                for lo in [u16::MAX, u16::MAX - 1, u16::MAX - 3] {
                    let (narrow, wide) = tied_pair(n, lo, u16::MAX, n as u64);
                    let want = per_element_chain(&wide, linkage);
                    let what = format!("{linkage} n {n} from {lo}");
                    assert_same(&nn_chain(&narrow, linkage), &want, &what);
                }
            }
        }
        // +∞ plays the same double role among f64 cells (the per-element
        // chain cannot start from a point whose every distance is +∞, so
        // there is no oracle here).
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        for n in 2..=40 {
            let m = CondensedMatrix::from_fn(n, |_, _| {
                if rng.bounded_u64(3) == 0 {
                    1.0
                } else {
                    f64::INFINITY
                }
            });
            for linkage in [Linkage::Complete, Linkage::Single] {
                let r = nn_chain(&m, linkage);
                assert_eq!(r.dendrogram.merges().len(), n - 1, "{linkage} n {n}");
                assert_eq!(r.dendrogram.cut(f64::INFINITY).num_clusters(), 1);
            }
        }
    }

    #[test]
    fn the_chain_runs_to_the_top_because_truncating_at_the_cut_changes_labels() {
        // d(1,0) = 20, d(2,0) = 20, d(2,1) = 5, d(3,0) = 15, d(3,1) = 10,
        // d(3,2) = 5. The chain starts at point 0, walks 0 → 3 → 2, and
        // point 2 prefers its predecessor 3 over the equidistant 1: {2, 3}
        // merge at 5 and nothing else merges at or below 7.
        //
        // "Never merge above the cut" would retire point 0 first (its
        // nearest neighbour, 3 at 15, is above the cut) and restart the
        // chain at point 1, whose nearest neighbour is 2: {1, 2} merge at
        // 5 and the labels come out [0, 1, 1, 2]. Both are valid
        // complete-linkage trees, but every equivalence suite pins the
        // first, so the chain builds the whole tree and the cut reads it.
        let cells = [20u16, 20, 5, 15, 10, 5];
        let narrow = CondensedMatrix::from_u16(4, &cells);
        let wide = CondensedMatrix::from_condensed(4, cells.map(f64::from).to_vec());
        for m in [&narrow, &wide] {
            let r = nn_chain(m, Linkage::Complete);
            assert_eq!(r.dendrogram.cut(7.0).labels(), &[0, 1, 2, 2]);
            assert_eq!(r.stats.merges, 3);
            assert_same(
                &r,
                &per_element_chain(m, Linkage::Complete),
                "counter-example",
            );
        }
    }

    #[test]
    #[should_panic(expected = "contains NaN")]
    fn nan_distances_panic() {
        let m = CondensedMatrix::from_condensed(3, vec![1.0, f64::NAN, 2.0]);
        nn_chain(&m, Linkage::Complete);
    }
}
