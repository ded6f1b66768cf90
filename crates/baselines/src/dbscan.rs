//! DBSCAN over a precomputed distance matrix or a packed hypervector store.
//!
//! HyperSpec's faster-but-lower-quality clustering flavour runs DBSCAN (via
//! cuML); SpecHD compares against it in Figs. 9–10, and falcon joins
//! cosine neighbours with the same density rule. Both forms build
//! epsilon-neighbourhood lists and share one expansion loop.

use spechd_cluster::{ClusterAssignment, CondensedMatrix};
use spechd_hdc::distance::PackedDistanceEngine;
use spechd_hdc::HvPack;

/// DBSCAN parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbscanParams {
    /// Neighborhood radius.
    pub eps: f64,
    /// Minimum neighborhood size (including the point itself) for a core
    /// point.
    pub min_pts: usize,
}

impl Default for DbscanParams {
    fn default() -> Self {
        Self {
            eps: 0.2,
            min_pts: 2,
        }
    }
}

/// DBSCAN output: an optional cluster id per point (`None` = noise).
///
/// Public as the result of [`dbscan`] and [`dbscan_packed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbscanResult {
    labels: Vec<Option<usize>>,
    num_clusters: usize,
}

impl DbscanResult {
    /// Cluster id per point; `None` marks noise.
    pub fn labels(&self) -> &[Option<usize>] {
        &self.labels
    }

    /// Number of clusters found (noise excluded).
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }

    /// Number of noise points.
    pub fn noise_count(&self) -> usize {
        self.labels.iter().filter(|l| l.is_none()).count()
    }

    /// Converts to a flat assignment, giving each noise point its own
    /// singleton cluster (the convention the quality metrics expect).
    pub(crate) fn to_assignment(&self) -> ClusterAssignment {
        let mut next = self.num_clusters;
        let raw: Vec<usize> = self
            .labels
            .iter()
            .map(|l| match l {
                Some(id) => *id,
                None => {
                    next += 1;
                    next - 1
                }
            })
            .collect();
        ClusterAssignment::from_raw_labels(&raw)
    }
}

/// Runs DBSCAN.
///
/// # Panics
///
/// Panics if `min_pts == 0` or `eps` is negative/NaN.
///
/// # Examples
///
/// ```
/// use spechd_baselines::dbscan::{dbscan, DbscanParams};
/// use spechd_cluster::CondensedMatrix;
/// // Two tight pairs and one far outlier.
/// let m = CondensedMatrix::from_fn(5, |i, j| match (i, j) {
///     (1, 0) => 0.1,
///     (3, 2) => 0.1,
///     _ => 9.0,
/// });
/// let r = dbscan(&m, DbscanParams { eps: 0.5, min_pts: 2 });
/// assert_eq!(r.num_clusters(), 2);
/// assert_eq!(r.noise_count(), 1);
/// ```
pub fn dbscan(matrix: &CondensedMatrix, params: DbscanParams) -> DbscanResult {
    assert!(
        params.eps >= 0.0 && !params.eps.is_nan(),
        "eps must be non-negative"
    );
    let n = matrix.n();
    let neighbors: Vec<Vec<usize>> = (0..n)
        .map(|p| {
            (0..n)
                .filter(|&q| q != p && matrix.get(p, q) <= params.eps)
                .collect()
        })
        .collect();
    dbscan_from_neighbors(&neighbors, params.min_pts)
}

/// Runs DBSCAN directly over a packed hypervector store using the tiled
/// epsilon-neighborhood kernel; `params.eps` is in Hamming-distance bits.
///
/// Label-identical to building a [`CondensedMatrix`] from the pack and
/// calling [`dbscan`], without the O(n²) matrix. Like
/// [`CondensedMatrix::from_pack`], the kernel runs on the caller's thread:
/// a pack here is one bucket.
///
/// # Panics
///
/// Panics if `min_pts == 0` or `eps` is negative/NaN.
pub fn dbscan_packed(pack: &HvPack, params: DbscanParams) -> DbscanResult {
    assert!(
        params.eps >= 0.0 && !params.eps.is_nan(),
        "eps must be non-negative"
    );
    // Integer distances: d <= eps  ⟺  d <= floor(eps), capped at dim.
    let eps_bits = params.eps.min(pack.dim() as f64).floor() as u32;
    let adjacency = PackedDistanceEngine::new()
        .threads(1)
        .neighbors_within(pack, eps_bits);
    dbscan_from_neighbors(&adjacency, params.min_pts)
}

/// The one expansion loop: DBSCAN over epsilon-neighborhood lists, where
/// `neighbors[p]` holds every point within `eps` of `p`, excluding `p`
/// itself, in ascending order. A border point joins the first cluster that
/// reaches it, so the order of a list can change labels.
///
/// # Panics
///
/// Panics if `min_pts == 0` or any list references an out-of-range point.
pub(crate) fn dbscan_from_neighbors(neighbors: &[Vec<usize>], min_pts: usize) -> DbscanResult {
    assert!(min_pts > 0, "min_pts must be positive");
    let n = neighbors.len();
    assert!(
        neighbors.iter().flatten().all(|&q| q < n),
        "neighbor index out of range"
    );
    let mut labels: Vec<Option<usize>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut cluster = 0usize;

    for p in 0..n {
        if visited[p] {
            continue;
        }
        visited[p] = true;
        if neighbors[p].len() + 1 < min_pts {
            continue; // noise (may later be claimed as border point)
        }
        // Expand a new cluster from core point p.
        labels[p] = Some(cluster);
        let mut queue: std::collections::VecDeque<usize> = neighbors[p].iter().copied().collect();
        while let Some(q) = queue.pop_front() {
            if labels[q].is_none() {
                labels[q] = Some(cluster);
            }
            if visited[q] {
                continue;
            }
            visited[q] = true;
            if neighbors[q].len() + 1 >= min_pts {
                for &r in &neighbors[q] {
                    if !visited[r] || labels[r].is_none() {
                        queue.push_back(r);
                    }
                }
            }
        }
        cluster += 1;
    }
    DbscanResult {
        labels,
        num_clusters: cluster,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechd_rng::{Rng, Xoshiro256StarStar};

    const CASES: u64 = 48;

    fn random_matrix(n: usize, seed: u64) -> CondensedMatrix {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        CondensedMatrix::from_fn(n, |_, _| rng.range_f64(0.01, 50.0))
    }

    /// 0-1-2 chained within eps, 3-4 pair, 5 isolated.
    fn chain_matrix() -> CondensedMatrix {
        CondensedMatrix::from_fn(6, |i, j| match (i, j) {
            (1, 0) | (2, 1) => 0.1,
            (2, 0) => 0.18,
            (4, 3) => 0.1,
            _ => 5.0,
        })
    }

    #[test]
    fn basic_two_clusters_one_noise() {
        let r = dbscan(
            &chain_matrix(),
            DbscanParams {
                eps: 0.2,
                min_pts: 2,
            },
        );
        assert_eq!(r.num_clusters(), 2);
        assert_eq!(r.noise_count(), 1);
        assert_eq!(r.labels()[0], r.labels()[1]);
        assert_eq!(r.labels()[1], r.labels()[2]);
        assert_eq!(r.labels()[3], r.labels()[4]);
        assert_ne!(r.labels()[0], r.labels()[3]);
        assert_eq!(r.labels()[5], None);
    }

    #[test]
    fn density_chaining_transitive() {
        // With eps=0.15 the (2,0)=0.18 link is gone but 0-1-2 still chains
        // through point 1.
        let r = dbscan(
            &chain_matrix(),
            DbscanParams {
                eps: 0.15,
                min_pts: 2,
            },
        );
        assert_eq!(r.labels()[0], r.labels()[2]);
    }

    #[test]
    fn min_pts_three_dissolves_pairs() {
        let r = dbscan(
            &chain_matrix(),
            DbscanParams {
                eps: 0.2,
                min_pts: 3,
            },
        );
        // The 3-4 pair has only 2 members: noise. Chain 0-1-2: point 1 has
        // two neighbors (0, 2) => core with min_pts=3.
        assert_eq!(r.num_clusters(), 1);
        assert_eq!(r.labels()[3], None);
        assert_eq!(r.labels()[4], None);
    }

    #[test]
    fn everything_noise_with_tiny_eps() {
        let r = dbscan(
            &chain_matrix(),
            DbscanParams {
                eps: 0.01,
                min_pts: 2,
            },
        );
        assert_eq!(r.num_clusters(), 0);
        assert_eq!(r.noise_count(), 6);
    }

    #[test]
    fn everything_one_cluster_with_huge_eps() {
        let r = dbscan(
            &chain_matrix(),
            DbscanParams {
                eps: 100.0,
                min_pts: 2,
            },
        );
        assert_eq!(r.num_clusters(), 1);
        assert_eq!(r.noise_count(), 0);
    }

    #[test]
    fn to_assignment_gives_noise_singletons() {
        let r = dbscan(
            &chain_matrix(),
            DbscanParams {
                eps: 0.2,
                min_pts: 2,
            },
        );
        let a = r.to_assignment();
        assert_eq!(a.num_clusters(), 3); // 2 clusters + 1 noise singleton
        assert_eq!(a.len(), 6);
        assert_eq!(a.sizes().iter().filter(|&&size| size == 1).count(), 1);
    }

    #[test]
    fn deterministic() {
        let p = DbscanParams {
            eps: 0.2,
            min_pts: 2,
        };
        assert_eq!(dbscan(&chain_matrix(), p), dbscan(&chain_matrix(), p));
    }

    #[test]
    fn from_neighbors_matches_matrix_path() {
        let m = chain_matrix();
        let params = DbscanParams {
            eps: 0.2,
            min_pts: 2,
        };
        let lists: Vec<Vec<usize>> = (0..m.n())
            .map(|p| {
                (0..m.n())
                    .filter(|&q| q != p && m.get(p, q) <= params.eps)
                    .collect()
            })
            .collect();
        assert_eq!(
            dbscan_from_neighbors(&lists, params.min_pts),
            dbscan(&m, params)
        );
    }

    #[test]
    fn packed_matches_matrix_path_on_hypervectors() {
        use spechd_hdc::BinaryHypervector;
        let mut rng = Xoshiro256StarStar::seed_from_u64(42);
        // Three noisy copies each of two prototypes, plus two random points.
        let mut hvs = Vec::new();
        for _ in 0..2 {
            let proto = BinaryHypervector::random(512, &mut rng);
            for _ in 0..3 {
                let mut member = proto.clone();
                member.flip_random_bits(20, &mut rng);
                hvs.push(member);
            }
        }
        hvs.push(BinaryHypervector::random(512, &mut rng));
        hvs.push(BinaryHypervector::random(512, &mut rng));
        let params = DbscanParams {
            eps: 80.0,
            min_pts: 2,
        };
        let pack = HvPack::from_hypervectors(512, &hvs);
        let via_pack = dbscan_packed(&pack, params);
        let via_matrix = dbscan(&CondensedMatrix::from_pack(&pack), params);
        assert_eq!(via_pack, via_matrix);
        assert_eq!(via_pack.num_clusters(), 2);
    }

    #[test]
    #[should_panic(expected = "neighbor index")]
    fn from_neighbors_rejects_out_of_range() {
        dbscan_from_neighbors(&[vec![1], vec![2]], 1);
    }

    #[test]
    #[should_panic(expected = "min_pts")]
    fn zero_min_pts_panics() {
        dbscan(
            &chain_matrix(),
            DbscanParams {
                eps: 0.1,
                min_pts: 0,
            },
        );
    }

    #[test]
    fn dbscan_eps_monotone() {
        for case in 0..CASES {
            let mut rng = Xoshiro256StarStar::seed_from_u64(0x6_0000 + case);
            let n = rng.range_usize(3, 30);
            // Larger eps can only merge clusters / reduce noise.
            let m = random_matrix(n, rng.next_u64());
            let small = dbscan(
                &m,
                DbscanParams {
                    eps: 5.0,
                    min_pts: 2,
                },
            );
            let large = dbscan(
                &m,
                DbscanParams {
                    eps: 45.0,
                    min_pts: 2,
                },
            );
            assert!(large.noise_count() <= small.noise_count());
        }
    }
}
