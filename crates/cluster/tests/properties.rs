//! Property-style tests for the clustering substrate.
//!
//! The workspace is dependency-free by design, so instead of `proptest`
//! these tests loop over seeded cases drawn from the in-repo
//! deterministic PRNG; failures are reproducible from the case seed.

use spechd_cluster::{medoid, naive_hac, nn_chain, ClusterAssignment, CondensedMatrix, Linkage};
use spechd_rng::{Rng, Xoshiro256StarStar};

const CASES: u64 = 48;

const LINKAGES: [Linkage; 4] = [
    Linkage::Single,
    Linkage::Complete,
    Linkage::Average,
    Linkage::Ward,
];

fn random_matrix(n: usize, seed: u64) -> CondensedMatrix {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    CondensedMatrix::from_fn(n, |_, _| rng.range_f64(0.01, 50.0))
}

fn random_labels(rng: &mut Xoshiro256StarStar, max_label: usize, max_len: usize) -> Vec<usize> {
    let len = rng.range_usize(0, max_len);
    (0..len).map(|_| rng.range_usize(0, max_label)).collect()
}

#[test]
fn nnchain_equals_naive() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x1_0000 + case);
        let n = rng.range_usize(2, 40);
        let linkage = LINKAGES[rng.range_usize(0, LINKAGES.len())];
        let m = random_matrix(n, rng.next_u64());
        let a = nn_chain(&m, linkage);
        let b = naive_hac(&m, linkage);
        let ha = a.dendrogram.heights();
        let hb = b.dendrogram.heights();
        for (x, y) in ha.iter().zip(&hb) {
            assert!((x - y).abs() < 1e-9, "{linkage}: heights differ {x} vs {y}");
        }
        // Identical partitions at any threshold.
        let t = ha[ha.len() / 2];
        assert_eq!(a.dendrogram.cut(t), b.dendrogram.cut(t));
    }
}

#[test]
fn dendrogram_cut_monotone_in_threshold() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x2_0000 + case);
        let n = rng.range_usize(2, 35);
        // Raising the threshold can only reduce (or keep) the cluster count.
        let m = random_matrix(n, rng.next_u64());
        let d = nn_chain(&m, Linkage::Complete).dendrogram;
        let mut prev = usize::MAX;
        for t in [0.0, 5.0, 10.0, 20.0, 40.0, f64::INFINITY] {
            let k = d.cut(t).num_clusters();
            assert!(k <= prev, "cut({t}) gave {k} > previous {prev}");
            prev = k;
        }
        assert_eq!(prev, 1, "infinite threshold must give one cluster");
    }
}

#[test]
fn cut_is_partition() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x3_0000 + case);
        let n = rng.range_usize(2, 35);
        let tfrac = rng.range_f64(0.0, 1.0);
        let m = random_matrix(n, rng.next_u64());
        let d = nn_chain(&m, Linkage::Average).dendrogram;
        let heights = d.heights();
        let t = heights[(tfrac * (heights.len() - 1) as f64) as usize];
        let cut = d.cut(t);
        assert_eq!(cut.len(), n);
        // Every item appears in exactly one cluster.
        let mut seen = vec![false; n];
        for cluster in cut.clusters() {
            for item in cluster {
                assert!(!seen[item], "item {item} in two clusters");
                seen[item] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}

#[test]
fn single_linkage_heights_match_mst_property() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x4_0000 + case);
        let n = rng.range_usize(2, 25);
        // For single linkage the first merge height must equal the matrix
        // minimum (the shortest edge of the minimum spanning tree).
        let m = random_matrix(n, rng.next_u64());
        let d = nn_chain(&m, Linkage::Single).dendrogram;
        let (_, _, dmin) = m.min_pair().unwrap();
        assert!((d.heights()[0] - dmin).abs() < 1e-9);
    }
}

#[test]
fn linkage_order_complete_geq_single() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x5_0000 + case);
        let n = rng.range_usize(3, 25);
        // At equal merge count the complete-linkage heights dominate the
        // single-linkage heights (standard containment property).
        let m = random_matrix(n, rng.next_u64());
        let hs = nn_chain(&m, Linkage::Single).dendrogram.heights();
        let hc = nn_chain(&m, Linkage::Complete).dendrogram.heights();
        for (s, c) in hs.iter().zip(&hc) {
            assert!(c + 1e-9 >= *s, "complete {c} < single {s}");
        }
    }
}

#[test]
fn medoid_minimizes_average_distance() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x7_0000 + case);
        let n = rng.range_usize(2, 20);
        let m = random_matrix(n, rng.next_u64());
        let members: Vec<usize> = (0..n).collect();
        let med = medoid(&m, &members);
        let avg = |c: usize| -> f64 {
            members
                .iter()
                .filter(|&&o| o != c)
                .map(|&o| m.get(c, o))
                .sum()
        };
        let med_avg = avg(med);
        for &c in &members {
            assert!(med_avg <= avg(c) + 1e-9);
        }
    }
}

#[test]
fn assignment_renumbering_idempotent() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x8_0000 + case);
        let raw = random_labels(&mut rng, 10, 60);
        let a = ClusterAssignment::from_raw_labels(&raw);
        let b = ClusterAssignment::from_raw_labels(a.labels());
        assert_eq!(a.labels(), b.labels());
    }
}

#[test]
fn clustered_ratio_bounds() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x9_0000 + case);
        let mut raw = random_labels(&mut rng, 8, 60);
        if raw.is_empty() {
            raw.push(rng.range_usize(0, 8));
        }
        let a = ClusterAssignment::from_raw_labels(&raw);
        let r = a.clustered_ratio();
        assert!((0.0..=1.0).contains(&r));
        let sizes = a.sizes();
        let total: usize = sizes.iter().sum();
        assert_eq!(total, raw.len());
    }
}
