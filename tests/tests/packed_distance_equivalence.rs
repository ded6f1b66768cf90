//! Seeded equivalence suite: the tiled/threaded packed kernels must be
//! bit-exact with the scalar `BinaryHypervector::hamming` reference across
//! word-boundary dimensionalities, tile-boundary set sizes and worker
//! counts — including the masked-tail invariant for dims that do not fill
//! their last 64-bit word.

use spechd_baselines::dbscan::{dbscan, dbscan_packed, DbscanParams};
use spechd_cluster::CondensedMatrix;
use spechd_hdc::distance::{self, PackedDistanceEngine};
use spechd_hdc::{BinaryHypervector, EncoderConfig, HvPack, IdLevelEncoder};
use spechd_rng::{Rng, Xoshiro256StarStar};
use spechd_tests::random_rows;

const DIMS: [usize; 4] = [63, 64, 65, 2048];
const SIZES: [usize; 4] = [0, 1, 2, 257];
const THREADS: [usize; 3] = [1, 2, 4];

/// Scalar oracle built pair-by-pair from `BinaryHypervector::hamming`.
fn oracle_condensed(hvs: &[BinaryHypervector]) -> Vec<u16> {
    let n = hvs.len();
    let mut out = Vec::new();
    for i in 1..n {
        for j in 0..i {
            out.push(hvs[i].hamming(&hvs[j]) as u16);
        }
    }
    out
}

#[test]
fn pairwise_packed_bit_exact_across_shapes_and_threads() {
    for &dim in &DIMS {
        for &n in &SIZES {
            let hvs = random_rows(n, dim, (dim * 1000 + n) as u64);
            let pack = HvPack::from_hypervectors(dim, &hvs);
            let oracle = oracle_condensed(&hvs);
            assert_eq!(distance::pairwise_condensed(&hvs), oracle);
            for &threads in &THREADS {
                // A tile size that does not divide 257 exercises ragged
                // row/column tiles.
                let engine = PackedDistanceEngine::new().threads(threads).tile_rows(48);
                assert_eq!(
                    engine.pairwise_condensed(&pack),
                    oracle,
                    "dim {dim} n {n} threads {threads}"
                );
            }
        }
    }
}

#[test]
fn one_to_many_packed_bit_exact_across_shapes_and_threads() {
    for &dim in &DIMS {
        for &n in &SIZES {
            if n == 0 {
                continue;
            }
            let hvs = random_rows(n, dim, (dim * 2000 + n) as u64);
            let pack = HvPack::from_hypervectors(dim, &hvs);
            let query = &hvs[n / 2];
            let oracle: Vec<u16> = hvs.iter().map(|h| query.hamming(h) as u16).collect();
            assert_eq!(distance::one_to_many(query, &hvs), oracle);
            for &threads in &THREADS {
                let engine = PackedDistanceEngine::new().threads(threads);
                assert_eq!(
                    engine.one_to_many(query, &pack),
                    oracle,
                    "dim {dim} n {n} threads {threads}"
                );
            }
        }
    }
}

#[test]
fn neighbors_within_bit_exact_across_shapes_and_threads() {
    for &dim in &DIMS {
        for &n in &SIZES {
            let hvs = random_rows(n, dim, (dim * 3000 + n) as u64);
            let pack = HvPack::from_hypervectors(dim, &hvs);
            // Around half the bits differ for random pairs, so dim * 0.48
            // makes both membership outcomes common.
            let eps = (dim as u32) * 48 / 100;
            let oracle: Vec<Vec<usize>> = (0..n)
                .map(|p| {
                    (0..n)
                        .filter(|&q| q != p && hvs[p].hamming(&hvs[q]) <= eps)
                        .collect()
                })
                .collect();
            for &threads in &THREADS {
                let engine = PackedDistanceEngine::new().threads(threads).tile_rows(48);
                assert_eq!(
                    engine.neighbors_within(&pack, eps),
                    oracle,
                    "dim {dim} n {n} threads {threads}"
                );
            }
        }
    }
}

#[test]
fn masked_tail_invariant_survives_every_pack_path() {
    for &dim in &[63usize, 65, 127] {
        let rem = dim % 64;
        let tail_mask = !((1u64 << rem) - 1);
        let hvs = random_rows(9, dim, dim as u64);

        let mut pack = HvPack::from_hypervectors(dim, &hvs);
        pack.push(&BinaryHypervector::ones(dim));
        let gathered = pack.gather(&[9, 0, 9]);

        for (label, p) in [("pushed", &pack), ("gathered", &gathered)] {
            for i in 0..p.len() {
                let last = *p.row(i).last().unwrap();
                assert_eq!(last & tail_mask, 0, "{label} dim {dim} row {i}");
            }
        }
        // Distances against all-ones rows are honest only if no stray tail
        // bit contributes to a popcount. Gathered rows: [ones, hvs[0], ones].
        let d = PackedDistanceEngine::new().pairwise_condensed(&gathered);
        assert_eq!(
            u32::from(d[0]),
            hvs[0].hamming(&BinaryHypervector::ones(dim))
        );
        assert_eq!(d[1], 0, "identical all-ones rows must be 0 apart");
    }
}

#[test]
fn batch_encoded_pack_is_bit_exact_with_scalar_encoder() {
    let encoder = IdLevelEncoder::new(EncoderConfig {
        dim: 2048,
        mz_bins: 256,
        intensity_levels: 16,
        mz_range: (200.0, 2000.0),
        seed: 77,
    });
    let mut rng = Xoshiro256StarStar::seed_from_u64(7);
    let spectra: Vec<Vec<(f64, f64)>> = (0..40)
        .map(|i| {
            (0..(i % 30))
                .map(|_| (rng.range_f64(200.0, 2000.0), rng.next_f64()))
                .collect()
        })
        .collect();
    let pack = encoder.encode_batch_packed(&spectra);
    let reference: Vec<BinaryHypervector> = spectra.iter().map(|p| encoder.encode(p)).collect();
    assert_eq!(pack.to_hypervectors(), reference);
    // And the packed distances over encoded spectra match the oracle.
    assert_eq!(
        PackedDistanceEngine::new().pairwise_condensed(&pack),
        oracle_condensed(&reference)
    );
}

#[test]
fn dbscan_via_neighbors_within_matches_matrix_backed_labels() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(99);
    let dim = 2048;
    // Five planted clusters of noisy copies plus background noise.
    let mut hvs = Vec::new();
    for _ in 0..5 {
        let proto = BinaryHypervector::random(dim, &mut rng);
        for _ in 0..4 {
            let mut member = proto.clone();
            member.flip_random_bits(100, &mut rng);
            hvs.push(member);
        }
    }
    for _ in 0..6 {
        hvs.push(BinaryHypervector::random(dim, &mut rng));
    }
    let pack = HvPack::from_hypervectors(dim, &hvs);
    let matrix = CondensedMatrix::from_pack(&pack);
    for eps in [150.0, 400.0, 900.0] {
        for min_pts in [2usize, 4] {
            let params = DbscanParams { eps, min_pts };
            let packed = dbscan_packed(&pack, params);
            let reference = dbscan(&matrix, params);
            assert_eq!(
                packed.labels(),
                reference.labels(),
                "eps {eps} min_pts {min_pts}"
            );
            assert_eq!(packed.num_clusters(), reference.num_clusters());
        }
    }
}
