//! Property-style tests for the HDC core invariants.
//!
//! The workspace is dependency-free by design (the lock file pins a
//! std-only graph), so instead of `proptest` these tests draw their
//! random cases from the in-repo deterministic PRNG: every test loops
//! over a fixed number of seeded cases, which keeps failures perfectly
//! reproducible.

use spechd_hdc::{BinaryHypervector, EncoderConfig, IdLevelEncoder, MajorityAccumulator};
use spechd_rng::{Rng, Xoshiro256StarStar};

const CASES: u64 = 64;

fn random_hv(dim: usize, rng: &mut Xoshiro256StarStar) -> BinaryHypervector {
    let mut sub = Xoshiro256StarStar::seed_from_u64(rng.next_u64());
    BinaryHypervector::random(dim, &mut sub)
}

fn random_peaks(rng: &mut Xoshiro256StarStar, min_len: usize, max_len: usize) -> Vec<(f64, f64)> {
    let len = rng.range_usize(min_len, max_len);
    (0..len)
        .map(|_| (rng.range_f64(200.0, 2000.0), rng.range_f64(0.0, 1.0)))
        .collect()
}

#[test]
fn xor_is_involutive() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x1000 + case);
        let a = random_hv(256, &mut rng);
        let b = random_hv(256, &mut rng);
        let bound = &a ^ &b;
        assert_eq!(&(&bound ^ &b), &a);
        assert_eq!(&(&bound ^ &a), &b);
    }
}

#[test]
fn xor_is_commutative() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x2000 + case);
        let a = random_hv(192, &mut rng);
        let b = random_hv(192, &mut rng);
        assert_eq!(&a ^ &b, &b ^ &a);
    }
}

#[test]
fn hamming_metric_axioms() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x3000 + case);
        let a = random_hv(320, &mut rng);
        let b = random_hv(320, &mut rng);
        let c = random_hv(320, &mut rng);
        // Identity of indiscernibles (one direction) + symmetry + triangle.
        assert_eq!(a.hamming(&a), 0);
        assert_eq!(a.hamming(&b), b.hamming(&a));
        assert!(a.hamming(&c) <= a.hamming(&b) + b.hamming(&c));
    }
}

#[test]
fn hamming_bounded_by_dim() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x4000 + case);
        let a = random_hv(128, &mut rng);
        let b = random_hv(128, &mut rng);
        assert!(a.hamming(&b) <= 128);
    }
}

#[test]
fn xor_distance_preservation() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x5000 + case);
        let a = random_hv(256, &mut rng);
        let b = random_hv(256, &mut rng);
        let key = random_hv(256, &mut rng);
        // Binding with a shared key is an isometry of Hamming space.
        assert_eq!((&a ^ &key).hamming(&(&b ^ &key)), a.hamming(&b));
    }
}

#[test]
fn count_ones_consistent_with_zero_distance() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x6000 + case);
        let a = random_hv(512, &mut rng);
        let z = BinaryHypervector::zeros(512);
        assert_eq!(a.hamming(&z), a.count_ones());
    }
}

#[test]
fn rotation_is_isometric() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x7000 + case);
        let a = random_hv(200, &mut rng);
        let b = random_hv(200, &mut rng);
        let k = rng.range_usize(0, 400);
        assert_eq!(a.rotate(k).hamming(&b.rotate(k)), a.hamming(&b));
    }
}

#[test]
fn majority_within_union_bounds() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x8000 + case);
        // Every set bit of the majority must be set in at least one member.
        let dim = 160;
        let n = rng.range_usize(1, 8);
        let hvs: Vec<BinaryHypervector> = (0..n).map(|_| random_hv(dim, &mut rng)).collect();
        let mut acc = MajorityAccumulator::new(dim);
        for h in &hvs {
            acc.add(h);
        }
        let maj = acc.finalize();
        let mut union = BinaryHypervector::zeros(dim);
        for h in &hvs {
            union = &union | h;
        }
        assert_eq!(&(&maj & &union), &maj, "majority must be subset of union");
    }
}

#[test]
fn encoder_deterministic() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xa000 + case);
        let seed = rng.next_u64();
        let peaks = random_peaks(&mut rng, 0, 40);
        let cfg = EncoderConfig {
            dim: 512,
            mz_bins: 128,
            intensity_levels: 16,
            mz_range: (200.0, 2000.0),
            seed,
        };
        let a = IdLevelEncoder::new(cfg).encode(&peaks);
        let b = IdLevelEncoder::new(cfg).encode(&peaks);
        assert_eq!(a, b);
    }
}

#[test]
fn encoder_permutation_invariant() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xb000 + case);
        let peaks = random_peaks(&mut rng, 1, 30);
        let rot = rng.range_usize(0, 30);
        let cfg = EncoderConfig {
            dim: 512,
            mz_bins: 128,
            intensity_levels: 16,
            mz_range: (200.0, 2000.0),
            seed: 5,
        };
        let enc = IdLevelEncoder::new(cfg);
        let mut rotated = peaks.clone();
        rotated.rotate_left(rot % peaks.len().max(1));
        assert_eq!(enc.encode(&peaks), enc.encode(&rotated));
    }
}
