//! Pointwise majority bundling (Eq. 2 of the SpecHD paper).

use crate::BinaryHypervector;

/// Accumulates bound hypervectors and binarizes with a pointwise majority.
///
/// The SpecHD encoder XORs an `ID` vector with a `Level` vector for every
/// peak and sums the results per dimension; the final spectrum hypervector
/// sets each bit to the majority vote of the accumulated terms. In hardware
/// this is an array of small counters next to the encoding pipeline, fed a
/// whole word of lanes per cycle. Here the counters are **bit-sliced**
/// (Schmuck et al., arXiv:1807.08583): plane `p` is a row of
/// `dim.div_ceil(64)` words holding bit `p` of every lane's *ones*-count,
/// so one `u64` operation advances 64 counters at once.
///
/// * **Add** is a ripple-carry chain of half adders over whole words: the
///   incoming vector is the carry into plane 0, and each plane does
///   `t = plane & carry; plane ^= carry; carry = t`.
/// * **Planes grow with the count**: `count` accumulated votes need
///   `⌈log₂(count + 1)⌉` planes (six for the ≤ 50 peaks of a preprocessed
///   spectrum), so the chain never carries out of the top plane. The
///   allocation survives [`clear`](Self::clear); a plane is zeroed when the
///   count next grows into it.
/// * **Finalize** compares every lane's ones-count against `⌊count / 2⌋`,
///   most significant plane first, again a word at a time. A lane holds
///   `ones` set votes and `count − ones` clear ones, so `ones > ⌊count / 2⌋`
///   is exactly `#ones − #zeros > 0`.
///
/// Ties (possible when an even number of vectors was accumulated) are broken
/// deterministically towards zero, matching the `>` comparator the HLS
/// kernel synthesizes. Bits beyond `dim` in the last word are zero in every
/// input, so their lanes count zero ones and stay zero in the output.
///
/// # Examples
///
/// ```
/// use spechd_hdc::{BinaryHypervector, MajorityAccumulator};
///
/// let a = BinaryHypervector::from_fn(8, |i| i < 6); // 11111100
/// let b = BinaryHypervector::from_fn(8, |i| i < 4); // 11110000
/// let c = BinaryHypervector::from_fn(8, |i| i < 2); // 11000000
/// let mut acc = MajorityAccumulator::new(8);
/// acc.add(&a);
/// acc.add(&b);
/// acc.add(&c);
/// let hv = acc.finalize();
/// // Majority of three: bits 0..4 set (>=2 votes), bits 4..8 clear.
/// assert_eq!(hv, BinaryHypervector::from_fn(8, |i| i < 4));
/// ```
#[derive(Debug, Clone)]
pub struct MajorityAccumulator {
    dim: usize,
    /// Plane-major counter bits: word `w` of plane `p` is
    /// `planes[p * stride + w]`. Only the first `active_planes()` planes
    /// are meaningful; anything above is stale from before a `clear`.
    planes: Vec<u64>,
    /// One row of scratch: the carry travelling up the adder chain.
    carry: Vec<u64>,
    count: usize,
}

impl MajorityAccumulator {
    /// Creates an empty accumulator for hypervectors of dimensionality `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "accumulator dimensionality must be positive");
        Self {
            dim,
            planes: Vec::new(),
            carry: vec![0; dim.div_ceil(64)],
            count: 0,
        }
    }

    /// Dimensionality of the accumulated vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of hypervectors accumulated so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether nothing has been accumulated yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Adds one hypervector: each set bit votes `1`, each clear bit `0`.
    ///
    /// # Panics
    ///
    /// Panics if dimensionalities differ.
    pub fn add(&mut self, hv: &BinaryHypervector) {
        assert_eq!(hv.dim(), self.dim, "dimensionality mismatch");
        self.ripple(|carry| carry.copy_from_slice(hv.words()));
    }

    /// Adds the bound vector `a ⊕ b` of two packed rows (e.g.
    /// [`crate::HvPack::row`]s) without materializing it: the XOR is
    /// computed straight into the adder chain's carry row. This is the
    /// encoder's per-peak `ID ⊕ Level` step.
    ///
    /// # Panics
    ///
    /// Panics if either row's word count differs from `dim.div_ceil(64)`.
    pub(crate) fn add_bound(&mut self, a: &[u64], b: &[u64]) {
        let stride = self.carry.len();
        assert!(
            a.len() == stride && b.len() == stride,
            "row word count must match accumulator dimensionality"
        );
        self.ripple(|carry| {
            for ((c, x), y) in carry.iter_mut().zip(a).zip(b) {
                *c = x ^ y;
            }
        });
    }

    /// Planes needed to hold a ones-count of up to `count`:
    /// `⌈log₂(count + 1)⌉`, the bit length of `count`.
    fn active_planes(&self) -> usize {
        (usize::BITS - self.count.leading_zeros()) as usize
    }

    /// Adds the vector `load` writes into the carry row.
    fn ripple(&mut self, load: impl FnOnce(&mut [u64])) {
        let stride = self.carry.len();
        let before = self.active_planes();
        self.count += 1;
        let active = self.active_planes();
        if active > before {
            if self.planes.len() < active * stride {
                self.planes.resize(active * stride, 0);
            }
            self.planes[before * stride..active * stride].fill(0);
        }
        // No lane ever counts more than `count < 2^active` ones, so the
        // carry out of the top plane is always zero and can be dropped.
        load(&mut self.carry);
        for plane in self.planes[..active * stride].chunks_exact_mut(stride) {
            for (p, c) in plane.iter_mut().zip(&mut self.carry) {
                let t = *p & *c;
                *p ^= *c;
                *c = t;
            }
        }
    }

    /// Binarizes: bit `i` is set iff more than half of the accumulated
    /// votes for lane `i` were set (ties → 0).
    pub fn finalize(&self) -> BinaryHypervector {
        let mut words = vec![0; self.carry.len()];
        self.finalize_into_words(&mut words);
        BinaryHypervector::from_words(self.dim, words)
    }

    /// Binarizes directly into a packed word row (little-endian bit order,
    /// tail bits beyond `dim` zeroed) — the allocation-free path the batch
    /// encoder uses to fill [`crate::HvPack`] rows in place.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != dim.div_ceil(64)`.
    pub(crate) fn finalize_into_words(&self, row: &mut [u64]) {
        let stride = self.carry.len();
        assert_eq!(
            row.len(),
            stride,
            "row word count must match accumulator dimensionality"
        );
        let threshold = self.count / 2;
        let active = self.active_planes();
        for (w, out) in row.iter_mut().enumerate() {
            // Lanes already decided greater, and lanes still equal to the
            // threshold on every plane above the current one.
            let (mut greater, mut equal) = (0u64, u64::MAX);
            for p in (0..active).rev() {
                let ones = self.planes[p * stride + w];
                if (threshold >> p) & 1 == 1 {
                    equal &= ones;
                } else {
                    greater |= equal & ones;
                    equal &= !ones;
                }
            }
            *out = greater;
        }
    }

    /// Resets the accumulator for reuse without reallocating.
    pub fn clear(&mut self) {
        self.count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechd_rng::{Rng, Xoshiro256StarStar};

    /// The ones-count of one lane, read back out of the planes.
    fn lane_ones(acc: &MajorityAccumulator, lane: usize) -> usize {
        let stride = acc.carry.len();
        (0..acc.active_planes())
            .map(|p| ((acc.planes[p * stride + lane / 64] >> (lane % 64)) as usize & 1) << p)
            .sum()
    }

    /// The reference this accumulator must stay bit-identical to: one signed
    /// `#ones − #zeros` counter per lane, binarized with `> 0`.
    fn per_lane_majority(dim: usize, terms: &[BinaryHypervector]) -> BinaryHypervector {
        let mut counters = vec![0i32; dim];
        for hv in terms {
            for (lane, counter) in counters.iter_mut().enumerate() {
                if hv.bit(lane) {
                    *counter += 1;
                } else {
                    *counter -= 1;
                }
            }
        }
        BinaryHypervector::from_fn(dim, |lane| counters[lane] > 0)
    }

    #[test]
    fn matches_per_lane_oracle_on_a_reused_accumulator() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        for dim in [1usize, 63, 64, 65, 130, 2048, 4097] {
            let mut acc = MajorityAccumulator::new(dim);
            for vectors in [0usize, 1, 2, 3, 4, 63, 64, 65, 500] {
                // Drive the planes past anything this case reaches (1 025
                // votes fill 11 planes, 500 need 9), so a stale high plane
                // would show.
                let noise: Vec<_> = (0..3)
                    .map(|_| BinaryHypervector::random(dim, &mut rng))
                    .collect();
                for i in 0..1025 {
                    acc.add(&noise[i % 3]);
                }
                acc.clear();
                let terms: Vec<_> = (0..vectors)
                    .map(|_| BinaryHypervector::random(dim, &mut rng))
                    .collect();
                for hv in &terms {
                    acc.add(hv);
                }
                assert_eq!(acc.count(), vectors);
                let expect = per_lane_majority(dim, &terms);
                assert_eq!(acc.finalize(), expect, "dim {dim}, {vectors} vectors");
                let mut row = vec![u64::MAX; dim.div_ceil(64)];
                acc.finalize_into_words(&mut row);
                assert_eq!(
                    BinaryHypervector::from_words(dim, row),
                    expect,
                    "dim {dim}, {vectors} vectors"
                );
            }
        }
    }

    #[test]
    fn add_bound_equals_add_of_the_xor() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(12);
        for dim in [63usize, 64, 65, 2048] {
            let mut fused = MajorityAccumulator::new(dim);
            let mut plain = MajorityAccumulator::new(dim);
            for _ in 0..9 {
                let a = BinaryHypervector::random(dim, &mut rng);
                let b = BinaryHypervector::random(dim, &mut rng);
                fused.add_bound(a.words(), b.words());
                plain.add(&(&a ^ &b));
            }
            assert_eq!(fused.count(), plain.count());
            assert_eq!(fused.finalize(), plain.finalize(), "dim {dim}");
        }
    }

    #[test]
    fn single_vector_majority_is_identity() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let hv = BinaryHypervector::random(256, &mut rng);
        let mut acc = MajorityAccumulator::new(256);
        acc.add(&hv);
        assert_eq!(acc.finalize(), hv);
    }

    #[test]
    fn empty_accumulator_finalizes_to_zeros() {
        let acc = MajorityAccumulator::new(64);
        assert!(acc.is_empty());
        assert_eq!(acc.finalize(), BinaryHypervector::zeros(64));
    }

    #[test]
    fn majority_of_identical_vectors_is_that_vector() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let hv = BinaryHypervector::random(128, &mut rng);
        let mut acc = MajorityAccumulator::new(128);
        for _ in 0..7 {
            acc.add(&hv);
        }
        assert_eq!(acc.finalize(), hv);
    }

    #[test]
    fn ties_break_to_zero() {
        let ones = BinaryHypervector::ones(16);
        let zeros = BinaryHypervector::zeros(16);
        let mut acc = MajorityAccumulator::new(16);
        acc.add(&ones);
        acc.add(&zeros);
        assert_eq!(acc.finalize(), zeros, "even split must resolve to 0 bits");
    }

    #[test]
    fn majority_is_closer_to_members_than_random() {
        // The bundled vector must be more similar to each of its members
        // than to an unrelated random vector — the key HDC property SpecHD
        // relies on for clustering quality.
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let dim = 2048;
        let members: Vec<BinaryHypervector> = (0..5)
            .map(|_| BinaryHypervector::random(dim, &mut rng))
            .collect();
        let mut acc = MajorityAccumulator::new(dim);
        for m in &members {
            acc.add(m);
        }
        let bundle = acc.finalize();
        let outsider = BinaryHypervector::random(dim, &mut rng);
        let outsider_d = bundle.hamming(&outsider);
        for m in &members {
            assert!(
                bundle.hamming(m) < outsider_d,
                "bundle should stay close to members"
            );
        }
    }

    #[test]
    fn clear_resets() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let hv = BinaryHypervector::random(64, &mut rng);
        let mut acc = MajorityAccumulator::new(64);
        acc.add(&hv);
        acc.clear();
        assert!(acc.is_empty());
        assert_eq!(acc.finalize(), BinaryHypervector::zeros(64));
    }

    #[test]
    fn counters_are_bounded_by_count() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        let mut acc = MajorityAccumulator::new(128);
        for _ in 0..9 {
            let hv = BinaryHypervector::random(128, &mut rng);
            acc.add(&hv);
        }
        for lane in 0..128 {
            // `#ones − #zeros` over nine votes: odd, and within ±9.
            let c = 2 * lane_ones(&acc, lane) as i32 - 9;
            assert!(
                c.unsigned_abs() as usize <= 9 && (c % 2 != 0),
                "counter {c}"
            );
        }
    }

    #[test]
    fn finalize_into_words_matches_finalize() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(10);
        for dim in [63usize, 64, 65, 130, 2048] {
            let mut acc = MajorityAccumulator::new(dim);
            for _ in 0..5 {
                acc.add(&BinaryHypervector::random(dim, &mut rng));
            }
            let mut row = vec![u64::MAX; dim.div_ceil(64)];
            acc.finalize_into_words(&mut row);
            assert_eq!(
                BinaryHypervector::from_words(dim, row),
                acc.finalize(),
                "dim {dim}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "word count")]
    fn finalize_into_words_wrong_len_panics() {
        let acc = MajorityAccumulator::new(64);
        acc.finalize_into_words(&mut [0u64; 2]);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn add_dim_mismatch_panics() {
        let hv = BinaryHypervector::zeros(32);
        let mut acc = MajorityAccumulator::new(64);
        acc.add(&hv);
    }

    #[test]
    fn majority_noise_filtering() {
        // Bundling noisy copies of a prototype recovers the prototype
        // almost exactly: per-bit error for 9 copies at 10% flip rate is
        // the tail of Binomial(9, 0.1) ≥ 5, about 1e-3.
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let dim = 2048;
        let proto = BinaryHypervector::random(dim, &mut rng);
        let mut acc = MajorityAccumulator::new(dim);
        for _ in 0..9 {
            let mut noisy = proto.clone();
            let flips = (0.10 * dim as f64) as usize;
            noisy.flip_random_bits(flips, &mut rng);
            acc.add(&noisy);
        }
        let recovered = acc.finalize();
        let err = recovered.hamming(&proto);
        assert!(err < dim as u32 / 100, "error {err} out of {dim}");
    }

    #[test]
    fn deterministic_for_same_input_order() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let hvs: Vec<_> = (0..4)
            .map(|_| BinaryHypervector::random(96, &mut rng))
            .collect();
        let run = |hvs: &[BinaryHypervector]| {
            let mut acc = MajorityAccumulator::new(96);
            for h in hvs {
                acc.add(h);
            }
            acc.finalize()
        };
        assert_eq!(run(&hvs), run(&hvs));
    }

    #[test]
    fn order_invariance() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let mut hvs: Vec<_> = (0..5)
            .map(|_| BinaryHypervector::random(96, &mut rng))
            .collect();
        let mut acc1 = MajorityAccumulator::new(96);
        for h in &hvs {
            acc1.add(h);
        }
        // Reverse order must give the same bundle (addition commutes).
        hvs.reverse();
        let mut acc2 = MajorityAccumulator::new(96);
        for h in &hvs {
            acc2.add(h);
        }
        assert_eq!(acc1.finalize(), acc2.finalize());
        let _ = rng.next_u64();
    }
}
