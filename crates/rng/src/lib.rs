//! Deterministic pseudo-random number generation for the SpecHD reproduction.
//!
//! Every stochastic component in the workspace (hypervector item memories,
//! synthetic spectrum generation, baseline hashing schemes, ...) draws from
//! the generators in this crate rather than from an external RNG crate. This
//! guarantees that experiment outputs are bit-reproducible across machines
//! and immune to upstream RNG-algorithm changes.
//!
//! The crate provides two generators:
//!
//! * [`SplitMix64`] — a tiny, fast generator used for seeding and for
//!   cheap one-shot hashing tasks.
//! * [`Xoshiro256StarStar`] — the workhorse generator with a 256-bit state,
//!   used everywhere bulk randomness is needed.
//!
//! and a set of samplers layered on top of [`Rng`]: uniform ranges,
//! [`Rng::normal`] (Box–Muller), [`Rng::zipf`], [`Rng::poisson`] and
//! Fisher–Yates [`shuffle`].
//!
//! # Examples
//!
//! ```
//! use spechd_rng::{Rng, Xoshiro256StarStar};
//!
//! let mut rng = Xoshiro256StarStar::seed_from_u64(42);
//! let x = rng.next_f64();          // uniform in [0, 1)
//! let k = rng.range_usize(0, 10);  // uniform in [0, 10)
//! assert!((0.0..1.0).contains(&x));
//! assert!(k < 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod samplers;

pub use samplers::{Poisson, Zipf};

/// Core trait implemented by every generator in this crate.
///
/// Only [`Rng::next_u64`] is required; all other draws are derived from it
/// with standard, bias-free constructions.
pub trait Rng {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    ///
    /// Uses the 53 high bits so every representable value is equally likely.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniformly distributed `f32` in `[0, 1)`.
    fn next_f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Returns a uniformly distributed boolean.
    fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Returns `true` with probability `p` (values outside `[0, 1]` saturate).
    fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Returns a uniform `u64` in `[0, bound)` using Lemire's rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bounded_u64 requires a non-zero bound");
        // Lemire's nearly-divisionless method with rejection to remove bias.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "range_usize requires lo < hi (got {lo}..{hi})");
        lo + self.bounded_u64((hi - lo) as u64) as usize
    }

    /// Returns a uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi);
        lo + (hi - lo) * self.next_f64()
    }

    /// Returns a standard normal draw via the Box–Muller transform.
    fn normal_std(&mut self) -> f64 {
        // Draw u1 in (0, 1] to avoid ln(0).
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Returns a normal draw with the given `mean` and standard deviation.
    fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal_std()
    }

    /// Returns a log-normal draw where the underlying normal has the given
    /// `mu` and `sigma`.
    fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Draws from `Zipf(n, s)`: an integer in `[1, n]` with
    /// P(k) proportional to `k^-s`. Convenience wrapper over [`Zipf`].
    fn zipf(&mut self, n: usize, s: f64) -> usize
    where
        Self: Sized,
    {
        Zipf::new(n, s).sample(self)
    }

    /// Draws from a Poisson distribution with rate `lambda`.
    /// Convenience wrapper over [`Poisson`].
    fn poisson(&mut self, lambda: f64) -> u64
    where
        Self: Sized,
    {
        Poisson::new(lambda).sample(self)
    }

    /// Picks a uniformly random element from a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T
    where
        Self: Sized,
    {
        assert!(!items.is_empty(), "cannot choose from an empty slice");
        &items[self.range_usize(0, items.len())]
    }
}

/// SplitMix64 generator (Steele, Lea, Flood 2014).
///
/// Primarily used to expand a single `u64` seed into the larger state of
/// [`Xoshiro256StarStar`], and as a cheap standalone generator for hashing.
///
/// # Examples
///
/// ```
/// use spechd_rng::{Rng, SplitMix64};
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }
}

impl Default for SplitMix64 {
    fn default() -> Self {
        Self::new(0x9E37_79B9_7F4A_7C15)
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256** generator (Blackman & Vigna 2018).
///
/// 256-bit state, period 2^256 − 1, excellent statistical quality; the
/// default bulk generator for the workspace.
///
/// # Examples
///
/// ```
/// use spechd_rng::{Rng, Xoshiro256StarStar};
/// let mut rng = Xoshiro256StarStar::seed_from_u64(1);
/// let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
/// let mut rng2 = Xoshiro256StarStar::seed_from_u64(1);
/// let again: Vec<u64> = (0..4).map(|_| rng2.next_u64()).collect();
/// assert_eq!(first, again);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator by expanding `seed` through [`SplitMix64`],
    /// as recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // An all-zero state is a fixed point; SplitMix64 cannot produce four
        // consecutive zeros in practice, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }

    /// Equivalent to 2^128 `next_u64` calls; used to derive statistically
    /// independent streams for parallel workers from one seed.
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180E_C6D3_3CFD_0ABA,
            0xD5A6_1266_F0C9_392C,
            0xA958_6F03_1CBD_7AE3,
            0x39AB_DC45_29B1_661C,
        ];
        let mut acc = [0u64; 4];
        for j in JUMP {
            for b in 0..64 {
                if (j >> b) & 1 == 1 {
                    for (a, s) in acc.iter_mut().zip(self.s.iter()) {
                        *a ^= s;
                    }
                }
                self.next_u64();
            }
        }
        self.s = acc;
    }

    /// Returns an independent generator for worker `index`, derived by
    /// jumping `index + 1` times from a copy of `self`.
    pub fn stream(&self, index: usize) -> Self {
        let mut child = self.clone();
        for _ in 0..=index {
            child.jump();
        }
        child
    }
}

impl Default for Xoshiro256StarStar {
    fn default() -> Self {
        Self::seed_from_u64(0)
    }
}

impl Rng for Xoshiro256StarStar {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// Shuffles a slice in place with the Fisher–Yates algorithm.
///
/// # Examples
///
/// ```
/// use spechd_rng::{shuffle, Xoshiro256StarStar};
/// let mut v: Vec<u32> = (0..10).collect();
/// let mut rng = Xoshiro256StarStar::seed_from_u64(3);
/// shuffle(&mut v, &mut rng);
/// let mut sorted = v.clone();
/// sorted.sort();
/// assert_eq!(sorted, (0..10).collect::<Vec<_>>());
/// ```
pub fn shuffle<T, R: Rng>(items: &mut [T], rng: &mut R) {
    for i in (1..items.len()).rev() {
        let j = rng.range_usize(0, i + 1);
        items.swap(i, j);
    }
}

/// Samples `k` distinct indices from `[0, n)` (a uniform k-subset), returned
/// in ascending order. Uses Floyd's algorithm, O(k) expected draws.
///
/// # Panics
///
/// Panics if `k > n`.
pub fn sample_indices<R: Rng>(n: usize, k: usize, rng: &mut R) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} distinct items from {n}");
    let mut chosen = std::collections::BTreeSet::new();
    for j in n - k..n {
        let t = rng.range_usize(0, j + 1);
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    chosen.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_deterministic() {
        let mut rng = SplitMix64::new(0);
        let a = rng.next_u64();
        let b = rng.next_u64();
        assert_ne!(a, b);
        let mut rng2 = SplitMix64::new(0);
        assert_eq!(rng2.next_u64(), a);
        assert_eq!(rng2.next_u64(), b);
    }

    #[test]
    fn xoshiro_deterministic_and_distinct_seeds() {
        let mut a = Xoshiro256StarStar::seed_from_u64(9);
        let mut b = Xoshiro256StarStar::seed_from_u64(9);
        let mut c = Xoshiro256StarStar::seed_from_u64(10);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x), "out of range: {x}");
        }
    }

    #[test]
    fn f32_in_unit_interval() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        for _ in 0..10_000 {
            let x = rng.next_f32();
            assert!((0.0..1.0).contains(&x), "out of range: {x}");
        }
    }

    #[test]
    fn bounded_u64_never_exceeds_bound() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(77);
        for bound in [1u64, 2, 3, 7, 100, 1 << 33] {
            for _ in 0..1000 {
                assert!(rng.bounded_u64(bound) < bound);
            }
        }
    }

    #[test]
    fn bounded_u64_covers_small_range() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.bounded_u64(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of [0,5) should appear");
    }

    #[test]
    #[should_panic(expected = "non-zero bound")]
    fn bounded_u64_zero_bound_panics() {
        let mut rng = SplitMix64::new(1);
        rng.bounded_u64(0);
    }

    #[test]
    fn range_usize_bounds() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(12);
        for _ in 0..1000 {
            let v = rng.range_usize(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(100);
        let n = 50_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let hits = (0..100_000).filter(|_| rng.bernoulli(0.25)).count();
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.25).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn jump_produces_disjoint_streams() {
        let base = Xoshiro256StarStar::seed_from_u64(1);
        let mut s0 = base.stream(0);
        let mut s1 = base.stream(1);
        let v0: Vec<u64> = (0..8).map(|_| s0.next_u64()).collect();
        let v1: Vec<u64> = (0..8).map(|_| s1.next_u64()).collect();
        assert_ne!(v0, v1);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut v: Vec<usize> = (0..100).collect();
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        shuffle(&mut v, &mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }

    #[test]
    fn sample_indices_distinct_sorted() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        for _ in 0..100 {
            let s = sample_indices(50, 10, &mut rng);
            assert_eq!(s.len(), 10);
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            assert!(s.iter().all(|&i| i < 50));
        }
    }

    #[test]
    fn sample_indices_full_set() {
        let mut rng = SplitMix64::new(9);
        let s = sample_indices(5, 5, &mut rng);
        assert_eq!(s, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn choose_returns_member() {
        let items = [10, 20, 30];
        let mut rng = SplitMix64::new(3);
        for _ in 0..100 {
            assert!(items.contains(rng.choose(&items)));
        }
    }
}
