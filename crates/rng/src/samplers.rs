//! Non-uniform distribution samplers built on top of [`Rng`].

use crate::Rng;

/// Zipf distribution over `{1, ..., n}` with exponent `s`:
/// `P(k) ∝ k^-s`.
///
/// Used to model mass-spectrometry cluster-size distributions, where a few
/// highly abundant peptides generate many replicate spectra and most
/// peptides generate few (the long tail observed in PRIDE datasets).
///
/// Sampling uses rejection-inversion (Hörmann & Derflinger 1996): the
/// probability bar of each integer `k` is embedded in the corresponding slab
/// of the continuous envelope `x^-s`, so a uniform draw on the transformed
/// axis either lands in the bar (accept) or is retried. Expected cost is
/// O(1) per draw for any `n` and any `s > 0`.
///
/// # Examples
///
/// ```
/// use spechd_rng::{Xoshiro256StarStar, Zipf};
/// let zipf = Zipf::new(1000, 1.2);
/// let mut rng = Xoshiro256StarStar::seed_from_u64(0);
/// let k = zipf.sample(&mut rng);
/// assert!((1..=1000).contains(&k));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zipf {
    n: usize,
    s: f64,
    h_lo: f64,
    h_hi: f64,
}

impl Zipf {
    /// Creates a Zipf sampler over `{1, ..., n}` with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `s <= 0`, or `s` is not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf requires n > 0");
        assert!(s > 0.0 && s.is_finite(), "Zipf requires finite s > 0");
        let mut z = Self {
            n,
            s,
            h_lo: 0.0,
            h_hi: 0.0,
        };
        z.h_lo = z.h(0.5);
        z.h_hi = z.h(n as f64 + 0.5);
        z
    }

    /// Number of ranks `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Exponent `s`.
    pub fn s(&self) -> f64 {
        self.s
    }

    /// Antiderivative of the envelope `x^-s`, increasing on `x > 0`.
    fn h(&self, x: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-12 {
            x.ln()
        } else {
            x.powf(1.0 - self.s) / (1.0 - self.s)
        }
    }

    fn h_inv(&self, u: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-12 {
            u.exp()
        } else {
            (u * (1.0 - self.s)).powf(1.0 / (1.0 - self.s))
        }
    }

    /// Draws one rank in `[1, n]`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        loop {
            let u = self.h_lo + rng.next_f64() * (self.h_hi - self.h_lo);
            let x = self.h_inv(u);
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            // The bar of integer k (mass k^-s) occupies the top of the slab
            // [H(k-1/2), H(k+1/2)]; midpoint rule on the convex envelope
            // guarantees the bar fits, so this accept test is exact.
            if u >= self.h(k + 0.5) - k.powf(-self.s) {
                return k as usize;
            }
        }
    }
}

/// Poisson distribution with rate `lambda`.
///
/// Uses Knuth's multiplication method for `lambda < 30` and a normal
/// approximation with rounding for larger rates, which is accurate to well
/// under one count for the peak-count models it serves.
///
/// # Examples
///
/// ```
/// use spechd_rng::{Poisson, Xoshiro256StarStar};
/// let p = Poisson::new(4.0);
/// let mut rng = Xoshiro256StarStar::seed_from_u64(0);
/// let _count = p.sample(&mut rng);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a Poisson sampler with the given rate.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not finite or is negative.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "Poisson requires lambda >= 0"
        );
        Self { lambda }
    }

    /// Draws one count.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        if self.lambda == 0.0 {
            return 0;
        }
        if self.lambda < 30.0 {
            // Knuth: multiply uniforms until falling below e^-lambda.
            let l = (-self.lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.next_f64();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        } else {
            let draw = rng.normal(self.lambda, self.lambda.sqrt());
            draw.round().max(0.0) as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Xoshiro256StarStar;

    #[test]
    fn zipf_in_range() {
        let zipf = Zipf::new(100, 1.1);
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        for _ in 0..10_000 {
            let k = zipf.sample(&mut rng);
            assert!((1..=100).contains(&k));
        }
    }

    #[test]
    fn zipf_rank_one_is_mode() {
        let zipf = Zipf::new(50, 1.5);
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let mut counts = vec![0usize; 51];
        for _ in 0..50_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let max_rank = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(r, _)| r)
            .unwrap();
        assert_eq!(max_rank, 1, "rank 1 must be the most frequent");
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[5]);
    }

    #[test]
    fn zipf_ratio_matches_theory() {
        // P(1)/P(2) should be close to 2^s.
        let s = 1.0;
        let zipf = Zipf::new(1000, s);
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let (mut c1, mut c2) = (0.0f64, 0.0f64);
        for _ in 0..200_000 {
            match zipf.sample(&mut rng) {
                1 => c1 += 1.0,
                2 => c2 += 1.0,
                _ => {}
            }
        }
        let ratio = c1 / c2;
        assert!((ratio - 2.0).abs() < 0.15, "ratio {ratio}");
    }

    #[test]
    fn zipf_s_equal_one_supported() {
        let zipf = Zipf::new(10, 1.0);
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        for _ in 0..1000 {
            let k = zipf.sample(&mut rng);
            assert!((1..=10).contains(&k));
        }
    }

    #[test]
    fn zipf_n_one_always_one() {
        let zipf = Zipf::new(1, 2.0);
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(zipf.sample(&mut rng), 1);
        }
    }

    #[test]
    fn zipf_high_exponent_concentrates_mass() {
        let zipf = Zipf::new(100, 3.0);
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        let ones = (0..20_000).filter(|_| zipf.sample(&mut rng) == 1).count();
        // With s=3, P(1) = 1/zeta(3 truncated) ~ 0.83.
        let freq = ones as f64 / 20_000.0;
        assert!(freq > 0.75, "freq {freq}");
    }

    #[test]
    #[should_panic(expected = "n > 0")]
    fn zipf_zero_n_panics() {
        Zipf::new(0, 1.0);
    }

    #[test]
    fn poisson_mean_small_lambda() {
        let p = Poisson::new(4.0);
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        let n = 50_000;
        let total: u64 = (0..n).map(|_| p.sample(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_mean_large_lambda() {
        let p = Poisson::new(80.0);
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| p.sample(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 80.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn poisson_zero_lambda() {
        let p = Poisson::new(0.0);
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        assert_eq!(p.sample(&mut rng), 0);
    }
}
