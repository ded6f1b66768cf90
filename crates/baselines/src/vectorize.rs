//! Shared spectrum vectorization for the comparator tools.
//!
//! Falcon, msCRUSH, GLEAMS and the cascade tools all start from the same
//! primitive: the spectrum as a sparse binned intensity vector with
//! square-root scaling and unit norm.

use spechd_ms::{Spectrum, SpectrumDataset};

/// A sparse binned spectrum vector: sorted `(bin, weight)` pairs with
/// unit Euclidean norm (all-zero spectra stay empty).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BinnedSpectrum {
    entries: Vec<(u32, f32)>,
}

impl BinnedSpectrum {
    /// Bins a spectrum with the given m/z bin width, sqrt-scaling
    /// intensities and normalizing to unit length.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is not positive.
    pub(crate) fn from_spectrum(spectrum: &Spectrum, bin_width: f64) -> Self {
        assert!(bin_width > 0.0, "bin width must be positive");
        let mut map: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
        for p in spectrum.peaks() {
            let bin = (p.mz / bin_width) as u32;
            *map.entry(bin).or_insert(0.0) += f64::from(p.intensity).max(0.0).sqrt();
        }
        let norm: f64 = map.values().map(|v| v * v).sum::<f64>().sqrt();
        let entries = if norm > 0.0 {
            map.into_iter()
                .map(|(b, v)| (b, (v / norm) as f32))
                .collect()
        } else {
            Vec::new()
        };
        Self { entries }
    }

    /// Bins every spectrum of `dataset`, in order.
    pub(crate) fn all(dataset: &SpectrumDataset, bin_width: f64) -> Vec<Self> {
        dataset
            .spectra()
            .iter()
            .map(|s| Self::from_spectrum(s, bin_width))
            .collect()
    }

    /// The sorted sparse entries.
    pub(crate) fn entries(&self) -> &[(u32, f32)] {
        &self.entries
    }

    /// Cosine similarity with another binned spectrum (0 for empty ones).
    pub(crate) fn cosine(&self, other: &Self) -> f64 {
        let (mut i, mut j) = (0usize, 0usize);
        let mut dot = 0.0f64;
        while i < self.entries.len() && j < other.entries.len() {
            match self.entries[i].0.cmp(&other.entries[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    dot += f64::from(self.entries[i].1) * f64::from(other.entries[j].1);
                    i += 1;
                    j += 1;
                }
            }
        }
        dot
    }

    /// Cosine distance `1 − cosine` (clamped to `[0, 1]`).
    pub(crate) fn cosine_distance(&self, other: &Self) -> f64 {
        (1.0 - self.cosine(other)).clamp(0.0, 1.0)
    }

    /// Dense random projection onto `dims` dimensions using a seeded
    /// Rademacher (±1) matrix generated per bin on the fly — the
    /// Johnson–Lindenstrauss transform GLEAMS' learned embedding is
    /// substituted with, and the hyperplane generator msCRUSH's LSH uses.
    pub(crate) fn project(&self, dims: usize, seed: u64) -> Vec<f32> {
        let mut out = vec![0.0f32; dims];
        for &(bin, weight) in &self.entries {
            // One deterministic SplitMix stream per (bin, seed); each draw
            // yields 64 sign bits.
            let mut rng =
                spechd_rng::SplitMix64::new(seed ^ (u64::from(bin) << 20 | u64::from(bin)));
            let mut bits = 0u64;
            let mut have = 0usize;
            for slot in out.iter_mut() {
                if have == 0 {
                    bits = spechd_rng::Rng::next_u64(&mut rng);
                    have = 64;
                }
                let sign = if bits & 1 == 1 { 1.0 } else { -1.0 };
                bits >>= 1;
                have -= 1;
                *slot += weight * sign;
            }
        }
        out
    }
}

/// Euclidean distance between dense vectors.
///
/// # Panics
///
/// Panics if lengths differ.
pub(crate) fn euclidean(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechd_ms::{Peak, Precursor};

    fn spectrum(peaks: &[(f64, f32)]) -> Spectrum {
        Spectrum::new(
            "t",
            Precursor::new(500.0, 2).unwrap(),
            peaks.iter().map(|&(mz, it)| Peak::new(mz, it)).collect(),
        )
        .unwrap()
    }

    #[test]
    fn unit_norm() {
        let b = BinnedSpectrum::from_spectrum(&spectrum(&[(100.0, 4.0), (200.0, 9.0)]), 1.0);
        let norm: f64 = b
            .entries()
            .iter()
            .map(|&(_, v)| f64::from(v) * f64::from(v))
            .sum();
        assert!((norm - 1.0).abs() < 1e-6);
    }

    #[test]
    fn self_cosine_is_one() {
        let b = BinnedSpectrum::from_spectrum(&spectrum(&[(100.0, 4.0), (205.3, 9.0)]), 1.0);
        assert!((b.cosine(&b) - 1.0).abs() < 1e-6);
        assert!(b.cosine_distance(&b) < 1e-6);
    }

    #[test]
    fn disjoint_spectra_orthogonal() {
        let a = BinnedSpectrum::from_spectrum(&spectrum(&[(100.0, 1.0)]), 1.0);
        let b = BinnedSpectrum::from_spectrum(&spectrum(&[(500.0, 1.0)]), 1.0);
        assert_eq!(a.cosine(&b), 0.0);
        assert_eq!(a.cosine_distance(&b), 1.0);
    }

    #[test]
    fn nearby_peaks_fall_in_one_bin() {
        let a = BinnedSpectrum::from_spectrum(&spectrum(&[(100.01, 1.0)]), 1.0);
        let b = BinnedSpectrum::from_spectrum(&spectrum(&[(100.72, 1.0)]), 1.0);
        assert!((a.cosine(&b) - 1.0).abs() < 1e-6, "same 1-Da bin");
    }

    #[test]
    fn empty_spectrum() {
        let e = BinnedSpectrum::from_spectrum(&spectrum(&[]), 1.0);
        assert!(e.entries().is_empty());
        let b = BinnedSpectrum::from_spectrum(&spectrum(&[(100.0, 1.0)]), 1.0);
        assert_eq!(e.cosine(&b), 0.0);
    }

    #[test]
    fn projection_deterministic_and_distance_preserving() {
        let a = BinnedSpectrum::from_spectrum(
            &spectrum(&[(100.0, 5.0), (250.0, 3.0), (700.0, 8.0)]),
            1.0,
        );
        let b = BinnedSpectrum::from_spectrum(
            &spectrum(&[(100.0, 5.0), (250.0, 3.0), (700.0, 7.0)]),
            1.0,
        );
        let c = BinnedSpectrum::from_spectrum(
            &spectrum(&[(333.0, 5.0), (454.0, 3.0), (888.0, 8.0)]),
            1.0,
        );
        let pa = a.project(32, 9);
        let pa2 = a.project(32, 9);
        assert_eq!(pa, pa2, "deterministic");
        let pb = b.project(32, 9);
        let pc = c.project(32, 9);
        assert!(
            euclidean(&pa, &pb) < euclidean(&pa, &pc),
            "projection must preserve relative distances"
        );
    }

    #[test]
    fn projection_seed_changes_embedding() {
        let a = BinnedSpectrum::from_spectrum(&spectrum(&[(100.0, 5.0)]), 1.0);
        assert_ne!(a.project(16, 1), a.project(16, 2));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn euclidean_len_mismatch() {
        euclidean(&[1.0], &[1.0, 2.0]);
    }
}
