//! Dataset container pairing spectra with optional ground-truth labels.

use crate::Spectrum;
use std::fmt;

/// A collection of MS/MS spectra with optional per-spectrum ground-truth
/// labels (peptide identities).
///
/// Labels come from the synthetic generator (which knows the true peptide
/// of every spectrum) or from a database search; clustering quality metrics
/// (incorrect clustering ratio, completeness) are computed against them.
/// `None` marks spectra without an identification, mirroring the typical
/// situation where only a fraction of a real run is identifiable.
///
/// # Examples
///
/// ```
/// use spechd_ms::{Peak, Precursor, Spectrum, SpectrumDataset};
/// let mut ds = SpectrumDataset::new();
/// let s = Spectrum::new("scan=1", Precursor::new(500.0, 2)?, vec![Peak::new(210.0, 5.0)])?;
/// ds.push(s, Some(3));
/// assert_eq!(ds.len(), 1);
/// assert_eq!(ds.labels()[0], Some(3));
/// # Ok::<(), spechd_ms::MsError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpectrumDataset {
    spectra: Vec<Spectrum>,
    labels: Vec<Option<u32>>,
}

impl SpectrumDataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a dataset from parallel vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn from_parts(spectra: Vec<Spectrum>, labels: Vec<Option<u32>>) -> Self {
        assert_eq!(
            spectra.len(),
            labels.len(),
            "spectra/labels length mismatch"
        );
        Self { spectra, labels }
    }

    /// Creates a dataset from spectra only (all labels `None`).
    pub fn from_spectra(spectra: Vec<Spectrum>) -> Self {
        let labels = vec![None; spectra.len()];
        Self { spectra, labels }
    }

    /// Appends one spectrum with its optional label.
    pub fn push(&mut self, spectrum: Spectrum, label: Option<u32>) {
        self.spectra.push(spectrum);
        self.labels.push(label);
    }

    /// Number of spectra.
    pub fn len(&self) -> usize {
        self.spectra.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.spectra.is_empty()
    }

    /// The spectra in insertion order.
    pub fn spectra(&self) -> &[Spectrum] {
        &self.spectra
    }

    /// Ground-truth labels, parallel to [`SpectrumDataset::spectra`].
    pub fn labels(&self) -> &[Option<u32>] {
        &self.labels
    }

    /// Returns spectrum `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn spectrum(&self, i: usize) -> &Spectrum {
        &self.spectra[i]
    }

    /// Iterates over `(spectrum, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Spectrum, Option<u32>)> {
        self.spectra.iter().zip(self.labels.iter().copied())
    }

    /// Number of spectra with a ground-truth identification.
    pub fn identified_count(&self) -> usize {
        self.labels.iter().filter(|l| l.is_some()).count()
    }

    /// Number of distinct ground-truth labels present.
    fn distinct_labels(&self) -> usize {
        let mut seen: Vec<u32> = self.labels.iter().flatten().copied().collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// Total approximate serialized size in bytes (see
    /// [`Spectrum::approx_bytes`]); the numerator of the paper's
    /// compression-factor metric.
    pub fn approx_bytes(&self) -> usize {
        self.spectra.iter().map(|s| s.approx_bytes()).sum()
    }

    /// Summary statistics.
    pub fn stats(&self) -> DatasetStats {
        let n = self.spectra.len();
        let total_peaks: usize = self.spectra.iter().map(|s| s.peak_count()).sum();
        let mut min_mz = f64::INFINITY;
        let mut max_mz = f64::NEG_INFINITY;
        for s in &self.spectra {
            if let Some((lo, hi)) = s.mz_range() {
                min_mz = min_mz.min(lo);
                max_mz = max_mz.max(hi);
            }
        }
        DatasetStats {
            num_spectra: n,
            total_peaks,
            mean_peaks: if n == 0 {
                0.0
            } else {
                total_peaks as f64 / n as f64
            },
            identified: self.identified_count(),
            distinct_labels: self.distinct_labels(),
            mz_range: if min_mz.is_finite() {
                Some((min_mz, max_mz))
            } else {
                None
            },
        }
    }

    /// Consumes the dataset, returning its parts.
    pub fn into_parts(self) -> (Vec<Spectrum>, Vec<Option<u32>>) {
        (self.spectra, self.labels)
    }
}

impl Extend<(Spectrum, Option<u32>)> for SpectrumDataset {
    fn extend<T: IntoIterator<Item = (Spectrum, Option<u32>)>>(&mut self, iter: T) {
        for (s, l) in iter {
            self.push(s, l);
        }
    }
}

impl FromIterator<(Spectrum, Option<u32>)> for SpectrumDataset {
    fn from_iter<T: IntoIterator<Item = (Spectrum, Option<u32>)>>(iter: T) -> Self {
        let mut ds = Self::new();
        ds.extend(iter);
        ds
    }
}

/// Summary statistics of a dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetStats {
    /// Number of spectra.
    pub num_spectra: usize,
    /// Total peak count across all spectra.
    pub total_peaks: usize,
    /// Mean peaks per spectrum.
    pub mean_peaks: f64,
    /// Spectra with a ground-truth label.
    pub identified: usize,
    /// Number of distinct labels.
    pub distinct_labels: usize,
    /// Overall (min, max) fragment m/z, if any spectra have peaks.
    pub mz_range: Option<(f64, f64)>,
}

impl fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} spectra, {:.1} peaks/spectrum, {} identified, {} distinct peptides",
            self.num_spectra, self.mean_peaks, self.identified, self.distinct_labels
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Peak, Precursor};

    fn spectrum(title: &str, mz: f64) -> Spectrum {
        Spectrum::new(
            title,
            Precursor::new(mz, 2).unwrap(),
            vec![Peak::new(200.0, 10.0), Peak::new(300.0, 20.0)],
        )
        .unwrap()
    }

    #[test]
    fn push_and_len() {
        let mut ds = SpectrumDataset::new();
        assert!(ds.is_empty());
        ds.push(spectrum("a", 500.0), Some(1));
        ds.push(spectrum("b", 600.0), None);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.identified_count(), 1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_parts_validates_lengths() {
        SpectrumDataset::from_parts(vec![spectrum("a", 500.0)], vec![]);
    }

    #[test]
    fn from_spectra_all_unlabelled() {
        let ds = SpectrumDataset::from_spectra(vec![spectrum("a", 500.0)]);
        assert_eq!(ds.labels(), &[None]);
    }

    #[test]
    fn distinct_labels_dedup() {
        let mut ds = SpectrumDataset::new();
        ds.push(spectrum("a", 500.0), Some(7));
        ds.push(spectrum("b", 500.0), Some(7));
        ds.push(spectrum("c", 500.0), Some(9));
        ds.push(spectrum("d", 500.0), None);
        assert_eq!(ds.distinct_labels(), 2);
    }

    #[test]
    fn stats_aggregate() {
        let mut ds = SpectrumDataset::new();
        ds.push(spectrum("a", 500.0), Some(1));
        ds.push(spectrum("b", 700.0), None);
        let st = ds.stats();
        assert_eq!(st.num_spectra, 2);
        assert_eq!(st.total_peaks, 4);
        assert!((st.mean_peaks - 2.0).abs() < 1e-12);
        assert_eq!(st.identified, 1);
        assert_eq!(st.mz_range, Some((200.0, 300.0)));
        assert!(st.to_string().contains("2 spectra"));
    }

    #[test]
    fn stats_empty() {
        let ds = SpectrumDataset::new();
        let st = ds.stats();
        assert_eq!(st.num_spectra, 0);
        assert_eq!(st.mean_peaks, 0.0);
        assert!(st.mz_range.is_none());
    }

    #[test]
    fn collect_from_iterator() {
        let ds: SpectrumDataset = vec![
            (spectrum("a", 500.0), Some(1)),
            (spectrum("b", 600.0), None),
        ]
        .into_iter()
        .collect();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.iter().count(), 2);
    }

    #[test]
    fn approx_bytes_positive() {
        let mut ds = SpectrumDataset::new();
        ds.push(spectrum("a", 500.0), None);
        assert!(ds.approx_bytes() > 0);
    }

    #[test]
    fn into_parts_roundtrip() {
        let mut ds = SpectrumDataset::new();
        ds.push(spectrum("a", 500.0), Some(2));
        let (spectra, labels) = ds.into_parts();
        assert_eq!(spectra.len(), 1);
        assert_eq!(labels, vec![Some(2)]);
    }
}
