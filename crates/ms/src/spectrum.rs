//! MS/MS spectrum and precursor types.

use crate::{MsError, Peak};
use std::fmt;

/// The precursor ion that was selected for fragmentation.
///
/// # Examples
///
/// ```
/// use spechd_ms::Precursor;
/// let p = Precursor::new(742.338, 2).unwrap();
/// // Neutral (uncharged) mass: (m/z − proton) × z
/// assert!((p.neutral_mass() - 1482.66).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Precursor {
    mz: f64,
    charge: u8,
}

impl Precursor {
    /// Creates a precursor.
    ///
    /// # Errors
    ///
    /// Returns [`MsError::InvalidSpectrum`] if `mz` is not finite/positive
    /// or `charge` is zero.
    pub fn new(mz: f64, charge: u8) -> Result<Self, MsError> {
        if !mz.is_finite() || mz <= 0.0 {
            return Err(MsError::InvalidSpectrum(format!(
                "precursor m/z {mz} must be positive"
            )));
        }
        if charge == 0 {
            return Err(MsError::InvalidSpectrum(
                "precursor charge must be non-zero".into(),
            ));
        }
        Ok(Self { mz, charge })
    }

    /// Mass-to-charge ratio of the precursor ion.
    pub fn mz(&self) -> f64 {
        self.mz
    }

    /// Charge state `z`.
    pub fn charge(&self) -> u8 {
        self.charge
    }

    /// Neutral (uncharged) monoisotopic mass: `(mz − proton) × z`.
    pub fn neutral_mass(&self) -> f64 {
        (self.mz - crate::PROTON_MASS) * f64::from(self.charge)
    }
}

impl fmt::Display for Precursor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}/{}+", self.mz, self.charge)
    }
}

/// A tandem mass spectrum: an identifier, a precursor and a peak list
/// sorted by ascending m/z.
///
/// Construction validates every peak (a finite, positive m/z and a
/// finite, non-negative intensity) and sorts the list, so downstream code
/// (preprocessing, encoding) can rely on ordering without re-checking.
///
/// # Examples
///
/// ```
/// use spechd_ms::{Peak, Precursor, Spectrum};
/// let spectrum = Spectrum::new(
///     "scan=1",
///     Precursor::new(500.3, 2)?,
///     vec![Peak::new(300.1, 10.0), Peak::new(200.2, 40.0)],
/// )?;
/// assert_eq!(spectrum.peaks()[0].mz, 200.2); // sorted on construction
/// assert_eq!(spectrum.base_peak().unwrap().intensity, 40.0);
/// # Ok::<(), spechd_ms::MsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum {
    title: String,
    precursor: Precursor,
    retention_time: Option<f64>,
    peaks: Vec<Peak>,
}

impl Spectrum {
    /// Creates a spectrum, validating and sorting the peaks by m/z.
    ///
    /// # Errors
    ///
    /// Returns [`MsError::InvalidSpectrum`] if any peak has a non-finite or
    /// non-positive m/z or a negative/non-finite intensity.
    pub fn new(
        title: impl Into<String>,
        precursor: Precursor,
        mut peaks: Vec<Peak>,
    ) -> Result<Self, MsError> {
        for p in &peaks {
            if !p.is_valid() {
                return Err(MsError::InvalidSpectrum(format!("invalid peak {p:?}")));
            }
        }
        peaks.sort_by(|a, b| a.mz.total_cmp(&b.mz));
        Ok(Self {
            title: title.into(),
            precursor,
            retention_time: None,
            peaks,
        })
    }

    /// Sets the retention time (seconds) and returns `self` for chaining.
    pub fn with_retention_time(mut self, seconds: f64) -> Self {
        self.retention_time = Some(seconds);
        self
    }

    /// Identifier (scan title).
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The precursor ion.
    pub fn precursor(&self) -> Precursor {
        self.precursor
    }

    /// Retention time in seconds, if known.
    pub fn retention_time(&self) -> Option<f64> {
        self.retention_time
    }

    /// The peak list, sorted by ascending m/z.
    pub fn peaks(&self) -> &[Peak] {
        &self.peaks
    }

    /// Number of peaks.
    pub fn peak_count(&self) -> usize {
        self.peaks.len()
    }

    /// Whether the spectrum has no peaks.
    pub fn is_empty(&self) -> bool {
        self.peaks.is_empty()
    }

    /// The most intense peak, if any.
    pub fn base_peak(&self) -> Option<Peak> {
        self.peaks
            .iter()
            .copied()
            .max_by(|a, b| a.intensity.total_cmp(&b.intensity))
    }

    /// Sum of all peak intensities.
    pub fn total_ion_current(&self) -> f64 {
        self.peaks.iter().map(|p| f64::from(p.intensity)).sum()
    }

    /// The (min, max) m/z of the peak list, if non-empty.
    pub fn mz_range(&self) -> Option<(f64, f64)> {
        match (self.peaks.first(), self.peaks.last()) {
            (Some(a), Some(b)) => Some((a.mz, b.mz)),
            _ => None,
        }
    }

    /// Peaks as `(mz, relative_intensity)` pairs normalized to the base
    /// peak — the exact input shape of the HDC encoder. Returns an empty
    /// vector for empty spectra.
    pub fn relative_peaks(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        self.relative_peaks_into(&mut out);
        out
    }

    /// [`Spectrum::relative_peaks`] into a buffer the caller reuses from
    /// spectrum to spectrum; what `out` held is replaced.
    pub fn relative_peaks_into(&self, out: &mut Vec<(f64, f64)>) {
        let base = self.base_peak().map_or(0.0, |p| f64::from(p.intensity));
        let relative = |p: &Peak| {
            if base > 0.0 {
                f64::from(p.intensity) / base
            } else {
                0.0
            }
        };
        out.clear();
        out.extend(self.peaks.iter().map(|p| (p.mz, relative(p))));
    }

    /// Replaces the peak list (sorting and validating the new one).
    ///
    /// # Errors
    ///
    /// Returns [`MsError::InvalidSpectrum`] under the same conditions as
    /// [`Spectrum::new`].
    pub fn with_peaks(&self, peaks: Vec<Peak>) -> Result<Self, MsError> {
        let mut s = Self::new(self.title.clone(), self.precursor, peaks)?;
        s.retention_time = self.retention_time;
        Ok(s)
    }

    /// Approximate serialized size in bytes (title + 12 bytes per peak +
    /// fixed header), used by compression accounting.
    pub fn approx_bytes(&self) -> usize {
        self.title.len() + 24 + 12 * self.peaks.len()
    }
}

impl fmt::Display for Spectrum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Spectrum({}, {}, {} peaks)",
            self.title,
            self.precursor,
            self.peaks.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spectrum() -> Spectrum {
        Spectrum::new(
            "t",
            Precursor::new(500.0, 2).unwrap(),
            vec![
                Peak::new(300.0, 10.0),
                Peak::new(100.0, 50.0),
                Peak::new(200.0, 30.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn precursor_validation() {
        assert!(Precursor::new(500.0, 2).is_ok());
        assert!(Precursor::new(-1.0, 2).is_err());
        assert!(Precursor::new(f64::NAN, 2).is_err());
        assert!(Precursor::new(500.0, 0).is_err());
    }

    #[test]
    fn neutral_mass() {
        let p = Precursor::new(500.0, 3).unwrap();
        let expect = (500.0 - crate::PROTON_MASS) * 3.0;
        assert!((p.neutral_mass() - expect).abs() < 1e-9);
    }

    #[test]
    fn peaks_sorted_on_construction() {
        let s = spectrum();
        let mzs: Vec<f64> = s.peaks().iter().map(|p| p.mz).collect();
        assert_eq!(mzs, vec![100.0, 200.0, 300.0]);
    }

    #[test]
    fn invalid_peak_rejected() {
        let r = Spectrum::new(
            "t",
            Precursor::new(500.0, 2).unwrap(),
            vec![Peak::new(100.0, -3.0)],
        );
        assert!(r.is_err());
    }

    #[test]
    fn base_peak_and_tic() {
        let s = spectrum();
        assert_eq!(s.base_peak().unwrap(), Peak::new(100.0, 50.0));
        assert!((s.total_ion_current() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn empty_spectrum_allowed() {
        let s = Spectrum::new("e", Precursor::new(400.0, 2).unwrap(), vec![]).unwrap();
        assert!(s.is_empty());
        assert!(s.base_peak().is_none());
        assert!(s.mz_range().is_none());
        assert!(s.relative_peaks().is_empty());
    }

    #[test]
    fn relative_peaks_normalized() {
        let s = spectrum();
        let rel = s.relative_peaks();
        assert_eq!(rel.len(), 3);
        assert!((rel[0].1 - 1.0).abs() < 1e-9, "base peak is 1.0");
        assert!((rel[1].1 - 0.6).abs() < 1e-9);
        assert!((rel[2].1 - 0.2).abs() < 1e-9);
    }

    #[test]
    fn relative_peaks_all_zero_intensities() {
        let s = Spectrum::new(
            "z",
            Precursor::new(400.0, 2).unwrap(),
            vec![Peak::new(100.0, 0.0), Peak::new(200.0, 0.0)],
        )
        .unwrap();
        assert_eq!(s.relative_peaks(), vec![(100.0, 0.0), (200.0, 0.0)]);
    }

    #[test]
    fn retention_time_builder() {
        let s = spectrum().with_retention_time(123.4);
        assert_eq!(s.retention_time(), Some(123.4));
    }

    #[test]
    fn with_peaks_preserves_metadata() {
        let s = spectrum().with_retention_time(9.0);
        let s2 = s.with_peaks(vec![Peak::new(50.0, 1.0)]).unwrap();
        assert_eq!(s2.title(), "t");
        assert_eq!(s2.retention_time(), Some(9.0));
        assert_eq!(s2.peak_count(), 1);
    }

    #[test]
    fn mz_range() {
        let s = spectrum();
        assert_eq!(s.mz_range(), Some((100.0, 300.0)));
    }

    #[test]
    fn display_nonempty() {
        let s = spectrum();
        assert!(format!("{s}").contains("3 peaks"));
    }

    #[test]
    fn approx_bytes_scales_with_peaks() {
        let s = spectrum();
        assert_eq!(s.approx_bytes(), 1 + 24 + 36);
    }
}
