//! Spectra filtering: precursor-peak and low-intensity removal.

use spechd_ms::{Peak, Spectrum};

/// The paper's Spectra Filter: "efficiently filtering out peaks related to
/// the precursor ion or with intensities less than 1% of the base peak"
/// (§III-A), plus an instrument m/z window.
///
/// # Examples
///
/// ```
/// use spechd_preprocess::SpectraFilter;
/// use spechd_ms::{Peak, Precursor, Spectrum};
///
/// let s = Spectrum::new(
///     "x",
///     Precursor::new(500.0, 2)?,
///     vec![
///         Peak::new(500.05, 100.0), // precursor-related: removed
///         Peak::new(300.0, 100.0),  // kept
///         Peak::new(400.0, 0.5),    // < 1% of base: removed
///     ],
/// )?;
/// let filtered = SpectraFilter::default().apply(&s);
/// assert_eq!(filtered.peak_count(), 1);
/// # Ok::<(), spechd_ms::MsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectraFilter {
    /// Window (± Thomson) around the precursor m/z (and its neutral-loss
    /// satellites) to remove.
    pub precursor_tolerance: f64,
    /// Minimum intensity relative to the base peak (paper: 0.01).
    pub min_relative_intensity: f64,
    /// Retained m/z window; peaks outside are dropped.
    pub mz_window: (f64, f64),
}

impl Default for SpectraFilter {
    fn default() -> Self {
        Self {
            precursor_tolerance: 1.5,
            min_relative_intensity: 0.01,
            mz_window: (101.0, 1999.0),
        }
    }
}

impl SpectraFilter {
    /// Applies the filter, returning a new spectrum with the surviving
    /// peaks (metadata preserved).
    pub fn apply(&self, spectrum: &Spectrum) -> Spectrum {
        spectrum
            .with_peaks(self.surviving(spectrum))
            .expect("filtering preserves peak validity")
    }

    /// The peaks of `spectrum` the filter keeps, in their m/z order.
    pub(crate) fn surviving(&self, spectrum: &Spectrum) -> Vec<Peak> {
        let base = spectrum
            .base_peak()
            .map(|p| f64::from(p.intensity))
            .unwrap_or(0.0);
        let threshold = base * self.min_relative_intensity;
        let precursor_mz = spectrum.precursor().mz();
        // One allocation: `collect` on a filter grows by doubling.
        let mut kept = Vec::with_capacity(spectrum.peak_count());
        kept.extend(spectrum.peaks().iter().filter(|p| {
            let rel_ok = f64::from(p.intensity) >= threshold;
            let not_precursor = (p.mz - precursor_mz).abs() > self.precursor_tolerance;
            let in_window = p.mz >= self.mz_window.0 && p.mz <= self.mz_window.1;
            rel_ok && not_precursor && in_window
        }));
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechd_ms::Precursor;

    fn spectrum(peaks: Vec<Peak>) -> Spectrum {
        Spectrum::new("t", Precursor::new(500.0, 2).unwrap(), peaks).unwrap()
    }

    #[test]
    fn removes_low_intensity() {
        let s = spectrum(vec![
            Peak::new(300.0, 100.0),
            Peak::new(310.0, 0.9),
            Peak::new(320.0, 1.1),
        ]);
        let f = SpectraFilter::default().apply(&s);
        // 1% of 100 = 1.0: the 0.9 peak goes, the 1.1 stays.
        assert_eq!(f.peak_count(), 2);
        assert!(f.peaks().iter().all(|p| p.intensity >= 1.0));
    }

    #[test]
    fn removes_precursor_window() {
        let s = spectrum(vec![
            Peak::new(499.0, 50.0),
            Peak::new(500.0, 50.0),
            Peak::new(501.4, 50.0),
            Peak::new(502.0, 50.0),
        ]);
        let f = SpectraFilter::default().apply(&s);
        let mzs: Vec<f64> = f.peaks().iter().map(|p| p.mz).collect();
        assert_eq!(mzs, vec![502.0]);
    }

    #[test]
    fn removes_out_of_window() {
        let s = spectrum(vec![Peak::new(50.0, 10.0), Peak::new(300.0, 10.0)]);
        let f = SpectraFilter::default().apply(&s);
        assert_eq!(f.peak_count(), 1);
        assert_eq!(f.peaks()[0].mz, 300.0);
    }

    #[test]
    fn empty_spectrum_passes_through() {
        let s = spectrum(vec![]);
        assert_eq!(SpectraFilter::default().apply(&s).peak_count(), 0);
    }

    #[test]
    fn metadata_preserved() {
        let s = spectrum(vec![Peak::new(300.0, 10.0)]).with_retention_time(7.0);
        let f = SpectraFilter::default().apply(&s);
        assert_eq!(f.title(), "t");
        assert_eq!(f.retention_time(), Some(7.0));
        assert_eq!(f.precursor().charge(), 2);
    }

    #[test]
    fn removed_count_consistent() {
        let s = spectrum(vec![
            Peak::new(300.0, 100.0),
            Peak::new(500.1, 50.0),
            Peak::new(310.0, 0.1),
        ]);
        let kept = SpectraFilter::default().apply(&s);
        assert_eq!(s.peak_count() - kept.peak_count(), 2);
    }

    #[test]
    fn custom_threshold() {
        let s = spectrum(vec![Peak::new(300.0, 100.0), Peak::new(310.0, 4.0)]);
        let strict = SpectraFilter {
            min_relative_intensity: 0.05,
            ..Default::default()
        };
        assert_eq!(strict.apply(&s).peak_count(), 1);
        let lax = SpectraFilter {
            min_relative_intensity: 0.01,
            ..Default::default()
        };
        assert_eq!(lax.apply(&s).peak_count(), 2);
    }
}
