//! A single mass-spectral peak.

use std::fmt;

/// One peak of an MS/MS spectrum: a mass-to-charge ratio and an intensity.
///
/// This is a passive, compound value in the C-struct spirit, so the fields
/// are public; [`crate::Spectrum`] enforces the invariants (finiteness,
/// ordering) at the container level.
///
/// # Examples
///
/// ```
/// use spechd_ms::Peak;
/// let p = Peak::new(445.12, 1520.0);
/// assert!(p.mz > 445.0 && p.intensity > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Peak {
    /// Mass-to-charge ratio in Thomson.
    pub mz: f64,
    /// Ion intensity (arbitrary units; relative after normalization).
    pub intensity: f32,
}

impl Peak {
    /// Creates a peak.
    pub fn new(mz: f64, intensity: f32) -> Self {
        Self { mz, intensity }
    }

    /// Whether both fields are finite and the intensity is non-negative.
    pub(crate) fn is_valid(&self) -> bool {
        self.mz.is_finite() && self.mz > 0.0 && self.intensity.is_finite() && self.intensity >= 0.0
    }
}

impl fmt::Display for Peak {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} {:.2}", self.mz, self.intensity)
    }
}

impl From<(f64, f32)> for Peak {
    fn from((mz, intensity): (f64, f32)) -> Self {
        Self { mz, intensity }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validity_checks() {
        assert!(Peak::new(100.0, 5.0).is_valid());
        assert!(Peak::new(100.0, 0.0).is_valid());
        assert!(!Peak::new(-1.0, 5.0).is_valid());
        assert!(!Peak::new(0.0, 5.0).is_valid());
        assert!(!Peak::new(f64::NAN, 5.0).is_valid());
        assert!(!Peak::new(100.0, f32::INFINITY).is_valid());
        assert!(!Peak::new(100.0, -2.0).is_valid());
    }

    #[test]
    fn display_format() {
        let p = Peak::new(445.1234, 1520.0);
        assert_eq!(p.to_string(), "445.1234 1520.00");
    }

    #[test]
    fn from_tuple() {
        let p: Peak = (10.5, 3.0f32).into();
        assert_eq!(p, Peak::new(10.5, 3.0));
    }
}
