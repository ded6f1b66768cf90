//! Scale and normalization (§III-A "Scale and Normalization" module).
//!
//! Intensities are square-root transformed (compressing dynamic range) and
//! scaled to unit Euclidean norm, the convention of falcon/HyperSpec that
//! SpecHD inherits. Normalization happens after filtering and top-k
//! selection, right before encoding, in place on the selected peaks.

use spechd_ms::Peak;

/// Applies `sqrt` to every intensity.
fn sqrt_scale(peaks: &mut [Peak]) {
    for p in peaks {
        p.intensity = p.intensity.max(0.0).sqrt();
    }
}

/// Scales intensities to unit Euclidean norm. All-zero intensities are
/// left unchanged.
fn unit_norm(peaks: &mut [Peak]) {
    let norm: f64 = peaks
        .iter()
        .map(|p| f64::from(p.intensity) * f64::from(p.intensity))
        .sum::<f64>()
        .sqrt();
    if norm <= 0.0 {
        return;
    }
    for p in peaks {
        p.intensity = (f64::from(p.intensity) / norm) as f32;
    }
}

/// The composed scale-and-normalize stage, in place: `sqrt`, then unit
/// norm (`[16, 9]` → `[4, 3]` → `[0.8, 0.6]`).
pub(crate) fn scale_and_normalize(peaks: &mut [Peak]) {
    sqrt_scale(peaks);
    unit_norm(peaks);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peaks(intensities: &[f32]) -> Vec<Peak> {
        intensities
            .iter()
            .enumerate()
            .map(|(i, &it)| Peak::new(100.0 + 10.0 * i as f64, it))
            .collect()
    }

    fn intensities(peaks: &[Peak]) -> Vec<f32> {
        peaks.iter().map(|p| p.intensity).collect()
    }

    #[test]
    fn sqrt_scale_values() {
        let mut s = peaks(&[4.0, 9.0, 16.0]);
        sqrt_scale(&mut s);
        assert_eq!(intensities(&s), vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn unit_norm_gives_unit_length() {
        let mut s = peaks(&[3.0, 4.0]);
        unit_norm(&mut s);
        let norm: f64 = s
            .iter()
            .map(|p| f64::from(p.intensity) * f64::from(p.intensity))
            .sum();
        assert!((norm - 1.0).abs() < 1e-6);
        assert!((f64::from(s[0].intensity) - 0.6).abs() < 1e-6);
    }

    #[test]
    fn unit_norm_zero_spectrum_unchanged() {
        let mut s = peaks(&[0.0, 0.0]);
        unit_norm(&mut s);
        assert_eq!(s, peaks(&[0.0, 0.0]));
    }

    #[test]
    fn scale_and_normalize_composition() {
        let mut s = peaks(&[16.0, 9.0]);
        scale_and_normalize(&mut s);
        // sqrt -> [4, 3]; norm 5 -> [0.8, 0.6].
        assert!((f64::from(s[0].intensity) - 0.8).abs() < 1e-6);
        assert!((f64::from(s[1].intensity) - 0.6).abs() < 1e-6);
    }

    #[test]
    fn sqrt_compresses_dynamic_range() {
        let raw = peaks(&[1.0, 10_000.0]);
        let mut scaled = raw.clone();
        sqrt_scale(&mut scaled);
        let ratio_before = raw[1].intensity / raw[0].intensity;
        let ratio_after = scaled[1].intensity / scaled[0].intensity;
        assert!(ratio_after < ratio_before / 10.0);
    }

    #[test]
    fn empty_spectrum_all_transforms() {
        let mut s = peaks(&[]);
        sqrt_scale(&mut s);
        unit_norm(&mut s);
        scale_and_normalize(&mut s);
        assert!(s.is_empty());
    }
}
