//! PSM scoring: shared peak count and hyperscore.

use spechd_ms::fragment::{fragment_ions, IonSeries};
use spechd_ms::{Peak, Peptide};

/// Tally of matched fragment ions for one peptide-spectrum pair.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MatchedIons {
    /// Matched b ions.
    pub b_count: usize,
    /// Matched y ions.
    pub y_count: usize,
    /// Summed experimental intensity of matched b ions.
    pub b_intensity: f64,
    /// Summed experimental intensity of matched y ions.
    pub y_intensity: f64,
}

impl MatchedIons {
    /// Total matched ions.
    pub fn total(&self) -> usize {
        self.b_count + self.y_count
    }
}

/// Matches the theoretical b/y ladder of `peptide` against the sorted
/// experimental `peaks` (each theoretical ion claims the most intense
/// experimental peak within `± frag_tol_da`).
pub(crate) fn match_ions(peptide: &Peptide, peaks: &[Peak], frag_tol_da: f64) -> MatchedIons {
    let mut matched = MatchedIons::default();
    let max_frag_charge = 1;
    for ion in fragment_ions(peptide, max_frag_charge) {
        // Binary search for the window, then take the strongest peak.
        let lo = peaks.partition_point(|p| p.mz < ion.mz - frag_tol_da);
        let hi = peaks.partition_point(|p| p.mz <= ion.mz + frag_tol_da);
        if lo >= hi {
            continue;
        }
        let best = peaks[lo..hi]
            .iter()
            .map(|p| f64::from(p.intensity))
            .fold(0.0, f64::max);
        match ion.series {
            IonSeries::B => {
                matched.b_count += 1;
                matched.b_intensity += best;
            }
            IonSeries::Y => {
                matched.y_count += 1;
                matched.y_intensity += best;
            }
        }
    }
    matched
}

/// Number of spectrum peaks within `± frag_tol_da` of any theoretical
/// fragment of `peptide` — the simplest similarity used by legacy engines.
#[cfg(test)]
fn shared_peak_count(peptide: &Peptide, peaks: &[Peak], frag_tol_da: f64) -> usize {
    let ions = fragment_ions(peptide, 1);
    peaks
        .iter()
        .filter(|p| {
            let lo = ions.partition_point(|i| i.mz < p.mz - frag_tol_da);
            lo < ions.len() && (ions[lo].mz - p.mz).abs() <= frag_tol_da
        })
        .count()
}

/// X!Tandem-style hyperscore:
/// `ln(b_count!) + ln(y_count!) + ln(1 + Σ I_b) + ln(1 + Σ I_y)`.
///
/// Factorials of matched-ion counts reward consistent ladder coverage far
/// more than isolated matches, which is what separates true hits from
/// decoys.
pub fn hyperscore(matched: &MatchedIons) -> f64 {
    ln_factorial(matched.b_count)
        + ln_factorial(matched.y_count)
        + (1.0 + matched.b_intensity).ln()
        + (1.0 + matched.y_intensity).ln()
}

fn ln_factorial(n: usize) -> f64 {
    (1..=n).map(|k| (k as f64).ln()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechd_ms::fragment::theoretical_spectrum;

    fn peptide() -> Peptide {
        Peptide::new("SAMPLEK").unwrap()
    }

    #[test]
    fn perfect_spectrum_matches_all_ions() {
        let p = peptide();
        let mut peaks = theoretical_spectrum(&p, 1);
        peaks.sort_by(|a, b| a.mz.total_cmp(&b.mz));
        let m = match_ions(&p, &peaks, 0.02);
        assert_eq!(m.total(), 12, "6 b + 6 y ions for a 7-mer");
        assert_eq!(m.b_count, 6);
        assert_eq!(m.y_count, 6);
        assert!(m.b_intensity > 0.0 && m.y_intensity > 0.0);
    }

    #[test]
    fn wrong_peptide_matches_fewer() {
        let p = peptide();
        let other = Peptide::new("WWDNGHQR").unwrap();
        let mut peaks = theoretical_spectrum(&p, 1);
        peaks.sort_by(|a, b| a.mz.total_cmp(&b.mz));
        let right = match_ions(&p, &peaks, 0.02);
        let wrong = match_ions(&other, &peaks, 0.02);
        assert!(right.total() > wrong.total());
    }

    #[test]
    fn hyperscore_orders_right_above_wrong() {
        let p = peptide();
        let other = Peptide::new("WWDNGHQR").unwrap();
        let mut peaks = theoretical_spectrum(&p, 1);
        peaks.sort_by(|a, b| a.mz.total_cmp(&b.mz));
        let right = hyperscore(&match_ions(&p, &peaks, 0.02));
        let wrong = hyperscore(&match_ions(&other, &peaks, 0.02));
        assert!(right > wrong, "{right} vs {wrong}");
    }

    #[test]
    fn tolerance_controls_matching() {
        let p = peptide();
        let mut peaks = theoretical_spectrum(&p, 1);
        // Shift every peak by +0.05 Da.
        for peak in &mut peaks {
            *peak = Peak::new(peak.mz + 0.05, peak.intensity);
        }
        peaks.sort_by(|a, b| a.mz.total_cmp(&b.mz));
        assert_eq!(match_ions(&p, &peaks, 0.02).total(), 0);
        assert_eq!(match_ions(&p, &peaks, 0.1).total(), 12);
    }

    #[test]
    fn shared_peak_count_basics() {
        let p = peptide();
        let mut peaks = theoretical_spectrum(&p, 1);
        peaks.sort_by(|a, b| a.mz.total_cmp(&b.mz));
        assert_eq!(shared_peak_count(&p, &peaks, 0.02), 12);
        let empty: Vec<Peak> = Vec::new();
        assert_eq!(shared_peak_count(&p, &empty, 0.02), 0);
    }

    #[test]
    fn ln_factorial_values() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!((ln_factorial(5) - 120.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn hyperscore_monotone_in_matches() {
        let a = MatchedIons {
            b_count: 2,
            y_count: 2,
            b_intensity: 10.0,
            y_intensity: 10.0,
        };
        let b = MatchedIons {
            b_count: 4,
            y_count: 4,
            b_intensity: 10.0,
            y_intensity: 10.0,
        };
        assert!(hyperscore(&b) > hyperscore(&a));
    }
}
