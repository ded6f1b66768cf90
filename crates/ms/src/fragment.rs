//! Theoretical fragment-ion generation (b/y ions).
//!
//! Collision-induced dissociation predominantly cleaves the peptide
//! backbone at amide bonds, producing *b* ions (N-terminal fragments) and
//! *y* ions (C-terminal fragments). The synthetic data generator and the
//! database search engine both derive their theoretical spectra from this
//! module, so a search against synthetic data behaves like a search against
//! instrument data with matched chemistry.

use crate::{Peak, Peptide, PROTON_MASS, WATER_MASS};

/// A fragment-ion series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IonSeries {
    /// N-terminal fragments: `b_i = sum(residues[..i]) + proton`.
    B,
    /// C-terminal fragments: `y_i = sum(residues[len-i..]) + water + proton`.
    Y,
}

/// One theoretical fragment ion.
///
/// Public as the item of [`fragment_ions`], which the search scorer reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragmentIon {
    /// Which series the ion belongs to.
    pub series: IonSeries,
    /// Fragment length (the `i` in `b_i`/`y_i`), in `1..len`.
    pub ordinal: usize,
    /// Fragment charge state.
    pub charge: u8,
    /// Theoretical m/z.
    pub mz: f64,
}

/// Generates the complete b/y ion series for `peptide` at every fragment
/// charge in `1..=max_fragment_charge`, sorted by m/z.
///
/// # Panics
///
/// Panics if `max_fragment_charge == 0`.
///
/// # Examples
///
/// ```
/// use spechd_ms::fragment::{fragment_ions, IonSeries};
/// use spechd_ms::Peptide;
/// let p: Peptide = "PEPTIDEK".parse()?;
/// let ions = fragment_ions(&p, 1);
/// // 7 b-ions + 7 y-ions at charge 1.
/// assert_eq!(ions.len(), 14);
/// assert!(ions.windows(2).all(|w| w[0].mz <= w[1].mz));
/// # Ok::<(), spechd_ms::MsError>(())
/// ```
pub fn fragment_ions(peptide: &Peptide, max_fragment_charge: u8) -> Vec<FragmentIon> {
    assert!(max_fragment_charge > 0, "fragment charge must be positive");
    let residues = peptide.residue_masses();
    let n = residues.len();
    let mut ions = Vec::with_capacity(2 * (n.saturating_sub(1)) * max_fragment_charge as usize);

    // Prefix sums for b ions, suffix sums for y ions.
    let mut prefix = 0.0;
    let mut prefixes = Vec::with_capacity(n);
    for &r in &residues {
        prefix += r;
        prefixes.push(prefix);
    }
    let total: f64 = prefix;

    for i in 1..n {
        let b_neutral = prefixes[i - 1];
        let y_neutral = total - prefixes[i - 1] + WATER_MASS;
        for z in 1..=max_fragment_charge {
            let zf = f64::from(z);
            ions.push(FragmentIon {
                series: IonSeries::B,
                ordinal: i,
                charge: z,
                mz: (b_neutral + zf * PROTON_MASS) / zf,
            });
            ions.push(FragmentIon {
                series: IonSeries::Y,
                ordinal: n - i,
                charge: z,
                mz: (y_neutral + zf * PROTON_MASS) / zf,
            });
        }
    }
    ions.sort_by(|a, b| a.mz.total_cmp(&b.mz));
    ions
}

/// Builds a theoretical peak list for `peptide`.
///
/// Intensities follow the empirical regularities search engines rely on:
/// y ions are roughly twice as intense as b ions, and mid-sequence
/// fragments are stronger than terminal ones (a smooth parabolic envelope).
/// The output is deterministic — noise is added by the synthetic generator,
/// not here.
pub fn theoretical_spectrum(peptide: &Peptide, max_fragment_charge: u8) -> Vec<Peak> {
    let n = peptide.len();
    let ions = fragment_ions(peptide, max_fragment_charge);
    ions.iter()
        .map(|ion| {
            let series_factor = match ion.series {
                IonSeries::Y => 1.0,
                IonSeries::B => 0.5,
            };
            // Parabolic envelope peaking at mid-sequence, in (0, 1].
            let x = ion.ordinal as f64 / n as f64;
            let envelope = (4.0 * x * (1.0 - x)).max(0.08);
            let charge_factor = 1.0 / f64::from(ion.charge);
            Peak::new(
                ion.mz,
                (1000.0 * series_factor * envelope * charge_factor) as f32,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peptide() -> Peptide {
        Peptide::new("SAMPLER").unwrap()
    }

    #[test]
    fn ion_counts() {
        let p = peptide(); // 7 residues -> 6 cleavage sites
        assert_eq!(fragment_ions(&p, 1).len(), 12);
        assert_eq!(fragment_ions(&p, 2).len(), 24);
    }

    #[test]
    fn b1_is_first_residue_plus_proton() {
        let p = peptide();
        let ions = fragment_ions(&p, 1);
        let b1 = ions
            .iter()
            .find(|i| i.series == IonSeries::B && i.ordinal == 1)
            .unwrap();
        let expect = 87.032_028 + PROTON_MASS; // serine
        assert!((b1.mz - expect).abs() < 1e-6);
    }

    #[test]
    fn y1_is_last_residue_plus_water_plus_proton() {
        let p = peptide();
        let ions = fragment_ions(&p, 1);
        let y1 = ions
            .iter()
            .find(|i| i.series == IonSeries::Y && i.ordinal == 1)
            .unwrap();
        let expect = 156.101_111 + WATER_MASS + PROTON_MASS; // arginine
        assert!((y1.mz - expect).abs() < 1e-6);
    }

    #[test]
    fn complementary_pairs_sum_to_precursor_mass() {
        // b_i + y_(n-i) = M + 2 protons (for singly charged fragments).
        let p = peptide();
        let ions = fragment_ions(&p, 1);
        let m = p.monoisotopic_mass();
        let n = p.len();
        for i in 1..n {
            let b = ions
                .iter()
                .find(|ion| ion.series == IonSeries::B && ion.ordinal == i)
                .unwrap();
            let y = ions
                .iter()
                .find(|ion| ion.series == IonSeries::Y && ion.ordinal == n - i)
                .unwrap();
            let sum = b.mz + y.mz;
            assert!((sum - (m + 2.0 * PROTON_MASS)).abs() < 1e-6, "site {i}");
        }
    }

    #[test]
    fn ions_sorted_by_mz() {
        let ions = fragment_ions(&peptide(), 2);
        assert!(ions.windows(2).all(|w| w[0].mz <= w[1].mz));
    }

    #[test]
    fn doubly_charged_fragments_at_half_mz() {
        let p = peptide();
        let ions = fragment_ions(&p, 2);
        let b3_1 = ions
            .iter()
            .find(|i| i.series == IonSeries::B && i.ordinal == 3 && i.charge == 1)
            .unwrap();
        let b3_2 = ions
            .iter()
            .find(|i| i.series == IonSeries::B && i.ordinal == 3 && i.charge == 2)
            .unwrap();
        let neutral = (b3_1.mz - PROTON_MASS) * 1.0;
        let expect = (neutral + 2.0 * PROTON_MASS) / 2.0;
        assert!((b3_2.mz - expect).abs() < 1e-9);
    }

    #[test]
    fn theoretical_spectrum_valid_and_y_dominant() {
        let p = peptide();
        let peaks = theoretical_spectrum(&p, 1);
        assert_eq!(peaks.len(), 12);
        assert!(peaks.iter().all(|pk| pk.is_valid()));
        // Total y intensity should exceed total b intensity.
        let ions = fragment_ions(&p, 1);
        let (mut yb, mut bb) = (0.0f64, 0.0f64);
        for (peak, ion) in peaks.iter().zip(ions.iter()) {
            match ion.series {
                IonSeries::Y => yb += f64::from(peak.intensity),
                IonSeries::B => bb += f64::from(peak.intensity),
            }
        }
        assert!(yb > bb);
    }

    #[test]
    fn theoretical_spectrum_deterministic() {
        let p = peptide();
        assert_eq!(theoretical_spectrum(&p, 2), theoretical_spectrum(&p, 2));
    }

    #[test]
    fn single_residue_has_no_fragments() {
        let p = Peptide::new("K").unwrap();
        assert!(fragment_ions(&p, 1).is_empty());
        assert!(theoretical_spectrum(&p, 1).is_empty());
    }
}
