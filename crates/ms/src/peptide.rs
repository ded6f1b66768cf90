//! Peptide sequences and monoisotopic mass computation.

use crate::MsError;
use std::fmt;

/// Monoisotopic mass of a proton in Dalton.
pub const PROTON_MASS: f64 = 1.007_276_466_88;

/// Monoisotopic mass of a water molecule in Dalton.
pub const WATER_MASS: f64 = 18.010_564_684;

/// The twenty proteinogenic amino acids as `(one-letter code, residue
/// monoisotopic mass)` pairs, ordered alphabetically by code.
pub const AMINO_ACIDS: [(char, f64); 20] = [
    ('A', 71.037_114),
    ('C', 103.009_185),
    ('D', 115.026_943),
    ('E', 129.042_593),
    ('F', 147.068_414),
    ('G', 57.021_464),
    ('H', 137.058_912),
    ('I', 113.084_064),
    ('K', 128.094_963),
    ('L', 113.084_064),
    ('M', 131.040_485),
    ('N', 114.042_927),
    ('P', 97.052_764),
    ('Q', 128.058_578),
    ('R', 156.101_111),
    ('S', 87.032_028),
    ('T', 101.047_679),
    ('V', 99.068_414),
    ('W', 186.079_313),
    ('Y', 163.063_329),
];

/// Returns the residue monoisotopic mass for a one-letter amino acid code.
fn residue_mass(code: char) -> Option<f64> {
    AMINO_ACIDS
        .iter()
        .find(|&&(c, _)| c == code)
        .map(|&(_, m)| m)
}

/// A peptide: a validated sequence of one-letter amino acid codes.
///
/// # Examples
///
/// ```
/// use spechd_ms::Peptide;
/// let p: Peptide = "PEPTIDEK".parse()?;
/// assert_eq!(p.len(), 8);
/// assert!((p.monoisotopic_mass() - 927.45).abs() < 0.01);
/// // m/z of the doubly protonated ion:
/// assert!((p.mz(2) - 464.73).abs() < 0.01);
/// # Ok::<(), spechd_ms::MsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Peptide {
    sequence: String,
}

impl Peptide {
    /// Creates a peptide from a sequence string.
    ///
    /// # Errors
    ///
    /// Returns [`MsError::InvalidSpectrum`] if the sequence is empty or
    /// contains a character that is not a one-letter amino acid code.
    pub fn new(sequence: impl Into<String>) -> Result<Self, MsError> {
        let sequence = sequence.into();
        if sequence.is_empty() {
            return Err(MsError::InvalidSpectrum("empty peptide sequence".into()));
        }
        for c in sequence.chars() {
            if residue_mass(c).is_none() {
                return Err(MsError::InvalidSpectrum(format!(
                    "unknown amino acid code {c:?} in {sequence:?}"
                )));
            }
        }
        Ok(Self { sequence })
    }

    /// The sequence as a string of one-letter codes.
    pub fn sequence(&self) -> &str {
        &self.sequence
    }

    /// Number of residues.
    pub fn len(&self) -> usize {
        self.sequence.len()
    }

    /// Whether the sequence is empty (never true for constructed peptides).
    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }

    /// Residue masses in sequence order.
    pub(crate) fn residue_masses(&self) -> Vec<f64> {
        self.sequence
            .chars()
            .map(|c| residue_mass(c).expect("validated at construction"))
            .collect()
    }

    /// Neutral monoisotopic mass: sum of residues + water.
    pub fn monoisotopic_mass(&self) -> f64 {
        self.residue_masses().iter().sum::<f64>() + WATER_MASS
    }

    /// m/z of the `charge`-protonated ion: `(M + z·proton) / z`.
    ///
    /// # Panics
    ///
    /// Panics if `charge == 0`.
    pub fn mz(&self, charge: u8) -> f64 {
        assert!(charge > 0, "charge must be positive");
        let z = f64::from(charge);
        (self.monoisotopic_mass() + z * PROTON_MASS) / z
    }

    /// The reversed sequence (keeping the C-terminal residue in place),
    /// the standard decoy construction for target–decoy FDR estimation.
    pub fn decoy(&self) -> Peptide {
        let chars: Vec<char> = self.sequence.chars().collect();
        if chars.len() <= 1 {
            return self.clone();
        }
        let (body, last) = chars.split_at(chars.len() - 1);
        let mut rev: String = body.iter().rev().collect();
        rev.push(last[0]);
        Peptide { sequence: rev }
    }
}

impl fmt::Display for Peptide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.sequence)
    }
}

impl std::str::FromStr for Peptide {
    type Err = MsError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Peptide::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residue_masses_known_values() {
        assert!((residue_mass('G').unwrap() - 57.021_464).abs() < 1e-6);
        assert!((residue_mass('W').unwrap() - 186.079_313).abs() < 1e-6);
        assert!(residue_mass('B').is_none());
        assert!(residue_mass('X').is_none());
    }

    #[test]
    fn glycine_mass() {
        // Glycine peptide "G": residue + water = 75.032.
        let p = Peptide::new("G").unwrap();
        assert!((p.monoisotopic_mass() - 75.032_028).abs() < 1e-5);
    }

    #[test]
    fn known_peptide_mass() {
        // SAMPLER: S+A+M+P+L+E+R + water.
        let p = Peptide::new("SAMPLER").unwrap();
        let expect = 87.032_028
            + 71.037_114
            + 131.040_485
            + 97.052_764
            + 113.084_064
            + 129.042_593
            + 156.101_111
            + WATER_MASS;
        assert!((p.monoisotopic_mass() - expect).abs() < 1e-9);
    }

    #[test]
    fn mz_charge_relation() {
        let p = Peptide::new("PEPTIDEK").unwrap();
        let m = p.monoisotopic_mass();
        for z in 1u8..=4 {
            let mz = p.mz(z);
            let back = (mz - PROTON_MASS) * f64::from(z);
            assert!((back - m).abs() < 1e-9, "charge {z}");
        }
    }

    #[test]
    fn higher_charge_means_lower_mz() {
        let p = Peptide::new("ACDEFGHIK").unwrap();
        assert!(p.mz(1) > p.mz(2));
        assert!(p.mz(2) > p.mz(3));
    }

    #[test]
    fn invalid_sequences_rejected() {
        assert!(Peptide::new("").is_err());
        assert!(Peptide::new("PEPTIDEZ1").is_err());
        assert!(Peptide::new("pep").is_err(), "lowercase not accepted");
    }

    #[test]
    fn parse_from_str() {
        let p: Peptide = "LKR".parse().unwrap();
        assert_eq!(p.sequence(), "LKR");
        assert!("L!R".parse::<Peptide>().is_err());
    }

    #[test]
    fn decoy_reverses_keeping_terminus() {
        let p = Peptide::new("ACDEFK").unwrap();
        assert_eq!(p.decoy().sequence(), "FEDCAK");
        // Decoy has identical mass (same residues).
        assert!((p.decoy().monoisotopic_mass() - p.monoisotopic_mass()).abs() < 1e-12);
    }

    #[test]
    fn decoy_of_single_residue_is_self() {
        let p = Peptide::new("K").unwrap();
        assert_eq!(p.decoy(), p);
    }

    #[test]
    fn leucine_isoleucine_isobaric() {
        let l = Peptide::new("LK").unwrap();
        let i = Peptide::new("IK").unwrap();
        assert!((l.monoisotopic_mass() - i.monoisotopic_mass()).abs() < 1e-12);
    }

    #[test]
    fn display_roundtrip() {
        let p = Peptide::new("SAMPLEK").unwrap();
        assert_eq!(p.to_string(), "SAMPLEK");
    }
}
