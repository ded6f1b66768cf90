//! The search engine: candidate retrieval + scoring.

use crate::score::{hyperscore, match_ions};
use crate::PeptideDatabase;
use spechd_ms::{Peptide, Spectrum};

/// Search tolerances and acceptance gates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchConfig {
    /// Precursor neutral-mass tolerance in Dalton.
    pub precursor_tol_da: f64,
    /// Fragment m/z tolerance in Dalton.
    pub fragment_tol_da: f64,
    /// Minimum matched fragment ions for a PSM to be reported.
    pub min_matched_ions: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            precursor_tol_da: 0.05,
            fragment_tol_da: 0.05,
            min_matched_ions: 4,
        }
    }
}

/// A peptide-spectrum match.
#[derive(Debug, Clone, PartialEq)]
pub struct Psm {
    /// Index of the searched spectrum in the input slice.
    pub spectrum_index: usize,
    /// Best-scoring peptide.
    pub peptide: Peptide,
    /// Whether the best match was a decoy.
    pub is_decoy: bool,
    /// Hyperscore of the match.
    pub score: f64,
    /// Matched fragment-ion count.
    pub matched_ions: usize,
}

/// Database search engine.
///
/// # Examples
///
/// ```
/// use spechd_search::{PeptideDatabase, SearchConfig, SearchEngine};
/// use spechd_ms::fragment::theoretical_spectrum;
/// use spechd_ms::{Peptide, Precursor, Spectrum};
///
/// let pep: Peptide = "ACDEFGHK".parse()?;
/// let db = PeptideDatabase::build(std::slice::from_ref(&pep));
/// let engine = SearchEngine::new(db, SearchConfig::default());
/// let spectrum = Spectrum::new(
///     "q",
///     Precursor::new(pep.mz(2), 2)?,
///     theoretical_spectrum(&pep, 1),
/// )?;
/// let psm = engine.search_dataset(&[spectrum]).remove(0).expect("hit");
/// assert_eq!(psm.peptide, pep);
/// assert!(!psm.is_decoy);
/// # Ok::<(), spechd_ms::MsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SearchEngine {
    db: PeptideDatabase,
    config: SearchConfig,
}

impl SearchEngine {
    /// Creates an engine over a database.
    ///
    /// # Panics
    ///
    /// Panics if tolerances are non-positive.
    pub fn new(db: PeptideDatabase, config: SearchConfig) -> Self {
        assert!(
            config.precursor_tol_da > 0.0,
            "precursor tolerance must be positive"
        );
        assert!(
            config.fragment_tol_da > 0.0,
            "fragment tolerance must be positive"
        );
        Self { db, config }
    }

    /// The configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// The underlying database.
    pub fn database(&self) -> &PeptideDatabase {
        &self.db
    }

    /// Searches one spectrum, returning the best PSM that clears the
    /// matched-ion gate (`None` if no candidate does).
    fn search_spectrum(&self, spectrum: &Spectrum, index: usize) -> Option<Psm> {
        let neutral = spectrum.precursor().neutral_mass();
        let mut best: Option<Psm> = None;
        for entry in self.db.candidates(neutral, self.config.precursor_tol_da) {
            let matched = match_ions(
                &entry.peptide,
                spectrum.peaks(),
                self.config.fragment_tol_da,
            );
            if matched.total() < self.config.min_matched_ions {
                continue;
            }
            let score = hyperscore(&matched);
            let better = match &best {
                None => true,
                Some(b) => score > b.score,
            };
            if better {
                best = Some(Psm {
                    spectrum_index: index,
                    peptide: entry.peptide.clone(),
                    is_decoy: entry.is_decoy,
                    score,
                    matched_ions: matched.total(),
                });
            }
        }
        best
    }

    /// Searches every spectrum; entry `i` corresponds to `spectra[i]`.
    pub fn search_dataset(&self, spectra: &[Spectrum]) -> Vec<Option<Psm>> {
        spectra
            .iter()
            .enumerate()
            .map(|(i, s)| self.search_spectrum(s, i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechd_ms::fragment::theoretical_spectrum;
    use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};
    use spechd_ms::Precursor;

    fn engine_for(gen: &SyntheticGenerator) -> SearchEngine {
        SearchEngine::new(
            PeptideDatabase::build(gen.peptide_library()),
            SearchConfig::default(),
        )
    }

    #[test]
    fn identifies_most_synthetic_spectra_correctly() {
        let gen = SyntheticGenerator::new(SyntheticConfig {
            num_spectra: 200,
            num_peptides: 50,
            noise_spectrum_fraction: 0.0,
            hidden_label_fraction: 0.0,
            seed: 21,
            ..SyntheticConfig::default()
        });
        let ds = gen.generate();
        let engine = engine_for(&gen);
        let psms = engine.search_dataset(ds.spectra());
        let mut correct = 0;
        let mut wrong = 0;
        for (psm, label) in psms.iter().zip(ds.labels()) {
            if let (Some(p), Some(l)) = (psm, label) {
                if !p.is_decoy && p.peptide == gen.peptide_library()[*l as usize] {
                    correct += 1;
                } else {
                    wrong += 1;
                }
            }
        }
        assert!(correct > 150, "correct: {correct}, wrong: {wrong}");
        assert!(wrong < correct / 5, "too many wrong IDs: {wrong}");
    }

    #[test]
    fn noise_spectra_rarely_identified() {
        let gen = SyntheticGenerator::new(SyntheticConfig {
            num_spectra: 150,
            num_peptides: 40,
            noise_spectrum_fraction: 1.0,
            seed: 22,
            ..SyntheticConfig::default()
        });
        let ds = gen.generate();
        let engine = engine_for(&gen);
        let hits = engine.search_dataset(ds.spectra()).iter().flatten().count();
        assert!(
            hits < 30,
            "noise should mostly fail the ion gate, got {hits}"
        );
    }

    #[test]
    fn precursor_gate_excludes_wrong_mass() {
        let pep: Peptide = "ACDEFGHK".parse().unwrap();
        let db = PeptideDatabase::build(std::slice::from_ref(&pep));
        let engine = SearchEngine::new(db, SearchConfig::default());
        // Same peaks, but a precursor 10 Da off: no candidates.
        let s = Spectrum::new(
            "off",
            Precursor::new(pep.mz(2) + 5.0, 2).unwrap(),
            theoretical_spectrum(&pep, 1),
        )
        .unwrap();
        assert!(engine.search_spectrum(&s, 0).is_none());
    }

    #[test]
    fn min_matched_ions_gate() {
        let pep: Peptide = "ACDEFGHK".parse().unwrap();
        let db = PeptideDatabase::build(std::slice::from_ref(&pep));
        // An impossible min_matched_ions gate: every PSM is rejected.
        let cfg = SearchConfig {
            min_matched_ions: 100,
            ..SearchConfig::default()
        };
        let engine = SearchEngine::new(db, cfg);
        let s = Spectrum::new(
            "q",
            Precursor::new(pep.mz(2), 2).unwrap(),
            theoretical_spectrum(&pep, 1),
        )
        .unwrap();
        assert!(engine.search_spectrum(&s, 0).is_none());
    }

    #[test]
    fn empty_spectrum_no_match() {
        let pep: Peptide = "ACDEFGHK".parse().unwrap();
        let db = PeptideDatabase::build(std::slice::from_ref(&pep));
        let engine = SearchEngine::new(db, SearchConfig::default());
        let s = Spectrum::new("e", Precursor::new(pep.mz(2), 2).unwrap(), vec![]).unwrap();
        assert!(engine.search_spectrum(&s, 0).is_none());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_tolerance_panics() {
        let db = PeptideDatabase::build(&[]);
        let cfg = SearchConfig {
            fragment_tol_da: 0.0,
            ..SearchConfig::default()
        };
        SearchEngine::new(db, cfg);
    }
}
