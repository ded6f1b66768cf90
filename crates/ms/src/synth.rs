//! Synthetic MS/MS dataset generation with ground-truth labels.
//!
//! The SpecHD paper evaluates on PRIDE datasets (Table I) whose raw files
//! are tens of gigabytes and whose ground truth comes from an MSGF+
//! reanalysis. This module is the substitution: it
//! synthesizes labelled MS/MS runs whose *observable statistics* match
//! what the clustering algorithms care about —
//!
//! * replicate spectra of the same peptide are similar but jittered
//!   (m/z error in ppm, multiplicative intensity noise, peak dropout,
//!   additive noise peaks);
//! * cluster sizes follow a Zipf law (a few abundant peptides, a long tail
//!   of near-singletons);
//! * a configurable fraction of spectra is pure noise (unidentifiable);
//! * precursor charges are mixed (2+/3+ dominated, like tryptic digests).
//!
//! Every spectrum derived from a peptide carries that peptide's index as a
//! ground-truth label, enabling exact incorrect-clustering-ratio and
//! completeness computation.

use crate::fragment::theoretical_spectrum;
use crate::{Peak, Peptide, Precursor, Spectrum, SpectrumDataset};
use spechd_rng::{Rng, Xoshiro256StarStar, Zipf};

/// Configuration of the synthetic generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Total number of spectra to generate.
    pub num_spectra: usize,
    /// Size of the underlying peptide library.
    pub num_peptides: usize,
    /// Zipf exponent of the peptide abundance distribution (>1 ⇒ strong
    /// head, many tail singletons).
    pub zipf_exponent: f64,
    /// Relative probabilities of precursor charges 1+, 2+, 3+.
    pub charge_weights: [f64; 3],
    /// Peptide length range `[min, max]` (inclusive).
    pub peptide_len_range: (usize, usize),
    /// Gaussian fragment m/z jitter in parts-per-million.
    pub mz_jitter_ppm: f64,
    /// Gaussian precursor m/z jitter in parts-per-million.
    pub precursor_jitter_ppm: f64,
    /// Sigma of the log-normal multiplicative intensity noise.
    pub intensity_sigma: f64,
    /// Probability that each theoretical fragment peak is missing.
    pub peak_dropout: f64,
    /// Mean (Poisson) number of additive noise peaks per spectrum.
    pub noise_peaks_lambda: f64,
    /// Fraction of spectra that are pure noise (no peptide, label `None`).
    pub noise_spectrum_fraction: f64,
    /// Fraction of peptide-derived spectra whose label is hidden (`None`),
    /// modelling real runs where the search engine identifies only part of
    /// the data.
    pub hidden_label_fraction: f64,
    /// Fraction of library peptides that are *variants* of another library
    /// peptide, produced by swapping two adjacent residues: identical
    /// precursor mass (same bucket) and mostly shared fragment ions. These
    /// are the confusable cases that make the incorrect-clustering-ratio
    /// axis of Fig. 10 meaningful.
    pub family_fraction: f64,
    /// Instrument fragment m/z range; peaks outside are discarded.
    pub instrument_mz_range: (f64, f64),
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        Self {
            num_spectra: 1_000,
            num_peptides: 250,
            zipf_exponent: 1.1,
            charge_weights: [0.05, 0.65, 0.30],
            peptide_len_range: (8, 22),
            mz_jitter_ppm: 20.0,
            precursor_jitter_ppm: 10.0,
            intensity_sigma: 0.35,
            peak_dropout: 0.12,
            noise_peaks_lambda: 8.0,
            noise_spectrum_fraction: 0.15,
            hidden_label_fraction: 0.10,
            family_fraction: 0.0,
            instrument_mz_range: (200.0, 2000.0),
            seed: 0x5EED_CAFE,
        }
    }
}

impl SyntheticConfig {
    /// A deliberately difficult preset for quality-curve experiments
    /// (Figs 6a/10/11): confusable peptide families, heavier noise and
    /// dropout, and a larger unidentifiable fraction — the regime where
    /// clustering tools separate, as on real PRIDE data.
    pub fn hard(num_spectra: usize, seed: u64) -> Self {
        Self {
            num_spectra,
            num_peptides: (num_spectra / 5).max(10),
            family_fraction: 0.15,
            noise_spectrum_fraction: 0.25,
            peak_dropout: 0.15,
            intensity_sigma: 0.4,
            noise_peaks_lambda: 10.0,
            mz_jitter_ppm: 20.0,
            seed,
            ..Self::default()
        }
    }
}

/// Deterministic synthetic dataset generator.
///
/// # Examples
///
/// ```
/// use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};
/// let gen = SyntheticGenerator::new(SyntheticConfig {
///     num_spectra: 100, num_peptides: 25, seed: 7, ..SyntheticConfig::default()
/// });
/// let ds = gen.generate();
/// assert_eq!(ds.len(), 100);
/// // Same config ⇒ identical dataset.
/// let ds2 = SyntheticGenerator::new(gen.config().clone()).generate();
/// assert_eq!(ds.spectra()[0].title(), ds2.spectra()[0].title());
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticGenerator {
    config: SyntheticConfig,
    peptides: Vec<Peptide>,
}

impl SyntheticGenerator {
    /// Builds the generator, synthesizing the peptide library.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero peptides, empty
    /// length range, non-positive Zipf exponent, or all-zero charge
    /// weights).
    pub fn new(config: SyntheticConfig) -> Self {
        assert!(config.num_peptides > 0, "need at least one peptide");
        assert!(
            config.peptide_len_range.0 >= 2
                && config.peptide_len_range.0 <= config.peptide_len_range.1,
            "peptide length range must be non-empty and >= 2"
        );
        assert!(config.zipf_exponent > 0.0, "zipf exponent must be positive");
        assert!(
            config.charge_weights.iter().sum::<f64>() > 0.0,
            "charge weights must not all be zero"
        );
        let mut rng = Xoshiro256StarStar::seed_from_u64(config.seed);
        let peptides = generate_peptide_library(
            config.num_peptides,
            config.peptide_len_range,
            config.family_fraction,
            &mut rng,
        );
        Self { config, peptides }
    }

    /// The configuration.
    pub fn config(&self) -> &SyntheticConfig {
        &self.config
    }

    /// The generated peptide library; label `k` in the output dataset
    /// refers to `peptide_library()[k]`.
    pub fn peptide_library(&self) -> &[Peptide] {
        &self.peptides
    }

    /// Generates the full labelled dataset.
    pub fn generate(&self) -> SpectrumDataset {
        let mut dataset = SpectrumDataset::new();
        let mut stream = self.stream();
        while let Some((s, label)) = stream.generate_next() {
            dataset.push(s, label);
        }
        dataset
    }

    /// A lazy generator yielding the exact spectrum sequence of
    /// [`SyntheticGenerator::generate`], one at a time — the synthetic
    /// source for streaming benches, which never materializes the dataset.
    pub fn stream(&self) -> SyntheticStream<'_> {
        // Use a stream distinct from the library stream so changing
        // num_spectra never changes the library.
        SyntheticStream {
            generator: self,
            rng: Xoshiro256StarStar::seed_from_u64(self.config.seed).stream(1),
            zipf: Zipf::new(self.peptides.len(), self.config.zipf_exponent),
            next_index: 0,
        }
    }

    fn draw_charge(&self, rng: &mut Xoshiro256StarStar) -> u8 {
        let w = &self.config.charge_weights;
        let total: f64 = w.iter().sum();
        let mut x = rng.next_f64() * total;
        for (i, &wi) in w.iter().enumerate() {
            if x < wi {
                return (i + 1) as u8;
            }
            x -= wi;
        }
        3
    }

    fn peptide_spectrum(
        &self,
        index: usize,
        pep_idx: usize,
        charge: u8,
        rng: &mut Xoshiro256StarStar,
    ) -> Spectrum {
        let cfg = &self.config;
        let peptide = &self.peptides[pep_idx];
        let max_frag_charge = if charge >= 3 { 2 } else { 1 };
        let mut peaks = Vec::new();
        for peak in theoretical_spectrum(peptide, max_frag_charge) {
            if rng.bernoulli(cfg.peak_dropout) {
                continue;
            }
            let jittered = jitter_ppm(peak.mz, cfg.mz_jitter_ppm, rng);
            if jittered < cfg.instrument_mz_range.0 || jittered > cfg.instrument_mz_range.1 {
                continue;
            }
            let noise = rng.log_normal(0.0, cfg.intensity_sigma) as f32;
            peaks.push(Peak::new(jittered, (peak.intensity * noise).max(1.0)));
        }
        // Additive chemical/electronic noise peaks at low intensity.
        let base = peaks
            .iter()
            .map(|p| p.intensity)
            .fold(0.0f32, f32::max)
            .max(1.0);
        let n_noise = rng.poisson(cfg.noise_peaks_lambda);
        for _ in 0..n_noise {
            let mz = rng.range_f64(cfg.instrument_mz_range.0, cfg.instrument_mz_range.1);
            let intensity = base * 0.05 * (-rng.next_f64().max(1e-9).ln()) as f32 * 0.5;
            peaks.push(Peak::new(mz, intensity.max(0.5)));
        }
        let precursor_mz = jitter_ppm(peptide.mz(charge), cfg.precursor_jitter_ppm, rng);
        let title = format!("synth:{index}:pep={pep_idx}:z={charge}");
        Spectrum::new(
            title,
            Precursor::new(precursor_mz, charge).expect("positive precursor"),
            peaks,
        )
        .expect("generator produces valid peaks")
        .with_retention_time(index as f64 * 0.5)
    }

    fn noise_spectrum(&self, index: usize, rng: &mut Xoshiro256StarStar) -> Spectrum {
        let cfg = &self.config;
        let count = 20 + rng.poisson(cfg.noise_peaks_lambda * 3.0) as usize;
        let peaks: Vec<Peak> = (0..count)
            .map(|_| {
                let mz = rng.range_f64(cfg.instrument_mz_range.0, cfg.instrument_mz_range.1);
                let intensity = (-rng.next_f64().max(1e-9).ln()) as f32 * 100.0;
                Peak::new(mz, intensity.max(0.5))
            })
            .collect();
        let charge = self.draw_charge(rng);
        let precursor_mz = rng.range_f64(300.0, 1500.0);
        Spectrum::new(
            format!("synth:{index}:noise:z={charge}"),
            Precursor::new(precursor_mz, charge).expect("positive precursor"),
            peaks,
        )
        .expect("generator produces valid peaks")
        .with_retention_time(index as f64 * 0.5)
    }
}

/// Lazy synthetic spectrum source (see [`SyntheticGenerator::stream`]).
///
/// Yields exactly `config.num_spectra` items, bit-identical to the dataset
/// [`SyntheticGenerator::generate`] would build, without holding more than
/// the spectrum in flight. Implements
/// [`SpectrumStream`](crate::stream::SpectrumStream).
#[derive(Debug)]
pub struct SyntheticStream<'a> {
    generator: &'a SyntheticGenerator,
    rng: Xoshiro256StarStar,
    zipf: Zipf,
    next_index: usize,
}

impl SyntheticStream<'_> {
    fn generate_next(&mut self) -> Option<(Spectrum, Option<u32>)> {
        let gen = self.generator;
        let cfg = &gen.config;
        if self.next_index >= cfg.num_spectra {
            return None;
        }
        let index = self.next_index;
        self.next_index += 1;
        Some(if self.rng.bernoulli(cfg.noise_spectrum_fraction) {
            (gen.noise_spectrum(index, &mut self.rng), None)
        } else {
            let pep_idx = self.zipf.sample(&mut self.rng) - 1;
            let charge = gen.draw_charge(&mut self.rng);
            let s = gen.peptide_spectrum(index, pep_idx, charge, &mut self.rng);
            let label = if self.rng.bernoulli(cfg.hidden_label_fraction) {
                None
            } else {
                Some(pep_idx as u32)
            };
            (s, label)
        })
    }
}

impl crate::stream::SpectrumStream for SyntheticStream<'_> {
    fn next_spectrum(&mut self) -> Option<(Spectrum, Option<u32>)> {
        self.generate_next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.generator.config.num_spectra - self.next_index;
        (rem, Some(rem))
    }
}

fn jitter_ppm(value: f64, ppm: f64, rng: &mut Xoshiro256StarStar) -> f64 {
    (value * (1.0 + rng.normal(0.0, ppm * 1e-6))).max(1.0)
}

/// Generates `count` distinct tryptic-like peptides (random residues,
/// C-terminal K or R). A `family_fraction` of the library consists of
/// adjacent-residue-swap variants of earlier peptides: same mass, mostly
/// shared fragments — the confusable cases real runs contain.
fn generate_peptide_library(
    count: usize,
    len_range: (usize, usize),
    family_fraction: f64,
    rng: &mut Xoshiro256StarStar,
) -> Vec<Peptide> {
    // Exclude I (isobaric with L) so every library peptide has a distinct
    // plausible sequence-to-mass story; keeps search-engine tests crisp.
    const RESIDUES: [char; 19] = [
        'A', 'C', 'D', 'E', 'F', 'G', 'H', 'K', 'L', 'M', 'N', 'P', 'Q', 'R', 'S', 'T', 'V', 'W',
        'Y',
    ];
    let mut seen = std::collections::HashSet::with_capacity(count);
    let mut peptides: Vec<Peptide> = Vec::with_capacity(count);
    while peptides.len() < count {
        let make_variant = !peptides.is_empty() && rng.bernoulli(family_fraction);
        let seq = if make_variant {
            // Swap two adjacent interior residues of an existing peptide.
            let base = rng.choose(&peptides).sequence().to_string();
            let mut chars: Vec<char> = base.chars().collect();
            if chars.len() < 4 {
                continue;
            }
            let pos = rng.range_usize(0, chars.len() - 2);
            if chars[pos] == chars[pos + 1] {
                continue; // identical residues: swap is a no-op, retry
            }
            chars.swap(pos, pos + 1);
            chars.into_iter().collect::<String>()
        } else {
            let len = rng.range_usize(len_range.0, len_range.1 + 1);
            let mut seq = String::with_capacity(len);
            for _ in 0..len - 1 {
                seq.push(*rng.choose(&RESIDUES));
            }
            seq.push(if rng.next_bool() { 'K' } else { 'R' });
            seq
        };
        if seen.insert(seq.clone()) {
            peptides.push(Peptide::new(seq).expect("library residues are valid"));
        }
    }
    peptides
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SyntheticConfig {
        SyntheticConfig {
            num_spectra: 300,
            num_peptides: 60,
            seed: 11,
            ..SyntheticConfig::default()
        }
    }

    #[test]
    fn generates_requested_count() {
        let ds = SyntheticGenerator::new(small_config()).generate();
        assert_eq!(ds.len(), 300);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = SyntheticGenerator::new(small_config()).generate();
        let b = SyntheticGenerator::new(small_config()).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_differs() {
        let a = SyntheticGenerator::new(small_config()).generate();
        let mut cfg = small_config();
        cfg.seed = 12;
        let b = SyntheticGenerator::new(cfg).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn library_size_and_validity() {
        let gen = SyntheticGenerator::new(small_config());
        assert_eq!(gen.peptide_library().len(), 60);
        for p in gen.peptide_library() {
            let last = p.sequence().chars().last().unwrap();
            assert!(last == 'K' || last == 'R', "tryptic terminus");
            assert!(p.len() >= 8 && p.len() <= 22);
        }
        // Distinctness.
        let set: std::collections::HashSet<&str> =
            gen.peptide_library().iter().map(|p| p.sequence()).collect();
        assert_eq!(set.len(), 60);
    }

    #[test]
    fn changing_num_spectra_keeps_library() {
        let mut cfg = small_config();
        let lib_a = SyntheticGenerator::new(cfg.clone())
            .peptide_library()
            .to_vec();
        cfg.num_spectra = 999;
        let lib_b = SyntheticGenerator::new(cfg).peptide_library().to_vec();
        assert_eq!(lib_a, lib_b);
    }

    #[test]
    fn noise_fraction_roughly_respected() {
        let mut cfg = small_config();
        cfg.num_spectra = 2_000;
        cfg.noise_spectrum_fraction = 0.25;
        cfg.hidden_label_fraction = 0.0;
        let ds = SyntheticGenerator::new(cfg).generate();
        let noise = ds.len() - ds.identified_count();
        let frac = noise as f64 / ds.len() as f64;
        assert!((frac - 0.25).abs() < 0.04, "noise fraction {frac}");
    }

    #[test]
    fn labels_match_titles() {
        let ds = SyntheticGenerator::new(small_config()).generate();
        for (s, label) in ds.iter() {
            if let Some(l) = label {
                assert!(
                    s.title().contains(&format!("pep={l}")),
                    "title {} vs label {l}",
                    s.title()
                );
            }
        }
    }

    #[test]
    fn zipf_head_peptide_has_many_replicates() {
        let mut cfg = small_config();
        cfg.num_spectra = 2_000;
        cfg.num_peptides = 1_000;
        cfg.zipf_exponent = 1.3;
        cfg.noise_spectrum_fraction = 0.0;
        cfg.hidden_label_fraction = 0.0;
        let ds = SyntheticGenerator::new(cfg).generate();
        let mut counts = std::collections::HashMap::new();
        for l in ds.labels().iter().flatten() {
            *counts.entry(*l).or_insert(0usize) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        let singletons = counts.values().filter(|&&c| c == 1).count();
        assert!(max > 100, "head cluster should be large, got {max}");
        assert!(
            singletons > 5,
            "tail should contain singletons, got {singletons}"
        );
    }

    #[test]
    fn precursor_mz_close_to_theoretical() {
        let gen = SyntheticGenerator::new(small_config());
        let ds = gen.generate();
        for (s, label) in ds.iter() {
            if let Some(l) = label {
                let pep = &gen.peptide_library()[l as usize];
                let z = s.precursor().charge();
                let theory = pep.mz(z);
                let ppm = (s.precursor().mz() - theory).abs() / theory * 1e6;
                assert!(ppm < 60.0, "precursor {ppm:.1} ppm off theory");
            }
        }
    }

    #[test]
    fn peaks_within_instrument_range() {
        let ds = SyntheticGenerator::new(small_config()).generate();
        for s in ds.spectra() {
            for p in s.peaks() {
                assert!(p.mz >= 200.0 && p.mz <= 2000.0, "peak {p:?}");
                assert!(p.is_valid());
            }
        }
    }

    #[test]
    fn replicates_share_peaks() {
        // Two spectra of the same peptide at the same charge must share many
        // fragment m/z values within tolerance; a spectrum of a different
        // peptide must share few. This is the core signal HDC exploits.
        let mut cfg = small_config();
        cfg.num_spectra = 3_000;
        cfg.noise_spectrum_fraction = 0.0;
        cfg.hidden_label_fraction = 0.0;
        let gen = SyntheticGenerator::new(cfg);
        let ds = gen.generate();
        // Find two replicates of the same (label, charge) and one other.
        let mut by_key: std::collections::HashMap<(u32, u8), Vec<usize>> =
            std::collections::HashMap::new();
        for (i, (s, label)) in ds.iter().enumerate() {
            if let Some(l) = label {
                by_key
                    .entry((l, s.precursor().charge()))
                    .or_default()
                    .push(i);
            }
        }
        let (key, replicates) = by_key
            .iter()
            .find(|(_, v)| v.len() >= 2)
            .expect("replicates exist");
        let other = by_key
            .iter()
            .find(|(k, v)| k.0 != key.0 && !v.is_empty())
            .map(|(_, v)| v[0])
            .expect("another peptide exists");
        let shared = |a: &Spectrum, b: &Spectrum| -> usize {
            let tol = 0.05;
            a.peaks()
                .iter()
                .filter(|pa| b.peaks().iter().any(|pb| (pa.mz - pb.mz).abs() < tol))
                .count()
        };
        let s0 = ds.spectrum(replicates[0]);
        let s1 = ds.spectrum(replicates[1]);
        let s2 = ds.spectrum(other);
        assert!(
            shared(s0, s1) > shared(s0, s2),
            "replicates share {} peaks, strangers {}",
            shared(s0, s1),
            shared(s0, s2)
        );
    }

    #[test]
    fn stream_matches_generate() {
        use crate::stream::SpectrumStream as _;
        let gen = SyntheticGenerator::new(small_config());
        let ds = gen.generate();
        let mut stream = gen.stream();
        assert_eq!(stream.size_hint(), (300, Some(300)));
        for i in 0..ds.len() {
            let (s, label) = stream.next_spectrum().expect("stream length");
            assert_eq!(s, ds.spectra()[i], "spectrum {i}");
            assert_eq!(label, ds.labels()[i], "label {i}");
        }
        assert!(stream.next_spectrum().is_none());
        assert_eq!(stream.size_hint(), (0, Some(0)));
    }

    #[test]
    #[should_panic(expected = "at least one peptide")]
    fn zero_peptides_panics() {
        let mut cfg = small_config();
        cfg.num_peptides = 0;
        SyntheticGenerator::new(cfg);
    }
}
