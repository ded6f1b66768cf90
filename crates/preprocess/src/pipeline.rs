//! The composed preprocessing pipeline.

use crate::{normalize, topk, SpectraFilter};
use spechd_ms::SpectrumDataset;

/// Configuration for the full preprocessing stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreprocessConfig {
    /// Peak-level filter settings.
    pub filter: SpectraFilter,
    /// Number of peaks kept by the top-k selector.
    pub top_k: usize,
    /// Spectra with fewer surviving peaks are discarded (falcon uses 5;
    /// the same default applies here).
    pub min_peaks: usize,
    /// Whether to apply the sqrt + unit-norm scaling stage.
    pub scale: bool,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        Self {
            filter: SpectraFilter::default(),
            top_k: 50,
            min_peaks: 5,
            scale: true,
        }
    }
}

/// Work/volume counters reported by a preprocessing run, mirrored by the
/// MSAS energy model in `spechd-fpga`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PreprocessStats {
    /// Spectra seen on input.
    pub spectra_in: usize,
    /// Spectra surviving `min_peaks`.
    pub spectra_out: usize,
    /// Total peaks on input.
    pub peaks_in: usize,
    /// Total peaks after filter + top-k.
    pub peaks_out: usize,
    /// Peaks removed by filtering and top-k selection.
    pub peaks_removed: usize,
}

/// Result of preprocessing a dataset.
#[derive(Debug, Clone)]
pub struct PreprocessResult {
    /// The surviving spectra (filtered, top-k'd, scaled), labels aligned.
    pub dataset: SpectrumDataset,
    /// For every output spectrum, its index in the input dataset.
    pub kept: Vec<usize>,
    /// Volume statistics.
    pub stats: PreprocessStats,
}

/// The composed per-spectrum pipeline: filter → top-k → scale/normalize,
/// with dataset-level bookkeeping.
///
/// # Examples
///
/// ```
/// use spechd_preprocess::{PreprocessConfig, PreprocessPipeline};
/// use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};
/// let ds = SyntheticGenerator::new(SyntheticConfig {
///     num_spectra: 30, num_peptides: 6, seed: 1, ..SyntheticConfig::default()
/// }).generate();
/// let result = PreprocessPipeline::new(PreprocessConfig::default()).run(&ds);
/// assert_eq!(result.dataset.len(), result.kept.len());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreprocessPipeline {
    config: PreprocessConfig,
}

impl PreprocessPipeline {
    /// Creates a pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `top_k == 0`.
    pub fn new(config: PreprocessConfig) -> Self {
        assert!(config.top_k > 0, "top_k must be positive");
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &PreprocessConfig {
        &self.config
    }

    /// Runs the pipeline over a dataset, keeping labels aligned with the
    /// surviving spectra.
    pub fn run(&self, dataset: &SpectrumDataset) -> PreprocessResult {
        let mut out = SpectrumDataset::new();
        let mut kept = Vec::new();
        let mut stats = PreprocessStats::default();
        for (index, (spectrum, label)) in dataset.iter().enumerate() {
            if let Some(finished) = self.process_one(spectrum, &mut stats) {
                out.push(finished, label);
                kept.push(index);
            }
        }
        PreprocessResult {
            dataset: out,
            kept,
            stats,
        }
    }

    /// Preprocesses a single spectrum, the streaming counterpart of
    /// [`PreprocessPipeline::run`]: filter → top-k → `min_peaks` gate →
    /// scale/normalize. Returns `None` when the spectrum is discarded.
    ///
    /// Folds the same volume counters into `stats` that `run` reports, so
    /// streaming a dataset spectrum-by-spectrum accumulates statistics
    /// identical to one batch call.
    pub fn process_one(
        &self,
        spectrum: &spechd_ms::Spectrum,
        stats: &mut PreprocessStats,
    ) -> Option<spechd_ms::Spectrum> {
        stats.spectra_in += 1;
        stats.peaks_in += spectrum.peak_count();
        // One peak buffer through every stage, one `Spectrum` at the end.
        let mut peaks = self.config.filter.surviving(spectrum);
        if peaks.len() > self.config.top_k {
            peaks = topk::bitonic_top_k(&peaks, self.config.top_k);
        }
        if peaks.len() < self.config.min_peaks {
            stats.peaks_removed += spectrum.peak_count();
            return None;
        }
        if self.config.scale {
            normalize::scale_and_normalize(&mut peaks);
        }
        stats.spectra_out += 1;
        stats.peaks_out += peaks.len();
        stats.peaks_removed += spectrum.peak_count() - peaks.len();
        Some(
            spectrum
                .with_peaks(peaks)
                .expect("preprocessing preserves peak validity"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};
    use spechd_ms::{Peak, Precursor, Spectrum};

    fn synthetic(n: usize) -> SpectrumDataset {
        SyntheticGenerator::new(SyntheticConfig {
            num_spectra: n,
            num_peptides: 20,
            seed: 5,
            ..SyntheticConfig::default()
        })
        .generate()
    }

    #[test]
    fn output_capped_at_top_k() {
        let result = PreprocessPipeline::new(PreprocessConfig::default()).run(&synthetic(100));
        for s in result.dataset.spectra() {
            assert!(s.peak_count() <= 50);
            assert!(s.peak_count() >= 5);
        }
    }

    #[test]
    fn labels_stay_aligned() {
        let ds = synthetic(150);
        let result = PreprocessPipeline::new(PreprocessConfig::default()).run(&ds);
        for (out_idx, &in_idx) in result.kept.iter().enumerate() {
            assert_eq!(result.dataset.labels()[out_idx], ds.labels()[in_idx]);
            assert_eq!(
                result.dataset.spectra()[out_idx].title(),
                ds.spectra()[in_idx].title()
            );
        }
    }

    #[test]
    fn min_peaks_discards_sparse_spectra() {
        let mut ds = SpectrumDataset::new();
        ds.push(
            Spectrum::new(
                "sparse",
                Precursor::new(500.0, 2).unwrap(),
                vec![Peak::new(300.0, 10.0), Peak::new(310.0, 10.0)],
            )
            .unwrap(),
            Some(1),
        );
        let dense_peaks: Vec<Peak> = (0..30)
            .map(|i| Peak::new(250.0 + 10.0 * i as f64, 10.0))
            .collect();
        ds.push(
            Spectrum::new("dense", Precursor::new(600.0, 2).unwrap(), dense_peaks).unwrap(),
            Some(2),
        );
        let result = PreprocessPipeline::new(PreprocessConfig::default()).run(&ds);
        assert_eq!(result.dataset.len(), 1);
        assert_eq!(result.dataset.spectra()[0].title(), "dense");
        assert_eq!(result.kept, vec![1]);
        assert_eq!(result.stats.spectra_in, 2);
        assert_eq!(result.stats.spectra_out, 1);
    }

    #[test]
    fn stats_balance() {
        let result = PreprocessPipeline::new(PreprocessConfig::default()).run(&synthetic(80));
        let st = result.stats;
        assert_eq!(st.peaks_in, st.peaks_out + st.peaks_removed);
        assert!(st.peaks_out <= st.peaks_in);
    }

    #[test]
    fn scaling_gives_unit_norm() {
        let result = PreprocessPipeline::new(PreprocessConfig::default()).run(&synthetic(20));
        for s in result.dataset.spectra() {
            let norm: f64 = s
                .peaks()
                .iter()
                .map(|p| f64::from(p.intensity) * f64::from(p.intensity))
                .sum();
            assert!((norm - 1.0).abs() < 1e-4, "norm {norm}");
        }
    }

    #[test]
    fn scale_disabled_keeps_raw_intensities() {
        let cfg = PreprocessConfig {
            scale: false,
            ..PreprocessConfig::default()
        };
        let result = PreprocessPipeline::new(cfg).run(&synthetic(20));
        let max = result
            .dataset
            .spectra()
            .iter()
            .flat_map(|s| s.peaks())
            .map(|p| p.intensity)
            .fold(0.0f32, f32::max);
        assert!(max > 10.0, "raw intensities expected, max {max}");
    }

    #[test]
    fn deterministic() {
        let ds = synthetic(60);
        let p = PreprocessPipeline::new(PreprocessConfig::default());
        let a = p.run(&ds);
        let b = p.run(&ds);
        assert_eq!(a.dataset, b.dataset);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn process_one_accumulates_run_stats() {
        let ds = synthetic(120);
        let p = PreprocessPipeline::new(PreprocessConfig::default());
        let batch = p.run(&ds);
        let mut stats = PreprocessStats::default();
        let mut survivors = Vec::new();
        for (s, _) in ds.iter() {
            if let Some(out) = p.process_one(s, &mut stats) {
                survivors.push(out);
            }
        }
        assert_eq!(stats, batch.stats);
        assert_eq!(survivors.as_slice(), batch.dataset.spectra());
    }

    /// `process_one` as it was before the stages shared one peak buffer:
    /// a `Spectrum` (title clone, validation, sort) per stage and the
    /// bitonic network on every spectrum.
    fn process_one_staged(
        config: &PreprocessConfig,
        spectrum: &Spectrum,
        stats: &mut PreprocessStats,
    ) -> Option<Spectrum> {
        fn sqrt_scale(spectrum: &Spectrum) -> Spectrum {
            let peaks: Vec<Peak> = spectrum
                .peaks()
                .iter()
                .map(|p| Peak::new(p.mz, p.intensity.max(0.0).sqrt()))
                .collect();
            spectrum.with_peaks(peaks).expect("sqrt preserves validity")
        }
        fn unit_norm(spectrum: &Spectrum) -> Spectrum {
            let norm: f64 = spectrum
                .peaks()
                .iter()
                .map(|p| f64::from(p.intensity) * f64::from(p.intensity))
                .sum::<f64>()
                .sqrt();
            if norm <= 0.0 {
                return spectrum.clone();
            }
            let peaks: Vec<Peak> = spectrum
                .peaks()
                .iter()
                .map(|p| Peak::new(p.mz, (f64::from(p.intensity) / norm) as f32))
                .collect();
            spectrum
                .with_peaks(peaks)
                .expect("scaling preserves validity")
        }
        stats.spectra_in += 1;
        stats.peaks_in += spectrum.peak_count();
        let filtered = config.filter.apply(spectrum);
        let selected = topk::top_k_spectrum(&filtered, config.top_k);
        if selected.peak_count() < config.min_peaks {
            stats.peaks_removed += spectrum.peak_count();
            return None;
        }
        let finished = if config.scale {
            unit_norm(&sqrt_scale(&selected))
        } else {
            selected
        };
        stats.spectra_out += 1;
        stats.peaks_out += finished.peak_count();
        stats.peaks_removed += spectrum.peak_count() - finished.peak_count();
        Some(finished)
    }

    #[test]
    fn process_one_matches_the_staged_composition() {
        use spechd_rng::{Rng, Xoshiro256StarStar};
        let configs = [
            PreprocessConfig::default(),
            PreprocessConfig {
                scale: false,
                ..PreprocessConfig::default()
            },
            PreprocessConfig {
                top_k: 8,
                min_peaks: 8,
                ..PreprocessConfig::default()
            },
        ];
        let mut rng = Xoshiro256StarStar::seed_from_u64(22);
        let (mut kept, mut discarded, mut selected) = (0, 0, 0);
        for round in 0..600 {
            // Below, at and above top_k (50 and 8) and min_peaks (5 and 8).
            let len = [0, 4, 5, 7, 8, 9, 49, 50, 51, 64, 65, 200][round % 12];
            let precursor_mz = rng.range_f64(300.0, 900.0);
            // 0: distinct intensities; 1: three levels, so ties at the
            // top-k cut; 2: all zero.
            let mode = round / 12 % 3;
            let peaks: Vec<Peak> = (0..len)
                .map(|i| {
                    let mz = match i % 7 {
                        0 => precursor_mz + rng.range_f64(-3.0, 3.0), // in or by the window
                        1 => rng.range_f64(50.0, 2100.0),             // maybe off the m/z range
                        _ => rng.range_f64(101.0, 1999.0),
                    };
                    let intensity = match mode {
                        0 => rng.next_f32() * 1000.0,
                        1 => [5.0, 50.0, 500.0][rng.range_usize(0, 3)],
                        _ => 0.0,
                    };
                    Peak::new(mz, intensity)
                })
                .collect();
            let spectrum = Spectrum::new(
                format!("r{round}"),
                Precursor::new(precursor_mz, 2).unwrap(),
                peaks,
            )
            .unwrap()
            .with_retention_time(round as f64);
            for config in &configs {
                let (mut stats, mut staged_stats) = Default::default();
                let out = PreprocessPipeline::new(*config).process_one(&spectrum, &mut stats);
                let staged = process_one_staged(config, &spectrum, &mut staged_stats);
                assert_eq!(out, staged, "round {round}, {config:?}");
                assert_eq!(stats, staged_stats, "round {round}, {config:?}");
                match out {
                    Some(s) => {
                        kept += 1;
                        selected += usize::from(s.peak_count() == config.top_k);
                    }
                    None => discarded += 1,
                }
            }
        }
        // Every branch was taken many times over.
        assert!(kept > 300 && discarded > 300 && selected > 100);
    }

    #[test]
    #[should_panic(expected = "top_k")]
    fn zero_top_k_panics() {
        let cfg = PreprocessConfig {
            top_k: 0,
            ..PreprocessConfig::default()
        };
        PreprocessPipeline::new(cfg);
    }
}
