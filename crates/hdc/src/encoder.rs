//! The ID-Level spectrum encoder (Eq. 2 of the SpecHD paper).

use crate::{
    BinaryHypervector, HvPack, IntensityQuantizer, IntensityScale, ItemMemory, LevelMemory,
    MajorityAccumulator, MzQuantizer,
};

/// Configuration for [`IdLevelEncoder`].
///
/// The paper's deployed configuration is `dim = 2048`; `mz_bins` (`f`) and
/// `intensity_levels` (`q`) control the two item memories held in
/// partitioned on-chip RAM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncoderConfig {
    /// Hypervector dimensionality `D` (paper: 2048).
    pub dim: usize,
    /// Number of m/z quantization bins `f` (size of the ID memory).
    pub mz_bins: usize,
    /// Number of intensity quantization levels `q` (size of the Level memory).
    pub intensity_levels: usize,
    /// The m/z range covered by the ID memory; values outside clamp.
    pub mz_range: (f64, f64),
    /// Seed for the two item memories.
    pub seed: u64,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        Self {
            dim: 2048,
            mz_bins: 2048,
            intensity_levels: 64,
            mz_range: (200.0, 2000.0),
            seed: 0x5BEC_0CD5,
        }
    }
}

/// Encodes peak lists into binary hypervectors with the ID-Level scheme.
///
/// For each peak `(mz, intensity)` the encoder looks up `ID[bin(mz)]` and
/// `L[level(intensity)]`, XORs them, and accumulates the bound vectors into
/// per-dimension counters; a pointwise majority binarizes the result
/// (Eq. 2):
///
/// ```text
/// spectra_i = majority( Σ_peaks ID[f(mz)] ⊕ L[g(intensity)] )
/// ```
///
/// The encoder is deterministic for a given [`EncoderConfig`]; two encoders
/// built from the same config produce identical hypervectors, which is what
/// lets SpecHD store HVs once and re-cluster later ("one-time
/// preprocessing", §IV-B of the paper).
///
/// # Examples
///
/// ```
/// use spechd_hdc::{EncoderConfig, IdLevelEncoder};
/// let encoder = IdLevelEncoder::new(EncoderConfig::default());
/// let hv = encoder.encode(&[(500.0, 1.0), (600.5, 0.3)]);
/// assert_eq!(hv.dim(), 2048);
/// ```
#[derive(Debug, Clone)]
pub struct IdLevelEncoder {
    config: EncoderConfig,
    id_memory: ItemMemory,
    level_memory: LevelMemory,
    mz_quantizer: MzQuantizer,
    intensity_quantizer: IntensityQuantizer,
}

impl IdLevelEncoder {
    /// Builds the encoder, allocating both item memories.
    ///
    /// # Panics
    ///
    /// Panics if any config field is degenerate (zero dim/bins, fewer than
    /// two levels, or an empty m/z range).
    pub fn new(config: EncoderConfig) -> Self {
        let id_memory = ItemMemory::random(config.mz_bins, config.dim, config.seed);
        let level_memory = LevelMemory::new(
            config.intensity_levels,
            config.dim,
            config.seed.wrapping_add(1),
        );
        let mz_quantizer = MzQuantizer::new(config.mz_bins, config.mz_range);
        let intensity_quantizer =
            IntensityQuantizer::new(config.intensity_levels, IntensityScale::Sqrt);
        Self {
            config,
            id_memory,
            level_memory,
            mz_quantizer,
            intensity_quantizer,
        }
    }

    /// The configuration this encoder was built from.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// Hypervector dimensionality `D`.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// On-chip memory footprint of both item memories in bytes — the
    /// quantity the paper partitions across BRAM banks.
    pub fn item_memory_bytes(&self) -> usize {
        self.id_memory.storage_bytes() + self.level_memory.storage_bytes()
    }

    /// Encodes a peak list of `(mz, relative_intensity)` pairs.
    ///
    /// Intensities are expected relative to the base peak (`[0, 1]`); the
    /// preprocessing crate produces exactly this form. An empty peak list
    /// encodes to the all-zero hypervector.
    pub fn encode(&self, peaks: &[(f64, f64)]) -> BinaryHypervector {
        let mut acc = MajorityAccumulator::new(self.config.dim);
        self.accumulate(peaks, &mut acc);
        acc.finalize()
    }

    /// Encodes a batch of peak lists straight into a contiguous [`HvPack`],
    /// reusing one accumulator and binarizing each spectrum in place into
    /// its packed row — no per-spectrum `BinaryHypervector` allocation.
    /// Row `i` is bit-exact with [`IdLevelEncoder::encode`] of list `i`.
    pub fn encode_batch_packed(&self, spectra: &[Vec<(f64, f64)>]) -> HvPack {
        let mut pack = HvPack::with_capacity(self.config.dim, spectra.len());
        let mut acc = MajorityAccumulator::new(self.config.dim);
        for peaks in spectra {
            self.encode_into_pack(peaks, &mut acc, &mut pack);
        }
        pack
    }

    /// Encodes one peak list and appends it as a new row of `pack` — the
    /// pipeline's ingest calls it once per spectrum, with one reused
    /// accumulator, on the pack of the spectrum's shard.
    ///
    /// # Panics
    ///
    /// Panics if the pack's or accumulator's dimensionality differs from
    /// the encoder's.
    pub fn encode_into_pack(
        &self,
        peaks: &[(f64, f64)],
        acc: &mut MajorityAccumulator,
        pack: &mut HvPack,
    ) {
        assert_eq!(pack.dim(), self.config.dim, "pack dimensionality mismatch");
        assert_eq!(
            acc.dim(),
            self.config.dim,
            "accumulator dimensionality mismatch"
        );
        self.accumulate(peaks, acc);
        acc.finalize_into_words(pack.push_zeroed());
    }

    /// Clears `acc` and accumulates every bound `ID ⊕ L` term of `peaks`.
    ///
    /// Each peak is two quantizer lookups and one
    /// [`MajorityAccumulator::add_bound`]: the XOR bind happens inside the
    /// accumulator's word-parallel adder chain, so no bound vector is
    /// allocated and no lane is visited one bit at a time.
    fn accumulate(&self, peaks: &[(f64, f64)], acc: &mut MajorityAccumulator) {
        acc.clear();
        for &(mz, intensity) in peaks {
            let id = self.id_memory.get(self.mz_quantizer.quantize(mz));
            let level = self
                .level_memory
                .get(self.intensity_quantizer.quantize(intensity));
            acc.add_bound(id, level);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_encoder() -> IdLevelEncoder {
        IdLevelEncoder::new(EncoderConfig {
            dim: 2048,
            mz_bins: 512,
            intensity_levels: 32,
            mz_range: (200.0, 2000.0),
            seed: 99,
        })
    }

    #[test]
    fn empty_peak_list_encodes_to_zeros() {
        let enc = test_encoder();
        assert_eq!(enc.encode(&[]), BinaryHypervector::zeros(2048));
    }

    #[test]
    fn encoding_is_deterministic_across_encoder_instances() {
        let peaks = vec![(300.0, 1.0), (450.5, 0.4), (999.9, 0.1)];
        let a = test_encoder().encode(&peaks);
        let b = test_encoder().encode(&peaks);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_codes() {
        let peaks = vec![(300.0, 1.0), (450.5, 0.4)];
        let cfg = EncoderConfig {
            seed: 1,
            ..EncoderConfig::default()
        };
        let a = IdLevelEncoder::new(cfg).encode(&peaks);
        let b = IdLevelEncoder::new(EncoderConfig { seed: 2, ..cfg }).encode(&peaks);
        assert!(
            a.hamming(&b) > 700,
            "independent memories must decorrelate codes"
        );
    }

    #[test]
    fn similar_spectra_closer_than_dissimilar() {
        let enc = test_encoder();
        let base: Vec<(f64, f64)> = (0..30)
            .map(|i| (250.0 + 55.0 * i as f64, 1.0 / (1.0 + i as f64)))
            .collect();
        // Perturb intensities slightly.
        let similar: Vec<(f64, f64)> = base
            .iter()
            .map(|&(mz, it)| (mz, (it * 1.1_f64).min(1.0)))
            .collect();
        // Entirely different m/z positions.
        let different: Vec<(f64, f64)> = (0..30)
            .map(|i| (233.0 + 57.3 * i as f64, 1.0 / (1.0 + i as f64)))
            .collect();
        let h_base = enc.encode(&base);
        let h_sim = enc.encode(&similar);
        let h_diff = enc.encode(&different);
        assert!(h_base.hamming(&h_sim) < h_base.hamming(&h_diff));
    }

    #[test]
    fn single_peak_encodes_to_bound_pair() {
        let enc = test_encoder();
        let hv = enc.encode(&[(300.0, 1.0)]);
        let id = enc.id_memory.get(enc.mz_quantizer.quantize(300.0));
        let level = enc.level_memory.get(enc.intensity_quantizer.quantize(1.0));
        assert_eq!(hv, id ^ level);
    }

    #[test]
    fn peak_order_does_not_matter() {
        let enc = test_encoder();
        let fwd = vec![(300.0, 1.0), (500.0, 0.5), (900.0, 0.2)];
        let mut rev = fwd.clone();
        rev.reverse();
        assert_eq!(enc.encode(&fwd), enc.encode(&rev));
    }

    #[test]
    fn encode_into_matches_encode() {
        let enc = test_encoder();
        let peaks = vec![(310.0, 0.8), (411.0, 0.6), (512.0, 0.4)];
        let mut acc = MajorityAccumulator::new(2048);
        let mut pack = HvPack::new(2048);
        enc.encode_into_pack(&peaks, &mut acc, &mut pack);
        assert_eq!(pack.hypervector(0), enc.encode(&peaks));
        // Accumulator is reusable.
        let peaks2 = vec![(820.0, 1.0)];
        enc.encode_into_pack(&peaks2, &mut acc, &mut pack);
        assert_eq!(pack.hypervector(1), enc.encode(&peaks2));
    }

    #[test]
    fn encode_batch_matches_individual() {
        let enc = test_encoder();
        let spectra = vec![
            vec![(300.0, 1.0)],
            vec![(400.0, 0.5), (600.0, 0.25), (850.0, 0.9)],
            vec![],
            vec![(1999.0, 0.1)],
        ];
        let pack = enc.encode_batch_packed(&spectra);
        assert_eq!(pack.len(), spectra.len());
        assert_eq!(pack.dim(), enc.dim());
        let reference: Vec<_> = spectra.iter().map(|p| enc.encode(p)).collect();
        assert_eq!(pack.to_hypervectors(), reference);
    }

    #[test]
    fn incremental_pack_encoding_matches_batch() {
        let enc = test_encoder();
        let spectra = vec![
            vec![(300.0, 1.0)],
            vec![(400.0, 0.5), (600.0, 0.25)],
            vec![],
            vec![(850.0, 0.9), (1999.0, 0.1)],
        ];
        let batch = enc.encode_batch_packed(&spectra);
        // Same content arriving one spectrum at a time into a recycled
        // pack through one reused accumulator, as the pipeline's ingest
        // does.
        let mut pack = HvPack::new(enc.dim());
        let mut acc = MajorityAccumulator::new(enc.dim());
        for peaks in &spectra {
            enc.encode_into_pack(peaks, &mut acc, &mut pack);
        }
        assert_eq!(pack, batch);
        // Reuse after clear stays bit-exact.
        pack.clear();
        for peaks in &spectra {
            enc.encode_into_pack(peaks, &mut acc, &mut pack);
        }
        assert_eq!(pack, batch);
    }

    #[test]
    #[should_panic(expected = "pack dimensionality mismatch")]
    fn encode_into_pack_rejects_wrong_dim() {
        let enc = test_encoder();
        let mut pack = HvPack::new(64);
        let mut acc = MajorityAccumulator::new(2048);
        enc.encode_into_pack(&[(300.0, 1.0)], &mut acc, &mut pack);
    }

    #[test]
    fn intensity_changes_move_code_less_than_mz_changes() {
        // The correlated level memory makes small intensity shifts cheap,
        // while crossing into another m/z bin swaps an entire random ID.
        let enc = test_encoder();
        let base = vec![(500.0, 0.5); 1];
        let intensity_shift = vec![(500.0, 0.55); 1];
        let mz_shift = vec![(700.0, 0.5); 1];
        let h = enc.encode(&base);
        let d_int = h.hamming(&enc.encode(&intensity_shift));
        let d_mz = h.hamming(&enc.encode(&mz_shift));
        assert!(
            d_int < d_mz,
            "intensity jitter ({d_int}) must cost less than mz jump ({d_mz})"
        );
    }

    #[test]
    fn item_memory_bytes_accounts_for_both_memories() {
        let enc = test_encoder();
        let expect = (512 + 32) * 2048 / 8;
        assert_eq!(enc.item_memory_bytes(), expect);
    }

    #[test]
    fn default_config_matches_paper_dim() {
        let cfg = EncoderConfig::default();
        assert_eq!(cfg.dim, 2048);
    }
}
