//! The ID-Level spectrum encoder (Eq. 2 of the SpecHD paper).

use crate::item_memory::{id_memory, level_memory};
use crate::{BinaryHypervector, HvPack, MajorityAccumulator};

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
/// `f` splits `mz_range` into `mz_bins` equal-width bins (values outside
/// clamp to the first/last bin, like the saturating HLS kernel); `g` takes
/// the square root of the relative intensity (clamped to `[0, 1]`) onto
/// `intensity_levels` equal steps, so medium peaks spread over the levels
/// instead of saturating on the base peak. `ID` is one i.i.d. random row
/// per bin; `L` is a thermometer of rows where adjacent levels differ in
/// `D / (2(q-1))` bits and the extremes in `D/2`. Both memories are
/// read-only [`HvPack`] slabs, the arrays the paper partitions across
/// on-chip RAM.
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
    /// `ID[0, f]`, one row per m/z bin.
    id_memory: HvPack,
    /// `L[0, q]`, one row per intensity level.
    level_memory: HvPack,
}

impl IdLevelEncoder {
    /// Builds the encoder, allocating both item memories.
    ///
    /// # Panics
    ///
    /// Panics if any config field is degenerate (zero dim/bins, fewer than
    /// two levels, or an empty or non-finite m/z range).
    pub fn new(config: EncoderConfig) -> Self {
        let (lo, hi) = config.mz_range;
        assert!(config.mz_bins > 0, "mz quantizer needs at least one bin");
        assert!(
            config.intensity_levels >= 2,
            "intensity quantizer needs at least two levels"
        );
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "mz range must be a non-empty finite interval"
        );
        Self {
            id_memory: id_memory(config.mz_bins, config.dim, config.seed),
            level_memory: level_memory(
                config.intensity_levels,
                config.dim,
                config.seed.wrapping_add(1),
            ),
            config,
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
    /// [`MajorityAccumulator::add_bound`] of the two memory rows: the XOR
    /// bind happens inside the accumulator's word-parallel adder chain, so
    /// no bound vector is allocated and no lane is visited one bit at a
    /// time.
    fn accumulate(&self, peaks: &[(f64, f64)], acc: &mut MajorityAccumulator) {
        let EncoderConfig {
            mz_bins,
            intensity_levels,
            mz_range,
            ..
        } = self.config;
        acc.clear();
        for &(mz, intensity) in peaks {
            acc.add_bound(
                self.id_memory.row(mz_bin(mz, mz_bins, mz_range)),
                self.level_memory
                    .row(intensity_level(intensity, intensity_levels)),
            );
        }
    }
}

/// The m/z bin `f(mz)`: `bins` equal-width bins over `[range.0, range.1)`;
/// values below the range (and NaN or infinities) map to bin 0, values
/// above it to the last bin.
fn mz_bin(mz: f64, bins: usize, range: (f64, f64)) -> usize {
    let (lo, hi) = range;
    if !mz.is_finite() || mz <= lo {
        return 0;
    }
    let idx = ((mz - lo) / ((hi - lo) / bins as f64)) as usize;
    idx.min(bins - 1)
}

/// The intensity level `g(rel)`: `√rel` on `levels` equal steps, with
/// `rel` clamped to `[0, 1]` first (NaN maps to level 0).
fn intensity_level(rel: f64, levels: usize) -> usize {
    let idx = (rel.clamp(0.0, 1.0).sqrt() * levels as f64) as usize;
    idx.min(levels - 1)
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
        let id = enc
            .id_memory
            .hypervector(mz_bin(300.0, 512, (200.0, 2000.0)));
        let level = enc.level_memory.hypervector(intensity_level(1.0, 32));
        assert_eq!(hv, &id ^ &level);
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
        // Same content arriving one spectrum at a time into one pack
        // through one reused accumulator, as the pipeline's ingest does.
        let mut pack = HvPack::new(enc.dim());
        let mut acc = MajorityAccumulator::new(enc.dim());
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

    #[test]
    fn mz_quantizer_monotone() {
        let mut prev = 0;
        let mut mz = 100.0;
        while mz < 2000.0 {
            let b = mz_bin(mz, 64, (100.0, 2000.0));
            assert!(b >= prev, "quantizer must be monotone");
            prev = b;
            mz += 13.7;
        }
    }

    #[test]
    fn mz_quantizer_clamps() {
        let range = (0.0, 10.0);
        assert_eq!(mz_bin(-5.0, 10, range), 0);
        assert_eq!(mz_bin(999.0, 10, range), 9);
        assert_eq!(mz_bin(f64::NAN, 10, range), 0);
    }

    #[test]
    fn mz_quantizer_covers_all_bins() {
        let bins: Vec<usize> = [0.1, 1.1, 2.1, 3.1, 4.1]
            .iter()
            .map(|&x| mz_bin(x, 5, (0.0, 5.0)))
            .collect();
        assert_eq!(bins, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn intensity_quantizer_bounds() {
        assert_eq!(intensity_level(0.0, 16), 0);
        assert_eq!(intensity_level(1.0, 16), 15);
        assert_eq!(intensity_level(2.0, 16), 15, "clamps above 1");
        assert_eq!(intensity_level(-1.0, 16), 0, "clamps below 0");
        assert_eq!(intensity_level(f64::NAN, 16), 0);
    }

    #[test]
    fn intensity_quantizer_monotone() {
        let mut prev = 0;
        for i in 0..=100 {
            let level = intensity_level(i as f64 / 100.0, 32);
            assert!(level >= prev);
            prev = level;
        }
    }

    #[test]
    fn sqrt_scale_boosts_small_intensities() {
        // sqrt(0.09) = 0.3: a markedly higher level than 0.09 would get on
        // a linear scale.
        assert_eq!(intensity_level(0.09, 32), 9);
        assert!(intensity_level(0.09, 32) > (0.09 * 32.0) as usize);
    }

    fn degenerate(edit: impl FnOnce(&mut EncoderConfig)) -> IdLevelEncoder {
        let mut config = EncoderConfig {
            dim: 64,
            ..EncoderConfig::default()
        };
        edit(&mut config);
        IdLevelEncoder::new(config)
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn mz_zero_bins_panics() {
        degenerate(|c| c.mz_bins = 0);
    }

    #[test]
    #[should_panic(expected = "at least two levels")]
    fn intensity_one_level_panics() {
        degenerate(|c| c.intensity_levels = 1);
    }

    #[test]
    #[should_panic(expected = "non-empty finite interval")]
    fn mz_empty_range_panics() {
        degenerate(|c| c.mz_range = (5.0, 5.0));
    }
}
