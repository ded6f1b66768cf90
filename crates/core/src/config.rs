//! Pipeline configuration.

use spechd_cluster::Linkage;
use spechd_hdc::EncoderConfig;
use spechd_preprocess::PreprocessConfig;

/// A degenerate [`SpecHdConfig`] setting, reported by
/// [`SpecHd::try_new`](crate::SpecHd::try_new) /
/// [`SpecHdConfigBuilder::try_build`].
///
/// Every variant corresponds to a setting that some stage downstream would
/// otherwise reject with a panic deep inside its constructor; validating
/// here turns all of them into one typed, recoverable error at the API
/// boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The Eq. (1) bucketing resolution is not finite and positive.
    InvalidResolution {
        /// The offending resolution.
        value: f64,
    },
    /// The cluster-cut threshold fraction lies outside `[0, 1]`.
    ThresholdOutOfRange {
        /// The offending fraction.
        value: f64,
    },
    /// The hypervector dimensionality is zero.
    ZeroDimension,
    /// The hypervector dimensionality exceeds what the `u16` distance
    /// kernels (and the 16-bit FPGA distance path they model) can hold.
    DimensionTooLarge {
        /// The offending dimensionality.
        dim: usize,
        /// The largest supported dimensionality (`u16::MAX`).
        max: usize,
    },
    /// The encoder has no m/z quantization bins.
    ZeroMzBins,
    /// The encoder has fewer than two intensity levels (the correlated
    /// level memory needs two endpoints to interpolate between).
    TooFewIntensityLevels {
        /// The offending level count.
        value: usize,
    },
    /// The encoder's m/z range is empty or non-finite.
    InvalidMzRange {
        /// The offending `(low, high)` range.
        range: (f64, f64),
    },
    /// The preprocessing top-k selector keeps zero peaks.
    ZeroTopK,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InvalidResolution { value } => {
                write!(f, "resolution must be positive (got {value})")
            }
            ConfigError::ThresholdOutOfRange { value } => {
                write!(f, "threshold fraction must be in [0, 1] (got {value})")
            }
            ConfigError::ZeroDimension => {
                write!(f, "hypervector dimensionality must be positive")
            }
            ConfigError::DimensionTooLarge { dim, max } => write!(
                f,
                "hypervector dimensionality {dim} exceeds the 16-bit distance limit {max}"
            ),
            ConfigError::ZeroMzBins => write!(f, "encoder needs at least one m/z bin"),
            ConfigError::TooFewIntensityLevels { value } => write!(
                f,
                "encoder needs at least two intensity levels (got {value})"
            ),
            ConfigError::InvalidMzRange { range } => write!(
                f,
                "encoder m/z range ({}, {}) must be finite and increasing",
                range.0, range.1
            ),
            ConfigError::ZeroTopK => write!(f, "top_k must be positive"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full SpecHD pipeline configuration.
///
/// Defaults follow the paper's deployed settings: `D = 2048`, complete
/// linkage, 1-Da bucketing resolution, top-50 peaks.
///
/// # Examples
///
/// ```
/// use spechd_core::{Linkage, SpecHdConfig};
/// let config = SpecHdConfig::builder()
///     .linkage(Linkage::Ward)
///     .distance_threshold_fraction(0.25)
///     .resolution(0.5)
///     .try_build()?;
/// assert_eq!(config.linkage, Linkage::Ward);
/// # Ok::<(), spechd_core::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpecHdConfig {
    /// HDC encoder settings (dimensionality, item memories, seed).
    pub encoder: EncoderConfig,
    /// Preprocessing settings (filter, top-k, normalization).
    pub preprocess: PreprocessConfig,
    /// Eq. (1) bucketing resolution in Dalton (paper: 0.05–1).
    pub resolution: f64,
    /// HAC linkage criterion (paper default: complete).
    pub linkage: Linkage,
    /// Cluster-cut threshold as a fraction of the hypervector
    /// dimensionality: clusters merge while the linkage distance is at
    /// most `fraction × D` Hamming bits.
    pub distance_threshold_fraction: f64,
    /// Number of worker threads for bucket-parallel clustering (models
    /// the paper's 5 parallel clustering kernels; 0 = all available).
    /// Workers start with the buckets fed to them, at most one per bucket;
    /// at 1 the calling thread clusters every bucket itself.
    pub threads: usize,
}

impl Default for SpecHdConfig {
    fn default() -> Self {
        Self {
            encoder: EncoderConfig::default(),
            preprocess: PreprocessConfig::default(),
            resolution: 1.0,
            linkage: Linkage::Complete,
            distance_threshold_fraction: 0.32,
            threads: 5,
        }
    }
}

impl SpecHdConfig {
    /// Starts a builder with default settings.
    pub fn builder() -> SpecHdConfigBuilder {
        SpecHdConfigBuilder {
            config: Self::default(),
        }
    }

    /// The absolute Hamming threshold in bits.
    pub fn distance_threshold_bits(&self) -> f64 {
        self.distance_threshold_fraction * self.encoder.dim as f64
    }

    /// Checks every invariant, returning the first violation as a typed
    /// [`ConfigError`].
    pub(crate) fn try_validate(&self) -> Result<(), ConfigError> {
        if !(self.resolution.is_finite() && self.resolution > 0.0) {
            return Err(ConfigError::InvalidResolution {
                value: self.resolution,
            });
        }
        if !(0.0..=1.0).contains(&self.distance_threshold_fraction) {
            return Err(ConfigError::ThresholdOutOfRange {
                value: self.distance_threshold_fraction,
            });
        }
        if self.encoder.dim == 0 {
            return Err(ConfigError::ZeroDimension);
        }
        if self.encoder.dim > u16::MAX as usize {
            return Err(ConfigError::DimensionTooLarge {
                dim: self.encoder.dim,
                max: u16::MAX as usize,
            });
        }
        if self.encoder.mz_bins == 0 {
            return Err(ConfigError::ZeroMzBins);
        }
        if self.encoder.intensity_levels < 2 {
            return Err(ConfigError::TooFewIntensityLevels {
                value: self.encoder.intensity_levels,
            });
        }
        let (lo, hi) = self.encoder.mz_range;
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(ConfigError::InvalidMzRange {
                range: self.encoder.mz_range,
            });
        }
        if self.preprocess.top_k == 0 {
            return Err(ConfigError::ZeroTopK);
        }
        Ok(())
    }

    /// A 64-bit FNV-1a fingerprint over every *result-affecting* setting:
    /// encoder (dimensionality, item memories, range, seed), preprocessing
    /// (filter windows, top-k, min-peaks, scaling), bucketing resolution,
    /// linkage, and cut threshold. `threads` is deliberately excluded —
    /// results are bit-identical across worker counts.
    ///
    /// Two configurations produce comparable hypervectors and identical
    /// clusterings iff their fingerprints match; the persistent
    /// [`spechd_store::ClusterStore`] records this value and refuses to
    /// mix sessions run under different settings.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a 64 over a canonical little-endian field serialization.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&(self.encoder.dim as u64).to_le_bytes());
        eat(&(self.encoder.mz_bins as u64).to_le_bytes());
        eat(&(self.encoder.intensity_levels as u64).to_le_bytes());
        eat(&self.encoder.mz_range.0.to_bits().to_le_bytes());
        eat(&self.encoder.mz_range.1.to_bits().to_le_bytes());
        eat(&self.encoder.seed.to_le_bytes());
        eat(&self
            .preprocess
            .filter
            .precursor_tolerance
            .to_bits()
            .to_le_bytes());
        eat(&self
            .preprocess
            .filter
            .min_relative_intensity
            .to_bits()
            .to_le_bytes());
        eat(&self.preprocess.filter.mz_window.0.to_bits().to_le_bytes());
        eat(&self.preprocess.filter.mz_window.1.to_bits().to_le_bytes());
        eat(&(self.preprocess.top_k as u64).to_le_bytes());
        eat(&(self.preprocess.min_peaks as u64).to_le_bytes());
        eat(&[u8::from(self.preprocess.scale)]);
        eat(&self.resolution.to_bits().to_le_bytes());
        eat(&[match self.linkage {
            Linkage::Single => 0,
            Linkage::Complete => 1,
            Linkage::Average => 2,
            Linkage::Ward => 3,
        }]);
        eat(&self.distance_threshold_fraction.to_bits().to_le_bytes());
        hash
    }
}

/// Builder for [`SpecHdConfig`] (non-consuming chain, terminal
/// [`SpecHdConfigBuilder::try_build`] or panicking
/// [`SpecHdConfigBuilder::build`]).
#[derive(Debug, Clone)]
pub struct SpecHdConfigBuilder {
    config: SpecHdConfig,
}

impl SpecHdConfigBuilder {
    /// Sets the encoder configuration.
    pub fn encoder(&mut self, encoder: EncoderConfig) -> &mut Self {
        self.config.encoder = encoder;
        self
    }

    /// Sets the preprocessing configuration.
    pub fn preprocess(&mut self, preprocess: PreprocessConfig) -> &mut Self {
        self.config.preprocess = preprocess;
        self
    }

    /// Sets the bucketing resolution in Dalton.
    pub fn resolution(&mut self, resolution: f64) -> &mut Self {
        self.config.resolution = resolution;
        self
    }

    /// Sets the linkage criterion.
    pub fn linkage(&mut self, linkage: Linkage) -> &mut Self {
        self.config.linkage = linkage;
        self
    }

    /// Sets the cut threshold as a fraction of `D`.
    pub fn distance_threshold_fraction(&mut self, fraction: f64) -> &mut Self {
        self.config.distance_threshold_fraction = fraction;
        self
    }

    /// Sets the worker thread count (0 = all available).
    pub fn threads(&mut self, threads: usize) -> &mut Self {
        self.config.threads = threads;
        self
    }

    /// Finalizes the configuration, reporting the first invalid setting
    /// as a typed [`ConfigError`].
    pub fn try_build(&self) -> Result<SpecHdConfig, ConfigError> {
        self.config.try_validate()?;
        Ok(self.config.clone())
    }

    /// Finalizes the configuration; the panicking shim over
    /// [`SpecHdConfigBuilder::try_build`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`ConfigError`]).
    pub fn build(&self) -> SpecHdConfig {
        match self.try_build() {
            Ok(config) => config,
            Err(e) => panic!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = SpecHdConfig::default();
        assert_eq!(c.encoder.dim, 2048);
        assert_eq!(c.linkage, Linkage::Complete);
        assert_eq!(c.resolution, 1.0);
        assert_eq!(c.threads, 5);
        c.try_validate().unwrap();
    }

    #[test]
    fn builder_chain() {
        let c = SpecHdConfig::builder()
            .resolution(0.5)
            .linkage(Linkage::Single)
            .distance_threshold_fraction(0.2)
            .threads(2)
            .build();
        assert_eq!(c.resolution, 0.5);
        assert_eq!(c.linkage, Linkage::Single);
        assert_eq!(c.threads, 2);
    }

    #[test]
    fn threshold_bits() {
        let c = SpecHdConfig::builder()
            .distance_threshold_fraction(0.25)
            .build();
        assert!((c.distance_threshold_bits() - 512.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "threshold fraction")]
    fn invalid_threshold_panics() {
        SpecHdConfig::builder()
            .distance_threshold_fraction(1.5)
            .build();
    }

    #[test]
    #[should_panic(expected = "resolution")]
    fn invalid_resolution_panics() {
        SpecHdConfig::builder().resolution(-1.0).build();
    }

    #[test]
    fn try_build_reports_typed_errors() {
        let err = SpecHdConfig::builder()
            .resolution(f64::NAN)
            .try_build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::InvalidResolution { .. }));
        let ok = SpecHdConfig::builder().try_build().unwrap();
        assert_eq!(ok, SpecHdConfig::default());
    }

    #[test]
    fn every_invariant_has_a_variant() {
        type Mutation = Box<dyn Fn(&mut SpecHdConfig)>;
        let cases: Vec<(Mutation, ConfigError)> = vec![
            (
                Box::new(|c| c.resolution = 0.0),
                ConfigError::InvalidResolution { value: 0.0 },
            ),
            (
                Box::new(|c| c.distance_threshold_fraction = -0.1),
                ConfigError::ThresholdOutOfRange { value: -0.1 },
            ),
            (Box::new(|c| c.encoder.dim = 0), ConfigError::ZeroDimension),
            (
                Box::new(|c| c.encoder.dim = 1 << 16),
                ConfigError::DimensionTooLarge {
                    dim: 1 << 16,
                    max: u16::MAX as usize,
                },
            ),
            (Box::new(|c| c.encoder.mz_bins = 0), ConfigError::ZeroMzBins),
            (
                Box::new(|c| c.encoder.intensity_levels = 1),
                ConfigError::TooFewIntensityLevels { value: 1 },
            ),
            (
                Box::new(|c| c.encoder.mz_range = (500.0, 500.0)),
                ConfigError::InvalidMzRange {
                    range: (500.0, 500.0),
                },
            ),
            (Box::new(|c| c.preprocess.top_k = 0), ConfigError::ZeroTopK),
        ];
        for (mutate, expected) in cases {
            let mut c = SpecHdConfig::default();
            mutate(&mut c);
            assert_eq!(c.try_validate(), Err(expected.clone()), "{expected:?}");
            // Errors render without panicking and are non-empty.
            assert!(!expected.to_string().is_empty());
        }
    }

    #[test]
    fn fingerprint_ignores_threads_but_tracks_results() {
        let base = SpecHdConfig::default();
        let mut threads = base.clone();
        threads.threads = 1;
        assert_eq!(base.fingerprint(), threads.fingerprint());

        let mut seed = base.clone();
        seed.encoder.seed ^= 1;
        assert_ne!(base.fingerprint(), seed.fingerprint());

        let mut res = base.clone();
        res.resolution = 0.5;
        assert_ne!(base.fingerprint(), res.fingerprint());

        let mut link = base.clone();
        link.linkage = Linkage::Ward;
        assert_ne!(base.fingerprint(), link.fingerprint());

        let mut thr = base.clone();
        thr.distance_threshold_fraction = 0.25;
        assert_ne!(base.fingerprint(), thr.fingerprint());

        let mut topk = base.clone();
        topk.preprocess.top_k = 40;
        assert_ne!(base.fingerprint(), topk.fingerprint());
    }
}
