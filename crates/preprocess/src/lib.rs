//! SpecHD preprocessing module (§III-A of the paper).
//!
//! "Certain modules like the Spectra Filter, Top-k Selector, and Scale and
//! Normalization emerge as standard features in MS preprocessing." This
//! crate implements all of them plus the precursor-m/z bucketing of Eq. (1),
//! bit-exactly matching what the near-storage MSAS accelerator computes in
//! hardware (the cycle/energy cost of that hardware lives in `spechd-fpga`).
//!
//! * [`SpectraFilter`] — removes precursor-related peaks and peaks below
//!   1% of the base peak.
//! * [`topk`] — top-k peak selection via a bitonic sorting network (the
//!   hardware algorithm).
//! * [`normalize`] — square-root intensity scaling and unit normalization.
//! * [`PrecursorBucketer`] — Eq. (1): `bucket = ⌊(mz − 1.00794)·C / res⌋`.
//! * [`PreprocessPipeline`] — the composed per-spectrum pipeline with
//!   dataset-level statistics.
//!
//! # Example
//!
//! ```
//! use spechd_preprocess::{PreprocessConfig, PreprocessPipeline};
//! use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};
//!
//! let ds = SyntheticGenerator::new(SyntheticConfig {
//!     num_spectra: 50, num_peptides: 10, seed: 3, ..SyntheticConfig::default()
//! }).generate();
//! let pipeline = PreprocessPipeline::new(PreprocessConfig::default());
//! let result = pipeline.run(&ds);
//! assert!(result.dataset.len() <= 50);
//! assert!(result.stats.peaks_removed > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bucket;
mod filter;
pub mod normalize;
mod pipeline;
pub mod topk;

pub use bucket::{bucket_stats, bucket_stats_from_sizes, Bucket, BucketStats, PrecursorBucketer};
pub use filter::SpectraFilter;
pub use pipeline::{PreprocessConfig, PreprocessPipeline, PreprocessResult, PreprocessStats};
