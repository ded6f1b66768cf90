//! Mass spectrometry substrate for the SpecHD reproduction.
//!
//! This crate provides everything SpecHD consumes from the proteomics world:
//!
//! * A typed data model for MS/MS spectra: [`Peak`], [`Precursor`],
//!   [`Spectrum`], [`SpectrumDataset`].
//! * Peptide chemistry: [`Peptide`] with monoisotopic masses and b/y
//!   fragment-ion generation ([`fragment`]).
//! * A **synthetic dataset generator** ([`synth`]) producing labelled
//!   MS/MS runs with realistic cluster-size (Zipf), noise and jitter
//!   models — the stand-in for the PRIDE datasets the paper clusters.
//! * The five Table-I dataset profiles ([`profiles`]) at full scale for the
//!   performance models.
//! * File formats ([`formats`]): MGF and MS2 read/write.
//! * Streaming sources ([`stream`]): the [`stream::SpectrumStream`] trait
//!   with dataset, channel and lazy-synthetic adapters, feeding
//!   the sharded streaming pipeline in `spechd-core`.
//!
//! # Example
//!
//! ```
//! use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};
//!
//! let config = SyntheticConfig { num_spectra: 200, num_peptides: 40, seed: 1,
//!     ..SyntheticConfig::default() };
//! let dataset = SyntheticGenerator::new(config).generate();
//! assert_eq!(dataset.len(), 200);
//! assert!(dataset.identified_count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod error;
pub mod formats;
pub mod fragment;
mod peak;
mod peptide;
pub mod profiles;
mod spectrum;
pub mod stream;
pub mod synth;

pub use dataset::{DatasetStats, SpectrumDataset};
pub use error::MsError;
pub use peak::Peak;
pub use peptide::{Peptide, AMINO_ACIDS, PROTON_MASS, WATER_MASS};
pub use spectrum::{Precursor, Spectrum};

/// Average mass of a hydrogen atom in Dalton, as used by Eq. (1) of the
/// SpecHD paper for precursor bucketing (`1.00794`).
pub const HYDROGEN_AVG_MASS: f64 = 1.00794;
