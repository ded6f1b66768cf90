//! # SpecHD — hyperdimensional mass-spectrometry clustering
//!
//! Reproduction of *"SpecHD: Hyperdimensional Computing Framework for
//! FPGA-based Mass Spectrometry Clustering"* (DATE 2024). This crate is
//! the paper's primary contribution: the end-to-end pipeline
//!
//! ```text
//! spectra ──preprocess──▶ buckets ──ID-Level encode──▶ hypervectors
//!         ──pairwise Hamming──▶ NN-chain HAC ──cut──▶ clusters ──▶ medoids
//! ```
//!
//! One shard ingest (module [`stream`]) runs that dataflow for every
//! entry point: each spectrum is preprocessed on arrival, routed to its
//! precursor bucket's shard and encoded straight into the shard's packed
//! rows, and [`spechd_hdc::fan_out`] clusters each shard once it closes —
//! on scoped workers that start as shards close, or on the caller at one
//! worker.
//! [`SpecHd::run`] feeds it a dataset's spectra, [`SpecHd::run_streaming`]
//! a [`spechd_ms::stream::SpectrumStream`] — with bit-identical results —
//! and the incremental [`SpecHd::run_incremental`] (module
//! [`incremental`]) folds its shards into a persistent [`ClusterStore`]
//! across sessions, reclustering only the precursor buckets that actually
//! changed while keeping prior labels stable.
//!
//! Fallible entry points ([`SpecHd::try_new`],
//! [`SpecHdConfigBuilder::try_build`], [`SpecHd::run_incremental`],
//! [`ClusterStore::load`]) report typed errors under the [`SpecHdError`]
//! umbrella; the panicking constructors remain as thin shims for scripts.
//!
//! The functional pipeline runs bit-exactly on the host (results are real,
//! not simulated); the FPGA *performance* of the same dataflow is modelled
//! by [`spechd_fpga`], reachable through [`SpecHd::estimate_fpga_timeline`].
//!
//! ## Quickstart
//!
//! ```
//! use spechd_core::{SpecHd, SpecHdConfig};
//! use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};
//!
//! // A small labelled synthetic run.
//! let dataset = SyntheticGenerator::new(SyntheticConfig {
//!     num_spectra: 300, num_peptides: 60, seed: 7, ..SyntheticConfig::default()
//! }).generate();
//!
//! let spechd = SpecHd::new(SpecHdConfig::default());
//! let outcome = spechd.run(&dataset);
//! let eval = outcome.evaluate(&dataset);
//! assert!(eval.clustered_ratio > 0.1);
//! assert!(eval.incorrect_ratio < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compression;
mod config;
mod error;
pub mod incremental;
mod pipeline;
mod result;
pub mod stream;

pub use compression::CompressionReport;
pub use config::{ConfigError, SpecHdConfig, SpecHdConfigBuilder};
pub use error::SpecHdError;
pub use incremental::{IncrementalOutcome, IncrementalStats};
pub use pipeline::SpecHd;
pub use result::{RunStats, SpecHdOutcome};
pub use stream::{ShardAssignment, StreamConfig, StreamOutcome, StreamStats};

// Re-export the workspace components a downstream user needs alongside the
// pipeline, so `spechd-core` works as a single entry point.
pub use spechd_cluster::{ClusterAssignment, Linkage};
pub use spechd_hdc::{BinaryHypervector, EncoderConfig};
pub use spechd_metrics::ClusteringEval;
pub use spechd_preprocess::PreprocessConfig;
pub use spechd_store::{ClusterStore, RefreshReport, StoreError};
