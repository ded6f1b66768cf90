//! # SpecHD — the full stack, one crate.
//!
//! Umbrella crate for the SpecHD reproduction (DATE 2024). It re-exports
//! every workspace layer under a stable module name and lifts the handful
//! of types a quickstart needs to the root, so downstream code can depend
//! on `spechd` alone:
//!
//! | Module | Crate | Layer |
//! |---|---|---|
//! | [`rng`] | `spechd-rng` | deterministic randomness |
//! | [`ms`] | `spechd-ms` | spectra, MGF/MS2 formats, synthetic data |
//! | [`preprocess`] | `spechd-preprocess` | filtering, top-k, bucketing |
//! | [`hdc`] | `spechd-hdc` | binary hypervector core |
//! | [`cluster`] | `spechd-cluster` | NN-chain HAC, medoids |
//! | [`metrics`] | `spechd-metrics` | clustering quality measures |
//! | [`fpga`] | `spechd-fpga` | FPGA / near-storage system model |
//! | [`search`] | `spechd-search` | database search + FDR |
//! | [`baselines`] | `spechd-baselines` | comparator tools, DBSCAN |
//! | [`store`] | `spechd-store` | persistent versioned cluster store |
//! | [`core`] | `spechd-core` | the end-to-end pipeline |
//!
//! # Quickstart
//!
//! ```
//! use spechd::ms::synth::{SyntheticConfig, SyntheticGenerator};
//! use spechd::{SpecHd, SpecHdConfig};
//!
//! let dataset = SyntheticGenerator::new(SyntheticConfig {
//!     num_spectra: 300,
//!     num_peptides: 60,
//!     seed: 7,
//!     ..SyntheticConfig::default()
//! })
//! .generate();
//!
//! let outcome = SpecHd::new(SpecHdConfig::default()).run(&dataset);
//! let eval = outcome.evaluate(&dataset);
//! assert!(eval.clustered_ratio > 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use spechd_baselines as baselines;
pub use spechd_cluster as cluster;
pub use spechd_core as core;
pub use spechd_fpga as fpga;
pub use spechd_hdc as hdc;
pub use spechd_metrics as metrics;
pub use spechd_ms as ms;
pub use spechd_preprocess as preprocess;
pub use spechd_rng as rng;
pub use spechd_search as search;
pub use spechd_store as store;

pub use spechd_core::{
    ClusterStore, ConfigError, SpecHd, SpecHdConfig, SpecHdConfigBuilder, SpecHdError,
    SpecHdOutcome, StoreError, StreamConfig, StreamOutcome,
};
