//! Analytic FPGA / near-storage system simulator for SpecHD.
//!
//! The paper runs on a Xilinx Alveo U280 plus an SSD-embedded preprocessing
//! accelerator (MSAS) reached over PCIe peer-to-peer. This crate is the
//! hardware substitution: a mechanistic
//! performance and energy model of that system, built from cycle counts ×
//! clock frequency and device power, with every calibration constant tied
//! to a number the paper itself reports ([`calib`]).
//!
//! Components:
//!
//! * [`AlveoU280`] — device description and resource budgeting.
//! * [`HbmModel`] / [`NvmeModel`] — memory and storage transfer models.
//! * [`MsasModel`] — the near-storage preprocessing accelerator
//!   (calibrated to Table I: ≈3.0 GB/s, ≈9.1 W).
//! * [`kernels`] — cycle models of the HLS kernels (ID-Level encoder,
//!   XOR/popcount distance array, NN-chain engine).
//! * [`PowerModel`] — XRT/RAPL/SMI-style power numbers.
//! * [`SystemModel`] — composes everything into the end-to-end timeline of
//!   Fig. 3 (1 encoder + 5 clustering kernels by default).
//! * [`dse`] — design space exploration over kernel counts and unrolls.
//!
//! # Example
//!
//! ```
//! use spechd_fpga::{SystemConfig, SystemModel, WorkloadShape};
//!
//! let model = SystemModel::new(SystemConfig::default());
//! let shape = WorkloadShape::pxd000561();
//! let t = model.end_to_end(&shape);
//! // The paper's headline: the 131 GB human proteome clusters in ~5 min.
//! assert!(t.total_s > 120.0 && t.total_s < 600.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
mod device;
pub mod dse;
mod energy;
mod hbm;
pub mod kernels;
mod msas;
mod nvme;
mod system;
mod workload;

pub use device::{AlveoU280, ResourceBudget};
pub use energy::PowerModel;
pub use hbm::HbmModel;
pub use msas::MsasModel;
pub use nvme::NvmeModel;
pub use system::{EnergyBreakdown, SystemConfig, SystemModel, Timeline};
pub use workload::WorkloadShape;
