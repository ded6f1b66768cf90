//! Comparator MS clustering tools (§II-B of the SpecHD paper).
//!
//! Two kinds of artifacts live here, mirroring how the paper compares:
//!
//! 1. **Quality implementations** — real Rust reimplementations of each
//!    tool's algorithmic core, all satisfying [`ClusteringTool`], run on
//!    the same labelled synthetic datasets as SpecHD to regenerate the
//!    Fig. 10 quality curves:
//!    * [`HyperSpecHac`] / [`HyperSpecDbscan`] — HDC encoding with
//!      fastcluster-style HAC or cuML-style DBSCAN (Xu et al. 2023).
//!    * [`Falcon`] — binned-vector nearest-neighbor clustering
//!      (Bittremieux et al. 2021).
//!    * [`MsCrush`] — locality-sensitive hashing + greedy merging
//!      (Wang et al. 2019).
//!    * [`MaRaCluster`] — rare-peak pairwise scores + complete-link HAC
//!      (The & Käll 2016).
//!    * [`Gleams`] — a random-projection embedding standing in for the
//!      trained DNN (Bittremieux et al. 2022), then HAC.
//!    * [`GreedyCascade`] — the spectra-cluster / MSCluster family of
//!      iterative representative-merging algorithms.
//!
//! 2. **Performance models** ([`perf`]) — analytic runtime/energy models
//!    calibrated to the numbers the paper reports for each tool (we have
//!    neither the authors' GPU nor their binaries), used for Figs 7–9.
//!
//! # Example
//!
//! ```
//! use spechd_baselines::{ClusteringTool, HyperSpecDbscan};
//! use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};
//!
//! let ds = SyntheticGenerator::new(SyntheticConfig {
//!     num_spectra: 150, num_peptides: 30, seed: 5, ..SyntheticConfig::default()
//! }).generate();
//! let tool = HyperSpecDbscan::default();
//! let assignment = tool.cluster(&ds);
//! assert_eq!(assignment.len(), ds.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cascade;
mod falcon;
mod gleams;
mod hyperspec;
mod maracluster;
mod mscrush;
pub mod perf;
pub mod vectorize;

pub use cascade::GreedyCascade;
pub use falcon::Falcon;
pub use gleams::Gleams;
pub use hyperspec::{HyperSpecDbscan, HyperSpecHac};
pub use maracluster::MaRaCluster;
pub use mscrush::MsCrush;

use spechd_cluster::ClusterAssignment;
use spechd_ms::SpectrumDataset;

/// A spectral clustering tool: takes a raw dataset, returns a flat
/// assignment over **all** input spectra (tools that discard low-quality
/// spectra must report them as singletons).
pub trait ClusteringTool {
    /// Tool name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Clusters the dataset.
    fn cluster(&self, dataset: &SpectrumDataset) -> ClusterAssignment;
}

/// Expands an assignment over a kept-subset back to the full dataset,
/// making every discarded spectrum a singleton. Shared by every tool that
/// preprocesses before clustering.
pub(crate) fn expand_to_full(
    assignment: &ClusterAssignment,
    kept: &[usize],
    full_len: usize,
) -> ClusterAssignment {
    let mut raw = vec![usize::MAX; full_len];
    for (i, &orig) in kept.iter().enumerate() {
        raw[orig] = assignment.labels()[i];
    }
    let mut next = assignment.num_clusters();
    for slot in raw.iter_mut() {
        if *slot == usize::MAX {
            *slot = next;
            next += 1;
        }
    }
    ClusterAssignment::from_raw_labels(&raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};

    fn dataset() -> SpectrumDataset {
        SyntheticGenerator::new(SyntheticConfig {
            num_spectra: 200,
            num_peptides: 40,
            seed: 17,
            ..SyntheticConfig::default()
        })
        .generate()
    }

    #[test]
    fn every_tool_covers_all_spectra() {
        let ds = dataset();
        let tools: Vec<Box<dyn ClusteringTool>> = vec![
            Box::new(HyperSpecHac::default()),
            Box::new(HyperSpecDbscan::default()),
            Box::new(Falcon::default()),
            Box::new(MsCrush::default()),
            Box::new(MaRaCluster::default()),
            Box::new(Gleams::default()),
            Box::new(GreedyCascade::spectra_cluster()),
            Box::new(GreedyCascade::mscluster()),
        ];
        for tool in &tools {
            let a = tool.cluster(&ds);
            assert_eq!(a.len(), ds.len(), "{}", tool.name());
            assert!(!tool.name().is_empty());
        }
    }

    #[test]
    fn tools_produce_meaningful_quality() {
        // Every baseline must beat random assignment on ICR at its default
        // settings — they are real algorithms, not stubs.
        let ds = dataset();
        let tools: Vec<Box<dyn ClusteringTool>> = vec![
            Box::new(HyperSpecHac::default()),
            Box::new(Falcon::default()),
            Box::new(MaRaCluster::default()),
            Box::new(Gleams::default()),
        ];
        for tool in &tools {
            let a = tool.cluster(&ds);
            let eval = spechd_metrics::ClusteringEval::compute(a.labels(), ds.labels());
            assert!(
                eval.clustered_ratio > 0.05,
                "{} clustered nothing ({:.3})",
                tool.name(),
                eval.clustered_ratio
            );
            assert!(
                eval.incorrect_ratio < 0.25,
                "{} ICR too high ({:.3})",
                tool.name(),
                eval.incorrect_ratio
            );
        }
    }

    #[test]
    fn expand_to_full_singleton_logic() {
        let a = ClusterAssignment::from_raw_labels(&[0, 0, 1]);
        let full = expand_to_full(&a, &[0, 2, 4], 6);
        assert_eq!(full.len(), 6);
        // 0 and 2 share a cluster; 4 is its own; 1, 3, 5 are singletons.
        assert_eq!(full.labels()[0], full.labels()[2]);
        assert_ne!(full.labels()[0], full.labels()[4]);
        assert_eq!(full.num_clusters(), 5);
    }
}
