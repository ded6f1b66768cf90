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
//!    Every tool runs the same loop — preprocess, bucket by precursor
//!    mass, cluster each bucket, report discarded spectra as singletons —
//!    and brings only its vectorizer and its per-bucket clustering.
//!    [`dbscan`] holds the density clustering HyperSpec-DBSCAN and falcon
//!    use, over a distance matrix or straight off a packed store.
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
pub mod dbscan;
mod falcon;
mod gleams;
mod hyperspec;
mod maracluster;
mod mscrush;
pub mod perf;
mod vectorize;

pub use cascade::GreedyCascade;
pub use falcon::Falcon;
pub use gleams::Gleams;
pub use hyperspec::{HyperSpecDbscan, HyperSpecHac};
pub use maracluster::MaRaCluster;
pub use mscrush::MsCrush;

use spechd_cluster::ClusterAssignment;
use spechd_ms::SpectrumDataset;
use spechd_preprocess::{PrecursorBucketer, PreprocessConfig, PreprocessPipeline};

/// A spectral clustering tool: takes a raw dataset, returns a flat
/// assignment over **all** input spectra (tools that discard low-quality
/// spectra must report them as singletons).
pub trait ClusteringTool {
    /// Tool name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Clusters the dataset.
    fn cluster(&self, dataset: &SpectrumDataset) -> ClusterAssignment;
}

/// The loop every tool shares: preprocess, `prepare` the kept spectra
/// once, then cluster each precursor bucket of two or more with `cluster`,
/// which gets the bucket's indices into the kept spectra and returns the
/// bucket's assignment, member by member. Each bucket's labels get their
/// own range, a bucket of one is a singleton, and so is every spectrum
/// preprocessing discarded.
fn cluster_by_bucket<T>(
    dataset: &SpectrumDataset,
    resolution: f64,
    prepare: impl FnOnce(&SpectrumDataset) -> T,
    cluster: impl Fn(&T, &[usize]) -> ClusterAssignment,
) -> ClusterAssignment {
    let pre = PreprocessPipeline::new(PreprocessConfig::default()).run(dataset);
    let prepared = prepare(&pre.dataset);
    let mut raw = vec![usize::MAX; dataset.len()];
    let mut next = 0usize;
    for bucket in PrecursorBucketer::new(resolution).bucketize(pre.dataset.spectra()) {
        if bucket.len() == 1 {
            raw[pre.kept[bucket.members[0]]] = next;
            next += 1;
            continue;
        }
        let assignment = cluster(&prepared, &bucket.members);
        for (&member, &label) in bucket.members.iter().zip(assignment.labels()) {
            raw[pre.kept[member]] = next + label;
        }
        next += assignment.num_clusters();
    }
    for slot in raw.iter_mut().filter(|slot| **slot == usize::MAX) {
        *slot = next;
        next += 1;
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

    fn every_tool() -> Vec<Box<dyn ClusteringTool>> {
        vec![
            Box::new(HyperSpecHac::default()),
            Box::new(HyperSpecDbscan::default()),
            Box::new(Falcon::default()),
            Box::new(MsCrush::default()),
            Box::new(MaRaCluster::default()),
            Box::new(Gleams::default()),
            Box::new(GreedyCascade::spectra_cluster()),
            Box::new(GreedyCascade::mscluster()),
        ]
    }

    #[test]
    fn every_tool_covers_all_spectra() {
        let ds = dataset();
        for tool in &every_tool() {
            let a = tool.cluster(&ds);
            assert_eq!(a.len(), ds.len(), "{}", tool.name());
            assert!(!tool.name().is_empty());
        }
    }

    /// FNV-1a-64 over each label as eight little-endian bytes.
    fn label_digest(labels: &[usize]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in labels.iter().flat_map(|&l| (l as u64).to_le_bytes()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// Labels of every tool on [`dataset`], recorded before the tools
    /// shared one bucket loop: the loop may move, the labels may not.
    #[test]
    fn every_tool_keeps_its_pinned_labels() {
        let ds = dataset();
        let digests: Vec<(&str, u64)> = every_tool()
            .iter()
            .map(|tool| (tool.name(), label_digest(tool.cluster(&ds).labels())))
            .collect();
        assert_eq!(
            digests,
            [
                ("HyperSpec-HAC", 0xd405_64dd_0e85_a872),
                ("HyperSpec-DBSCAN", 0x6d2d_eec2_2090_5cc2),
                ("Falcon", 0xe5d8_e7ca_8967_0b91),
                ("msCRUSH", 0x5c55_c52a_64b8_2528),
                ("MaRaCluster", 0x0154_4970_ddde_055f),
                ("GLEAMS", 0x8d7e_50ec_8da9_e5e1),
                ("spectra-cluster", 0x0305_d6cc_948f_60cd),
                ("MSCluster", 0x97a0_5874_7149_d253),
            ]
        );
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
    fn cluster_by_bucket_makes_discarded_spectra_singletons() {
        use spechd_ms::{Peak, Precursor, Spectrum};
        // Even positions are dense and kept (0 and 2 share a precursor
        // bucket, 4 has its own); odd positions are too sparse to keep.
        let mut ds = SpectrumDataset::new();
        for (i, precursor_mz) in [600.0, 600.0, 600.0, 900.0, 900.0, 900.0]
            .into_iter()
            .enumerate()
        {
            let peaks: Vec<Peak> = (0..if i % 2 == 0 { 30 } else { 2 })
                .map(|p| Peak::new(250.0 + 10.0 * p as f64, 10.0))
                .collect();
            let precursor = Precursor::new(precursor_mz, 2).unwrap();
            ds.push(
                Spectrum::new(format!("s{i}"), precursor, peaks).unwrap(),
                None,
            );
        }
        // Each bucket is one cluster.
        let full = cluster_by_bucket(
            &ds,
            1.0,
            |_| (),
            |_, members| ClusterAssignment::from_raw_labels(&vec![0; members.len()]),
        );
        assert_eq!(full.len(), 6);
        // 0 and 2 share a cluster; 4 is its own; 1, 3, 5 are singletons.
        assert_eq!(full.labels()[0], full.labels()[2]);
        assert_ne!(full.labels()[0], full.labels()[4]);
        assert_eq!(full.num_clusters(), 5);
    }
}
