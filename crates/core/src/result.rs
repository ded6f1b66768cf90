//! Pipeline outcome types.

use crate::CompressionReport;
use spechd_cluster::{ClusterAssignment, HacStats};
use spechd_hdc::HvPack;
use spechd_metrics::ClusteringEval;
use spechd_ms::SpectrumDataset;
use spechd_preprocess::{BucketStats, PreprocessStats};

/// Work and timing statistics of one pipeline run.
///
/// The timings mean the same for `run` and `run_streaming`. The stage
/// seconds are summed, not wall-clock: ingest's two are summed per
/// spectrum on the ingest thread, `cluster_s` per shard across the
/// workers. On one worker, where every shard is clustered on the ingest
/// thread (during ingest on a mass-sorted source, after it otherwise), the
/// three add up to at most `total_s`. With several workers, whose shards
/// cluster beside ingest and beside each other, they can add up to more.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// Preprocessing volume counters.
    pub preprocess: PreprocessStats,
    /// Bucketization statistics.
    pub buckets: BucketStats,
    /// Aggregate HAC work counters across buckets.
    pub hac: HacStats,
    /// Host seconds of ingest outside the encoder: pulling each spectrum
    /// from its source (a blocking source's wait included), preprocessing
    /// it and routing it to its shard.
    pub preprocess_s: f64,
    /// Host seconds encoding spectra into their shards' packed rows.
    pub encode_s: f64,
    /// Host seconds the workers spent clustering shards (distances +
    /// NN-chain + cut + medoids).
    pub cluster_s: f64,
    /// Wall-clock seconds of the whole run.
    pub total_s: f64,
}

/// The result of [`crate::SpecHd::run`].
#[derive(Debug, Clone)]
pub struct SpecHdOutcome {
    assignment: ClusterAssignment,
    kept: Vec<usize>,
    consensus: Vec<usize>,
    hvs: HvPack,
    stats: RunStats,
    compression: CompressionReport,
}

impl SpecHdOutcome {
    pub(crate) fn new(
        assignment: ClusterAssignment,
        kept: Vec<usize>,
        consensus: Vec<usize>,
        hvs: HvPack,
        stats: RunStats,
        compression: CompressionReport,
    ) -> Self {
        debug_assert_eq!(assignment.len(), kept.len());
        debug_assert_eq!(consensus.len(), assignment.num_clusters());
        Self {
            assignment,
            kept,
            consensus,
            hvs,
            stats,
            compression,
        }
    }

    /// Flat clusters over the *kept* (preprocessed) spectra; index `i`
    /// corresponds to original spectrum `kept()[i]`.
    pub fn assignment(&self) -> &ClusterAssignment {
        &self.assignment
    }

    /// Original dataset indices of the spectra that survived
    /// preprocessing, in output order.
    pub fn kept(&self) -> &[usize] {
        &self.kept
    }

    /// Consensus (medoid) spectrum per cluster, as an index into the
    /// *original* dataset; entry `c` represents cluster `c`.
    pub fn consensus(&self) -> &[usize] {
        &self.consensus
    }

    /// The spectrum hypervectors, row `i` encoding spectrum
    /// [`SpecHdOutcome::kept`]`[i]` — the compressed archive the paper
    /// proposes storing for later re-analysis, in the packed layout the
    /// distance kernels stream. A streaming run with
    /// [`crate::StreamConfig::keep_hypervectors`] off holds an empty pack
    /// of the encoder's dimensionality instead.
    pub fn hypervectors(&self) -> &HvPack {
        &self.hvs
    }

    /// Run statistics.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Compression accounting (Fig. 6b quantity).
    pub fn compression(&self) -> &CompressionReport {
        &self.compression
    }

    /// Expands the assignment to the full original dataset: spectra
    /// discarded by preprocessing become singletons (the convention the
    /// paper's clustered-spectra ratio uses).
    pub fn assignment_full(&self, original_len: usize) -> ClusterAssignment {
        let mut raw = vec![usize::MAX; original_len];
        for (out_idx, &orig_idx) in self.kept.iter().enumerate() {
            raw[orig_idx] = self.assignment.labels()[out_idx];
        }
        // Give each discarded spectrum a fresh singleton id.
        let mut next = self.assignment.num_clusters();
        for slot in raw.iter_mut() {
            if *slot == usize::MAX {
                *slot = next;
                next += 1;
            }
        }
        ClusterAssignment::from_raw_labels(&raw)
    }

    /// Evaluates clustering quality against the dataset's ground-truth
    /// labels (discarded spectra count as singletons).
    pub fn evaluate(&self, dataset: &SpectrumDataset) -> ClusteringEval {
        let full = self.assignment_full(dataset.len());
        ClusteringEval::compute(full.labels(), dataset.labels())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpecHd, SpecHdConfig};
    use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};

    fn outcome_and_dataset() -> (SpecHdOutcome, SpectrumDataset) {
        let ds = SyntheticGenerator::new(SyntheticConfig {
            num_spectra: 200,
            num_peptides: 40,
            seed: 9,
            ..SyntheticConfig::default()
        })
        .generate();
        let outcome = SpecHd::new(SpecHdConfig::default()).run(&ds);
        (outcome, ds)
    }

    #[test]
    fn assignment_full_covers_all_spectra() {
        let (outcome, ds) = outcome_and_dataset();
        let full = outcome.assignment_full(ds.len());
        assert_eq!(full.len(), ds.len());
        // Discarded spectra are singletons: cluster count grows by the
        // number of discarded spectra.
        let discarded = ds.len() - outcome.kept().len();
        assert_eq!(
            full.num_clusters(),
            outcome.assignment().num_clusters() + discarded
        );
    }

    #[test]
    fn full_assignment_preserves_kept_partition() {
        let (outcome, ds) = outcome_and_dataset();
        let full = outcome.assignment_full(ds.len());
        let labels = outcome.assignment().labels();
        for (i, &a) in outcome.kept().iter().enumerate() {
            for (j, &b) in outcome.kept().iter().enumerate() {
                let same_before = labels[i] == labels[j];
                let same_after = full.labels()[a] == full.labels()[b];
                assert_eq!(same_before, same_after);
            }
        }
    }

    #[test]
    fn hypervectors_parallel_to_kept() {
        let (outcome, _) = outcome_and_dataset();
        assert_eq!(outcome.hypervectors().len(), outcome.kept().len());
        assert_eq!(outcome.hypervectors().dim(), 2048);
    }

    #[test]
    fn debug_output_does_not_grow_with_the_archive() {
        let ds = SyntheticGenerator::new(SyntheticConfig {
            num_spectra: 400,
            num_peptides: 80,
            seed: 10,
            ..SyntheticConfig::default()
        })
        .generate();
        let outcome = SpecHd::new(SpecHdConfig::default()).run(&ds);
        // `kept` and the labels are ≈ 2 KiB each at this size; the archive
        // is the pack's one-line `Debug`, not a line per hypervector.
        let printed = format!("{outcome:?}");
        assert!(printed.len() < 8192, "{} bytes", printed.len());
    }

    #[test]
    fn evaluate_returns_populated_metrics() {
        let (outcome, ds) = outcome_and_dataset();
        let eval = outcome.evaluate(&ds);
        assert_eq!(eval.num_items, ds.len());
        assert!(eval.num_identified > 0);
    }

    #[test]
    fn compression_report_positive() {
        let (outcome, _) = outcome_and_dataset();
        assert!(outcome.compression().factor() > 1.0);
    }
}
