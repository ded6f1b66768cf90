//! The SpecHD pipeline.

use crate::{CompressionReport, RunStats, SpecHdConfig, SpecHdOutcome};
use spechd_cluster::{
    medoid, nn_chain, ClusterAssignment, CondensedMatrix, HacStats, ShardLabelMerger,
};
use spechd_fpga::{SystemConfig, SystemModel, Timeline, WorkloadShape};
use spechd_hdc::distance::PackedDistanceEngine;
use spechd_hdc::{HvPack, IdLevelEncoder, MajorityAccumulator};
use spechd_ms::SpectrumDataset;
use spechd_preprocess::{bucket_stats, PrecursorBucketer, PreprocessPipeline};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The SpecHD clustering engine (Fig. 3's dataflow, executed on the host).
///
/// Construction allocates the encoder item memories once; [`SpecHd::run`]
/// can then be applied to any number of datasets — which is precisely the
/// paper's "one-time preprocessing and subsequent updates" usage model
/// (§IV-B): hypervectors are deterministic for a fixed config, so encoded
/// archives remain valid across re-clustering runs.
#[derive(Debug)]
pub struct SpecHd {
    pub(crate) config: SpecHdConfig,
    pub(crate) encoder: IdLevelEncoder,
    pub(crate) preprocess: PreprocessPipeline,
    pub(crate) bucketer: PrecursorBucketer,
}

impl SpecHd {
    /// Builds the engine, reporting an invalid configuration as a typed
    /// [`crate::ConfigError`] instead of panicking.
    pub fn try_new(config: SpecHdConfig) -> Result<Self, crate::ConfigError> {
        config.try_validate()?;
        // The stage constructors below assert the same invariants
        // `try_validate` just proved, so they cannot panic from here.
        let encoder = IdLevelEncoder::new(config.encoder);
        let preprocess = PreprocessPipeline::new(config.preprocess);
        let bucketer = PrecursorBucketer::new(config.resolution);
        Ok(Self {
            config,
            encoder,
            preprocess,
            bucketer,
        })
    }

    /// Builds the engine; the panicking shim over [`SpecHd::try_new`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: SpecHdConfig) -> Self {
        match Self::try_new(config) {
            Ok(engine) => engine,
            Err(e) => panic!("{e}"),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SpecHdConfig {
        &self.config
    }

    /// The (deterministic) encoder, exposed for pre-encoding workflows.
    pub fn encoder(&self) -> &IdLevelEncoder {
        &self.encoder
    }

    /// The preprocessing pipeline, exposed for per-spectrum (streaming)
    /// workflows.
    pub fn preprocess(&self) -> &PreprocessPipeline {
        &self.preprocess
    }

    /// The Eq. (1) precursor bucketer.
    pub fn bucketer(&self) -> &PrecursorBucketer {
        &self.bucketer
    }

    /// Runs the full pipeline: preprocess → bucket → encode → NN-chain →
    /// consensus.
    pub fn run(&self, dataset: &SpectrumDataset) -> SpecHdOutcome {
        let start = std::time::Instant::now();
        let pre = self.preprocess.run(dataset);
        let preprocess_s = start.elapsed().as_secs_f64();

        let t_encode = std::time::Instant::now();
        let pack = self.encode_dataset_packed(&pre.dataset);
        let encode_s = t_encode.elapsed().as_secs_f64();

        let t_cluster = std::time::Instant::now();
        let buckets = self.bucketer.bucketize(pre.dataset.spectra());
        let bstats = bucket_stats(&buckets);
        let (assignment, consensus_local, hac) = self.cluster_encoded_packed(&buckets, &pack);
        let cluster_s = t_cluster.elapsed().as_secs_f64();

        // Consensus indices in the ORIGINAL dataset's index space.
        let consensus: Vec<usize> = consensus_local.iter().map(|&i| pre.kept[i]).collect();
        let compression =
            CompressionReport::new(dataset.approx_bytes(), pack.len(), self.config.encoder.dim);

        SpecHdOutcome::new(
            assignment,
            pre.kept,
            consensus,
            pack,
            RunStats {
                preprocess: pre.stats,
                buckets: bstats,
                hac,
                preprocess_s,
                encode_s,
                cluster_s,
                total_s: start.elapsed().as_secs_f64(),
            },
            compression,
        )
    }

    /// Encodes every spectrum of a (preprocessed) dataset straight into a
    /// contiguous [`HvPack`] — the standalone encoding stage, and the
    /// allocation-free batch path the pipeline and the packed distance
    /// kernels run on.
    pub fn encode_dataset_packed(&self, dataset: &SpectrumDataset) -> HvPack {
        let dim = self.encoder.dim();
        let mut pack = HvPack::with_capacity(dim, dataset.len());
        let mut acc = MajorityAccumulator::new(dim);
        let mut peaks = Vec::new();
        for spectrum in dataset.spectra() {
            spectrum.relative_peaks_into(&mut peaks);
            self.encoder.encode_into_pack(&peaks, &mut acc, &mut pack);
        }
        pack
    }

    /// Clusters pre-encoded hypervectors whose bucket memberships are
    /// already known — the paper's standalone-clustering scenario (Fig. 8:
    /// "concentrating exclusively on standalone clustering of pre-encoded
    /// vectors").
    ///
    /// Returns the flat assignment over the pack's rows, the medoid row
    /// per cluster, and aggregate HAC work counters.
    pub fn cluster_encoded_packed(
        &self,
        buckets: &[spechd_preprocess::Bucket],
        pack: &HvPack,
    ) -> (ClusterAssignment, Vec<usize>, HacStats) {
        let threshold = self.config.distance_threshold_bits();
        let linkage = self.config.linkage;

        // Per-bucket results, merged in bucket order for determinism.
        struct BucketOutcome {
            bucket_idx: usize,
            clustering: ShardClustering,
        }

        let worker_count = PackedDistanceEngine::new()
            .threads(self.config.threads)
            .resolved_threads()
            .min(buckets.len().max(1));

        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<BucketOutcome>> = Mutex::new(Vec::with_capacity(buckets.len()));

        std::thread::scope(|scope| {
            for _ in 0..worker_count {
                scope.spawn(|| loop {
                    let bucket_idx = next.fetch_add(1, Ordering::Relaxed);
                    if bucket_idx >= buckets.len() {
                        break;
                    }
                    let bucket = &buckets[bucket_idx];
                    // Gather the bucket's rows into a contiguous sub-pack;
                    // the streaming path gets this for free because each
                    // shard encodes straight into its own pack.
                    let sub = pack.gather(&bucket.members);
                    let clustering = cluster_shard(&bucket.members, &sub, linkage, threshold);
                    results
                        .lock()
                        .expect("no panics hold the lock")
                        .push(BucketOutcome {
                            bucket_idx,
                            clustering,
                        });
                });
            }
        });

        let mut per_bucket = results.into_inner().expect("threads joined");
        per_bucket.sort_by_key(|r| r.bucket_idx);

        let total: usize = buckets.iter().map(|b| b.len()).sum();
        let mut merger = ShardLabelMerger::new(total);
        for outcome in per_bucket {
            let bucket = &buckets[outcome.bucket_idx];
            merger.add_shard(
                &bucket.members,
                &outcome.clustering.labels,
                &outcome.clustering.medoids,
                &outcome.clustering.stats,
            );
        }
        merger.finish()
    }

    /// Predicts the FPGA timeline for running this configuration on a
    /// workload of the given shape (see [`spechd_fpga::SystemModel`]).
    pub fn estimate_fpga_timeline(&self, shape: &WorkloadShape) -> Timeline {
        let cfg = SystemConfig {
            num_cluster_kernels: self.config.threads.max(1),
            ..SystemConfig::default()
        };
        SystemModel::new(cfg).end_to_end(shape)
    }
}

/// One shard's (= one precursor bucket's) clustering, in the form
/// [`ShardLabelMerger::add_shard`] consumes.
pub(crate) struct ShardClustering {
    /// Local cluster label per member, parallel to the shard's members.
    pub labels: Vec<usize>,
    /// Global hv-index of the medoid of each local cluster.
    pub medoids: Vec<usize>,
    /// HAC work counters.
    pub stats: HacStats,
}

/// Clusters one shard whose rows are already contiguous: tiled distance
/// kernel → NN-chain → threshold cut → per-cluster medoid. `members` maps
/// shard-local row `i` to its global hv index; `sub` holds exactly those
/// rows in the same order. Shared by the batch pipeline (which gathers the
/// sub-pack per bucket) and the streaming pipeline (whose shards encode
/// straight into their own packs) — one implementation, so the two modes
/// cannot drift apart.
pub(crate) fn cluster_shard(
    members: &[usize],
    sub: &HvPack,
    linkage: spechd_cluster::Linkage,
    threshold: f64,
) -> ShardClustering {
    let n = members.len();
    debug_assert_eq!(sub.len(), n, "sub-pack rows must parallel members");
    if n == 1 {
        return ShardClustering {
            labels: vec![0],
            medoids: vec![members[0]],
            stats: HacStats::default(),
        };
    }
    // The tiled kernel runs single-threaded — shards already run in
    // parallel across the bucket/shard worker pool.
    let condensed_u16 = PackedDistanceEngine::new()
        .threads(1)
        .pairwise_condensed(sub);
    // 16-bit lower-triangular matrix, exactly as the FPGA stores it: the
    // kernel's buffer itself, which NN-chain and the medoids read as is.
    let matrix = CondensedMatrix::from_condensed_u16(n, condensed_u16);
    let result = nn_chain(&matrix, linkage);
    let cut = result.dendrogram.cut(threshold);
    let medoids: Vec<usize> = cut
        .clusters()
        .iter()
        .map(|cluster| members[medoid(&matrix, cluster)])
        .collect();
    ShardClustering {
        labels: cut.labels().to_vec(),
        medoids,
        stats: result.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};

    fn dataset(n: usize, seed: u64) -> SpectrumDataset {
        SyntheticGenerator::new(SyntheticConfig {
            num_spectra: n,
            num_peptides: n / 5,
            seed,
            ..SyntheticConfig::default()
        })
        .generate()
    }

    #[test]
    fn run_produces_consistent_outcome() {
        let ds = dataset(300, 1);
        let outcome = SpecHd::new(SpecHdConfig::default()).run(&ds);
        assert_eq!(outcome.assignment().len(), outcome.kept().len());
        assert_eq!(
            outcome.consensus().len(),
            outcome.assignment().num_clusters()
        );
        // Consensus indices refer to the original dataset.
        for &c in outcome.consensus() {
            assert!(c < ds.len());
        }
        assert!(outcome.stats().total_s > 0.0);
    }

    #[test]
    fn deterministic_across_runs_and_thread_counts() {
        let ds = dataset(250, 2);
        let a = SpecHd::new(SpecHdConfig::default()).run(&ds);
        let b = SpecHd::new(SpecHdConfig::default()).run(&ds);
        assert_eq!(a.assignment(), b.assignment());
        assert_eq!(a.consensus(), b.consensus());
        let cfg = SpecHdConfig {
            threads: 1,
            ..SpecHdConfig::default()
        };
        let c = SpecHd::new(cfg).run(&ds);
        assert_eq!(a.assignment(), c.assignment());
        assert_eq!(a.consensus(), c.consensus());
    }

    #[test]
    fn quality_is_sane_on_synthetic_data() {
        let ds = dataset(600, 3);
        let outcome = SpecHd::new(SpecHdConfig::default()).run(&ds);
        let eval = outcome.evaluate(&ds);
        assert!(
            eval.clustered_ratio > 0.15,
            "clustered {:.3}",
            eval.clustered_ratio
        );
        assert!(
            eval.incorrect_ratio < 0.08,
            "icr {:.3}",
            eval.incorrect_ratio
        );
        assert!(
            eval.completeness > 0.5,
            "completeness {:.3}",
            eval.completeness
        );
    }

    #[test]
    fn tighter_threshold_clusters_less() {
        let ds = dataset(300, 4);
        let loose = SpecHd::new(
            SpecHdConfig::builder()
                .distance_threshold_fraction(0.4)
                .build(),
        )
        .run(&ds);
        let tight = SpecHd::new(
            SpecHdConfig::builder()
                .distance_threshold_fraction(0.1)
                .build(),
        )
        .run(&ds);
        assert!(tight.assignment().clustered_ratio() <= loose.assignment().clustered_ratio());
    }

    #[test]
    fn members_of_one_cluster_share_bucket() {
        // Bucketed clustering can never join spectra from different
        // precursor-mass buckets.
        let ds = dataset(300, 5);
        let engine = SpecHd::new(SpecHdConfig::default());
        let outcome = engine.run(&ds);
        let pre = PreprocessPipeline::new(engine.config().preprocess).run(&ds);
        let bucketer = PrecursorBucketer::new(engine.config().resolution);
        for cluster in outcome.assignment().clusters() {
            let keys: std::collections::HashSet<i64> = cluster
                .iter()
                .map(|&i| bucketer.bucket_of(&pre.dataset.spectra()[i]))
                .collect();
            assert_eq!(keys.len(), 1, "cluster spans buckets");
        }
    }

    #[test]
    fn packed_staging_matches_run() {
        let ds = dataset(200, 6);
        let engine = SpecHd::new(SpecHdConfig::default());
        let full = engine.run(&ds);
        let pre = PreprocessPipeline::new(engine.config().preprocess).run(&ds);
        let pack = engine.encode_dataset_packed(&pre.dataset);
        assert_eq!(&pack, full.hypervectors());
        let buckets =
            PrecursorBucketer::new(engine.config().resolution).bucketize(pre.dataset.spectra());
        let (assignment, _, _) = engine.cluster_encoded_packed(&buckets, &pack);
        assert_eq!(assignment, *full.assignment());
    }

    #[test]
    fn fpga_estimate_smoke() {
        let engine = SpecHd::new(SpecHdConfig::default());
        let t = engine.estimate_fpga_timeline(&WorkloadShape::pxd001468());
        assert!(t.total_s > 0.0 && t.total_s < 100.0);
    }
}
