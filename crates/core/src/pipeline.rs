//! The SpecHD pipeline.

use crate::stream::StreamConfig;
use crate::{SpecHdConfig, SpecHdOutcome};
use spechd_cluster::{
    cluster_shard, ClusterAssignment, HacStats, ShardClustering, ShardLabelMerger,
};
use spechd_fpga::{SystemConfig, SystemModel, Timeline, WorkloadShape};
use spechd_hdc::distance::PackedDistanceEngine;
use spechd_hdc::{HvPack, IdLevelEncoder, MajorityAccumulator};
use spechd_ms::SpectrumDataset;
use spechd_preprocess::{Bucket, PrecursorBucketer, PreprocessPipeline};
use std::collections::BTreeMap;
use std::sync::{mpsc, Mutex};

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
    /// consensus. The dataset's spectra go through the one shard ingest
    /// (see the [`stream`](crate::stream) module), borrowed rather than
    /// cloned, with [`SpecHdConfig::threads`] clustering workers.
    pub fn run(&self, dataset: &SpectrumDataset) -> SpecHdOutcome {
        let config = StreamConfig {
            workers: self.config.threads,
            keep_hypervectors: true,
        };
        self.run_sharded(dataset.spectra().iter(), false, &config, None)
            .outcome
    }

    /// Encodes every spectrum of a (preprocessed) dataset straight into a
    /// contiguous [`HvPack`] — the standalone encoding stage. Row `i` is
    /// bit-identical to the row the pipeline's ingest encodes for spectrum
    /// `i`.
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
        buckets: &[Bucket],
        pack: &HvPack,
    ) -> (ClusterAssignment, Vec<usize>, HacStats) {
        let (linkage, threshold) = (self.config.linkage, self.config.distance_threshold_bits());
        let workers = PackedDistanceEngine::new()
            .threads(self.config.threads)
            .resolved_threads()
            .min(buckets.len().max(1));
        // Each worker gathers its bucket's rows into a contiguous sub-pack,
        // clusters it and drops it.
        let ((), clustered) = pool(
            workers,
            |send| buckets.iter().for_each(send),
            |bucket: &Bucket| {
                let sub = pack.gather(&bucket.members);
                cluster_shard(&bucket.members, &sub, linkage, threshold)
            },
            |_| {},
        );
        merge(
            buckets.iter().map(Bucket::len).sum(),
            buckets.iter().map(|b| &b.members[..]).zip(&clustered),
        )
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

/// The one worker pool: `feed` runs on the calling thread and hands jobs
/// to `workers` scoped threads, which turn each into a result with `work`
/// while `feed` carries on. A result that finishes ahead of an earlier
/// job's waits, so `in_order` sees every result in feed order, each as
/// soon as it and all earlier ones are done (one worker at a time, under
/// the results lock). Returns what `feed` returned and the results, in
/// feed order.
pub(crate) fn pool<J: Send, R: Send, T>(
    workers: usize,
    feed: impl FnOnce(&mut dyn FnMut(J)) -> T,
    work: impl Fn(J) -> R + Sync,
    in_order: impl FnMut(&mut R) + Send,
) -> (T, Vec<R>) {
    let (tx, rx) = mpsc::channel::<(usize, J)>();
    let rx = Mutex::new(rx);
    // Results in feed order, those parked ahead of their turn, the hook.
    let results = Mutex::new((Vec::new(), BTreeMap::new(), in_order));
    let fed = std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let received = rx.lock().expect("no panics hold the lock").recv();
                let Ok((seq, job)) = received else {
                    break; // every sender dropped: the feed is done
                };
                let result = work(job);
                let mut guard = results.lock().expect("no panics hold the lock");
                let (done, parked, in_order) = &mut *guard;
                parked.insert(seq, result);
                while let Some(mut next) = parked.remove(&done.len()) {
                    in_order(&mut next);
                    done.push(next);
                }
            });
        }
        let mut seq = 0;
        let fed = feed(&mut |job| {
            tx.send((seq, job)).expect("workers outlive the feed");
            seq += 1;
        });
        drop(tx); // hang up: workers drain the queue and exit
        fed
    });
    (fed, results.into_inner().expect("threads joined").0)
}

/// The one label merge: shard clusterings, given in ascending key order,
/// into one dense global assignment over `total` items.
pub(crate) fn merge<'a>(
    total: usize,
    shards: impl Iterator<Item = (&'a [usize], &'a ShardClustering)>,
) -> (ClusterAssignment, Vec<usize>, HacStats) {
    let mut merger = ShardLabelMerger::new(total);
    for (members, c) in shards {
        merger.add_shard(members, &c.labels, &c.medoids, &c.stats);
    }
    merger.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechd_ms::stream::{sort_dataset_by_mass, DatasetStream};
    use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};
    use spechd_ms::{Peak, Precursor, Spectrum};
    use spechd_preprocess::bucket_stats;

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

    /// The independent oracle of the one ingest: the staged public stages
    /// (the composition the benchmark's traced twin asserts), compared in
    /// full on every input shape at 1, 2 and 4 threads.
    #[test]
    fn packed_staging_matches_run() {
        let single_shard: SpectrumDataset = (0..40)
            .map(|i| {
                let peaks = (0..30)
                    .map(|j| Peak::new(250.0 + 10.0 * j as f64 + 0.01 * i as f64, 10.0 + j as f32))
                    .collect();
                let precursor = Precursor::new(640.25, 2).unwrap();
                (
                    Spectrum::new(format!("s{i}"), precursor, peaks).unwrap(),
                    Some(i % 3),
                )
            })
            .collect();
        let inputs = [
            ("seeded 400", dataset(400, 0x5EED)),
            (
                "hard 500",
                SyntheticGenerator::new(SyntheticConfig::hard(500, 77)).generate(),
            ),
            ("single shard", single_shard),
            (
                "mass-sorted 350",
                sort_dataset_by_mass(&dataset(350, 0xBEEF)),
            ),
            ("empty", SpectrumDataset::new()),
        ];
        for (name, ds) in &inputs {
            for threads in [1, 2, 4] {
                let engine = SpecHd::new(SpecHdConfig::builder().threads(threads).build());
                let run = engine.run(ds);
                let pre = engine.preprocess().run(ds);
                let pack = engine.encode_dataset_packed(&pre.dataset);
                let buckets = engine.bucketer().bucketize(pre.dataset.spectra());
                let (assignment, consensus, hac) = engine.cluster_encoded_packed(&buckets, &pack);
                let consensus: Vec<usize> = consensus.iter().map(|&i| pre.kept[i]).collect();
                let context = format!("{name}, threads {threads}");
                assert_eq!(run.assignment(), &assignment, "{context}");
                assert_eq!(run.kept(), pre.kept, "{context}");
                assert_eq!(run.consensus(), consensus, "{context}");
                assert_eq!(run.hypervectors(), &pack, "{context}");
                assert_eq!(run.stats().buckets, bucket_stats(&buckets), "{context}");
                assert_eq!(run.stats().preprocess, pre.stats, "{context}");
                assert_eq!(run.stats().hac, hac, "{context}");
            }
        }
    }

    /// `RunStats`' timings partition the wall clock on one worker, and
    /// `run_streaming` fills them the same way.
    #[test]
    fn run_stats_times_fit_in_the_total() {
        let ds = dataset(300, 8);
        let engine = SpecHd::new(SpecHdConfig::builder().threads(1).build());
        let stream_config = StreamConfig {
            workers: 1,
            keep_hypervectors: true,
        };
        let streamed = engine.run_streaming(DatasetStream::new(&ds), &stream_config);
        for stats in [*engine.run(&ds).stats(), *streamed.outcome.stats()] {
            let parts = [stats.preprocess_s, stats.encode_s, stats.cluster_s];
            assert!(parts.iter().all(|&s| s > 0.0), "{stats:?}");
            assert!(parts.iter().sum::<f64>() <= stats.total_s, "{stats:?}");
        }
    }

    /// Job 0 cannot finish before job 1 has been parked: job 0 waits for
    /// job 2, which the other worker only takes once job 1 is done. The
    /// hook and the returned results still see feed order.
    #[test]
    fn pool_hands_results_back_in_feed_order() {
        let (job_2_ran, wait_for_job_2) = mpsc::channel();
        let (job_2_ran, wait_for_job_2) = (Mutex::new(job_2_ran), Mutex::new(wait_for_job_2));
        let finished = Mutex::new(Vec::new());
        let mut hooked = Vec::new();
        let ((), results) = pool(
            2,
            |send| (0..3).for_each(send),
            |job: usize| {
                match job {
                    0 => wait_for_job_2.lock().unwrap().recv().unwrap(),
                    2 => job_2_ran.lock().unwrap().send(()).unwrap(),
                    _ => {}
                }
                finished.lock().unwrap().push(job);
                job
            },
            |&mut job| hooked.push(job),
        );
        assert_eq!(finished.into_inner().unwrap()[0], 1, "job 1 finished first");
        assert_eq!(hooked, [0, 1, 2]);
        assert_eq!(results, [0, 1, 2]);
    }

    #[test]
    fn fpga_estimate_smoke() {
        let engine = SpecHd::new(SpecHdConfig::default());
        let t = engine.estimate_fpga_timeline(&WorkloadShape::pxd001468());
        assert!(t.total_s > 0.0 && t.total_s < 100.0);
    }
}
