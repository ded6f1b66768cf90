//! The one front end of the SpecHD pipeline: sharded ingest.
//!
//! Every run goes through one ingest — [`SpecHd::run`](crate::SpecHd::run)
//! over a dataset's spectra,
//! [`SpecHd::run_streaming`](crate::SpecHd::run_streaming) over a
//! [`SpectrumStream`] pulled one spectrum at a time, and each installment
//! of [`SpecHd::run_incremental`](crate::SpecHd::run_incremental). A
//! spectrum is preprocessed on arrival, routed into the per-precursor-mass
//! **shard** Eq. (1) assigns it to, and encoded at once into that shard's
//! own [`HvPack`] (one reused accumulator; no raw spectrum outlives its
//! encoding). A [`std::thread::scope`] worker pool clusters shards as they
//! close while ingest continues, and one key-ordered merge stitches
//! per-shard labels into one global [`spechd_cluster::ClusterAssignment`].
//!
//! ```text
//!  source ──▶ preprocess ──▶ sharder ──▶ encode ──▶ [shard: HvPack rows]
//!  (dataset   (per spectrum)  (Eq. 1)   (on arrival)        │ close
//!   or stream)                                              ▼
//!                                      worker pool: packed HAC per shard
//!                                                           │
//!                                                           ▼
//!                                     key-ordered label merge ──▶ outcome
//! ```
//!
//! ## Identical results, bounded memory
//!
//! The streaming outcome is **bit-identical** to `SpecHd::run` on the same
//! input sequence, for any worker count: both are the same ingest, each
//! shard accumulates exactly the member rows (in arrival order) that the
//! staged public stages (`PreprocessPipeline::run` →
//! `encode_dataset_packed` → `bucketize` → `cluster_encoded_packed`)
//! gather, every shard is clustered by the same `spechd_cluster::cluster_shard`,
//! and every run merges through [`spechd_cluster::ShardLabelMerger`] in
//! ascending bucket-key order. The `streaming_equivalence` integration
//! suite and the pipeline's staged oracle enforce this.
//!
//! Memory tracks packed rows, not raw spectra: a spectrum lives only until
//! it is folded into its shard's 256-byte row (at `D = 2048` — the paper's
//! 24–108× compression).
//!
//! ## Overlapping clustering with ingest
//!
//! A shard can only be clustered once no more members can arrive. For an
//! arbitrary stream that is end-of-stream; the worker pool then drains all
//! shards concurrently. When the source promises non-decreasing neutral
//! mass ([`SpectrumStream::sorted_by_mass`] — the paper's precursor-m/z
//! sorted data organization), every shard lighter than the current key is
//! closed and handed to the workers *immediately*, so clustering runs
//! while ingest is still pulling — the RapidOMS streaming-batch shape.

use crate::pipeline::{merge, pool};
use crate::{CompressionReport, RunStats, SpecHd, SpecHdOutcome};
use spechd_cluster::{cluster_shard, ShardClustering};
use spechd_hdc::distance::PackedDistanceEngine;
use spechd_hdc::{HvPack, MajorityAccumulator};
use spechd_ms::stream::SpectrumStream;
use spechd_ms::Spectrum;
use spechd_preprocess::{bucket_stats_from_sizes, PreprocessStats};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tuning knobs of [`SpecHd::run_streaming`](crate::SpecHd::run_streaming).
///
/// Neither affects results — only parallelism and what the outcome keeps.
/// The equivalence suite runs every worker count to prove it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Clustering worker threads (`0` = all available).
    /// [`SpecHd::run`](crate::SpecHd::run) takes
    /// [`crate::SpecHdConfig::threads`] here.
    pub workers: usize,
    /// Whether to retain the encoded hypervector archive in the outcome
    /// (parallel to `kept`, as `run` does). Disabling it lets shard packs
    /// be recycled through the pack pool as soon as their shard is
    /// clustered, dropping steady-state memory to the open shards; the
    /// outcome's `hypervectors()` is then an empty pack.
    pub keep_hypervectors: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            keep_hypervectors: true,
        }
    }
}

/// Streaming-specific observability counters (memory shape and overlap),
/// alongside the [`RunStats`] the outcome itself carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Spectra pulled from the stream.
    pub spectra_streamed: usize,
    /// Shards opened (= non-empty precursor buckets seen).
    pub shards_opened: usize,
    /// Maximum simultaneously open shards.
    pub peak_open_shards: usize,
    /// Largest shard, in encoded rows (the clustering-time memory peak).
    pub peak_shard_rows: usize,
    /// Shards closed before end-of-stream (sorted sources only) — shards
    /// whose clustering overlapped further ingest.
    pub early_closed_shards: usize,
    /// Packs recycled from the pool instead of freshly allocated.
    pub packs_reused: usize,
}

/// Result of a streaming run: the standard outcome plus stream counters.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// The pipeline outcome, bit-identical to the batch run's.
    pub outcome: SpecHdOutcome,
    /// Streaming-specific counters.
    pub stream: StreamStats,
}

/// One shard's final clustering, reported to a
/// [`run_streaming_observed`](crate::SpecHd::run_streaming_observed)
/// observer in ascending `key` order, as soon as the shard and every
/// lighter one are clustered — while heavier shards may still be
/// ingesting or clustering.
///
/// Labels are **shard-local** (`[0, medoids.len())`); local label `l` is
/// raw label `raw_base + l` of the run, and the global dense labels of
/// [`StreamOutcome`] renumber raw labels by first appearance in stream
/// order — exactly what [`spechd_cluster::ShardLabelMerger`] does. A
/// consumer that collects every `ShardAssignment` can therefore
/// reconstruct the final global assignment without waiting for the run
/// to return, which is what lets `spechd-server` stream per-shard results
/// to clients as they finalize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAssignment {
    /// The shard's Eq. (1) precursor bucket key.
    pub key: i64,
    /// Local clusters in all lighter shards: the first raw label of this
    /// shard's block.
    pub raw_base: usize,
    /// Stream indices (positions in the input stream — the values
    /// [`SpecHdOutcome::kept`] holds) of the shard's members, ascending.
    pub members: Vec<usize>,
    /// Shard-local cluster label per member, parallel to `members`.
    pub labels: Vec<usize>,
    /// Stream index of the consensus (medoid) spectrum per local cluster;
    /// entry `c` represents local cluster `c`.
    pub medoids: Vec<usize>,
}

/// A shard whose membership is final: its Eq. (1) key, its members (kept
/// indices, ascending — arrival order) and their packed rows, row `i`
/// encoding member `i`.
pub(crate) struct Shard {
    pub key: i64,
    pub members: Vec<usize>,
    pub pack: HvPack,
}

/// What [`SpecHd::ingest`] counted on its way through the source.
#[derive(Default)]
pub(crate) struct Ingested {
    /// Source index of every spectrum that survived preprocessing: shard
    /// member `m` is source spectrum `kept[m]`.
    pub kept: Vec<usize>,
    pub preprocess: PreprocessStats,
    /// [`Spectrum::approx_bytes`] summed over the source.
    pub raw_bytes: usize,
    /// Ingest time outside the encoder, summed per spectrum.
    pub preprocess_time: Duration,
    /// Encoder time, summed per spectrum.
    pub encode_time: Duration,
    pub stream: StreamStats,
}

/// A clustered shard, awaiting the key-ordered merge.
struct Clustered {
    key: i64,
    members: Vec<usize>,
    clustering: ShardClustering,
    /// Retained only when the outcome keeps the hypervector archive.
    pack: Option<HvPack>,
    cluster_time: Duration,
    /// Stream index per member; filled only when a run is observed.
    stream_members: Vec<usize>,
}

impl SpecHd {
    /// Runs the full pipeline over a [`SpectrumStream`] in sharded
    /// streaming mode. See the [module docs](crate::stream) for the
    /// dataflow; the result is bit-identical to [`crate::SpecHd::run`] on
    /// the same input sequence.
    ///
    /// # Panics
    ///
    /// Panics if a stream claiming [`SpectrumStream::sorted_by_mass`]
    /// yields a spectrum lighter than one already seen: honoring the hint
    /// would have already retired the shard the latecomer belongs to, so
    /// continuing would silently miscluster.
    pub fn run_streaming<S: SpectrumStream>(
        &self,
        source: S,
        stream_config: &StreamConfig,
    ) -> StreamOutcome {
        self.run_stream(source, stream_config, None)
    }

    /// [`run_streaming`](crate::SpecHd::run_streaming) with a progress
    /// observer: `observer` is handed one [`ShardAssignment`] per shard,
    /// in ascending key order, as soon as that shard and every lighter
    /// one are clustered.
    ///
    /// Calls arrive from clustering worker threads, one at a time, so the
    /// observer needs `Send` but not `Sync`. The observer runs on the
    /// pipeline's critical path: a slow observer stalls the worker that
    /// calls it, so observers must stay cheap and non-blocking
    /// (`spechd-server`'s observer, for instance, hands result frames
    /// to bounded per-connection queues with a non-blocking send and
    /// drops subscribers that stopped draining, rather than ever
    /// blocking here). Results are bit-identical to
    /// [`run_streaming`](crate::SpecHd::run_streaming); the observer is
    /// a pure tap.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`run_streaming`](crate::SpecHd::run_streaming), and propagates
    /// panics raised by the observer.
    pub fn run_streaming_observed<S, F>(
        &self,
        source: S,
        stream_config: &StreamConfig,
        mut observer: F,
    ) -> StreamOutcome
    where
        S: SpectrumStream,
        F: FnMut(ShardAssignment) + Send,
    {
        self.run_stream(source, stream_config, Some(&mut observer))
    }

    fn run_stream<S: SpectrumStream>(
        &self,
        mut source: S,
        stream_config: &StreamConfig,
        observer: Option<&mut (dyn FnMut(ShardAssignment) + Send)>,
    ) -> StreamOutcome {
        let sorted = source.sorted_by_mass();
        let spectra = std::iter::from_fn(|| source.next_spectrum().map(|(spectrum, _)| spectrum));
        self.run_sharded(spectra, sorted, stream_config, observer)
    }

    /// The one pipeline body under `run` and `run_streaming*`:
    /// [`SpecHd::ingest`] feeding the one worker pool, then the one merge.
    pub(crate) fn run_sharded(
        &self,
        spectra: impl Iterator<Item = impl Borrow<Spectrum>>,
        sorted: bool,
        stream_config: &StreamConfig,
        mut observer: Option<&mut (dyn FnMut(ShardAssignment) + Send)>,
    ) -> StreamOutcome {
        let start = Instant::now();
        let dim = self.encoder.dim();
        let keep_hvs = stream_config.keep_hypervectors;
        let (linkage, threshold) = (self.config.linkage, self.config.distance_threshold_bits());
        let workers = PackedDistanceEngine::new()
            .threads(stream_config.workers)
            .resolved_threads();
        // Cleared packs parked for reuse, so shard churn does not retread
        // the allocator (only populated when the archive is not kept —
        // kept packs live on into the final scatter).
        let spare = Mutex::default();
        let observed = observer.is_some();
        let mut raw_base = 0;

        let (ingested, shards) = pool(
            workers,
            |send| {
                self.ingest(spectra, sorted, &spare, &mut |shard, kept| {
                    // Stream index per member, for the observer only.
                    let stream_members = if observed {
                        shard.members.iter().map(|&m| kept[m]).collect()
                    } else {
                        Vec::new()
                    };
                    send((shard, stream_members));
                })
            },
            |(shard, stream_members): (Shard, Vec<usize>)| {
                let t_cluster = Instant::now();
                let clustering = cluster_shard(&shard.members, &shard.pack, linkage, threshold);
                let cluster_time = t_cluster.elapsed();
                let mut pack = shard.pack;
                let pack = if keep_hvs {
                    Some(pack)
                } else {
                    pack.clear();
                    spare.lock().expect("no panics hold the lock").push(pack);
                    None
                };
                Clustered {
                    key: shard.key,
                    members: shard.members,
                    clustering,
                    pack,
                    cluster_time,
                    stream_members,
                }
            },
            // Ingest retires shards in ascending key order, which is the
            // order this hook and the merge below see them in.
            |shard: &mut Clustered| {
                let Some(observer) = observer.as_mut() else {
                    return;
                };
                // Medoids are kept indices; members are ascending, so a
                // binary search maps each back to its slot and from there
                // to its stream index.
                let slot = |m: &usize| shard.members.partition_point(|x| x < m);
                let c = &shard.clustering;
                let medoids = c.medoids.iter().map(|m| shard.stream_members[slot(m)]);
                observer(ShardAssignment {
                    key: shard.key,
                    raw_base,
                    medoids: medoids.collect(),
                    members: std::mem::take(&mut shard.stream_members),
                    labels: c.labels.clone(),
                });
                raw_base += c.medoids.len();
            },
        );

        let kept = ingested.kept;
        let (assignment, consensus_local, hac) = merge(
            kept.len(),
            shards.iter().map(|s| (&s.members[..], &s.clustering)),
        );
        let consensus: Vec<usize> = consensus_local.iter().map(|&m| kept[m]).collect();

        // Scatter shard rows back into kept order for the archive `run`
        // exposes; empty when not keeping hypervectors.
        let stride = dim.div_ceil(64);
        let mut words = vec![0; if keep_hvs { kept.len() * stride } else { 0 }];
        for s in &shards {
            let Some(pack) = &s.pack else { continue };
            for (row, &member) in s.members.iter().enumerate() {
                words[member * stride..][..stride].copy_from_slice(pack.row(row));
            }
        }
        let hvs = HvPack::from_raw_parts(dim, words).expect("encoded rows keep the tail invariant");

        let compression = CompressionReport::new(ingested.raw_bytes, kept.len(), dim);
        let buckets = bucket_stats_from_sizes(shards.iter().map(|s| s.members.len()));
        let cluster_time: Duration = shards.iter().map(|s| s.cluster_time).sum();
        let stats = RunStats {
            preprocess: ingested.preprocess,
            buckets,
            hac,
            preprocess_s: ingested.preprocess_time.as_secs_f64(),
            encode_s: ingested.encode_time.as_secs_f64(),
            cluster_s: cluster_time.as_secs_f64(),
            total_s: start.elapsed().as_secs_f64(),
        };
        StreamOutcome {
            outcome: SpecHdOutcome::new(assignment, kept, consensus, hvs, stats, compression),
            stream: StreamStats {
                peak_shard_rows: buckets.max_size,
                ..ingested.stream
            },
        }
    }

    /// The one front end. For each spectrum: `process_one`, `bucket_of`,
    /// then `encode_into_pack` (one reused accumulator and peak buffer)
    /// straight into its shard's own pack. A shard goes to `retire`, with
    /// the kept indices so far, as soon as its membership is final — on a
    /// mass-sorted source when a heavier key arrives, otherwise when the
    /// source runs out — so shards retire in ascending key order.
    ///
    /// # Panics
    ///
    /// Panics if `sorted` and a spectrum's key is lighter than one already
    /// seen.
    pub(crate) fn ingest(
        &self,
        spectra: impl Iterator<Item = impl Borrow<Spectrum>>,
        sorted: bool,
        spare: &Mutex<Vec<HvPack>>,
        retire: &mut dyn FnMut(Shard, &[usize]),
    ) -> Ingested {
        let dim = self.encoder.dim();
        let mut done = Ingested::default();
        let mut open: BTreeMap<i64, Shard> = BTreeMap::new();
        let mut acc = MajorityAccumulator::new(dim);
        let mut peaks = Vec::new();
        let mut last_key = i64::MIN;
        let mut t = Instant::now();
        for (index, spectrum) in spectra.enumerate() {
            let spectrum = spectrum.borrow();
            done.raw_bytes += spectrum.approx_bytes();
            let Some(processed) = self.preprocess.process_one(spectrum, &mut done.preprocess)
            else {
                continue;
            };
            let key = self.bucketer.bucket_of(&processed);
            if sorted && key != last_key {
                assert!(
                    key > last_key,
                    "stream claims sorted_by_mass but bucket key {key} arrived after \
                     {last_key}; the shard it belongs to may already be clustered"
                );
                // Every open shard is lighter than `key`, hence final:
                // retire it to the workers while we keep ingesting.
                for shard in std::mem::take(&mut open).into_values() {
                    done.stream.early_closed_shards += 1;
                    retire(shard, &done.kept);
                }
                last_key = key;
            }
            let shard = open.entry(key).or_insert_with(|| {
                done.stream.shards_opened += 1;
                let recycled = spare.lock().expect("no panics hold the lock").pop();
                done.stream.packs_reused += usize::from(recycled.is_some());
                Shard {
                    key,
                    members: Vec::new(),
                    pack: recycled.unwrap_or_else(|| HvPack::new(dim)),
                }
            });
            shard.members.push(done.kept.len());
            done.kept.push(index);
            let t_encode = Instant::now();
            done.preprocess_time += t_encode - t;
            processed.relative_peaks_into(&mut peaks);
            self.encoder
                .encode_into_pack(&peaks, &mut acc, &mut shard.pack);
            t = Instant::now();
            done.encode_time += t - t_encode;
            done.stream.peak_open_shards = done.stream.peak_open_shards.max(open.len());
        }
        done.preprocess_time += t.elapsed();
        done.stream.spectra_streamed = done.preprocess.spectra_in;

        // End of input: every remaining shard is final.
        for shard in open.into_values() {
            retire(shard, &done.kept);
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpecHd, SpecHdConfig};
    use spechd_ms::stream::{AssertSorted, DatasetStream};
    use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};
    use spechd_ms::SpectrumDataset;

    fn dataset(n: usize, seed: u64) -> SpectrumDataset {
        SyntheticGenerator::new(SyntheticConfig {
            num_spectra: n,
            num_peptides: (n / 5).max(2),
            seed,
            ..SyntheticConfig::default()
        })
        .generate()
    }

    #[test]
    fn streaming_matches_batch_on_default_config() {
        let ds = dataset(200, 21);
        let engine = SpecHd::new(SpecHdConfig::default());
        let batch = engine.run(&ds);
        let streamed = engine.run_streaming(DatasetStream::new(&ds), &StreamConfig::default());
        assert_eq!(streamed.outcome.assignment(), batch.assignment());
        assert_eq!(streamed.outcome.consensus(), batch.consensus());
        assert_eq!(streamed.outcome.kept(), batch.kept());
        assert_eq!(streamed.outcome.hypervectors(), batch.hypervectors());
        assert_eq!(streamed.outcome.stats().buckets, batch.stats().buckets);
        assert_eq!(
            streamed.outcome.stats().preprocess,
            batch.stats().preprocess
        );
        assert_eq!(streamed.outcome.stats().hac, batch.stats().hac);
        assert_eq!(
            streamed.outcome.compression().factor(),
            batch.compression().factor()
        );
        assert_eq!(streamed.stream.spectra_streamed, ds.len());
        assert!(streamed.stream.shards_opened > 0);
    }

    #[test]
    fn sorted_stream_overlaps_clustering_with_ingest() {
        let ds = spechd_ms::stream::sort_dataset_by_mass(&dataset(300, 23));
        let engine = SpecHd::new(SpecHdConfig::default());
        let batch = engine.run(&ds);
        let streamed = engine.run_streaming(
            AssertSorted::new(DatasetStream::new(&ds)),
            &StreamConfig::default(),
        );
        assert_eq!(streamed.outcome.assignment(), batch.assignment());
        assert_eq!(streamed.outcome.hypervectors(), batch.hypervectors());
        // All but the final shard retire before end-of-stream.
        assert_eq!(
            streamed.stream.early_closed_shards,
            streamed.stream.shards_opened - 1
        );
        // Sorted ingest keeps at most one shard open at a time.
        assert_eq!(streamed.stream.peak_open_shards, 1);
    }

    #[test]
    #[should_panic(expected = "sorted_by_mass")]
    fn lying_sorted_hint_panics() {
        let mut ds = SpectrumDataset::new();
        for &mz in &[900.0, 300.0] {
            ds.push(
                spechd_ms::Spectrum::new(
                    format!("mz={mz}"),
                    spechd_ms::Precursor::new(mz, 2).unwrap(),
                    (0..30)
                        .map(|i| spechd_ms::Peak::new(250.0 + 10.0 * i as f64, 10.0))
                        .collect(),
                )
                .unwrap(),
                None,
            );
        }
        let engine = SpecHd::new(SpecHdConfig::default());
        engine.run_streaming(
            AssertSorted::new(DatasetStream::new(&ds)),
            &StreamConfig::default(),
        );
    }

    /// The contract `spechd-server` streams results over: the observer
    /// sees every shard once, in strictly ascending key order, with
    /// contiguous raw label blocks, and feeding what it saw through
    /// `ShardLabelMerger` reproduces the outcome — at every worker count.
    fn assert_observed_shards_rebuild_the_outcome(ds: &SpectrumDataset, sorted: bool) {
        for workers in [1, 2, 4] {
            let context = format!("sorted {sorted}, workers {workers}");
            let engine = SpecHd::new(SpecHdConfig::default());
            let config = StreamConfig {
                workers,
                ..StreamConfig::default()
            };
            let mut seen: Vec<ShardAssignment> = Vec::new();
            let observe = |shard| seen.push(shard);
            let source = DatasetStream::new(ds);
            let streamed = if sorted {
                engine.run_streaming_observed(AssertSorted::new(source), &config, observe)
            } else {
                engine.run_streaming_observed(source, &config, observe)
            };
            let outcome = &streamed.outcome;
            assert_eq!(seen.len(), streamed.stream.shards_opened, "{context}");
            assert!(seen.windows(2).all(|w| w[0].key < w[1].key), "{context}");
            let mut raw_base = 0;
            for shard in &seen {
                assert_eq!(shard.raw_base, raw_base, "{context}");
                raw_base += shard.medoids.len();
            }
            // Stream indices are kept indices' images: map back to
            // kept positions, then merge as the pipeline does.
            let kept_of = |i: &usize| outcome.kept().binary_search(i).unwrap();
            let mut merger = spechd_cluster::ShardLabelMerger::new(outcome.kept().len());
            for shard in &seen {
                let members: Vec<usize> = shard.members.iter().map(kept_of).collect();
                let medoids: Vec<usize> = shard.medoids.iter().map(kept_of).collect();
                merger.add_shard(&members, &shard.labels, &medoids, &Default::default());
            }
            let (assignment, consensus, _) = merger.finish();
            let consensus: Vec<usize> = consensus.iter().map(|&m| outcome.kept()[m]).collect();
            assert_eq!(&assignment, outcome.assignment(), "{context}");
            assert_eq!(consensus, outcome.consensus(), "{context}");
            if sorted {
                // All but the final shard retire before end-of-stream.
                assert_eq!(
                    streamed.stream.early_closed_shards,
                    streamed.stream.shards_opened - 1,
                    "{context}"
                );
            }
        }
    }

    #[test]
    fn observed_events_reconstruct_the_outcome() {
        assert_observed_shards_rebuild_the_outcome(&dataset(300, 25), false);
    }

    #[test]
    fn sorted_observer_sees_early_closed_shards() {
        let ds = spechd_ms::stream::sort_dataset_by_mass(&dataset(300, 26));
        assert_observed_shards_rebuild_the_outcome(&ds, true);
    }

    #[test]
    fn dropping_the_archive_recycles_packs() {
        let ds = spechd_ms::stream::sort_dataset_by_mass(&dataset(300, 24));
        let engine = SpecHd::new(SpecHdConfig::default());
        let cfg = StreamConfig {
            keep_hypervectors: false,
            workers: 1,
        };
        let streamed = engine.run_streaming(AssertSorted::new(DatasetStream::new(&ds)), &cfg);
        assert!(streamed.outcome.hypervectors().is_empty());
        assert_eq!(
            streamed.outcome.hypervectors().dim(),
            engine.config().encoder.dim
        );
        // Reuse is opportunistic (a pack returns to the pool only once a
        // worker finishes while ingest still runs), so only bound it.
        assert!(streamed.stream.packs_reused < streamed.stream.shards_opened);
        assert_eq!(
            streamed.outcome.assignment(),
            engine.run(&ds).assignment(),
            "dropping the archive must not change labels"
        );
    }
}
