//! Streaming, sharded execution of the SpecHD pipeline.
//!
//! [`SpecHd::run`](crate::SpecHd::run) materializes the whole dataset
//! before the first hypervector is encoded, so dataset size — not
//! hardware — bounds a run.
//! [`SpecHd::run_streaming`](crate::SpecHd::run_streaming) removes that
//! bound: spectra are pulled from a
//! [`SpectrumStream`] one at a time, preprocessed on arrival, routed into
//! the per-precursor-mass **shard** Eq. (1) assigns them to, and encoded in
//! bounded batches straight into the shard's own [`HvPack`]. A
//! [`std::thread::scope`] worker pool clusters shards as they close while
//! ingest continues, and a deterministic merge stitches per-shard labels
//! into one global [`spechd_cluster::ClusterAssignment`].
//!
//! ```text
//!  source ──▶ preprocess ──▶ sharder ──▶ [shard: raw buffer ≤ watermark]
//!  (stream)   (per spectrum)  (Eq. 1)        │ encode flush (HvPack)
//!                                            ▼ close
//!                                      worker pool: packed HAC per shard
//!                                            │
//!                                            ▼
//!                               key-ordered label merge ──▶ outcome
//! ```
//!
//! ## Identical results, bounded memory
//!
//! The streaming outcome is **bit-identical** to `SpecHd::run` on the same
//! input sequence, for any watermark and worker count: preprocessing and
//! encoding are per-spectrum deterministic, each shard accumulates exactly
//! the member rows (in arrival order) that the batch bucketizer would have
//! gathered, both modes cluster a shard through the same private
//! `cluster_shard` code, and both merge through
//! [`spechd_cluster::ShardLabelMerger`] in ascending bucket-key order.
//! The `streaming_equivalence` integration suite enforces this.
//!
//! What changes is the memory shape: at most
//! [`StreamConfig::watermark`] *raw* spectra are buffered per open shard
//! before being folded into packed rows (256 bytes each at `D = 2048` —
//! the paper's 24–108× compression), so peak raw-spectrum memory tracks
//! the watermark and the shard fan-out rather than the dataset.
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

use crate::pipeline::cluster_shard;
use crate::{CompressionReport, RunStats, SpecHdOutcome};
use spechd_cluster::{HacStats, ShardLabelMerger};
use spechd_hdc::distance::PackedDistanceEngine;
use spechd_hdc::{HvPack, MajorityAccumulator};
use spechd_ms::stream::SpectrumStream;
use spechd_preprocess::{bucket_stats_from_sizes, PreprocessStats};
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Instant;

/// Tuning knobs of [`SpecHd::run_streaming`](crate::SpecHd::run_streaming).
///
/// None of these affect results — only memory shape and parallelism. The
/// equivalence suite runs the full cross-product to prove it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Raw spectra buffered per shard before an encode flush folds them
    /// into the shard's packed rows. `0` buffers without bound (encode
    /// only at close). `1` encodes every spectrum on arrival.
    pub watermark: usize,
    /// Clustering worker threads (`0` = all available). Independent of
    /// [`crate::SpecHdConfig::threads`], which governs the batch path.
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
            watermark: 64,
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
    /// Maximum raw spectra buffered across all open shards at once — the
    /// quantity the watermark bounds per shard.
    pub peak_buffered_spectra: usize,
    /// Largest shard, in encoded rows (the clustering-time memory peak).
    pub peak_shard_rows: usize,
    /// Encode flushes performed (watermark hits + shard closes).
    pub encode_flushes: usize,
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
/// observer the moment a worker retires the shard — while other shards may
/// still be ingesting or clustering.
///
/// Labels are **shard-local** (`[0, medoids.len())`); the global dense
/// labels of [`StreamOutcome`] are obtained by giving each shard a raw
/// label block in ascending `key` order and renumbering by first
/// appearance in stream order — exactly what
/// [`spechd_cluster::ShardLabelMerger`] does. A consumer that collects
/// every `ShardAssignment` can therefore reconstruct the final global
/// assignment without waiting for the run to return, which is what lets
/// `spechd-server` stream per-shard results to clients as they finalize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAssignment {
    /// The shard's Eq. (1) precursor bucket key.
    pub key: i64,
    /// Stream indices (positions in the input stream — the values
    /// [`SpecHdOutcome::kept`] holds) of the shard's members, ascending.
    pub members: Vec<usize>,
    /// Shard-local cluster label per member, parallel to `members`.
    pub labels: Vec<usize>,
    /// Stream index of the consensus (medoid) spectrum per local cluster;
    /// entry `c` represents local cluster `c`.
    pub medoids: Vec<usize>,
    /// Whether the shard retired before end-of-stream (mass-sorted
    /// sources only).
    pub early_closed: bool,
}

/// Progress events emitted by
/// [`run_streaming_observed`](crate::SpecHd::run_streaming_observed).
///
/// Events arrive from the ingest thread and the clustering workers,
/// serialized through one lock. [`StreamEvent::IngestDone`] fires once,
/// when the source is exhausted; [`StreamEvent::ShardClustered`] fires
/// once per shard, in worker **completion** order — possibly before *and*
/// after `IngestDone`, and in no particular key order. Every event is
/// delivered before `run_streaming_observed` returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamEvent {
    /// A worker finished clustering one shard.
    ShardClustered(ShardAssignment),
    /// The source is exhausted: the shard key set and the kept count are
    /// final. `keys` is ascending and holds every shard ever opened, so a
    /// consumer can emit buffered [`ShardAssignment`]s in key order and
    /// know when the last one has arrived.
    IngestDone {
        /// All shard keys of the run, ascending.
        keys: Vec<i64>,
        /// Spectra that survived preprocessing (= final `kept().len()`).
        kept: usize,
        /// Spectra pulled from the stream.
        streamed: usize,
    },
}

/// An open shard: arrival-ordered members, a bounded raw-peak buffer, and
/// the packed rows encoded so far.
struct OpenShard {
    members: Vec<usize>,
    buffer: Vec<Vec<(f64, f64)>>,
    pack: HvPack,
}

/// A shard whose membership is final, en route to a clustering worker.
struct ClosedShard {
    key: i64,
    members: Vec<usize>,
    /// Stream index per member (only filled when an observer is
    /// installed; the plain path skips the extra allocation).
    stream_members: Vec<usize>,
    early_closed: bool,
    pack: HvPack,
}

/// A clustered shard, awaiting the key-ordered merge.
struct ShardResult {
    key: i64,
    members: Vec<usize>,
    labels: Vec<usize>,
    medoids: Vec<usize>,
    stats: HacStats,
    /// Retained only when the outcome keeps the hypervector archive.
    pack: Option<HvPack>,
    cluster_ns: u128,
}

impl crate::SpecHd {
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
        self.run_streaming_inner::<S, fn(StreamEvent)>(source, stream_config, None)
    }

    /// [`run_streaming`](crate::SpecHd::run_streaming) with a progress
    /// observer: `observer` is invoked for every [`StreamEvent`] — one
    /// [`StreamEvent::ShardClustered`] per shard as the worker pool
    /// retires it, plus one final [`StreamEvent::IngestDone`] when the
    /// source is exhausted.
    ///
    /// Calls arrive from the ingest thread and from clustering worker
    /// threads but are serialized through one internal lock, so the
    /// observer needs `Send` but not `Sync`. The observer runs on the
    /// pipeline's critical path: a slow observer stalls the worker that
    /// calls it, so observers must stay cheap and non-blocking
    /// (`spechd-server`'s observer, for instance, hands result frames
    /// to bounded per-connection queues with a non-blocking send and
    /// drops subscribers that stopped draining, rather than ever
    /// blocking here). Results are bit-identical to
    /// [`run_streaming`](crate::SpecHd::run_streaming); the events are a
    /// pure tap.
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
        observer: F,
    ) -> StreamOutcome
    where
        S: SpectrumStream,
        F: FnMut(StreamEvent) + Send,
    {
        self.run_streaming_inner(source, stream_config, Some(observer))
    }

    fn run_streaming_inner<S, F>(
        &self,
        mut source: S,
        stream_config: &StreamConfig,
        observer: Option<F>,
    ) -> StreamOutcome
    where
        S: SpectrumStream,
        F: FnMut(StreamEvent) + Send,
    {
        let start = Instant::now();
        let observer = observer.map(Mutex::new);
        let observing = observer.is_some();
        let dim = self.config().encoder.dim;
        let watermark = stream_config.watermark;
        let keep_hvs = stream_config.keep_hypervectors;
        let threshold = self.config().distance_threshold_bits();
        let linkage = self.config().linkage;
        let workers = PackedDistanceEngine::new()
            .threads(stream_config.workers)
            .resolved_threads();

        let (shard_tx, shard_rx) = mpsc::channel::<ClosedShard>();
        let shard_rx = Mutex::new(shard_rx);
        let results: Mutex<Vec<ShardResult>> = Mutex::new(Vec::new());
        // Cleared packs parked for reuse, so shard churn does not retread
        // the allocator (only populated when the archive is not kept —
        // kept packs live on into the final scatter).
        let pack_pool: Mutex<Vec<HvPack>> = Mutex::new(Vec::new());

        let mut kept: Vec<usize> = Vec::new();
        let mut pre_stats = PreprocessStats::default();
        let mut stream_stats = StreamStats::default();
        let mut raw_bytes = 0usize;
        let mut preprocess_ns = 0u128;
        let mut encode_ns = 0u128;

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let received = shard_rx.lock().expect("no panics hold the lock").recv();
                    let Ok(mut shard) = received else {
                        break; // every sender dropped: ingest is done
                    };
                    let t_cluster = Instant::now();
                    let clustering = cluster_shard(&shard.members, &shard.pack, linkage, threshold);
                    let cluster_ns = t_cluster.elapsed().as_nanos();
                    if let Some(obs) = observer.as_ref() {
                        // Medoids are global member indices; members are
                        // ascending (assigned in arrival order), so a
                        // binary search maps each back to its slot and
                        // from there to its stream index.
                        let medoids = clustering
                            .medoids
                            .iter()
                            .map(|m| {
                                let slot = shard
                                    .members
                                    .binary_search(m)
                                    .expect("medoid is a shard member");
                                shard.stream_members[slot]
                            })
                            .collect();
                        let event = StreamEvent::ShardClustered(ShardAssignment {
                            key: shard.key,
                            members: std::mem::take(&mut shard.stream_members),
                            labels: clustering.labels.clone(),
                            medoids,
                            early_closed: shard.early_closed,
                        });
                        (obs.lock().expect("no panics hold the lock"))(event);
                    }
                    let pack = if keep_hvs {
                        Some(shard.pack)
                    } else {
                        let mut spare = shard.pack;
                        spare.clear();
                        pack_pool
                            .lock()
                            .expect("no panics hold the lock")
                            .push(spare);
                        None
                    };
                    results
                        .lock()
                        .expect("no panics hold the lock")
                        .push(ShardResult {
                            key: shard.key,
                            members: shard.members,
                            labels: clustering.labels,
                            medoids: clustering.medoids,
                            stats: clustering.stats,
                            pack,
                            cluster_ns,
                        });
                });
            }

            // ── Ingest (this thread), overlapping the workers above. ──
            let sorted = source.sorted_by_mass();
            let mut open: BTreeMap<i64, OpenShard> = BTreeMap::new();
            let mut opened_keys: Vec<i64> = Vec::new();
            let mut acc = MajorityAccumulator::new(dim);
            let mut buffered_total = 0usize;
            let mut last_key = i64::MIN;
            let mut stream_index = 0usize;

            // Flushes a shard's raw buffer into its packed rows.
            let flush = |shard: &mut OpenShard,
                         acc: &mut MajorityAccumulator,
                         encode_ns: &mut u128,
                         stream_stats: &mut StreamStats,
                         buffered_total: &mut usize| {
                if shard.buffer.is_empty() {
                    return;
                }
                let t = Instant::now();
                self.encoder()
                    .encode_batch_packed_into(&shard.buffer, acc, &mut shard.pack);
                *encode_ns += t.elapsed().as_nanos();
                *buffered_total -= shard.buffer.len();
                shard.buffer.clear();
                stream_stats.encode_flushes += 1;
            };

            while let Some((spectrum, _label)) = source.next_spectrum() {
                stream_stats.spectra_streamed += 1;
                raw_bytes += spectrum.approx_bytes();
                let t = Instant::now();
                let processed = self.preprocess().process_one(&spectrum, &mut pre_stats);
                preprocess_ns += t.elapsed().as_nanos();
                let index = stream_index;
                stream_index += 1;
                let Some(processed) = processed else {
                    continue;
                };
                let key = self.bucketer().bucket_of(&processed);

                if sorted {
                    assert!(
                        key >= last_key,
                        "stream claims sorted_by_mass but bucket key {key} arrived after \
                         {last_key}; the shard it belongs to may already be clustered"
                    );
                    if key > last_key {
                        // Everything lighter than the current key is final:
                        // retire it to the workers while we keep ingesting.
                        while let Some((&k, _)) = open.range(..key).next() {
                            let mut shard = open.remove(&k).expect("key from range");
                            flush(
                                &mut shard,
                                &mut acc,
                                &mut encode_ns,
                                &mut stream_stats,
                                &mut buffered_total,
                            );
                            stream_stats.peak_shard_rows =
                                stream_stats.peak_shard_rows.max(shard.pack.len());
                            stream_stats.early_closed_shards += 1;
                            let stream_members = if observing {
                                shard.members.iter().map(|&m| kept[m]).collect()
                            } else {
                                Vec::new()
                            };
                            shard_tx
                                .send(ClosedShard {
                                    key: k,
                                    members: shard.members,
                                    stream_members,
                                    early_closed: true,
                                    pack: shard.pack,
                                })
                                .expect("workers outlive ingest");
                        }
                        last_key = key;
                    }
                }

                let member = kept.len();
                kept.push(index);
                let shard = open.entry(key).or_insert_with(|| {
                    stream_stats.shards_opened += 1;
                    opened_keys.push(key);
                    let pack = match pack_pool.lock().expect("no panics hold the lock").pop() {
                        Some(spare) => {
                            stream_stats.packs_reused += 1;
                            spare
                        }
                        None => HvPack::new(dim),
                    };
                    OpenShard {
                        members: Vec::new(),
                        buffer: Vec::new(),
                        pack,
                    }
                });
                shard.members.push(member);
                shard.buffer.push(processed.relative_peaks());
                buffered_total += 1;
                // During ingest, shards leave `open` only through the
                // early-close path, so this difference equals `open.len()`
                // (which the `entry` borrow keeps us from reading here).
                let open_count = stream_stats.shards_opened - stream_stats.early_closed_shards;
                stream_stats.peak_open_shards = stream_stats.peak_open_shards.max(open_count);
                stream_stats.peak_buffered_spectra =
                    stream_stats.peak_buffered_spectra.max(buffered_total);
                if watermark > 0 && shard.buffer.len() >= watermark {
                    flush(
                        shard,
                        &mut acc,
                        &mut encode_ns,
                        &mut stream_stats,
                        &mut buffered_total,
                    );
                }
            }

            // End of stream: every remaining shard is final.
            for (key, mut shard) in std::mem::take(&mut open) {
                flush(
                    &mut shard,
                    &mut acc,
                    &mut encode_ns,
                    &mut stream_stats,
                    &mut buffered_total,
                );
                stream_stats.peak_shard_rows = stream_stats.peak_shard_rows.max(shard.pack.len());
                let stream_members = if observing {
                    shard.members.iter().map(|&m| kept[m]).collect()
                } else {
                    Vec::new()
                };
                shard_tx
                    .send(ClosedShard {
                        key,
                        members: shard.members,
                        stream_members,
                        early_closed: false,
                        pack: shard.pack,
                    })
                    .expect("workers outlive ingest");
            }
            if let Some(obs) = observer.as_ref() {
                let mut keys = std::mem::take(&mut opened_keys);
                keys.sort_unstable();
                (obs.lock().expect("no panics hold the lock"))(StreamEvent::IngestDone {
                    keys,
                    kept: kept.len(),
                    streamed: stream_stats.spectra_streamed,
                });
            }
            drop(shard_tx); // hang up: workers drain the queue and exit
        });

        // ── Merge, in ascending bucket-key order (batch bucket order). ──
        let mut results = results.into_inner().expect("threads joined");
        results.sort_by_key(|r| r.key);

        let mut merger = ShardLabelMerger::new(kept.len());
        let mut cluster_ns = 0u128;
        for r in &results {
            merger.add_shard(&r.members, &r.labels, &r.medoids, &r.stats);
            cluster_ns += r.cluster_ns;
        }
        let (assignment, consensus_local, hac) = merger.finish();
        let consensus: Vec<usize> = consensus_local.iter().map(|&m| kept[m]).collect();

        let bstats = bucket_stats_from_sizes(results.iter().map(|r| r.members.len()));

        // Scatter shard rows back into kept order for the archive `run`
        // exposes; skipped (empty archive) when not keeping hypervectors.
        let mut hvs = HvPack::new(dim);
        if keep_hvs {
            hvs.reserve(kept.len());
            let mut row_of = vec![(0usize, 0usize); kept.len()];
            for (ri, r) in results.iter().enumerate() {
                for (row, &member) in r.members.iter().enumerate() {
                    row_of[member] = (ri, row);
                }
            }
            for &(ri, row) in &row_of {
                let pack = results[ri].pack.as_ref().expect("kept packs retained");
                hvs.push_zeroed().copy_from_slice(pack.row(row));
            }
        }

        let compression = CompressionReport::new(raw_bytes, kept.len(), dim);
        let outcome = SpecHdOutcome::new(
            assignment,
            kept,
            consensus,
            hvs,
            RunStats {
                preprocess: pre_stats,
                buckets: bstats,
                hac,
                preprocess_s: preprocess_ns as f64 * 1e-9,
                encode_s: encode_ns as f64 * 1e-9,
                // Aggregate worker-side clustering time; with several
                // workers this exceeds its wall-clock share by design.
                cluster_s: cluster_ns as f64 * 1e-9,
                total_s: start.elapsed().as_secs_f64(),
            },
            compression,
        );
        StreamOutcome {
            outcome,
            stream: stream_stats,
        }
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
    fn watermark_one_encodes_every_arrival() {
        let ds = dataset(100, 22);
        let engine = SpecHd::new(SpecHdConfig::default());
        let cfg = StreamConfig {
            watermark: 1,
            ..StreamConfig::default()
        };
        let streamed = engine.run_streaming(DatasetStream::new(&ds), &cfg);
        assert_eq!(
            streamed.stream.encode_flushes,
            streamed.outcome.kept().len(),
            "watermark 1 must flush once per kept spectrum"
        );
        assert!(streamed.stream.peak_buffered_spectra <= 1);
        assert_eq!(streamed.outcome.assignment(), engine.run(&ds).assignment());
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

    /// The contract `spechd-server` streams results over: giving each
    /// shard a raw label block in ascending key order and renumbering by
    /// first appearance in stream order reproduces the final outcome
    /// bit-identically — without ever touching the returned outcome.
    #[test]
    fn observed_events_reconstruct_the_outcome() {
        let ds = dataset(300, 25);
        let engine = SpecHd::new(SpecHdConfig::default());
        let mut events: Vec<StreamEvent> = Vec::new();
        let streamed =
            engine.run_streaming_observed(DatasetStream::new(&ds), &StreamConfig::default(), |e| {
                events.push(e)
            });
        let outcome = &streamed.outcome;

        let mut shards: BTreeMap<i64, ShardAssignment> = BTreeMap::new();
        let mut ingest_done = None;
        for event in events {
            match event {
                StreamEvent::ShardClustered(sa) => {
                    assert!(shards.insert(sa.key, sa).is_none(), "duplicate shard");
                }
                StreamEvent::IngestDone {
                    keys,
                    kept,
                    streamed,
                } => {
                    assert!(ingest_done.is_none(), "IngestDone fired twice");
                    ingest_done = Some((keys, kept, streamed));
                }
            }
        }
        let (keys, kept, spectra) = ingest_done.expect("IngestDone fired");
        assert_eq!(kept, outcome.kept().len());
        assert_eq!(spectra, ds.len());
        assert_eq!(
            keys,
            shards.keys().copied().collect::<Vec<_>>(),
            "IngestDone keys must name exactly the clustered shards"
        );

        // Client-side reassembly: raw blocks in ascending key order, then
        // dense renumbering by first appearance in stream order.
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let mut medoid_by_raw: Vec<usize> = Vec::new();
        for key in &keys {
            let sa = &shards[key];
            let raw_base = medoid_by_raw.len();
            for (&stream_idx, &local) in sa.members.iter().zip(&sa.labels) {
                pairs.push((stream_idx, raw_base + local));
            }
            medoid_by_raw.extend_from_slice(&sa.medoids);
        }
        pairs.sort_unstable();
        let kept_rebuilt: Vec<usize> = pairs.iter().map(|&(s, _)| s).collect();
        assert_eq!(kept_rebuilt, outcome.kept());
        let mut dense_of = vec![usize::MAX; medoid_by_raw.len()];
        let mut labels = Vec::with_capacity(pairs.len());
        let mut consensus = Vec::new();
        let mut next = 0usize;
        for &(_, raw) in &pairs {
            if dense_of[raw] == usize::MAX {
                dense_of[raw] = next;
                consensus.push(medoid_by_raw[raw]);
                next += 1;
            }
            labels.push(dense_of[raw]);
        }
        assert_eq!(labels, outcome.assignment().labels());
        assert_eq!(consensus, outcome.consensus());
    }

    #[test]
    fn sorted_observer_sees_early_closed_shards() {
        let ds = spechd_ms::stream::sort_dataset_by_mass(&dataset(300, 26));
        let engine = SpecHd::new(SpecHdConfig::default());
        let mut early = 0usize;
        let mut total = 0usize;
        let streamed = engine.run_streaming_observed(
            AssertSorted::new(DatasetStream::new(&ds)),
            &StreamConfig::default(),
            |e| {
                if let StreamEvent::ShardClustered(sa) = e {
                    total += 1;
                    early += usize::from(sa.early_closed);
                }
            },
        );
        assert_eq!(total, streamed.stream.shards_opened);
        assert_eq!(early, streamed.stream.early_closed_shards);
        assert_eq!(early, total - 1, "all but the final shard retire early");
    }

    #[test]
    fn dropping_the_archive_recycles_packs() {
        let ds = spechd_ms::stream::sort_dataset_by_mass(&dataset(300, 24));
        let engine = SpecHd::new(SpecHdConfig::default());
        let cfg = StreamConfig {
            keep_hypervectors: false,
            workers: 1,
            ..StreamConfig::default()
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
