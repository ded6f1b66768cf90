//! Streaming-vs-batch equivalence suite.
//!
//! `SpecHd::run_streaming` promises **bit-identical** results to
//! `SpecHd::run` on the same input sequence, for every worker count. This
//! suite enforces the promise across workers {1, 2, 4}, plus the
//! degenerate shapes: an empty stream, a single-shard dataset, a
//! mass-sorted stream (early shard retirement), and a channel-fed producer
//! thread.

use spechd_core::{SpecHd, SpecHdConfig, StreamConfig};
use spechd_ms::stream::{sort_dataset_by_mass, AssertSorted, ChannelStream, DatasetStream};
use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};
use spechd_ms::{Peak, Precursor, Spectrum, SpectrumDataset};
use spechd_tests::{assert_equivalent, synthetic_dataset as dataset};

#[test]
fn equivalence_across_workers() {
    let ds = dataset(400, 0x5EED);
    let engine = SpecHd::new(SpecHdConfig::default());
    let batch = engine.run(&ds);
    for workers in [1usize, 2, 4] {
        let cfg = StreamConfig {
            workers,
            keep_hypervectors: true,
        };
        let streamed = engine.run_streaming(DatasetStream::new(&ds), &cfg);
        assert_equivalent(&streamed, &batch, &format!("workers={workers}"));
    }
}

#[test]
fn equivalence_on_the_hard_preset() {
    // Confusable peptide families and heavy noise: the regime where a
    // subtle ordering bug would actually flip a merge decision.
    let ds = SyntheticGenerator::new(SyntheticConfig::hard(500, 77)).generate();
    let engine = SpecHd::new(SpecHdConfig::default());
    let batch = engine.run(&ds);
    let cfg = StreamConfig {
        workers: 3,
        keep_hypervectors: true,
    };
    let streamed = engine.run_streaming(DatasetStream::new(&ds), &cfg);
    assert_equivalent(&streamed, &batch, "hard");
}

#[test]
fn empty_stream_yields_empty_outcome() {
    let ds = SpectrumDataset::new();
    let engine = SpecHd::new(SpecHdConfig::default());
    let batch = engine.run(&ds);
    let streamed = engine.run_streaming(DatasetStream::new(&ds), &StreamConfig::default());
    assert_equivalent(&streamed, &batch, "empty stream");
    assert!(streamed.outcome.assignment().is_empty());
    assert_eq!(streamed.outcome.assignment().num_clusters(), 0);
    assert!(streamed.outcome.consensus().is_empty());
    assert_eq!(streamed.stream.shards_opened, 0);
}

#[test]
fn single_shard_dataset_round_trips() {
    // Identical precursors: everything routes into exactly one shard.
    let mut ds = SpectrumDataset::new();
    for i in 0..40 {
        let peaks: Vec<Peak> = (0..30)
            .map(|j| Peak::new(250.0 + 10.0 * j as f64 + 0.01 * i as f64, 10.0 + j as f32))
            .collect();
        ds.push(
            Spectrum::new(format!("s{i}"), Precursor::new(640.25, 2).unwrap(), peaks).unwrap(),
            Some(i % 3),
        );
    }
    let engine = SpecHd::new(SpecHdConfig::default());
    let batch = engine.run(&ds);
    let cfg = StreamConfig {
        workers: 2,
        keep_hypervectors: true,
    };
    let streamed = engine.run_streaming(DatasetStream::new(&ds), &cfg);
    assert_equivalent(&streamed, &batch, "single shard");
    assert_eq!(streamed.stream.shards_opened, 1);
    assert_eq!(
        streamed.stream.peak_shard_rows,
        streamed.outcome.kept().len()
    );
}

#[test]
fn sorted_stream_equivalent_with_early_retirement() {
    // Batch-run the mass-sorted dataset, then stream it with the sorted
    // hint: shards retire as soon as a heavier spectrum arrives, which is
    // the ingest/clustering-overlap path.
    let ds = sort_dataset_by_mass(&dataset(350, 0xBEEF));
    let engine = SpecHd::new(SpecHdConfig::default());
    let batch = engine.run(&ds);
    for workers in [1usize, 4] {
        let cfg = StreamConfig {
            workers,
            keep_hypervectors: true,
        };
        let streamed = engine.run_streaming(AssertSorted::new(DatasetStream::new(&ds)), &cfg);
        assert_equivalent(&streamed, &batch, &format!("sorted workers={workers}"));
        assert!(
            streamed.stream.early_closed_shards >= streamed.stream.shards_opened - 1,
            "sorted stream must retire shards before end-of-stream"
        );
        assert_eq!(streamed.stream.peak_open_shards, 1);
    }
}

#[test]
fn channel_fed_stream_matches_batch() {
    // A producer thread pushes spectra through an mpsc channel while the
    // pipeline clusters from the receiving end — the async-ingest shape.
    let ds = dataset(250, 0xFEED);
    let engine = SpecHd::new(SpecHdConfig::default());
    let batch = engine.run(&ds);
    let (tx, rx) = std::sync::mpsc::channel();
    let producer = {
        let ds = ds.clone();
        std::thread::spawn(move || {
            for (s, label) in ds.iter() {
                tx.send((s.clone(), label)).unwrap();
            }
        })
    };
    let streamed = engine.run_streaming(ChannelStream::new(rx), &StreamConfig::default());
    producer.join().unwrap();
    assert_equivalent(&streamed, &batch, "channel stream");
    assert_eq!(streamed.stream.spectra_streamed, ds.len());
}

#[test]
fn synthetic_stream_source_matches_batch_of_generated_dataset() {
    // The lazy synthetic source yields the same sequence generate() would
    // materialize, so streaming it must equal batch-running the dataset.
    let generator = SyntheticGenerator::new(SyntheticConfig {
        num_spectra: 300,
        num_peptides: 60,
        seed: 0xD00D,
        ..SyntheticConfig::default()
    });
    let engine = SpecHd::new(SpecHdConfig::default());
    let batch = engine.run(&generator.generate());
    let streamed = engine.run_streaming(generator.stream(), &StreamConfig::default());
    assert_equivalent(&streamed, &batch, "synthetic stream");
}
