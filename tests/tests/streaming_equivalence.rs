//! Streaming-vs-batch equivalence suite.
//!
//! `SpecHd::run_streaming` promises **bit-identical** results to
//! `SpecHd::run` on the same input sequence, for every worker count. This
//! suite enforces the promise across workers {1, 2, 4}, plus the
//! degenerate shapes: an empty stream, a single-shard dataset, a
//! mass-sorted stream (early shard retirement), and a channel-fed producer
//! thread.

use spechd_ms::{Peak, Precursor, Spectrum, SpectrumDataset};
use spechd_tests::{assert_paths, Data, Gen, Path};

#[test]
fn equivalence_across_workers() {
    let data = Data::new(Gen::Standard, 400, 0x5EED);
    assert_paths(
        &data,
        &[Path::Streaming(1), Path::Streaming(2), Path::Streaming(4)],
    );
}

#[test]
fn equivalence_on_the_hard_preset() {
    // Confusable peptide families and heavy noise: the regime where a
    // subtle ordering bug would actually flip a merge decision.
    assert_paths(&Data::new(Gen::Hard, 500, 77), &[Path::Streaming(3)]);
}

#[test]
fn empty_stream_yields_empty_outcome() {
    let data = Data::custom("empty", SpectrumDataset::new());
    let streamed = &assert_paths(&data, &[Path::Streaming(0)])[0];
    let empty = ["labels", "consensus"].map(|field| streamed.get::<Vec<usize>>(field));
    assert_eq!(empty, [Some(&Vec::new()); 2]);
    assert_eq!(streamed.get("clusters"), Some(&0u64));
    assert_eq!(streamed.stream.unwrap().shards_opened, 0);
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
    let streamed = &assert_paths(&Data::custom("single shard", ds), &[Path::Streaming(2)])[0];
    let stream = streamed.stream.unwrap();
    assert_eq!(stream.shards_opened, 1);
    let kept = stream.peak_shard_rows as u64;
    assert_eq!(streamed.get("kept count"), Some(&kept));
}

#[test]
fn sorted_stream_equivalent_with_early_retirement() {
    // Batch-run the mass-sorted dataset, then stream it with the sorted
    // hint: shards retire as soon as a heavier spectrum arrives, which is
    // the ingest/clustering-overlap path.
    let data = Data::new(Gen::Standard, 350, 0xBEEF).sorted();
    for streamed in assert_paths(&data, &[Path::Sorted(1), Path::Sorted(4)]) {
        let stream = streamed.stream.unwrap();
        assert!(
            stream.early_closed_shards >= stream.shards_opened - 1,
            "sorted stream must retire shards before end-of-stream"
        );
        assert_eq!(stream.peak_open_shards, 1);
    }
}

#[test]
fn channel_fed_stream_matches_batch() {
    // A producer thread pushes spectra through an mpsc channel while the
    // pipeline clusters from the receiving end — the async-ingest shape.
    let data = Data::new(Gen::Standard, 250, 0xFEED);
    let streamed = &assert_paths(&data, &[Path::Channel])[0];
    assert_eq!(streamed.stream.unwrap().spectra_streamed, data.len());
}

#[test]
fn synthetic_stream_source_matches_batch_of_generated_dataset() {
    // The lazy synthetic source yields the same sequence generate() would
    // materialize, so streaming it must equal batch-running the dataset.
    assert_paths(
        &Data::new(Gen::Standard, 300, 0xD00D),
        &[Path::SyntheticStream],
    );
}
