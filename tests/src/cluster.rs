//! The clustering paths table.

use crate::fixtures::{job_id, serve, Data};
use crate::projection::{assert_same, Outcome};
use spechd_core::{
    ClusterStore, IncrementalOutcome, SpecHd, SpecHdConfig, SpecHdOutcome, StreamConfig,
};
use spechd_metrics::EquivalenceGate;
use spechd_ms::stream::{AssertSorted, ChannelStream, DatasetStream};
use spechd_ms::{Spectrum, SpectrumDataset};
use spechd_server::{
    JobClient, JobConfig, ServerConfig, ServiceOutcome, StoreClient, SubmitReceipt,
};
use std::sync::Barrier;

/// The engine every path's reference runs: the default configuration,
/// which is also what a default served job runs.
pub fn engine() -> SpecHd {
    SpecHd::new(SpecHdConfig::default())
}

/// Asserts a served job's outcome equals batch `SpecHd::run` over the
/// spectra in the order the job streamed them.
pub fn assert_served(path: &str, data: &Data, outcome: &ServiceOutcome, order: &SpectrumDataset) {
    assert_eq!(
        JobConfig::default().pipeline_config(),
        SpecHdConfig::default()
    );
    let want = Outcome::from(&engine().run(order));
    assert_same(path, &data.name, &outcome.into(), &want);
}

/// The clustering paths table: every way the workspace clusters a
/// dataset, each bit-identical to batch `SpecHd::run` over the spectra in
/// the order the path streamed them.
#[derive(Debug, Clone, Copy)]
pub enum Path {
    /// `run_streaming` over the dataset in order, at this many workers.
    Streaming(usize),
    /// `run_streaming` over an [`AssertSorted`] stream: the dataset must
    /// be mass-sorted, and shards retire before the stream ends.
    Sorted(usize),
    /// A producer thread feeding a [`ChannelStream`].
    Channel,
    /// The dataset's own generator as a lazy stream.
    SyntheticStream,
    /// This many concurrent `JobClient`s on one served job.
    Served(usize),
    /// `run_incremental`: one installment into an empty store.
    Incremental,
    /// `StoreClient::submit_incremental`: one installment into an empty
    /// served store.
    ServedIncremental,
}

/// Runs every path over `data` and compares each with batch, field by
/// field; returns the paths' outcomes in order.
pub fn assert_paths(data: &Data, paths: &[Path]) -> Vec<Outcome> {
    let engine = engine();
    let batch = Outcome::from(&engine.run(data));
    let path_name = |path: &Path| format!("{path:?}");
    paths
        .iter()
        .map(|path| match path {
            Path::Served(clients) => {
                let (outcome, order) = serve_concurrently(data, *clients);
                assert_served(&path_name(path), data, &outcome, &order);
                Outcome::from(&outcome)
            }
            _ => {
                let got = run(&engine, data, *path);
                assert_same(&path_name(path), &data.name, &got, &batch);
                got
            }
        })
        .collect()
}

fn run(engine: &SpecHd, data: &Data, path: Path) -> Outcome {
    let archived = |workers| StreamConfig {
        workers,
        keep_hypervectors: true,
    };
    let streamed = match path {
        Path::Streaming(workers) => {
            engine.run_streaming(DatasetStream::new(data), &archived(workers))
        }
        Path::Sorted(workers) => engine.run_streaming(
            AssertSorted::new(DatasetStream::new(data)),
            &archived(workers),
        ),
        Path::Channel => std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::channel();
            scope.spawn(move || {
                for (spectrum, label) in data.iter() {
                    tx.send((spectrum.clone(), label))
                        .expect("pipeline receives");
                }
            });
            engine.run_streaming(ChannelStream::new(rx), &StreamConfig::default())
        }),
        Path::SyntheticStream => {
            let generator = data.generator().expect("a generated dataset");
            engine.run_streaming(generator.stream(), &StreamConfig::default())
        }
        Path::Incremental => {
            let mut store = engine.new_store().expect("empty store");
            let installment = engine.run_incremental(&mut store, data);
            return (&installment.expect("installment")).into();
        }
        Path::ServedIncremental => {
            let server = serve(ServerConfig::default());
            let mut client = StoreClient::connect(server.addr(), "k1", JobConfig::default())
                .expect("open store");
            let ack = client.submit_incremental(data.spectra().to_vec());
            drop(client);
            server.shutdown();
            return (&ack.expect("installment")).into();
        }
        Path::Served(_) => unreachable!("served paths compare against their own stream order"),
    };
    Outcome {
        stream: Some(streamed.stream),
        ..(&streamed.outcome).into()
    }
}

/// Submit receipts paired with the dataset indices they placed.
pub type Placements = Vec<(SubmitReceipt, Vec<usize>)>;

/// Submits `dataset`'s round-robin slice `conn` of `connections` in
/// `batch`-sized submits.
pub fn submit_slice(
    client: &mut JobClient,
    dataset: &SpectrumDataset,
    conn: usize,
    connections: usize,
    batch: usize,
) -> Placements {
    let indices: Vec<usize> = (conn..dataset.len()).step_by(connections).collect();
    indices
        .chunks(batch)
        .map(|chunk| {
            let spectra: Vec<Spectrum> = chunk
                .iter()
                .map(|&i| dataset.spectra()[i].clone())
                .collect();
            let receipt = client.submit(spectra).expect("submit");
            assert_eq!(receipt.count as usize, chunk.len());
            (receipt, chunk.to_vec())
        })
        .collect()
}

/// The dataset's spectra in the stream order the receipts placed them.
pub fn union_in_stream_order(
    dataset: &SpectrumDataset,
    placements: &Placements,
) -> SpectrumDataset {
    let mut order: Vec<Option<usize>> = vec![None; dataset.len()];
    for (receipt, indices) in placements {
        for (offset, &index) in indices.iter().enumerate() {
            let slot = receipt.base as usize + offset;
            assert!(order[slot].is_none(), "stream slot {slot} double-booked");
            order[slot] = Some(index);
        }
    }
    let mut union = SpectrumDataset::new();
    for index in order.into_iter().flatten() {
        union.push(dataset.spectra()[index].clone(), dataset.labels()[index]);
    }
    assert_eq!(union.len(), dataset.len(), "every spectrum placed");
    union
}

/// `clients` concurrent participants of one job on a fresh server, each
/// submitting its round-robin slice in batches of 13 once all have
/// joined. Every participant must reassemble the same outcome.
fn serve_concurrently(data: &Data, clients: usize) -> (ServiceOutcome, SpectrumDataset) {
    let server = serve(ServerConfig::default());
    let (addr, job) = (server.addr(), job_id(clients as u64));
    // A client that closed before the last one joined would let the job
    // finalize without it.
    let joined = Barrier::new(clients);
    let results: Vec<(Placements, ServiceOutcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|conn| {
                let joined = &joined;
                scope.spawn(move || {
                    let mut client =
                        JobClient::connect(addr, job, JobConfig::default()).expect("connect");
                    joined.wait();
                    let placements = submit_slice(&mut client, data, conn, clients, 13);
                    assert!(client.flush().expect("flush").submitted > 0);
                    (placements, client.close_and_wait().expect("close_and_wait"))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("participant"))
            .collect()
    });
    server.shutdown();
    let outcome = results[0].1.clone();
    for (c, (_, other)) in results.iter().enumerate() {
        assert_eq!(
            other, &outcome,
            "participant {c} reassembled a different outcome"
        );
    }
    assert_eq!(
        (outcome.stats.done, outcome.stats.submitted),
        (1, data.len() as u64)
    );
    let placements: Placements = results.into_iter().flat_map(|(p, _)| p).collect();
    (outcome, union_in_stream_order(data, &placements))
}

/// Runs `parts` into `store` in order and returns the last installment's
/// outcome, which holds the whole union's assignment.
pub fn run_installments(
    engine: &SpecHd,
    store: &mut ClusterStore,
    parts: &[SpectrumDataset],
) -> IncrementalOutcome {
    let mut last = None;
    for part in parts {
        last = Some(engine.run_incremental(store, part).expect("installment"));
    }
    last.expect("at least one installment")
}

/// Asserts an approximate path's `labels` (over batch's kept spectra, in
/// batch order) pass [`EquivalenceGate`] against `batch` on `data`,
/// graded on the dataset's ground truth.
pub fn assert_gate(path: &str, data: &Data, labels: &[usize], batch: &SpecHdOutcome) {
    let truth: Vec<Option<u32>> = batch.kept().iter().map(|&i| data.labels()[i]).collect();
    let report = EquivalenceGate::default().check(labels, batch.assignment().labels(), &truth);
    assert!(
        report.passed(),
        "({path}, {}, gate): violations {:?} (NMI {:.4}, ARI {:.4}, v {:.4} vs {:.4}, icr {:.4} vs {:.4})",
        data.name,
        report.violations,
        report.agreement.nmi,
        report.agreement.ari,
        report.incremental.v_measure,
        report.batch.v_measure,
        report.incremental.incorrect_ratio,
        report.batch.incorrect_ratio,
    );
    println!("({path}, {}, gate)", data.name);
}
