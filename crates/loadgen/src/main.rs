//! `spechd-loadgen`: self-checking concurrent load driver for
//! `spechd-server`.
//!
//! Drives a grid of *connections × batch size* scenarios against a
//! running server. Every scenario submits one synthetic dataset through
//! one shared job from `C` concurrent connections (round-robin split,
//! disjoint slices), measures per-batch submit→ack round-trip latency
//! and sustained ingest throughput, and then **verifies** that the
//! reassembled served clustering is bit-identical to a local batch
//! `SpecHd::run` over the same spectra in the same stream order — any
//! divergence panics, so the exit code is the result. One line per
//! scenario reports sustained spectra/s and submit RTT p50/p99; numbers
//! to compare across commits come from `benchmark/`, not from here.

#![forbid(unsafe_code)]

use spechd_core::{SpecHd, SpecHdOutcome};
use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};
use spechd_ms::{Spectrum, SpectrumDataset};
use spechd_server::{JobClient, JobConfig, ServiceOutcome};
use std::sync::Barrier;
use std::time::Instant;

const USAGE: &str = "\
spechd-loadgen — self-checking concurrent load driver for spechd-server

USAGE:
    spechd-loadgen --addr HOST:PORT [OPTIONS]

OPTIONS:
    --addr HOST:PORT     Server address (required)
    --smoke              Small CI grid: 1200 spectra, 1 and 4
                         connections, batch 8 (default grid: 4000
                         spectra, {1,2,4} connections × batch {16,64})
    --help               Show this help
";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

struct Scenario {
    connections: usize,
    batch: usize,
}

/// What one client connection did: which dataset indices it submitted
/// at which stream base, every submit RTT, and the outcome it
/// reassembled from the result stream.
struct ClientReport {
    placements: Vec<(u64, Vec<usize>)>,
    latencies_ns: Vec<u128>,
    outcome: ServiceOutcome,
}

fn percentile(sorted: &[u128], p: usize) -> u128 {
    assert!(!sorted.is_empty());
    sorted[(sorted.len() * p / 100).min(sorted.len() - 1)]
}

/// Runs one scenario: C connections submit disjoint round-robin slices
/// of `dataset` into one job, then everybody waits for the results.
fn run_scenario(
    addr: &str,
    job_id: u64,
    dataset: &SpectrumDataset,
    scenario: &Scenario,
) -> (Vec<ClientReport>, u128) {
    let spectra = dataset.spectra();
    // Every client joins before any submits: one that submitted and
    // closed before a slower sibling's `OpenJob` would let the job
    // finalize under it.
    let joined = &Barrier::new(scenario.connections);
    let started = Instant::now();
    let reports: Vec<ClientReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..scenario.connections)
            .map(|conn| {
                scope.spawn(move || {
                    let client = JobClient::connect(addr, job_id, JobConfig::default());
                    joined.wait();
                    let mut client = client.unwrap_or_else(|e| panic!("connect {addr}: {e}"));
                    let slice: Vec<usize> = (conn..spectra.len())
                        .step_by(scenario.connections)
                        .collect();
                    let mut placements = Vec::new();
                    let mut latencies_ns = Vec::new();
                    for batch_indices in slice.chunks(scenario.batch) {
                        let batch: Vec<Spectrum> =
                            batch_indices.iter().map(|&i| spectra[i].clone()).collect();
                        let t0 = Instant::now();
                        let receipt = client
                            .submit(batch)
                            .unwrap_or_else(|e| panic!("submit: {e}"));
                        latencies_ns.push(t0.elapsed().as_nanos());
                        assert_eq!(receipt.count as usize, batch_indices.len());
                        placements.push((receipt.base, batch_indices.to_vec()));
                    }
                    let outcome = client
                        .close_and_wait()
                        .unwrap_or_else(|e| panic!("close_and_wait: {e}"));
                    ClientReport {
                        placements,
                        latencies_ns,
                        outcome,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (reports, started.elapsed().as_nanos())
}

/// Reconstructs the union dataset in stream order from the clients'
/// submit receipts, runs the local batch pipeline on it, and asserts
/// the served outcome is bit-identical.
fn verify_equivalence(
    engine: &SpecHd,
    dataset: &SpectrumDataset,
    reports: &[ClientReport],
    context: &str,
) {
    let total = dataset.len();
    let mut order: Vec<Option<usize>> = vec![None; total];
    for report in reports {
        for (base, indices) in &report.placements {
            for (offset, &dataset_index) in indices.iter().enumerate() {
                let slot = *base as usize + offset;
                assert!(
                    order[slot].is_none(),
                    "{context}: stream slot {slot} double-booked"
                );
                order[slot] = Some(dataset_index);
            }
        }
    }
    let mut union = SpectrumDataset::new();
    for slot in order {
        let i = slot.expect("stream slot never assigned");
        union.push(dataset.spectra()[i].clone(), dataset.labels()[i]);
    }
    let batch: SpecHdOutcome = engine.run(&union);

    let served = &reports[0].outcome;
    for (c, other) in reports.iter().enumerate().skip(1) {
        assert_eq!(
            &other.outcome, served,
            "{context}: participant {c} reassembled a different outcome"
        );
    }
    let served_kept: Vec<usize> = served.kept.iter().map(|&i| i as usize).collect();
    assert_eq!(served_kept, batch.kept(), "{context}: kept set differs");
    assert_eq!(
        served.labels,
        batch.assignment().labels(),
        "{context}: labels differ"
    );
    let served_consensus: Vec<usize> = served.consensus.iter().map(|&i| i as usize).collect();
    assert_eq!(
        served_consensus,
        batch.consensus(),
        "{context}: consensus differs"
    );
    assert_eq!(
        served.stats.clusters as usize,
        batch.assignment().num_clusters(),
        "{context}: cluster count differs"
    );
}

fn main() {
    let mut addr: Option<String> = None;
    let mut smoke = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(value) => addr = Some(value),
                None => fail("--addr needs a value"),
            },
            "--smoke" => smoke = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }
    let Some(addr) = addr else {
        fail("--addr is required");
    };

    let num_spectra = if smoke { 1200 } else { 4000 };
    let scenarios: Vec<Scenario> = if smoke {
        vec![(1, 8), (4, 8)]
    } else {
        vec![(1, 16), (2, 16), (4, 16), (1, 64), (2, 64), (4, 64)]
    }
    .into_iter()
    .map(|(connections, batch)| Scenario { connections, batch })
    .collect();

    let dataset = SyntheticGenerator::new(SyntheticConfig {
        num_spectra,
        num_peptides: (num_spectra / 4).max(1),
        seed: 0x10AD_6E40,
        ..SyntheticConfig::default()
    })
    .generate();
    let engine = SpecHd::new(JobConfig::default().pipeline_config());

    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
        ^ (u64::from(std::process::id()) << 32);
    for (k, scenario) in scenarios.iter().enumerate() {
        let tag = format!("c{}_b{}", scenario.connections, scenario.batch);
        let job_id = nonce.wrapping_add(1 + k as u64);
        let (reports, wall_ns) = run_scenario(&addr, job_id, &dataset, scenario);
        verify_equivalence(&engine, &dataset, &reports, &tag);

        let mut latencies: Vec<u128> = reports
            .iter()
            .flat_map(|r| r.latencies_ns.iter().copied())
            .collect();
        latencies.sort_unstable();
        let p50 = percentile(&latencies, 50);
        let p99 = percentile(&latencies, 99);
        let spectra_per_s = 1_000_000_000.0 * num_spectra as f64 / wall_ns as f64;
        println!(
            "{tag}: {spectra_per_s:.0} spectra/s sustained, submit RTT p50 {:.2} ms / p99 {:.2} ms, equivalence verified",
            p50 as f64 / 1e6,
            p99 as f64 / 1e6,
        );
    }
}
