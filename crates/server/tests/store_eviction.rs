//! A store that left the server comes back from its file. Four stores go
//! through persisted sessions one after another, so the first is idle
//! and dropped by the time it is reopened. Before that reopen its
//! `.shpk` is replaced by a different archive of the same config; the
//! next installment must then ack, and persist, exactly what a library
//! twin does: `run_incremental` on that archive loaded with
//! `ClusterStore::load`. A server that kept the first store resident
//! would continue from its own archive instead.

use spechd_core::{ClusterStore, SpecHd};
use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};
use spechd_ms::{Spectrum, SpectrumDataset};
use spechd_server::{
    IncrementalAckFrame, JobConfig, RetryPolicy, Server, ServerConfig, StoreClient,
};
use std::path::PathBuf;
use std::time::Duration;

fn spectra(n: usize, seed: u64) -> Vec<Spectrum> {
    SyntheticGenerator::new(SyntheticConfig {
        num_spectra: n,
        num_peptides: n / 4,
        seed,
        ..SyntheticConfig::default()
    })
    .generate()
    .spectra()
    .to_vec()
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "spechd-store-eviction-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).expect("create the store directory");
    dir
}

#[test]
fn an_evicted_store_reopens_bit_identical_to_a_library_twin() {
    let dir = temp_dir();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            store_dir: Some(dir.clone()),
            rejoin_grace: Duration::ZERO,
            ..ServerConfig::default()
        },
    )
    .and_then(Server::spawn)
    .expect("bind and spawn");
    let config = JobConfig::default();
    // A session that finds the previous one's hang-up still in flight is
    // told `StoreBusy` and retries.
    let retry = RetryPolicy {
        max_retries: 50,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(20),
    };
    let session = |name: &str, client_id: u64, installment: &[Spectrum]| {
        let mut client =
            StoreClient::connect_with(server.addr(), name, config.clone(), client_id, retry)
                .expect("open");
        let ack = client
            .submit_incremental(installment.to_vec())
            .expect("submit");
        client.persist().expect("persist");
        ack
    };

    for (i, name) in ["s0", "s1", "s2", "s3"].into_iter().enumerate() {
        session(name, i as u64 + 1, &spectra(80, 10 + i as u64));
    }

    let engine = SpecHd::new(config.pipeline_config());
    let mut other = engine.new_store_keeping_rows().expect("fresh store");
    engine
        .run_incremental(&mut other, &SpectrumDataset::from_spectra(spectra(160, 1)))
        .expect("other archive");
    let path = dir.join("s0.shpk");
    other.save(&path).expect("replace the idle store's file");
    let mut twin = ClusterStore::load(&path).expect("load the twin");

    let next = spectra(80, 2);
    let served = session("s0", 9, &next);
    let outcome = engine
        .run_incremental(&mut twin, &SpectrumDataset::from_spectra(next))
        .expect("next installment");

    let stats = outcome.stats();
    let twin_ack = IncrementalAckFrame {
        name: "s0".into(),
        seq: 0,
        base_id: outcome.base_id(),
        kept: outcome.kept().iter().map(|&i| i as u32).collect(),
        labels: outcome
            .installment_labels()
            .iter()
            .map(|&l| l as u64)
            .collect(),
        absorbed: stats.absorbed as u64,
        residual: stats.residual as u64,
        new_clusters: stats.new_clusters as u64,
        total_spectra: twin.next_spectrum_id(),
        total_clusters: twin.num_clusters() as u64,
    };
    assert_eq!(served, twin_ack);
    let persisted = std::fs::read(&path).expect("read the served archive");
    assert!(
        persisted == twin.to_bytes(),
        "persisted bytes differ from the twin's"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
