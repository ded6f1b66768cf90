//! A store that left the server comes back from its file. Four stores go
//! through persisted sessions one after another, so the first is idle
//! and dropped by the time it is reopened. Before that reopen its
//! `.shpk` is replaced by a different archive of the same config; the
//! next installment must then ack, and persist, exactly what a library
//! twin does: `run_incremental` on that archive loaded with
//! `ClusterStore::load`. A server that kept the first store resident
//! would continue from its own archive instead.

use spechd_core::{ClusterStore, SpecHd};
use spechd_ms::Spectrum;
use spechd_server::{JobConfig, RetryPolicy, StoreClient};
use spechd_tests::{assert_field, assert_same, store_server, Data, Gen, TempDir};
use std::time::Duration;

#[test]
fn an_evicted_store_reopens_bit_identical_to_a_library_twin() {
    let dir = TempDir::new("store-eviction");
    let server = store_server(&dir, Duration::ZERO);
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
        session(
            name,
            i as u64 + 1,
            Data::new(Gen::Dense, 80, 10 + i as u64).spectra(),
        );
    }

    let engine = SpecHd::new(config.pipeline_config());
    let mut other = engine.new_store_keeping_rows().expect("fresh store");
    engine
        .run_incremental(&mut other, &Data::new(Gen::Dense, 160, 1))
        .expect("other archive");
    let path = dir.join("s0.shpk");
    other.save(&path).expect("replace the idle store's file");
    let mut twin = ClusterStore::load(&path).expect("load the twin");

    let next = Data::new(Gen::Dense, 80, 2);
    let served = session("s0", 9, next.spectra());
    let outcome = engine
        .run_incremental(&mut twin, &next)
        .expect("next installment");

    assert_eq!((served.name.as_str(), served.seq), ("s0", 0));
    let path_name = "ServedIncremental, after eviction";
    assert_same(path_name, &next.name, &(&served).into(), &(&outcome).into());
    let totals = (served.total_spectra, served.total_clusters);
    assert_eq!(
        totals,
        (twin.next_spectrum_id(), twin.num_clusters() as u64)
    );
    let persisted = std::fs::read(&path).expect("read the served archive");
    assert_field(
        path_name,
        &next.name,
        "SHPK bytes",
        &persisted,
        &twin.to_bytes(),
    );

    server.shutdown();
}
