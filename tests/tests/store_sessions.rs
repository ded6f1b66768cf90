//! Incremental-clustering-as-a-service acceptance suite.
//!
//! The served store path must be **bit-identical** to driving the
//! library directly: the same installments submitted through
//! `StoreClient` over SPHD — across two server processes sharing one
//! backing file, with a proxy-injected disconnect mid-session — must
//! produce the same kept sets, the same stable labels, and a persisted
//! SHPK file byte-equal to one written by a local
//! [`SpecHd::run_incremental`] loop. Around that core sit the session
//! arbitration contracts: a second writer is shed with the retryable
//! `StoreBusy`, a mismatched config with the fatal `ConfigMismatch`,
//! and a connection killed around a `RefreshStore` admin frame never
//! corrupts the store.

use spechd_core::{ClusterStore, SpecHd};
use spechd_ms::SpectrumDataset;
use spechd_server::protocol::encode_frame;
use spechd_server::{ErrorCode, Frame, JobConfig, RetryPolicy, StoreAckFrame, StoreClient};
use spechd_tests::proxy::{FaultProxy, ProxyPlan};
use spechd_tests::{
    assert_field, assert_same, installments, refused, store_server, Data, Gen, TempDir,
};
use std::time::Duration;

const GRACE: Duration = Duration::from_millis(200);

/// `k` contiguous installments of the standard synthetic dataset, and its name.
fn parts(n: usize, seed: u64, k: usize) -> (Vec<SpectrumDataset>, String) {
    let data = Data::new(Gen::Standard, n, seed);
    (installments(&data, k), data.name)
}

/// The acceptance core: two server processes over one backing file, a
/// proxy-injected mid-session disconnect, and byte-equality of the
/// persisted SHPK against a local library run of the same installments.
#[test]
fn served_sessions_are_bit_identical_to_library_across_restart_and_disconnect() {
    let dir = TempDir::new("sessions-acc");
    let (parts, name) = parts(600, 41, 4);
    let config = JobConfig::default();
    let client_id = 0xACC_0001;

    // The library reference: the same installments, driven locally, and
    // its SHPK bytes after the first two.
    let engine = SpecHd::new(config.pipeline_config());
    let mut lib_store = engine.new_store_keeping_rows().unwrap();
    let mut lib_after_two = Vec::new();
    let lib_outcomes: Vec<_> = parts
        .iter()
        .enumerate()
        .map(|(i, part)| {
            let outcome = engine.run_incremental(&mut lib_store, part).unwrap();
            if i == 1 {
                lib_after_two = lib_store.to_bytes();
            }
            outcome
        })
        .collect();
    // One session's installments, each ack against the library's.
    let session = |addr, installments: std::ops::Range<usize>, what: &str| {
        let retry = RetryPolicy::default();
        let mut client =
            StoreClient::connect_with(addr, "acc", config.clone(), client_id, retry).expect(what);
        let opened = client.opened().spectra;
        for i in installments {
            let ack = client
                .submit_incremental(parts[i].spectra().to_vec())
                .expect("installment");
            let path = format!("ServedIncremental, {what}, installment {i}");
            assert_same(&path, &name, &(&ack).into(), &(&lib_outcomes[i]).into());
        }
        (client, opened)
    };
    let persisted = |lib: &[u8], when: &str| {
        let disk = std::fs::read(dir.join("acc.shpk")).expect("persisted file");
        let path = format!("ServedIncremental, {when}");
        assert_field(&path, &name, "SHPK bytes", disk.as_slice(), lib);
    };

    // Session 1: first two installments, persisted, server stops.
    let server = store_server(&dir, GRACE);
    let (mut client, opened) = session(server.addr(), 0..2, "session 1");
    assert_eq!(opened, 0, "fresh store");
    let ack = client.persist().expect("persist");
    assert_eq!((ack.persisted, ack.dirty), (1, 0));
    drop(client);
    server.shutdown();
    // The persisted file equals the library store at the same point.
    persisted(&lib_after_two, "session 1");

    // Session 2: a NEW server process loads the same file; the client
    // talks through a fault proxy that kills the connection mid-stream,
    // exercising reconnect-and-resume inside the session.
    let server = store_server(&dir, GRACE);
    let proxy = FaultProxy::start(server.addr()).expect("start proxy");
    // Let the OpenStore ack through, then cut the server-to-client
    // leg inside the first large IncrementalAck — the client must
    // reconnect, resume its session, and re-send the installment
    // under the same sequence number (re-acked, never re-ingested).
    proxy.push_plan(ProxyPlan::kill_server_to_client_after(200));
    let (mut client, opened) = session(proxy.addr(), 2..4, "session 2");
    let after_two = lib_outcomes[1].base_id() + lib_outcomes[1].kept().len() as u64;
    assert_eq!(opened, after_two, "session 2 opens on session 1's archive");
    assert!(
        client.reconnects() > 0,
        "the proxy cut must have forced a resume"
    );
    let ack = client.persist().expect("persist");
    assert_eq!(ack.spectra, lib_store.next_spectrum_id());
    assert_eq!(ack.clusters, lib_store.num_clusters() as u64);
    drop(client);
    proxy.shutdown();
    server.shutdown();

    // Final byte-equality: the served path's backing file IS the
    // library store, bit for bit — and it loads checksum-clean.
    persisted(&lib_store.to_bytes(), "session 2");
    ClusterStore::load(dir.join("acc.shpk")).expect("final file loads clean");
}

#[test]
fn second_writer_is_shed_with_retryable_store_busy() {
    let dir = TempDir::new("sessions-busy");
    let server = store_server(&dir, GRACE);
    let config = JobConfig::default();

    let addr = server.addr();
    let holder = StoreClient::connect_with(addr, "busy", config.clone(), 1, RetryPolicy::none())
        .expect("first writer");
    let second = StoreClient::connect_with(addr, "busy", config.clone(), 2, RetryPolicy::none());
    let err = refused(second, ErrorCode::StoreBusy);
    assert!(err.is_retryable(), "StoreBusy is retryable by contract");

    // Once the holder disconnects and its rejoin grace lapses, a
    // retrying second writer gets the store.
    drop(holder);
    let mut second =
        StoreClient::connect_with(server.addr(), "busy", config, 2, RetryPolicy::default())
            .expect("retry waits out the grace");
    second.stats().expect("session works");
    drop(second);
    server.shutdown();
}

#[test]
fn mismatched_config_is_fatal_config_mismatch() {
    let dir = TempDir::new("sessions-cfg");
    let server = store_server(&dir, GRACE);
    let config = JobConfig::default();
    let holder =
        StoreClient::connect_with(server.addr(), "cfg", config.clone(), 1, RetryPolicy::none())
            .expect("open");
    drop(holder);
    std::thread::sleep(Duration::from_millis(300));

    let other = JobConfig {
        resolution: config.resolution * 2.0,
        ..config
    };
    let mismatched = StoreClient::connect_with(server.addr(), "cfg", other, 2, RetryPolicy::none());
    let err = refused(mismatched, ErrorCode::ConfigMismatch);
    assert!(!err.is_retryable(), "ConfigMismatch is fatal");
    server.shutdown();
}

/// A connection killed around a `RefreshStore` admin frame — in either
/// direction — leaves the store consistent: the session resumes, the
/// refresh settles to its fixed point, and the persisted file loads
/// checksum-clean with every member still labelled exactly once.
///
/// The proxy schedules faults per connection, by byte count, so the
/// test encodes the exact frames the client will send to land the cuts
/// where it wants them: connection 1 dies a few bytes into the
/// `RefreshStore` *request* (the frame arrives truncated, the pass
/// never runs), and connection 2 — the resume — dies a few bytes into
/// the refresh *ack*, after the pass ran server-side, forcing the
/// retry to re-run the idempotent pass on connection 3.
#[test]
fn connection_kill_around_refresh_never_corrupts_the_store() {
    let dir = TempDir::new("sessions-refresh");
    let server = store_server(&dir, GRACE);
    let config = JobConfig::default();
    let (parts, _) = parts(400, 42, 3);

    // Byte budgets, computed from the deterministic wire encoding.
    let open = encode_frame(&Frame::OpenStore {
        name: "refresh".into(),
        client_id: 7,
        config: config.clone(),
    });
    let submits: u64 = parts
        .iter()
        .enumerate()
        .map(|(seq, part)| {
            encode_frame(&Frame::SubmitIncremental {
                name: "refresh".into(),
                seq: seq as u64,
                spectra: part.spectra().to_vec(),
            })
            .len() as u64
        })
        .sum();
    // StoreAck frames are fixed-width apart from the name, so any
    // counter values give the right length.
    let store_ack = encode_frame(&Frame::StoreAck(StoreAckFrame {
        name: "refresh".into(),
        dim: 0,
        fingerprint: 0,
        spectra: 0,
        buckets: 0,
        clusters: 0,
        keeps_member_rows: 0,
        dirty: 0,
        persisted: 0,
        refreshed: 0,
        merged: 0,
    }));

    let proxy = FaultProxy::start(server.addr()).expect("start proxy");
    // Connection 1: everything up to and including the last installment
    // goes through; the RefreshStore frame is cut 4 bytes in.
    proxy.push_plan(ProxyPlan::kill_client_to_server_after(
        open.len() as u64 + submits + 4,
    ));
    // Connection 2 (the resume): the re-open's StoreAck goes through;
    // the refresh ack is cut 4 bytes in — after the pass ran.
    proxy.push_plan(ProxyPlan::kill_server_to_client_after(
        store_ack.len() as u64 + 4,
    ));
    let mut client = StoreClient::connect_with(
        proxy.addr(),
        "refresh",
        config.clone(),
        7,
        RetryPolicy::default(),
    )
    .expect("open store");
    let mut total = 0u64;
    for part in &parts {
        let ack = client
            .submit_incremental(part.spectra().to_vec())
            .expect("installment");
        total = ack.total_spectra;
    }

    let ack = client.refresh().expect("refresh survives both cuts");
    assert_eq!(ack.spectra, total, "refresh loses no spectra");
    assert!(
        client.reconnects() >= 2,
        "both cuts must have forced a resume (got {})",
        client.reconnects()
    );

    // A refreshed store is a fixed point: one more refresh is a no-op.
    let again = client.refresh().expect("second refresh");
    assert_eq!(again.refreshed, 0);
    assert_eq!(again.merged, 0);
    assert_eq!(again.clusters, ack.clusters);

    let persisted = client.persist().expect("persist");
    assert_eq!(persisted.spectra, total);
    drop(client);
    proxy.shutdown();
    server.shutdown();

    // The file is checksum-clean and internally consistent.
    let store = ClusterStore::load(dir.join("refresh.shpk")).expect("clean load");
    let (assignment, medoids) = store.union_assignment().expect("consistent membership");
    assert_eq!(assignment.len() as u64, total);
    assert_eq!(medoids.len(), store.num_clusters());
}
