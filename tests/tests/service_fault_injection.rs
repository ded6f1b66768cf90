//! Chaos suite for the service path: every injected transport fault —
//! fragmented frames, mid-stream disconnects in either direction, lost
//! acks, load shedding — must leave the served outcome **bit-identical**
//! to the batch pipeline, or fail with a typed, classified error.
//!
//! The faults come from [`FaultProxy`], a byte-deterministic TCP proxy
//! between client and server: it splits frames at arbitrary byte
//! boundaries and kills connections after exact byte counts, so each
//! scenario replays identically. Recovery is the client's
//! [`RetryPolicy`] + `client_id`/sequence-number resume protocol; the
//! assertions then hold the repo's central promise against it.

use spechd_hdc::BinaryHypervector;
use spechd_rng::Xoshiro256StarStar;
use spechd_server::{
    ErrorCode, JobClient, JobConfig, LibraryEntryWire, QueryWire, RetryPolicy, SearchClient,
    ServerConfig, ServiceOutcome,
};
use spechd_tests::proxy::{FaultProxy, ProxyPlan};
use spechd_tests::{assert_same, assert_served, job_id, refused, serve, served_hits, Data, Gen};
use std::net::SocketAddr;
use std::time::Duration;

fn resilient_config() -> ServerConfig {
    ServerConfig {
        // Generous resume window so a CI hiccup between kill and
        // reconnect cannot close the slot under the test.
        rejoin_grace: Duration::from_secs(20),
        ..ServerConfig::default()
    }
}

/// Fast, deterministic backoff for tests.
fn test_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 8,
        base_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(200),
    }
}

/// Runs one full job through `addr`, submitting `dataset` in `batch`-
/// sized chunks on a single connection, and returns the reassembled
/// outcome. A single sequential submitter means stream order equals
/// dataset order, so the batch reference is simply `engine.run(dataset)`.
fn run_job_via(
    addr: SocketAddr,
    (job_id, client_id): (u64, u64),
    retry: RetryPolicy,
    dataset: &Data,
    batch: usize,
) -> (ServiceOutcome, u64) {
    let mut client = JobClient::connect_with(addr, job_id, JobConfig::default(), client_id, retry)
        .expect("connect");
    for chunk in dataset.spectra().chunks(batch) {
        client.submit(chunk.to_vec()).expect("submit");
    }
    let reconnects = client.reconnects();
    let outcome = client.close_and_wait().expect("close_and_wait");
    (outcome, reconnects)
}

/// Frames chopped into 512-byte TCP writes with a pause between them —
/// every frame arrives in many fragments at arbitrary boundaries — must
/// decode and cluster exactly as if they had arrived whole.
#[test]
fn fragmented_frames_reassemble_bit_identically() {
    let server = serve(resilient_config());
    let proxy = FaultProxy::start(server.addr()).expect("start proxy");
    proxy.push_plan(ProxyPlan::fragmented(512, Duration::from_millis(1)));

    let dataset = Data::new(Gen::Standard, 120, 0xFA07);
    let ids = (job_id(1), 0xF1);
    let (outcome, _) = run_job_via(proxy.addr(), ids, RetryPolicy::none(), &dataset, 30);
    assert_served("Served(1), fragmented frames", &dataset, &outcome, &dataset);
    proxy.shutdown();
    server.shutdown();
}

/// The connection dies mid-`Submit` (client→server byte budget lands
/// inside a frame). The client must reconnect, resume its slot, re-send
/// the unacknowledged batch — and the outcome must be bit-identical to
/// an undisturbed batch run: nothing lost, nothing ingested twice.
#[test]
fn mid_submit_disconnect_resumes_bit_identically() {
    let server = serve(resilient_config());
    let proxy = FaultProxy::start(server.addr()).expect("start proxy");
    // ~360 KB of submit traffic; the kill lands inside an early batch.
    proxy.push_plan(ProxyPlan::kill_client_to_server_after(60_000));

    let dataset = Data::new(Gen::Standard, 240, 0xC1A0);
    let ids = (job_id(2), 0xC0FFEE);
    let (outcome, reconnects) = run_job_via(proxy.addr(), ids, test_retry(), &dataset, 25);
    assert!(
        reconnects >= 1,
        "the kill must have forced at least one reconnect"
    );

    assert_served(
        "Served(1), mid-submit disconnect",
        &dataset,
        &outcome,
        &dataset,
    );
    proxy.shutdown();
    server.shutdown();
}

/// The connection dies while *results* stream back (server→client byte
/// budget). On rejoin the server replays its result archive; replayed
/// duplicates must be absorbed idempotently and the final outcome stay
/// bit-identical.
#[test]
fn result_stream_disconnect_replays_bit_identically() {
    let server = serve(resilient_config());
    let proxy = FaultProxy::start(server.addr()).expect("start proxy");
    // Acks for open + a few submits come first; 1500 bytes lands inside
    // the assignment/consensus stream for this dataset.
    proxy.push_plan(ProxyPlan::kill_server_to_client_after(1_500));

    let dataset = Data::new(Gen::Standard, 240, 0xBEEF);
    let ids = (job_id(3), 0xD15C);
    let (outcome, _) = run_job_via(proxy.addr(), ids, test_retry(), &dataset, 40);
    assert_served(
        "Served(1), result-stream disconnect",
        &dataset,
        &outcome,
        &dataset,
    );
    proxy.shutdown();
    server.shutdown();
}

/// Load shedding: with `max_jobs = 1`, opening a second job is refused
/// with the **retryable** `Busy` code; a client with a retry policy
/// rides it out and succeeds once the first job retires. Fatal errors
/// (config mismatch) are never retried.
#[test]
fn busy_shedding_is_retryable_and_fatal_errors_are_not() {
    let server = serve(ServerConfig {
        max_jobs: 1,
        // Immediate retirement so the slot frees as soon as job A ends.
        rejoin_grace: Duration::ZERO,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let job_a = job_id(4);
    let job_b = job_id(5);

    let client_a = JobClient::connect(addr, job_a, JobConfig::default()).expect("open job A");

    // Without retries, the shed is surfaced as a retryable error.
    let shed = JobClient::connect(addr, job_b, JobConfig::default());
    let err = refused(shed, ErrorCode::Busy);
    assert!(err.is_retryable(), "Busy is classified retryable");

    // A mismatched config on an existing job is fatal: no retry loop,
    // the error surfaces immediately even with a policy set.
    let different = JobConfig {
        watermark: JobConfig::default().watermark + 1,
        ..JobConfig::default()
    };
    let mismatched = JobClient::connect_with(addr, job_a, different, 99, test_retry());
    let err = refused(mismatched, ErrorCode::ConfigMismatch);
    assert!(!err.is_retryable());

    // Retire job A shortly; the retrying connect to job B then lands.
    let finisher = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(60));
        client_a.close_and_wait().expect("finish job A")
    });
    let client_b = JobClient::connect_with(addr, job_b, JobConfig::default(), 1, test_retry())
        .expect("retry through Busy");
    finisher.join().expect("job A finisher");
    drop(client_b);
    server.shutdown();
}

fn library_entries(dim: usize, n: usize) -> Vec<LibraryEntryWire> {
    (0..n)
        .map(|i| {
            let mut rng = Xoshiro256StarStar::seed_from_u64(0x5EA0 + i as u64);
            LibraryEntryWire {
                mass: 900.0 + i as f64,
                charge: 2,
                is_decoy: i % 3 == 0,
                id: format!("lib{i}"),
                words: BinaryHypervector::random(dim, &mut rng).words().to_vec(),
            }
        })
        .collect()
}

/// Queries are idempotent, so `SearchClient` retries them across a
/// mid-results disconnect: the re-scored hits must equal an undisturbed
/// client's bit for bit (query indices aside — abandoned attempts
/// consume them).
#[test]
fn search_queries_retry_across_disconnect_with_identical_hits() {
    const DIM: usize = 128;
    let server = serve(resilient_config());
    let job = job_id(6);

    // A direct participant loads the shared library and stays attached,
    // pinning the job while the chaos client reconnects.
    let mut direct = SearchClient::connect(server.addr(), job, DIM as u32).expect("direct connect");
    direct.load(&library_entries(DIM, 40)).expect("load");

    let proxy = FaultProxy::start(server.addr()).expect("start proxy");
    // The connect ack passes; the kill lands inside the hit stream.
    proxy.push_plan(ProxyPlan::kill_server_to_client_after(400));
    let mut chaotic =
        SearchClient::connect_with(proxy.addr(), job, DIM as u32, test_retry()).expect("connect");

    let queries: Vec<QueryWire> = library_entries(DIM, 40)
        .into_iter()
        .step_by(4)
        .map(|e| QueryWire {
            mass: e.mass + 0.5,
            words: e.words,
        })
        .collect();
    let (chaotic_hits, _) = chaotic.search(&queries, 5.0, 3).expect("chaotic search");
    assert!(
        chaotic.reconnects() >= 1,
        "the kill must have forced a reconnect"
    );
    let (direct_hits, _) = direct.search(&queries, 5.0, 3).expect("direct search");

    let (got, want) = (served_hits(&chaotic_hits), served_hits(&direct_hits));
    assert_same(
        "Served, retried across a disconnect",
        "library_entries(128, 40)",
        &got,
        &want,
    );
    proxy.shutdown();
    server.shutdown();
}
