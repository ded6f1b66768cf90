//! A search or store connection runs on one server thread: it writes its
//! own replies. The bounded outbound queue and its writer thread start
//! only with a clustering job, whose pipeline makes frames the
//! connection thread did not compute. A job's clustering workers start
//! with the shards it is fed, so an open job holds none before then.
#![cfg(target_os = "linux")]

use spechd_server::limits::MAX_WORKERS;
use spechd_server::{JobClient, JobConfig, RetryPolicy, SearchClient, ServerConfig, StoreClient};
use spechd_tests::{serve, settle_at, threads, tiny_entry};

const K: usize = 8;

#[test]
fn search_and_store_connections_run_one_thread_each() {
    let entry = tiny_entry();
    let job_config = JobConfig {
        workers: 1,
        ..JobConfig::default()
    };

    let before = threads();
    let running = serve(ServerConfig::default());
    let addr = running.addr();
    // The accept loop and the sweeper.
    let base = settle_at(before + 2);
    assert_eq!(base, before + 2, "a serving server runs two threads");

    // Each call is a round trip, so its connection's threads are up.
    let mut searches = Vec::new();
    let mut stores = Vec::new();
    for k in 0..K {
        let mut search = SearchClient::connect(addr, k as u64, 64).expect("search connect");
        search.load(std::slice::from_ref(&entry)).expect("load");
        searches.push(search);
        let name = format!("threads-{k}");
        let retry = RetryPolicy::none();
        stores.push(
            StoreClient::connect_with(addr, &name, job_config.clone(), 7, retry)
                .expect("store open"),
        );
    }
    assert_eq!(
        threads(),
        base + 2 * K,
        "one server thread per search or store connection"
    );

    // A job's connection adds its writer, and the job its pipeline
    // thread; at one worker the pipeline clusters on its own thread.
    let job = JobClient::connect(addr, 1, job_config).expect("job open");
    assert_eq!(
        settle_at(base + 2 * K + 3),
        base + 2 * K + 3,
        "a job connection runs a reader and a writer, its job a pipeline"
    );

    // A job that asks for every worker the wire allows starts none of
    // them before it is fed a shard.
    let widest = JobConfig {
        workers: MAX_WORKERS,
        ..JobConfig::default()
    };
    let wide_job = JobClient::connect(addr, 2, widest).expect("wide job open");
    assert_eq!(
        settle_at(base + 2 * K + 6),
        base + 2 * K + 6,
        "an open job at MAX_WORKERS adds a reader, a writer and a pipeline"
    );

    drop((job, wide_job, searches, stores));
    running.shutdown();
    assert_eq!(
        settle_at(before),
        before,
        "threads left running after shutdown"
    );
}
