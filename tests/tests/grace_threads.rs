//! A rejoin grace costs no thread. At a 30 s grace, connect-and-drop
//! cycles of every session kind leave the process with exactly the
//! threads it had before `bind` once `shutdown` returns: no grace is a
//! thread asleep until it runs out.
#![cfg(target_os = "linux")]

use spechd_server::{JobClient, JobConfig, RetryPolicy, SearchClient, ServerConfig, StoreClient};
use spechd_tests::{serve, settle_at, synthetic_dataset, threads, tiny_entry};
use std::time::Duration;

const CYCLES: u64 = 50;

#[test]
fn drops_at_a_long_grace_leave_no_thread_behind() {
    let spectra = synthetic_dataset(20, 9).spectra().to_vec();
    let entry = tiny_entry();
    let job_config = JobConfig {
        workers: 1,
        ..JobConfig::default()
    };

    let before = threads();
    let config = ServerConfig {
        rejoin_grace: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let running = serve(config);
    let addr = running.addr();
    for cycle in 0..CYCLES {
        let mut search = SearchClient::connect(addr, cycle, 64).expect("search connect");
        search.load(std::slice::from_ref(&entry)).expect("load");
    }
    for _ in 0..CYCLES {
        let retry = RetryPolicy::none();
        StoreClient::connect_with(addr, "threads", job_config.clone(), 7, retry)
            .expect("store open");
    }
    for cycle in 0..CYCLES {
        let mut job = JobClient::connect(addr, cycle, job_config.clone()).expect("job open");
        job.submit(spectra.clone()).expect("submit");
        job.close_and_wait().expect("job results");
    }
    running.shutdown();

    assert_eq!(
        settle_at(before),
        before,
        "threads left running after shutdown"
    );
}
