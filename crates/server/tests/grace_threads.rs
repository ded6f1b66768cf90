//! A rejoin grace costs no thread. At a 30 s grace, connect-and-drop
//! cycles of every session kind leave the process with exactly the
//! threads it had before `bind` once `shutdown` returns: no grace is a
//! thread asleep until it runs out.
#![cfg(target_os = "linux")]

use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};
use spechd_server::{
    JobClient, JobConfig, LibraryEntryWire, RetryPolicy, SearchClient, Server, ServerConfig,
    StoreClient,
};
use std::time::{Duration, Instant};

const CYCLES: u64 = 50;

/// The process's thread count, as the kernel reports it.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|count| count.trim().parse().ok())
        .expect("a Threads line")
}

#[test]
fn drops_at_a_long_grace_leave_no_thread_behind() {
    let spectra = SyntheticGenerator::new(SyntheticConfig {
        num_spectra: 20,
        num_peptides: 4,
        seed: 9,
        ..SyntheticConfig::default()
    })
    .generate()
    .spectra()
    .to_vec();
    let entry = LibraryEntryWire {
        mass: 500.0,
        charge: 2,
        is_decoy: false,
        id: "e".into(),
        words: vec![0x5A],
    };
    let job_config = JobConfig {
        workers: 1,
        ..JobConfig::default()
    };

    let before = threads();
    let config = ServerConfig {
        rejoin_grace: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let running = Server::bind("127.0.0.1:0", config)
        .and_then(Server::spawn)
        .expect("bind and spawn");
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

    // A joined thread leaves the kernel's count a moment after the join
    // returns; give the count that moment, and no more.
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() > before && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(threads(), before, "threads left running after shutdown");
}
