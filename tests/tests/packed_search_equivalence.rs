//! PR 7 equivalence suite: the packed search engine — standard and
//! open-modification mode — must be **bit-identical** to the scalar
//! per-spectrum reference scorer at every dimensionality, library
//! size, and thread count, including tie-breaks. A second layer pins
//! the served path: searching through `spechd-server` over TCP must
//! return exactly the hits of a local library search over the same
//! entries.

use spechd_hdc::BinaryHypervector;
use spechd_rng::Xoshiro256StarStar;
use spechd_search::HvLibraryBuilder;
use spechd_server::{QueryWire, SearchClient, ServerConfig};
use spechd_tests::{
    assert_search_paths, at_threads, random_library, random_queries, serve, wire_entries,
    wire_queries, SearchPath,
};

/// The tentpole guarantee: packed standard + OMS search match the
/// scalar oracle — same hit ids, same u16 distances, same tie-break —
/// across dims {63, 64, 2048} × library sizes {0, 1, 257} × 1/2/4
/// threads.
#[test]
fn packed_search_matches_scalar_reference_everywhere() {
    for &dim in &[63usize, 64, 2048] {
        for &size in &[0usize, 1, 257] {
            let lib = random_library(size, dim, 0x5EED ^ (dim * 1000 + size) as u64);
            let qs = random_queries(8, dim, 0xFACE ^ dim as u64, 500.0, 3500.0);
            let what = format!("dim {dim}, size {size}");
            // 50 Da is wide enough to catch candidates.
            assert_search_paths(
                &lib,
                &qs,
                (50.0, 5),
                &at_threads(SearchPath::Standard),
                None,
                &what,
            );
            assert_search_paths(
                &lib,
                &qs,
                (800.0, 5),
                &at_threads(SearchPath::Open),
                None,
                &what,
            );
        }
    }
}

/// Tie-breaks are part of the contract: duplicate rows at one mass
/// must come back in ascending library-index order from packed and
/// scalar alike, at every thread count.
#[test]
fn tie_breaks_are_deterministic_across_thread_counts() {
    let dim = 192;
    let mut rng = Xoshiro256StarStar::seed_from_u64(99);
    let hv = BinaryHypervector::random(dim, &mut rng);
    let mut b = HvLibraryBuilder::new(dim);
    for i in 0..12 {
        // Three distinct rows, each duplicated four times, same mass.
        let mut row = hv.clone();
        row.flip_random_bits(
            (i % 3) * 7,
            &mut Xoshiro256StarStar::seed_from_u64(i as u64 % 3),
        );
        b.push_hypervector(&row, 1000.0, 2, format!("d{i}"), false);
    }
    let lib = b.build();
    let block = [(hv, 1000.0)];
    let paths = at_threads(SearchPath::Standard);
    let hits = &assert_search_paths(&lib, &block, (0.05, 7), &paths, None, "12 tied rows")[0];
    assert!(
        hits.windows(2)
            .all(|w| (w[0].distance, w[0].library_index) < (w[1].distance, w[1].library_index)),
        "strict (distance, index) order"
    );
}

/// The served path — library loaded over TCP, queries scored by the
/// server — must return exactly the hits of a local
/// `PackedSearchEngine` run over the same entries, for both a narrow
/// (standard) and a wide (OMS) window.
#[test]
fn served_search_is_bit_identical_to_library_path() {
    let dim = 256;
    let lib = random_library(120, dim, 0xBEEF);
    let qs = random_queries(17, dim, 0xCAFE, 500.0, 3500.0);

    let running = serve(ServerConfig {
        idle_timeout: std::time::Duration::from_secs(30),
        ..ServerConfig::default()
    });

    let mut client = SearchClient::connect(running.addr(), 77, dim as u32).expect("connect");
    let stats = client.load(&wire_entries(&lib)).expect("load");
    assert_eq!(stats.entries as usize, lib.len());
    assert_eq!(stats.targets as usize, lib.target_count());
    assert_eq!(stats.decoys as usize, lib.decoy_count());
    assert_eq!(stats.sealed, 0);

    for &(window_da, top_k) in &[(0.5f64, 3u32), (400.0, 5)] {
        let (served, stats) = client
            .search(&wire_queries(&qs), window_da, top_k)
            .expect("search");
        assert_eq!(stats.sealed, 1);
        let (window, local) = ((window_da, top_k as usize), [SearchPath::PerQuery(0)]);
        let what = "random_library(120, 256)";
        assert_search_paths(&lib, &qs, window, &local, Some(&served), what);
    }

    // Sealed: further loads must be rejected server-side.
    assert!(client.load(&wire_entries(&lib)).is_err());
    running.shutdown();
}

/// Two participants share one search job: entries loaded by either are
/// visible to both, and query indices are job-global.
#[test]
fn search_job_is_shared_between_participants() {
    let dim = 64;
    let lib = random_library(30, dim, 0xABBA);
    let entries = wire_entries(&lib);
    let (first, second) = entries.split_at(entries.len() / 2);

    let running = serve(ServerConfig::default());

    let mut a = SearchClient::connect(running.addr(), 5, dim as u32).expect("connect a");
    let mut b = SearchClient::connect(running.addr(), 5, dim as u32).expect("connect b");
    a.load(first).expect("load a");
    let stats = b.load(second).expect("load b");
    assert_eq!(stats.entries as usize, lib.len(), "loads are pooled");
    assert_eq!(stats.participants, 2);

    let q = QueryWire {
        mass: lib.mass(0),
        words: lib.pack().row(0).to_vec(),
    };
    let (hits_a, _) = a
        .search(std::slice::from_ref(&q), 1000.0, 4)
        .expect("search a");
    let (hits_b, _) = b
        .search(std::slice::from_ref(&q), 1000.0, 4)
        .expect("search b");
    assert_eq!(hits_a[0].hits, hits_b[0].hits, "same job, same library");
    assert_eq!(hits_a[0].query_index, 0);
    assert_eq!(hits_b[0].query_index, 1, "query indices are job-global");

    // A third participant with a different dim is turned away.
    assert!(SearchClient::connect(running.addr(), 5, 128).is_err());
    running.shutdown();
}
