//! `SearchClient` splits a call at the protocol's per-frame caps, and the
//! server accepts every chunk: one entry past `MAX_LIBRARY_BATCH` loads as
//! two `LoadLibrary` frames, one query past `MAX_QUERY_BATCH` searches as
//! two `SearchQuery` frames, and every hit equals a local
//! `search_batch_standard` over the same entries.

use spechd_hdc::BinaryHypervector;
use spechd_rng::Xoshiro256StarStar;
use spechd_server::protocol::{MAX_LIBRARY_BATCH, MAX_QUERY_BATCH};
use spechd_server::{SearchClient, ServerConfig};
use spechd_tests::{
    assert_search_paths, ladder_library, serve, wire_entries, wire_queries, Query, SearchPath,
};

const DIM: usize = 64;
const WINDOW_DA: f64 = 0.05;
const TOP_K: usize = 3;

#[test]
fn calls_one_past_the_frame_caps_cross_a_chunk_boundary() {
    let rows = MAX_LIBRARY_BATCH as usize + 1;
    let queries = MAX_QUERY_BATCH as usize + 1;
    // Row `r` sits at `500 + r / 100` Da, so a ±0.05 Da window holds
    // about ten rows; every third row is a decoy.
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xC4A2);
    let hvs: Vec<BinaryHypervector> = (0..rows)
        .map(|_| BinaryHypervector::random(DIM, &mut rng))
        .collect();
    let lib = ladder_library(&hvs, 500.0, 0.01, true);
    // Each query is a library row with a few bits flipped, at its mass.
    let block: Vec<Query> = (0..queries)
        .map(|k| {
            let row = k * 16 % rows;
            let mut hv = hvs[row].clone();
            hv.flip_random_bits(k % 9, &mut rng);
            (hv, 500.0 + row as f64 * 0.01)
        })
        .collect();

    let running = serve(ServerConfig::default());
    let mut client = SearchClient::connect(running.addr(), 5, DIM as u32).expect("connect");
    assert_eq!(
        client.load(&wire_entries(&lib)).expect("load").entries,
        rows as u64
    );
    let wire = wire_queries(&block);
    let (served, stats) = client
        .search(&wire, WINDOW_DA, TOP_K as u32)
        .expect("search");
    running.shutdown();
    assert_eq!(stats.queries, queries as u64);

    let what = "ladder past MAX_LIBRARY_BATCH";
    let paths = [SearchPath::BlockStandard(0)];
    let window = (WINDOW_DA, TOP_K);
    let local = assert_search_paths(&lib, &block, window, &paths, Some(&served), what);
    assert!(
        local.iter().all(|hits| !hits.is_empty()),
        "every query finds its row's window"
    );
    let indices: Vec<u64> = served.iter().map(|q| q.query_index).collect();
    assert_eq!(
        indices,
        (0..queries as u64).collect::<Vec<_>>(),
        "contiguous query indices"
    );
}
