//! `SearchClient` splits a call at the protocol's per-frame caps, and the
//! server accepts every chunk: one entry past `MAX_LIBRARY_BATCH` loads as
//! two `LoadLibrary` frames, one query past `MAX_QUERY_BATCH` searches as
//! two `SearchQuery` frames, and every hit equals a local
//! `search_batch_standard` over the same entries.

use spechd_hdc::BinaryHypervector;
use spechd_rng::Xoshiro256StarStar;
use spechd_search::{HvLibrary, HvLibraryBuilder, PackedSearchConfig, PackedSearchEngine};
use spechd_server::protocol::{MAX_LIBRARY_BATCH, MAX_QUERY_BATCH};
use spechd_server::{LibraryEntryWire, QueryWire, SearchClient, Server, ServerConfig};

const DIM: usize = 64;
const WINDOW_DA: f64 = 0.05;
const TOP_K: u32 = 3;

/// Row `r` sits at `500 + r / 100` Da, so a ±0.05 Da window holds about
/// ten rows; every third row is a decoy.
fn mass_of(row: usize) -> f64 {
    500.0 + row as f64 * 0.01
}

#[test]
fn calls_one_past_the_frame_caps_cross_a_chunk_boundary() {
    let rows = MAX_LIBRARY_BATCH as usize + 1;
    let queries = MAX_QUERY_BATCH as usize + 1;
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xC4A2);
    let hvs: Vec<BinaryHypervector> = (0..rows)
        .map(|_| BinaryHypervector::random(DIM, &mut rng))
        .collect();
    let lib: HvLibrary = {
        let mut b = HvLibraryBuilder::new(DIM);
        for (r, hv) in hvs.iter().enumerate() {
            b.push_hypervector(hv, mass_of(r), 2, format!("r{r}"), r % 3 == 0);
        }
        b.build()
    };
    let entries: Vec<LibraryEntryWire> = (0..lib.len())
        .map(|i| LibraryEntryWire {
            mass: lib.mass(i),
            charge: lib.charge(i),
            is_decoy: lib.is_decoy(i),
            id: lib.id(i).to_string(),
            words: lib.pack().row(i).to_vec(),
        })
        .collect();
    // Each query is a library row with a few bits flipped, at its mass.
    let block: Vec<(BinaryHypervector, f64)> = (0..queries)
        .map(|k| {
            let row = k * 16 % rows;
            let mut hv = hvs[row].clone();
            hv.flip_random_bits(k % 9, &mut rng);
            (hv, mass_of(row))
        })
        .collect();
    let wire: Vec<QueryWire> = block
        .iter()
        .map(|(hv, mass)| QueryWire {
            mass: *mass,
            words: hv.words().to_vec(),
        })
        .collect();

    let running = Server::bind("127.0.0.1:0", ServerConfig::default())
        .and_then(Server::spawn)
        .expect("bind and spawn");
    let mut client = SearchClient::connect(running.addr(), 5, DIM as u32).expect("connect");
    assert_eq!(client.load(&entries).expect("load").entries, rows as u64);
    let (served, stats) = client.search(&wire, WINDOW_DA, TOP_K).expect("search");
    running.shutdown();
    assert_eq!(stats.queries, queries as u64);

    let engine = PackedSearchEngine::new(PackedSearchConfig {
        precursor_tol_da: WINDOW_DA,
        top_k: TOP_K as usize,
        ..PackedSearchConfig::default()
    });
    let local = engine.search_batch_standard(&lib, &block);
    assert_eq!(served.len(), local.len(), "one reply per query");
    for (i, (served, local)) in served.iter().zip(&local).enumerate() {
        assert_eq!(served.query_index, i as u64, "contiguous query indices");
        assert!(!local.is_empty(), "query {i} finds its row's window");
        assert_eq!(served.hits.len(), local.len(), "hit count, query {i}");
        for (h, p) in served.hits.iter().zip(local) {
            assert_eq!(h.library_index, p.library_index as u64, "query {i}");
            assert_eq!(h.distance, p.distance, "query {i}");
            assert_eq!(h.mass_delta.to_bits(), p.mass_delta.to_bits(), "query {i}");
            assert_eq!(h.is_decoy, p.is_decoy, "query {i}");
            assert_eq!(h.id, lib.id(p.library_index), "query {i}");
        }
    }
}
