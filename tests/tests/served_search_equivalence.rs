//! Served search equivalence across window shapes: a query batch sent
//! through `spechd-server` is scored by the library's block path, and each
//! served hit must equal — field by field, `mass_delta` to the bit — what
//! a local `search_batch_standard` and per-query `search_window` return
//! over the same entries. Windows holding one row, the default handful, no
//! row at all, fewer rows than `top_k`, and enough rows that the server's
//! block walk is split across workers; every shape in two consecutive
//! batches, whose job-global query indices must run on without a gap.

use spechd_hdc::BinaryHypervector;
use spechd_rng::Xoshiro256StarStar;
use spechd_search::{HdPsm, HvLibrary, HvLibraryBuilder, PackedSearchConfig, PackedSearchEngine};
use spechd_server::{LibraryEntryWire, QueryHits, QueryWire, SearchClient, Server, ServerConfig};

const DIM: usize = 2048;
const ROWS: usize = 4000;
/// Packed words a block worker must sweep before the engine starts one.
const WORKER_FLOOR_WORDS: usize = 1 << 17;
const BATCH: usize = 12;

/// Row `r` sits at `1000 + r / 100` Da, so a ±w Da window holds about
/// `200·w` rows; every third row is a decoy.
fn mass_of(row: usize) -> f64 {
    1000.0 + row as f64 * 0.01
}

fn library(rows: &[BinaryHypervector]) -> HvLibrary {
    let mut b = HvLibraryBuilder::new(DIM);
    for (r, hv) in rows.iter().enumerate() {
        b.push_hypervector(hv, mass_of(r), 2, format!("r{r}"), r % 3 == 0);
    }
    b.build()
}

fn wire_entries(lib: &HvLibrary) -> Vec<LibraryEntryWire> {
    (0..lib.len())
        .map(|i| LibraryEntryWire {
            mass: lib.mass(i),
            charge: lib.charge(i),
            is_decoy: lib.is_decoy(i),
            id: lib.id(i).to_string(),
            words: lib.pack().row(i).to_vec(),
        })
        .collect()
}

/// `BATCH` queries near library rows spread over the middle of the
/// library, each its row with a few bits flipped (every fourth one
/// unrelated noise), at the row's mass plus `offset_da`.
fn batch(
    rows: &[BinaryHypervector],
    first: usize,
    offset_da: f64,
) -> Vec<(BinaryHypervector, f64)> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(first as u64);
    (first..first + BATCH)
        .map(|k| {
            let row = 1000 + k * 157 % 2000;
            let hv = if k % 4 == 3 {
                BinaryHypervector::random(DIM, &mut rng)
            } else {
                let mut hv = rows[row].clone();
                hv.flip_random_bits(k * 13 % 300, &mut rng);
                hv
            };
            (hv, mass_of(row) + offset_da)
        })
        .collect()
}

fn assert_served_matches(
    lib: &HvLibrary,
    block: &[(BinaryHypervector, f64)],
    window_da: f64,
    top_k: u32,
    served: &[QueryHits],
    what: &str,
) {
    let engine = PackedSearchEngine::new(PackedSearchConfig {
        precursor_tol_da: window_da,
        top_k: top_k as usize,
        ..PackedSearchConfig::default()
    });
    let local = engine.search_batch_standard(lib, block);
    assert_eq!(served.len(), local.len(), "{what}: one reply per query");
    for (i, ((served, local), (hv, mass))) in served.iter().zip(&local).zip(block).enumerate() {
        let per_query: Vec<HdPsm> = engine.search_window(lib, hv, *mass, i, window_da);
        assert_eq!(local, &per_query, "{what}: block vs per-query, query {i}");
        assert_eq!(
            served.hits.len(),
            local.len(),
            "{what}: hit count, query {i}"
        );
        for (h, p) in served.hits.iter().zip(local) {
            assert_eq!(h.library_index, p.library_index as u64, "{what}: query {i}");
            assert_eq!(h.distance, p.distance, "{what}: query {i}");
            assert_eq!(
                h.mass_delta.to_bits(),
                p.mass_delta.to_bits(),
                "{what}: query {i}"
            );
            assert_eq!(h.is_decoy, p.is_decoy, "{what}: query {i}");
            assert_eq!(h.id, lib.id(p.library_index), "{what}: query {i}");
        }
    }
}

#[test]
fn served_search_matches_the_library_across_window_shapes() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x5EA2C4);
    let rows: Vec<BinaryHypervector> = (0..ROWS)
        .map(|_| BinaryHypervector::random(DIM, &mut rng))
        .collect();
    let lib = library(&rows);

    let running = Server::bind("127.0.0.1:0", ServerConfig::default())
        .and_then(Server::spawn)
        .expect("bind and spawn");
    let mut client = SearchClient::connect(running.addr(), 3, DIM as u32).expect("connect");
    assert_eq!(
        client.load(&wire_entries(&lib)).expect("load").entries,
        ROWS as u64
    );

    let default_window = PackedSearchConfig::default().precursor_tol_da;
    type Shape = (&'static str, f64, u32, f64, fn(&[usize]) -> bool);
    // (what, window half-width, top_k, query mass offset from its row,
    // what the queries' candidate counts must be for the shape to hold)
    let shapes: [Shape; 5] = [
        ("one-row window", 0.004, 5, 0.001, |n| {
            n.iter().all(|&n| n == 1)
        }),
        ("default window", default_window, 5, 0.0, |n| {
            n.iter().all(|&n| (2..20).contains(&n))
        }),
        ("empty window", 0.001, 5, 0.005, |n| {
            n.iter().all(|&n| n == 0)
        }),
        (
            "top_k over the candidates",
            default_window,
            64,
            0.002,
            |n| n.iter().all(|&n| (1..64).contains(&n)),
        ),
        // Split across workers wherever the server has two cores.
        ("open window over two workers", 15.0, 5, -0.003, |n| {
            n.iter().sum::<usize>() * DIM / 64 >= 2 * WORKER_FLOOR_WORDS
        }),
    ];
    let mut next_index = 0u64;
    for (s, &(what, window_da, top_k, offset_da, holds)) in shapes.iter().enumerate() {
        for half in 0..2 {
            let block = batch(&rows, (2 * s + half) * BATCH, offset_da);
            let candidates: Vec<usize> = block
                .iter()
                .map(|(_, mass)| lib.window(*mass, window_da).len())
                .collect();
            assert!(holds(&candidates), "{what}: candidates {candidates:?}");

            let wire: Vec<QueryWire> = block
                .iter()
                .map(|(hv, mass)| QueryWire {
                    mass: *mass,
                    words: hv.words().to_vec(),
                })
                .collect();
            let (served, stats) = client.search(&wire, window_da, top_k).expect("search");
            let what = format!("{what}, batch {half}");
            assert_served_matches(&lib, &block, window_da, top_k, &served, &what);

            let indices: Vec<u64> = served.iter().map(|q| q.query_index).collect();
            let expect: Vec<u64> = (next_index..next_index + BATCH as u64).collect();
            assert_eq!(indices, expect, "{what}: contiguous job-global indices");
            next_index += BATCH as u64;
            assert_eq!(stats.queries, next_index, "{what}");
        }
    }
    running.shutdown();
}
