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
use spechd_search::PackedSearchConfig;
use spechd_server::{SearchClient, ServerConfig};
use spechd_tests::{
    assert_search_paths, ladder_library, random_rows, serve, wire_entries, wire_queries, SearchPath,
};

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

#[test]
fn served_search_matches_the_library_across_window_shapes() {
    let rows = random_rows(ROWS, DIM, 0x5EA2C4);
    let lib = ladder_library(&rows, mass_of(0), 0.01, true);

    let running = serve(ServerConfig::default());
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

            let wire = wire_queries(&block);
            let (served, stats) = client.search(&wire, window_da, top_k).expect("search");
            let what = format!("{what}, batch {half}");
            let local = [SearchPath::BlockStandard(0), SearchPath::PerQuery(0)];
            let window = (window_da, top_k as usize);
            assert_search_paths(&lib, &block, window, &local, Some(&served), &what);

            let indices: Vec<u64> = served.iter().map(|q| q.query_index).collect();
            let expect: Vec<u64> = (next_index..next_index + BATCH as u64).collect();
            assert_eq!(indices, expect, "{what}: contiguous job-global indices");
            next_index += BATCH as u64;
            assert_eq!(stats.queries, next_index, "{what}");
        }
    }
    running.shutdown();
}
