//! Block search equivalence: `search_batch_standard` / `search_batch_open`
//! score a whole query block in one tiled walk over the library, and must
//! return — hit for hit, tie-break for tie-break — what per-query
//! `search_window` and the scalar oracle `scalar_search_window` return, at
//! every dimensionality, library size, thread count, `top_k` and block
//! size, and on blocks built to hit the walk's corners.

use spechd_hdc::BinaryHypervector;
use spechd_rng::{Rng, Xoshiro256StarStar};
use spechd_search::{
    scalar_search_window, HvLibrary, HvLibraryBuilder, PackedSearchConfig, PackedSearchEngine,
};

type Query = (BinaryHypervector, f64);

/// `n` random rows with random masses in 500–3500 Da, every third one
/// followed by its shuffled decoy (so some masses are shared).
fn random_library(n: usize, dim: usize, seed: u64) -> HvLibrary {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut b = HvLibraryBuilder::new(dim);
    for i in 0..n {
        let hv = BinaryHypervector::random(dim, &mut rng);
        let mass = rng.range_f64(500.0, 3500.0);
        if i % 3 == 0 {
            b.push_with_shuffled_decoy(&hv, mass, 2, &format!("p{i}"), seed.wrapping_add(i as u64));
        } else {
            b.push_hypervector(&hv, mass, 2, format!("p{i}"), false);
        }
    }
    b.build()
}

/// `rows[i]` at mass `1000 + i` Da: row `i` of the built library is
/// `rows[i]`, and a ±w Da window around row `r` is rows `r − w ..= r + w`.
fn ladder_library(dim: usize, rows: &[BinaryHypervector]) -> HvLibrary {
    let mut b = HvLibraryBuilder::new(dim);
    for (i, hv) in rows.iter().enumerate() {
        b.push_hypervector(hv, 1000.0 + i as f64, 2, format!("r{i}"), false);
    }
    b.build()
}

fn random_rows(n: usize, dim: usize, seed: u64) -> Vec<BinaryHypervector> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    (0..n)
        .map(|_| BinaryHypervector::random(dim, &mut rng))
        .collect()
}

fn random_queries(n: usize, dim: usize, seed: u64) -> Vec<Query> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (
                BinaryHypervector::random(dim, &mut rng),
                // A little past both ends: some windows are clipped or empty.
                rng.range_f64(300.0, 3700.0),
            )
        })
        .collect()
}

/// Both batch modes ≡ per-query `search_window` ≡ the scalar oracle, at
/// 1 / 2 / 4 threads.
fn assert_block_equivalent(
    lib: &HvLibrary,
    block: &[Query],
    tol_da: f64,
    open_da: f64,
    top_k: usize,
    what: &str,
) {
    let oracle = |window_da: f64| -> Vec<_> {
        block
            .iter()
            .enumerate()
            .map(|(i, (q, m))| scalar_search_window(lib, q, *m, i, window_da, top_k))
            .collect()
    };
    let (std_oracle, open_oracle) = (oracle(tol_da), oracle(open_da));
    for threads in [1usize, 2, 4] {
        let engine = PackedSearchEngine::new(PackedSearchConfig {
            precursor_tol_da: tol_da,
            open_window_da: open_da,
            top_k,
            threads,
            ..PackedSearchConfig::default()
        });
        let per_query = |window_da: f64| -> Vec<_> {
            block
                .iter()
                .enumerate()
                .map(|(i, (q, m))| engine.search_window(lib, q, *m, i, window_da))
                .collect()
        };
        let what = format!("{what}, top_k {top_k}, threads {threads}");
        let std_hits = engine.search_batch_standard(lib, block);
        assert_eq!(std_hits, std_oracle, "standard vs oracle: {what}");
        assert_eq!(std_hits, per_query(tol_da), "standard vs per-query: {what}");
        let open_hits = engine.search_batch_open(lib, block);
        assert_eq!(open_hits, open_oracle, "open vs oracle: {what}");
        assert_eq!(open_hits, per_query(open_da), "open vs per-query: {what}");
    }
}

#[test]
fn batch_search_matches_per_query_and_scalar_everywhere() {
    for dim in [63usize, 64, 2048] {
        for size in [0usize, 1, 257, 1500] {
            let lib = random_library(size, dim, 0xB10C ^ (dim * 10_000 + size) as u64);
            for block_len in [0usize, 1, 64] {
                let block = random_queries(block_len, dim, 0xFACE ^ (dim + block_len) as u64);
                // "More than the candidates": the library itself is smaller.
                for top_k in [1, 5, 2 * lib.len() + 7] {
                    assert_block_equivalent(
                        &lib,
                        &block,
                        50.0,
                        800.0,
                        top_k,
                        &format!("dim {dim}, size {size}, block {block_len}"),
                    );
                }
            }
        }
    }
}

#[test]
fn every_window_identical() {
    // All 64 masses equal: the active set fills on the first tile and
    // empties on one `retain`.
    let dim = 2048;
    let rows = random_rows(400, dim, 41);
    let lib = ladder_library(dim, &rows);
    let block: Vec<Query> = random_rows(64, dim, 42)
        .into_iter()
        .map(|q| (q, 1200.0))
        .collect();
    for top_k in [1, 5, 1000] {
        assert_block_equivalent(&lib, &block, 3.0, 150.0, top_k, "identical windows");
    }
}

#[test]
fn narrow_windows_thousands_of_rows_apart() {
    // Seven-row windows with long uncovered stretches between them (and
    // two that overlap): the walk must jump, not crawl, and must not feed
    // a row to a query whose window ended tiles ago.
    let dim = 64;
    let rows = random_rows(9000, dim, 43);
    let lib = ladder_library(dim, &rows);
    let block: Vec<Query> = [8990usize, 3, 4500, 4503, 31, 2047, 2048, 7000]
        .into_iter()
        .map(|r| (rows[r].clone(), 1000.0 + r as f64))
        .collect();
    for top_k in [1, 5, 64] {
        assert_block_equivalent(&lib, &block, 3.0, 40.0, top_k, "far-apart windows");
    }
    // Each query is a library row: its own row is the top hit at distance 0.
    let engine = PackedSearchEngine::default();
    for (hits, (_, mass)) in engine
        .search_batch_standard(&lib, &block)
        .iter()
        .zip(&block)
    {
        assert_eq!(hits[0].library_index, (*mass - 1000.0) as usize);
        assert_eq!(hits[0].distance, 0);
    }
}

#[test]
fn windows_start_and_end_mid_tile() {
    // The walk's tiles are 64 rows from the lowest window start; these
    // windows begin and end at every offset against that grid, some inside
    // a single tile, some across two or three.
    let dim = 2048;
    let rows = random_rows(330, dim, 44);
    let lib = ladder_library(dim, &rows);
    let queries = random_rows(64, dim, 45);
    let block: Vec<Query> = queries
        .into_iter()
        .enumerate()
        .map(|(k, q)| (q, 1000.0 + (k * 5 + 1) as f64))
        .collect();
    for top_k in [1, 5, 200] {
        assert_block_equivalent(&lib, &block, 2.0, 70.0, top_k, "mid-tile windows");
    }
}

#[test]
fn whole_library_window_next_to_an_empty_one() {
    let dim = 2048;
    let rows = random_rows(700, dim, 46);
    let lib = ladder_library(dim, &rows);
    let q = random_rows(3, dim, 47);
    // ±800 Da from the middle covers all 700 rows; the far masses cover none.
    let block = vec![
        (q[0].clone(), 90_000.0),
        (q[1].clone(), 1350.0),
        (q[2].clone(), 1.0),
        (q[1].clone(), 1350.0),
    ];
    for top_k in [1, 5, 701] {
        assert_block_equivalent(&lib, &block, 0.5, 800.0, top_k, "whole next to empty");
    }
    let hits = PackedSearchEngine::new(PackedSearchConfig {
        open_window_da: 800.0,
        top_k: 701,
        ..PackedSearchConfig::default()
    })
    .search_batch_open(&lib, &block);
    let lens: Vec<usize> = hits.iter().map(Vec::len).collect();
    assert_eq!(lens, [0, 700, 0, 700]);
}

#[test]
fn identical_rows_straddling_a_tile_boundary() {
    // Rows 58..70 are one vector, so a query near it ties twelve ways
    // across the boundary between the first and second 64-row tile (the
    // first window starts at row 0). The lower index must win each tie:
    // the second tile's rows equal the k-th best so far and must lose to it.
    let dim = 2048;
    let mut rows = random_rows(200, dim, 48);
    let twin = rows[58].clone();
    for row in &mut rows[58..70] {
        *row = twin.clone();
    }
    // A second run of the same vector far behind: lower rows still win.
    for row in &mut rows[150..155] {
        *row = twin.clone();
    }
    let lib = ladder_library(dim, &rows);
    let mut near = twin.clone();
    near.flip_random_bits(9, &mut Xoshiro256StarStar::seed_from_u64(49));
    let block = vec![
        (near.clone(), 1000.0), // window from row 0
        (near.clone(), 1064.0), // centred on the boundary
        (near.clone(), 1152.0), // reaches the second run first in mass order
        (twin.clone(), 1199.0), // window clipped by the library's end
        (rows[0].clone(), 1030.0),
    ];
    for top_k in [1, 5, 8, 300] {
        assert_block_equivalent(&lib, &block, 6.0, 120.0, top_k, "ties across a tile");
    }
    let engine = PackedSearchEngine::new(PackedSearchConfig {
        open_window_da: 120.0,
        top_k: 8,
        ..PackedSearchConfig::default()
    });
    let hits = &engine.search_batch_open(&lib, &block)[1];
    let got: Vec<usize> = hits.iter().map(|h| h.library_index).collect();
    assert_eq!(got, (58..66).collect::<Vec<_>>());
    assert!(hits.iter().all(|h| h.distance == 9));
}
