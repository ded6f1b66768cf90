//! Block search equivalence: `search_batch_standard` / `search_batch_open`
//! score a whole query block in one tiled walk over the library, and must
//! return — hit for hit, tie-break for tie-break — what per-query
//! `search_window` and the scalar oracle `scalar_search_window` return, at
//! every dimensionality, library size, thread count, `top_k` and block
//! size, and on blocks built to hit the walk's corners.

use spechd_rng::Xoshiro256StarStar;
use spechd_search::{HvLibrary, PackedSearchConfig, PackedSearchEngine};
// A ladder's row `i` sits at `1000 + i` Da: a ±w Da window around row
// `r` is rows `r − w ..= r + w`.
use spechd_tests::{
    assert_search_paths, at_threads, ladder_library, random_library, random_queries, random_rows,
    Query, SearchPath,
};

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
    let blocks = [
        (tol_da, at_threads(SearchPath::BlockStandard)),
        (open_da, at_threads(SearchPath::BlockOpen)),
    ];
    for (window_da, block_paths) in blocks {
        let per_query = at_threads(SearchPath::PerQuery);
        let paths: Vec<SearchPath> = block_paths.into_iter().chain(per_query).collect();
        assert_search_paths(lib, block, (window_da, top_k), &paths, None, what);
    }
}

#[test]
fn batch_search_matches_per_query_and_scalar_everywhere() {
    for dim in [63usize, 64, 2048] {
        for size in [0usize, 1, 257, 1500] {
            let lib = random_library(size, dim, 0xB10C ^ (dim * 10_000 + size) as u64);
            for block_len in [0usize, 1, 64] {
                // A little past both ends: some windows are clipped or empty.
                let seed = 0xFACE ^ (dim + block_len) as u64;
                let block = random_queries(block_len, dim, seed, 300.0, 3700.0);
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
    let lib = ladder_library(&rows, 1000.0, 1.0, false);
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
    let lib = ladder_library(&rows, 1000.0, 1.0, false);
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
    let lib = ladder_library(&rows, 1000.0, 1.0, false);
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
    let lib = ladder_library(&rows, 1000.0, 1.0, false);
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
    let lib = ladder_library(&rows, 1000.0, 1.0, false);
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
