//! The search paths table and the libraries the search suites build.

use crate::projection::{assert_same, hits, served_hits};
use spechd_hdc::BinaryHypervector;
use spechd_rng::{Rng, Xoshiro256StarStar};
use spechd_search::{
    scalar_search_window, HdPsm, HvLibrary, HvLibraryBuilder, PackedSearchConfig,
    PackedSearchEngine,
};
use spechd_server::{LibraryEntryWire, QueryHits, QueryWire};

/// A query hypervector and its precursor mass.
pub type Query = (BinaryHypervector, f64);

/// The per-query paths' `batch_rows`: smaller than any window the suites
/// search, so every per-query sweep crosses batch boundaries.
pub const BATCH_ROWS: usize = 5;

/// `n` random hypervectors, deterministic in `seed`.
pub fn random_rows(n: usize, dim: usize, seed: u64) -> Vec<BinaryHypervector> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    (0..n)
        .map(|_| BinaryHypervector::random(dim, &mut rng))
        .collect()
}

/// `n` random queries at random masses in `lo..hi` Da.
pub fn random_queries(n: usize, dim: usize, seed: u64, lo: f64, hi: f64) -> Vec<Query> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (
                BinaryHypervector::random(dim, &mut rng),
                rng.range_f64(lo, hi),
            )
        })
        .collect()
}

/// `n` random rows at random masses in 500–3500 Da, every third one
/// followed by its shuffled decoy (so some masses are shared).
pub fn random_library(n: usize, dim: usize, seed: u64) -> HvLibrary {
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

/// Row `i` is `rows[i]` with id `r{i}` at `base + i·step` Da, a decoy
/// when `decoys` and `i % 3 == 0`; a ±w Da window around row `r` holds
/// rows `r − w/step ..= r + w/step`.
pub fn ladder_library(rows: &[BinaryHypervector], base: f64, step: f64, decoys: bool) -> HvLibrary {
    let mut b = HvLibraryBuilder::new(rows[0].dim());
    for (i, hv) in rows.iter().enumerate() {
        b.push_hypervector(
            hv,
            base + i as f64 * step,
            2,
            format!("r{i}"),
            decoys && i % 3 == 0,
        );
    }
    b.build()
}

/// Every entry of `lib` as the wire ships it.
pub fn wire_entries(lib: &HvLibrary) -> Vec<LibraryEntryWire> {
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

/// Every query of `block` as the wire ships it.
pub fn wire_queries(block: &[Query]) -> Vec<QueryWire> {
    block
        .iter()
        .map(|(hv, mass)| QueryWire {
            mass: *mass,
            words: hv.words().to_vec(),
        })
        .collect()
}

/// The search paths table: every way the library scores a query block,
/// each hit for hit equal to [`scalar_search_window`], tie-breaks
/// included. The window is the mode's half-width, standard or open.
#[derive(Debug, Clone, Copy)]
pub enum SearchPath {
    /// `scalar_search_window`, the oracle.
    Scalar,
    /// `search_window` per query, at this many threads.
    PerQuery(usize),
    /// `search_standard` per query.
    Standard(usize),
    /// `search_open` per query.
    Open(usize),
    /// `search_batch_standard`: one tiled walk for the whole block.
    BlockStandard(usize),
    /// `search_batch_open`.
    BlockOpen(usize),
}

/// Engine paths at 1 / 2 / 4 threads.
pub fn at_threads(path: fn(usize) -> SearchPath) -> [SearchPath; 3] {
    [path(1), path(2), path(4)]
}

/// Scores `block` against `lib` through `path`.
pub fn search(
    lib: &HvLibrary,
    block: &[Query],
    window_da: f64,
    top_k: usize,
    path: SearchPath,
) -> Vec<Vec<HdPsm>> {
    let engine = |threads| {
        PackedSearchEngine::new(PackedSearchConfig {
            precursor_tol_da: window_da,
            open_window_da: window_da,
            top_k,
            batch_rows: BATCH_ROWS,
            threads,
        })
    };
    let per_query = |score: &dyn Fn(&BinaryHypervector, f64, usize) -> Vec<HdPsm>| {
        block
            .iter()
            .enumerate()
            .map(|(i, (q, m))| score(q, *m, i))
            .collect()
    };
    match path {
        SearchPath::Scalar => {
            per_query(&|q, m, i| scalar_search_window(lib, q, m, i, window_da, top_k))
        }
        SearchPath::PerQuery(t) => {
            per_query(&|q, m, i| engine(t).search_window(lib, q, m, i, window_da))
        }
        SearchPath::Standard(t) => per_query(&|q, m, i| engine(t).search_standard(lib, q, m, i)),
        SearchPath::Open(t) => per_query(&|q, m, i| engine(t).search_open(lib, q, m, i)),
        SearchPath::BlockStandard(t) => engine(t).search_batch_standard(lib, block),
        SearchPath::BlockOpen(t) => engine(t).search_batch_open(lib, block),
    }
}

/// Runs every path over `block`, and the reply a `SearchClient` got for
/// it if given, and compares each with the scalar oracle; returns the
/// oracle's hits.
pub fn assert_search_paths(
    lib: &HvLibrary,
    block: &[Query],
    (window_da, top_k): (f64, usize),
    paths: &[SearchPath],
    served: Option<&[QueryHits]>,
    data: &str,
) -> Vec<Vec<HdPsm>> {
    let oracle = search(lib, block, window_da, top_k, SearchPath::Scalar);
    // A local hit's id is its library row's: compared only against a
    // served reply, which carries the id itself.
    let want = hits(&oracle, served.map(|_| lib));
    let data = format!("{data}, window {window_da}, top_k {top_k}");
    for &path in paths {
        let got = hits(&search(lib, block, window_da, top_k, path), None);
        assert_same(&format!("{path:?}"), &data, &got, &want);
    }
    if let Some(served) = served {
        assert_same("Served", &data, &served_hits(served), &want);
    }
    oracle
}
