//! Packed library search: one windowed code path, two search modes.
//!
//! [`PackedSearchEngine`] scores a query hypervector against the
//! mass-sorted candidate slice of an [`HvLibrary`] with the tiled
//! [`PackedDistanceEngine`], keeping the `top_k` nearest entries:
//!
//! * **standard search** ([`PackedSearchEngine::search_standard`]) —
//!   a narrow precursor window (`precursor_tol_da`, fractions of a
//!   Dalton) selects a handful of candidates;
//! * **open-modification search** ([`PackedSearchEngine::search_open`])
//!   — a wide window (`open_window_da`, hundreds of Dalton) admits
//!   modified forms whose precursor mass is shifted; candidates are
//!   scored in `batch_rows`-sized slices of the tiled engine.
//!
//! Both are the same code path ([`PackedSearchEngine::search_window`])
//! differing only in the window half-width, so their results are
//! directly comparable — and both are **bit-identical** to the scalar
//! oracle [`scalar_search_window`] at any thread count and batch size
//! (pinned by the `packed_search_equivalence` integration suite).
//!
//! A block of queries goes through
//! [`PackedSearchEngine::search_batch_standard`] /
//! [`PackedSearchEngine::search_batch_open`]: one tiled walk over the
//! library ([`PackedDistanceEngine::one_to_many_block`]) scores each
//! library tile against every query whose window covers it while the
//! tile is cache-resident. Both paths select through the same bounded
//! top-k sink, so a block's hits are those of its queries searched one
//! by one (pinned by the `batch_search_equivalence` suite).
//!
//! # Determinism and tie-breaks
//!
//! Hits are ordered by `(distance, library_index)` ascending: a lower
//! Hamming distance wins, and equal distances break toward the lower
//! library row. `top_k` selection uses the same key, so results are a
//! pure function of the library and query.
//!
//! # FDR
//!
//! [`HdPsm`] implements [`ScoredMatch`](crate::ScoredMatch) with
//! `score = −distance` (higher is better), so
//! [`assign_q_values`](crate::assign_q_values) /
//! [`filter_at_fdr`](crate::filter_at_fdr) apply to HD search results
//! unchanged, with decoy provenance coming from the library entries.

use crate::library::HvLibrary;
use spechd_hdc::distance::PackedDistanceEngine;
use spechd_hdc::BinaryHypervector;
use std::collections::BinaryHeap;

/// Tolerances and engine knobs for packed library search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackedSearchConfig {
    /// Standard-search precursor window half-width in Dalton.
    pub precursor_tol_da: f64,
    /// Open-modification window half-width in Dalton.
    pub open_window_da: f64,
    /// Hits kept per query.
    pub top_k: usize,
    /// Candidate rows scored per distance-engine call on the single-query
    /// path ([`PackedSearchEngine::search_window`] and the two modes over
    /// it): bounds that path's per-call distance buffer during
    /// wide-window sweeps. The batch path (`search_batch_*`) does not read
    /// it — its buffer is one engine tile per worker.
    pub batch_rows: usize,
    /// Worker threads for the distance engine (0 = all cores). On the
    /// single-query path they divide each call's *rows*; on the batch path
    /// they divide the block's *queries*. On both, a worker starts only
    /// when its share of the sweep outweighs starting it, so a narrow
    /// window is scored inline. Results are bit-identical at any setting.
    pub threads: usize,
}

impl Default for PackedSearchConfig {
    fn default() -> Self {
        Self {
            precursor_tol_da: 0.05,
            open_window_da: 250.0,
            top_k: 5,
            batch_rows: 4096,
            threads: 0,
        }
    }
}

/// A hypervector peptide-spectrum match: one library hit for one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HdPsm {
    /// Index of the query within the searched batch.
    pub query_index: usize,
    /// Row index of the matched entry in the library.
    pub library_index: usize,
    /// Hamming distance between query and entry (lower is better).
    pub distance: u16,
    /// `query_mass − entry_mass`: in open-modification search, the
    /// putative modification mass.
    pub mass_delta: f64,
    /// Whether the matched entry is a decoy.
    pub is_decoy: bool,
}

impl crate::ScoredMatch for HdPsm {
    fn score(&self) -> f64 {
        -f64::from(self.distance)
    }

    fn is_decoy(&self) -> bool {
        self.is_decoy
    }
}

/// The packed search engine. See the crate-level docs for the two
/// modes and the determinism contract.
///
/// # Examples
///
/// ```
/// use spechd_search::{HvLibraryBuilder, PackedSearchConfig, PackedSearchEngine};
/// use spechd_hdc::BinaryHypervector;
///
/// let mut b = HvLibraryBuilder::new(64);
/// b.push_hypervector(&BinaryHypervector::ones(64), 900.0, 2, "a", false);
/// b.push_hypervector(&BinaryHypervector::zeros(64), 901.0, 2, "b", false);
/// let lib = b.build();
/// let engine = PackedSearchEngine::new(PackedSearchConfig {
///     open_window_da: 10.0,
///     ..PackedSearchConfig::default()
/// });
/// let hits = engine.search_open(&lib, &BinaryHypervector::ones(64), 905.0, 0);
/// assert_eq!(hits[0].library_index, 0);
/// assert_eq!(hits[0].distance, 0);
/// assert_eq!(hits[0].mass_delta, 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct PackedSearchEngine {
    config: PackedSearchConfig,
    engine: PackedDistanceEngine,
}

impl Default for PackedSearchEngine {
    fn default() -> Self {
        Self::new(PackedSearchConfig::default())
    }
}

impl PackedSearchEngine {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if a window is negative or non-finite, `top_k == 0`, or
    /// `batch_rows == 0`.
    pub fn new(config: PackedSearchConfig) -> Self {
        assert!(
            config.precursor_tol_da.is_finite() && config.precursor_tol_da >= 0.0,
            "precursor tolerance must be finite and non-negative"
        );
        assert!(
            config.open_window_da.is_finite() && config.open_window_da >= 0.0,
            "open window must be finite and non-negative"
        );
        assert!(config.top_k > 0, "top_k must be positive");
        assert!(config.batch_rows > 0, "batch_rows must be positive");
        let engine = PackedDistanceEngine::new().threads(config.threads);
        Self { config, engine }
    }

    /// The configuration.
    pub fn config(&self) -> &PackedSearchConfig {
        &self.config
    }

    /// Standard search: [`PackedSearchEngine::search_window`] with the
    /// narrow `precursor_tol_da` window.
    pub fn search_standard(
        &self,
        lib: &HvLibrary,
        query: &BinaryHypervector,
        query_mass: f64,
        query_index: usize,
    ) -> Vec<HdPsm> {
        self.search_window(
            lib,
            query,
            query_mass,
            query_index,
            self.config.precursor_tol_da,
        )
    }

    /// Open-modification search: [`PackedSearchEngine::search_window`]
    /// with the wide `open_window_da` window.
    pub fn search_open(
        &self,
        lib: &HvLibrary,
        query: &BinaryHypervector,
        query_mass: f64,
        query_index: usize,
    ) -> Vec<HdPsm> {
        self.search_window(
            lib,
            query,
            query_mass,
            query_index,
            self.config.open_window_da,
        )
    }

    /// The single-query code path of both modes: scores every library
    /// entry whose mass lies in the closed window
    /// `[query_mass − window_da, query_mass + window_da]` in
    /// `batch_rows`-sized calls of the distance engine, each one split by
    /// rows over at most `threads` workers (none for a call under the
    /// engine's work floor), and returns up to `top_k` hits ordered by
    /// `(distance, library_index)` ascending.
    ///
    /// # Panics
    ///
    /// Panics if the query's dimensionality differs from the library's,
    /// `query_mass` is not finite, or `window_da` is negative or not
    /// finite.
    pub fn search_window(
        &self,
        lib: &HvLibrary,
        query: &BinaryHypervector,
        query_mass: f64,
        query_index: usize,
        window_da: f64,
    ) -> Vec<HdPsm> {
        let range = lib.window(query_mass, window_da);
        let mut best = TopK::new(self.config.top_k, range.len());
        for lo in range.clone().step_by(self.config.batch_rows) {
            let hi = lo.saturating_add(self.config.batch_rows).min(range.end);
            let dists = self.engine.one_to_many_range(query, lib.pack(), lo..hi);
            best.offer(lo, &dists);
        }
        best.into_hits(lib, query_mass, query_index)
    }

    /// Standard-mode search of a whole query batch; entry `i` holds the
    /// hits of `queries[i]` with `query_index == i`, bit-identical to
    /// [`PackedSearchEngine::search_standard`] on each query. The block is
    /// scored in one tiled walk over the library — see
    /// [`PackedDistanceEngine::one_to_many_block`].
    ///
    /// # Panics
    ///
    /// Panics if a query's dimensionality differs from the library's or a
    /// query mass is not finite.
    pub fn search_batch_standard(
        &self,
        lib: &HvLibrary,
        queries: &[(BinaryHypervector, f64)],
    ) -> Vec<Vec<HdPsm>> {
        self.search_batch_window(lib, queries, self.config.precursor_tol_da)
    }

    /// Open-modification search of a whole query batch; entry `i` holds
    /// the hits of `queries[i]` with `query_index == i`, bit-identical to
    /// [`PackedSearchEngine::search_open`] on each query. The block is
    /// scored in one tiled walk over the library — see
    /// [`PackedDistanceEngine::one_to_many_block`].
    ///
    /// # Panics
    ///
    /// Panics if a query's dimensionality differs from the library's or a
    /// query mass is not finite.
    pub fn search_batch_open(
        &self,
        lib: &HvLibrary,
        queries: &[(BinaryHypervector, f64)],
    ) -> Vec<Vec<HdPsm>> {
        self.search_batch_window(lib, queries, self.config.open_window_da)
    }

    /// The block code path of both modes: every query's window through one
    /// walk of the library, each with its own top-k sink.
    fn search_batch_window(
        &self,
        lib: &HvLibrary,
        queries: &[(BinaryHypervector, f64)],
        window_da: f64,
    ) -> Vec<Vec<HdPsm>> {
        let lanes = queries.iter().map(|(query, mass)| {
            let rows = lib.window(*mass, window_da);
            let best = TopK::new(self.config.top_k, rows.len());
            (query, rows, best)
        });
        self.engine
            .one_to_many_block(lib.pack(), lanes, TopK::offer)
            .into_iter()
            .zip(queries)
            .enumerate()
            .map(|(i, (best, (_, mass)))| best.into_hits(lib, *mass, i))
            .collect()
    }
}

/// The `k` smallest `(distance, library_index)` keys offered so far — the
/// one top-k selection under both search paths. Keys are unique (the
/// index), so the selection is a pure function of the set of rows offered,
/// whatever their order.
struct TopK {
    k: usize,
    /// Max-heap: the root is the current worst keeper.
    heap: BinaryHeap<(u16, usize)>,
}

impl TopK {
    /// Keeps `top_k` keys, or all `candidates` when there are fewer — the
    /// heap is sized by what can arrive, not by what was asked for.
    fn new(top_k: usize, candidates: usize) -> Self {
        let k = top_k.min(candidates);
        Self {
            k,
            heap: BinaryHeap::with_capacity(k),
        }
    }

    /// Offers rows `first..first + dists.len()`. Once `k` keys are held, a
    /// slice whose least distance is *greater* than the worst keeper's is
    /// dropped whole; an equal distance can still win on a lower index, so
    /// it goes through the key comparison.
    fn offer(&mut self, first: usize, dists: &[u16]) {
        if self.heap.len() == self.k {
            let least = dists.iter().fold(u16::MAX, |m, &d| m.min(d));
            match self.heap.peek() {
                Some(worst) if least <= worst.0 => {}
                _ => return,
            }
        }
        for (off, &d) in dists.iter().enumerate() {
            let key = (d, first + off);
            if self.heap.len() < self.k {
                self.heap.push(key);
            } else if let Some(mut worst) = self.heap.peek_mut() {
                if key < *worst {
                    *worst = key;
                }
            }
        }
    }

    fn into_hits(self, lib: &HvLibrary, query_mass: f64, query_index: usize) -> Vec<HdPsm> {
        psms(lib, self.heap.into_sorted_vec(), query_mass, query_index)
    }
}

/// The hits of one query from its selected keys, in the order given.
fn psms(
    lib: &HvLibrary,
    keys: Vec<(u16, usize)>,
    query_mass: f64,
    query_index: usize,
) -> Vec<HdPsm> {
    keys.into_iter()
        .map(|(distance, library_index)| HdPsm {
            query_index,
            library_index,
            distance,
            mass_delta: query_mass - lib.mass(library_index),
            is_decoy: lib.is_decoy(library_index),
        })
        .collect()
}

/// The scalar per-spectrum reference scorer: materializes every
/// candidate row as an owned hypervector, scores it with the scalar
/// [`BinaryHypervector::hamming`] primitive, sorts by
/// `(distance, library_index)` and truncates to `top_k`. Slow by
/// design — it is the oracle [`PackedSearchEngine`] is proven
/// bit-identical to.
///
/// # Panics
///
/// Same contract as [`PackedSearchEngine::search_window`].
pub fn scalar_search_window(
    lib: &HvLibrary,
    query: &BinaryHypervector,
    query_mass: f64,
    query_index: usize,
    window_da: f64,
    top_k: usize,
) -> Vec<HdPsm> {
    assert!(top_k > 0, "top_k must be positive");
    let mut keys: Vec<(u16, usize)> = lib
        .window(query_mass, window_da)
        .map(|i| (query.hamming(&lib.pack().hypervector(i)) as u16, i))
        .collect();
    keys.sort_unstable();
    keys.truncate(top_k);
    psms(lib, keys, query_mass, query_index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::HvLibraryBuilder;
    use crate::{assign_q_values, filter_at_fdr};
    use spechd_rng::{Rng, Xoshiro256StarStar};

    fn random_hv(dim: usize, rng: &mut Xoshiro256StarStar) -> BinaryHypervector {
        BinaryHypervector::random(dim, rng)
    }

    fn random_library(n: usize, dim: usize, seed: u64) -> HvLibrary {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut b = HvLibraryBuilder::new(dim);
        for i in 0..n {
            let hv = random_hv(dim, &mut rng);
            let mass = rng.range_f64(500.0, 3500.0);
            b.push_with_shuffled_decoy(&hv, mass, 2, &format!("e{i}"), seed ^ i as u64);
        }
        b.build()
    }

    #[test]
    fn planted_match_is_found_in_both_modes() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let mut b = HvLibraryBuilder::new(2048);
        for i in 0..40 {
            b.push_hypervector(
                &random_hv(2048, &mut rng),
                900.0 + i as f64,
                2,
                format!("bg{i}"),
                false,
            );
        }
        let mut planted = random_hv(2048, &mut rng);
        b.push_hypervector(&planted, 920.0, 2, "planted", false);
        let lib = b.build();
        planted.flip_random_bits(30, &mut rng);
        let engine = PackedSearchEngine::new(PackedSearchConfig {
            precursor_tol_da: 0.5,
            open_window_da: 100.0,
            top_k: 3,
            ..PackedSearchConfig::default()
        });
        let planted_row = (0..lib.len()).find(|&i| lib.id(i) == "planted").unwrap();
        for hits in [
            engine.search_standard(&lib, &planted, 920.0, 7),
            engine.search_open(&lib, &planted, 920.0, 7),
        ] {
            assert_eq!(hits[0].library_index, planted_row);
            assert_eq!(hits[0].distance, 30);
            assert_eq!(hits[0].query_index, 7);
            assert_eq!(hits[0].mass_delta, 0.0);
        }
    }

    #[test]
    fn both_modes_match_scalar_reference() {
        let lib = random_library(60, 256, 11);
        let mut rng = Xoshiro256StarStar::seed_from_u64(77);
        let engine = PackedSearchEngine::new(PackedSearchConfig {
            precursor_tol_da: 40.0,
            open_window_da: 600.0,
            top_k: 4,
            batch_rows: 7, // force multi-batch sweeps
            threads: 2,
        });
        for qi in 0..10 {
            let q = random_hv(256, &mut rng);
            let mass = rng.range_f64(500.0, 3500.0);
            assert_eq!(
                engine.search_standard(&lib, &q, mass, qi),
                scalar_search_window(&lib, &q, mass, qi, 40.0, 4),
            );
            assert_eq!(
                engine.search_open(&lib, &q, mass, qi),
                scalar_search_window(&lib, &q, mass, qi, 600.0, 4),
            );
        }
    }

    #[test]
    fn ties_break_toward_lower_library_index() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(21);
        let hv = random_hv(128, &mut rng);
        let mut b = HvLibraryBuilder::new(128);
        // Four identical rows at the same mass: all hits tie on distance.
        for i in 0..4 {
            b.push_hypervector(&hv, 1000.0, 2, format!("dup{i}"), false);
        }
        let lib = b.build();
        let engine = PackedSearchEngine::new(PackedSearchConfig {
            top_k: 3,
            ..PackedSearchConfig::default()
        });
        let hits = engine.search_standard(&lib, &hv, 1000.0, 0);
        let rows: Vec<usize> = hits.iter().map(|h| h.library_index).collect();
        assert_eq!(rows, vec![0, 1, 2]);
        assert!(hits.iter().all(|h| h.distance == 0));
    }

    #[test]
    fn empty_library_and_empty_window_yield_no_hits() {
        let lib = HvLibraryBuilder::new(64).build();
        let engine = PackedSearchEngine::default();
        let q = BinaryHypervector::zeros(64);
        assert!(engine.search_standard(&lib, &q, 1000.0, 0).is_empty());
        let lib = random_library(5, 64, 3);
        assert!(engine.search_window(&lib, &q, 100_000.0, 0, 1.0).is_empty());
    }

    #[test]
    fn fewer_candidates_than_top_k_returns_all() {
        let lib = random_library(2, 64, 9); // 4 entries with decoys
        let engine = PackedSearchEngine::new(PackedSearchConfig {
            open_window_da: 1e5,
            top_k: 100,
            ..PackedSearchConfig::default()
        });
        let q = BinaryHypervector::zeros(64);
        let hits = engine.search_open(&lib, &q, 2000.0, 0);
        assert_eq!(hits.len(), lib.len());
        assert!(hits
            .windows(2)
            .all(|w| (w[0].distance, w[0].library_index) < (w[1].distance, w[1].library_index)));
    }

    #[test]
    fn top_k_reserves_by_candidates_not_by_request() {
        let lib = random_library(5, 64, 9); // 10 entries with decoys
        let q = BinaryHypervector::zeros(64);
        for top_k in [usize::MAX, 1 << 40] {
            let engine = PackedSearchEngine::new(PackedSearchConfig {
                open_window_da: 1e5,
                top_k,
                ..PackedSearchConfig::default()
            });
            let all = scalar_search_window(&lib, &q, 2000.0, 0, 1e5, top_k);
            assert_eq!(all.len(), lib.len());
            assert_eq!(engine.search_open(&lib, &q, 2000.0, 0), all);
            let block = [(q.clone(), 2000.0), (q.clone(), 9e5)];
            assert_eq!(engine.search_batch_open(&lib, &block), [all, vec![]]);
        }
    }

    #[test]
    fn equal_distance_tile_is_not_skipped() {
        // Two kept, the worse one (7, 900). A later slice whose least
        // distance is also 7, at row 40, must displace it: (7, 40) < (7, 900).
        let mut best = TopK::new(2, 1000);
        best.offer(899, &[3, 7]);
        best.offer(38, &[9, 8, 7, 8]);
        assert_eq!(best.heap.clone().into_sorted_vec(), [(3, 899), (7, 40)]);
        // Strictly worse slices are dropped whole, equal index or not.
        best.offer(0, &[8, 9, 65535]);
        assert_eq!(best.heap.into_sorted_vec(), [(3, 899), (7, 40)]);
    }

    #[test]
    fn batch_modes_match_per_query_search() {
        let lib = random_library(150, 256, 12);
        let mut rng = Xoshiro256StarStar::seed_from_u64(78);
        let block: Vec<(BinaryHypervector, f64)> = (0..9)
            .map(|_| (random_hv(256, &mut rng), rng.range_f64(400.0, 3600.0)))
            .collect();
        let engine = PackedSearchEngine::new(PackedSearchConfig {
            precursor_tol_da: 40.0,
            open_window_da: 600.0,
            top_k: 4,
            threads: 2,
            ..PackedSearchConfig::default()
        });
        let per_query = |window_da: f64| -> Vec<Vec<HdPsm>> {
            block
                .iter()
                .enumerate()
                .map(|(i, (q, m))| scalar_search_window(&lib, q, *m, i, window_da, 4))
                .collect()
        };
        assert_eq!(engine.search_batch_standard(&lib, &block), per_query(40.0));
        assert_eq!(engine.search_batch_open(&lib, &block), per_query(600.0));
        assert!(engine.search_batch_open(&lib, &[]).is_empty());
    }

    #[test]
    fn hd_psms_are_fdr_controllable() {
        // HdPsm scores rank by -distance, so q-values follow decoy
        // placement in distance order.
        let psm = |distance: u16, is_decoy: bool| HdPsm {
            query_index: 0,
            library_index: 0,
            distance,
            mass_delta: 0.0,
            is_decoy,
        };
        let matches = vec![
            psm(10, false),
            psm(20, false),
            psm(30, true),
            psm(40, false),
        ];
        let q = assign_q_values(&matches);
        assert_eq!(q[0], 0.0);
        assert_eq!(q[1], 0.0);
        assert!(q[3] > 0.0, "target below a decoy inherits its FDR");
        let accepted = filter_at_fdr(&matches, 0.01);
        assert_eq!(accepted, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "top_k must be positive")]
    fn zero_top_k_rejected() {
        PackedSearchEngine::new(PackedSearchConfig {
            top_k: 0,
            ..PackedSearchConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_window_rejected() {
        PackedSearchEngine::new(PackedSearchConfig {
            open_window_da: -1.0,
            ..PackedSearchConfig::default()
        });
    }
}
