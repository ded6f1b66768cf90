//! Batch Hamming-distance kernels used by the clustering front end.
//!
//! The FPGA distance kernel streams encoded spectra out of HBM and fills the
//! lower-triangular distance matrix with XOR + popcount results; these
//! kernels are the bit-exact software equivalents.
//!
//! Two tiers are provided:
//!
//! * **Scalar reference** — [`pairwise_condensed`] and [`one_to_many`]
//!   operate on `&[BinaryHypervector]` one pair at a time. Simple,
//!   allocation-per-vector, and kept as the bit-exact oracle the packed
//!   tier is tested against.
//! * **Packed engine** — [`PackedDistanceEngine`] runs over an
//!   [`HvPack`]'s contiguous buffer in cache-sized row/column tiles,
//!   register-blocked four columns at a time, with row tiles distributed
//!   across scoped worker threads. This mirrors how the hardware kernel
//!   batches packed spectra instead of touching one pair at a time, and
//!   is the only tier the pipeline, clustering and search call.
//!
//! # Distance type
//!
//! Every batch kernel returns distances as `u16`: a Hamming distance is
//! bounded by `dim`, every kernel asserts `dim <= u16::MAX`, and 16-bit
//! fixed point is exactly what the paper's FPGA keeps in HBM for the
//! condensed matrix (§III-C). The scalar [`BinaryHypervector::hamming`]
//! primitive stays `u32` (it has no dim bound of its own); the batch layer
//! is where the 16-bit storage contract lives.

use crate::fan_out::resolve_workers;
use crate::{fan_out, BinaryHypervector, HvPack};

/// Length of the condensed strict lower triangle over `n` points,
/// `n·(n−1)/2`, computed with a checked multiply.
///
/// The even factor is halved before multiplying, so the check fires only
/// when the *result* overflows `usize` (reachable on 32-bit targets at
/// n ≈ 93 000, not before).
///
/// # Panics
///
/// Panics with a clear message if `n·(n−1)/2` overflows `usize`.
pub fn condensed_len(n: usize) -> usize {
    if n < 2 {
        return 0;
    }
    let (a, b) = if n % 2 == 0 {
        (n / 2, n - 1)
    } else {
        (n, (n - 1) / 2)
    };
    a.checked_mul(b)
        .unwrap_or_else(|| panic!("condensed matrix over n = {n} points overflows usize"))
}

/// Computes all pairwise Hamming distances among `hvs`, returned as a
/// condensed lower-triangular vector: entry for pair `(i, j)` with `i > j`
/// lives at `i * (i - 1) / 2 + j`.
///
/// This is the scalar reference path;
/// [`PackedDistanceEngine::pairwise_condensed`] is the tiled equivalent
/// over an [`HvPack`] and is bit-exact with this one.
///
/// # Panics
///
/// Panics if hypervectors have inconsistent dimensionality or if
/// `dim > u16::MAX as usize`.
///
/// # Examples
///
/// ```
/// use spechd_hdc::{distance, BinaryHypervector};
/// let hvs = vec![
///     BinaryHypervector::zeros(64),
///     BinaryHypervector::ones(64),
///     BinaryHypervector::from_fn(64, |i| i < 32),
/// ];
/// let d = distance::pairwise_condensed(&hvs);
/// assert_eq!(d, vec![64, 32, 32]); // (1,0), (2,0), (2,1)
/// ```
pub fn pairwise_condensed(hvs: &[BinaryHypervector]) -> Vec<u16> {
    if hvs.is_empty() {
        return Vec::new();
    }
    assert_dim_fits_u16(hvs[0].dim());
    let n = hvs.len();
    let mut out = Vec::with_capacity(condensed_len(n));
    for i in 1..n {
        for j in 0..i {
            out.push(hvs[i].hamming(&hvs[j]) as u16);
        }
    }
    out
}

/// Distances from one query to every element of `hvs`.
///
/// Returns `u16` distances — see the module docs for the shared distance
/// type.
///
/// # Panics
///
/// Panics if dimensionalities differ or `dim > u16::MAX as usize`.
pub fn one_to_many(query: &BinaryHypervector, hvs: &[BinaryHypervector]) -> Vec<u16> {
    assert_dim_fits_u16(query.dim());
    hvs.iter().map(|h| query.hamming(h) as u16).collect()
}

fn assert_dim_fits_u16(dim: usize) {
    assert!(
        dim <= u16::MAX as usize,
        "dim {dim} exceeds 16-bit distance range"
    );
}

fn assert_query_fits(query: &BinaryHypervector, pack: &HvPack, rows: &std::ops::Range<usize>) {
    assert_eq!(
        query.dim(),
        pack.dim(),
        "query/pack dimensionality mismatch"
    );
    assert!(
        rows.start <= rows.end && rows.end <= pack.len(),
        "row range {rows:?} out of bounds for pack of len {}",
        pack.len()
    );
}

/// Tiled, multithreaded Hamming-distance engine over an [`HvPack`].
///
/// The engine blocks the N×N pair space into `tile_rows`-sized row and
/// column tiles so both operand blocks stay cache-resident (at the paper's
/// `D = 2048` a 64-row tile is 16 KiB), register-blocks the inner loop four
/// columns wide so each query word is loaded once per four XOR+popcount
/// lanes, and hands row tiles to [`fan_out`]'s scoped workers, one worker
/// started per tile up to the worker count. Tiles are independent, so the
/// output is deterministic and bit-exact with the scalar reference
/// regardless of worker count.
///
/// # Examples
///
/// ```
/// use spechd_hdc::{distance::PackedDistanceEngine, BinaryHypervector, HvPack};
/// let hvs = vec![
///     BinaryHypervector::zeros(64),
///     BinaryHypervector::ones(64),
///     BinaryHypervector::from_fn(64, |i| i < 32),
/// ];
/// let pack = HvPack::from_hypervectors(64, &hvs);
/// let engine = PackedDistanceEngine::new().threads(1);
/// assert_eq!(engine.pairwise_condensed(&pack), vec![64, 32, 32]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedDistanceEngine {
    tile_rows: usize,
    threads: usize,
}

impl Default for PackedDistanceEngine {
    fn default() -> Self {
        Self {
            tile_rows: 64,
            threads: 0,
        }
    }
}

impl PackedDistanceEngine {
    /// Engine with the default tile size (64 rows) and automatic worker
    /// count ([`std::thread::available_parallelism`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the row/column tile size.
    ///
    /// # Panics
    ///
    /// Panics if `tile_rows == 0`.
    pub fn tile_rows(mut self, tile_rows: usize) -> Self {
        assert!(tile_rows > 0, "tile size must be positive");
        self.tile_rows = tile_rows;
        self
    }

    /// Sets the worker count; `0` means one worker per available core.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// All pairwise distances over the pack's rows, condensed
    /// lower-triangular (same layout as [`pairwise_condensed`]).
    ///
    /// # Panics
    ///
    /// Panics if `pack.dim() > u16::MAX as usize`.
    pub fn pairwise_condensed(&self, pack: &HvPack) -> Vec<u16> {
        assert_dim_fits_u16(pack.dim());
        let n = pack.len();
        let mut out = vec![0u16; condensed_len(n)];

        // Row tiles own disjoint, contiguous output ranges: rows [lo, hi)
        // cover condensed indices [len(lo), len(hi)).
        let mut rest = out.as_mut_slice();
        let tiles = (0..n).step_by(self.tile_rows).map(|lo| {
            let hi = (lo + self.tile_rows).min(n);
            let cells = condensed_len(hi) - condensed_len(lo);
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(cells);
            rest = tail;
            (lo, hi, chunk)
        });
        let fill = |(lo, hi, chunk)| fill_row_tile(pack, lo, hi, self.tile_rows, chunk);
        fan_out(self.threads, |send| tiles.for_each(send), fill, |_| {});
        out
    }

    /// Distances from `query` to every row of the pack, parallelized over
    /// contiguous row ranges.
    ///
    /// # Panics
    ///
    /// Panics if `query.dim() != pack.dim()` or
    /// `pack.dim() > u16::MAX as usize`.
    pub fn one_to_many(&self, query: &BinaryHypervector, pack: &HvPack) -> Vec<u16> {
        self.one_to_many_range(query, pack, 0..pack.len())
    }

    /// Distances from `query` to the pack rows in `range` only:
    /// `out[k]` is the distance to row `range.start + k`. This is the
    /// windowed variant of [`PackedDistanceEngine::one_to_many`] that
    /// library search uses to score a contiguous mass-sorted candidate
    /// slice without gathering it into a fresh pack; it is bit-exact
    /// with slicing the full result.
    ///
    /// The rows are cut into contiguous chunks, one per worker, and only
    /// as many workers start as the range has work floors: a range of a
    /// few thousand rows is swept inline at any thread setting.
    ///
    /// # Panics
    ///
    /// Panics if `query.dim() != pack.dim()`,
    /// `pack.dim() > u16::MAX as usize`, or the range is out of bounds.
    pub fn one_to_many_range(
        &self,
        query: &BinaryHypervector,
        pack: &HvPack,
        range: std::ops::Range<usize>,
    ) -> Vec<u16> {
        assert_dim_fits_u16(pack.dim());
        assert_query_fits(query, pack, &range);
        let mut out = vec![0u16; range.len()];
        let workers = sweep_workers(out.len(), pack.stride(), self.threads);
        let chunk_rows = out.len().div_ceil(workers).max(1);
        let chunks = out.chunks_mut(chunk_rows).enumerate();
        let chunks = chunks.map(|(k, chunk)| (range.start + k * chunk_rows, chunk));
        let qw = query.words();
        let sweep = |(lo, chunk)| sweep_rows(qw, pack, lo, chunk);
        fan_out(workers, |send| chunks.for_each(send), sweep, |_| {});
        out
    }

    /// Scores a block of queries, each against its own row range, in one
    /// tiled walk over the pack: the queries are ordered by range start and
    /// the union of their ranges is visited `tile_rows` rows at a time, each
    /// tile scored against every query whose range covers it while the tile
    /// is cache-resident. Rows no range covers are skipped, so the work is
    /// Σ range lengths whatever the span between ranges.
    ///
    /// Each element of `queries` is `(query, rows, sink)`. For every tile
    /// slice of `rows`, `feed(&mut sink, first, dists)` is called with
    /// `dists[k]` the distance to row `first + k` — ascending, each row of
    /// `rows` exactly once and bit-exact with
    /// [`PackedDistanceEngine::one_to_many_range`]. The sinks come back in
    /// the order the queries were given.
    ///
    /// `threads` here divides the *queries*, not the rows: contiguous groups
    /// of the range-ordered queries walk on their own workers, and only when
    /// each worker's share of the sweep outweighs starting it; a small block
    /// runs inline at any setting.
    ///
    /// # Panics
    ///
    /// Panics if a query's dimensionality differs from the pack's,
    /// `pack.dim() > u16::MAX as usize`, or a range is out of bounds.
    pub fn one_to_many_block<'q, S: Send>(
        &self,
        pack: &HvPack,
        queries: impl IntoIterator<Item = (&'q BinaryHypervector, std::ops::Range<usize>, S)>,
        feed: impl Fn(&mut S, usize, &[u16]) + Sync,
    ) -> Vec<S> {
        assert_dim_fits_u16(pack.dim());
        let mut lanes: Vec<Lane<S>> = queries
            .into_iter()
            .enumerate()
            .map(|(query, (hv, rows, sink))| {
                assert_query_fits(hv, pack, &rows);
                Lane {
                    query,
                    words: hv.words(),
                    rows,
                    sink,
                }
            })
            .collect();
        lanes.sort_unstable_by_key(|lane| (lane.rows.start, lane.query));
        let groups = split_block(&mut lanes, pack.stride(), self.threads);
        // One worker per group; an empty block has none, and 0 means auto.
        fan_out(
            groups.len().max(1),
            |send| groups.into_iter().for_each(send),
            |group| walk_block(pack, self.tile_rows, group, &feed),
            |_| {},
        );
        lanes.sort_unstable_by_key(|lane| lane.query);
        lanes.into_iter().map(|lane| lane.sink).collect()
    }

    /// For every row `p`, the ascending list of rows `q != p` with
    /// `hamming(p, q) <= eps` — the epsilon-neighborhood query DBSCAN
    /// consumes directly, without ever materializing the O(n²) distance
    /// matrix.
    ///
    /// # Panics
    ///
    /// Panics if `pack.dim() > u16::MAX as usize`.
    pub fn neighbors_within(&self, pack: &HvPack, eps: u32) -> Vec<Vec<usize>> {
        assert_dim_fits_u16(pack.dim());
        let n = pack.len();
        // Each row tile scans all n columns (symmetric pairs are evaluated
        // once per side): that keeps row tiles fully independent of each
        // other at the cost of doing the pair space twice.
        let ((), per_tile) = fan_out(
            self.threads,
            |send| (0..n).step_by(self.tile_rows).for_each(send),
            |lo| neighbor_tile(pack, lo, self.tile_rows, eps),
            |_| {},
        );
        per_tile.into_iter().flatten().collect()
    }
}

/// The neighbor lists of rows `[lo, lo + tile)`, scanning every column
/// tile in ascending order so each list comes out sorted.
fn neighbor_tile(pack: &HvPack, lo: usize, tile: usize, eps: u32) -> Vec<Vec<usize>> {
    let n = pack.len();
    let hi = (lo + tile).min(n);
    let mut lists: Vec<Vec<usize>> = vec![Vec::new(); hi - lo];
    for cj in (0..n).step_by(tile) {
        let cj_hi = (cj + tile).min(n);
        for (i, list) in (lo..hi).zip(lists.iter_mut()) {
            let row_i = pack.row(i);
            let mut j = cj;
            while j + 4 <= cj_hi {
                let d = hamming_words_x4(
                    row_i,
                    pack.row(j),
                    pack.row(j + 1),
                    pack.row(j + 2),
                    pack.row(j + 3),
                );
                for (t, &dt) in d.iter().enumerate() {
                    if j + t != i && dt <= eps {
                        list.push(j + t);
                    }
                }
                j += 4;
            }
            while j < cj_hi {
                if j != i && hamming_words(row_i, pack.row(j)) <= eps {
                    list.push(j);
                }
                j += 1;
            }
        }
    }
    lists
}

/// Fills the condensed output rows `[lo, hi)` of a row tile, walking
/// column tiles of the same width so both operand blocks stay in cache.
fn fill_row_tile(pack: &HvPack, lo: usize, hi: usize, tile: usize, chunk: &mut [u16]) {
    let base = condensed_len(lo);
    for cj in (0..hi).step_by(tile) {
        let cj_hi = (cj + tile).min(hi);
        for i in lo.max(cj + 1)..hi {
            let row_i = pack.row(i);
            let j_hi = cj_hi.min(i);
            let row_off = condensed_len(i) - base;
            sweep_rows(row_i, pack, cj, &mut chunk[row_off + cj..row_off + j_hi]);
        }
    }
}

/// One query of a block walk: its words, the rows it is scored against
/// and the caller's sink for the distances.
struct Lane<'a, S> {
    query: usize,
    words: &'a [u64],
    rows: std::ops::Range<usize>,
    sink: S,
}

/// Packed words a sweep worker must score to be worth starting: a scoped
/// thread costs ≈ 40–80 µs to start and join, about 4 096 rows at D = 2048.
/// The one work floor of both sweeps that split: `one_to_many_range` cuts
/// its rows into chunks of at least this much, and `split_block` gives a
/// block walk one worker per floor of its summed ranges.
const MIN_SWEEP_WORDS_PER_WORKER: usize = 1 << 17;

/// Workers a sweep of `rows` rows of `stride` words earns: one per work
/// floor, at least one, at most `threads` (`0` = one per available core).
fn sweep_workers(rows: usize, stride: usize, threads: usize) -> usize {
    (rows.saturating_mul(stride) / MIN_SWEEP_WORDS_PER_WORKER).clamp(1, resolve_workers(threads))
}

/// Cuts range-ordered lanes into contiguous groups of about equal row
/// counts, one per worker whose share clears the work floor.
fn split_block<'l, 'a, S>(
    mut lanes: &'l mut [Lane<'a, S>],
    stride: usize,
    threads: usize,
) -> Vec<&'l mut [Lane<'a, S>]> {
    let mut rows: usize = lanes.iter().map(|lane| lane.rows.len()).sum();
    let workers = sweep_workers(rows, stride, threads);
    let mut groups = Vec::with_capacity(workers);
    while groups.len() + 1 < workers && rows > 0 {
        let share = rows.div_ceil(workers - groups.len());
        let mut taken = 0;
        let cut = lanes.iter().position(|lane| {
            taken += lane.rows.len();
            taken >= share
        });
        let (group, rest) = lanes.split_at_mut(cut.map_or(lanes.len(), |last| last + 1));
        groups.push(group);
        lanes = rest;
        rows -= taken;
    }
    if !lanes.is_empty() {
        groups.push(lanes);
    }
    groups
}

/// Walks the union of the lanes' ranges tile by tile. `lanes` is ordered by
/// range start; the active set holds the lanes whose range reaches into the
/// current tile, and the walk jumps to the next lane's start when it empties.
fn walk_block<S>(
    pack: &HvPack,
    tile_rows: usize,
    lanes: &mut [Lane<S>],
    feed: &impl Fn(&mut S, usize, &[u16]),
) {
    let longest = lanes.iter().map(|lane| lane.rows.len()).max().unwrap_or(0);
    let mut tile = vec![0u16; tile_rows.min(longest)];
    let mut active: Vec<usize> = Vec::with_capacity(lanes.len());
    let mut next = 0;
    let mut lo = 0;
    loop {
        if active.is_empty() {
            match lanes.get(next) {
                Some(lane) => lo = lane.rows.start,
                None => return,
            }
        }
        let hi = lo.saturating_add(tile_rows);
        while lanes.get(next).is_some_and(|lane| lane.rows.start < hi) {
            if !lanes[next].rows.is_empty() {
                active.push(next);
            }
            next += 1;
        }
        for &l in &active {
            let lane = &mut lanes[l];
            let first = lane.rows.start.max(lo);
            let dists = &mut tile[..lane.rows.end.min(hi) - first];
            sweep_rows(lane.words, pack, first, dists);
            feed(&mut lane.sink, first, dists);
        }
        active.retain(|&l| lanes[l].rows.end > hi);
        lo = hi;
    }
}

/// The tile kernel: `out[k]` = distance from the query words to pack row
/// `lo + k`, four rows per load of each query word.
#[inline]
fn sweep_rows(qw: &[u64], pack: &HvPack, lo: usize, out: &mut [u16]) {
    let mut quads = out.chunks_exact_mut(4);
    let mut row = lo;
    for quad in &mut quads {
        let d = hamming_words_x4(
            qw,
            pack.row(row),
            pack.row(row + 1),
            pack.row(row + 2),
            pack.row(row + 3),
        );
        for (out, d) in quad.iter_mut().zip(d) {
            *out = d as u16;
        }
        row += 4;
    }
    for (off, out) in quads.into_remainder().iter_mut().enumerate() {
        *out = hamming_words(qw, pack.row(row + off)) as u16;
    }
}

// The u64 accumulators below are deliberate: summing popcounts into 64-bit
// lanes lets LLVM keep vectorized `vpopcntq`/pshufb results in full-width
// lanes instead of narrowing per iteration, which measures ~25% faster at
// D = 2048 on AVX-512 hardware.

#[inline]
fn hamming_words(a: &[u64], b: &[u64]) -> u32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x ^ y).count_ones() as u64)
        .sum::<u64>() as u32
}

#[inline]
fn hamming_words_x4(q: &[u64], b0: &[u64], b1: &[u64], b2: &[u64], b3: &[u64]) -> [u32; 4] {
    let (mut s0, mut s1, mut s2, mut s3) = (0u64, 0u64, 0u64, 0u64);
    for ((((&w, &x0), &x1), &x2), &x3) in q.iter().zip(b0).zip(b1).zip(b2).zip(b3) {
        s0 += (w ^ x0).count_ones() as u64;
        s1 += (w ^ x1).count_ones() as u64;
        s2 += (w ^ x2).count_ones() as u64;
        s3 += (w ^ x3).count_ones() as u64;
    }
    [s0 as u32, s1 as u32, s2 as u32, s3 as u32]
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechd_rng::Xoshiro256StarStar;

    fn random_set(n: usize, dim: usize, seed: u64) -> Vec<BinaryHypervector> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        (0..n)
            .map(|_| BinaryHypervector::random(dim, &mut rng))
            .collect()
    }

    #[test]
    fn condensed_length_and_indexing() {
        let hvs = random_set(10, 128, 1);
        let d = pairwise_condensed(&hvs);
        assert_eq!(d.len(), 45);
        // Spot-check the canonical index formula.
        for i in 1..10usize {
            for j in 0..i {
                let idx = i * (i - 1) / 2 + j;
                assert_eq!(u32::from(d[idx]), hvs[i].hamming(&hvs[j]));
            }
        }
    }

    #[test]
    fn condensed_empty_and_singleton() {
        assert!(pairwise_condensed(&[]).is_empty());
        assert!(pairwise_condensed(&random_set(1, 64, 2)).is_empty());
    }

    #[test]
    fn condensed_len_small_values() {
        assert_eq!(condensed_len(0), 0);
        assert_eq!(condensed_len(1), 0);
        assert_eq!(condensed_len(2), 1);
        assert_eq!(condensed_len(257), 257 * 256 / 2);
    }

    #[test]
    fn one_to_many_matches_pairwise() {
        let hvs = random_set(6, 256, 3);
        let d = one_to_many(&hvs[0], &hvs[1..]);
        for (k, dist) in d.iter().enumerate() {
            assert_eq!(u32::from(*dist), hvs[0].hamming(&hvs[k + 1]));
        }
    }

    #[test]
    fn packed_pairwise_matches_scalar() {
        for &(n, dim) in &[(9usize, 70usize), (33, 192), (130, 2048)] {
            let hvs = random_set(n, dim, (n + dim) as u64);
            let pack = HvPack::from_hypervectors(dim, &hvs);
            let scalar = pairwise_condensed(&hvs);
            for threads in [1, 2] {
                for tile in [5, 64] {
                    let engine = PackedDistanceEngine::new().threads(threads).tile_rows(tile);
                    assert_eq!(
                        engine.pairwise_condensed(&pack),
                        scalar,
                        "n {n} dim {dim} threads {threads} tile {tile}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_pairwise_empty_and_singleton() {
        let engine = PackedDistanceEngine::new();
        let pack = HvPack::new(64);
        assert!(engine.pairwise_condensed(&pack).is_empty());
        let pack = HvPack::from_hypervectors(64, &random_set(1, 64, 9));
        assert!(engine.pairwise_condensed(&pack).is_empty());
    }

    #[test]
    fn packed_one_to_many_matches_scalar() {
        let hvs = random_set(41, 300, 10);
        let pack = HvPack::from_hypervectors(300, &hvs);
        let q = &hvs[7];
        let scalar = one_to_many(q, &hvs);
        for threads in [1, 3] {
            let engine = PackedDistanceEngine::new().threads(threads);
            assert_eq!(engine.one_to_many(q, &pack), scalar, "threads {threads}");
        }
    }

    #[test]
    fn one_to_many_range_matches_full_slice() {
        let hvs = random_set(57, 2048, 12);
        let pack = HvPack::from_hypervectors(2048, &hvs);
        let q = &hvs[19];
        let full = one_to_many(q, &hvs);
        for threads in [1, 3] {
            let engine = PackedDistanceEngine::new().threads(threads);
            for range in [0..57, 0..0, 13..13, 5..31, 56..57, 0..1] {
                assert_eq!(
                    engine.one_to_many_range(q, &pack, range.clone()),
                    &full[range.clone()],
                    "range {range:?} threads {threads}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn one_to_many_range_rejects_out_of_bounds() {
        let hvs = random_set(4, 64, 13);
        let pack = HvPack::from_hypervectors(64, &hvs);
        PackedDistanceEngine::new().one_to_many_range(&hvs[0], &pack, 2..5);
    }

    #[test]
    fn tile_kernel_matches_scalar_through_the_quad_remainder() {
        let hvs = random_set(12, 191, 14); // three words a row
        let pack = HvPack::from_hypervectors(191, &hvs);
        let q = &hvs[11];
        for lo in [0, 1, 3] {
            for len in 0..=9 {
                let mut out = vec![0u16; len];
                sweep_rows(q.words(), &pack, lo, &mut out);
                let expect: Vec<u16> = (lo..lo + len).map(|r| q.hamming(&hvs[r]) as u16).collect();
                assert_eq!(out, expect, "lo {lo} len {len}");
            }
        }
    }

    /// A block through the walk with sinks that record every slice fed.
    fn recorded_block(
        engine: &PackedDistanceEngine,
        pack: &HvPack,
        block: &[(&BinaryHypervector, std::ops::Range<usize>)],
    ) -> Vec<Vec<(usize, u16)>> {
        let lanes = block.iter().map(|(q, rows)| (*q, rows.clone(), Vec::new()));
        engine.one_to_many_block(pack, lanes, |fed, first, dists| {
            assert!(!dists.is_empty(), "empty slices are not fed");
            fed.extend(dists.iter().enumerate().map(|(k, &d)| (first + k, d)));
        })
    }

    #[test]
    fn block_walk_feeds_each_query_row_exactly_once() {
        let hvs = random_set(300, 2048, 15);
        let pack = HvPack::from_hypervectors(2048, &hvs);
        // Identical, nested, apart, empty, mid-tile and whole windows, then
        // enough whole ones that two workers clear the work floor.
        let mut ranges = vec![
            40..90,
            40..90,
            0..300,
            50..51,
            7..7,
            250..300,
            8..24,
            299..300,
        ];
        ranges.extend((0..30).map(|k| k..300 - k));
        let mut lanes = lanes_over(&[], &ranges);
        assert_eq!(split_block(&mut lanes, pack.stride(), 2).len(), 2);
        let block: Vec<_> = ranges
            .iter()
            .enumerate()
            .map(|(k, r)| (&hvs[k * 31 % 300], r.clone()))
            .collect();
        for threads in [1, 2, 4] {
            for tile in [1, 8, 64, 1000] {
                let engine = PackedDistanceEngine::new().threads(threads).tile_rows(tile);
                let fed = recorded_block(&engine, &pack, &block);
                assert_eq!(fed.len(), block.len());
                let total: usize = fed.iter().map(Vec::len).sum();
                assert_eq!(total, ranges.iter().map(|r| r.len()).sum::<usize>());
                for ((q, rows), fed) in block.iter().zip(&fed) {
                    let dists = engine.one_to_many_range(q, &pack, rows.clone());
                    let expect: Vec<(usize, u16)> = rows.clone().zip(dists).collect();
                    assert_eq!(fed, &expect, "rows {rows:?} threads {threads} tile {tile}");
                }
            }
        }
    }

    fn lanes_over<'a>(words: &'a [u64], ranges: &[std::ops::Range<usize>]) -> Vec<Lane<'a, ()>> {
        ranges
            .iter()
            .enumerate()
            .map(|(query, rows)| Lane {
                query,
                words,
                rows: rows.clone(),
                sink: (),
            })
            .collect()
    }

    #[test]
    fn block_under_the_work_floor_runs_on_one_worker() {
        let stride = 32;
        let floor_rows = MIN_SWEEP_WORDS_PER_WORKER / stride;
        // 64 seven-row windows: 448 rows, far under one worker's floor.
        let narrow: Vec<_> = (0..64).map(|k| k * 4000..k * 4000 + 7).collect();
        // Just short of two workers' worth.
        let short: Vec<_> = (0..2).map(|k| k..k + floor_rows - 1).collect();
        for ranges in [narrow, short, vec![], vec![5..5, 9..9]] {
            for threads in [1, 2, 4, 64] {
                let mut lanes = lanes_over(&[], &ranges);
                let groups = split_block(&mut lanes, stride, threads);
                assert!(groups.len() <= 1, "threads {threads}");
                assert_eq!(groups.iter().map(|g| g.len()).sum::<usize>(), ranges.len());
            }
        }
    }

    #[test]
    fn block_over_the_work_floor_is_cut_by_rows_not_by_queries() {
        let stride = 32;
        let floor_rows = MIN_SWEEP_WORDS_PER_WORKER / stride;
        // One window of two floors, then eight of a quarter floor: four
        // floors of work, so at most four workers however many are offered.
        // Two empty windows after the last row ride with the last group.
        let ranges: Vec<_> = std::iter::once(0..2 * floor_rows)
            .chain((0..8).map(|k| k * 10..k * 10 + floor_rows / 4))
            .chain([7000..7000, 9000..9000])
            .collect();
        for (threads, expect) in [
            (1, vec![11]),
            (2, vec![1, 10]),
            (3, vec![1, 4, 6]),
            (4, vec![1, 3, 3, 4]),
            (64, vec![1, 3, 3, 4]),
        ] {
            let mut lanes = lanes_over(&[], &ranges);
            let groups = split_block(&mut lanes, stride, threads);
            let sizes: Vec<usize> = groups.iter().map(|g| g.len()).collect();
            assert_eq!(sizes, expect, "threads {threads}");
        }
    }

    #[test]
    fn range_sweep_starts_a_worker_per_work_floor() {
        let stride = 32;
        let floor_rows = MIN_SWEEP_WORDS_PER_WORKER / stride;
        // A range is cut into one chunk per worker it earns. A seven-row
        // window, one floor, and just short of two: one chunk.
        for rows in [0, 1, 7, floor_rows, 2 * floor_rows - 1] {
            for threads in [1, 2, 3, 64] {
                assert_eq!(sweep_workers(rows, stride, threads), 1, "rows {rows}");
            }
        }
        assert_eq!(sweep_workers(2 * floor_rows, stride, 1), 1);
        assert_eq!(sweep_workers(2 * floor_rows, stride, 2), 2);
        assert_eq!(sweep_workers(2 * floor_rows, stride, 64), 2);
        // Two chunks on two workers sweep what one does.
        let hvs = random_set(2 * floor_rows, 2048, 17);
        let pack = HvPack::from_hypervectors(2048, &hvs);
        let q = &hvs[5];
        assert_eq!(
            PackedDistanceEngine::new().threads(2).one_to_many(q, &pack),
            one_to_many(q, &hvs)
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn block_walk_rejects_out_of_bounds_range() {
        let hvs = random_set(4, 64, 16);
        let pack = HvPack::from_hypervectors(64, &hvs);
        PackedDistanceEngine::new().one_to_many_block(
            &pack,
            vec![(&hvs[0], 2..5, ())],
            |_, _, _| {},
        );
    }

    #[test]
    fn neighbors_within_matches_bruteforce() {
        let hvs = random_set(37, 256, 11);
        let pack = HvPack::from_hypervectors(256, &hvs);
        for eps in [0u32, 120, 256] {
            let expect: Vec<Vec<usize>> = (0..37)
                .map(|p| {
                    (0..37)
                        .filter(|&q| q != p && hvs[p].hamming(&hvs[q]) <= eps)
                        .collect()
                })
                .collect();
            for threads in [1, 2] {
                let engine = PackedDistanceEngine::new().threads(threads).tile_rows(8);
                assert_eq!(
                    engine.neighbors_within(&pack, eps),
                    expect,
                    "eps {eps} threads {threads}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "16-bit distance range")]
    fn packed_pairwise_rejects_oversized_dim() {
        let pack = HvPack::new(70000);
        PackedDistanceEngine::new().pairwise_condensed(&pack);
    }

    #[test]
    #[should_panic(expected = "tile size must be positive")]
    fn zero_tile_panics() {
        PackedDistanceEngine::new().tile_rows(0);
    }
}
