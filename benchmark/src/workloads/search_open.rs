//! `search_open` — wide-window (open-modification) search as HyperOMS /
//! RapidOMS run it: every query sweeps a quarter of the library with one
//! long `one_to_many_range` call and keeps its top five.
//!
//! The library is 2^14 rows (4 MiB), so that the sweeps run out of the L2.
//! A 2^20-row library streams 64 MiB per query from memory the reference
//! machine shares with other tenants, and its throughput halved and doubled
//! with them from one minute to the next (README.md, "Repeatability"); the
//! streaming sweep is measured in the traced run instead.

use super::{fnv1a, Checks, LayerMetrics, Workload, DIM, STRIDE};
use crate::reference;
use crate::stats::{fastest, median, percentile, percentile_supported};
use crate::trace::Tracer;
use spechd_hdc::distance::PackedDistanceEngine;
use spechd_hdc::{BinaryHypervector, HvPack};
use spechd_rng::{Rng, SplitMix64, Xoshiro256StarStar};
use spechd_search::{
    assign_q_values, filter_at_fdr, scalar_search_window, HdPsm, HvLibrary, HvLibraryBuilder,
    PackedSearchConfig, PackedSearchEngine,
};
use std::time::Instant;

/// Library rows: 2^14 × 256 B = 4 MiB, the size of the L2.
const LIBRARY_ROWS: usize = 1 << 14;
/// Library masses are evenly spaced over this range, so the ±250 Da open
/// window covers a quarter of the rows: 4 094 of them, 1 MiB, just inside
/// the engine's 4 096-row batch, so a query is one sweep call.
const MASS_LOW: f64 = 500.0;
const MASS_SPAN: f64 = 2_001.0;
const QUERIES_PER_BLOCK: usize = 64;
/// Blocks per repetition, sized so one repetition takes ≈ 0.5 s.
const BLOCKS: usize = 160;
/// Bits flipped to turn a library row into a query: the source row stays
/// ≈ 150 bits away while the nearest of 2^12 random rows is ≈ 930.
const QUERY_NOISE_BITS: usize = 150;
/// Queries re-scored with the scalar oracle in the output check.
const SCALAR_CHECKS: usize = 16;
/// Rows of the pack the traced run streams from memory: 256 MiB, 64× the L2.
const STREAM_ROWS: usize = 1 << 20;

pub struct SearchOpen;

/// A query as the search engines take it: hypervector and precursor mass.
pub type Query = (BinaryHypervector, f64);

pub struct Input {
    /// Seed of the library rows ([`row_words`]).
    seed: u64,
    queries: Vec<Vec<Query>>,
    /// Library row each query was derived from, parallel to `queries`.
    sources: Vec<Vec<usize>>,
}

pub struct State {
    library: HvLibrary,
    engine: PackedSearchEngine,
}

/// What a repetition keeps of its hits: 10 240 queries' worth of them per
/// repetition would outgrow the library they came from.
#[derive(Debug, PartialEq, Eq)]
pub struct Output {
    /// Queries whose top hit is the planted source row.
    top1_planted: usize,
    /// Digest of every hit of every query, in order.
    digest: u64,
}

fn mass_of(row: usize) -> f64 {
    MASS_LOW + MASS_SPAN * row as f64 / LIBRARY_ROWS as f64
}

fn engine_with(threads: usize) -> PackedSearchEngine {
    PackedSearchEngine::new(PackedSearchConfig {
        threads,
        ..PackedSearchConfig::default()
    })
}

/// Words of library row `row`: seeded random bits, addressable by row, so
/// that the harness never holds a copy of a library beside the program's
/// own and `peak_rss_mb` is the program's memory.
pub fn row_words(seed: u64, row: usize) -> [u64; STRIDE] {
    let mut rng = SplitMix64::new(seed ^ (row as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    std::array::from_fn(|_| rng.next_u64())
}

/// `rows` library rows into an [`HvLibrary`], masses ascending, odd rows
/// decoys.
pub fn build_library(seed: u64, rows: usize, mass_of: impl Fn(usize) -> f64) -> HvLibrary {
    let mut builder = HvLibraryBuilder::new(DIM);
    for row in 0..rows {
        builder.push_row_words(
            &row_words(seed, row),
            mass_of(row),
            2,
            format!("e{row}"),
            row % 2 == 1,
        );
    }
    builder.build()
}

/// `blocks` × `per_block` queries: seeded picks among library rows
/// `rows`, each with [`QUERY_NOISE_BITS`] flipped and the row's own mass.
pub fn make_queries(
    rng: &mut Xoshiro256StarStar,
    seed: u64,
    rows: std::ops::Range<usize>,
    mass_of: impl Fn(usize) -> f64,
    blocks: usize,
    per_block: usize,
) -> (Vec<Vec<Query>>, Vec<Vec<usize>>) {
    let mut queries = Vec::with_capacity(blocks);
    let mut sources = Vec::with_capacity(blocks);
    for _ in 0..blocks {
        let picks: Vec<usize> = (0..per_block)
            .map(|_| rows.start + rng.bounded_u64(rows.len() as u64) as usize)
            .collect();
        queries.push(
            picks
                .iter()
                .map(|&row| {
                    let mut hv = BinaryHypervector::from_words(DIM, row_words(seed, row).to_vec());
                    hv.flip_random_bits(QUERY_NOISE_BITS, rng);
                    (hv, mass_of(row))
                })
                .collect(),
        );
        sources.push(picks);
    }
    (queries, sources)
}

fn hits_digest(hits: &[Vec<HdPsm>]) -> u64 {
    fnv1a(hits.iter().flatten().flat_map(|h| {
        [
            h.query_index as u64,
            h.library_index as u64,
            u64::from(h.distance),
            h.mass_delta.to_bits(),
            u64::from(h.is_decoy),
        ]
    }))
}

/// Every block through `search_batch_open`: the hits of all queries, in order.
fn search_all(input: &Input, state: &State) -> Vec<Vec<HdPsm>> {
    input
        .queries
        .iter()
        .flat_map(|block| state.engine.search_batch_open(&state.library, block))
        .collect()
}

impl Workload for SearchOpen {
    type Input = Input;
    type State = State;
    type Output = Output;

    const NAME: &'static str = "search_open";
    const SPECTRA_PER_REP: usize = BLOCKS * QUERIES_PER_BLOCK;

    fn generate(seed: u64) -> Input {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0x05EA);
        // Sources sit in the middle three quarters of the mass range, so
        // every query's window is whole: the same rows swept per query.
        let inner = LIBRARY_ROWS / 8..LIBRARY_ROWS - LIBRARY_ROWS / 8;
        let (queries, sources) =
            make_queries(&mut rng, seed, inner, mass_of, BLOCKS, QUERIES_PER_BLOCK);
        Input {
            seed,
            queries,
            sources,
        }
    }

    fn setup(input: &Input, tracer: &mut Tracer) -> State {
        State {
            library: tracer.time("search.library_build", || {
                build_library(input.seed, LIBRARY_ROWS, mass_of)
            }),
            engine: engine_with(1),
        }
    }

    fn repetition(input: &Input, state: &mut State) -> Output {
        let hits = search_all(input, state);
        Output {
            top1_planted: hits
                .iter()
                .zip(input.sources.iter().flatten())
                .filter(|(h, &source)| h.first().map(|p| p.library_index) == Some(source))
                .count(),
            digest: hits_digest(&hits),
        }
    }

    fn check(input: &Input, state: &mut State, outputs: &[Output]) -> Checks {
        let mut checks = Checks::default();
        // The same search once more, its hits kept: every repetition must
        // have produced these, and the scalar oracle must agree with them.
        let expected = search_all(input, state);
        let digest = hits_digest(&expected);
        let queries = Self::SPECTRA_PER_REP;
        for (rep, out) in outputs.iter().enumerate() {
            checks.record_many(queries as u64, (queries - out.top1_planted) as u64, || {
                format!(
                    "rep {rep}: top hit is the planted row for {} of {queries} queries only",
                    out.top1_planted
                )
            });
            checks.record(out.digest == digest, || {
                format!("rep {rep}: hits differ from a repeated search")
            });
        }
        let config = *state.engine.config();
        let flat: Vec<&Query> = input.queries.iter().flatten().collect();
        for k in 0..SCALAR_CHECKS {
            let q = k * flat.len() / SCALAR_CHECKS;
            let (hv, mass) = flat[q];
            let oracle = scalar_search_window(
                &state.library,
                hv,
                *mass,
                q % QUERIES_PER_BLOCK,
                config.open_window_da,
                config.top_k,
            );
            checks.record(expected[q] == oracle, || {
                format!("query {q}: packed hits differ from scalar_search_window")
            });
        }
        checks
    }

    fn trace(
        input: &Input,
        state: &mut State,
        tracer: &mut Tracer,
        reps: usize,
        layers: &mut LayerMetrics,
    ) -> Vec<f64> {
        let queries: Vec<&Query> = input.queries.iter().flatten().collect();
        let sources: Vec<usize> = input.sources.concat();
        let (library, engine) = (&state.library, &state.engine);
        let config = *engine.config();

        // The real call, one span per query.
        let mut walls = Vec::with_capacity(reps);
        let mut hits = Vec::new();
        for rep in 1..=reps {
            tracer.set_rep(rep as u32);
            let t = Instant::now();
            hits = queries
                .iter()
                .enumerate()
                .map(|(q, (hv, mass))| {
                    tracer.time("search.search_open", || {
                        engine.search_open(library, hv, *mass, q % QUERIES_PER_BLOCK)
                    })
                })
                .collect::<Vec<_>>();
            walls.push(t.elapsed().as_secs_f64());
        }

        // Its staged twin: the window lookup and the raw sweeps that
        // `search_window` issues, without the top-k selection around them.
        // A few passes of its own, so that it too has a fastest one.
        const TWIN_PASSES: u32 = 3;
        let sweeper = PackedDistanceEngine::new().threads(1);
        let mut swept_rows = 0usize;
        for pass in 1..=TWIN_PASSES {
            tracer.set_rep(reps as u32 + pass);
            swept_rows = 0;
            for (hv, mass) in &queries {
                let window = tracer.time("search.window", || {
                    library.window(*mass, config.open_window_da)
                });
                swept_rows += window.len();
                let mut lo = window.start;
                while lo < window.end {
                    let hi = (lo + config.batch_rows).min(window.end);
                    tracer.time("hdc.sweep", || {
                        std::hint::black_box(sweeper.one_to_many_range(hv, library.pack(), lo..hi))
                    });
                    lo = hi;
                }
            }
        }

        // The streaming regime the gated library stays out of: one query
        // against every row of a pack 64× the L2, beside a plain sum over as
        // many bytes.
        let mut stream = HvPack::with_capacity(DIM, STREAM_ROWS);
        for row in 0..STREAM_ROWS {
            stream.push_row_words(&row_words(input.seed ^ 0x57EA, row));
        }
        let stream_s = fastest(
            &(0..5)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(sweeper.one_to_many(&queries[0].0, &stream));
                    t.elapsed().as_secs_f64()
                })
                .collect::<Vec<_>>(),
        );
        drop(stream);
        let membw_gbps = reference::memory_bandwidth_gbps();
        let stream_gbps = (STREAM_ROWS * STRIDE * 8) as f64 / stream_s / 1e9;

        // Two threads on a subset: recorded, never gated.
        let subset = &input.queries[0];
        let time_subset = |engine: &PackedSearchEngine| {
            let t = Instant::now();
            std::hint::black_box(engine.search_batch_open(library, subset));
            t.elapsed().as_secs_f64()
        };
        let one_thread_s = time_subset(engine);
        let two_threads_s = time_subset(&engine_with(2));

        let all_hits: Vec<HdPsm> = hits.iter().flatten().copied().collect();
        let t = Instant::now();
        let accepted = filter_at_fdr(&all_hits, 0.01).len();
        std::hint::black_box((assign_q_values(&all_hits), accepted));
        let fdr_s = t.elapsed().as_secs_f64();

        let per_query_s = tracer.durations_s("search.search_open");
        assert!(
            percentile_supported(per_query_s.len(), 0.95),
            "too few queries for a p95"
        );
        let search_s = tracer.rep_total_s("search.search_open");
        let sweep_s = tracer.rep_total_s("hdc.sweep");
        let recalled = hits
            .iter()
            .zip(&sources)
            .filter(|(h, &source)| h.first().map(|p| p.library_index) == Some(source))
            .count();
        layers.insert(
            "search.library_build_s",
            tracer.total_s("search.library_build", 0),
        );
        layers.insert("search.open_ms_per_query_p50", median(&per_query_s) * 1e3);
        layers.insert(
            "search.open_ms_per_query_p95",
            percentile(&per_query_s, 0.95) * 1e3,
        );
        layers.insert(
            "search.window_rows_mean",
            swept_rows as f64 / queries.len() as f64,
        );
        layers.insert("search.topk_share", 1.0 - sweep_s / search_s);
        layers.insert(
            "search.window_lookup_ns",
            tracer.rep_total_s("search.window") * 1e9 / queries.len() as f64,
        );
        layers.insert("search.fdr_s", fdr_s);
        layers.insert("search.open_t2_speedup", one_thread_s / two_threads_s);
        layers.insert("hdc.sweep_s", sweep_s);
        layers.insert("hdc.sweep_rows", swept_rows as f64);
        layers.insert("hdc.sweep_ns_per_row", sweep_s * 1e9 / swept_rows as f64);
        layers.insert("hdc.sweep_gbps_computed", stream_gbps);
        layers.insert("hdc.sweep_membw_ratio", stream_gbps / membw_gbps);
        layers.insert("ref.membw_gbps", membw_gbps);
        layers.insert(
            "metrics.search_top1_recall",
            recalled as f64 / queries.len() as f64,
        );
        walls
    }
}
