//! `served_search_std` — narrow-window queries through the TCP service: an
//! in-process `spechd-server`, one `SearchClient`, closed loop, strictly
//! request → reply, at the default ±0.05 Da window. The sweep scores a few
//! rows per query, so the wire codec, the session, the syscalls and the
//! thread hand-offs — the server's distance engine included, which starts
//! one scoped worker per core for every query — are what is measured.

use super::search_open::{build_library, make_queries, row_words, Query};
use super::{fnv1a, Checks, LayerMetrics, Workload, DIM};
use crate::proc::thread_count;
use crate::stats::{fastest, median, percentile, percentile_supported};
use crate::trace::Tracer;
use spechd_rng::Xoshiro256StarStar;
use spechd_search::{PackedSearchConfig, PackedSearchEngine};
use spechd_server::protocol::{decode_payload, encode_frame, parse_header, HEADER_LEN};
use spechd_server::{
    Frame, LibraryEntryWire, Limits, QueryHits, QueryWire, RunningServer, SearchClient, Server,
    ServerConfig,
};
use std::time::Instant;

/// Library rows: 2^18 × 256 B = 64 MiB, loaded over the wire in set-up.
const LIBRARY_ROWS: usize = 1 << 18;
/// Rows the client builds and sends per `load` call, so that it never holds
/// more than a sixteenth of the library beside the server's copy.
const LOAD_CHUNK_ROWS: usize = 1 << 14;
/// Mass step between library rows.
const MASS_LOW: f64 = 500.0;
const MASS_STEP: f64 = 1.0 / 64.0;
/// The gated window: `PackedSearchConfig::default().precursor_tol_da`, the
/// window every default client asks for. It holds 7 rows here, and with
/// more than one row the server's engine (`threads: 0`) starts one scoped
/// worker thread per core for every query — by far the largest cost of a
/// served query (≈ 100 µs of ≈ 110), and so what this workload gates.
const WINDOW_DA: f64 = 0.05;
/// A ±5 mDa window holds the query's source row and nothing else: the
/// server scores it on the connection thread, no workers. Measured in the
/// traced run only, as the floor the wire path alone sets.
const ONE_ROW_WINDOW_DA: f64 = 0.005;
const TOP_K: u32 = 5;
const QUERIES_PER_BLOCK: usize = 64;
/// Blocks per repetition, sized so one repetition takes ≈ 0.5 s.
const BLOCKS: usize = 80;
const JOB_ID: u64 = 1;

pub struct ServedSearchStd;

pub struct Input {
    /// Seed of the library rows ([`row_words`]).
    seed: u64,
    /// The queries as the library twin takes them …
    queries: Vec<Vec<Query>>,
    /// … and as the client sends them.
    wire_queries: Vec<Vec<QueryWire>>,
}

pub struct State {
    server: RunningServer,
    client: SearchClient,
}

fn mass_of(row: usize) -> f64 {
    MASS_LOW + MASS_STEP * row as f64
}

/// Digest of one block's hits, with the job-global query index (which
/// grows from repetition to repetition) rebased to the block.
fn block_digest(hits: &[QueryHits]) -> u64 {
    let base = hits.first().map_or(0, |h| h.query_index);
    fnv1a(hits.iter().flat_map(|q| {
        std::iter::once(q.query_index - base).chain(q.hits.iter().flat_map(|h| {
            [
                h.library_index,
                u64::from(h.distance),
                h.mass_delta.to_bits(),
                u64::from(h.is_decoy),
                fnv1a(h.id.bytes().map(u64::from)),
            ]
        }))
    }))
}

impl Workload for ServedSearchStd {
    type Input = Input;
    type State = State;
    /// One digest per block.
    type Output = Vec<u64>;

    const NAME: &'static str = "served_search_std";
    const SPECTRA_PER_REP: usize = BLOCKS * QUERIES_PER_BLOCK;

    fn generate(seed: u64) -> Input {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0x5E4D);
        let (queries, _sources) = make_queries(
            &mut rng,
            seed,
            0..LIBRARY_ROWS,
            mass_of,
            BLOCKS,
            QUERIES_PER_BLOCK,
        );
        let wire_queries = queries
            .iter()
            .map(|block| {
                block
                    .iter()
                    .map(|(hv, mass)| QueryWire {
                        mass: *mass,
                        words: hv.words().to_vec(),
                    })
                    .collect()
            })
            .collect();
        Input {
            seed,
            queries,
            wire_queries,
        }
    }

    fn setup(input: &Input, tracer: &mut Tracer) -> State {
        let server = tracer.time("server.bind_spawn", || {
            Server::bind("127.0.0.1:0", ServerConfig::default())
                .and_then(Server::spawn)
                .expect("bind and spawn the in-process server")
        });
        let mut client = tracer
            .time("server.connect", || {
                SearchClient::connect(server.addr(), JOB_ID, DIM as u32)
            })
            .expect("open the search job");
        // Building the wire entries is the client's own cost of a load.
        let loaded = tracer.time("server.load_library", || {
            let mut entries = 0;
            for chunk in (0..LIBRARY_ROWS).step_by(LOAD_CHUNK_ROWS) {
                let rows: Vec<LibraryEntryWire> = (chunk..chunk + LOAD_CHUNK_ROWS)
                    .map(|row| LibraryEntryWire {
                        mass: mass_of(row),
                        charge: 2,
                        is_decoy: row % 2 == 1,
                        id: format!("e{row}"),
                        words: row_words(input.seed, row).to_vec(),
                    })
                    .collect();
                entries = client
                    .load(&rows)
                    .expect("load the library over the wire")
                    .entries;
            }
            entries
        });
        assert_eq!(loaded, LIBRARY_ROWS as u64);
        State { server, client }
    }

    fn repetition(input: &Input, state: &mut State) -> Vec<u64> {
        input
            .wire_queries
            .iter()
            .map(|block| match state.client.search(block, WINDOW_DA, TOP_K) {
                Ok((hits, _stats)) => block_digest(&hits),
                Err(e) => {
                    eprintln!("[served_search_std] search failed: {e}");
                    0
                }
            })
            .collect()
    }

    fn check(input: &Input, _state: &mut State, outputs: &[Vec<u64>]) -> Checks {
        // The library twin: same rows, same queries, no wire.
        let library = build_library(input.seed, LIBRARY_ROWS, mass_of);
        let engine = twin_engine();
        let expected: Vec<u64> = input
            .queries
            .iter()
            .map(|block| {
                let hits: Vec<QueryHits> = engine
                    .search_batch_standard(&library, block)
                    .into_iter()
                    .enumerate()
                    .map(|(q, psms)| QueryHits {
                        query_index: q as u64,
                        hits: psms
                            .into_iter()
                            .map(|p| spechd_server::HitWire {
                                library_index: p.library_index as u64,
                                distance: p.distance,
                                mass_delta: p.mass_delta,
                                is_decoy: p.is_decoy,
                                id: library.id(p.library_index).to_string(),
                            })
                            .collect(),
                    })
                    .collect();
                block_digest(&hits)
            })
            .collect();
        let mut checks = Checks::default();
        for (rep, digests) in outputs.iter().enumerate() {
            for (block, (got, want)) in digests.iter().zip(&expected).enumerate() {
                checks.record(got == want, || {
                    format!(
                        "rep {rep} block {block}: served hits differ from search_batch_standard"
                    )
                });
            }
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
        let mut walls = Vec::with_capacity(reps);
        let mut threads_peak = thread_count();
        let mut last_block = Vec::new();
        for rep in 1..=reps {
            tracer.set_rep(rep as u32);
            let t = Instant::now();
            for (b, block) in input.wire_queries.iter().enumerate() {
                let (hits, _) = tracer
                    .time("server.search_rtt", || {
                        state.client.search(block, WINDOW_DA, TOP_K)
                    })
                    .expect("served search");
                if b % 8 == 0 {
                    threads_peak = threads_peak.max(thread_count());
                }
                last_block = hits;
            }
            walls.push(t.elapsed().as_secs_f64());
        }

        // A one-row window on the same blocks: no worker threads, so what
        // the wire path alone costs. Checked against the twin, then recorded.
        tracer.set_rep(reps as u32 + 1);
        let library = build_library(input.seed, LIBRARY_ROWS, mass_of);
        let one_row_engine = PackedSearchEngine::new(PackedSearchConfig {
            precursor_tol_da: ONE_ROW_WINDOW_DA,
            ..*twin_engine().config()
        });
        for (block, queries) in input.wire_queries.iter().zip(&input.queries) {
            let (hits, _) = tracer
                .time("server.search_rtt_one_row", || {
                    state.client.search(block, ONE_ROW_WINDOW_DA, TOP_K)
                })
                .expect("served search");
            let twin = one_row_engine.search_batch_standard(&library, queries);
            assert!(
                hits.iter()
                    .zip(&twin)
                    .all(|(served, local)| served.hits.len() == 1
                        && local.len() == 1
                        && served.hits[0].library_index == local[0].library_index as u64),
                "served one-row-window hits differ from the library twin"
            );
        }

        // The frames of one block, for the wire volume and the codec alone.
        let block = input.wire_queries.last().expect("at least one block");
        let mut frames = vec![Frame::SearchQuery {
            job_id: JOB_ID,
            dim: DIM as u32,
            window_da: WINDOW_DA,
            top_k: TOP_K,
            queries: block.clone(),
        }];
        frames.extend(last_block.iter().map(|q| Frame::SearchHit {
            job_id: JOB_ID,
            query_index: q.query_index,
            hits: q.hits.clone(),
        }));
        let encoded: Vec<Vec<u8>> = frames.iter().map(encode_frame).collect();
        let wire_bytes: usize = encoded.iter().map(Vec::len).sum();
        const CODEC_ROUNDS: usize = 200;
        let t = Instant::now();
        for _ in 0..CODEC_ROUNDS {
            for frame in &frames {
                std::hint::black_box(encode_frame(std::hint::black_box(frame)));
            }
        }
        let encode_us = t.elapsed().as_secs_f64() * 1e6 / CODEC_ROUNDS as f64;
        let limits = Limits::default();
        let t = Instant::now();
        for _ in 0..CODEC_ROUNDS {
            for bytes in &encoded {
                let header: &[u8; HEADER_LEN] = bytes[..HEADER_LEN].try_into().expect("header");
                let (frame_type, _len) =
                    parse_header(header, limits.max_frame_len).expect("header");
                std::hint::black_box(
                    decode_payload(frame_type, &bytes[HEADER_LEN..], &limits).expect("payload"),
                );
            }
        }
        let decode_us = t.elapsed().as_secs_f64() * 1e6 / CODEC_ROUNDS as f64;

        // The library twin of a repetition: what no wire would cost.
        let engine = twin_engine();
        let twin_s = fastest(
            &(0..5)
                .map(|_| {
                    let t = Instant::now();
                    for block in &input.queries {
                        std::hint::black_box(engine.search_batch_standard(&library, block));
                    }
                    t.elapsed().as_secs_f64()
                })
                .collect::<Vec<_>>(),
        );

        let rtt_s = tracer.durations_s("server.search_rtt");
        assert!(
            percentile_supported(rtt_s.len(), 0.95),
            "too few blocks for a p95"
        );
        let queries = Self::SPECTRA_PER_REP as f64;
        let load_s = tracer.total_s("server.load_library", 0);
        layers.insert(
            "server.connect_ms",
            tracer.total_s("server.connect", 0) * 1e3,
        );
        layers.insert(
            "server.load_library_mb_per_s",
            (LIBRARY_ROWS * DIM / 8) as f64 / 1e6 / load_s,
        );
        layers.insert("server.search_rtt_p50_us", median(&rtt_s) * 1e6);
        layers.insert("server.search_rtt_p95_us", percentile(&rtt_s, 0.95) * 1e6);
        layers.insert(
            "server.search_rtt_one_row_p50_us",
            median(&tracer.durations_s("server.search_rtt_one_row")) * 1e6,
        );
        layers.insert(
            "server.wire_bytes_per_query",
            wire_bytes as f64 / block.len() as f64,
        );
        layers.insert("server.codec_encode_us_per_block", encode_us);
        layers.insert("server.codec_decode_us_per_block", decode_us);
        layers.insert("server.overhead_ratio_search", fastest(&walls) / twin_s);
        layers.insert("server.threads_peak", threads_peak);
        layers.insert("search.std_us_per_query", twin_s * 1e6 / queries);
        walls
    }

    fn teardown(state: State) {
        drop(state.client);
        state.server.shutdown();
    }
}

fn twin_engine() -> PackedSearchEngine {
    PackedSearchEngine::new(PackedSearchConfig {
        precursor_tol_da: WINDOW_DA,
        top_k: TOP_K as usize,
        threads: 1,
        ..PackedSearchConfig::default()
    })
}
