//! The workspace's one differential harness.
//!
//! The central promise is that every execution path gives the answer of
//! its reference: batch ≡ streaming ≡ served ≡ incremental (k = 1) for
//! clustering, scalar ≡ per-query ≡ block ≡ served for search. The suites
//! under `tests/` state only their cases; this crate holds the rest:
//!
//! - the **dataset table** ([`Data::new`] over [`Gen`]): every generator
//!   the suites use, named `Gen(n, seed)`;
//! - the **clustering paths table** ([`Path`], run by [`assert_paths`]),
//!   each compared with batch `SpecHd::run` over the spectra in the order
//!   the path streamed them;
//! - the **search paths table** ([`SearchPath`] and a served reply, run
//!   by [`assert_search_paths`]), each compared with
//!   `scalar_search_window`;
//! - **one projection** ([`Outcome`]): the named fields a path exposes,
//!   compared one at a time by [`assert_same`] wherever both sides expose
//!   them. Each comparison prints `(path, dataset, field)`, so
//!   `cargo test -p spechd-tests -- --nocapture` lists every equality the
//!   suites check;
//! - the shared fixtures: one way to start a server ([`serve`],
//!   [`store_server`]), one temp directory ([`TempDir`]), one job id
//!   ([`job_id`]), one thread count ([`threads`]), the wire forms of
//!   libraries and queries ([`wire_entries`], [`wire_queries`]), and the
//!   fault proxy ([`proxy`]).
//!
//! # Paths × datasets
//!
//! | suite | dataset | paths |
//! |---|---|---|
//! | `streaming_equivalence` | `Standard(400, 0x5eed)` | `Streaming(1 / 2 / 4)` |
//! | | `Hard(500, 0x4d)` | `Streaming(3)` |
//! | | empty; single shard | `Streaming(0)`; `Streaming(2)` |
//! | | `Standard(350, 0xbeef)` sorted | `Sorted(1 / 4)` |
//! | | `Standard(250, 0xfeed)` | `Channel` |
//! | | `Standard(300, 0xd00d)` | `SyntheticStream` |
//! | `incremental_equivalence` | `Union(400, 0x15)` | `Incremental`, `ServedIncremental` |
//! | | `Union(600, 0x16)`, `Union(300, 0x18)` | `Incremental` |
//! | `service_equivalence` | `Standard(600, 0x5e4f)` | `Served(4)` |
//! | | `Standard(240, 0xd15c)`, `Standard(120, 0xbad)` | served: a client dropped mid-stream; after a malformed peer |
//! | `service_fault_injection` | `Standard(120, 0xfa07)`, `(240, 0xc1a0)`, `(240, 0xbeef)` | served through the fault proxy |
//! | `one_connection` | `Standard(300, 0x5)` | a job's raw frames after a search session |
//! | `store_sessions` | `Standard(600, 0x29)`, 4 installments | `ServedIncremental` vs library installments, SHPK bytes |
//! | `store_eviction` | `Dense(80, 0x2)` | `ServedIncremental` after eviction vs a library twin, SHPK bytes |
//! | `packed_search_equivalence` | `random_library`, dims 63 / 64 / 2048 × sizes 0 / 1 / 257 | `Standard`, `Open` at 1 / 2 / 4 |
//! | | 12 tied rows | `Standard(1 / 2 / 4)` |
//! | | `random_library(120, 256)` | `PerQuery(0)`, served |
//! | `batch_search_equivalence` | `random_library`, dims 63 / 64 / 2048 × sizes 0 / 1 / 257 / 1500; five ladders | `BlockStandard`, `BlockOpen`, `PerQuery` at 1 / 2 / 4 |
//! | `served_search_equivalence` | a 4 000-row ladder, five window shapes | `BlockStandard(0)`, `PerQuery(0)`, served |
//! | `chunked_calls` | a ladder one row past `MAX_LIBRARY_BATCH` | `BlockStandard(0)`, served one query past `MAX_QUERY_BATCH` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod fixtures;
mod projection;
pub mod proxy;
mod search;

pub use cluster::{
    assert_gate, assert_paths, assert_served, engine, run_installments, submit_slice,
    union_in_stream_order, Path, Placements,
};
pub use fixtures::{
    exchange, expect_closed, expect_error, installments, job_id, refused, serve, settle_at,
    store_server, synthetic_dataset, threads, tiny_entry, Data, Gen, TempDir,
};
pub use projection::{assert_field, assert_same, hits, served_hits, Outcome, Value};
pub use search::{
    assert_search_paths, at_threads, ladder_library, random_library, random_queries, random_rows,
    search, wire_entries, wire_queries, Query, SearchPath, BATCH_ROWS,
};
