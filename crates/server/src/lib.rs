//! Clustering-as-a-service: a TCP front end over the SpecHD streaming
//! pipeline.
//!
//! The server speaks a versioned, length-prefixed binary protocol (see
//! [`protocol`]) and multiplexes any number of concurrent client
//! connections into per-job [`spechd_core::SpecHd`] streaming
//! pipelines. A job is a shared clustering stream: every participant's
//! `Submit` batches are appended (with contiguous stream indices) to
//! one bounded ingest queue feeding one
//! [`run_streaming_observed`](spechd_core::SpecHd::run_streaming_observed)
//! run, and per-shard results stream back to **all** participants in
//! ascending shard-key order as shards finalize — clients do not wait
//! for the run to end to start receiving assignments.
//!
//! Design pillars, each carried by one module:
//!
//! * [`protocol`] — the wire format: 12-byte header, capped length
//!   prefixes, byte-exact round-trippable frames. Every decode-time
//!   cap it enforces lives in the [`limits`] table: a server sets the
//!   frame cap through [`ServerConfig::limits`], and the rest are
//!   protocol constants both sides split their batches at.
//! * `job` (private) — job lifecycle and backpressure: the last
//!   participant's close (or disconnect) ends the stream; a full ingest
//!   queue blocks the submitter at the socket, and result fan-out goes
//!   through bounded per-connection queues whose stalled consumers are
//!   dropped — in both directions, slow peers cost bounded memory,
//!   never the job's throughput or the server's heap.
//! * `session` (private) — served state, once: a participant is its
//!   `client_id`, its slot outlives its connection for the rejoin grace,
//!   the newest connection wins by epoch, and a re-sent `seq` is
//!   re-acked, never re-ingested. `job` and `store` both keep their
//!   slots in it, and all three registries keep their entries in its one
//!   capped table. A grace is the time its state was left, not a
//!   thread: the server's one sweeper expires it, and a lock a panicking
//!   thread held is taken over rather than panicking the next caller.
//! * [`server`] — the accept loop and per-connection threads: idle
//!   timeouts, frame deadlines, malformed-frame rejection that kills
//!   the connection but never the server, graceful drain on shutdown.
//! * [`client`] / [`assemble`] — the client side: blocking submission
//!   with per-batch stream-index receipts, and reassembly of streamed
//!   shard results into a final clustering bit-identical to a local
//!   batch [`run`](spechd_core::SpecHd::run) over the same spectra.
//!   With a [`RetryPolicy`] set, all three clients survive connection
//!   loss through one round-trip loop — back off, reconnect, resume the
//!   `session` slot, send the same frame again — and the server replays
//!   missed result frames on rejoin: a mid-stream disconnect leaves the
//!   assembled outcome bit-identical to an undisturbed run.
//! * `search` (private) — the search job surface: shared
//!   [`spechd_search::HvLibrary`] loading over `LoadLibrary` frames,
//!   seal-on-first-query, and windowed packed scoring whose hits are
//!   bit-identical to a local [`spechd_search::PackedSearchEngine`]
//!   run over the same entries (pinned by the served-path equivalence
//!   tests).
//! * `store` (private) — incremental clustering as a service: `OpenStore`
//!   binds a connection to the **exclusive** write session of a named
//!   persistent [`spechd_core::ClusterStore`] (a second writer is shed
//!   with the retryable [`ErrorCode::StoreBusy`]), sequence-numbered
//!   `SubmitIncremental` installments run the library's
//!   [`run_incremental`](spechd_core::SpecHd::run_incremental) —
//!   bit-identically, sessions and reconnects notwithstanding — and
//!   `PersistStore` / `RefreshStore` expose the crash-safe save and
//!   the medoid refresh / compaction pass over the wire.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assemble;
pub mod client;
mod job;
pub mod limits;
pub mod protocol;
mod search;
pub mod server;
mod session;
mod store;

pub use assemble::ServiceOutcome;
pub use client::{
    ClientError, Connection, JobClient, QueryHits, RetryPolicy, SearchClient, StoreClient,
    SubmitReceipt,
};
pub use limits::Limits;
pub use protocol::{
    ErrorCode, Frame, FrameType, HitWire, IncrementalAckFrame, JobConfig, JobStatsFrame,
    LibraryEntryWire, QueryWire, SearchStatsFrame, StoreAckFrame, WireError,
};
pub use server::{RunningServer, Server, ServerConfig};
