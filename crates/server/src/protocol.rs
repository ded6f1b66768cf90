//! The `spechd` wire protocol: versioned, length-prefixed binary frames.
//!
//! Every frame is a fixed 12-byte header followed by a payload:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"SPHD"
//! 4       2     protocol version (little-endian u16, currently 3)
//! 6       1     frame type (see [`FrameType`])
//! 7       1     reserved (must be 0)
//! 8       4     payload length in bytes (little-endian u32)
//! 12      len   payload
//! ```
//!
//! All integers are little-endian; floats are IEEE-754 little-endian bit
//! patterns, so encoding is deterministic and byte-exact round-trippable
//! (`decode(encode(f)) == f` *and* `encode(decode(b)) == b` — the
//! robustness suite checks both for every frame type). Strings are
//! `u32` length + UTF-8 bytes; vectors are `u32` count + elements.
//!
//! The frame table (`payloads!` in this file) is the single source of
//! every payload layout: one row per frame type, listing its fields in
//! wire order, each with the codec that carries it. The payload encoder,
//! [`decode_payload`] and the frame-type mappings are generated from
//! that table, and each codec's decode half does all of the field's
//! validation, so the encoder and the decoder cannot disagree.
//!
//! A reader must reject, without reading the payload: wrong magic, wrong
//! version, unknown frame type, a non-zero reserved byte, and a length
//! prefix above its configured cap ([`DEFAULT_MAX_FRAME_LEN`] by
//! default) — the cap is what keeps a hostile 4 GiB length prefix from
//! becoming an allocation. Payload decoding then rejects truncated or
//! trailing bytes. The server treats any of these as fatal for the
//! *connection* (an [`Frame::Error`] is sent best-effort, then the socket
//! closes); the server itself keeps serving.
//!
//! Every decode-time cap is enforced by [`decode_payload`] and
//! [`read_frame`] (see [`crate::limits`]): the frame and worker caps a
//! server sets come in as a [`Limits`] value, and every other cap is one
//! of the `MAX_*` protocol constants re-exported here.

use crate::limits::Limits;
use spechd_cluster::Linkage;
use spechd_core::{SpecHdConfig, StreamConfig};
use spechd_hdc::{LeReader, Short};
use spechd_ms::{MsError, Peak, Precursor, Spectrum};
use std::borrow::Borrow;
use std::io::{ErrorKind, Read, Write};
use std::ops::{Deref, DerefMut};

pub use crate::limits::{
    DEFAULT_MAX_FRAME_LEN, MAX_INCREMENTAL_BATCH, MAX_LIBRARY_BATCH, MAX_QUERY_BATCH,
    MAX_SEARCH_WINDOW_DA, MAX_STORE_NAME_LEN, MAX_TOP_K, MAX_WATERMARK, MAX_WORKERS,
};

/// Frame magic: `b"SPHD"`.
pub const MAGIC: [u8; 4] = *b"SPHD";
/// Current protocol version. Version 3 added the store-session frames
/// ([`Frame::OpenStore`] … [`Frame::StoreAck`]) and
/// [`ErrorCode::StoreBusy`]; version 2 added `client_id` to
/// [`Frame::OpenJob`] and `seq` to [`Frame::Submit`]/[`Frame::SubmitAck`]
/// — the identities that make reconnect-and-resume idempotent.
pub const VERSION: u16 = 3;
/// Header size in bytes (magic + version + type + reserved + length).
pub const HEADER_LEN: usize = 12;
/// `JobConfig::default()`'s watermark, a value SPHD v3 validates but the
/// pipeline no longer reads.
const DEFAULT_WATERMARK: u32 = 64;

/// Frame type discriminants as they appear on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Client→server: open (or join) a clustering job.
    OpenJob = 0x01,
    /// Client→server: submit a batch of spectra into the open job.
    Submit = 0x02,
    /// Client→server: barrier; server acks with a [`Frame::JobStats`].
    Flush = 0x03,
    /// Client→server: this participant is done submitting.
    CloseJob = 0x04,
    /// Client→server: load a batch of entries into a search job's
    /// library (opens or joins the job).
    LoadLibrary = 0x05,
    /// Client→server: search a batch of query hypervectors against the
    /// job's library (seals the library on first use).
    SearchQuery = 0x06,
    /// Client→server: open (or resume) an exclusive session on a named
    /// persistent cluster store.
    OpenStore = 0x07,
    /// Client→server: fold an installment of spectra into the session's
    /// store via the incremental pipeline.
    SubmitIncremental = 0x08,
    /// Client→server: durably save the session's store to disk.
    PersistStore = 0x09,
    /// Client→server: request a [`Frame::StoreAck`] snapshot of the
    /// session's store.
    StoreStats = 0x0A,
    /// Client→server: run the medoid refresh / compaction pass on the
    /// session's store (admin; outside the stable-label contract).
    RefreshStore = 0x0B,
    /// Server→client: a `Submit` was ingested; carries the batch's base
    /// stream index.
    SubmitAck = 0x10,
    /// Server→client: one finalized shard's raw cluster assignment.
    Assignment = 0x11,
    /// Server→client: consensus (medoid) stream indices for one shard's
    /// raw cluster block.
    Consensus = 0x12,
    /// Server→client: job statistics snapshot (also the `OpenJob` and
    /// `Flush` ack, and the final `done` marker).
    JobStats = 0x13,
    /// Server→client: one query's top-k search hits.
    SearchHit = 0x14,
    /// Server→client: search-job statistics snapshot (the `LoadLibrary`
    /// ack, and the terminator of every `SearchQuery`'s hit frames).
    SearchStats = 0x15,
    /// Server→client: one `SubmitIncremental` was folded in; carries the
    /// installment's kept indices and stable labels.
    IncrementalAck = 0x16,
    /// Server→client: a store snapshot — the ack of `OpenStore`,
    /// `PersistStore`, `StoreStats` and `RefreshStore`.
    StoreAck = 0x17,
    /// Server→client: an error. Fatal errors are followed by a close.
    Error = 0x1F,
}

/// Error codes carried by [`Frame::Error`], partitioned into two
/// documented ranges:
///
/// * `0x01..=0x3F` — **fatal**: the request (and usually the
///   connection) cannot succeed by being re-sent; the client must
///   change something or give up.
/// * `0x40..` — **retryable**: a transient server condition; the same
///   request is expected to succeed after a bounded backoff
///   (see `RetryPolicy` in this crate).
///
/// Both clients reject error codes outside the known set at decode time
/// (`ErrorCode::from_wire` is total over known codes only), so an
/// unknown code from a newer peer is a [`WireError::Malformed`], never a
/// silently misclassified retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame could not be parsed; the connection will be closed.
    Malformed = 0x01,
    /// A frame arrived in a state that does not allow it (e.g. `Submit`
    /// before `OpenJob`). The connection stays open.
    ProtocolState = 0x02,
    /// `OpenJob` named a job that is finalizing and cannot accept new
    /// participants.
    JobClosed = 0x03,
    /// `OpenJob` tried to join an existing job with a different config.
    ConfigMismatch = 0x04,
    /// The connection sat idle (no open job, no frames) too long.
    IdleTimeout = 0x05,
    /// A length prefix exceeded the server's frame cap.
    Oversized = 0x06,
    /// The server is shutting down.
    ServerShutdown = 0x07,
    /// The server is saturated (job registry full) and sheds this
    /// request; the client should back off and retry.
    Busy = 0x40,
    /// The named store has a live (or grace-period) session held by
    /// another client, or a transient server-side condition kept the
    /// store operation from completing; exclusive write sessions mean
    /// the same request is expected to succeed once the holder detaches,
    /// so the client should back off and retry.
    StoreBusy = 0x41,
}

impl ErrorCode {
    fn from_wire(byte: u8) -> Option<Self> {
        Some(match byte {
            0x01 => Self::Malformed,
            0x02 => Self::ProtocolState,
            0x03 => Self::JobClosed,
            0x04 => Self::ConfigMismatch,
            0x05 => Self::IdleTimeout,
            0x06 => Self::Oversized,
            0x07 => Self::ServerShutdown,
            0x40 => Self::Busy,
            0x41 => Self::StoreBusy,
            _ => return None,
        })
    }

    /// Whether this code falls in the retryable range (`>= 0x40`): the
    /// same request may succeed after a bounded backoff.
    pub fn is_retryable(self) -> bool {
        (self as u8) >= 0x40
    }
}

/// The `SpecHdConfig` subset a client may set per job, plus the streaming
/// knobs. Everything else (item-memory seeds, preprocessing) stays at the
/// server's paper defaults so all participants of a job agree on them.
#[derive(Debug, Clone, PartialEq)]
pub struct JobConfig {
    /// Hypervector dimensionality `D`.
    pub dim: u32,
    /// Eq. (1) bucketing resolution in Dalton.
    pub resolution: f64,
    /// Cluster-cut threshold as a fraction of `D`.
    pub threshold_fraction: f64,
    /// HAC linkage criterion (wire: 0 single, 1 complete, 2 average,
    /// 3 ward).
    pub linkage: Linkage,
    /// Has no effect: the pipeline encodes every spectrum on arrival, so
    /// there is no raw-spectrum buffer to bound. Kept for SPHD v3
    /// compatibility — still encoded, validated to `[1, MAX_WATERMARK]`
    /// (see [`MAX_WATERMARK`]) and compared when a participant joins a
    /// job. Defaults to 64.
    pub watermark: u32,
    /// [`StreamConfig::workers`] of the job's pipeline (0 = all
    /// available on the server). The wire rejects counts above
    /// [`MAX_WORKERS`]. Workers start with the shards the job closes, so
    /// an open job that has closed none holds none; at 1 the job's
    /// pipeline thread clusters every shard itself.
    pub workers: u32,
}

impl Default for JobConfig {
    fn default() -> Self {
        let spechd = SpecHdConfig::default();
        let stream = StreamConfig::default();
        Self {
            dim: spechd.encoder.dim as u32,
            resolution: spechd.resolution,
            threshold_fraction: spechd.distance_threshold_fraction,
            linkage: spechd.linkage,
            watermark: DEFAULT_WATERMARK,
            workers: stream.workers as u32,
        }
    }
}

impl JobConfig {
    /// The pipeline configuration this job clusters with: the wire subset
    /// applied over [`SpecHdConfig::default`]. `JobConfig::default()`
    /// maps to exactly `SpecHdConfig::default()`, which is what makes
    /// server results comparable against local batch runs.
    ///
    /// Nothing is validated here: an out-of-range field surfaces as the
    /// [`ConfigError`](spechd_core::ConfigError) of
    /// [`SpecHd::try_new`](spechd_core::SpecHd::try_new).
    pub fn pipeline_config(&self) -> SpecHdConfig {
        SpecHdConfig {
            encoder: spechd_core::EncoderConfig {
                dim: self.dim as usize,
                ..Default::default()
            },
            resolution: self.resolution,
            distance_threshold_fraction: self.threshold_fraction,
            linkage: self.linkage,
            ..SpecHdConfig::default()
        }
    }

    /// The streaming configuration of the job's pipeline. The archive is
    /// never kept server-side — results leave as frames, and dropping the
    /// archive is proven label-identical by the pr5 equivalence suite.
    pub fn stream_config(&self) -> StreamConfig {
        StreamConfig {
            workers: self.workers as usize,
            keep_hypervectors: false,
        }
    }
}

fn linkage_to_wire(linkage: Linkage) -> u8 {
    match linkage {
        Linkage::Single => 0,
        Linkage::Complete => 1,
        Linkage::Average => 2,
        Linkage::Ward => 3,
    }
}

fn linkage_from_wire(byte: u8) -> Result<Linkage, WireError> {
    Ok(match byte {
        0 => Linkage::Single,
        1 => Linkage::Complete,
        2 => Linkage::Average,
        3 => Linkage::Ward,
        other => return Err(WireError::malformed(format!("unknown linkage {other}"))),
    })
}

/// The statistics snapshot carried by [`Frame::JobStats`]. Counter
/// meanings match the pipeline's [`spechd_core::StreamStats`] /
/// [`spechd_core::RunStats`]; `done != 0` marks the job's final frame,
/// after which `clusters`, `kept` and the HAC counters are exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobStatsFrame {
    /// The job this snapshot describes.
    pub job_id: u64,
    /// Participants currently attached (have opened, not yet closed).
    pub participants: u32,
    /// Spectra accepted into the job's ingest queue so far.
    pub submitted: u64,
    /// Spectra pulled from the queue by the pipeline (final value only).
    pub streamed: u64,
    /// Spectra surviving preprocessing (final value only).
    pub kept: u64,
    /// Shards opened so far (final value only).
    pub shards_opened: u32,
    /// Shards whose results have been sent. Shards go out in key order,
    /// so an intermediate snapshot counts only shards whose lighter
    /// neighbours are done too; the final frame counts every shard.
    pub shards_clustered: u32,
    /// Dense global cluster count (final frame only; 0 before).
    pub clusters: u64,
    /// Aggregate HAC distance comparisons (final frame only).
    pub hac_comparisons: u64,
    /// Aggregate Lance–Williams updates (final frame only).
    pub hac_updates: u64,
    /// Aggregate HAC merges (final frame only).
    pub hac_merges: u64,
    /// Non-zero once the job has finalized and all result frames for it
    /// have been sent.
    pub done: u8,
}

/// One library entry as shipped in a [`Frame::LoadLibrary`]. Rows are
/// raw packed hypervector words — exactly `dim.div_ceil(64)` of them,
/// with any bits at or beyond `dim` in the last word zero (the decoder
/// rejects anything else, which is what lets the server feed rows into
/// the packed store without re-validating).
#[derive(Debug, Clone, PartialEq)]
pub struct LibraryEntryWire {
    /// Precursor neutral mass in Dalton (must be finite).
    pub mass: f64,
    /// Precursor charge (0 = unknown).
    pub charge: u8,
    /// Whether this entry is a decoy.
    pub is_decoy: bool,
    /// Entry identifier (peptide sequence, consensus cluster id, …).
    pub id: String,
    /// Packed hypervector words, little-endian bit order.
    pub words: Vec<u64>,
}

/// One query as shipped in a [`Frame::SearchQuery`]: a packed query
/// hypervector (same word-layout contract as [`LibraryEntryWire`]) and
/// its precursor neutral mass, the center of the search window.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryWire {
    /// Precursor neutral mass in Dalton (must be finite).
    pub mass: f64,
    /// Packed hypervector words, little-endian bit order.
    pub words: Vec<u64>,
}

/// One search hit as shipped in a [`Frame::SearchHit`].
#[derive(Debug, Clone, PartialEq)]
pub struct HitWire {
    /// Row index of the matched entry in the job's library.
    pub library_index: u64,
    /// Hamming distance between query and entry (lower is better).
    pub distance: u16,
    /// `query_mass − entry_mass` in Dalton.
    pub mass_delta: f64,
    /// Whether the matched entry is a decoy.
    pub is_decoy: bool,
    /// The matched entry's identifier.
    pub id: String,
}

/// The statistics snapshot carried by [`Frame::SearchStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStatsFrame {
    /// The search job this snapshot describes.
    pub job_id: u64,
    /// Participants currently attached to the job.
    pub participants: u32,
    /// Library entries loaded so far (targets + decoys).
    pub entries: u64,
    /// Target entries loaded so far.
    pub targets: u64,
    /// Decoy entries loaded so far.
    pub decoys: u64,
    /// Non-zero once the library is sealed (first query arrived); no
    /// further `LoadLibrary` frames are accepted after this.
    pub sealed: u8,
    /// Queries scored so far.
    pub queries: u64,
    /// Hits returned so far.
    pub hits: u64,
}

/// The acknowledgement of one [`Frame::SubmitIncremental`], carried by
/// [`Frame::IncrementalAck`]: which spectra of the installment survived
/// preprocessing, the stable label each one received, and the
/// installment's work counters. Labels of earlier installments are never
/// disturbed (outside an explicit [`Frame::RefreshStore`]), so a client
/// reconstructs the full assignment by concatenating ack slices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncrementalAckFrame {
    /// The store this installment was folded into.
    pub name: String,
    /// The acknowledged installment's sequence number, echoing
    /// [`Frame::SubmitIncremental::seq`] (also on re-acks of
    /// duplicates).
    pub seq: u64,
    /// First global spectrum id assigned to this installment; its kept
    /// spectra own ids `base_id .. base_id + kept.len()`.
    pub base_id: u64,
    /// For each kept spectrum (in global-id order), its index in the
    /// installment's submitted batch.
    pub kept: Vec<u32>,
    /// Dense global cluster label per kept spectrum, parallel to
    /// `kept`. Stable: re-running earlier installments yields the same
    /// prefix verbatim.
    pub labels: Vec<u64>,
    /// Kept spectra absorbed into an existing cluster.
    pub absorbed: u64,
    /// Kept spectra no existing cluster accepted (reclustered among
    /// themselves).
    pub residual: u64,
    /// Clusters appended by this installment.
    pub new_clusters: u64,
    /// Spectra the store has absorbed across all installments, after
    /// this one.
    pub total_spectra: u64,
    /// Clusters the store holds after this installment.
    pub total_clusters: u64,
}

/// The store snapshot carried by [`Frame::StoreAck`]: the ack of
/// [`Frame::OpenStore`], [`Frame::PersistStore`], [`Frame::StoreStats`]
/// and [`Frame::RefreshStore`]. `persisted`/`refreshed`/`merged` refer
/// to the acknowledged operation; everything else is current state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreAckFrame {
    /// The store this snapshot describes.
    pub name: String,
    /// Hypervector dimensionality the store is bound to.
    pub dim: u32,
    /// Config fingerprint the store is bound to; an `OpenStore` whose
    /// config fingerprints differently is a
    /// [`ErrorCode::ConfigMismatch`].
    pub fingerprint: u64,
    /// Spectra absorbed across the store's lifetime.
    pub spectra: u64,
    /// Precursor buckets in the store.
    pub buckets: u64,
    /// Clusters in the store.
    pub clusters: u64,
    /// Non-zero if the store keeps per-member rows (required for
    /// `RefreshStore`).
    pub keeps_member_rows: u8,
    /// Non-zero if the in-memory store has changes not yet persisted.
    pub dirty: u8,
    /// Non-zero if this ack confirms a completed `PersistStore`.
    pub persisted: u8,
    /// Clusters whose medoid changed in the acknowledged refresh
    /// (0 unless this acks a `RefreshStore`).
    pub refreshed: u64,
    /// Clusters removed by merging in the acknowledged refresh
    /// (0 unless this acks a `RefreshStore`).
    pub merged: u64,
}

/// A decoded protocol frame. See the [module docs](self) for the wire
/// layout and [`FrameType`] for direction and intent.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Open a new job or join an existing one (configs must match).
    ///
    /// `client_id` names the *participant*, independent of the TCP
    /// connection: a client that reconnects after a network failure
    /// re-sends `OpenJob` with its original `client_id` and resumes its
    /// slot — the server replays any result frames it missed and
    /// deduplicates re-sent submits by `seq`.
    OpenJob {
        /// Caller-chosen job identity; all participants use the same id.
        job_id: u64,
        /// Caller-chosen participant identity within the job, stable
        /// across reconnects. Two live connections must not share one.
        client_id: u64,
        /// The job's pipeline configuration.
        config: JobConfig,
    },
    /// Submit a batch of spectra into the connection's open job.
    Submit {
        /// Must match the connection's open job.
        job_id: u64,
        /// Per-participant submit sequence number, starting at 0 and
        /// incremented per batch. A re-sent batch (after a lost ack)
        /// carries the same `seq`; the server ingests each `seq` once
        /// and re-acks duplicates — that is what makes reconnect-resume
        /// idempotent.
        seq: u64,
        /// The spectra, appended to the job's stream in batch order.
        spectra: Vec<Spectrum>,
    },
    /// Barrier: the server replies with a [`Frame::JobStats`] once every
    /// earlier frame on this connection has been processed.
    Flush {
        /// Must match the connection's open job.
        job_id: u64,
    },
    /// This participant is done submitting. When the last participant
    /// closes, the job's stream ends and the pipeline finalizes.
    CloseJob {
        /// Must match the connection's open job.
        job_id: u64,
    },
    /// Load entries into a search job's library, opening or joining the
    /// job (dims must match). An empty batch is a valid join-only frame.
    /// The server acks each batch with a [`Frame::SearchStats`]. At most
    /// [`MAX_LIBRARY_BATCH`] entries per frame.
    LoadLibrary {
        /// Caller-chosen search-job identity; independent of clustering
        /// job ids.
        job_id: u64,
        /// Hypervector dimensionality of every entry in the job.
        dim: u32,
        /// The entries to append.
        entries: Vec<LibraryEntryWire>,
    },
    /// Search query hypervectors against the job's library. The first
    /// `SearchQuery` seals the library (sorts it by mass); the server
    /// replies with one [`Frame::SearchHit`] per query followed by one
    /// [`Frame::SearchStats`]. At most [`MAX_QUERY_BATCH`] queries per
    /// frame.
    SearchQuery {
        /// Must name an open search job with matching `dim`.
        job_id: u64,
        /// Hypervector dimensionality of every query in the frame.
        dim: u32,
        /// Search-window half-width in Dalton: fractions of a Dalton
        /// for standard search, hundreds for open-modification search.
        /// Capped at [`MAX_SEARCH_WINDOW_DA`].
        window_da: f64,
        /// Hits kept per query, in `[1, MAX_TOP_K]`.
        top_k: u32,
        /// The queries to score.
        queries: Vec<QueryWire>,
    },
    /// Open (or resume) an exclusive session on a named persistent
    /// cluster store; acked with a [`Frame::StoreAck`] snapshot.
    ///
    /// One client holds a store's write session at a time: a second
    /// client gets [`ErrorCode::StoreBusy`] (retryable) until the holder
    /// detaches and its rejoin grace expires. The same `client_id`
    /// re-opening resumes the session — the server re-acks the duplicate
    /// installment `seq` instead of re-ingesting it, which is what makes
    /// reconnect-resume idempotent on the incremental path too.
    ///
    /// Store names are file names on the server (`<store_dir>/<name>.shpk`),
    /// so they are capped in length and restricted to `[A-Za-z0-9_-]` at
    /// decode time.
    OpenStore {
        /// The store's name.
        name: String,
        /// Caller-chosen identity, stable across reconnects.
        client_id: u64,
        /// The engine configuration the store is (or will be) bound to.
        /// Opening an existing store with a config that fingerprints
        /// differently is an [`ErrorCode::ConfigMismatch`].
        config: JobConfig,
    },
    /// Fold an installment of spectra into the session's store via the
    /// incremental pipeline; acked with a [`Frame::IncrementalAck`].
    SubmitIncremental {
        /// Must match the connection's open store session.
        name: String,
        /// Per-session installment sequence number, starting at 0. A
        /// re-sent installment (after a lost ack) carries the same
        /// `seq`; the server folds each `seq` in once and re-acks
        /// duplicates.
        seq: u64,
        /// The installment's spectra, at most
        /// [`MAX_INCREMENTAL_BATCH`] per frame.
        spectra: Vec<Spectrum>,
    },
    /// Durably save the session's store to disk (the crash-safe
    /// tmp→fsync→rename path); acked with a [`Frame::StoreAck`].
    PersistStore {
        /// Must match the connection's open store session.
        name: String,
    },
    /// Request a [`Frame::StoreAck`] snapshot of the session's store.
    StoreStats {
        /// Must match the connection's open store session.
        name: String,
    },
    /// Run the medoid refresh / compaction pass on the session's store;
    /// acked with a [`Frame::StoreAck`] carrying the refresh counters.
    /// This is the one operation **outside** the stable-label contract:
    /// medoids may move and clusters may merge (labels compact).
    RefreshStore {
        /// Must match the connection's open store session.
        name: String,
    },
    /// Acknowledges one `Submit`: its spectra occupy stream indices
    /// `[base, base + count)`.
    SubmitAck {
        /// The acknowledged job.
        job_id: u64,
        /// The acknowledged batch's sequence number, echoing
        /// [`Frame::Submit::seq`] (also on re-acks of duplicates).
        seq: u64,
        /// First stream index assigned to the batch.
        base: u64,
        /// Number of spectra in the batch.
        count: u32,
    },
    /// One finalized shard's assignment. `members[i]` (a stream index)
    /// has raw cluster label `raw_base + labels[i]`; shards arrive in
    /// ascending `key` order, so raw labels form the same blocks
    /// `ShardLabelMerger` builds, and dense labels follow by first
    /// appearance in stream order (see `AssignmentAssembler`).
    Assignment {
        /// The job this shard belongs to.
        job_id: u64,
        /// The shard's precursor bucket key.
        key: i64,
        /// First raw cluster id of this shard's block.
        raw_base: u64,
        /// Member stream indices, ascending.
        members: Vec<u64>,
        /// Shard-local labels, parallel to `members`.
        labels: Vec<u32>,
    },
    /// Consensus (medoid) stream indices for one shard's raw cluster
    /// block: raw cluster `raw_base + i` has medoid `medoids[i]`.
    Consensus {
        /// The job this shard belongs to.
        job_id: u64,
        /// First raw cluster id of the block, matching the shard's
        /// [`Frame::Assignment`].
        raw_base: u64,
        /// Medoid stream index per raw cluster in the block.
        medoids: Vec<u64>,
    },
    /// A statistics snapshot: the `OpenJob`/`Flush` ack, or — with
    /// `done != 0` — the job's final frame. Never pushed unsolicited
    /// before the final frame, so a client waiting for a `Flush` ack
    /// can treat the first `JobStats` it sees as that ack.
    JobStats(JobStatsFrame),
    /// One query's top-k hits, ordered by `(distance, library_index)`
    /// ascending. `query_index` is the job-global index the server
    /// assigned to the query (contiguous per `SearchQuery` frame).
    SearchHit {
        /// The search job the query ran against.
        job_id: u64,
        /// Job-global index of the query.
        query_index: u64,
        /// The hits, best first.
        hits: Vec<HitWire>,
    },
    /// A search-job statistics snapshot: the `LoadLibrary` ack, and the
    /// terminator after a `SearchQuery`'s hit frames — a client can
    /// treat the first `SearchStats` after sending a batch as "all hits
    /// for that batch have arrived".
    SearchStats(SearchStatsFrame),
    /// The ack of one [`Frame::SubmitIncremental`]: kept indices, stable
    /// labels, and installment counters.
    IncrementalAck(IncrementalAckFrame),
    /// A store snapshot: the ack of [`Frame::OpenStore`],
    /// [`Frame::PersistStore`], [`Frame::StoreStats`] and
    /// [`Frame::RefreshStore`].
    StoreAck(StoreAckFrame),
    /// An error report. [`ErrorCode::Malformed`], [`ErrorCode::Oversized`]
    /// and [`ErrorCode::IdleTimeout`] are followed by a connection close.
    Error {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// An I/O error: a failed or timed-out read between frames, or a
    /// reset inside one (an EOF or a stall inside one is
    /// [`WireError::Truncated`]).
    Io(std::io::Error),
    /// The header's magic bytes were wrong.
    BadMagic([u8; 4]),
    /// The header announced an unsupported protocol version.
    BadVersion(u16),
    /// The length prefix exceeded the reader's cap.
    Oversized {
        /// Announced payload length.
        len: u32,
        /// The reader's cap.
        max: u32,
    },
    /// The payload (or header) did not decode: trailing bytes, invalid
    /// values, or an unknown frame type. The bytes arrived but mean
    /// nothing — a protocol bug or corruption, never worth a retry.
    Malformed(String),
    /// The stream ended (or stalled) in the middle of a frame: the
    /// bytes that *did* arrive were fine, delivery failed. For a client
    /// this is a transport fault like [`WireError::Io`] — retryable —
    /// even though the partial frame itself is unusable.
    Truncated(String),
}

impl WireError {
    pub(crate) fn malformed(msg: impl Into<String>) -> Self {
        Self::Malformed(msg.into())
    }

    /// The [`ErrorCode`] a server should report for this failure.
    pub(crate) fn error_code(&self) -> ErrorCode {
        match self {
            WireError::Oversized { .. } => ErrorCode::Oversized,
            _ => ErrorCode::Malformed,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
            WireError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            WireError::Truncated(msg) => write!(f, "truncated frame: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<Short> for WireError {
    fn from(short: Short) -> Self {
        WireError::malformed(format!("truncated payload: {short}"))
    }
}

impl From<MsError> for WireError {
    fn from(e: MsError) -> Self {
        WireError::malformed(format!("invalid spectrum: {e}"))
    }
}

// ───────────────────────── the frame table ─────────────────────────

/// Expands the frame table into the four per-frame matches:
/// `FrameType::from_wire`, `Frame::frame_type`, `encode_payload_into` and
/// [`decode_payload`]. A row is `Variant { field: codec, … }` — or
/// `Variant[Struct] { … }` for a variant wrapping a named struct — with
/// the fields in wire order. Each `codec` names a method on both `Enc`
/// (writes the field) and `Dec` (reads it and does all of its
/// validation; a width codec is the shared cursor's read, through `Dec`'s
/// deref), so the wire width is in the table, never inferred from the
/// field's Rust type.
macro_rules! payloads {
    (@shape $name:ident { $($field:ident),* }) => {
        Frame::$name { $($field),* }
    };
    (@shape $name:ident [$inner:ident] { $($field:ident),* }) => {
        Frame::$name($inner { $($field),* })
    };
    ($($name:ident $([$inner:ident])? { $($field:ident: $codec:ident),* $(,)? })*) => {
        impl FrameType {
            fn from_wire(byte: u8) -> Option<Self> {
                [$(Self::$name),*].into_iter().find(|&t| t as u8 == byte)
            }
        }

        impl Frame {
            fn frame_type(&self) -> FrameType {
                match self {
                    $(Frame::$name { .. } => FrameType::$name,)*
                }
            }
        }

        /// Appends a frame's payload bytes (no header) to `e`.
        fn encode_payload_into(e: &mut Enc, frame: &Frame) {
            match frame {
                $(payloads!(@shape $name $([$inner])? { $($field),* }) => {
                    $(e.$codec($field);)*
                })*
            }
        }

        /// Decodes a frame's payload, given its type from the header.
        /// Rejects truncated payloads, trailing bytes, and any value
        /// beyond `limits` or the `MAX_*` protocol caps — this is the
        /// single enforcement point for every decode-time cap (see
        /// [`crate::limits`]).
        pub fn decode_payload(
            frame_type: FrameType,
            payload: &[u8],
            limits: &Limits,
        ) -> Result<Frame, WireError> {
            let mut d = Dec::new(payload, limits);
            let frame = match frame_type {
                $(FrameType::$name => {
                    $(let $field = d.$codec()?;)*
                    payloads!(@shape $name $([$inner])? { $($field),* })
                })*
            };
            d.finish()?;
            Ok(frame)
        }
    };
}

// Every SPHD v3 payload layout, written once. `client_id` trails
// `OpenJob` (a v2 addition) so the config field offsets match v1.
payloads! {
    OpenJob { job_id: u64, config: job_config, client_id: u64 }
    Submit { job_id: u64, seq: u64, spectra: spectra }
    Flush { job_id: u64 }
    CloseJob { job_id: u64 }
    LoadLibrary { job_id: u64, dim: dim, entries: entries }
    SearchQuery { job_id: u64, dim: dim, window_da: window, top_k: top_k, queries: queries }
    OpenStore { name: store_name, client_id: u64, config: job_config }
    SubmitIncremental { name: store_name, seq: u64, spectra: installment }
    PersistStore { name: store_name }
    StoreStats { name: store_name }
    RefreshStore { name: store_name }
    SubmitAck { job_id: u64, seq: u64, base: u64, count: u32 }
    Assignment { job_id: u64, key: i64, raw_base: u64, members: members, labels: paired_u32s }
    Consensus { job_id: u64, raw_base: u64, medoids: u64s }
    JobStats[JobStatsFrame] {
        job_id: u64, participants: u32, submitted: u64, streamed: u64, kept: u64,
        shards_opened: u32, shards_clustered: u32, clusters: u64, hac_comparisons: u64,
        hac_updates: u64, hac_merges: u64, done: u8,
    }
    SearchHit { job_id: u64, query_index: u64, hits: hits }
    SearchStats[SearchStatsFrame] {
        job_id: u64, participants: u32, entries: u64, targets: u64, decoys: u64, sealed: u8,
        queries: u64, hits: u64,
    }
    IncrementalAck[IncrementalAckFrame] {
        name: store_name, seq: u64, base_id: u64, kept: kept, labels: paired_u64s,
        absorbed: u64, residual: u64, new_clusters: u64, total_spectra: u64,
        total_clusters: u64,
    }
    // `dim` here is a plain snapshot value, not the validating `dim` codec.
    StoreAck[StoreAckFrame] {
        name: store_name, dim: u32, fingerprint: u64, spectra: u64, buckets: u64,
        clusters: u64, keeps_member_rows: u8, dirty: u8, persisted: u8, refreshed: u64,
        merged: u64,
    }
    Error { code: error_code, message: str }
}

/// Encodes a full frame into one buffer: the header, the payload behind
/// it, then the payload's length patched into the header.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut e = Enc::new();
    e.buf.extend_from_slice(&MAGIC);
    e.u16(VERSION);
    e.u8(frame.frame_type() as u8);
    e.u8(0); // reserved
    e.u32(0); // payload length, patched below
    encode_payload_into(&mut e, frame);
    let len = (e.buf.len() - HEADER_LEN) as u32;
    e.buf[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    e.buf
}

// ───────────────────────── encoding ─────────────────────────

/// The write half of every codec in the frame table. Scalar writers take
/// `impl Borrow<T>`, so the table passes field references and callers
/// pass values.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Room for an ack or a search hit, the frames sent most, so that
    /// they never regrow: a reallocation per doubling from 8 bytes cost
    /// more than the rest of their encoding.
    fn new() -> Self {
        let buf = Vec::with_capacity(256);
        Self { buf }
    }
    fn u8(&mut self, v: impl Borrow<u8>) {
        self.buf.push(*v.borrow());
    }
    fn u16(&mut self, v: impl Borrow<u16>) {
        self.buf.extend_from_slice(&v.borrow().to_le_bytes());
    }
    fn u32(&mut self, v: impl Borrow<u32>) {
        self.buf.extend_from_slice(&v.borrow().to_le_bytes());
    }
    fn u64(&mut self, v: impl Borrow<u64>) {
        self.buf.extend_from_slice(&v.borrow().to_le_bytes());
    }
    fn i64(&mut self, v: impl Borrow<i64>) {
        self.buf.extend_from_slice(&v.borrow().to_le_bytes());
    }
    fn f32(&mut self, v: impl Borrow<f32>) {
        self.buf.extend_from_slice(&v.borrow().to_le_bytes());
    }
    fn f64(&mut self, v: impl Borrow<f64>) {
        self.buf.extend_from_slice(&v.borrow().to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn store_name(&mut self, name: &str) {
        self.str(name);
    }
    fn dim(&mut self, dim: &u32) {
        self.u32(dim);
    }
    fn window(&mut self, window_da: &f64) {
        self.f64(window_da);
    }
    fn top_k(&mut self, top_k: &u32) {
        self.u32(top_k);
    }
    fn error_code(&mut self, code: &ErrorCode) {
        self.u8(*code as u8);
    }
    /// The [`JobConfig`] field block shared by `OpenJob` and
    /// `OpenStore`: dim, resolution, threshold, linkage, watermark,
    /// workers — in v1 field order.
    fn job_config(&mut self, config: &JobConfig) {
        self.u32(config.dim);
        self.f64(config.resolution);
        self.f64(config.threshold_fraction);
        self.u8(linkage_to_wire(config.linkage));
        self.u32(config.watermark);
        self.u32(config.workers);
    }
    /// A `u32` count prefix, then each item.
    fn counted<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        self.u32(items.len() as u32);
        for x in items {
            item(self, x);
        }
    }
    fn spectrum(&mut self, s: &Spectrum) {
        self.str(s.title());
        self.f64(s.precursor().mz());
        self.u8(s.precursor().charge());
        match s.retention_time() {
            Some(rt) => {
                self.u8(1);
                self.f64(rt);
            }
            None => self.u8(0),
        }
        self.counted(s.peaks(), |e, p| {
            e.f64(p.mz);
            e.f32(p.intensity);
        });
    }
    fn spectra(&mut self, spectra: &[Spectrum]) {
        self.counted(spectra, Self::spectrum);
    }
    fn installment(&mut self, spectra: &[Spectrum]) {
        self.spectra(spectra);
    }
    fn entries(&mut self, entries: &[LibraryEntryWire]) {
        self.counted(entries, |e, entry| {
            e.f64(entry.mass);
            e.u8(entry.charge);
            e.u8(u8::from(entry.is_decoy));
            e.str(&entry.id);
            e.paired_u64s(&entry.words);
        });
    }
    fn queries(&mut self, queries: &[QueryWire]) {
        self.counted(queries, |e, q| {
            e.f64(q.mass);
            e.paired_u64s(&q.words);
        });
    }
    fn hits(&mut self, hits: &[HitWire]) {
        self.counted(hits, |e, h| {
            e.u64(h.library_index);
            e.u16(h.distance);
            e.f64(h.mass_delta);
            e.u8(u8::from(h.is_decoy));
            e.str(&h.id);
        });
    }
    fn u64s(&mut self, v: &[u64]) {
        self.counted(v, |e, x| e.u64(x));
    }
    fn members(&mut self, v: &[u64]) {
        self.u64s(v);
    }
    fn kept(&mut self, v: &[u32]) {
        self.counted(v, |e, x| e.u32(x));
    }
    /// Elements with no count of their own: a list parallel to the
    /// frame's last counted one, or a hypervector row (whose word count
    /// the frame's `dim` implies). One extend of the bytes, not a write per word.
    fn paired_u64s(&mut self, v: &[u64]) {
        self.buf.extend(v.iter().flat_map(|x| x.to_le_bytes()));
    }
    fn paired_u32s(&mut self, v: &[u32]) {
        v.iter().for_each(|x| self.u32(x));
    }
}

// ───────────────────────── decoding ─────────────────────────

/// The read half of every codec in the frame table: each reads its field
/// and does all of its validation. It derefs to the shared
/// [`LeReader`], so the width codecs (`u8`, `u32`, `u64`, `i64`) are the
/// cursor's own reads and a short read becomes `Malformed` through `?`.
/// Besides the cursor it carries the server's [`Limits`], the frame's
/// `dim` (set by the `dim` codec, read by the row codecs after it) and the
/// last count prefix (read by the `paired_*` lists, which carry no count
/// of their own).
struct Dec<'a> {
    cursor: LeReader<'a>,
    limits: &'a Limits,
    dim: u32,
    count: usize,
}

impl<'a> Deref for Dec<'a> {
    type Target = LeReader<'a>;
    fn deref(&self) -> &LeReader<'a> {
        &self.cursor
    }
}

impl DerefMut for Dec<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.cursor
    }
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8], limits: &'a Limits) -> Self {
        Self {
            cursor: LeReader::new(buf),
            limits,
            dim: 0,
            count: 0,
        }
    }
    /// A length prefix that at minimum `elem_size` bytes per element must
    /// follow — rejects absurd counts before any allocation.
    fn len_prefix(&mut self, elem_size: usize) -> Result<usize, WireError> {
        self.capped_count(u32::MAX, elem_size, "element")
    }
    /// A count prefix with an explicit protocol cap, checked *before*
    /// the remaining-payload bound and before any allocation: a hostile
    /// `u32::MAX` count is rejected by the cap alone.
    fn capped_count(&mut self, cap: u32, elem_size: usize, what: &str) -> Result<usize, WireError> {
        let n = self.u32()?;
        if n > cap {
            return Err(WireError::malformed(format!(
                "{what} count {n} exceeds cap {cap}"
            )));
        }
        let n = n as usize;
        if n.saturating_mul(elem_size) > self.remaining() {
            return Err(WireError::malformed(format!(
                "length prefix {n} exceeds remaining payload"
            )));
        }
        self.count = n;
        Ok(n)
    }
    /// `n` items decoded one after another. Callers pass an `n` that is
    /// already bounded — a count prefix checked against the remaining
    /// payload, or the stride of a checked dim — so reserving it up
    /// front is safe, and cheaper than growing.
    fn list<T>(
        &mut self,
        n: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }
    fn str(&mut self) -> Result<String, WireError> {
        let n = self.len_prefix(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::malformed("string is not UTF-8"))
    }
    fn store_name(&mut self) -> Result<String, WireError> {
        let name = self.str()?;
        check_store_name(&name)?;
        Ok(name)
    }
    /// The frame's hypervector dimensionality, kept for the rows after it.
    fn dim(&mut self) -> Result<u32, WireError> {
        let dim = self.u32()?;
        check_dim(dim)?;
        self.dim = dim;
        Ok(dim)
    }
    fn window(&mut self) -> Result<f64, WireError> {
        let window_da = self.finite_f64("search window")?;
        if !(0.0..=MAX_SEARCH_WINDOW_DA).contains(&window_da) {
            return Err(WireError::malformed(format!(
                "search window {window_da} outside [0, {MAX_SEARCH_WINDOW_DA}]"
            )));
        }
        Ok(window_da)
    }
    fn top_k(&mut self) -> Result<u32, WireError> {
        let top_k = self.u32()?;
        if top_k == 0 || top_k > MAX_TOP_K {
            return Err(WireError::malformed(format!(
                "top_k {top_k} outside [1, {MAX_TOP_K}]"
            )));
        }
        Ok(top_k)
    }
    fn error_code(&mut self) -> Result<ErrorCode, WireError> {
        let byte = self.u8()?;
        ErrorCode::from_wire(byte)
            .ok_or_else(|| WireError::malformed(format!("unknown error code {byte}")))
    }
    /// The [`JobConfig`] field block shared by `OpenJob` and
    /// `OpenStore`, with its full validation: dim bounds, finite
    /// positive resolution, threshold in `[0, 1]`, the worker cap from
    /// the limits and the watermark range `[1, MAX_WATERMARK]`.
    fn job_config(&mut self) -> Result<JobConfig, WireError> {
        let config = JobConfig {
            dim: self.u32()?,
            resolution: self.f64()?,
            threshold_fraction: self.f64()?,
            linkage: linkage_from_wire(self.u8()?)?,
            watermark: self.u32()?,
            workers: self.u32()?,
        };
        check_dim(config.dim)?;
        if !config.resolution.is_finite()
            || config.resolution <= 0.0
            || !(0.0..=1.0).contains(&config.threshold_fraction)
        {
            return Err(WireError::malformed("invalid job config values"));
        }
        if config.workers > self.limits.max_workers {
            return Err(WireError::malformed(format!(
                "workers {} exceeds cap {}",
                config.workers, self.limits.max_workers
            )));
        }
        if config.watermark == 0 || config.watermark > MAX_WATERMARK {
            return Err(WireError::malformed(format!(
                "watermark {} outside [1, {MAX_WATERMARK}]",
                config.watermark
            )));
        }
        Ok(config)
    }
    fn spectrum(&mut self) -> Result<Spectrum, WireError> {
        let title = self.str()?;
        let mz = self.f64()?;
        let charge = self.u8()?;
        let rt = match self.u8()? {
            0 => None,
            1 => Some(self.f64()?),
            other => {
                return Err(WireError::malformed(format!(
                    "bad retention-time flag {other}"
                )))
            }
        };
        let n = self.len_prefix(12)?;
        let peaks = self.list(n, |d| Ok(Peak::new(d.f64()?, d.f32()?)))?;
        let mut s = Spectrum::new(title, Precursor::new(mz, charge)?, peaks)?;
        if let Some(rt) = rt {
            s = s.with_retention_time(rt);
        }
        Ok(s)
    }
    fn spectra(&mut self) -> Result<Vec<Spectrum>, WireError> {
        let n = self.len_prefix(18)?; // min spectrum: empty title + fixed fields
        self.list(n, Self::spectrum)
    }
    fn installment(&mut self) -> Result<Vec<Spectrum>, WireError> {
        let n = self.capped_count(MAX_INCREMENTAL_BATCH, 18, "incremental spectrum")?;
        self.list(n, Self::spectrum)
    }
    fn entries(&mut self) -> Result<Vec<LibraryEntryWire>, WireError> {
        // min entry: mass + charge + decoy flag + empty id + row
        let n = self.capped_count(MAX_LIBRARY_BATCH, 14 + self.row_bytes(), "library entry")?;
        self.list(n, |d| {
            Ok(LibraryEntryWire {
                mass: d.finite_f64("entry mass")?,
                charge: d.u8()?,
                is_decoy: d.bool_flag("is_decoy")?,
                id: d.str()?,
                words: d.row()?,
            })
        })
    }
    fn queries(&mut self) -> Result<Vec<QueryWire>, WireError> {
        let n = self.capped_count(MAX_QUERY_BATCH, 8 + self.row_bytes(), "query")?;
        self.list(n, |d| {
            Ok(QueryWire {
                mass: d.finite_f64("query mass")?,
                words: d.row()?,
            })
        })
    }
    fn hits(&mut self) -> Result<Vec<HitWire>, WireError> {
        // min hit: index + distance + delta + decoy flag + empty id
        let n = self.len_prefix(23)?;
        self.list(n, |d| {
            Ok(HitWire {
                library_index: d.u64()?,
                distance: d.u16()?,
                mass_delta: d.f64()?,
                is_decoy: d.bool_flag("is_decoy")?,
                id: d.str()?,
            })
        })
    }
    fn u64s(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.len_prefix(8)?;
        Ok(self.words(n)?)
    }
    fn members(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.len_prefix(12)?; // 8 bytes member + 4 bytes label
        Ok(self.words(n)?)
    }
    fn kept(&mut self) -> Result<Vec<u32>, WireError> {
        // 4 bytes kept index + 8 bytes label per element.
        let n = self.capped_count(MAX_INCREMENTAL_BATCH, 12, "incremental label")?;
        self.list(n, |d| Ok(d.u32()?))
    }
    fn paired_u32s(&mut self) -> Result<Vec<u32>, WireError> {
        self.list(self.count, |d| Ok(d.u32()?))
    }
    fn paired_u64s(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.count;
        Ok(self.words(n)?)
    }
    fn row_bytes(&self) -> usize {
        (self.dim as usize).div_ceil(64) * 8
    }
    /// A packed hypervector row of exactly `dim.div_ceil(64)` words,
    /// with any bits at or beyond `dim` in the last word required zero
    /// (the packed store's invariant — validated here so the server
    /// never has to).
    fn row(&mut self) -> Result<Vec<u64>, WireError> {
        let dim = self.dim;
        let stride = (dim as usize).div_ceil(64);
        let words = self.words(stride)?;
        if dim % 64 != 0 && words[stride - 1] >> (dim % 64) != 0 {
            return Err(WireError::malformed(format!(
                "hypervector has non-zero bits beyond dim {dim}"
            )));
        }
        Ok(words)
    }
    fn finite_f64(&mut self, what: &str) -> Result<f64, WireError> {
        let v = self.f64()?;
        if !v.is_finite() {
            return Err(WireError::malformed(format!("{what} must be finite")));
        }
        Ok(v)
    }
    fn bool_flag(&mut self, what: &str) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::malformed(format!("bad {what} flag {other}"))),
        }
    }
    fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::malformed(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Parses and validates a frame header, returning `(type, payload_len)`.
pub fn parse_header(
    header: &[u8; HEADER_LEN],
    max_len: u32,
) -> Result<(FrameType, u32), WireError> {
    // A whole header: no read below is short.
    let mut r = LeReader::new(header);
    let magic = r.array()?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let byte = r.u8()?;
    let frame_type = FrameType::from_wire(byte)
        .ok_or_else(|| WireError::malformed(format!("unknown frame type 0x{byte:02x}")))?;
    if r.u8()? != 0 {
        return Err(WireError::malformed("non-zero reserved byte"));
    }
    let len = r.u32()?;
    if len > max_len {
        return Err(WireError::Oversized { len, max: max_len });
    }
    Ok((frame_type, len))
}

fn check_dim(dim: u32) -> Result<(), WireError> {
    if dim == 0 || dim > u16::MAX as u32 {
        return Err(WireError::malformed(format!(
            "dim {dim} outside (0, 65535]"
        )));
    }
    Ok(())
}

/// Validates a store name: non-empty, at most [`MAX_STORE_NAME_LEN`]
/// bytes, and drawn from `[A-Za-z0-9_-]`.
/// Store names become server-side file names (`<store_dir>/<name>.shpk`),
/// so the alphabet admits no separators, no dots, no traversal. The
/// client checks too, so a bad name fails before a frame is sent.
pub(crate) fn check_store_name(name: &str) -> Result<(), WireError> {
    if name.is_empty() {
        return Err(WireError::malformed("store name is empty"));
    }
    if name.len() > MAX_STORE_NAME_LEN as usize {
        return Err(WireError::malformed(format!(
            "store name length {} exceeds cap {MAX_STORE_NAME_LEN}",
            name.len()
        )));
    }
    if !name
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
    {
        return Err(WireError::malformed("store name must match [A-Za-z0-9_-]"));
    }
    Ok(())
}

/// Writes one frame to `w` (no flush — callers batch then flush).
pub(crate) fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&encode_frame(frame))
}

/// Reads one frame from a blocking reader, enforcing `limits` and every
/// protocol cap. Returns [`WireError::Closed`] on a clean EOF at a frame
/// boundary; an EOF mid-frame is [`WireError::Truncated`].
pub fn read_frame(r: &mut impl Read, limits: &Limits) -> Result<Frame, WireError> {
    // First byte separately: EOF here is a clean close, EOF later is a
    // truncated frame.
    let mut first = [0u8];
    match r.read(&mut first) {
        Ok(0) => Err(WireError::Closed),
        Ok(_) => finish_frame(r, first[0], limits),
        Err(e) => Err(WireError::Io(e)),
    }
}

/// Reads the rest of a frame whose first byte has arrived — header,
/// payload, decode — enforcing `limits` and every protocol cap. A stream
/// that ends or stalls (a read timeout) inside the frame is
/// [`WireError::Truncated`].
pub(crate) fn finish_frame(
    r: &mut impl Read,
    first: u8,
    limits: &Limits,
) -> Result<Frame, WireError> {
    let mut header = [first; HEADER_LEN];
    r.read_exact(&mut header[1..])
        .map_err(|e| truncated(e, "header"))?;
    let (frame_type, len) = parse_header(&header, limits.max_frame_len)?;
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)
        .map_err(|e| truncated(e, "payload"))?;
    decode_payload(frame_type, &payload, limits)
}

fn truncated(e: std::io::Error, what: &str) -> WireError {
    match e.kind() {
        ErrorKind::UnexpectedEof | ErrorKind::WouldBlock | ErrorKind::TimedOut => {
            WireError::Truncated(format!("stalled inside {what}"))
        }
        _ => WireError::Io(e),
    }
}

/// A frame's payload bytes (no header).
#[cfg(test)]
pub(crate) fn encode_payload(frame: &Frame) -> Vec<u8> {
    encode_frame(frame).split_off(HEADER_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shadows the real `decode_payload` with the default [`Limits`],
    /// so the suite reads as the common case.
    fn decode_payload(frame_type: FrameType, payload: &[u8]) -> Result<Frame, WireError> {
        super::decode_payload(frame_type, payload, &Limits::default())
    }

    /// Shadows the real `read_frame`, taking just the frame cap.
    fn read_frame(r: &mut impl Read, max_len: u32) -> Result<Frame, WireError> {
        let limits = Limits {
            max_frame_len: max_len,
            ..Limits::default()
        };
        super::read_frame(r, &limits)
    }

    fn spectrum(title: &str, mz: f64, charge: u8, rt: Option<f64>) -> Spectrum {
        let peaks = vec![Peak::new(200.25, 1.5), Peak::new(450.75, 3.25)];
        let mut s = Spectrum::new(title, Precursor::new(mz, charge).unwrap(), peaks).unwrap();
        if let Some(rt) = rt {
            s = s.with_retention_time(rt);
        }
        s
    }

    /// One instance of every frame type, with non-trivial payloads.
    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::OpenJob {
                job_id: 0xDEAD_BEEF_0001,
                client_id: 0xC11E_0001,
                config: JobConfig::default(),
            },
            Frame::Submit {
                job_id: 7,
                seq: 0,
                spectra: vec![
                    spectrum("scan=1", 500.5, 2, None),
                    spectrum("scan=2", 611.25, 3, Some(12.5)),
                ],
            },
            Frame::Submit {
                job_id: 7,
                seq: u64::MAX,
                spectra: Vec::new(),
            },
            Frame::Flush { job_id: 7 },
            Frame::CloseJob { job_id: u64::MAX },
            Frame::LoadLibrary {
                job_id: 40,
                dim: 65, // stride 2, one live bit in the tail word
                entries: vec![
                    LibraryEntryWire {
                        mass: 923.5,
                        charge: 2,
                        is_decoy: false,
                        id: "PEPTIDEK".into(),
                        words: vec![u64::MAX, 1],
                    },
                    LibraryEntryWire {
                        mass: 923.5,
                        charge: 0,
                        is_decoy: true,
                        id: "DECOY_PEPTIDEK".into(),
                        words: vec![0x0123_4567_89AB_CDEF, 0],
                    },
                ],
            },
            Frame::LoadLibrary {
                job_id: 40,
                dim: 65,
                entries: Vec::new(),
            },
            Frame::SearchQuery {
                job_id: 40,
                dim: 65,
                window_da: 250.0,
                top_k: 5,
                queries: vec![QueryWire {
                    mass: 930.25,
                    words: vec![0xFFFF_0000_FFFF_0000, 1],
                }],
            },
            Frame::OpenStore {
                name: "repo-2026_q3".into(),
                client_id: 0xC11E_0002,
                config: JobConfig::default(),
            },
            Frame::SubmitIncremental {
                name: "repo-2026_q3".into(),
                seq: 4,
                spectra: vec![spectrum("scan=9", 712.5, 2, Some(30.25))],
            },
            Frame::SubmitIncremental {
                name: "repo-2026_q3".into(),
                seq: 5,
                spectra: Vec::new(),
            },
            Frame::PersistStore {
                name: "repo-2026_q3".into(),
            },
            Frame::StoreStats {
                name: "repo-2026_q3".into(),
            },
            Frame::RefreshStore {
                name: "repo-2026_q3".into(),
            },
            Frame::IncrementalAck(IncrementalAckFrame {
                name: "repo-2026_q3".into(),
                seq: 4,
                base_id: 1000,
                kept: vec![0, 2, 3],
                labels: vec![17, 17, 410],
                absorbed: 2,
                residual: 1,
                new_clusters: 1,
                total_spectra: 1003,
                total_clusters: 411,
            }),
            Frame::IncrementalAck(IncrementalAckFrame {
                name: "repo-2026_q3".into(),
                seq: 5,
                base_id: 1003,
                kept: Vec::new(),
                labels: Vec::new(),
                absorbed: 0,
                residual: 0,
                new_clusters: 0,
                total_spectra: 1003,
                total_clusters: 411,
            }),
            Frame::StoreAck(StoreAckFrame {
                name: "repo-2026_q3".into(),
                dim: 4096,
                fingerprint: 0xFEED_F00D_CAFE,
                spectra: 1003,
                buckets: 120,
                clusters: 409,
                keeps_member_rows: 1,
                dirty: 1,
                persisted: 0,
                refreshed: 3,
                merged: 2,
            }),
            Frame::SubmitAck {
                job_id: 7,
                seq: 3,
                base: 1 << 40,
                count: 1024,
            },
            Frame::Assignment {
                job_id: 7,
                key: -3,
                raw_base: 17,
                members: vec![0, 5, 9],
                labels: vec![0, 1, 0],
            },
            Frame::Consensus {
                job_id: 7,
                raw_base: 17,
                medoids: vec![9, 5],
            },
            Frame::JobStats(JobStatsFrame {
                job_id: 7,
                participants: 4,
                submitted: 1200,
                streamed: 1200,
                kept: 1187,
                shards_opened: 33,
                shards_clustered: 33,
                clusters: 410,
                hac_comparisons: 123_456,
                hac_updates: 7890,
                hac_merges: 777,
                done: 1,
            }),
            Frame::SearchHit {
                job_id: 40,
                query_index: 12,
                hits: vec![
                    HitWire {
                        library_index: 3,
                        distance: 17,
                        mass_delta: 6.75,
                        is_decoy: false,
                        id: "PEPTIDEK".into(),
                    },
                    HitWire {
                        library_index: 9,
                        distance: 17,
                        mass_delta: -80.0,
                        is_decoy: true,
                        id: "DECOY_SAMPLER".into(),
                    },
                ],
            },
            Frame::SearchHit {
                job_id: 40,
                query_index: 13,
                hits: Vec::new(),
            },
            Frame::SearchStats(SearchStatsFrame {
                job_id: 40,
                participants: 2,
                entries: 12_000,
                targets: 6_000,
                decoys: 6_000,
                sealed: 1,
                queries: 512,
                hits: 2_560,
            }),
            Frame::Error {
                code: ErrorCode::ConfigMismatch,
                message: "job 7 exists with a different config".into(),
            },
            Frame::Error {
                code: ErrorCode::Busy,
                message: "job registry is full; retry after backoff".into(),
            },
            Frame::Error {
                code: ErrorCode::StoreBusy,
                message: "store is held by client 3; retry after backoff".into(),
            },
        ]
    }

    fn decode_frame(bytes: &[u8]) -> Result<Frame, WireError> {
        read_frame(&mut &bytes[..], DEFAULT_MAX_FRAME_LEN)
    }

    /// encode→decode→re-encode is the identity on both sides for every
    /// frame type: the wire format is deterministic and byte-exact.
    #[test]
    fn byte_level_round_trip_for_every_frame_type() {
        for frame in all_frames() {
            let bytes = encode_frame(&frame);
            assert_eq!(&bytes[0..4], &MAGIC, "magic for {frame:?}");
            assert_eq!(
                u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize,
                bytes.len() - HEADER_LEN,
                "length prefix for {frame:?}"
            );
            let decoded = decode_frame(&bytes).unwrap_or_else(|e| {
                panic!("decoding {frame:?} failed: {e}");
            });
            assert_eq!(decoded, frame, "value round-trip");
            assert_eq!(encode_frame(&decoded), bytes, "byte round-trip");
        }
    }

    /// FNV-1a 64 over a frame sequence's encoded bytes.
    fn wire_digest(frames: &[Frame]) -> u64 {
        frames
            .iter()
            .flat_map(encode_frame)
            .fold(0xcbf2_9ce4_8422_2325, |digest, byte| {
                (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// The SPHD v3 bytes of one frame of every type, of a 64-entry
    /// `LoadLibrary` and of a 64-query search reply, pinned by digest:
    /// an encoder rewrite must leave every one of them unchanged.
    #[test]
    fn encoded_bytes_match_the_recorded_digests() {
        let frames = all_frames();
        let mut types: Vec<u8> = frames.iter().map(|f| f.frame_type() as u8).collect();
        types.sort_unstable();
        types.dedup();
        assert_eq!(types.len(), 20, "one frame of every type");
        let digests: Vec<u64> = frames
            .iter()
            .map(|f| wire_digest(std::slice::from_ref(f)))
            .collect();
        assert_eq!(digests, FRAME_DIGESTS);

        let row = |i: u64| -> Vec<u64> {
            let mut words: Vec<u64> = (0..32)
                .map(|w| (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(w))
                .collect();
            words[31] &= u64::MAX >> 24; // dim 2008: 40 bits in the last word
            words
        };
        let load = Frame::LoadLibrary {
            job_id: 3,
            dim: 2008,
            entries: (0..64)
                .map(|i| LibraryEntryWire {
                    mass: 400.0 + i as f64 * 7.25,
                    charge: (i % 4) as u8,
                    is_decoy: i % 2 == 1,
                    id: format!("LIB_{i:04}"),
                    words: row(i),
                })
                .collect(),
        };
        let mut reply: Vec<Frame> = (0..64)
            .map(|q| Frame::SearchHit {
                job_id: 3,
                query_index: 128 + q,
                hits: (0..q % 4)
                    .map(|h| HitWire {
                        library_index: (q * 5 + h) % 64,
                        distance: (900 + q * 3 + h) as u16,
                        mass_delta: q as f64 * 0.125 - h as f64,
                        is_decoy: (q + h) % 2 == 1,
                        id: format!("LIB_{:04}", (q * 5 + h) % 64),
                    })
                    .collect(),
            })
            .collect();
        reply.push(Frame::SearchStats(SearchStatsFrame {
            job_id: 3,
            participants: 1,
            entries: 64,
            targets: 32,
            decoys: 32,
            sealed: 1,
            queries: 192,
            hits: 96,
        }));
        assert_eq!(
            [wire_digest(&[load]), wire_digest(&reply)],
            [LOAD_LIBRARY_DIGEST, SEARCH_REPLY_DIGEST]
        );
    }

    /// Recorded from the encoder that built each payload in a `Vec` of
    /// its own and copied it behind the header.
    const FRAME_DIGESTS: [u64; 27] = [
        0x5fdd_3902_507d_ab50,
        0x4f63_fb3c_d5ca_482a,
        0xf3bd_f099_b48a_6090,
        0x1857_9481_1b9e_55dd,
        0xa057_dbf4_7b4f_bced,
        0xce42_efe5_7858_f512,
        0x4b78_c976_4a1d_567d,
        0xc595_47ab_dade_050b,
        0x9032_4d0a_0bdb_8a5c,
        0xddcc_fc32_ca1d_c6e8,
        0x3989_8dff_b08b_34c2,
        0x2278_d118_ef57_0c66,
        0x1353_2e78_2c49_8f69,
        0x734c_b1c6_d8ec_2d04,
        0xb772_86b9_1ade_6977,
        0xba0f_bfd6_5d58_9d18,
        0x3f62_af4d_282f_f0d0,
        0x6b66_32e1_db1f_2792,
        0x0b14_57e3_025c_50f2,
        0x0cd9_fca5_6b7d_4337,
        0x067e_a38f_6a7e_0a9c,
        0xaf92_3c76_7334_59e8,
        0x71c5_019f_9a59_da1c,
        0x2e3b_6059_ccd8_3da4,
        0x7654_fb9b_f89d_654b,
        0xde95_eac3_d09f_bb5f,
        0x2266_3960_4975_552e,
    ];
    const LOAD_LIBRARY_DIGEST: u64 = 0x8891_769d_87f1_954c;
    const SEARCH_REPLY_DIGEST: u64 = 0x1949_065c_9af5_42f2;

    /// Every proper prefix of every frame must decode to an error, never
    /// a frame and never a panic.
    #[test]
    fn truncated_frames_are_rejected_at_every_length() {
        for frame in all_frames() {
            let bytes = encode_frame(&frame);
            for cut in 1..bytes.len() {
                match decode_frame(&bytes[..cut]) {
                    Err(WireError::Malformed(_) | WireError::Truncated(_)) => {}
                    Err(other) => panic!("cut={cut} of {frame:?}: unexpected {other}"),
                    Ok(f) => panic!("cut={cut} of {frame:?} decoded as {f:?}"),
                }
            }
        }
    }

    /// The text of a cut payload, pinned: where the read stood, what it
    /// wanted and what was left.
    #[test]
    fn a_cut_payload_names_the_short_read() {
        let cases = [
            (FrameType::Flush, 5, "wanted 8 bytes at offset 0, have 5"),
            (
                FrameType::SubmitAck,
                12,
                "wanted 8 bytes at offset 8, have 4",
            ),
            (
                FrameType::SubmitAck,
                27,
                "wanted 4 bytes at offset 24, have 3",
            ),
        ];
        for (frame_type, cut, text) in cases {
            let frame = all_frames()
                .into_iter()
                .find(|f| f.frame_type() == frame_type)
                .unwrap();
            let payload = encode_payload(&frame);
            let err = decode_payload(frame_type, &payload[..cut]).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("malformed frame: truncated payload: {text}")
            );
        }
    }

    #[test]
    fn empty_input_is_clean_close_not_error() {
        assert!(matches!(decode_frame(&[]), Err(WireError::Closed)));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut bytes = encode_frame(&Frame::Flush { job_id: 1 });
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        // Deliberately no payload behind the huge prefix: a reader that
        // allocated or tried to read it would fail differently.
        match read_frame(&mut &bytes[..HEADER_LEN], 1024) {
            Err(WireError::Oversized { len, max }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, 1024);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
        // A frame exactly at the cap is fine.
        let ok = encode_frame(&Frame::Flush { job_id: 1 });
        assert!(read_frame(&mut &ok[..], 8).is_ok());
        assert!(matches!(
            read_frame(&mut &ok[..], 7),
            Err(WireError::Oversized { len: 8, max: 7 })
        ));
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut bytes = encode_frame(&Frame::Flush { job_id: 1 });
        bytes[0..4].copy_from_slice(b"HTTP");
        assert!(matches!(
            decode_frame(&bytes),
            Err(WireError::BadMagic(m)) if &m == b"HTTP"
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        for version in [VERSION - 1, VERSION + 1] {
            let mut bytes = encode_frame(&Frame::Flush { job_id: 1 });
            bytes[4..6].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                decode_frame(&bytes),
                Err(WireError::BadVersion(v)) if v == version
            ));
        }
    }

    #[test]
    fn error_code_ranges_classify_retryability() {
        for code in [
            ErrorCode::Malformed,
            ErrorCode::ProtocolState,
            ErrorCode::JobClosed,
            ErrorCode::ConfigMismatch,
            ErrorCode::IdleTimeout,
            ErrorCode::Oversized,
            ErrorCode::ServerShutdown,
        ] {
            assert!(!code.is_retryable(), "{code:?} is in the fatal range");
        }
        assert!(ErrorCode::Busy.is_retryable());
        assert!(ErrorCode::StoreBusy.is_retryable());
        // Unknown codes — even ones inside the retryable range — are
        // rejected at decode, never misclassified or silently retried.
        for byte in [0u8, 8, 0x3F, 0x42, 0xFF] {
            let mut e = Enc::new();
            e.u8(byte);
            e.str("mystery");
            assert!(
                matches!(
                    decode_payload(FrameType::Error, &e.buf),
                    Err(WireError::Malformed(_))
                ),
                "unknown error code {byte} must be rejected"
            );
        }
    }

    #[test]
    fn unknown_frame_type_and_reserved_byte_are_rejected() {
        let mut bytes = encode_frame(&Frame::Flush { job_id: 1 });
        bytes[6] = 0x77;
        assert!(matches!(decode_frame(&bytes), Err(WireError::Malformed(_))));
        let mut bytes = encode_frame(&Frame::Flush { job_id: 1 });
        bytes[7] = 1;
        assert!(matches!(decode_frame(&bytes), Err(WireError::Malformed(_))));
    }

    #[test]
    fn trailing_bytes_after_payload_are_rejected() {
        let payload_ok = encode_payload(&Frame::Flush { job_id: 1 });
        let mut padded = payload_ok.clone();
        padded.push(0);
        assert!(decode_payload(FrameType::Flush, &payload_ok).is_ok());
        assert!(matches!(
            decode_payload(FrameType::Flush, &padded),
            Err(WireError::Malformed(_))
        ));
    }

    /// A length prefix inside the payload (spectrum count, peak count,
    /// string length) that promises more than the payload holds must be
    /// rejected without a huge allocation.
    #[test]
    fn absurd_interior_counts_are_rejected() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&7u64.to_le_bytes()); // job id
        payload.extend_from_slice(&0u64.to_le_bytes()); // seq
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // spectrum count
        assert!(matches!(
            decode_payload(FrameType::Submit, &payload),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn invalid_spectrum_payloads_are_rejected_not_panicked() {
        // A spectrum whose precursor m/z is NaN fails Precursor::new.
        let mut e = Enc::new();
        e.u64(7); // job id
        e.u64(0); // seq
        e.u32(1); // one spectrum
        e.str("bad");
        e.f64(f64::NAN);
        e.u8(2);
        e.u8(0); // no retention time
        e.u32(0); // no peaks
        assert!(matches!(
            decode_payload(FrameType::Submit, &e.buf),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn job_config_defaults_match_the_pipeline_defaults() {
        let config = JobConfig::default();
        assert_eq!(config.pipeline_config(), SpecHdConfig::default());
        let stream = config.stream_config();
        assert_eq!(config.watermark, DEFAULT_WATERMARK);
        assert_eq!(stream.workers, StreamConfig::default().workers);
        assert!(!stream.keep_hypervectors);
    }

    #[test]
    fn invalid_job_configs_are_rejected() {
        let mut bad_dim = encode_payload(&Frame::OpenJob {
            job_id: 1,
            client_id: 7,
            config: JobConfig::default(),
        });
        bad_dim[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode_payload(FrameType::OpenJob, &bad_dim),
            Err(WireError::Malformed(_))
        ));

        let mut bad_linkage = encode_payload(&Frame::OpenJob {
            job_id: 1,
            client_id: 7,
            config: JobConfig::default(),
        });
        // linkage byte sits after job id (8) + dim (4) + two f64s (16).
        bad_linkage[28] = 9;
        assert!(matches!(
            decode_payload(FrameType::OpenJob, &bad_linkage),
            Err(WireError::Malformed(_))
        ));
    }

    /// The streaming knobs turn into server threads and buffers, so the
    /// decode path must refuse hostile values before anything is
    /// allocated or spawned — and accept the documented boundaries.
    #[test]
    fn hostile_stream_knobs_are_rejected_at_decode() {
        let open = |config: JobConfig| {
            encode_payload(&Frame::OpenJob {
                job_id: 1,
                client_id: 7,
                config,
            })
        };
        let rejected = [
            JobConfig {
                workers: u32::MAX, // ~4B requested pipeline threads
                ..JobConfig::default()
            },
            JobConfig {
                workers: MAX_WORKERS + 1,
                ..JobConfig::default()
            },
            JobConfig {
                watermark: 0, // unbounded shard buffers
                ..JobConfig::default()
            },
            JobConfig {
                watermark: MAX_WATERMARK + 1,
                ..JobConfig::default()
            },
        ];
        for config in rejected {
            assert!(
                matches!(
                    decode_payload(FrameType::OpenJob, &open(config.clone())),
                    Err(WireError::Malformed(_))
                ),
                "config must be rejected: {config:?}"
            );
        }
        let accepted = [
            JobConfig {
                workers: 0, // auto: all cores on the server
                watermark: 1,
                ..JobConfig::default()
            },
            JobConfig {
                workers: MAX_WORKERS,
                watermark: MAX_WATERMARK,
                ..JobConfig::default()
            },
        ];
        for config in accepted {
            assert!(
                decode_payload(FrameType::OpenJob, &open(config.clone())).is_ok(),
                "boundary config must decode: {config:?}"
            );
        }
    }

    fn query_frame(window_da: f64, top_k: u32) -> Frame {
        Frame::SearchQuery {
            job_id: 1,
            dim: 64,
            window_da,
            top_k,
            queries: vec![QueryWire {
                mass: 900.0,
                words: vec![42],
            }],
        }
    }

    /// Search batch sizes turn into server allocations and windowed
    /// library scans, so — mirroring the stream-knob caps — hostile
    /// counts must be rejected at decode, before any allocation.
    #[test]
    fn hostile_search_batches_are_rejected_at_decode() {
        // A raw count prefix above the cap is rejected by the cap alone,
        // even when it also exceeds the remaining payload.
        let mut lib = Enc::new();
        lib.u64(1); // job id
        lib.u32(64); // dim
        lib.u32(MAX_LIBRARY_BATCH + 1);
        match decode_payload(FrameType::LoadLibrary, &lib.buf) {
            Err(WireError::Malformed(msg)) => {
                assert!(msg.contains("exceeds cap"), "cap checked first: {msg}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }

        let mut q = Enc::new();
        q.u64(1);
        q.u32(64);
        q.f64(1.0);
        q.u32(5); // top_k
        q.u32(u32::MAX); // query count
        match decode_payload(FrameType::SearchQuery, &q.buf) {
            Err(WireError::Malformed(msg)) => {
                assert!(msg.contains("exceeds cap"), "cap checked first: {msg}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn hostile_search_knobs_are_rejected_at_decode() {
        let rejected = [
            query_frame(f64::NAN, 5),
            query_frame(f64::INFINITY, 5),
            query_frame(-1.0, 5),
            query_frame(MAX_SEARCH_WINDOW_DA + 1.0, 5),
            query_frame(1.0, 0),
            query_frame(1.0, MAX_TOP_K + 1),
            query_frame(1.0, u32::MAX),
        ];
        for frame in rejected {
            let payload = encode_payload(&frame);
            assert!(
                matches!(
                    decode_payload(FrameType::SearchQuery, &payload),
                    Err(WireError::Malformed(_))
                ),
                "must be rejected: {frame:?}"
            );
        }
        let accepted = [
            query_frame(0.0, 1),
            query_frame(MAX_SEARCH_WINDOW_DA, MAX_TOP_K),
        ];
        for frame in accepted {
            let payload = encode_payload(&frame);
            assert_eq!(
                decode_payload(FrameType::SearchQuery, &payload).unwrap(),
                frame,
                "boundary knobs must decode"
            );
        }
    }

    #[test]
    fn search_dims_are_validated_at_decode() {
        for dim in [0u32, 65_536, u32::MAX] {
            let mut lib = Enc::new();
            lib.u64(1);
            lib.u32(dim);
            lib.u32(0);
            assert!(
                matches!(
                    decode_payload(FrameType::LoadLibrary, &lib.buf),
                    Err(WireError::Malformed(_))
                ),
                "LoadLibrary dim {dim} must be rejected"
            );
            let mut q = Enc::new();
            q.u64(1);
            q.u32(dim);
            q.f64(1.0);
            q.u32(1);
            q.u32(0);
            assert!(
                matches!(
                    decode_payload(FrameType::SearchQuery, &q.buf),
                    Err(WireError::Malformed(_))
                ),
                "SearchQuery dim {dim} must be rejected"
            );
        }
    }

    /// The decoder enforces the packed store's row invariants — exact
    /// stride, zero tail bits, finite mass, boolean decoy flag — so
    /// wire-loaded rows can enter `HvPack` without re-validation.
    #[test]
    fn hostile_library_entries_are_rejected_at_decode() {
        let entry = |mass: f64, decoy: u8, words: &[u64]| {
            let mut e = Enc::new();
            e.u64(1); // job id
            e.u32(65); // dim → stride 2, tail bits above bit 0 must be 0
            e.u32(1); // one entry
            e.f64(mass);
            e.u8(2); // charge
            e.u8(decoy);
            e.str("x");
            for &w in words {
                e.u64(w);
            }
            e.buf
        };
        let good = entry(900.0, 0, &[7, 1]);
        assert!(decode_payload(FrameType::LoadLibrary, &good).is_ok());
        for (name, payload) in [
            ("NaN mass", entry(f64::NAN, 0, &[7, 1])),
            ("infinite mass", entry(f64::INFINITY, 0, &[7, 1])),
            ("decoy flag 2", entry(900.0, 2, &[7, 1])),
            ("non-zero tail bits", entry(900.0, 0, &[7, 2])),
            ("missing tail word", entry(900.0, 0, &[7])),
        ] {
            assert!(
                matches!(
                    decode_payload(FrameType::LoadLibrary, &payload),
                    Err(WireError::Malformed(_))
                ),
                "{name} must be rejected"
            );
        }
        // Same tail-bit contract on the query side.
        let mut q = Enc::new();
        q.u64(1);
        q.u32(65);
        q.f64(1.0);
        q.u32(1);
        q.u32(1);
        q.f64(900.0);
        q.u64(0);
        q.u64(0b10); // bit 1 of the tail word is beyond dim 65
        assert!(matches!(
            decode_payload(FrameType::SearchQuery, &q.buf),
            Err(WireError::Malformed(_))
        ));
    }

    /// Store names become server-side file names, so the decode path —
    /// on every store frame, both directions — must refuse anything
    /// outside `[A-Za-z0-9_-]` within the length cap.
    #[test]
    fn hostile_store_names_are_rejected_at_decode() {
        let store_frames = |name: &str| {
            vec![
                Frame::OpenStore {
                    name: name.into(),
                    client_id: 7,
                    config: JobConfig::default(),
                },
                Frame::SubmitIncremental {
                    name: name.into(),
                    seq: 0,
                    spectra: Vec::new(),
                },
                Frame::PersistStore { name: name.into() },
                Frame::StoreStats { name: name.into() },
                Frame::RefreshStore { name: name.into() },
                Frame::IncrementalAck(IncrementalAckFrame {
                    name: name.into(),
                    seq: 0,
                    base_id: 0,
                    kept: Vec::new(),
                    labels: Vec::new(),
                    absorbed: 0,
                    residual: 0,
                    new_clusters: 0,
                    total_spectra: 0,
                    total_clusters: 0,
                }),
                Frame::StoreAck(StoreAckFrame {
                    name: name.into(),
                    dim: 64,
                    fingerprint: 0,
                    spectra: 0,
                    buckets: 0,
                    clusters: 0,
                    keeps_member_rows: 0,
                    dirty: 0,
                    persisted: 0,
                    refreshed: 0,
                    merged: 0,
                }),
            ]
        };
        for name in [
            "",
            "../escape",
            "a/b",
            "a\\b",
            "dot.shpk",
            "space name",
            "nul\0",
            "ünïcode",
            &"x".repeat(MAX_STORE_NAME_LEN as usize + 1),
        ] {
            for frame in store_frames(name) {
                let frame_type = frame.frame_type();
                assert!(
                    matches!(
                        decode_payload(frame_type, &encode_payload(&frame)),
                        Err(WireError::Malformed(_))
                    ),
                    "store name {name:?} must be rejected in {frame_type:?}"
                );
            }
        }
        // The full legal alphabet at exactly the cap decodes.
        let max_name = format!("AZaz09_-{}", "x".repeat(MAX_STORE_NAME_LEN as usize - 8));
        for frame in store_frames(&max_name) {
            let frame_type = frame.frame_type();
            assert_eq!(
                decode_payload(frame_type, &encode_payload(&frame)).unwrap(),
                frame,
                "boundary store name must decode in {frame_type:?}"
            );
        }
    }

    /// A hostile count prefix in `SubmitIncremental` (installments) or
    /// `IncrementalAck` (labels) is rejected by the cap alone, before
    /// any allocation.
    #[test]
    fn hostile_incremental_batches_are_rejected_at_decode() {
        let mut s = Enc::new();
        s.str("store");
        s.u64(0); // seq
        s.u32(MAX_INCREMENTAL_BATCH + 1);
        match decode_payload(FrameType::SubmitIncremental, &s.buf) {
            Err(WireError::Malformed(msg)) => {
                assert!(msg.contains("exceeds cap"), "cap checked first: {msg}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }

        let mut a = Enc::new();
        a.str("store");
        a.u64(0); // seq
        a.u64(0); // base_id
        a.u32(u32::MAX); // label count
        match decode_payload(FrameType::IncrementalAck, &a.buf) {
            Err(WireError::Malformed(msg)) => {
                assert!(msg.contains("exceeds cap"), "cap checked first: {msg}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    /// Applies one seeded edit to `bytes`: a bit flip, a random byte, an
    /// insert, a delete or a cut.
    fn mutate(bytes: &mut Vec<u8>, rng: &mut impl spechd_rng::Rng) {
        let len = bytes.len();
        match rng.range_usize(0, 5) {
            0 if len > 0 => bytes[rng.range_usize(0, len)] ^= 1 << rng.range_usize(0, 8),
            1 if len > 0 => bytes[rng.range_usize(0, len)] = rng.next_u32() as u8,
            2 => bytes.insert(rng.range_usize(0, len + 1), rng.next_u32() as u8),
            3 if len > 0 => {
                bytes.remove(rng.range_usize(0, len));
            }
            _ => bytes.truncate(rng.range_usize(0, len + 1)),
        }
    }

    /// 2 000 seeded mutants of every frame's payload: decoding never
    /// panics and only ever rejects as `Malformed`, and every accepted
    /// mutant re-encodes to bytes that decode again to the same bytes
    /// (compared as bytes, since NaN fields defeat value equality).
    #[test]
    fn seeded_payload_mutations_are_rejected_or_reencode_stably() {
        use spechd_rng::{Rng, Xoshiro256StarStar};
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x5048_4433);
        let (mut accepted, mut rejected) = (0u32, 0u32);
        for frame in all_frames() {
            let frame_type = frame.frame_type();
            let payload = encode_payload(&frame);
            for _ in 0..2000 {
                let mut mutant = payload.clone();
                for _ in 0..rng.range_usize(1, 4) {
                    mutate(&mut mutant, &mut rng);
                }
                match decode_payload(frame_type, &mutant) {
                    Ok(decoded) => {
                        accepted += 1;
                        let bytes = encode_payload(&decoded);
                        let again = decode_payload(frame_type, &bytes).unwrap_or_else(|e| {
                            panic!("{frame_type:?}: re-encoded mutant rejected: {e}")
                        });
                        assert_eq!(encode_payload(&again), bytes, "{frame_type:?}");
                    }
                    Err(WireError::Malformed(_)) => rejected += 1,
                    Err(other) => panic!("{frame_type:?}: unexpected {other}"),
                }
            }
        }
        println!("payload mutations: {accepted} accepted / {rejected} rejected");
        assert!(accepted > 0 && rejected > 0);
    }
}
