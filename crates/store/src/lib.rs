//! Persistent, versioned cluster store for incremental SpecHD clustering.
//!
//! A repository-scale workload (PRIDE/MassIVE-style) grows by *runs
//! arriving over time*; reclustering the whole archive for every new run
//! throws away all prior work. This crate keeps the part of a clustering
//! that cannot be recomputed cheaply — the per-bucket **medoid
//! hypervector** of every cluster, plus the per-spectrum membership
//! bookkeeping — as a first-class on-disk artifact, so a later session can
//! score new spectra against the stored medoids of their precursor bucket
//! and recluster only what no stored cluster accepts
//! (`SpecHd::run_incremental` in `spechd-core` is that consumer).
//!
//! * [`ClusterStore`] — the in-memory model: per-bucket medoid rows in an
//!   [`HvPack`] plus [`StoredCluster`]/[`StoredMember`] bookkeeping, and
//!   the deterministic [`ClusterStore::union_assignment`] merge through
//!   [`spechd_cluster::ShardLabelMerger`] that keeps labels stable across
//!   sessions.
//! * [`ClusterStore::install`] — the one way a store grows; a rejected
//!   installment leaves the store untouched.
//! * [`format`](self) — the versioned `SHPK` byte format (diagram below),
//!   written by [`ClusterStore::save`] / [`ClusterStore::to_bytes`] and
//!   read back by [`ClusterStore::load`] / [`ClusterStore::from_bytes`].
//! * [`StoreError`] — every way a hostile or stale file can be rejected,
//!   as typed variants: truncation, bad magic, version skew, dim/stride
//!   mismatch, checksum mismatch, internal inconsistency. Loading never
//!   panics and never yields partial state.
//! * [`io`] — the crash-safety layer: [`ClusterStore::save`] routes all
//!   file I/O through the pluggable [`StoreIo`] trait and commits via
//!   temp-file write + fsync + atomic rename + directory fsync, keeping
//!   the previous generation as `.bak`; [`ClusterStore::load_or_recover`]
//!   falls back to the newest generation that passes the SHPK checksum
//!   and reports what it recovered. [`FaultIo`] injects ENOSPC, short
//!   writes, and crash-after-byte-*k* so the durability matrix in
//!   `tests/tests/store_durability.rs` can prove "any interrupted save
//!   leaves a loadable store" without crashing a real process.
//!
//! ## On-disk format (`SHPK`, version 2, little-endian)
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header (36 B): magic "SHPK" · version u16 · flags u16        │
//! │                dim u32 · stride u32 · fingerprint u64        │
//! │                next_id u64 · bucket_count u32                │
//! ├──────────────────────────────────────────────────────────────┤
//! │ section table: bucket_count × 24 B                           │
//! │   key i64 · cluster_count u32 · member_count u32 · offset u64│
//! ├──────────────────────────────────────────────────────────────┤
//! │ body, one section per bucket (at its table offset):          │
//! │   cluster metas: cluster_count × (medoid_id u64 ·            │
//! │                  member_count u32 · reserved u32)            │
//! │   medoid rows:   cluster_count × stride × 8 B  (HvPack rows) │
//! │   members:       member_count × (id u64 · cluster u32)       │
//! │   member rows:   member_count × stride × 8 B — only when     │
//! │                  header flag bit 0 (member-rows) is set      │
//! ├──────────────────────────────────────────────────────────────┤
//! │ footer (8 B): 4-lane u64 word checksum of all preceding bytes│
//! │               (version 1: FNV-1a 64; read-only)              │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! The `stride` field is redundant with `dim` by construction
//! (`stride = dim.div_ceil(64)`); storing both lets the reader reject a
//! corrupted header with a specific [`StoreError::StrideMismatch`] instead
//! of misreading every row after it. The `fingerprint` pins the exact
//! pipeline configuration (encoder seed and dimensions, preprocessing,
//! bucketing resolution, linkage, threshold) that produced the store:
//! hypervectors are only comparable across sessions when every one of
//! those knobs matches.
//!
//! Flag bit 0 marks a **row-keeping** store
//! ([`ClusterStore::new_keeping_rows`]): every bucket section carries one
//! hypervector row per member record, parallel to the membership list.
//! Keeping the rows costs `O(spectra)` extra storage and buys
//! [`ClusterStore::refresh`] — a medoid refresh / compaction pass that
//! re-medoids drifted clusters and merges clusters whose refreshed
//! medoids collide, without access to the original spectra. Row-less
//! stores (flags = 0) serialize bit-identically to files written before
//! the flag existed; all other flag bits remain reserved-must-be-zero.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod format;
pub mod io;
mod store;

pub use error::StoreError;
pub use io::{
    DiskIo, FaultIo, FaultKind, FaultPlan, MemIo, RecoveryReport, RecoverySource, StoreIo,
};
pub use store::{
    ClusterStore, IncrementalStats, RefreshReport, StoredBucket, StoredCluster, StoredMember,
};

pub use spechd_hdc::HvPack;
