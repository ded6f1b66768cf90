//! The in-memory cluster store model.

use crate::format;
use crate::io::{DiskIo, RecoveryReport, RecoverySource, StoreIo};
use crate::StoreError;
use spechd_cluster::{
    cluster_shard, ClusterAssignment, HacStats, Linkage, ShardClustering, ShardLabelMerger,
};
use spechd_hdc::distance::PackedDistanceEngine;
use spechd_hdc::HvPack;
use std::collections::BTreeMap;
use std::path::Path;

/// One persisted cluster: the global spectrum id of its medoid (whose
/// hypervector row lives in the owning bucket's medoid pack) and its
/// member count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredCluster {
    /// Global spectrum id of the medoid spectrum.
    pub medoid_id: u64,
    /// Number of member spectra (including the medoid).
    pub members: u32,
}

/// One persisted spectrum membership: which local cluster of its bucket a
/// spectrum belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredMember {
    /// Global spectrum id.
    pub id: u64,
    /// Local cluster index within the bucket.
    pub cluster: u32,
}

/// One precursor bucket's persisted state: the medoid hypervector rows
/// (row `c` belongs to cluster `c`), cluster bookkeeping, and the
/// per-spectrum memberships. Row-keeping stores additionally hold one
/// hypervector row per member, parallel to the membership list.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredBucket {
    pub(crate) medoids: HvPack,
    pub(crate) clusters: Vec<StoredCluster>,
    pub(crate) members: Vec<StoredMember>,
    pub(crate) member_rows: Option<HvPack>,
}

impl StoredBucket {
    fn empty(dim: usize, keep_rows: bool) -> Self {
        Self {
            medoids: HvPack::new(dim),
            clusters: Vec::new(),
            members: Vec::new(),
            member_rows: keep_rows.then(|| HvPack::new(dim)),
        }
    }

    /// The medoid hypervector rows, one per cluster.
    pub fn medoids(&self) -> &HvPack {
        &self.medoids
    }

    /// Cluster bookkeeping, parallel to the medoid rows.
    pub fn clusters(&self) -> &[StoredCluster] {
        &self.clusters
    }

    /// Per-spectrum memberships, in absorption order.
    pub fn members(&self) -> &[StoredMember] {
        &self.members
    }

    /// Member hypervector rows (row `i` belongs to `members()[i]`), only
    /// present in row-keeping stores
    /// ([`ClusterStore::keeps_member_rows`]).
    pub(crate) fn member_rows(&self) -> Option<&HvPack> {
        self.member_rows.as_ref()
    }
}

/// What a [`ClusterStore::refresh`] pass changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefreshReport {
    /// Clusters whose recomputed medoid differs from the stored one.
    pub refreshed: u64,
    /// Clusters garbage-collected because the refreshed medoids fell
    /// within the merge threshold of a sibling in the same bucket.
    pub merged: u64,
}

/// Work counters of one [`ClusterStore::install`] installment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncrementalStats {
    /// Spectra in the installment before preprocessing (0 from `install`).
    pub spectra_in: usize,
    /// Spectra surviving preprocessing (= global ids assigned).
    pub spectra_kept: usize,
    /// Buckets of this installment the store had never seen.
    pub fresh_buckets: usize,
    /// Buckets of this installment with prior clusters.
    pub dirty_buckets: usize,
    /// New spectra absorbed into an existing cluster.
    pub absorbed: usize,
    /// New spectra that no existing cluster accepted and that were
    /// reclustered among themselves.
    pub residual: usize,
    /// Clusters appended this installment (fresh buckets + residuals).
    pub new_clusters: usize,
}

/// One bucket's share of a [`ClusterStore::install`], computed before any is committed.
struct BucketChange<'a> {
    key: i64,
    members: &'a [usize],
    rows: &'a HvPack,
    /// `(stored cluster, row)` for every row a stored medoid accepts.
    joins: Vec<(usize, usize)>,
    /// The rows no stored cluster accepts, ascending.
    residual: Vec<usize>,
    /// The residual rows' clustering; its medoids index into `residual`.
    clustering: ShardClustering,
}

/// A persistent store of per-bucket medoid hypervectors and cluster
/// memberships — the state `SpecHd::run_incremental` (in `spechd-core`)
/// reads, extends, and re-persists between sessions.
///
/// Spectra are identified by dense **global ids** assigned in arrival
/// order across sessions ([`ClusterStore::install`]); every id in
/// `[0, next_spectrum_id)` belongs to exactly one bucket. That density is
/// what makes [`ClusterStore::union_assignment`] a pure
/// [`ShardLabelMerger`] replay: buckets added in ascending key order, raw
/// labels renumbered densely by first appearance in id order — so a
/// spectrum's label can only change if its cluster membership changes,
/// never because new spectra arrived elsewhere.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterStore {
    /// At most `u32::MAX`, the widest the `SHPK` header holds.
    dim: u32,
    fingerprint: u64,
    next_id: u64,
    keep_rows: bool,
    buckets: BTreeMap<i64, StoredBucket>,
}

impl ClusterStore {
    /// Creates an empty store for hypervectors of dimensionality `dim`,
    /// pinned to a pipeline-configuration `fingerprint` (see
    /// [`ClusterStore::ensure_compatible`]).
    ///
    /// A zero `dim` is [`StoreError::Pack`]. A `dim` the `SHPK` header's
    /// `u32` field cannot hold is [`StoreError::DimMismatch`], with
    /// `u32::MAX` as the dimensionality expected at most.
    pub fn new(dim: usize, fingerprint: u64) -> Result<Self, StoreError> {
        if dim == 0 {
            return Err(StoreError::Pack(spechd_hdc::PackError::ZeroDim));
        }
        let dim = u32::try_from(dim).map_err(|_| StoreError::DimMismatch {
            store: dim,
            expected: u32::MAX as usize,
        })?;
        Ok(Self {
            dim,
            fingerprint,
            next_id: 0,
            keep_rows: false,
            buckets: BTreeMap::new(),
        })
    }

    /// Like [`ClusterStore::new`], but the store keeps every member's
    /// hypervector row alongside its membership record. Row-keeping
    /// stores cost `O(spectra)` extra rows on disk and in memory, and in
    /// exchange support [`ClusterStore::refresh`] without access to the
    /// original spectra; [`ClusterStore::install`] records each new
    /// member's row.
    pub fn new_keeping_rows(dim: usize, fingerprint: u64) -> Result<Self, StoreError> {
        let mut store = Self::new(dim, fingerprint)?;
        store.keep_rows = true;
        Ok(store)
    }

    /// Whether this store keeps member hypervector rows (created via
    /// [`ClusterStore::new_keeping_rows`], or loaded from a file whose
    /// header carries the member-rows flag).
    pub fn keeps_member_rows(&self) -> bool {
        self.keep_rows
    }

    /// Hypervector dimensionality shared by every stored medoid row.
    pub fn dim(&self) -> usize {
        self.dim as usize
    }

    /// [`ClusterStore::dim`] as the `SHPK` header's field.
    pub(crate) fn header_dim(&self) -> u32 {
        self.dim
    }

    /// The pipeline-configuration fingerprint the store was built under.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The id the next installed spectrum will receive — also the total
    /// number of spectra the store covers.
    pub fn next_spectrum_id(&self) -> u64 {
        self.next_id
    }

    /// Number of non-empty buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Total clusters across all buckets.
    pub fn num_clusters(&self) -> usize {
        self.buckets.values().map(|b| b.clusters.len()).sum()
    }

    /// Whether the store covers no spectra.
    pub fn is_empty(&self) -> bool {
        self.next_id == 0
    }

    /// Ascending bucket keys.
    pub fn keys(&self) -> impl Iterator<Item = i64> + '_ {
        self.buckets.keys().copied()
    }

    /// The persisted state of one bucket.
    pub fn bucket(&self, key: i64) -> Option<&StoredBucket> {
        self.buckets.get(&key)
    }

    /// Number of clusters in bucket `key` (0 when the bucket is absent).
    pub fn cluster_count(&self, key: i64) -> usize {
        self.buckets.get(&key).map_or(0, |b| b.clusters.len())
    }

    /// Checks that the store can serve an engine with dimensionality
    /// `dim` and configuration fingerprint `fingerprint`.
    ///
    /// Returns [`StoreError::DimMismatch`] / [`StoreError::ConfigMismatch`]
    /// otherwise — hypervectors encoded under different settings are not
    /// comparable, so mixing them would silently corrupt every cluster.
    pub fn ensure_compatible(&self, dim: usize, fingerprint: u64) -> Result<(), StoreError> {
        if self.dim() != dim {
            return Err(StoreError::DimMismatch {
                store: self.dim(),
                expected: dim,
            });
        }
        if self.fingerprint != fingerprint {
            return Err(StoreError::ConfigMismatch {
                store: self.fingerprint,
                expected: fingerprint,
            });
        }
        Ok(())
    }

    /// Clusters one installment of `count` new spectra into the store,
    /// returning the first global id it assigned and its work counters.
    /// Each shard is `(key, members, rows)` in ascending key order: row
    /// `i` encodes installment spectrum `members[i]`, global id
    /// `base + members[i]`, and the shards number `0..count` exactly once.
    ///
    /// A bucket the store has never seen (**fresh**) is clustered by
    /// [`cluster_shard`], the batch kernel. In a bucket with stored
    /// clusters (**dirty**) a row joins its nearest stored medoid's
    /// cluster (lowest index on a tie) when within `threshold`, so no
    /// medoid moves and no old spectrum is relabeled; the other rows are
    /// clustered among themselves into new clusters.
    ///
    /// Every change is computed against the unchanged store, then all are
    /// committed in steps that cannot fail, so an `Err` leaves the store
    /// untouched: [`StoreError::IdSpaceExhausted`],
    /// [`StoreError::DimMismatch`], [`StoreError::InvalidSpectrumId`], or
    /// [`StoreError::Corrupt`] for shards out of key order, rows that do
    /// not parallel their members, or a bucket outgrowing `u32` counts.
    pub fn install<'a>(
        &mut self,
        count: usize,
        shards: impl IntoIterator<Item = (i64, &'a [usize], &'a HvPack)>,
        linkage: Linkage,
        threshold: f64,
    ) -> Result<(u64, IncrementalStats), StoreError> {
        let base = self.next_id;
        let next = base.checked_add(count as u64);
        let next = next.ok_or(StoreError::IdSpaceExhausted)?;
        let shards: Vec<_> = shards.into_iter().collect();
        for (i, &(key, members, rows)) in shards.iter().enumerate() {
            if rows.dim() != self.dim() {
                let (store, expected) = (self.dim(), rows.dim());
                return Err(StoreError::DimMismatch { store, expected });
            }
            if rows.len() != members.len() || (i > 0 && shards[i - 1].0 >= key) {
                return Err(StoreError::Corrupt(format!(
                    "installment shard {key} is out of key order or its rows miss its members"
                )));
            }
        }
        let listed = shards.iter().map(|s| s.1.len()).sum();
        let ids = shards.iter().flat_map(|s| s.1.iter().map(|&m| m as u64));
        dense(count as u64, listed, ids).map_err(|id| StoreError::InvalidSpectrumId {
            id: base.saturating_add(id),
            next,
        })?;

        let mut stats = IncrementalStats::default();
        // Single-threaded scoring: medoid sets per bucket are small.
        let engine = PackedDistanceEngine::new().threads(1);
        let mut changes = Vec::with_capacity(shards.len());
        for (key, members, rows) in shards.into_iter().filter(|s| !s.1.is_empty()) {
            let stored = self.buckets.get(&key);
            let (mut joins, mut residual) = (Vec::new(), Vec::new());
            if let Some(bucket) = stored {
                let (queries, medoids) = (rows.to_hypervectors(), &bucket.medoids);
                let lanes = queries.iter().map(|q| (q, 0..medoids.len(), (0, u32::MAX)));
                // A strict `<` over ascending rows keeps the first minimum:
                // the lowest cluster index wins a tie.
                let nearest = engine.one_to_many_block(medoids, lanes, |best, first, ds| {
                    for (k, &d) in ds.iter().enumerate() {
                        if u32::from(d) < best.1 {
                            *best = (first + k, u32::from(d));
                        }
                    }
                });
                for (row, (cluster, d)) in nearest.into_iter().enumerate() {
                    if f64::from(d) <= threshold {
                        joins.push((cluster, row));
                    } else {
                        residual.push(row);
                    }
                }
                stats.dirty_buckets += 1;
                stats.absorbed += joins.len();
                stats.residual += residual.len();
            } else {
                stats.fresh_buckets += 1;
                residual = (0..rows.len()).collect();
            }
            let local: Vec<usize> = (0..residual.len()).collect();
            let clustering = cluster_shard(&local, &rows.gather(&residual), linkage, threshold);
            stats.new_clusters += clustering.medoids.len();
            // Each new cluster has a new member, so this bounds both counts.
            let held = stored.map_or(0, |b| b.clusters.len().max(b.members.len()));
            if u32::try_from(held + members.len()).is_err() {
                let detail = format!("bucket {key} outgrows u32 counts");
                return Err(StoreError::Corrupt(detail));
            }
            changes.push(BucketChange {
                key,
                members,
                rows,
                joins,
                residual,
                clustering,
            });
        }

        // Commit: nothing below can fail.
        self.next_id = next;
        stats.spectra_kept = count;
        let (dim, keep_rows) = (self.dim(), self.keep_rows);
        for change in changes {
            let empty = || StoredBucket::empty(dim, keep_rows);
            let bucket = self.buckets.entry(change.key).or_insert_with(empty);
            let gid = |row: usize| base + change.members[row] as u64;
            let first_new = bucket.clusters.len();
            for &medoid in &change.clustering.medoids {
                let row = change.residual[medoid];
                bucket.medoids.push_row_words(change.rows.row(row));
                bucket.clusters.push(StoredCluster {
                    medoid_id: gid(row),
                    members: 0,
                });
            }
            // Joins first, then the residual members by label order.
            let labels = change.clustering.labels.iter().zip(&change.residual);
            let founded = labels.map(|(&label, &row)| (first_new + label, row));
            for (cluster, row) in change.joins.iter().copied().chain(founded) {
                bucket.clusters[cluster].members += 1;
                let (id, cluster) = (gid(row), cluster as u32);
                bucket.members.push(StoredMember { id, cluster });
                if let Some(member_rows) = &mut bucket.member_rows {
                    member_rows.push_row_words(change.rows.row(row));
                }
            }
        }
        Ok((base, stats))
    }

    /// The maintenance pass: re-medoids every cluster over its kept
    /// member rows and garbage-collects clusters that merge under the
    /// refreshed medoids. **Explicitly outside the stable-label
    /// contract** — unlike incremental absorption, a refresh may change
    /// existing spectra's labels (that is its purpose: absorbed members
    /// drift the true center away from the founding medoid).
    ///
    /// Per bucket, in ascending key order:
    ///
    /// 1. **Re-medoid**: each cluster's medoid becomes the member with
    ///    the minimum total Hamming distance to the rest of the cluster
    ///    (ties broken by the lowest spectrum id).
    /// 2. **Merge**: clusters whose refreshed medoids are within
    ///    `threshold_bits` of each other (connected components of the
    ///    pairwise threshold graph) are merged; the combined cluster is
    ///    re-medoided over its full membership.
    /// 3. **Compact**: the bucket is rebuilt canonically — surviving
    ///    clusters keep their relative order (by smallest original
    ///    index), members keep absorption order, and orphaned medoid
    ///    rows are dropped from the pack.
    ///
    /// Requires a row-keeping store ([`StoreError::MemberRowMode`]
    /// otherwise). Deterministic: the same store and threshold always
    /// produce the same refreshed store, and re-running on the result
    /// re-medoids to a fixed point.
    pub fn refresh(&mut self, threshold_bits: u32) -> Result<RefreshReport, StoreError> {
        if !self.keep_rows {
            return Err(StoreError::MemberRowMode);
        }
        // Validate everything before mutating anything: refresh either
        // completes in full or leaves the store untouched.
        for (key, bucket) in &self.buckets {
            for (c, meta) in bucket.clusters.iter().enumerate() {
                if meta.members == 0 {
                    return Err(StoreError::Corrupt(format!(
                        "cluster {c} of bucket {key} has no members; \
                         refresh requires a fully-registered store"
                    )));
                }
            }
        }
        let mut report = RefreshReport::default();
        for bucket in self.buckets.values_mut() {
            // `keep_rows` is checked above, and a row-keeping store's
            // buckets are all made with rows.
            let rows = bucket
                .member_rows
                .as_ref()
                .expect("row-keeping store bucket has member rows");
            let cluster_count = bucket.clusters.len();
            let mut positions: Vec<Vec<usize>> = vec![Vec::new(); cluster_count];
            for (pos, m) in bucket.members.iter().enumerate() {
                positions[m.cluster as usize].push(pos);
            }

            // 1. Re-medoid each cluster over its member rows.
            let medoid_pos: Vec<usize> = positions
                .iter()
                .map(|p| medoid_position(rows, &bucket.members, p))
                .collect();
            for (c, &pos) in medoid_pos.iter().enumerate() {
                if bucket.members[pos].id != bucket.clusters[c].medoid_id {
                    report.refreshed += 1;
                }
            }

            // 2. Merge clusters whose refreshed medoids are within the
            // threshold: connected components via union-find, root =
            // smallest cluster index.
            let mut root: Vec<usize> = (0..cluster_count).collect();
            fn find(root: &mut [usize], mut i: usize) -> usize {
                while root[i] != i {
                    root[i] = root[root[i]];
                    i = root[i];
                }
                i
            }
            for i in 0..cluster_count {
                for j in (i + 1)..cluster_count {
                    if rows.hamming(medoid_pos[i], medoid_pos[j]) <= threshold_bits {
                        let (a, b) = (find(&mut root, i), find(&mut root, j));
                        let (lo, hi) = (a.min(b), a.max(b));
                        root[hi] = lo;
                    }
                }
            }

            // 3. Rebuild the bucket canonically. Groups are keyed by
            // their smallest original cluster index, which keeps
            // surviving clusters in their original relative order.
            let mut group_of = vec![usize::MAX; cluster_count];
            let mut groups: Vec<Vec<usize>> = Vec::new();
            for c in 0..cluster_count {
                let r = find(&mut root, c);
                if group_of[r] == usize::MAX {
                    group_of[r] = groups.len();
                    groups.push(Vec::new());
                }
                group_of[c] = group_of[r];
                groups[group_of[c]].push(c);
            }
            report.merged += (cluster_count - groups.len()) as u64;

            let mut clusters = Vec::with_capacity(groups.len());
            let mut medoids = HvPack::with_capacity(self.dim as usize, groups.len());
            for (g, members_of_group) in groups.iter().enumerate() {
                let pos = if members_of_group.len() == 1 {
                    medoid_pos[members_of_group[0]]
                } else {
                    // A merged cluster is re-medoided over its combined
                    // membership, in member order.
                    let combined: Vec<usize> = bucket
                        .members
                        .iter()
                        .enumerate()
                        .filter(|(_, m)| group_of[m.cluster as usize] == g)
                        .map(|(p, _)| p)
                        .collect();
                    medoid_position(rows, &bucket.members, &combined)
                };
                let member_total: u32 = members_of_group
                    .iter()
                    .map(|&c| bucket.clusters[c].members)
                    .sum();
                clusters.push(StoredCluster {
                    medoid_id: bucket.members[pos].id,
                    members: member_total,
                });
                medoids.push_row_words(rows.row(pos));
            }
            let members: Vec<StoredMember> = bucket
                .members
                .iter()
                .map(|m| StoredMember {
                    id: m.id,
                    cluster: group_of[m.cluster as usize] as u32,
                })
                .collect();
            bucket.clusters = clusters;
            bucket.medoids = medoids;
            bucket.members = members;
        }
        Ok(report)
    }

    /// Replays every bucket through [`ShardLabelMerger`] in ascending key
    /// order, producing the dense global assignment over all
    /// `next_spectrum_id` spectra plus the medoid spectrum id per dense
    /// cluster — the exact merge the batch and streaming pipelines use,
    /// which is what keeps labels stable across sessions.
    ///
    /// Fails with [`StoreError::Corrupt`] if the memberships do not cover
    /// every id exactly once, which neither [`ClusterStore::install`] nor
    /// [`ClusterStore::from_bytes`] lets through.
    pub fn union_assignment(&self) -> Result<(ClusterAssignment, Vec<u64>), StoreError> {
        let total = self.covered()?;
        let mut merger = ShardLabelMerger::new(total);
        for bucket in self.buckets.values() {
            let members: Vec<usize> = bucket.members.iter().map(|m| m.id as usize).collect();
            let labels: Vec<usize> = bucket.members.iter().map(|m| m.cluster as usize).collect();
            let medoids: Vec<usize> = bucket
                .clusters
                .iter()
                .map(|c| c.medoid_id as usize)
                .collect();
            merger.add_shard(&members, &labels, &medoids, &HacStats::default());
        }
        let (assignment, consensus, _) = merger.finish();
        Ok((
            assignment,
            consensus.into_iter().map(|c| c as u64).collect(),
        ))
    }

    /// Serializes the store into the versioned `SHPK` byte format (see
    /// the [crate docs](crate) for the layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        format::to_bytes(self)
    }

    /// Deserializes a store from `SHPK` bytes, validating structure,
    /// checksum, and internal consistency before any state is built.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        format::from_bytes(bytes)
    }

    /// Durably writes the store to `path` via [`DiskIo`]:
    /// [`ClusterStore::to_bytes`] goes to `<path>.tmp`, is fsynced,
    /// the previous generation (if any) is rotated to `<path>.bak`, the
    /// temp file is atomically renamed into place, and the parent
    /// directory is fsynced. A crash or I/O failure at any point leaves
    /// at least one checksum-valid generation recoverable through
    /// [`ClusterStore::load_or_recover`]; on `Ok` the new generation is
    /// committed at `path` and the previous one survives as `.bak`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        self.save_with(&DiskIo, path)
    }

    /// [`ClusterStore::save`] over an explicit [`StoreIo`] backend — the
    /// injectable seam the fault-injection suites drive.
    pub fn save_with<I: StoreIo + ?Sized>(
        &self,
        io: &I,
        path: impl AsRef<Path>,
    ) -> Result<(), StoreError> {
        let path = path.as_ref();
        let bytes = self.to_bytes();
        let tmp = crate::io::pending_path(path);
        io.write(&tmp, &bytes)
            .map_err(|e| StoreError::io(&tmp, e))?;
        io.sync_file(&tmp).map_err(|e| StoreError::io(&tmp, e))?;
        if io.exists(path) {
            let bak = crate::io::backup_path(path);
            io.rename(path, &bak).map_err(|e| StoreError::io(path, e))?;
        }
        io.rename(&tmp, path).map_err(|e| StoreError::io(&tmp, e))?;
        io.sync_parent_dir(path)
            .map_err(|e| StoreError::io(path, e))?;
        Ok(())
    }

    /// Reads a store back from `path`; the round trip is bit-identical
    /// (`load(save(s)) == s` and re-saving reproduces the same bytes).
    /// Fails if the primary file is missing or damaged — use
    /// [`ClusterStore::load_or_recover`] to fall back to surviving
    /// generations after a crash.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::load_with(&DiskIo, path)
    }

    /// [`ClusterStore::load`] over an explicit [`StoreIo`] backend.
    pub fn load_with<I: StoreIo + ?Sized>(
        io: &I,
        path: impl AsRef<Path>,
    ) -> Result<Self, StoreError> {
        let path = path.as_ref();
        let bytes = io.read(path).map_err(|e| StoreError::io(path, e))?;
        Self::from_bytes(&bytes)
    }

    /// Loads `path`, falling back to the newest surviving generation
    /// when the primary is missing or fails SHPK validation: first the
    /// pending `<path>.tmp` (a fully-synced *newer* generation whose
    /// commit rename was interrupted), then the previous `<path>.bak`.
    ///
    /// On success the [`RecoveryReport`] says which generation was used
    /// and, when it was not the primary, why the primary was rejected.
    /// When no candidate passes the checksum it fails — recovery never
    /// yields a partially-written store — with the backup's error if the
    /// primary is missing and a `.bak` exists (a lost archive is not a
    /// store that was never saved), and otherwise with the primary's
    /// error. A lone torn `.tmp` is a crashed first save, so it reports
    /// the primary's [`StoreError::Io`].
    pub fn load_or_recover(path: impl AsRef<Path>) -> Result<(Self, RecoveryReport), StoreError> {
        Self::load_or_recover_with(&DiskIo, path)
    }

    /// [`ClusterStore::load_or_recover`] over an explicit [`StoreIo`]
    /// backend.
    pub fn load_or_recover_with<I: StoreIo + ?Sized>(
        io: &I,
        path: impl AsRef<Path>,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let path = path.as_ref();
        let primary_error = match Self::load_with(io, path) {
            Ok(store) => {
                return Ok((
                    store,
                    RecoveryReport {
                        source: RecoverySource::Primary,
                        loaded_from: path.to_path_buf(),
                        primary_error: None,
                    },
                ))
            }
            Err(e) => e,
        };
        let candidates = [
            (RecoverySource::Pending, crate::io::pending_path(path)),
            (RecoverySource::Backup, crate::io::backup_path(path)),
        ];
        let mut backup_error = None;
        for (source, candidate) in candidates {
            match Self::load_with(io, &candidate) {
                Ok(store) => {
                    return Ok((
                        store,
                        RecoveryReport {
                            source,
                            loaded_from: candidate,
                            primary_error: Some(Box::new(primary_error)),
                        },
                    ))
                }
                Err(e) if source == RecoverySource::Backup && io.exists(&candidate) => {
                    backup_error = Some(e);
                }
                Err(_) => {}
            }
        }
        match backup_error {
            Some(e) if !io.exists(path) => Err(e),
            _ => Err(primary_error),
        }
    }

    /// Checks that the memberships cover the ids `0..next_id` exactly
    /// once and returns `next_id`.
    pub(crate) fn covered(&self) -> Result<usize, StoreError> {
        let (next, members) = (self.next_id, self.buckets.values().flat_map(|b| &b.members));
        let listed = self.buckets.values().map(|b| b.members.len()).sum();
        dense(next, listed, members.map(|m| m.id)).map_err(|id| {
            StoreError::Corrupt(format!(
                "members do not cover the {next} ids once (at id {id})"
            ))
        })
    }

    pub(crate) fn buckets(&self) -> &BTreeMap<i64, StoredBucket> {
        &self.buckets
    }

    pub(crate) fn from_parts(
        dim: u32,
        fingerprint: u64,
        next_id: u64,
        keep_rows: bool,
        buckets: BTreeMap<i64, StoredBucket>,
    ) -> Self {
        Self {
            dim,
            fingerprint,
            next_id,
            keep_rows,
            buckets,
        }
    }
}

/// Checks that the `listed` ids number `0..total` exactly once, returning
/// `total` or an id where the numbering breaks. The count is compared
/// before the bitmap is allocated, so a hostile `total` costs nothing.
fn dense(total: u64, listed: usize, ids: impl Iterator<Item = u64>) -> Result<usize, u64> {
    if listed as u64 != total {
        return Err(total.min(listed as u64));
    }
    let mut seen = vec![false; listed];
    for id in ids {
        match usize::try_from(id).ok().and_then(|i| seen.get_mut(i)) {
            Some(seen) if !*seen => *seen = true,
            _ => return Err(id),
        }
    }
    Ok(listed)
}

/// The member (by position into `members`/`rows`) minimizing total
/// Hamming distance to the rest of `positions`; ties break toward the
/// lowest spectrum id, so the choice is deterministic regardless of
/// absorption order.
fn medoid_position(rows: &HvPack, members: &[StoredMember], positions: &[usize]) -> usize {
    debug_assert!(!positions.is_empty(), "medoid of an empty cluster");
    let mut best = positions[0];
    let mut best_key = (u64::MAX, u64::MAX);
    for &candidate in positions {
        let total: u64 = positions
            .iter()
            .map(|&other| u64::from(rows.hamming(candidate, other)))
            .sum();
        let key = (total, members[candidate].id);
        if key < best_key {
            best_key = key;
            best = candidate;
        }
    }
    best
}

#[cfg(test)]
impl ClusterStore {
    /// A store over [`ClusterStore::from_parts`] with one member per
    /// `(key, cluster, id, row)`, ids `0..members.len()`. A member whose
    /// cluster index is new to its bucket founds that cluster as its
    /// medoid; the rows are kept only when `keep_rows`.
    pub(crate) fn fixture(
        dim: usize,
        fingerprint: u64,
        keep_rows: bool,
        members: &[(i64, u32, u64, &[u64])],
    ) -> Self {
        let mut buckets = BTreeMap::new();
        for &(key, cluster, id, row) in members {
            let empty = || StoredBucket::empty(dim, keep_rows);
            let bucket: &mut StoredBucket = buckets.entry(key).or_insert_with(empty);
            if cluster as usize == bucket.clusters.len() {
                bucket.medoids.push_row_words(row);
                let medoid = StoredCluster {
                    medoid_id: id,
                    members: 0,
                };
                bucket.clusters.push(medoid);
            }
            bucket.clusters[cluster as usize].members += 1;
            bucket.members.push(StoredMember { id, cluster });
            if let Some(rows) = &mut bucket.member_rows {
                rows.push_row_words(row);
            }
        }
        let dim = u32::try_from(dim).unwrap();
        Self::from_parts(dim, fingerprint, members.len() as u64, keep_rows, buckets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechd_hdc::BinaryHypervector;
    use spechd_rng::Xoshiro256StarStar;

    fn row(dim: usize, seed: u64) -> Vec<u64> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        BinaryHypervector::random(dim, &mut rng).words().to_vec()
    }

    /// A small two-bucket store: bucket 10 has clusters {0: ids 0,2} and
    /// {1: id 3}, bucket -4 has cluster {0: id 1}.
    fn sample(dim: usize) -> ClusterStore {
        let (r1, r2, r3) = (row(dim, 1), row(dim, 2), row(dim, 3));
        let members = [
            (10, 0, 0, &r1[..]),
            (-4, 0, 1, &r3),
            (10, 0, 2, &[]),
            (10, 1, 3, &r2),
        ];
        ClusterStore::fixture(dim, 0xF00D, false, &members)
    }

    #[test]
    fn build_and_inspect() {
        let store = sample(100);
        assert_eq!(store.dim(), 100);
        assert_eq!(store.next_spectrum_id(), 4);
        assert_eq!(store.num_buckets(), 2);
        assert_eq!(store.num_clusters(), 3);
        assert_eq!(store.keys().collect::<Vec<_>>(), vec![-4, 10]);
        let b = store.bucket(10).unwrap();
        assert_eq!(b.clusters()[0].members, 2);
        assert_eq!(b.medoids().len(), 2);
        assert_eq!(store.cluster_count(7), 0);
    }

    /// The `SHPK` header holds `dim` in a `u32`: a wider store is refused
    /// when it is made, not when it is saved.
    #[test]
    fn dim_past_the_header_field_is_refused_at_construction() {
        let wide = u32::MAX as usize + 1;
        for made in [
            ClusterStore::new(wide, 0),
            ClusterStore::new_keeping_rows(wide, 0),
        ] {
            assert!(matches!(
                made,
                Err(StoreError::DimMismatch { store, expected })
                    if store == wide && expected == u32::MAX as usize
            ));
        }
        let widest = ClusterStore::new(u32::MAX as usize, 7).unwrap();
        let back = ClusterStore::from_bytes(&widest.to_bytes()).unwrap();
        assert_eq!((back.dim(), back), (u32::MAX as usize, widest));
    }

    #[test]
    fn union_assignment_is_dense_and_stable() {
        let store = sample(100);
        let (assignment, consensus) = store.union_assignment().unwrap();
        // Id order: 0 (bucket 10/c0), 1 (bucket -4/d0), 2 (10/c0), 3 (10/c1).
        assert_eq!(assignment.labels(), &[0, 1, 0, 2]);
        assert_eq!(consensus, vec![0, 1, 3]);
    }

    #[test]
    fn union_assignment_rejects_uncovered_ids() {
        let mut store = sample(100);
        store.next_id += 1;
        let err = store.union_assignment().unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
    }

    /// Id 0 twice and id 2 never: the count matches `next_id`, so only
    /// the bitmap catches it, at load, before any installment runs.
    #[test]
    fn duplicate_plus_missing_id_is_corrupt() {
        let mut store = sample(100);
        store.buckets.get_mut(&10).unwrap().members[1].id = 0;
        let err = ClusterStore::from_bytes(&store.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("(at id 0)"), "{err}");
    }

    /// A sealed header claiming 2^64 - 1 ids over one member is refused
    /// by its count, before a bitmap that large could be allocated.
    #[test]
    fn huge_next_id_is_corrupt_without_allocating() {
        let mut store = ClusterStore::fixture(64, 1, false, &[(0, 0, 0, &[0])]);
        store.next_id = u64::MAX;
        let err = ClusterStore::from_bytes(&store.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("(at id 1)"), "{err}");
    }

    type Shards = Vec<(i64, Vec<usize>, HvPack)>;
    type Installed = Result<(u64, IncrementalStats), StoreError>;

    /// Six spectra: one row a stored medoid accepts and one it does not
    /// in each of [`sample`]'s buckets, and the fresh buckets 3 and 20.
    fn installment(dim: usize) -> Shards {
        let pack = |seeds: &[u64]| {
            let rows: Vec<u64> = seeds.iter().flat_map(|&s| row(dim, s)).collect();
            HvPack::from_raw_parts(dim, rows).unwrap()
        };
        vec![
            (-4, vec![0, 1], pack(&[3, 8])),
            (3, vec![2], pack(&[5])),
            (10, vec![3, 4], pack(&[1, 9])),
            (20, vec![5], pack(&[6])),
        ]
    }

    fn install(store: &mut ClusterStore, count: usize, shards: &Shards) -> Installed {
        let shards = shards.iter().map(|(key, ids, rows)| (*key, &ids[..], rows));
        store.install(count, shards, Linkage::Complete, 10.0)
    }

    /// Installs `shards`, expecting an error and an unchanged store.
    fn rejected(store: &mut ClusterStore, count: usize, shards: &Shards) -> StoreError {
        let (before, bytes) = (store.clone(), store.to_bytes());
        let err = install(store, count, shards).unwrap_err();
        assert!(*store == before && store.to_bytes() == bytes, "{err}");
        err
    }

    #[test]
    fn rejected_installments_leave_the_store_untouched() {
        let mut store = sample(100);
        // A wrong-dim pack at every index, after fresh and dirty buckets.
        for k in 0..4 {
            let mut shards = installment(100);
            shards[k].2 = installment(64).swap_remove(k).2;
            let err = rejected(&mut store, 6, &shards);
            let dim = matches!(err, StoreError::DimMismatch { expected: 64, .. });
            assert!(dim, "{err}");
        }
        // Bucket 10's ids 3 and `second` repeat, skip or exceed `count`.
        for (count, second, at) in [(6, 3, 7), (6, 6, 10), (5, 4, 9), (7, 4, 10)] {
            let mut shards = installment(100);
            shards[2].1 = vec![3, second];
            let err = rejected(&mut store, count, &shards);
            let want = (at, 4 + count as u64);
            let ok =
                matches!(err, StoreError::InvalidSpectrumId { id, next } if (id, next) == want);
            assert!(ok, "{err}");
        }
        let mut shards = installment(100);
        shards.swap(0, 1);
        let err = rejected(&mut store, 6, &shards);
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");

        // Well formed, it commits; ids 4 and 7 join stored clusters.
        let mut twin = store.clone();
        let (base, s) = install(&mut store, 6, &installment(100)).unwrap();
        let counts = [s.fresh_buckets, s.dirty_buckets, s.absorbed, s.residual];
        assert_eq!((base, counts, s.new_clusters), (4, [2; 4], 4));
        let (assignment, _) = store.union_assignment().unwrap();
        assert_eq!(&assignment.labels()[..8], &[0, 1, 0, 2, 1, 3, 4, 0]);
        assert_eq!(ClusterStore::from_bytes(&store.to_bytes()).unwrap(), store);
        // Two short of the end of the 64-bit id space, it cannot.
        twin.next_id = u64::MAX - 2;
        let err = rejected(&mut twin, 6, &installment(100));
        assert!(matches!(err, StoreError::IdSpaceExhausted), "{err}");
    }

    /// A missing primary beside a damaged `.bak` is a lost archive, not a
    /// store that was never saved: recovery reports the backup's
    /// checksum failure, not the primary's not-found.
    #[test]
    fn lost_primary_with_a_damaged_backup_reports_the_backup_error() {
        let (io, path) = (crate::io::MemIo::new(), Path::new("a.shpk"));
        sample(100).save_with(&io, path).unwrap();
        sample(64).save_with(&io, path).unwrap();
        io.remove(path).unwrap();
        let bak = crate::io::backup_path(path);
        let mut damaged = io.contents(&bak).unwrap();
        let mid = damaged.len() / 2;
        damaged[mid] ^= 0x04;
        io.plant(&bak, damaged);

        let err = ClusterStore::load_or_recover_with(&io, path).unwrap_err();
        assert!(
            matches!(err, StoreError::ChecksumMismatch { .. }),
            "expected the backup's error: {err}"
        );
    }

    #[test]
    fn zero_dim_is_rejected() {
        assert!(matches!(
            ClusterStore::new(0, 0),
            Err(StoreError::Pack(spechd_hdc::PackError::ZeroDim))
        ));
    }

    #[test]
    fn compatibility_gate() {
        let store = sample(100);
        store.ensure_compatible(100, 0xF00D).unwrap();
        assert!(matches!(
            store.ensure_compatible(64, 0xF00D),
            Err(StoreError::DimMismatch {
                store: 100,
                expected: 64
            })
        ));
        assert!(matches!(
            store.ensure_compatible(100, 1),
            Err(StoreError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn byte_round_trip_all_dims() {
        for dim in [63, 64, 65, 100, 2048] {
            let store = sample(dim);
            let bytes = store.to_bytes();
            let reloaded = ClusterStore::from_bytes(&bytes).unwrap();
            assert_eq!(reloaded, store, "dim {dim}");
            assert_eq!(reloaded.to_bytes(), bytes, "re-save must be identical");
        }
    }

    #[test]
    fn empty_store_round_trips() {
        let store = ClusterStore::new(2048, 42).unwrap();
        let reloaded = ClusterStore::from_bytes(&store.to_bytes()).unwrap();
        assert_eq!(reloaded, store);
        let (assignment, consensus) = reloaded.union_assignment().unwrap();
        assert!(assignment.is_empty());
        assert!(consensus.is_empty());
    }

    #[test]
    fn refresh_requires_a_row_keeping_store() {
        assert!(matches!(
            sample(64).refresh(4),
            Err(StoreError::MemberRowMode)
        ));
        let rowed = ClusterStore::new_keeping_rows(64, 1).unwrap();
        assert!(rowed.keeps_member_rows());
    }

    /// A drifted cluster: founded on id 0's row, then absorbed members
    /// that move the true center. Refresh re-medoids to the member with
    /// the minimum total Hamming distance.
    #[test]
    fn refresh_re_medoids_a_drifted_cluster() {
        // Pairwise distances: d(0,1)=8, d(0,2)=7, d(1,2)=1.
        // Totals: id0 = 15, id1 = 9, id2 = 8 → new medoid is id 2.
        let rows: [&[u64]; 3] = [&[0x00], &[0xFF], &[0xFE]];
        let members = [(3, 0, 0, rows[0]), (3, 0, 1, rows[1]), (3, 0, 2, rows[2])];
        let mut store = ClusterStore::fixture(64, 7, true, &members);
        let report = store.refresh(0).unwrap();
        assert_eq!(
            report,
            RefreshReport {
                refreshed: 1,
                merged: 0
            }
        );
        let bucket = store.bucket(3).unwrap();
        assert_eq!(bucket.clusters()[0].medoid_id, 2);
        assert_eq!(bucket.medoids().row(0), &[0xFE]);
        assert_eq!(bucket.clusters()[0].members, 3);
        // Refresh is a fixed point on an unchanged store.
        let again = store.refresh(0).unwrap();
        assert_eq!(again, RefreshReport::default());
    }

    #[test]
    fn refresh_merges_colliding_clusters_and_compacts_the_bucket() {
        // Three clusters; 0 and 2 sit within threshold 2 of each other
        // (d = 1) while cluster 1 is far from both.
        let members: [(i64, u32, u64, &[u64]); 4] = [
            (5, 0, 0, &[0b0011]),
            (5, 1, 1, &[u64::MAX]),
            (5, 2, 2, &[1]),
            (5, 2, 3, &[1]),
        ];
        let mut store = ClusterStore::fixture(64, 7, true, &members);
        let report = store.refresh(2).unwrap();
        assert_eq!(report.merged, 1);
        let bucket = store.bucket(5).unwrap();
        assert_eq!(bucket.clusters().len(), 2);
        assert_eq!(bucket.medoids().len(), 2, "orphaned medoid rows GC'd");
        // The merged cluster keeps slot 0 (smallest original index) and
        // re-medoids over its combined membership: id 2's row ties with
        // id 3's, so the lowest id wins; total distances favor 0b0001.
        assert_eq!(bucket.clusters()[0].medoid_id, 2);
        assert_eq!(bucket.clusters()[0].members, 3);
        assert_eq!(bucket.clusters()[1].medoid_id, 1);
        let remapped: Vec<u32> = bucket.members().iter().map(|m| m.cluster).collect();
        assert_eq!(remapped, vec![0, 1, 0, 0]);
        // The compacted store round-trips bit-identically.
        let bytes = store.to_bytes();
        let reloaded = ClusterStore::from_bytes(&bytes).unwrap();
        assert_eq!(reloaded, store);
        assert_eq!(reloaded.to_bytes(), bytes);
        // Labels stay dense and coherent after compaction.
        let (assignment, consensus) = store.union_assignment().unwrap();
        assert_eq!(assignment.labels(), &[0, 1, 0, 0]);
        assert_eq!(consensus, vec![2, 1]);
    }

    #[test]
    fn refresh_rejects_half_registered_stores_untouched() {
        let mut store = ClusterStore::fixture(64, 7, true, &[(1, 0, 0, &[1]), (2, 0, 1, &[2])]);
        // A founded-but-memberless cluster in a later bucket.
        let bucket = store.buckets.get_mut(&2).unwrap();
        bucket.members.clear();
        bucket.clusters[0].members = 0;
        bucket.member_rows = Some(HvPack::new(64));
        let before = store.clone();
        assert!(matches!(store.refresh(0), Err(StoreError::Corrupt(_))));
        assert_eq!(store, before, "failed refresh must not mutate");
    }

    #[test]
    fn row_keeping_round_trip_all_dims() {
        for dim in [63, 64, 65, 100] {
            let (r0, r1) = (row(dim, 1), row(dim, 2));
            let members = [(10, 0, 0, &r0[..]), (10, 0, 1, &r1)];
            let store = ClusterStore::fixture(dim, 0xF00D, true, &members);
            let bytes = store.to_bytes();
            let reloaded = ClusterStore::from_bytes(&bytes).unwrap();
            assert_eq!(reloaded, store, "dim {dim}");
            assert_eq!(reloaded.to_bytes(), bytes, "dim {dim}");
        }
    }
}
