//! Per-shard clustering and the deterministic merge of its results.
//!
//! SpecHD never clusters across precursor-mass buckets, so a full run is a
//! set of independent per-bucket (per-shard) clusterings stitched into one
//! flat [`ClusterAssignment`]. [`cluster_shard`] is the one per-shard
//! kernel and [`ShardLabelMerger`] the one stitching, under every entry
//! point of `spechd-core`'s shard pipeline and every store installment —
//! so as long as the per-shard rows agree, the results cannot differ.

use crate::{medoid, nn_chain, ClusterAssignment, CondensedMatrix, HacStats, Linkage};
use spechd_hdc::distance::PackedDistanceEngine;
use spechd_hdc::HvPack;

/// One shard's (= one precursor bucket's) clustering, in the form
/// [`ShardLabelMerger::add_shard`] consumes.
#[derive(Debug, Clone)]
pub struct ShardClustering {
    /// Local cluster label per member, parallel to the shard's members.
    pub labels: Vec<usize>,
    /// Global item index of the medoid of each local cluster.
    pub medoids: Vec<usize>,
    /// HAC work counters.
    pub stats: HacStats,
}

/// Clusters one shard whose rows are already contiguous: tiled distance
/// kernel → NN-chain → threshold cut → per-cluster medoid. `members` maps
/// shard-local row `i` to its global item index; `sub` holds exactly those
/// rows in the same order. Every front end clusters through it — the
/// pipeline's shards on their own packs, `cluster_encoded_packed` on a
/// gathered sub-pack, `ClusterStore::install` on a bucket's residual rows
/// — so they cannot drift apart.
pub fn cluster_shard(
    members: &[usize],
    sub: &HvPack,
    linkage: Linkage,
    threshold: f64,
) -> ShardClustering {
    let n = members.len();
    debug_assert_eq!(sub.len(), n, "sub-pack rows must parallel members");
    if n <= 1 {
        return ShardClustering {
            labels: vec![0; n],
            medoids: members.to_vec(),
            stats: HacStats::default(),
        };
    }
    // The tiled kernel runs single-threaded — shards already run in
    // parallel across the bucket/shard worker pool.
    let condensed_u16 = PackedDistanceEngine::new()
        .threads(1)
        .pairwise_condensed(sub);
    // 16-bit lower-triangular matrix, exactly as the FPGA stores it: the
    // kernel's buffer itself, which NN-chain and the medoids read as is.
    let matrix = CondensedMatrix::from_condensed_u16(n, condensed_u16);
    let result = nn_chain(&matrix, linkage);
    let cut = result.dendrogram.cut(threshold);
    let medoids: Vec<usize> = cut
        .clusters()
        .iter()
        .map(|cluster| members[medoid(&matrix, cluster)])
        .collect();
    ShardClustering {
        labels: cut.labels().to_vec(),
        medoids,
        stats: result.stats,
    }
}

/// Accumulates per-shard flat clusterings over disjoint item subsets into
/// one dense global assignment with deterministic cluster IDs.
///
/// IDs are assigned in two steps: each shard's local clusters get a
/// contiguous raw-label block in the order shards are added, then
/// [`ClusterAssignment::from_raw_labels`] renumbers densely by first
/// appearance in *item* order. Callers therefore fix determinism by fixing
/// the shard-add order — SpecHD's pipeline uses ascending bucket key.
///
/// # Examples
///
/// ```
/// use spechd_cluster::{HacStats, ShardLabelMerger};
///
/// // Items {0,2} cluster together in shard A; item 1 is alone in shard B.
/// let mut merger = ShardLabelMerger::new(3);
/// merger.add_shard(&[0, 2], &[0, 0], &[0], &HacStats::default());
/// merger.add_shard(&[1], &[0], &[1], &HacStats::default());
/// let (assignment, consensus, _) = merger.finish();
/// assert_eq!(assignment.labels(), &[0, 1, 0]);
/// assert_eq!(consensus, vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct ShardLabelMerger {
    raw_labels: Vec<usize>,
    medoid_by_raw: Vec<usize>,
    next_cluster: usize,
    covered: usize,
    stats: HacStats,
}

impl ShardLabelMerger {
    /// Creates a merger over `total` items; every item must be covered by
    /// exactly one subsequent [`ShardLabelMerger::add_shard`] call.
    pub fn new(total: usize) -> Self {
        Self {
            // MAX marks "not yet covered", so double coverage is caught at
            // `add_shard` and missing coverage cannot hide behind a
            // matching total count.
            raw_labels: vec![usize::MAX; total],
            medoid_by_raw: Vec::new(),
            next_cluster: 0,
            covered: 0,
            stats: HacStats::default(),
        }
    }

    /// Adds one shard's clustering.
    ///
    /// * `members` — global item indices of the shard, in shard-local
    ///   order.
    /// * `local_labels` — per-member cluster label in
    ///   `[0, num_local_clusters)`, parallel to `members`.
    /// * `medoids` — one representative *global item index* per local
    ///   cluster (entry `c` represents local cluster `c`).
    /// * `stats` — the shard's HAC work counters, folded into the total.
    ///
    /// # Panics
    ///
    /// Panics if `members` and `local_labels` lengths differ, an item index
    /// is out of bounds or already covered by an earlier shard, or a local
    /// label is not covered by `medoids`.
    pub fn add_shard(
        &mut self,
        members: &[usize],
        local_labels: &[usize],
        medoids: &[usize],
        stats: &HacStats,
    ) {
        assert_eq!(
            members.len(),
            local_labels.len(),
            "members/labels length mismatch"
        );
        for (&member, &local) in members.iter().zip(local_labels) {
            assert!(
                local < medoids.len(),
                "local label {local} has no medoid (shard has {})",
                medoids.len()
            );
            assert!(
                self.raw_labels[member] == usize::MAX,
                "item {member} covered by more than one shard"
            );
            self.raw_labels[member] = self.next_cluster + local;
        }
        self.medoid_by_raw.extend_from_slice(medoids);
        self.next_cluster += medoids.len();
        self.covered += members.len();
        self.stats.comparisons += stats.comparisons;
        self.stats.updates += stats.updates;
        self.stats.merges += stats.merges;
    }

    /// Number of items covered by shards so far.
    pub fn covered(&self) -> usize {
        self.covered
    }

    /// Finalizes: dense renumbering by first appearance in item order,
    /// with the per-cluster consensus (medoid) indices re-aligned to the
    /// dense labels. Returns `(assignment, consensus, aggregate stats)`.
    ///
    /// # Panics
    ///
    /// Panics if the shards added do not cover every item exactly once.
    pub fn finish(self) -> (ClusterAssignment, Vec<usize>, HacStats) {
        assert_eq!(
            self.covered,
            self.raw_labels.len(),
            "shards must cover every item exactly once"
        );
        let assignment = ClusterAssignment::from_raw_labels(&self.raw_labels);
        let mut consensus = vec![usize::MAX; assignment.num_clusters()];
        for (item, &dense) in assignment.labels().iter().enumerate() {
            consensus[dense] = self.medoid_by_raw[self.raw_labels[item]];
        }
        debug_assert!(consensus.iter().all(|&c| c != usize::MAX));
        (assignment, consensus, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_merger_finishes_empty() {
        let (assignment, consensus, stats) = ShardLabelMerger::new(0).finish();
        assert!(assignment.is_empty());
        assert_eq!(assignment.num_clusters(), 0);
        assert!(consensus.is_empty());
        assert_eq!(stats, HacStats::default());
    }

    #[test]
    fn dense_ids_follow_item_order_across_shards() {
        // Shard order differs from item order: the first *item* decides
        // dense label 0 regardless of which shard carried it.
        let mut merger = ShardLabelMerger::new(4);
        merger.add_shard(&[2, 3], &[0, 1], &[2, 3], &HacStats::default());
        merger.add_shard(&[0, 1], &[0, 0], &[1], &HacStats::default());
        let (assignment, consensus, _) = merger.finish();
        assert_eq!(assignment.labels(), &[0, 0, 1, 2]);
        assert_eq!(consensus, vec![1, 2, 3]);
    }

    #[test]
    fn stats_accumulate() {
        let mut merger = ShardLabelMerger::new(2);
        let s = HacStats {
            comparisons: 3,
            updates: 2,
            merges: 1,
        };
        merger.add_shard(&[0], &[0], &[0], &s);
        merger.add_shard(&[1], &[0], &[1], &s);
        let (_, _, total) = merger.finish();
        assert_eq!(total.comparisons, 6);
        assert_eq!(total.updates, 4);
        assert_eq!(total.merges, 2);
    }

    #[test]
    #[should_panic(expected = "cover every item")]
    fn missing_items_panic() {
        let mut merger = ShardLabelMerger::new(3);
        merger.add_shard(&[0, 1], &[0, 0], &[0], &HacStats::default());
        let _ = merger.finish();
    }

    #[test]
    #[should_panic(expected = "more than one shard")]
    fn double_coverage_panics() {
        // A matching total count must not mask double-covered + missing
        // items: item 0 twice + item 1 once is 3 = total, but wrong.
        let mut merger = ShardLabelMerger::new(3);
        merger.add_shard(&[0, 0], &[0, 0], &[0], &HacStats::default());
        merger.add_shard(&[1], &[0], &[1], &HacStats::default());
    }

    #[test]
    #[should_panic(expected = "no medoid")]
    fn label_without_medoid_panics() {
        let mut merger = ShardLabelMerger::new(1);
        merger.add_shard(&[0], &[1], &[0], &HacStats::default());
    }
}
