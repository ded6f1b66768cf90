//! The staged twin of `SpecHd::run`'s clustering half: the same public stage
//! functions `spechd-core` composes privately, called one by one with a span
//! around each, so the traced run can say where a clustering second goes.
//! Callers assert the twin's labels equal the real pipeline's.

use super::LayerMetrics;
use crate::trace::Tracer;
use spechd_cluster::{
    medoid_all, nn_chain, ClusterAssignment, CondensedMatrix, HacStats, Linkage, ShardLabelMerger,
};
use spechd_hdc::distance::PackedDistanceEngine;
use spechd_hdc::HvPack;
use spechd_preprocess::Bucket;

/// Span names of the clustering stages, in pipeline order.
pub const CLUSTER_STAGES: [&str; 7] = [
    "hdc.gather",
    "hdc.pairwise",
    "cluster.from_u16",
    "cluster.nnchain",
    "cluster.cut",
    "cluster.medoid",
    "cluster.merge",
];

/// Exact work counts of one staged clustering pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClusterWork {
    /// Hamming distances computed: Σ n(n−1)/2 over buckets.
    pub pairs: u64,
    /// Rows of the largest bucket (sets the peak condensed matrix).
    pub max_bucket: usize,
    pub hac: HacStats,
}

/// Gather → pairwise → matrix → NN-chain → cut → medoids per bucket, then
/// the label merge — what `SpecHd::cluster_encoded_packed` does on one
/// thread, stage by stage.
pub fn cluster_staged(
    tracer: &mut Tracer,
    buckets: &[Bucket],
    pack: &HvPack,
    linkage: Linkage,
    threshold_bits: f64,
) -> (ClusterAssignment, Vec<usize>, ClusterWork) {
    let engine = PackedDistanceEngine::new().threads(1);
    let mut work = ClusterWork::default();
    let mut shards = Vec::with_capacity(buckets.len());
    for bucket in buckets {
        let n = bucket.len();
        work.max_bucket = work.max_bucket.max(n);
        if n == 1 {
            shards.push((vec![0], vec![bucket.members[0]], HacStats::default()));
            continue;
        }
        work.pairs += (n * (n - 1) / 2) as u64;
        let sub = tracer.time("hdc.gather", || pack.gather(&bucket.members));
        let condensed = tracer.time("hdc.pairwise", || engine.pairwise_condensed(&sub));
        let matrix = tracer.time("cluster.from_u16", || {
            CondensedMatrix::from_u16(n, &condensed)
        });
        let hac = tracer.time("cluster.nnchain", || nn_chain(&matrix, linkage));
        let cut = tracer.time("cluster.cut", || hac.dendrogram.cut(threshold_bits));
        let medoids: Vec<usize> = tracer.time("cluster.medoid", || {
            medoid_all(&matrix, &cut)
                .into_iter()
                .map(|local| bucket.members[local])
                .collect()
        });
        shards.push((cut.labels().to_vec(), medoids, hac.stats));
    }
    let total = buckets.iter().map(Bucket::len).sum();
    let (assignment, consensus, hac) = tracer.time("cluster.merge", || {
        let mut merger = ShardLabelMerger::new(total);
        for (bucket, (labels, medoids, stats)) in buckets.iter().zip(&shards) {
            merger.add_shard(&bucket.members, labels, medoids, stats);
        }
        merger.finish()
    });
    work.hac = hac;
    (assignment, consensus, work)
}

/// The `hdc` distance and `cluster` layer metrics out of the spans of
/// [`cluster_staged`] (each from the repetition where it was fastest).
pub fn cluster_layer_metrics(
    tracer: &Tracer,
    work: &ClusterWork,
    rep_wall_s: f64,
    popcnt_gops: f64,
    layers: &mut LayerMetrics,
) {
    let pairwise_s = tracer.rep_total_s("hdc.pairwise");
    let nnchain_s = tracer.rep_total_s("cluster.nnchain");
    let pairs = work.pairs as f64;
    let row_bytes = (super::STRIDE * 8) as f64;
    layers.insert("hdc.gather_s", tracer.rep_total_s("hdc.gather"));
    layers.insert("hdc.pairwise_s", pairwise_s);
    layers.insert("hdc.pairwise_pairs", pairs);
    layers.insert("hdc.pairwise_gpairs_per_s", pairs / pairwise_s / 1e9);
    // Computed, not measured, traffic: each distance reads two packed rows.
    layers.insert(
        "hdc.pairwise_gbps_computed",
        pairs * 2.0 * row_bytes / pairwise_s / 1e9,
    );
    layers.insert(
        "hdc.pairwise_popcnt_ratio",
        pairs * super::STRIDE as f64 / pairwise_s / 1e9 / popcnt_gops,
    );
    layers.insert("cluster.from_u16_s", tracer.rep_total_s("cluster.from_u16"));
    let largest = work.max_bucket as f64;
    layers.insert(
        "cluster.matrix_mb",
        largest * (largest - 1.0) / 2.0 * 8.0 / (1u64 << 20) as f64,
    );
    layers.insert("cluster.nnchain_s", nnchain_s);
    layers.insert("cluster.nnchain_comparisons", work.hac.comparisons as f64);
    layers.insert(
        "cluster.nnchain_ns_per_comparison",
        nnchain_s * 1e9 / work.hac.comparisons as f64,
    );
    layers.insert("cluster.nnchain_share", nnchain_s / rep_wall_s);
    layers.insert("cluster.cut_s", tracer.rep_total_s("cluster.cut"));
    layers.insert("cluster.medoid_s", tracer.rep_total_s("cluster.medoid"));
    layers.insert("cluster.merge_s", tracer.rep_total_s("cluster.merge"));
}
