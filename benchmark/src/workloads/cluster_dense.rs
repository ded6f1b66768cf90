//! `cluster_dense` — the paper's standalone-clustering scenario (Fig. 8):
//! pre-encoded hypervectors in large buckets through
//! `SpecHd::cluster_encoded_packed`. No parsing, no encoding.

use super::staged::{cluster_layer_metrics, cluster_staged};
use super::{Checks, LayerMetrics, Workload, DIM};
use crate::reference;
use crate::stats::fastest;
use crate::trace::Tracer;
use spechd_cluster::{nn_chain, CondensedMatrix};
use spechd_core::{SpecHd, SpecHdConfig};
use spechd_fpga::{SystemConfig, SystemModel, WorkloadShape};
use spechd_hdc::distance::{pairwise_condensed, PackedDistanceEngine};
use spechd_hdc::{BinaryHypervector, HvPack};
use spechd_preprocess::Bucket;
use spechd_rng::{Rng, Xoshiro256StarStar};
use std::collections::HashMap;
use std::time::Instant;

/// Buckets per repetition, sized so one repetition takes ≈ 0.5 s.
const NUM_BUCKETS: usize = 12;
/// Rows per bucket: a 1 600-row bucket's f64 condensed matrix is 9.8 MiB,
/// 2.4× the L2, and (with its 2.4 MiB of u16 distances) most of this
/// workload's peak RSS. At 3 200 rows (39 MiB) a repetition took 0.47–0.63 s
/// depending on what the host's other tenants did to the memory behind the
/// caches; at 1 600 it moves with them a third as much (README.md,
/// "Repeatability").
const BUCKET_ROWS: usize = 1_600;
/// Planted clusters per bucket (≈ 8 rows each).
const CENTROIDS_PER_BUCKET: usize = 200;
/// Bits flipped from the centroid per row: rows of one cluster end up
/// ≈ 190 bits apart, different clusters ≈ 1 024 — either side of the
/// 655-bit cut, so complete linkage recovers the planted partition exactly.
const NOISE_BITS: usize = 100;
/// Rows of the bucket the scalar reference path re-clusters.
const SCALAR_CHECK_ROWS: usize = 400;

pub struct ClusterDense;

pub struct Input {
    buckets: Vec<Bucket>,
    pack: HvPack,
    /// Planted cluster of every row, unique across buckets.
    planted: Vec<usize>,
}

impl Workload for ClusterDense {
    type Input = Input;
    type State = SpecHd;
    type Output = Vec<usize>;

    const NAME: &'static str = "cluster_dense";
    const SPECTRA_PER_REP: usize = NUM_BUCKETS * BUCKET_ROWS;

    fn generate(seed: u64) -> Input {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0xC1D5);
        let rows = NUM_BUCKETS * BUCKET_ROWS;
        let centroids: Vec<BinaryHypervector> = (0..NUM_BUCKETS * CENTROIDS_PER_BUCKET)
            .map(|_| BinaryHypervector::random(DIM, &mut rng))
            .collect();
        // Row r belongs to bucket r mod NUM_BUCKETS, so a bucket's rows are
        // strided through the pack and `gather` has real work to do.
        let mut pack = HvPack::with_capacity(DIM, rows);
        let mut planted = Vec::with_capacity(rows);
        let mut buckets: Vec<Bucket> = (0..NUM_BUCKETS)
            .map(|b| Bucket {
                key: b as i64,
                members: Vec::with_capacity(BUCKET_ROWS),
            })
            .collect();
        for row in 0..rows {
            let bucket = row % NUM_BUCKETS;
            let cluster = bucket * CENTROIDS_PER_BUCKET
                + rng.bounded_u64(CENTROIDS_PER_BUCKET as u64) as usize;
            let mut hv = centroids[cluster].clone();
            hv.flip_random_bits(NOISE_BITS, &mut rng);
            pack.push(&hv);
            planted.push(cluster);
            buckets[bucket].members.push(row);
        }
        Input {
            buckets,
            pack,
            planted,
        }
    }

    fn setup(_input: &Input, tracer: &mut Tracer) -> SpecHd {
        let config = SpecHdConfig::builder().threads(1).build();
        tracer
            .time("hdc.item_memory_init", || SpecHd::try_new(config))
            .expect("default configuration is valid")
    }

    fn repetition(input: &Input, engine: &mut SpecHd) -> Vec<usize> {
        let (assignment, _consensus, _stats) =
            engine.cluster_encoded_packed(&input.buckets, &input.pack);
        assignment.labels().to_vec()
    }

    fn check(input: &Input, engine: &mut SpecHd, outputs: &[Vec<usize>]) -> Checks {
        let mut checks = Checks::default();
        for (rep, labels) in outputs.iter().enumerate() {
            checks.record(same_partition(labels, &input.planted), || {
                format!("rep {rep}: labels do not recover the planted partition")
            });
        }

        // Packed kernels and pipeline against the scalar per-hypervector
        // path on one small bucket.
        let members = &input.buckets[0].members[..SCALAR_CHECK_ROWS];
        let sub = input.pack.gather(members);
        let scalar_distances = pairwise_condensed(&sub.to_hypervectors());
        let packed_distances = PackedDistanceEngine::new()
            .threads(1)
            .pairwise_condensed(&sub);
        let matrix = CondensedMatrix::from_u16(sub.len(), &scalar_distances);
        let scalar_labels = nn_chain(&matrix, engine.config().linkage)
            .dendrogram
            .cut(engine.config().distance_threshold_bits());
        let bucket = Bucket {
            key: 0,
            members: (0..sub.len()).collect(),
        };
        let (packed_labels, _, _) = engine.cluster_encoded_packed(&[bucket], &sub);
        checks.record(
            packed_distances == scalar_distances
                && same_partition(packed_labels.labels(), scalar_labels.labels()),
            || "packed path differs from scalar pairwise_condensed + nn_chain".into(),
        );
        checks
    }

    fn trace(
        input: &Input,
        engine: &mut SpecHd,
        tracer: &mut Tracer,
        reps: usize,
        layers: &mut LayerMetrics,
    ) -> Vec<f64> {
        let config = engine.config().clone();
        let mut walls = Vec::with_capacity(reps);
        let mut last = None;
        for rep in 1..=reps {
            tracer.set_rep(rep as u32);
            let t = Instant::now();
            let twin = tracer.enter("core.cluster_twin");
            let staged = cluster_staged(
                tracer,
                &input.buckets,
                &input.pack,
                config.linkage,
                config.distance_threshold_bits(),
            );
            tracer.exit(twin);
            walls.push(t.elapsed().as_secs_f64());
            last = Some(staged);
        }
        let (assignment, consensus, work) = last.expect("at least one traced repetition");

        let time_with = |threads: usize| {
            let engine = SpecHd::new(SpecHdConfig::builder().threads(threads).build());
            let t = Instant::now();
            let result = engine.cluster_encoded_packed(&input.buckets, &input.pack);
            (t.elapsed().as_secs_f64(), result)
        };
        let (one_thread_s, real) = time_with(1);
        let (two_threads_s, _) = time_with(2);
        assert_eq!(assignment, real.0, "staged twin labels");
        assert_eq!(consensus, real.1, "staged twin consensus");

        let popcnt_gops = reference::popcount_gops();
        layers.insert("ref.popcnt_gops", popcnt_gops);
        layers.insert(
            "hdc.item_memory_init_s",
            tracer.total_s("hdc.item_memory_init", 0),
        );
        cluster_layer_metrics(tracer, &work, fastest(&walls), popcnt_gops, layers);
        layers.insert("core.run_s", one_thread_s);
        layers.insert("core.cluster_t2_speedup", one_thread_s / two_threads_s);
        let model = SystemModel::new(SystemConfig {
            num_cluster_kernels: 1,
            ..SystemConfig::default()
        })
        .standalone_clustering_time(&WorkloadShape {
            num_spectra: Self::SPECTRA_PER_REP as u64,
            raw_bytes: input.pack.storage_bytes() as u64,
            peaks_per_spectrum: 50.0,
            mean_bucket_size: BUCKET_ROWS as f64,
            dim: DIM,
        });
        layers.insert("fpga.model_total_s", model);
        layers.insert("fpga.host_over_model", one_thread_s / model);
        walls
    }
}

/// Whether two labelings split the items into the same groups.
fn same_partition(a: &[usize], b: &[usize]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let (mut a_to_b, mut b_to_a) = (HashMap::new(), HashMap::new());
    a.iter()
        .zip(b)
        .all(|(&x, &y)| *a_to_b.entry(x).or_insert(y) == y && *b_to_a.entry(y).or_insert(x) == x)
}

#[cfg(test)]
mod tests {
    use super::same_partition;

    #[test]
    fn partitions_compare_up_to_renaming() {
        assert!(same_partition(&[0, 0, 1, 2], &[7, 7, 3, 9]));
        assert!(!same_partition(&[0, 0, 1, 2], &[7, 7, 7, 9]), "merged");
        assert!(!same_partition(&[0, 0, 1, 1], &[7, 8, 3, 3]), "split");
        assert!(!same_partition(&[0], &[0, 0]));
        assert!(same_partition(&[], &[]));
    }
}
