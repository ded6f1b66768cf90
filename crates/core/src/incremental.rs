//! Incremental clustering over a persistent [`ClusterStore`].
//!
//! The paper's usage model (§IV-B) is "one-time preprocessing and
//! subsequent updates": an archive grows run by run, and reclustering the
//! whole archive for every new run throws away all prior work.
//! [`SpecHd::run_incremental`] is the subsequent-updates half, in four
//! steps:
//!
//! 1. check that the store was built under this engine's dimensionality
//!    and configuration ([`ClusterStore::ensure_compatible`]);
//! 2. run the new installment through the pipeline's one shard ingest
//!    ([`crate::stream`]): each spectrum preprocessed, routed to its
//!    Eq. (1) precursor bucket and encoded into that bucket's pack
//!    (hypervectors are deterministic for a fixed config);
//! 3. hand the shards to [`ClusterStore::install`], which clusters every
//!    bucket against the unchanged store — a fresh one from scratch, a
//!    dirty one by joining each row to its nearest stored medoid within
//!    the cut threshold — and commits only once every change is computed,
//!    so a rejected installment leaves the store untouched;
//! 4. replay the union through [`spechd_cluster::ShardLabelMerger`]
//!    ([`ClusterStore::union_assignment`]) for the global assignment.
//!
//! Label stability falls out of the dense-by-first-appearance renumbering:
//! old spectra keep lower global ids than anything new, absorption never
//! relabels an old spectrum, and new clusters only append — so the labels
//! of a previous session survive verbatim as a prefix of the new ones. On
//! an empty store the fresh-bucket path runs for every bucket, making the
//! first installment bit-identical to [`SpecHd::run`] over the same data.

use crate::{SpecHd, SpecHdError};
use spechd_cluster::ClusterAssignment;
use spechd_ms::SpectrumDataset;
use spechd_store::{ClusterStore, RefreshReport};
use std::sync::Mutex;

pub use spechd_store::IncrementalStats;

/// Result of [`SpecHd::run_incremental`]: the updated global view plus
/// installment bookkeeping.
#[derive(Debug, Clone)]
pub struct IncrementalOutcome {
    assignment: ClusterAssignment,
    consensus: Vec<u64>,
    base_id: u64,
    kept: Vec<usize>,
    stats: IncrementalStats,
}

impl IncrementalOutcome {
    /// The dense global assignment over **every** spectrum the store has
    /// ever absorbed (index = global spectrum id).
    pub fn assignment(&self) -> &ClusterAssignment {
        &self.assignment
    }

    /// Global spectrum id of the medoid of each dense cluster.
    pub fn consensus(&self) -> &[u64] {
        &self.consensus
    }

    /// First global id assigned to this installment; its kept spectra own
    /// ids `base_id .. base_id + kept().len()`.
    pub fn base_id(&self) -> u64 {
        self.base_id
    }

    /// For each kept spectrum of this installment (in id order), its index
    /// in the installment's input dataset.
    pub fn kept(&self) -> &[usize] {
        &self.kept
    }

    /// The labels of just this installment's spectra — the
    /// `base_id`-offset slice of [`IncrementalOutcome::assignment`].
    pub fn installment_labels(&self) -> &[usize] {
        let base = self.base_id as usize;
        &self.assignment.labels()[base..base + self.kept.len()]
    }

    /// Work counters of this installment.
    pub fn stats(&self) -> &IncrementalStats {
        &self.stats
    }
}

impl SpecHd {
    /// Creates an empty [`ClusterStore`] bound to this engine's
    /// dimensionality and configuration fingerprint — the starting point
    /// of an incremental session sequence.
    pub fn new_store(&self) -> Result<ClusterStore, SpecHdError> {
        Ok(ClusterStore::new(
            self.encoder.dim(),
            self.config.fingerprint(),
        )?)
    }

    /// Like [`SpecHd::new_store`], but the store keeps every member's
    /// hypervector row ([`ClusterStore::new_keeping_rows`]) so
    /// [`SpecHd::refresh_store`] can re-medoid it later without the
    /// original spectra — the mode a long-lived clustering service
    /// wants. [`SpecHd::run_incremental`] produces the same labels in
    /// either mode; only the rows-on-disk cost differs.
    pub fn new_store_keeping_rows(&self) -> Result<ClusterStore, SpecHdError> {
        Ok(ClusterStore::new_keeping_rows(
            self.encoder.dim(),
            self.config.fingerprint(),
        )?)
    }

    /// Runs the medoid refresh / compaction pass
    /// ([`ClusterStore::refresh`]) under this engine's dendrogram cut
    /// threshold: clusters are re-medoided over their kept member rows,
    /// and clusters whose refreshed medoids fall within the threshold
    /// merge. **Outside the stable-label contract** — see the store-side
    /// documentation. Requires a row-keeping store built by
    /// [`SpecHd::new_store_keeping_rows`].
    pub fn refresh_store(&self, store: &mut ClusterStore) -> Result<RefreshReport, SpecHdError> {
        store.ensure_compatible(self.encoder.dim(), self.config.fingerprint())?;
        // The integer floor of the cut threshold accepts exactly the
        // distances `ClusterStore::install`'s `d <= threshold` accepts.
        let threshold_bits = self.config.distance_threshold_bits().floor() as u32;
        Ok(store.refresh(threshold_bits)?)
    }

    /// Clusters one new installment of spectra *into* a persistent store
    /// (see the [module docs](self) for the algorithm), returning the
    /// updated global assignment.
    ///
    /// # Errors
    ///
    /// [`SpecHdError::Store`] if the store was produced under a different
    /// dimensionality or configuration fingerprint
    /// ([`spechd_store::StoreError::DimMismatch`] /
    /// [`spechd_store::StoreError::ConfigMismatch`]), or if its id space
    /// is exhausted; the store is then unchanged.
    pub fn run_incremental(
        &self,
        store: &mut ClusterStore,
        dataset: &SpectrumDataset,
    ) -> Result<IncrementalOutcome, SpecHdError> {
        store.ensure_compatible(self.encoder.dim(), self.config.fingerprint())?;
        // The ingest's shards, one per bucket in ascending key order.
        let mut shards = Vec::new();
        let spectra = dataset.spectra().iter();
        let mut keep = |shard, _: &[usize]| shards.push(shard);
        let ingested = self.ingest(spectra, false, &Mutex::default(), &mut keep);
        let installment = shards.iter().map(|s| (s.key, &s.members[..], &s.pack));
        let (linkage, threshold) = (self.config.linkage, self.config.distance_threshold_bits());
        let (base_id, mut stats) =
            store.install(ingested.kept.len(), installment, linkage, threshold)?;
        stats.spectra_in = dataset.len();
        let (assignment, consensus) = store.union_assignment()?;
        Ok(IncrementalOutcome {
            assignment,
            consensus,
            base_id,
            kept: ingested.kept,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpecHdConfig;
    use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};
    use spechd_store::StoreError;

    fn dataset(n: usize, seed: u64) -> SpectrumDataset {
        SyntheticGenerator::new(SyntheticConfig {
            num_spectra: n,
            num_peptides: n / 5,
            seed,
            ..SyntheticConfig::default()
        })
        .generate()
    }

    #[test]
    fn first_installment_matches_batch_exactly() {
        let ds = dataset(300, 11);
        let engine = SpecHd::new(SpecHdConfig::default());
        let batch = engine.run(&ds);

        let mut store = engine.new_store().unwrap();
        let inc = engine.run_incremental(&mut store, &ds).unwrap();
        assert_eq!(inc.assignment(), batch.assignment());
        assert_eq!(inc.base_id(), 0);
        assert_eq!(inc.kept(), batch.kept());
        assert_eq!(inc.installment_labels(), batch.assignment().labels());
        assert_eq!(inc.stats().dirty_buckets, 0);
        assert_eq!(inc.stats().absorbed, 0);
        // Consensus ids map to the same kept-index medoids.
        let batch_consensus_kept: Vec<u64> = batch
            .consensus()
            .iter()
            .map(|&orig| batch.kept().iter().position(|&k| k == orig).unwrap() as u64)
            .collect();
        assert_eq!(inc.consensus(), batch_consensus_kept);
    }

    #[test]
    fn second_installment_preserves_prior_labels() {
        let engine = SpecHd::new(SpecHdConfig::default());
        let mut store = engine.new_store().unwrap();
        let first = engine
            .run_incremental(&mut store, &dataset(200, 12))
            .unwrap();
        let second = engine
            .run_incremental(&mut store, &dataset(150, 13))
            .unwrap();
        let n_first = first.assignment().len();
        assert_eq!(second.base_id() as usize, n_first);
        assert_eq!(
            &second.assignment().labels()[..n_first],
            first.assignment().labels(),
            "old labels must survive verbatim"
        );
        assert!(second.stats().dirty_buckets > 0, "runs should overlap");
        assert!(second.stats().absorbed + second.stats().residual > 0);
    }

    #[test]
    fn incompatible_store_is_rejected_up_front() {
        let engine = SpecHd::new(SpecHdConfig::default());
        let other = SpecHd::new(SpecHdConfig::builder().resolution(0.5).build());
        let mut store = other.new_store().unwrap();
        let err = engine
            .run_incremental(&mut store, &dataset(50, 14))
            .unwrap_err();
        assert!(matches!(
            err,
            SpecHdError::Store(StoreError::ConfigMismatch { .. })
        ));
        assert_eq!(store.next_spectrum_id(), 0, "store must be untouched");
    }

    #[test]
    fn row_keeping_store_matches_rowless_labels_and_refreshes() {
        let engine = SpecHd::new(SpecHdConfig::default());
        let mut rowless = engine.new_store().unwrap();
        let mut rowed = engine.new_store_keeping_rows().unwrap();
        for seed in [21, 22] {
            let ds = dataset(150, seed);
            let a = engine.run_incremental(&mut rowless, &ds).unwrap();
            let b = engine.run_incremental(&mut rowed, &ds).unwrap();
            assert_eq!(a.assignment(), b.assignment(), "row mode must not matter");
            assert_eq!(a.consensus(), b.consensus());
        }
        // Engine-level refresh is deterministic and row-gated.
        let mut twin = rowed.clone();
        let r1 = engine.refresh_store(&mut rowed).unwrap();
        let r2 = engine.refresh_store(&mut twin).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(rowed, twin);
        assert!(matches!(
            engine.refresh_store(&mut rowless),
            Err(SpecHdError::Store(StoreError::MemberRowMode))
        ));
    }

    #[test]
    fn empty_installment_is_a_no_op() {
        let engine = SpecHd::new(SpecHdConfig::default());
        let mut store = engine.new_store().unwrap();
        engine
            .run_incremental(&mut store, &dataset(200, 15))
            .unwrap();
        let before = store.clone();
        let out = engine
            .run_incremental(&mut store, &SpectrumDataset::new())
            .unwrap();
        assert_eq!(store, before);
        assert_eq!(out.stats().spectra_kept, 0);
        assert!(out.installment_labels().is_empty());
    }
}
