//! HyperSpec (Xu et al., J. Proteome Res. 2023): HDC encoding on GPU with
//! two clustering flavours — fastcluster HAC and cuML DBSCAN.
//!
//! The quality-relevant algorithm (ID-Level HDC + HAC/DBSCAN over Hamming
//! distances) is identical in kind to SpecHD's; HyperSpec differs in
//! platform and in library defaults. The reimplementation uses its own
//! encoder seed and the fastcluster default (average linkage) so the two
//! tools are independent implementations, as in the paper's comparison.

use crate::dbscan::{dbscan_packed, DbscanParams};
use crate::{cluster_by_bucket, ClusteringTool};
use spechd_cluster::{nn_chain, ClusterAssignment, CondensedMatrix, Linkage};
use spechd_hdc::{EncoderConfig, HvPack, IdLevelEncoder};
use spechd_ms::SpectrumDataset;

/// Encodes the preprocessed spectra straight into a contiguous pack, with
/// HyperSpec's own item memories.
fn encode_packed(dataset: &SpectrumDataset) -> HvPack {
    let encoder = IdLevelEncoder::new(EncoderConfig {
        seed: 0x4159_7E12_5EC5_0001, // independent item memories
        ..EncoderConfig::default()
    });
    let peak_lists: Vec<Vec<(f64, f64)>> = dataset
        .spectra()
        .iter()
        .map(|s| s.relative_peaks())
        .collect();
    encoder.encode_batch_packed(&peak_lists)
}

/// HyperSpec with hierarchical agglomerative clustering (the
/// "HyperSpec-HAC" flavour, via the fastcluster library in the original).
#[derive(Debug, Clone, PartialEq)]
pub struct HyperSpecHac {
    /// Cut threshold as a fraction of the hypervector dimensionality.
    pub threshold_fraction: f64,
    /// Bucketing resolution in Dalton.
    pub resolution: f64,
}

impl Default for HyperSpecHac {
    fn default() -> Self {
        Self {
            threshold_fraction: 0.32,
            resolution: 1.0,
        }
    }
}

impl ClusteringTool for HyperSpecHac {
    fn name(&self) -> &'static str {
        "HyperSpec-HAC"
    }

    fn cluster(&self, dataset: &SpectrumDataset) -> ClusterAssignment {
        cluster_by_bucket(dataset, self.resolution, encode_packed, |pack, members| {
            let matrix = CondensedMatrix::from_pack(&pack.gather(members));
            let threshold = self.threshold_fraction * pack.dim() as f64;
            // fastcluster default: average linkage.
            nn_chain(&matrix, Linkage::Average)
                .dendrogram
                .cut(threshold)
        })
    }
}

/// HyperSpec with DBSCAN (the "HyperSpec-DBSCAN" flavour via cuML):
/// roughly 3× faster in the paper but with visibly lower clustering
/// quality (Fig. 10), which this parameterization reproduces.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperSpecDbscan {
    /// Neighborhood radius as a fraction of the dimensionality.
    pub eps_fraction: f64,
    /// DBSCAN core-point threshold.
    pub min_pts: usize,
    /// Bucketing resolution in Dalton.
    pub resolution: f64,
}

impl Default for HyperSpecDbscan {
    fn default() -> Self {
        Self {
            eps_fraction: 0.28,
            min_pts: 2,
            resolution: 1.0,
        }
    }
}

impl ClusteringTool for HyperSpecDbscan {
    fn name(&self) -> &'static str {
        "HyperSpec-DBSCAN"
    }

    fn cluster(&self, dataset: &SpectrumDataset) -> ClusterAssignment {
        cluster_by_bucket(dataset, self.resolution, encode_packed, |pack, members| {
            // Density query straight off the packed rows — no O(n²) matrix.
            let params = DbscanParams {
                eps: self.eps_fraction * pack.dim() as f64,
                min_pts: self.min_pts,
            };
            dbscan_packed(&pack.gather(members), params).to_assignment()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechd_metrics::ClusteringEval;
    use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};

    fn dataset(seed: u64) -> SpectrumDataset {
        SyntheticGenerator::new(SyntheticConfig {
            num_spectra: 250,
            num_peptides: 50,
            seed,
            ..SyntheticConfig::default()
        })
        .generate()
    }

    #[test]
    fn hac_clusters_replicates() {
        let ds = dataset(1);
        let a = HyperSpecHac::default().cluster(&ds);
        let eval = ClusteringEval::compute(a.labels(), ds.labels());
        assert!(eval.clustered_ratio > 0.2, "{:.3}", eval.clustered_ratio);
        assert!(eval.incorrect_ratio < 0.1, "{:.3}", eval.incorrect_ratio);
    }

    #[test]
    fn dbscan_quality_below_hac() {
        // Fig. 10: the DBSCAN flavour "lagged in clustering quality".
        let ds = dataset(2);
        let hac = HyperSpecHac::default().cluster(&ds);
        let db = HyperSpecDbscan::default().cluster(&ds);
        let e_hac = ClusteringEval::compute(hac.labels(), ds.labels());
        let e_db = ClusteringEval::compute(db.labels(), ds.labels());
        // DBSCAN either clusters less or errs more at comparable settings.
        let hac_score = e_hac.clustered_ratio - 3.0 * e_hac.incorrect_ratio;
        let db_score = e_db.clustered_ratio - 3.0 * e_db.incorrect_ratio;
        assert!(
            hac_score >= db_score - 0.05,
            "hac {hac_score:.3} vs dbscan {db_score:.3}"
        );
    }

    #[test]
    fn deterministic() {
        let ds = dataset(3);
        assert_eq!(
            HyperSpecHac::default().cluster(&ds),
            HyperSpecHac::default().cluster(&ds)
        );
    }

    #[test]
    fn threshold_monotone() {
        let ds = dataset(4);
        let tight = HyperSpecHac {
            threshold_fraction: 0.1,
            ..Default::default()
        }
        .cluster(&ds);
        let loose = HyperSpecHac {
            threshold_fraction: 0.4,
            ..Default::default()
        }
        .cluster(&ds);
        assert!(tight.clustered_ratio() <= loose.clustered_ratio() + 1e-9);
    }
}
