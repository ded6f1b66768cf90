//! falcon (Bittremieux et al., Rapid Commun. Mass Spectrom. 2021):
//! binned spectrum vectors, approximate nearest-neighbor candidate
//! retrieval within precursor tolerance, and density-based merging.
//!
//! The reimplementation keeps falcon's quality-relevant structure —
//! cosine distance over binned vectors and eps-radius transitive joining
//! (its DBSCAN step) — with exact neighbor search inside each precursor
//! bucket standing in for the ANN index (exactness only *improves*
//! fidelity at these bucket sizes).

use crate::dbscan::{dbscan, DbscanParams};
use crate::vectorize::BinnedSpectrum;
use crate::{cluster_by_bucket, ClusteringTool};
use spechd_cluster::{ClusterAssignment, CondensedMatrix};
use spechd_ms::SpectrumDataset;

/// The falcon clustering tool.
#[derive(Debug, Clone, PartialEq)]
pub struct Falcon {
    /// Cosine-distance radius for neighbor joining (falcon's `eps`).
    pub eps: f64,
    /// Minimum neighborhood size for a core spectrum.
    pub min_pts: usize,
    /// Fragment binning width in Thomson.
    pub bin_width: f64,
    /// Precursor bucketing resolution in Dalton.
    pub resolution: f64,
}

impl Default for Falcon {
    fn default() -> Self {
        Self {
            eps: 0.25,
            min_pts: 2,
            bin_width: 1.0005,
            resolution: 1.0,
        }
    }
}

impl ClusteringTool for Falcon {
    fn name(&self) -> &'static str {
        "Falcon"
    }

    fn cluster(&self, dataset: &SpectrumDataset) -> ClusterAssignment {
        let prepare = |kept: &SpectrumDataset| BinnedSpectrum::all(kept, self.bin_width);
        cluster_by_bucket(dataset, self.resolution, prepare, |vectors, members| {
            let matrix = CondensedMatrix::from_fn(members.len(), |i, j| {
                vectors[members[i]].cosine_distance(&vectors[members[j]])
            });
            let params = DbscanParams {
                eps: self.eps,
                min_pts: self.min_pts,
            };
            dbscan(&matrix, params).to_assignment()
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
    fn clusters_replicates_with_low_icr() {
        let ds = dataset(31);
        let a = Falcon::default().cluster(&ds);
        let eval = ClusteringEval::compute(a.labels(), ds.labels());
        assert!(eval.clustered_ratio > 0.15, "{:.3}", eval.clustered_ratio);
        assert!(eval.incorrect_ratio < 0.12, "{:.3}", eval.incorrect_ratio);
    }

    #[test]
    fn eps_controls_aggressiveness() {
        let ds = dataset(32);
        let tight = Falcon {
            eps: 0.05,
            ..Default::default()
        }
        .cluster(&ds);
        let loose = Falcon {
            eps: 0.5,
            ..Default::default()
        }
        .cluster(&ds);
        assert!(tight.clustered_ratio() <= loose.clustered_ratio() + 1e-9);
    }

    #[test]
    fn deterministic() {
        let ds = dataset(33);
        assert_eq!(
            Falcon::default().cluster(&ds),
            Falcon::default().cluster(&ds)
        );
    }
}
