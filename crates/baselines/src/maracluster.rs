//! MaRaCluster (The & Käll, J. Proteome Res. 2016): "a fragment rarity
//! metric for clustering fragment spectra" — pairwise p-values from shared
//! *rare* peaks, then hierarchical clustering with a conservative cut.
//!
//! The reimplementation scores a pair by the sum of `−ln(frequency)` over
//! shared fragment bins, where the frequency is measured within the
//! precursor bucket (a peak shared by everything carries no evidence),
//! and feeds `exp(−score)` as the distance into complete-linkage HAC.

use crate::vectorize::BinnedSpectrum;
use crate::{cluster_by_bucket, ClusteringTool};
use spechd_cluster::{nn_chain, ClusterAssignment, CondensedMatrix, Linkage};
use spechd_ms::SpectrumDataset;

/// The MaRaCluster clustering tool.
#[derive(Debug, Clone, PartialEq)]
pub struct MaRaCluster {
    /// Distance cut threshold in `exp(−score)` space (lower = stricter;
    /// MaRaCluster is the conservative tool of the comparison).
    pub threshold: f64,
    /// Fragment binning width in Thomson.
    pub bin_width: f64,
    /// Precursor bucketing resolution in Dalton.
    pub resolution: f64,
}

impl Default for MaRaCluster {
    fn default() -> Self {
        Self {
            threshold: 0.02,
            bin_width: 1.0005,
            resolution: 1.0,
        }
    }
}

impl MaRaCluster {
    /// Rarity-weighted shared-peak score of a pair given per-bin document
    /// frequencies within the bucket.
    fn pair_score(
        a: &BinnedSpectrum,
        b: &BinnedSpectrum,
        bin_freq: &std::collections::HashMap<u32, usize>,
        bucket_size: usize,
    ) -> f64 {
        let (mut i, mut j) = (0usize, 0usize);
        let ea = a.entries();
        let eb = b.entries();
        let mut score = 0.0;
        while i < ea.len() && j < eb.len() {
            match ea[i].0.cmp(&eb[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let df = *bin_freq.get(&ea[i].0).unwrap_or(&1);
                    let freq = df as f64 / bucket_size as f64;
                    score += -(freq.min(1.0)).ln();
                    i += 1;
                    j += 1;
                }
            }
        }
        score
    }
}

impl ClusteringTool for MaRaCluster {
    fn name(&self) -> &'static str {
        "MaRaCluster"
    }

    fn cluster(&self, dataset: &SpectrumDataset) -> ClusterAssignment {
        let prepare = |kept: &SpectrumDataset| BinnedSpectrum::all(kept, self.bin_width);
        cluster_by_bucket(dataset, self.resolution, prepare, |vectors, members| {
            // Document frequency of every bin within this bucket.
            let mut bin_freq: std::collections::HashMap<u32, usize> =
                std::collections::HashMap::new();
            for &m in members {
                for &(bin, _) in vectors[m].entries() {
                    *bin_freq.entry(bin).or_insert(0) += 1;
                }
            }
            let n = members.len();
            let matrix = CondensedMatrix::from_fn(n, |i, j| {
                let score =
                    Self::pair_score(&vectors[members[i]], &vectors[members[j]], &bin_freq, n);
                (-score).exp() // strong evidence -> tiny distance
            });
            nn_chain(&matrix, Linkage::Complete)
                .dendrogram
                .cut(self.threshold)
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
    fn conservative_but_accurate() {
        let ds = dataset(51);
        let a = MaRaCluster::default().cluster(&ds);
        let eval = ClusteringEval::compute(a.labels(), ds.labels());
        assert!(eval.clustered_ratio > 0.1, "{:.3}", eval.clustered_ratio);
        assert!(
            eval.incorrect_ratio < 0.08,
            "rarity metric keeps ICR low: {:.3}",
            eval.incorrect_ratio
        );
    }

    #[test]
    fn threshold_monotone() {
        let ds = dataset(52);
        let strict = MaRaCluster {
            threshold: 0.001,
            ..Default::default()
        }
        .cluster(&ds);
        let lax = MaRaCluster {
            threshold: 0.5,
            ..Default::default()
        }
        .cluster(&ds);
        assert!(strict.clustered_ratio() <= lax.clustered_ratio() + 1e-9);
    }

    #[test]
    fn deterministic() {
        let ds = dataset(53);
        assert_eq!(
            MaRaCluster::default().cluster(&ds),
            MaRaCluster::default().cluster(&ds)
        );
    }
}
