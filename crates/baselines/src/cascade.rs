//! The greedy-cascade clustering family: spectra-cluster (Griss et al.)
//! and MSCluster (Frank et al.) both run iterative rounds that compare
//! spectra against cluster *representatives* (a running consensus vector)
//! and merge when similarity clears a round-specific threshold that
//! loosens over rounds.

use crate::vectorize::BinnedSpectrum;
use crate::{cluster_by_bucket, ClusteringTool};
use spechd_cluster::ClusterAssignment;
use spechd_ms::SpectrumDataset;

/// A configurable greedy cascade clusterer; use
/// [`GreedyCascade::spectra_cluster`] and [`GreedyCascade::mscluster`]
/// for the two published parameterizations.
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyCascade {
    name: &'static str,
    /// Per-round cosine similarity thresholds, strictest first.
    pub round_thresholds: Vec<f64>,
    /// Fragment binning width in Thomson.
    pub bin_width: f64,
    /// Precursor bucketing resolution in Dalton.
    pub resolution: f64,
}

impl GreedyCascade {
    /// spectra-cluster's parameterization: four rounds from 0.99 to 0.85.
    pub fn spectra_cluster() -> Self {
        Self {
            name: "spectra-cluster",
            round_thresholds: vec![0.99, 0.95, 0.90, 0.85],
            bin_width: 1.0005,
            resolution: 1.0,
        }
    }

    /// MSCluster's parameterization: three faster, looser rounds.
    pub fn mscluster() -> Self {
        Self {
            name: "MSCluster",
            round_thresholds: vec![0.95, 0.88, 0.80],
            bin_width: 1.0005,
            resolution: 1.0,
        }
    }
}

/// A cluster under construction: member positions within the bucket and
/// the (unnormalized) sum of member vectors serving as the representative
/// consensus.
struct Draft {
    members: Vec<usize>,
    sum: std::collections::BTreeMap<u32, f64>,
}

impl Draft {
    fn new(member: usize, v: &BinnedSpectrum) -> Self {
        let mut sum = std::collections::BTreeMap::new();
        for &(bin, w) in v.entries() {
            sum.insert(bin, f64::from(w));
        }
        Self {
            members: vec![member],
            sum,
        }
    }

    /// Cosine of a spectrum against the representative.
    fn cosine(&self, v: &BinnedSpectrum) -> f64 {
        let norm: f64 = self.sum.values().map(|x| x * x).sum::<f64>().sqrt();
        if norm == 0.0 {
            return 0.0;
        }
        let mut dot = 0.0;
        for &(bin, w) in v.entries() {
            if let Some(&s) = self.sum.get(&bin) {
                dot += s * f64::from(w);
            }
        }
        dot / norm
    }

    fn absorb(&mut self, member: usize, v: &BinnedSpectrum) {
        self.members.push(member);
        for &(bin, w) in v.entries() {
            *self.sum.entry(bin).or_insert(0.0) += f64::from(w);
        }
    }
}

impl ClusteringTool for GreedyCascade {
    fn name(&self) -> &'static str {
        self.name
    }

    fn cluster(&self, dataset: &SpectrumDataset) -> ClusterAssignment {
        let prepare = |kept: &SpectrumDataset| BinnedSpectrum::all(kept, self.bin_width);
        cluster_by_bucket(dataset, self.resolution, prepare, |vectors, members| {
            // One draft per spectrum initially; rounds merge drafts greedily.
            let mut drafts: Vec<Draft> = members
                .iter()
                .enumerate()
                .map(|(local, &m)| Draft::new(local, &vectors[m]))
                .collect();
            for &threshold in &self.round_thresholds {
                let mut merged: Vec<Draft> = Vec::with_capacity(drafts.len());
                for draft in drafts {
                    // Try to absorb this draft's members into an existing
                    // merged cluster via its first member's vector.
                    let probe = &vectors[members[draft.members[0]]];
                    let target = merged
                        .iter_mut()
                        .map(|c| (c.cosine(probe), c))
                        .filter(|(sim, _)| *sim >= threshold)
                        .max_by(|a, b| a.0.total_cmp(&b.0));
                    match target {
                        Some((_, cluster)) => {
                            for &local in &draft.members {
                                cluster.absorb(local, &vectors[members[local]]);
                            }
                        }
                        None => merged.push(draft),
                    }
                }
                drafts = merged;
            }
            let mut raw = vec![0usize; members.len()];
            for (label, draft) in drafts.iter().enumerate() {
                for &local in &draft.members {
                    raw[local] = label;
                }
            }
            ClusterAssignment::from_raw_labels(&raw)
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
    fn both_parameterizations_work() {
        let ds = dataset(71);
        for tool in [GreedyCascade::spectra_cluster(), GreedyCascade::mscluster()] {
            let a = tool.cluster(&ds);
            let eval = ClusteringEval::compute(a.labels(), ds.labels());
            assert!(
                eval.clustered_ratio > 0.05,
                "{}: {:.3}",
                tool.name(),
                eval.clustered_ratio
            );
            assert!(
                eval.incorrect_ratio < 0.15,
                "{}: {:.3}",
                tool.name(),
                eval.incorrect_ratio
            );
        }
    }

    #[test]
    fn looser_rounds_cluster_more() {
        let ds = dataset(72);
        let strict = GreedyCascade {
            name: "strict",
            round_thresholds: vec![0.999],
            ..GreedyCascade::spectra_cluster()
        };
        let lax = GreedyCascade {
            name: "lax",
            round_thresholds: vec![0.99, 0.9, 0.7],
            ..GreedyCascade::spectra_cluster()
        };
        assert!(strict.cluster(&ds).clustered_ratio() <= lax.cluster(&ds).clustered_ratio() + 1e-9);
    }

    #[test]
    fn deterministic() {
        let ds = dataset(73);
        let t = GreedyCascade::mscluster();
        assert_eq!(t.cluster(&ds), t.cluster(&ds));
    }

    #[test]
    fn names_distinct() {
        assert_ne!(
            GreedyCascade::spectra_cluster().name(),
            GreedyCascade::mscluster().name()
        );
    }
}
