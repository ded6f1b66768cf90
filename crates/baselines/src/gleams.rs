//! GLEAMS (Bittremieux et al., Nat. Methods 2022): "a learned embedding
//! for efficient joint analysis of millions of mass spectra" — a
//! supervised DNN embeds spectra into 32 dimensions, followed by
//! clustering in the embedded space.
//!
//! **Substitution:** the trained DNN is unavailable, so the
//! embedding is a seeded Johnson–Lindenstrauss random projection of the
//! binned spectrum to the same 32 dimensions. JL projections preserve the
//! relative distances the downstream HAC consumes, reproducing GLEAMS'
//! quality behaviour (strong clustered ratio at matched ICR) without the
//! training corpus; its *runtime* cost (the expensive per-spectrum
//! inference) is modelled separately in [`crate::perf`].

use crate::vectorize::{euclidean, BinnedSpectrum};
use crate::{cluster_by_bucket, ClusteringTool};
use spechd_cluster::{nn_chain, ClusterAssignment, CondensedMatrix, Linkage};
use spechd_ms::SpectrumDataset;

/// The GLEAMS clustering tool (embedding + average-linkage HAC).
#[derive(Debug, Clone, PartialEq)]
pub struct Gleams {
    /// Embedding dimensionality (GLEAMS: 32).
    pub embed_dims: usize,
    /// HAC cut threshold in embedded Euclidean distance.
    pub threshold: f64,
    /// Fragment binning width in Thomson.
    pub bin_width: f64,
    /// Precursor bucketing resolution in Dalton.
    pub resolution: f64,
    /// Projection seed (stands in for trained weights).
    pub seed: u64,
}

impl Default for Gleams {
    fn default() -> Self {
        Self {
            embed_dims: 32,
            threshold: 0.62,
            bin_width: 1.0005,
            resolution: 1.0,
            seed: 0x61EA_A450_0000_1234,
        }
    }
}

impl ClusteringTool for Gleams {
    fn name(&self) -> &'static str {
        "GLEAMS"
    }

    fn cluster(&self, dataset: &SpectrumDataset) -> ClusterAssignment {
        let embed = |kept: &SpectrumDataset| -> Vec<Vec<f32>> {
            kept.spectra()
                .iter()
                .map(|s| {
                    let v = BinnedSpectrum::from_spectrum(s, self.bin_width)
                        .project(self.embed_dims, self.seed);
                    // Normalize embeddings to unit norm (GLEAMS trains with a
                    // contrastive loss that effectively does the same).
                    let norm: f64 = v
                        .iter()
                        .map(|&x| f64::from(x) * f64::from(x))
                        .sum::<f64>()
                        .sqrt();
                    if norm > 0.0 {
                        v.into_iter()
                            .map(|x| (f64::from(x) / norm) as f32)
                            .collect()
                    } else {
                        v
                    }
                })
                .collect()
        };
        cluster_by_bucket(dataset, self.resolution, embed, |embedded, members| {
            let matrix = CondensedMatrix::from_fn(members.len(), |i, j| {
                euclidean(&embedded[members[i]], &embedded[members[j]])
            });
            nn_chain(&matrix, Linkage::Average)
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
    use spechd_preprocess::{PreprocessConfig, PreprocessPipeline};

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
    fn strong_clustered_ratio_at_low_icr() {
        // Fig. 10: "GLEAMS surpasses Spec-HD in clustered spectra ratio".
        let ds = dataset(61);
        let a = Gleams::default().cluster(&ds);
        let eval = ClusteringEval::compute(a.labels(), ds.labels());
        assert!(eval.clustered_ratio > 0.2, "{:.3}", eval.clustered_ratio);
        assert!(eval.incorrect_ratio < 0.12, "{:.3}", eval.incorrect_ratio);
    }

    #[test]
    fn embedding_distance_orders_replicates_first() {
        let ds = dataset(62);
        let tool = Gleams::default();
        let pre = PreprocessPipeline::new(PreprocessConfig::default()).run(&ds);
        // Two spectra of the same label should embed closer than two of
        // different labels, on average.
        let emb: Vec<Vec<f32>> = pre
            .dataset
            .spectra()
            .iter()
            .map(|s| BinnedSpectrum::from_spectrum(s, tool.bin_width).project(32, tool.seed))
            .collect();
        let labels = pre.dataset.labels();
        let mut same = Vec::new();
        let mut diff = Vec::new();
        for i in 0..emb.len().min(60) {
            for j in (i + 1)..emb.len().min(60) {
                if let (Some(a), Some(b)) = (labels[i], labels[j]) {
                    let d = euclidean(&emb[i], &emb[j]);
                    if a == b {
                        same.push(d);
                    } else {
                        diff.push(d);
                    }
                }
            }
        }
        if !same.is_empty() && !diff.is_empty() {
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            assert!(mean(&same) < mean(&diff));
        }
    }

    #[test]
    fn threshold_monotone() {
        let ds = dataset(63);
        let strict = Gleams {
            threshold: 0.1,
            ..Default::default()
        }
        .cluster(&ds);
        let lax = Gleams {
            threshold: 1.2,
            ..Default::default()
        }
        .cluster(&ds);
        assert!(strict.clustered_ratio() <= lax.clustered_ratio() + 1e-9);
    }

    #[test]
    fn deterministic() {
        let ds = dataset(64);
        assert_eq!(
            Gleams::default().cluster(&ds),
            Gleams::default().cluster(&ds)
        );
    }
}
