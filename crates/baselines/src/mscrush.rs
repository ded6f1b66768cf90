//! msCRUSH (Wang et al., J. Proteome Res. 2019): locality-sensitive
//! hashing "to avoid unnecessary pairwise comparisons between spectra",
//! followed by greedy merging of same-signature candidates.
//!
//! The reimplementation uses random-hyperplane LSH over binned vectors
//! (cosine LSH, the family msCRUSH's iterative hashing approximates) with
//! several independent tables, then union-joins candidate pairs whose true
//! cosine similarity clears the threshold.

use crate::vectorize::BinnedSpectrum;
use crate::{cluster_by_bucket, ClusteringTool};
use spechd_cluster::ClusterAssignment;
use spechd_ms::SpectrumDataset;

/// The msCRUSH clustering tool.
#[derive(Debug, Clone, PartialEq)]
pub struct MsCrush {
    /// Cosine similarity required to merge a candidate pair.
    pub min_similarity: f64,
    /// LSH signature length in bits.
    pub hash_bits: usize,
    /// Number of independent hash tables (iterations in msCRUSH terms).
    pub tables: usize,
    /// Fragment binning width in Thomson.
    pub bin_width: f64,
    /// Precursor bucketing resolution in Dalton.
    pub resolution: f64,
    /// LSH seed.
    pub seed: u64,
}

impl Default for MsCrush {
    fn default() -> Self {
        Self {
            min_similarity: 0.75,
            hash_bits: 10,
            tables: 6,
            bin_width: 1.0005,
            resolution: 1.0,
            seed: 0xC7_5118,
        }
    }
}

impl MsCrush {
    /// LSH signature: sign pattern of `hash_bits` random projections.
    fn signature(&self, v: &BinnedSpectrum, table: usize) -> u64 {
        let proj = v.project(
            self.hash_bits,
            self.seed.wrapping_add(table as u64 * 0x9E37),
        );
        let mut sig = 0u64;
        for (bit, &x) in proj.iter().enumerate() {
            if x > 0.0 {
                sig |= 1 << bit;
            }
        }
        sig
    }
}

impl ClusteringTool for MsCrush {
    fn name(&self) -> &'static str {
        "msCRUSH"
    }

    fn cluster(&self, dataset: &SpectrumDataset) -> ClusterAssignment {
        let prepare = |kept: &SpectrumDataset| BinnedSpectrum::all(kept, self.bin_width);
        cluster_by_bucket(dataset, self.resolution, prepare, |vectors, members| {
            // Union-find over the bucket's members.
            let mut parent: Vec<usize> = (0..members.len()).collect();
            fn find(parent: &mut [usize], mut x: usize) -> usize {
                while parent[x] != x {
                    parent[x] = parent[parent[x]];
                    x = parent[x];
                }
                x
            }
            for table in 0..self.tables {
                // Group members by LSH signature; verify within groups.
                let mut groups: std::collections::HashMap<u64, Vec<usize>> =
                    std::collections::HashMap::new();
                for (local, &m) in members.iter().enumerate() {
                    groups
                        .entry(self.signature(&vectors[m], table))
                        .or_default()
                        .push(local);
                }
                for group in groups.values() {
                    for (idx, &a) in group.iter().enumerate() {
                        for &b in &group[idx + 1..] {
                            let ra = find(&mut parent, a);
                            let rb = find(&mut parent, b);
                            if ra != rb
                                && vectors[members[a]].cosine(&vectors[members[b]])
                                    >= self.min_similarity
                            {
                                parent[rb] = ra;
                            }
                        }
                    }
                }
            }
            let roots: Vec<usize> = (0..members.len()).map(|i| find(&mut parent, i)).collect();
            ClusterAssignment::from_raw_labels(&roots)
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
    fn produces_low_icr_clusters() {
        let ds = dataset(41);
        let a = MsCrush::default().cluster(&ds);
        let eval = ClusteringEval::compute(a.labels(), ds.labels());
        assert!(eval.clustered_ratio > 0.1, "{:.3}", eval.clustered_ratio);
        assert!(eval.incorrect_ratio < 0.1, "{:.3}", eval.incorrect_ratio);
    }

    #[test]
    fn more_tables_cluster_at_least_as_much() {
        let ds = dataset(42);
        let few = MsCrush {
            tables: 1,
            ..Default::default()
        }
        .cluster(&ds);
        let many = MsCrush {
            tables: 10,
            ..Default::default()
        }
        .cluster(&ds);
        assert!(many.clustered_ratio() >= few.clustered_ratio() - 1e-9);
    }

    #[test]
    fn similarity_threshold_monotone() {
        let ds = dataset(43);
        let strict = MsCrush {
            min_similarity: 0.95,
            ..Default::default()
        }
        .cluster(&ds);
        let lax = MsCrush {
            min_similarity: 0.4,
            ..Default::default()
        }
        .cluster(&ds);
        assert!(strict.clustered_ratio() <= lax.clustered_ratio() + 1e-9);
    }

    #[test]
    fn deterministic() {
        let ds = dataset(44);
        assert_eq!(
            MsCrush::default().cluster(&ds),
            MsCrush::default().cluster(&ds)
        );
    }
}
