//! Contingency table between predicted clusters and ground-truth classes.

use std::collections::HashMap;

/// A contingency table over the *identified* items (those with
/// `Some(class)` ground truth): cell `(cluster, class)` counts co-occurring
/// items. All information-theoretic metrics derive from it.
///
/// # Examples
///
/// ```
/// use spechd_metrics::Contingency;
/// let predicted = [0, 0, 1];
/// let truth = [Some(5), Some(5), Some(6)];
/// let c = Contingency::build(&predicted, &truth);
/// assert_eq!(c.total(), 3);
/// assert!((c.purity() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Contingency {
    /// cells[(cluster, class)] = count
    cells: HashMap<(usize, u32), usize>,
    cluster_totals: HashMap<usize, usize>,
    class_totals: HashMap<u32, usize>,
    total: usize,
}

impl Contingency {
    /// Builds the table, skipping items with `None` truth.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn build(predicted: &[usize], truth: &[Option<u32>]) -> Self {
        assert_eq!(
            predicted.len(),
            truth.len(),
            "predicted/truth length mismatch"
        );
        let mut cells = HashMap::new();
        let mut cluster_totals = HashMap::new();
        let mut class_totals = HashMap::new();
        let mut total = 0usize;
        for (&k, t) in predicted.iter().zip(truth) {
            if let Some(c) = t {
                *cells.entry((k, *c)).or_insert(0) += 1;
                *cluster_totals.entry(k).or_insert(0) += 1;
                *class_totals.entry(*c).or_insert(0) += 1;
                total += 1;
            }
        }
        Self {
            cells,
            cluster_totals,
            class_totals,
            total,
        }
    }

    /// Number of identified items covered by the table.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of distinct predicted clusters containing identified items.
    pub fn num_clusters(&self) -> usize {
        self.cluster_totals.len()
    }

    fn entropy(totals: impl Iterator<Item = usize>, n: f64) -> f64 {
        let mut h = 0.0;
        for t in totals {
            if t > 0 {
                let p = t as f64 / n;
                h -= p * p.ln();
            }
        }
        h
    }

    /// Entropy of the class marginal, `H(C)`.
    fn class_entropy(&self) -> f64 {
        Self::entropy(self.class_totals.values().copied(), self.total as f64)
    }

    /// Entropy of the cluster marginal, `H(K)`.
    fn cluster_entropy(&self) -> f64 {
        Self::entropy(self.cluster_totals.values().copied(), self.total as f64)
    }

    /// Conditional entropy of classes given clusters, `H(C|K)`.
    fn class_given_cluster_entropy(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n = self.total as f64;
        let mut h = 0.0;
        for ((k, _), &count) in &self.cells {
            let p_joint = count as f64 / n;
            let p_cluster = self.cluster_totals[k] as f64 / n;
            h -= p_joint * (p_joint / p_cluster).ln();
        }
        h
    }

    /// Conditional entropy of clusters given classes, `H(K|C)`.
    fn cluster_given_class_entropy(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n = self.total as f64;
        let mut h = 0.0;
        for ((_, c), &count) in &self.cells {
            let p_joint = count as f64 / n;
            let p_class = self.class_totals[c] as f64 / n;
            h -= p_joint * (p_joint / p_class).ln();
        }
        h
    }

    /// Mutual information `I(C; K)` in nats.
    fn mutual_information(&self) -> f64 {
        (self.class_entropy() - self.class_given_cluster_entropy()).max(0.0)
    }

    /// Homogeneity: `1 − H(C|K)/H(C)` (1 when every cluster holds one
    /// class; 1 by convention when `H(C) = 0`).
    pub fn homogeneity(&self) -> f64 {
        let hc = self.class_entropy();
        if hc == 0.0 {
            return 1.0;
        }
        (1.0 - self.class_given_cluster_entropy() / hc).clamp(0.0, 1.0)
    }

    /// Completeness: `1 − H(K|C)/H(K)` (1 when every class lands in one
    /// cluster; 1 by convention when `H(K) = 0`).
    pub fn completeness(&self) -> f64 {
        let hk = self.cluster_entropy();
        if hk == 0.0 {
            return 1.0;
        }
        (1.0 - self.cluster_given_class_entropy() / hk).clamp(0.0, 1.0)
    }

    /// Purity: fraction of items belonging to their cluster's majority
    /// class (0 for an empty table).
    pub fn purity(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut majority_sum = 0usize;
        for &k in self.cluster_totals.keys() {
            let best = self
                .cells
                .iter()
                .filter(|((kk, _), _)| *kk == k)
                .map(|(_, &v)| v)
                .max()
                .unwrap_or(0);
            majority_sum += best;
        }
        majority_sum as f64 / self.total as f64
    }

    /// Normalized mutual information with arithmetic-mean normalization:
    /// `2·I(C;K) / (H(C) + H(K))`, 0 for degenerate tables.
    pub fn nmi(&self) -> f64 {
        let denom = self.class_entropy() + self.cluster_entropy();
        if denom == 0.0 {
            return 0.0;
        }
        (2.0 * self.mutual_information() / denom).clamp(0.0, 1.0)
    }

    /// Adjusted Rand index (Hubert & Arabie 1985); 0 for degenerate
    /// tables.
    pub fn ari(&self) -> f64 {
        if self.total < 2 {
            return 0.0;
        }
        let choose2 = |x: usize| -> f64 { (x as f64) * (x as f64 - 1.0) / 2.0 };
        let sum_cells: f64 = self.cells.values().map(|&v| choose2(v)).sum();
        let sum_clusters: f64 = self.cluster_totals.values().map(|&v| choose2(v)).sum();
        let sum_classes: f64 = self.class_totals.values().map(|&v| choose2(v)).sum();
        let all = choose2(self.total);
        let expected = sum_clusters * sum_classes / all;
        let max_index = 0.5 * (sum_clusters + sum_classes);
        if (max_index - expected).abs() < 1e-15 {
            return 0.0;
        }
        (sum_cells - expected) / (max_index - expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth(v: &[u32]) -> Vec<Option<u32>> {
        v.iter().map(|&x| Some(x)).collect()
    }

    #[test]
    fn totals_and_shape() {
        let c = Contingency::build(&[0, 0, 1, 1], &truth(&[1, 1, 2, 3]));
        assert_eq!(c.total(), 4);
        assert_eq!(c.num_clusters(), 2);
    }

    #[test]
    fn skips_unidentified() {
        let c = Contingency::build(&[0, 0, 1], &[Some(1), None, Some(2)]);
        assert_eq!(c.total(), 2);
    }

    #[test]
    fn entropies_of_uniform_marginals() {
        // Two classes, 2 items each: H = ln 2.
        let c = Contingency::build(&[0, 0, 1, 1], &truth(&[1, 1, 2, 2]));
        assert!((c.class_entropy() - (2.0f64).ln()).abs() < 1e-12);
        assert!((c.cluster_entropy() - (2.0f64).ln()).abs() < 1e-12);
        assert!((c.mutual_information() - (2.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn perfect_match_metrics() {
        let c = Contingency::build(&[0, 0, 1, 1], &truth(&[9, 9, 4, 4]));
        assert!((c.homogeneity() - 1.0).abs() < 1e-12);
        assert!((c.completeness() - 1.0).abs() < 1e-12);
        assert!((c.nmi() - 1.0).abs() < 1e-12);
        assert!((c.ari() - 1.0).abs() < 1e-12);
        assert!((c.purity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_partition_near_zero_mi() {
        // Classes alternate independently of clusters.
        let c = Contingency::build(&[0, 0, 1, 1], &truth(&[1, 2, 1, 2]));
        assert!(c.mutual_information().abs() < 1e-12);
        assert!(c.nmi().abs() < 1e-12);
        assert!((c.purity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn purity_majority() {
        // Cluster 0: {1,1,2} -> majority 2/3; cluster 1: {3} -> 1.
        let c = Contingency::build(&[0, 0, 0, 1], &truth(&[1, 1, 2, 3]));
        assert!((c.purity() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_table_conventions() {
        let c = Contingency::build(&[], &[]);
        assert_eq!(c.total(), 0);
        assert_eq!(c.purity(), 0.0);
        assert_eq!(c.nmi(), 0.0);
        assert_eq!(c.ari(), 0.0);
        assert_eq!(c.homogeneity(), 1.0);
        assert_eq!(c.completeness(), 1.0);
    }

    #[test]
    fn single_class_conventions() {
        let c = Contingency::build(&[0, 1], &truth(&[5, 5]));
        assert_eq!(c.homogeneity(), 1.0, "H(C)=0 convention");
        assert!(c.completeness() < 1.0, "class split across clusters");
    }

    #[test]
    fn conditional_entropy_identity() {
        // H(C) - H(C|K) == H(K) - H(K|C) == I(C;K).
        let c = Contingency::build(&[0, 0, 1, 1, 1, 2], &truth(&[1, 2, 2, 2, 3, 3]));
        let lhs = c.class_entropy() - c.class_given_cluster_entropy();
        let rhs = c.cluster_entropy() - c.cluster_given_class_entropy();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn ari_symmetric_range() {
        let c = Contingency::build(&[0, 0, 1, 1, 2, 2], &truth(&[1, 1, 1, 2, 2, 2]));
        let a = c.ari();
        assert!((-1.0..=1.0).contains(&a));
    }
}
