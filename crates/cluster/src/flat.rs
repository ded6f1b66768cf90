//! Flat cluster assignments.

/// A flat clustering of `n` items: a label in `[0, num_clusters)` per item.
///
/// Labels are always canonicalized to be dense and ordered by first
/// appearance, so two assignments that induce the same partition compare
/// equal.
///
/// # Examples
///
/// ```
/// use spechd_cluster::ClusterAssignment;
/// let a = ClusterAssignment::from_raw_labels(&[7, 7, 3, 9]);
/// assert_eq!(a.labels(), &[0, 0, 1, 2]);
/// assert_eq!(a.num_clusters(), 3);
/// assert!((a.clustered_ratio() - 0.5).abs() < 1e-12); // only {0,1} is non-singleton
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterAssignment {
    labels: Vec<usize>,
    num_clusters: usize,
}

impl ClusterAssignment {
    /// Builds an assignment from arbitrary raw labels, renumbering them
    /// densely in order of first appearance.
    pub fn from_raw_labels(raw: &[usize]) -> Self {
        let mut map = std::collections::HashMap::new();
        let mut labels = Vec::with_capacity(raw.len());
        for &r in raw {
            let next = map.len();
            let id = *map.entry(r).or_insert(next);
            labels.push(id);
        }
        Self {
            labels,
            num_clusters: map.len(),
        }
    }

    /// Builds the all-singletons assignment over `n` items.
    pub fn singletons(n: usize) -> Self {
        Self {
            labels: (0..n).collect(),
            num_clusters: n,
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether there are no items.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Dense cluster label per item.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }

    /// Member indices of every cluster, indexed by label.
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.num_clusters];
        for (item, &label) in self.labels.iter().enumerate() {
            out[label].push(item);
        }
        out
    }

    /// Cluster sizes, indexed by label.
    pub fn sizes(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.num_clusters];
        for &label in &self.labels {
            out[label] += 1;
        }
        out
    }

    /// Number of singleton clusters.
    #[cfg(test)]
    fn singleton_count(&self) -> usize {
        self.sizes().iter().filter(|&&s| s == 1).count()
    }

    /// Fraction of items that belong to a non-singleton cluster — the
    /// paper's *clustered spectra ratio* (x-axis quantity of Fig. 10).
    pub fn clustered_ratio(&self) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        let sizes = self.sizes();
        let clustered: usize = sizes.iter().filter(|&&s| s > 1).sum();
        clustered as f64 / self.labels.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renumbering_dense_by_first_appearance() {
        let a = ClusterAssignment::from_raw_labels(&[42, 17, 42, 99, 17]);
        assert_eq!(a.labels(), &[0, 1, 0, 2, 1]);
        assert_eq!(a.num_clusters(), 3);
    }

    #[test]
    fn equal_partitions_compare_equal() {
        let a = ClusterAssignment::from_raw_labels(&[5, 5, 8]);
        let b = ClusterAssignment::from_raw_labels(&[1, 1, 0]);
        assert_eq!(a, b);
    }

    #[test]
    fn clusters_and_sizes() {
        let a = ClusterAssignment::from_raw_labels(&[0, 1, 0, 2, 1, 0]);
        assert_eq!(a.clusters(), vec![vec![0, 2, 5], vec![1, 4], vec![3]]);
        assert_eq!(a.sizes(), vec![3, 2, 1]);
        assert_eq!(a.singleton_count(), 1);
    }

    #[test]
    fn clustered_ratio() {
        let a = ClusterAssignment::from_raw_labels(&[0, 0, 1, 2, 3]);
        // 2 of 5 items are in the only non-singleton cluster.
        assert!((a.clustered_ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn singletons_constructor() {
        let a = ClusterAssignment::singletons(4);
        assert_eq!(a.num_clusters(), 4);
        assert_eq!(a.clustered_ratio(), 0.0);
        assert_eq!(a.singleton_count(), 4);
    }

    #[test]
    fn empty_assignment() {
        let a = ClusterAssignment::from_raw_labels(&[]);
        assert!(a.is_empty());
        assert_eq!(a.num_clusters(), 0);
        assert_eq!(a.clustered_ratio(), 0.0);
    }
}
