//! Dendrograms: merge trees produced by HAC, with threshold cutting.

use crate::ClusterAssignment;

/// One agglomeration step. Node ids follow the scipy convention: ids
/// `0..n` are the original points (leaves); the merge at sorted position
/// `k` creates node `n + k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// Id of the first merged node.
    pub left: usize,
    /// Id of the second merged node.
    pub right: usize,
    /// Linkage distance at which the merge happened.
    pub height: f64,
    /// Number of leaves in the created cluster.
    pub size: usize,
}

/// A full agglomeration history over `n` points, with merges sorted by
/// non-decreasing height.
///
/// # Examples
///
/// ```
/// use spechd_cluster::{CondensedMatrix, Linkage, nn_chain};
/// let m = CondensedMatrix::from_fn(3, |i, j| (i + j) as f64);
/// let d = nn_chain(&m, Linkage::Single).dendrogram;
/// assert_eq!(d.n(), 3);
/// assert_eq!(d.merges().len(), 2);
/// assert_eq!(d.cut(f64::INFINITY).num_clusters(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dendrogram {
    n: usize,
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// Builds a dendrogram from raw merge records `(a, b, height)` where
    /// `a` and `b` are *any representative original point* of the two
    /// clusters being merged. Records are sorted by height and relabelled
    /// into scipy-style node ids via union-find.
    ///
    /// For reducible linkages (all of [`crate::Linkage`]) sorting by height
    /// yields a valid agglomeration order, which is how NN-chain output is
    /// canonicalized.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, if the number of records differs from `n - 1`,
    /// or if a record references an out-of-range point.
    pub(crate) fn from_raw_merges(n: usize, mut raw: Vec<(usize, usize, f64)>) -> Self {
        assert!(n > 0, "dendrogram needs at least one point");
        assert_eq!(raw.len(), n - 1, "a full agglomeration has n-1 merges");
        raw.sort_by(|a, b| a.2.total_cmp(&b.2));

        let mut parent: Vec<usize> = (0..n).collect();
        let mut node_id: Vec<usize> = (0..n).collect();
        let mut size: Vec<usize> = vec![1; n];

        let mut merges = Vec::with_capacity(n - 1);
        for (k, (a, b, height)) in raw.into_iter().enumerate() {
            assert!(a < n && b < n, "merge record references point out of range");
            let ra = find(&mut parent, a);
            let rb = find(&mut parent, b);
            assert_ne!(ra, rb, "merge record joins points already in one cluster");
            let new_size = size[ra] + size[rb];
            let (left, right) = (node_id[ra].min(node_id[rb]), node_id[ra].max(node_id[rb]));
            merges.push(Merge {
                left,
                right,
                height,
                size: new_size,
            });
            // Union: attach rb under ra, reuse ra's slot for the new node.
            parent[rb] = ra;
            size[ra] = new_size;
            node_id[ra] = n + k;
        }
        Self { n, merges }
    }

    /// Number of original points.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The merges, sorted by non-decreasing height.
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// Heights of all merges in order.
    pub fn heights(&self) -> Vec<f64> {
        self.merges.iter().map(|m| m.height).collect()
    }

    /// Whether merge heights are non-decreasing (guaranteed by
    /// construction; exposed for tests and invariant checks).
    pub fn is_monotonic(&self) -> bool {
        self.merges.windows(2).all(|w| w[0].height <= w[1].height)
    }

    /// Cuts the tree at `threshold`: every merge with
    /// `height <= threshold` is applied, and the resulting connected
    /// components become flat clusters.
    pub fn cut(&self, threshold: f64) -> ClusterAssignment {
        let mut parent: Vec<usize> = (0..self.n + self.merges.len()).collect();

        for (k, m) in self.merges.iter().enumerate() {
            if m.height <= threshold {
                let node = self.n + k;
                let rl = find(&mut parent, m.left);
                let rr = find(&mut parent, m.right);
                parent[rl] = node;
                parent[rr] = node;
            }
        }
        let roots: Vec<usize> = (0..self.n).map(|i| find(&mut parent, i)).collect();
        ClusterAssignment::from_raw_labels(&roots)
    }
}

/// Union-find root of `x`, halving the path on the way up.
fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chain 0-1 at h=1, then {0,1}-2 at h=2, then {0,1,2}-3 at h=5.
    fn sample() -> Dendrogram {
        Dendrogram::from_raw_merges(4, vec![(2, 0, 2.0), (0, 1, 1.0), (3, 1, 5.0)])
    }

    #[test]
    fn sorting_and_node_ids() {
        let d = sample();
        assert!(d.is_monotonic());
        let m = d.merges();
        assert_eq!(m[0].height, 1.0);
        assert_eq!((m[0].left, m[0].right), (0, 1));
        assert_eq!(m[0].size, 2);
        // Second merge joins node 4 (={0,1}) with leaf 2.
        assert_eq!((m[1].left, m[1].right), (2, 4));
        assert_eq!(m[1].size, 3);
        // Third joins node 5 with leaf 3.
        assert_eq!((m[2].left, m[2].right), (3, 5));
        assert_eq!(m[2].size, 4);
    }

    #[test]
    fn cut_thresholds() {
        let d = sample();
        assert_eq!(d.cut(0.5).num_clusters(), 4);
        assert_eq!(d.cut(1.0).num_clusters(), 3);
        assert_eq!(d.cut(2.0).num_clusters(), 2);
        assert_eq!(d.cut(10.0).num_clusters(), 1);
    }

    #[test]
    fn cut_groups_correct_members() {
        let d = sample();
        let a = d.cut(2.5);
        let l = a.labels();
        assert_eq!(l[0], l[1]);
        assert_eq!(l[0], l[2]);
        assert_ne!(l[0], l[3]);
    }

    #[test]
    fn singleton_dendrogram() {
        let d = Dendrogram::from_raw_merges(1, vec![]);
        assert_eq!(d.cut(1.0).num_clusters(), 1);
        assert!(d.is_monotonic());
    }

    #[test]
    #[should_panic(expected = "n-1 merges")]
    fn wrong_merge_count_panics() {
        Dendrogram::from_raw_merges(3, vec![(0, 1, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "already in one cluster")]
    fn duplicate_merge_panics() {
        Dendrogram::from_raw_merges(3, vec![(0, 1, 1.0), (1, 0, 2.0)]);
    }

    #[test]
    fn heights_accessor() {
        assert_eq!(sample().heights(), vec![1.0, 2.0, 5.0]);
    }
}
