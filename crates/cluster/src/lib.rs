//! Clustering substrate for SpecHD.
//!
//! Implements the algorithms of §II-C and §III-C of the SpecHD paper:
//!
//! * [`CondensedMatrix`] — lower-triangular pairwise distance storage
//!   (the paper retains only the lower triangle in 16-bit fixed point;
//!   [`CondensedMatrix::from_pack`] keeps exactly that form, and
//!   [`nn_chain`] and [`medoid`] work on it without widening).
//! * [`Linkage`] — Lance–Williams update rules for single, complete,
//!   average and Ward linkage (the paper's kernel supports all of these;
//!   complete linkage is its default).
//! * [`nn_chain`] — the Nearest-Neighbor-Chain HAC algorithm (Murtagh &
//!   Contreras 2011): O(n²) time, no full-matrix re-scan per merge.
//! * [`naive_hac`] — the classic O(n³) HAC baseline the paper compares
//!   against in Fig. 2.
//! * [`Dendrogram`] — merge tree with threshold cutting into flat clusters.
//! * [`medoid`] — consensus selection: the member with the lowest average
//!   distance to the rest of its cluster, per §III-C.
//! * [`cluster_shard`] — the one per-bucket kernel (distance matrix →
//!   NN-chain → cut → medoids), and [`ShardLabelMerger`] — deterministic
//!   stitching of independent per-bucket clusterings into one global
//!   [`ClusterAssignment`]; shared by the batch, streaming and
//!   incremental paths.
//!
//! # Example
//!
//! ```
//! use spechd_cluster::{nn_chain, CondensedMatrix, Linkage};
//!
//! // Two tight pairs far apart: {0,1} and {2,3}.
//! let m = CondensedMatrix::from_fn(4, |i, j| {
//!     if (i < 2) == (j < 2) { 1.0 } else { 10.0 }
//! });
//! let dendrogram = nn_chain(&m, Linkage::Complete).dendrogram;
//! let labels = dendrogram.cut(5.0);
//! assert_eq!(labels.labels()[0], labels.labels()[1]);
//! assert_eq!(labels.labels()[2], labels.labels()[3]);
//! assert_ne!(labels.labels()[0], labels.labels()[2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod condensed;
mod consensus;
mod dendrogram;
mod flat;
mod linkage;
mod merge;
mod naive;
mod nnchain;

pub use condensed::CondensedMatrix;
pub use consensus::{medoid, medoid_all};
pub use dendrogram::{Dendrogram, Merge};
pub use flat::ClusterAssignment;
pub use linkage::Linkage;
pub use merge::{cluster_shard, ShardClustering, ShardLabelMerger};
pub use naive::naive_hac;
pub use nnchain::nn_chain;

/// Statistics describing the work performed by a HAC run; the currency of
/// the paper's Fig. 2 (naive vs NN-chain) comparison and the cycle model
/// in `spechd-fpga`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HacStats {
    /// Pairwise distance comparisons performed while searching minima.
    pub comparisons: u64,
    /// Lance–Williams distance updates applied after merges.
    pub updates: u64,
    /// Number of merges (always `n - 1` for a complete run).
    pub merges: u64,
}

/// Output of a HAC run: the merge tree plus work statistics.
#[derive(Debug, Clone)]
pub struct HacResult {
    /// The dendrogram (merges sorted by height).
    pub dendrogram: Dendrogram,
    /// Work counters.
    pub stats: HacStats,
}
