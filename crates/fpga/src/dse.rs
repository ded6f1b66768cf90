//! Design space exploration (§I: "guided by design space exploration,
//! this combination yields notable advancements in both hardware
//! efficiency and energy conservation").
//!
//! Sweeps kernel replication, MSAS channel counts and the P2P toggle,
//! reporting feasible configurations with their time/energy and the
//! Pareto-optimal subset.

use crate::{MsasModel, SystemConfig, SystemModel, WorkloadShape};

/// One evaluated design point.
///
/// Public as the item of [`explore`] and [`pareto_front`], whose callers
/// read its fields.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Encoder kernel count.
    pub encoders: usize,
    /// Clustering kernel count.
    pub cluster_kernels: usize,
    /// MSAS NAND channel count.
    pub msas_channels: usize,
    /// Whether P2P is enabled.
    pub p2p: bool,
    /// End-to-end seconds.
    pub total_s: f64,
    /// End-to-end joules.
    pub total_j: f64,
    /// Whether the point fits the device and HBM.
    pub feasible: bool,
}

/// Sweep ranges for the exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct DseSweep {
    /// Encoder counts to try.
    pub encoders: Vec<usize>,
    /// Clustering kernel counts to try.
    pub cluster_kernels: Vec<usize>,
    /// MSAS channel counts to try.
    pub msas_channels: Vec<usize>,
}

impl Default for DseSweep {
    fn default() -> Self {
        Self {
            encoders: vec![1, 2],
            cluster_kernels: vec![1, 2, 3, 5, 8],
            msas_channels: vec![4, 8, 16],
        }
    }
}

/// Evaluates every point of the sweep on `shape`.
pub fn explore(shape: &WorkloadShape, sweep: &DseSweep) -> Vec<DesignPoint> {
    let mut points = Vec::new();
    for &enc in &sweep.encoders {
        for &ck in &sweep.cluster_kernels {
            for &ch in &sweep.msas_channels {
                for p2p in [true, false] {
                    let cfg = SystemConfig {
                        num_encoders: enc,
                        num_cluster_kernels: ck,
                        msas: MsasModel::default().with_channels(ch),
                        p2p_enabled: p2p,
                        ..SystemConfig::default()
                    };
                    let model = SystemModel::new(cfg);
                    let t = model.end_to_end(shape);
                    let e = model.end_to_end_energy(shape);
                    points.push(DesignPoint {
                        encoders: enc,
                        cluster_kernels: ck,
                        msas_channels: ch,
                        p2p,
                        total_s: t.total_s,
                        total_j: e.total_j,
                        feasible: model.feasibility(shape).is_empty(),
                    });
                }
            }
        }
    }
    points
}

/// Filters `points` down to the feasible Pareto front over
/// (time, energy): no other feasible point is at least as good on both
/// axes and strictly better on one.
pub fn pareto_front(points: &[DesignPoint]) -> Vec<DesignPoint> {
    let feasible: Vec<&DesignPoint> = points.iter().filter(|p| p.feasible).collect();
    let dominated = |p: &DesignPoint| -> bool {
        feasible.iter().any(|q| {
            (q.total_s <= p.total_s && q.total_j < p.total_j)
                || (q.total_s < p.total_s && q.total_j <= p.total_j)
        })
    };
    let mut front: Vec<DesignPoint> = feasible
        .iter()
        .filter(|p| !dominated(p))
        .map(|p| (*p).clone())
        .collect();
    front.sort_by(|a, b| a.total_s.total_cmp(&b.total_s));
    front.dedup_by(|a, b| a.total_s == b.total_s && a.total_j == b.total_j);
    front
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_grid() {
        let points = explore(&WorkloadShape::pxd001468(), &DseSweep::default());
        assert_eq!(points.len(), 2 * 5 * 3 * 2);
    }

    #[test]
    fn front_is_nonempty_and_feasible() {
        let points = explore(&WorkloadShape::pxd000561(), &DseSweep::default());
        let front = pareto_front(&points);
        assert!(!front.is_empty());
        assert!(front.iter().all(|p| p.feasible));
    }

    #[test]
    fn front_is_mutually_non_dominating() {
        let points = explore(&WorkloadShape::pxd000561(), &DseSweep::default());
        let front = pareto_front(&points);
        for a in &front {
            for b in &front {
                if a != b {
                    let dominates = a.total_s <= b.total_s
                        && a.total_j <= b.total_j
                        && (a.total_s < b.total_s || a.total_j < b.total_j);
                    assert!(!dominates, "{a:?} dominates {b:?}");
                }
            }
        }
    }

    #[test]
    fn more_kernels_never_hurts_time_on_front() {
        // The fastest point on the front should use the most clustering
        // kernels that still fit.
        let points = explore(&WorkloadShape::pxd000561(), &DseSweep::default());
        let front = pareto_front(&points);
        let fastest = front.first().unwrap();
        assert!(fastest.cluster_kernels >= 5, "{fastest:?}");
    }

    #[test]
    fn p2p_points_dominate_bounce_points() {
        // At identical kernel/channel settings, P2P is never slower.
        let points = explore(&WorkloadShape::pxd001197(), &DseSweep::default());
        for p in points.iter().filter(|p| p.p2p) {
            let twin = points.iter().find(|q| {
                !q.p2p
                    && q.encoders == p.encoders
                    && q.cluster_kernels == p.cluster_kernels
                    && q.msas_channels == p.msas_channels
            });
            if let Some(t) = twin {
                assert!(p.total_s <= t.total_s + 1e-9);
            }
        }
    }
}
