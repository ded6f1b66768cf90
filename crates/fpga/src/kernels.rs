//! Cycle models of the HLS kernels (Fig. 3 / §III of the paper).
//!
//! Each model converts operation counts into cycles at the kernel clock;
//! the constants live in [`crate::calib`] with their provenance.

use crate::calib;

/// Cycle model of one ID-Level encoder kernel (§III-B): pipelined over
/// peaks with the ID/Level arrays partitioned for II = 1, plus a
/// majority/writeback epilogue per spectrum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncoderKernelModel {
    /// Kernel clock in Hz.
    pub clock_hz: f64,
    /// Peaks consumed per cycle in steady state.
    pub peaks_per_cycle: f64,
    /// Epilogue cycles per spectrum (majority + HBM writeback).
    pub writeback_cycles: f64,
}

impl Default for EncoderKernelModel {
    fn default() -> Self {
        Self {
            clock_hz: calib::KERNEL_CLOCK_HZ,
            peaks_per_cycle: calib::ENCODER_PEAKS_PER_CYCLE,
            writeback_cycles: calib::ENCODER_WRITEBACK_CYCLES,
        }
    }
}

impl EncoderKernelModel {
    /// Cycles to encode `num_spectra` spectra with `peaks_per_spectrum`
    /// average surviving peaks.
    fn cycles(&self, num_spectra: u64, peaks_per_spectrum: f64) -> f64 {
        num_spectra as f64 * (peaks_per_spectrum / self.peaks_per_cycle + self.writeback_cycles)
    }

    /// Wall-clock seconds for the same workload on `replicas` parallel
    /// encoder kernels.
    pub fn time(&self, num_spectra: u64, peaks_per_spectrum: f64, replicas: usize) -> f64 {
        assert!(replicas > 0, "need at least one encoder");
        self.cycles(num_spectra, peaks_per_spectrum) / self.clock_hz / replicas as f64
    }

    /// Encoding throughput of one kernel in spectra/second.
    pub fn throughput(&self, peaks_per_spectrum: f64) -> f64 {
        self.clock_hz / (peaks_per_spectrum / self.peaks_per_cycle + self.writeback_cycles)
    }
}

/// Cycle model of the pairwise-distance stage: a fully unrolled
/// `Dhv`-bit XOR feeding a popcount adder tree, one hypervector pair per
/// cycle ("a fast unrolled XOR and an efficient popcount module, both
/// parameterized for Dhv bits").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceKernelModel {
    /// Kernel clock in Hz.
    pub clock_hz: f64,
    /// Pairs retired per cycle.
    pub pairs_per_cycle: f64,
}

impl Default for DistanceKernelModel {
    fn default() -> Self {
        Self {
            clock_hz: calib::KERNEL_CLOCK_HZ,
            pairs_per_cycle: calib::DISTANCE_PAIRS_PER_CYCLE,
        }
    }
}

impl DistanceKernelModel {
    /// Number of pairs in a bucket of `n` spectra.
    pub fn pairs(n: u64) -> u64 {
        n * n.saturating_sub(1) / 2
    }

    /// Cycles to fill the lower-triangular matrix for one bucket of `n`.
    fn cycles(&self, n: u64) -> f64 {
        Self::pairs(n) as f64 / self.pairs_per_cycle
    }
}

/// Cycle model of the NN-chain engine (§III-C): chain scans read the
/// partitioned distance row `scan_lanes` entries per cycle; merges apply
/// Lance–Williams updates `update_lanes` entries per cycle; the medoid
/// consensus pass re-reads the original matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NnChainKernelModel {
    /// Kernel clock in Hz.
    pub clock_hz: f64,
    /// Parallel scan lanes.
    pub scan_lanes: f64,
    /// Parallel update lanes.
    pub update_lanes: f64,
    /// Comparisons per n² (empirical, from `spechd-cluster` counters).
    pub comparisons_per_n2: f64,
    /// Updates per n².
    pub updates_per_n2: f64,
    /// Consensus accumulate ops per n².
    pub consensus_per_n2: f64,
}

impl Default for NnChainKernelModel {
    fn default() -> Self {
        Self {
            clock_hz: calib::KERNEL_CLOCK_HZ,
            scan_lanes: calib::NNCHAIN_SCAN_LANES,
            update_lanes: calib::NNCHAIN_UPDATE_LANES,
            comparisons_per_n2: calib::NNCHAIN_COMPARISONS_PER_N2,
            updates_per_n2: calib::NNCHAIN_UPDATES_PER_N2,
            consensus_per_n2: calib::CONSENSUS_OPS_PER_N2,
        }
    }
}

impl NnChainKernelModel {
    /// Cycles for the NN-chain agglomeration of one bucket of `n`.
    fn cluster_cycles(&self, n: u64) -> f64 {
        let n2 = (n as f64) * (n as f64);
        n2 * self.comparisons_per_n2 / self.scan_lanes
            + n2 * self.updates_per_n2 / self.update_lanes
    }

    /// Cycles for the consensus (medoid) pass of one bucket of `n`.
    fn consensus_cycles(&self, n: u64) -> f64 {
        (n as f64) * (n as f64) * self.consensus_per_n2 / self.scan_lanes
    }

    /// Full per-bucket cycles: distance fill + agglomeration + consensus.
    pub(crate) fn bucket_cycles(&self, distance: &DistanceKernelModel, n: u64) -> f64 {
        distance.cycles(n) + self.cluster_cycles(n) + self.consensus_cycles(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoder_throughput_at_paper_scale() {
        // 50 peaks/spectrum at 300 MHz, 1 peak/cycle + 4 writeback cycles:
        // ≈5.5M spectra/s. One encoder covers 21.1M spectra in ~4 s.
        let enc = EncoderKernelModel::default();
        let tp = enc.throughput(50.0);
        assert!((5e6..6e6).contains(&tp), "throughput {tp}");
        let t = enc.time(21_100_000, 50.0, 1);
        assert!(t > 2.0 && t < 6.0, "encode time {t}");
    }

    #[test]
    fn encoder_replicas_scale_linearly() {
        let enc = EncoderKernelModel::default();
        let t1 = enc.time(1_000_000, 50.0, 1);
        let t2 = enc.time(1_000_000, 50.0, 2);
        assert!((t1 / t2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn distance_pairs_formula() {
        assert_eq!(DistanceKernelModel::pairs(0), 0);
        assert_eq!(DistanceKernelModel::pairs(1), 0);
        assert_eq!(DistanceKernelModel::pairs(5), 10);
        assert_eq!(DistanceKernelModel::pairs(5000), 12_497_500);
    }

    #[test]
    fn bucket_cycles_dominated_by_distance_for_large_buckets() {
        let nn = NnChainKernelModel::default();
        let dist = DistanceKernelModel::default();
        let n = 5000;
        let d = dist.cycles(n);
        let c = nn.cluster_cycles(n);
        let total = nn.bucket_cycles(&dist, n);
        assert!(
            d > c,
            "distance fill ({d}) should dominate chain work ({c})"
        );
        assert!(total > d);
    }

    #[test]
    fn nnchain_scan_lanes_speed_up_clustering() {
        let mut nn = NnChainKernelModel::default();
        let base = nn.cluster_cycles(1000);
        nn.scan_lanes *= 2.0;
        nn.update_lanes *= 2.0;
        assert!((base / nn.cluster_cycles(1000) - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one encoder")]
    fn zero_replicas_panics() {
        EncoderKernelModel::default().time(10, 50.0, 0);
    }
}
