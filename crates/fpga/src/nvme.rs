//! NVMe storage and PCIe peer-to-peer transfer model.

use crate::calib;

/// NVMe SSD transfer model with both the P2P path (NVMe → HBM directly,
/// the paper's configuration on the U280) and the conventional
/// host-bounce path (NVMe → host DRAM → device) for comparison.
///
/// # Examples
///
/// ```
/// use spechd_fpga::NvmeModel;
/// let nvme = NvmeModel::default();
/// let gb = 10_000_000_000u64;
/// assert!(nvme.p2p_time(gb) < nvme.host_bounce_time(gb));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NvmeModel {
    /// P2P (direct NVMe→device) bandwidth in bytes/second.
    pub p2p_bandwidth_bps: f64,
    /// Host-mediated bandwidth in bytes/second.
    pub host_bandwidth_bps: f64,
}

impl Default for NvmeModel {
    fn default() -> Self {
        Self {
            p2p_bandwidth_bps: calib::P2P_BANDWIDTH_BPS,
            host_bandwidth_bps: calib::HOST_BOUNCE_BANDWIDTH_BPS,
        }
    }
}

impl NvmeModel {
    /// Seconds to move `bytes` over the P2P path.
    pub fn p2p_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.p2p_bandwidth_bps
    }

    /// Seconds to move `bytes` through host memory.
    pub fn host_bounce_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.host_bandwidth_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_faster_than_bounce() {
        let nvme = NvmeModel::default();
        assert!(nvme.p2p_time(1 << 30) < nvme.host_bounce_time(1 << 30));
    }

    #[test]
    fn times_scale_linearly() {
        let nvme = NvmeModel::default();
        assert!((nvme.p2p_time(2_000_000) / nvme.p2p_time(1_000_000) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn preprocessed_human_proteome_transfer_under_ten_seconds() {
        // 21.1M spectra × ~616 B ≈ 13 GB → ~4 s over P2P; the transfer is
        // not the bottleneck, exactly as the paper's design intends.
        let nvme = NvmeModel::default();
        let bytes = (21_100_000.0 * crate::calib::preprocessed_bytes_per_spectrum(50)) as u64;
        assert!(nvme.p2p_time(bytes) < 10.0);
    }
}
