//! HBM2 transfer model.

use crate::calib;

/// High Bandwidth Memory model for the U280's 8 GB HBM2 stack.
///
/// The encoder stores spectrum hypervectors in HBM ("the resultant
/// high-dimensional vectors are stored in High Bandwidth Memory"), and the
/// clustering kernels stream them back out; this model prices those moves.
///
/// # Examples
///
/// ```
/// use spechd_fpga::HbmModel;
/// let hbm = HbmModel::default();
/// // 3.68 GB of hypervectors stream in about 10 ms at effective bandwidth.
/// let t = hbm.transfer_time(3_680_000_000);
/// assert!(t > 0.005 && t < 0.02);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HbmModel {
    /// Peak aggregate bandwidth in bytes/second.
    pub peak_bandwidth_bps: f64,
    /// Sustained fraction of peak for streaming access patterns.
    pub efficiency: f64,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
}

impl Default for HbmModel {
    fn default() -> Self {
        Self {
            peak_bandwidth_bps: calib::HBM_BANDWIDTH_BPS,
            efficiency: calib::HBM_EFFICIENCY,
            capacity_bytes: calib::HBM_CAPACITY_BYTES,
        }
    }
}

impl HbmModel {
    /// Effective sustained bandwidth in bytes/second.
    fn effective_bandwidth(&self) -> f64 {
        self.peak_bandwidth_bps * self.efficiency
    }

    /// Time to move `bytes` through HBM, in seconds.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.effective_bandwidth()
    }

    /// Whether a working set fits in capacity.
    pub fn fits(&self, bytes: u64) -> bool {
        bytes <= self.capacity_bytes
    }

    /// Bytes of hypervector storage for `n` spectra at `dim` bits — the
    /// quantity that must fit for single-pass clustering (the GPU-memory
    /// ceiling HyperSpec struggles with, §II-B).
    pub fn hv_bytes(n: u64, dim: usize) -> u64 {
        n * (dim as u64).div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_below_peak() {
        let hbm = HbmModel::default();
        assert!(hbm.effective_bandwidth() < hbm.peak_bandwidth_bps);
    }

    #[test]
    fn human_proteome_hvs_fit_hbm() {
        // 21.1M spectra × 256 B = 5.4 GB < 8 GB: the paper's single-pass
        // claim is feasible, unlike a 24 GB GPU holding raw spectra.
        let bytes = HbmModel::hv_bytes(21_100_000, 2048);
        assert_eq!(bytes, 21_100_000 * 256);
        assert!(HbmModel::default().fits(bytes));
    }

    #[test]
    fn raw_spectra_do_not_fit() {
        // The same dataset as raw preprocessed peaks (~616 B/spectrum) also
        // fits, but the full 131 GB raw file clearly does not.
        assert!(!HbmModel::default().fits(131_000_000_000));
    }

    #[test]
    fn transfer_time_linear() {
        let hbm = HbmModel::default();
        let t1 = hbm.transfer_time(1_000_000_000);
        let t2 = hbm.transfer_time(2_000_000_000);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }
}
