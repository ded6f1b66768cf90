//! MSAS near-storage preprocessing accelerator model (Table I).

use crate::calib;

/// Model of the MSAS SSD-embedded preprocessing accelerator [Xu et al.,
/// DAC 2022], which parses, filters, top-k-selects and normalizes spectra
/// inside the SSD, "achieving peak bandwidth equivalent to external SSDs".
///
/// Calibrated against Table I of the SpecHD paper: effective bandwidth
/// ≈3.02 GB/s and power ≈9.1 W reproduce all five rows within 8%.
///
/// # Examples
///
/// ```
/// use spechd_fpga::MsasModel;
/// let msas = MsasModel::default();
/// // Table I row 5: 131 GB in 43.38 s.
/// let t = msas.preprocess_time(131_000_000_000);
/// assert!((t - 43.38).abs() / 43.38 < 0.08);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsasModel {
    /// Number of NAND channels feeding the accelerator.
    pub nand_channels: usize,
    /// Per-channel sustained bandwidth in bytes/second.
    pub channel_bandwidth_bps: f64,
    /// Active power of the accelerator plus NAND activity, watts.
    pub power_w: f64,
    /// Fixed job setup time in seconds.
    pub setup_s: f64,
}

impl Default for MsasModel {
    fn default() -> Self {
        // 8 channels × 377.5 MB/s = 3.02 GB/s, the Table-I calibration.
        Self {
            nand_channels: 8,
            channel_bandwidth_bps: calib::MSAS_BANDWIDTH_BPS / 8.0,
            power_w: calib::MSAS_POWER_W,
            setup_s: calib::MSAS_SETUP_S,
        }
    }
}

impl MsasModel {
    /// Effective aggregate bandwidth in bytes/second.
    pub fn bandwidth(&self) -> f64 {
        self.nand_channels as f64 * self.channel_bandwidth_bps
    }

    /// Preprocessing time for a raw dataset of `bytes`, in seconds.
    pub fn preprocess_time(&self, bytes: u64) -> f64 {
        self.setup_s + bytes as f64 / self.bandwidth()
    }

    /// Preprocessing energy for a raw dataset of `bytes`, in joules.
    pub fn preprocess_energy(&self, bytes: u64) -> f64 {
        self.preprocess_time(bytes) * self.power_w
    }

    /// A DSE variant with a different channel count (bandwidth scales,
    /// power scales sublinearly: the controller logic is shared).
    pub(crate) fn with_channels(&self, channels: usize) -> MsasModel {
        assert!(channels > 0, "need at least one NAND channel");
        let base_controller_w = 2.5;
        let per_channel_w = (self.power_w - base_controller_w) / self.nand_channels as f64;
        MsasModel {
            nand_channels: channels,
            channel_bandwidth_bps: self.channel_bandwidth_bps,
            power_w: base_controller_w + per_channel_w * channels as f64,
            setup_s: self.setup_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table I of the paper: (bytes, seconds, joules).
    const TABLE1: [(u64, f64, f64); 5] = [
        (5_600_000_000, 1.79, 17.38),
        (25_000_000_000, 8.22, 77.27),
        (54_000_000_000, 18.44, 166.53),
        (87_000_000_000, 28.53, 268.22),
        (131_000_000_000, 43.38, 382.62),
    ];

    #[test]
    fn reproduces_table1_times_within_8_percent() {
        let msas = MsasModel::default();
        for (bytes, secs, _) in TABLE1 {
            let t = msas.preprocess_time(bytes);
            let err = (t - secs).abs() / secs;
            assert!(err < 0.08, "{bytes}: model {t:.2}s vs paper {secs}s");
        }
    }

    #[test]
    fn reproduces_table1_energy_within_10_percent() {
        let msas = MsasModel::default();
        for (bytes, _, joules) in TABLE1 {
            let e = msas.preprocess_energy(bytes);
            let err = (e - joules).abs() / joules;
            assert!(err < 0.10, "{bytes}: model {e:.1}J vs paper {joules}J");
        }
    }

    #[test]
    fn more_channels_more_bandwidth() {
        let base = MsasModel::default();
        let wide = base.with_channels(16);
        assert!(wide.bandwidth() > base.bandwidth() * 1.9);
        assert!(wide.power_w > base.power_w);
        assert!(
            wide.power_w < base.power_w * 2.0,
            "controller power is shared"
        );
    }

    #[test]
    fn energy_proportional_to_time() {
        let msas = MsasModel::default();
        let e = msas.preprocess_energy(10_000_000_000);
        let t = msas.preprocess_time(10_000_000_000);
        assert!((e / t - msas.power_w).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_channels_panics() {
        MsasModel::default().with_channels(0);
    }
}
