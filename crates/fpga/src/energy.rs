//! Device power models (the paper measures with Intel RAPL, nvidia-smi and
//! Xilinx XRT; these are the corresponding model constants).

use crate::calib;

/// Power model covering every device class in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// FPGA board power while kernels run (XRT), watts.
    pub fpga_active_w: f64,
    /// FPGA board idle power, watts.
    pub fpga_idle_w: f64,
    /// Host CPU package power under full load (RAPL), watts.
    pub cpu_active_w: f64,
    /// Host power during orchestration-only phases, watts.
    pub host_orchestration_w: f64,
    /// GPU sustained power (nvidia-smi), watts.
    pub gpu_active_w: f64,
    /// MSAS + SSD active power, watts.
    pub msas_w: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        Self {
            fpga_active_w: calib::FPGA_ACTIVE_W,
            fpga_idle_w: calib::FPGA_IDLE_W,
            cpu_active_w: calib::CPU_ACTIVE_W,
            host_orchestration_w: calib::HOST_ORCHESTRATION_W,
            gpu_active_w: calib::GPU_ACTIVE_W,
            msas_w: calib::MSAS_POWER_W,
        }
    }
}

impl PowerModel {
    /// Energy in joules for `seconds` of FPGA kernel activity.
    pub(crate) fn fpga_energy(&self, seconds: f64) -> f64 {
        self.fpga_active_w * seconds
    }

    /// Energy in joules for `seconds` of host orchestration.
    pub(crate) fn orchestration_energy(&self, seconds: f64) -> f64 {
        self.host_orchestration_w * seconds
    }

    /// Energy in joules for `seconds` of MSAS preprocessing.
    pub(crate) fn msas_energy(&self, seconds: f64) -> f64 {
        self.msas_w * seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fpga_cheaper_than_cpu_and_gpu() {
        let p = PowerModel::default();
        assert!(p.fpga_active_w < p.cpu_active_w);
        assert!(p.fpga_active_w < p.gpu_active_w);
    }

    #[test]
    fn energies_linear_in_time() {
        let p = PowerModel::default();
        assert!((p.fpga_energy(10.0) - 10.0 * p.fpga_active_w).abs() < 1e-12);
        assert!((p.msas_energy(2.0) / p.msas_energy(1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn msas_power_matches_table1_calibration() {
        let p = PowerModel::default();
        // 43.38 s at MSAS power ≈ 382.6 J (Table I, row 5).
        let e = p.msas_energy(43.38);
        assert!((e - 382.62).abs() / 382.62 < 0.05, "energy {e}");
    }
}
