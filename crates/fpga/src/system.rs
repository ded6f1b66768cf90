//! The composed system model: Fig. 3's dataflow as a timeline.

use crate::kernels::{DistanceKernelModel, EncoderKernelModel, NnChainKernelModel};
use crate::{calib, AlveoU280, HbmModel, MsasModel, NvmeModel, PowerModel, WorkloadShape};

/// System configuration: how many of each kernel, plus the component
/// models. The default is the paper's deployed layout — "a single encoder
/// and 5 clustering kernels" (§IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Number of encoder kernels.
    pub num_encoders: usize,
    /// Number of NN-chain clustering kernels.
    pub num_cluster_kernels: usize,
    /// Whether spectra reach HBM over P2P (true, the paper's path) or
    /// bounce through host DRAM.
    pub p2p_enabled: bool,
    /// Component models.
    pub msas: MsasModel,
    /// NVMe transfer model.
    pub nvme: NvmeModel,
    /// HBM model.
    pub hbm: HbmModel,
    /// Encoder kernel cycle model.
    pub encoder: EncoderKernelModel,
    /// Distance stage cycle model.
    pub distance: DistanceKernelModel,
    /// NN-chain kernel cycle model.
    pub nnchain: NnChainKernelModel,
    /// Power model.
    pub power: PowerModel,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            num_encoders: 1,
            num_cluster_kernels: 5,
            p2p_enabled: true,
            msas: MsasModel::default(),
            nvme: NvmeModel::default(),
            hbm: HbmModel::default(),
            encoder: EncoderKernelModel::default(),
            distance: DistanceKernelModel::default(),
            nnchain: NnChainKernelModel::default(),
            power: PowerModel::default(),
        }
    }
}

/// Per-stage wall-clock breakdown of one end-to-end run, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Timeline {
    /// Near-storage preprocessing (MSAS).
    pub preprocess_s: f64,
    /// NVMe → HBM transfer of preprocessed spectra.
    pub transfer_s: f64,
    /// ID-Level encoding.
    pub encode_s: f64,
    /// Distance fill + NN-chain + consensus across all buckets.
    pub cluster_s: f64,
    /// Host orchestration and result collection.
    pub host_s: f64,
    /// Total end-to-end seconds.
    pub total_s: f64,
}

/// Per-stage energy breakdown of one run, in joules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// MSAS preprocessing energy.
    pub msas_j: f64,
    /// FPGA kernel energy (encode + cluster + transfer windows).
    pub fpga_j: f64,
    /// Host orchestration energy.
    pub host_j: f64,
    /// Total joules.
    pub total_j: f64,
}

/// The analytic SpecHD system model.
///
/// # Examples
///
/// ```
/// use spechd_fpga::{SystemConfig, SystemModel, WorkloadShape};
/// let model = SystemModel::new(SystemConfig::default());
/// let t = model.end_to_end(&WorkloadShape::pxd000561());
/// assert!(t.cluster_s < t.total_s);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemModel {
    config: SystemConfig,
}

impl SystemModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if kernel counts are zero.
    pub fn new(config: SystemConfig) -> Self {
        assert!(config.num_encoders > 0, "need at least one encoder");
        assert!(
            config.num_cluster_kernels > 0,
            "need at least one clustering kernel"
        );
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Preprocessed bytes shipped over PCIe for a workload.
    fn preprocessed_bytes(&self, shape: &WorkloadShape) -> u64 {
        (shape.num_spectra as f64 * calib::preprocessed_bytes_per_spectrum(50)) as u64
    }

    /// Seconds for the standalone clustering phase (pre-encoded vectors
    /// already resident in HBM) — the Fig. 8 quantity.
    pub fn standalone_clustering_time(&self, shape: &WorkloadShape) -> f64 {
        let buckets = shape.num_buckets();
        let mean = shape.mean_bucket_size as u64;
        let per_bucket = self
            .config
            .nnchain
            .bucket_cycles(&self.config.distance, mean);
        let total_cycles = per_bucket * buckets as f64;
        let parallel = self.config.num_cluster_kernels as f64 * calib::KERNEL_LOAD_BALANCE;
        // HBM streaming of hypervectors into the kernels overlaps with the
        // dataflow but bounds throughput from below.
        let hv_stream_s = self
            .config
            .hbm
            .transfer_time(HbmModel::hv_bytes(shape.num_spectra, shape.dim));
        (total_cycles / self.config.nnchain.clock_hz / parallel).max(hv_stream_s)
    }

    /// Seconds for the encoding phase.
    fn encode_time(&self, shape: &WorkloadShape) -> f64 {
        self.config.encoder.time(
            shape.num_spectra,
            shape.peaks_per_spectrum,
            self.config.num_encoders,
        )
    }

    /// Full end-to-end timeline for a workload (Fig. 7 quantity).
    pub fn end_to_end(&self, shape: &WorkloadShape) -> Timeline {
        let preprocess_s = self.config.msas.preprocess_time(shape.raw_bytes);
        let bytes = self.preprocessed_bytes(shape);
        let transfer_s = if self.config.p2p_enabled {
            self.config.nvme.p2p_time(bytes)
        } else {
            self.config.nvme.host_bounce_time(bytes)
        };
        let encode_s = self.encode_time(shape);
        let cluster_s = self.standalone_clustering_time(shape);
        let host_s =
            calib::FPGA_SETUP_S + shape.num_spectra as f64 * calib::HOST_OVERHEAD_PER_SPECTRUM_S;
        let total_s = preprocess_s + transfer_s + encode_s + cluster_s + host_s;
        Timeline {
            preprocess_s,
            transfer_s,
            encode_s,
            cluster_s,
            host_s,
            total_s,
        }
    }

    /// Energy breakdown for a full run (Fig. 9a quantity).
    pub fn end_to_end_energy(&self, shape: &WorkloadShape) -> EnergyBreakdown {
        let t = self.end_to_end(shape);
        let p = &self.config.power;
        let msas_j = p.msas_energy(t.preprocess_s);
        let fpga_j = p.fpga_energy(t.transfer_s + t.encode_s + t.cluster_s)
            + p.fpga_idle_w * (t.preprocess_s + t.host_s);
        let host_j = p.orchestration_energy(t.host_s);
        EnergyBreakdown {
            msas_j,
            fpga_j,
            host_j,
            total_j: msas_j + fpga_j + host_j,
        }
    }

    /// Energy of the standalone clustering phase (Fig. 9b quantity).
    pub fn clustering_energy(&self, shape: &WorkloadShape) -> f64 {
        self.config
            .power
            .fpga_energy(self.standalone_clustering_time(shape))
    }

    /// Checks that the configuration fits the U280 and the working set
    /// fits HBM; returns a human-readable list of violations (empty =
    /// feasible).
    pub fn feasibility(&self, shape: &WorkloadShape) -> Vec<String> {
        let mut problems = Vec::new();
        if !AlveoU280::fits(
            self.config.num_encoders,
            self.config.num_cluster_kernels,
            shape.dim,
            2048,
            64,
            shape.mean_bucket_size as usize * 2,
        ) {
            problems.push(format!(
                "{} encoders + {} clustering kernels exceed U280 fabric",
                self.config.num_encoders, self.config.num_cluster_kernels
            ));
        }
        let hv_bytes = HbmModel::hv_bytes(shape.num_spectra, shape.dim);
        if !self.config.hbm.fits(hv_bytes) {
            problems.push(format!(
                "hypervector working set {:.1} GB exceeds HBM capacity",
                hv_bytes as f64 / 1e9
            ));
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> SystemModel {
        SystemModel::new(SystemConfig::default())
    }

    #[test]
    fn pxd000561_clustering_near_80_seconds() {
        // Fig. 8: "Spec-HD clocked in at 80 seconds" for PXD000561
        // standalone clustering.
        let t = model().standalone_clustering_time(&WorkloadShape::pxd000561());
        assert!((55.0..110.0).contains(&t), "clustering time {t:.1}s");
    }

    #[test]
    fn pxd000561_end_to_end_about_five_minutes() {
        // §I / §V: the 131 GB human proteome clusters "in just 5 minutes".
        let t = model().end_to_end(&WorkloadShape::pxd000561());
        assert!(
            (180.0..420.0).contains(&t.total_s),
            "end-to-end {:.0}s",
            t.total_s
        );
        // And preprocessing matches Table I within the MSAS tolerance.
        assert!((t.preprocess_s - 43.38).abs() / 43.38 < 0.08);
    }

    #[test]
    fn timeline_components_sum() {
        let t = model().end_to_end(&WorkloadShape::pxd003258());
        let sum = t.preprocess_s + t.transfer_s + t.encode_s + t.cluster_s + t.host_s;
        assert!((sum - t.total_s).abs() < 1e-9);
    }

    #[test]
    fn more_cluster_kernels_speed_up_clustering() {
        let mut cfg = SystemConfig::default();
        let slow = SystemModel::new(cfg).standalone_clustering_time(&WorkloadShape::pxd000561());
        cfg.num_cluster_kernels = 10;
        let fast = SystemModel::new(cfg).standalone_clustering_time(&WorkloadShape::pxd000561());
        assert!(fast < slow);
    }

    #[test]
    fn p2p_beats_host_bounce_end_to_end() {
        let mut cfg = SystemConfig::default();
        let with_p2p = SystemModel::new(cfg).end_to_end(&WorkloadShape::pxd001197());
        cfg.p2p_enabled = false;
        let without = SystemModel::new(cfg).end_to_end(&WorkloadShape::pxd001197());
        assert!(without.transfer_s > with_p2p.transfer_s);
    }

    #[test]
    fn energy_breakdown_sums() {
        let e = model().end_to_end_energy(&WorkloadShape::pxd000561());
        assert!((e.total_j - (e.msas_j + e.fpga_j + e.host_j)).abs() < 1e-6);
        assert!(e.total_j > 0.0);
    }

    #[test]
    fn pxd000561_energy_order_of_magnitude() {
        // SpecHD end-to-end energy should be O(10 kJ) — the basis of the
        // 31× efficiency claim against a ~350 kJ GPU+CPU pipeline.
        let e = model().end_to_end_energy(&WorkloadShape::pxd000561());
        assert!(
            (5_000.0..30_000.0).contains(&e.total_j),
            "total energy {:.0} J",
            e.total_j
        );
    }

    #[test]
    fn paper_configuration_is_feasible() {
        let problems = model().feasibility(&WorkloadShape::pxd000561());
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn infeasible_configuration_detected() {
        let cfg = SystemConfig {
            num_cluster_kernels: 64,
            ..SystemConfig::default()
        };
        let m = SystemModel::new(cfg);
        assert!(!m.feasibility(&WorkloadShape::pxd000561()).is_empty());
    }

    #[test]
    fn smaller_datasets_run_faster() {
        let small = model().end_to_end(&WorkloadShape::pxd001468());
        let large = model().end_to_end(&WorkloadShape::pxd000561());
        assert!(small.total_s < large.total_s / 5.0);
    }

    #[test]
    #[should_panic(expected = "at least one encoder")]
    fn zero_encoders_panics() {
        let cfg = SystemConfig {
            num_encoders: 0,
            ..SystemConfig::default()
        };
        SystemModel::new(cfg);
    }
}
