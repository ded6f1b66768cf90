//! Calibrated runtime and energy cost models of the comparison tools
//! (Figs 7–9 of the paper).
//!
//! We have neither the authors' RTX 3090 nor the tools' exact binaries, so
//! speed comparisons use analytic phase models — `load + embed + cluster` —
//! whose constants are pinned to the absolute/relative numbers the paper
//! reports (each constant's provenance is documented on the constructor).
//! Quality comparisons do **not** use these models; they run the real
//! reimplementations in this crate.
//!
//! Phases and devices:
//!
//! * **load** — file parsing + preprocessing on the host CPU (prior work
//!   \[14\] attributes "an average of 82% of the total execution time" to
//!   this stage for conventional tools).
//! * **embed** — per-spectrum vectorization/encoding/DNN inference,
//!   on GPU for HyperSpec and GLEAMS.
//! * **cluster** — the clustering stage proper.

use spechd_fpga::WorkloadShape;

/// Analytic performance/energy model of one comparison tool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToolPerfModel {
    /// Tool name as used in the figures.
    pub name: &'static str,
    /// Host-side load + preprocessing rate in bytes/second.
    pub load_bytes_per_s: f64,
    /// Per-spectrum embedding/encoding seconds.
    pub embed_s_per_spectrum: f64,
    /// Power drawn during the embed phase (GPU via nvidia-smi, or CPU via
    /// RAPL), watts.
    pub embed_power_w: f64,
    /// Per-spectrum clustering seconds.
    pub cluster_s_per_spectrum: f64,
    /// Power drawn during load and clustering phases (RAPL), watts.
    pub cpu_power_w: f64,
}

impl ToolPerfModel {
    /// HyperSpec with fastcluster HAC.
    ///
    /// Calibration: Fig. 8 gives 1000 s standalone clustering on
    /// PXD000561 (21.1M spectra) → 47.4 µs/spectrum; Fig. 7 gives 6×
    /// SpecHD end-to-end → load ≈ 0.26 GB/s once GPU encoding
    /// (~700k spectra/s) and clustering are subtracted.
    pub fn hyperspec_hac() -> Self {
        Self {
            name: "HyperSpec-HAC",
            load_bytes_per_s: 0.262e9,
            embed_s_per_spectrum: 1.43e-6,
            embed_power_w: 320.0,
            cluster_s_per_spectrum: 47.4e-6,
            cpu_power_w: 120.0,
        }
    }

    /// HyperSpec with cuML DBSCAN: §IV-D — "HyperSpec-DBSCAN demonstrated
    /// a threefold lower runtime than HyperSpec-HAC" in the clustering
    /// phase. The RAPL+SMI sum during cuML DBSCAN reads close to CPU-only
    /// levels (short bursts), hence the CPU-rate power here.
    pub fn hyperspec_dbscan() -> Self {
        Self {
            cluster_s_per_spectrum: 47.4e-6 / 3.0,
            name: "HyperSpec-DBSCAN",
            ..Self::hyperspec_hac()
        }
    }

    /// GLEAMS: Fig. 7 — 31–54× slower than SpecHD end-to-end, dominated
    /// by "extensive time spent on supervised embedding"; Fig. 8 —
    /// 14.3× SpecHD in standalone clustering (≈54 µs/spectrum). DNN
    /// inference ≈ 536 µs/spectrum closes the end-to-end gap.
    pub fn gleams() -> Self {
        Self {
            name: "GLEAMS",
            load_bytes_per_s: 0.1e9,
            embed_s_per_spectrum: 536e-6,
            embed_power_w: 320.0,
            cluster_s_per_spectrum: 54.2e-6,
            cpu_power_w: 120.0,
        }
    }

    /// Falcon: Fig. 8 — "even more pronounced against Falcon, with 100x
    /// speedup" in standalone clustering (≈379 µs/spectrum for ANN index
    /// build + DBSCAN); vectorization is cheap CPU work.
    pub fn falcon() -> Self {
        Self {
            name: "Falcon",
            load_bytes_per_s: 0.262e9,
            embed_s_per_spectrum: 2.0e-6,
            embed_power_w: 120.0,
            cluster_s_per_spectrum: 379e-6,
            cpu_power_w: 120.0,
        }
    }

    /// msCRUSH: LSH clustering sits between HyperSpec and Falcon
    /// (Fig. 7 places it mid-pack); ≈80 µs/spectrum.
    pub fn mscrush() -> Self {
        Self {
            name: "msCRUSH",
            load_bytes_per_s: 0.262e9,
            embed_s_per_spectrum: 2.0e-6,
            embed_power_w: 120.0,
            cluster_s_per_spectrum: 80e-6,
            cpu_power_w: 120.0,
        }
    }

    /// The four tools of Fig. 7, in the paper's order.
    pub fn fig7_tools() -> [ToolPerfModel; 4] {
        [
            Self::gleams(),
            Self::hyperspec_hac(),
            Self::mscrush(),
            Self::falcon(),
        ]
    }

    /// Load-phase seconds.
    pub fn load_s(&self, shape: &WorkloadShape) -> f64 {
        shape.raw_bytes as f64 / self.load_bytes_per_s
    }

    /// Embed-phase seconds.
    fn embed_s(&self, shape: &WorkloadShape) -> f64 {
        shape.num_spectra as f64 * self.embed_s_per_spectrum
    }

    /// Clustering-phase seconds (the Fig. 8 quantity).
    pub fn clustering_s(&self, shape: &WorkloadShape) -> f64 {
        shape.num_spectra as f64 * self.cluster_s_per_spectrum
    }

    /// End-to-end seconds (the Fig. 7 quantity).
    pub fn end_to_end_s(&self, shape: &WorkloadShape) -> f64 {
        self.load_s(shape) + self.embed_s(shape) + self.clustering_s(shape)
    }

    /// End-to-end energy in joules (RAPL for CPU phases + SMI for GPU
    /// phases, as the paper measures).
    pub fn end_to_end_energy_j(&self, shape: &WorkloadShape) -> f64 {
        (self.load_s(shape) + self.clustering_s(shape)) * self.cpu_power_w
            + self.embed_s(shape) * self.embed_power_w
    }

    /// Clustering-phase energy in joules (the Fig. 9b quantity).
    pub fn clustering_energy_j(&self, shape: &WorkloadShape) -> f64 {
        self.clustering_s(shape) * self.cpu_power_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechd_fpga::{SystemConfig, SystemModel};

    fn spechd() -> SystemModel {
        SystemModel::new(SystemConfig::default())
    }

    #[test]
    fn hyperspec_standalone_clustering_near_1000s() {
        let shape = WorkloadShape::pxd000561();
        let t = ToolPerfModel::hyperspec_hac().clustering_s(&shape);
        assert!((t - 1000.0).abs() < 10.0, "clustering {t:.0}s");
    }

    #[test]
    fn fig7_speedup_ordering_and_magnitudes() {
        // GLEAMS slowest (31-54x), HyperSpec-HAC fastest baseline (6x).
        let shape = WorkloadShape::pxd000561();
        let spechd_t = spechd().end_to_end(&shape).total_s;
        let gleams = ToolPerfModel::gleams().end_to_end_s(&shape) / spechd_t;
        let hyperspec = ToolPerfModel::hyperspec_hac().end_to_end_s(&shape) / spechd_t;
        let falcon = ToolPerfModel::falcon().end_to_end_s(&shape) / spechd_t;
        let mscrush = ToolPerfModel::mscrush().end_to_end_s(&shape) / spechd_t;
        assert!((40.0..70.0).contains(&gleams), "GLEAMS speedup {gleams:.1}");
        assert!(
            (4.0..9.0).contains(&hyperspec),
            "HyperSpec speedup {hyperspec:.1}"
        );
        assert!(gleams > falcon && falcon > mscrush && mscrush > hyperspec,
            "ordering: GLEAMS {gleams:.1} > Falcon {falcon:.1} > msCRUSH {mscrush:.1} > HyperSpec {hyperspec:.1}");
    }

    #[test]
    fn fig8_standalone_speedups() {
        let shape = WorkloadShape::pxd000561();
        let spechd_t = spechd().standalone_clustering_time(&shape);
        let hyperspec = ToolPerfModel::hyperspec_hac().clustering_s(&shape) / spechd_t;
        let gleams = ToolPerfModel::gleams().clustering_s(&shape) / spechd_t;
        let falcon = ToolPerfModel::falcon().clustering_s(&shape) / spechd_t;
        assert!(
            (8.0..20.0).contains(&hyperspec),
            "HyperSpec {hyperspec:.1} (paper 12.3x)"
        );
        assert!(
            (10.0..22.0).contains(&gleams),
            "GLEAMS {gleams:.1} (paper 14.3x)"
        );
        assert!(
            (70.0..160.0).contains(&falcon),
            "Falcon {falcon:.1} (paper ~100x)"
        );
    }

    #[test]
    fn fig9_energy_ratios() {
        let shape = WorkloadShape::pxd000561();
        let model = spechd();
        let spechd_e2e = model.end_to_end_energy(&shape).total_j;
        let spechd_cluster = model.clustering_energy(&shape);
        let hac = ToolPerfModel::hyperspec_hac();
        let db = ToolPerfModel::hyperspec_dbscan();
        let e2e_hac = hac.end_to_end_energy_j(&shape) / spechd_e2e;
        let e2e_db = db.end_to_end_energy_j(&shape) / spechd_e2e;
        let cl_hac = hac.clustering_energy_j(&shape) / spechd_cluster;
        let cl_db = db.clustering_energy_j(&shape) / spechd_cluster;
        // Paper: e2e 31x (HAC) / 14x (DBSCAN); clustering 40x / 12x.
        assert!((18.0..45.0).contains(&e2e_hac), "e2e HAC {e2e_hac:.1}");
        assert!((8.0..22.0).contains(&e2e_db), "e2e DBSCAN {e2e_db:.1}");
        assert!((25.0..60.0).contains(&cl_hac), "cluster HAC {cl_hac:.1}");
        assert!((8.0..20.0).contains(&cl_db), "cluster DBSCAN {cl_db:.1}");
        assert!(
            e2e_hac > e2e_db,
            "HAC is less efficient than DBSCAN end-to-end"
        );
        assert!(cl_hac > cl_db);
    }

    #[test]
    fn dbscan_three_times_faster_clustering() {
        let shape = WorkloadShape::pxd000561();
        let hac = ToolPerfModel::hyperspec_hac().clustering_s(&shape);
        let db = ToolPerfModel::hyperspec_dbscan().clustering_s(&shape);
        assert!((hac / db - 3.0).abs() < 0.01);
    }

    #[test]
    fn speedups_hold_across_all_table1_datasets() {
        // Fig. 7 spans all five datasets; SpecHD must win everywhere.
        for shape in WorkloadShape::table1() {
            let spechd_t = spechd().end_to_end(&shape).total_s;
            for tool in ToolPerfModel::fig7_tools() {
                let ratio = tool.end_to_end_s(&shape) / spechd_t;
                assert!(
                    ratio > 2.0,
                    "{} only {ratio:.1}x on {} spectra",
                    tool.name,
                    shape.num_spectra
                );
            }
        }
    }
}
