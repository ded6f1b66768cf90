//! The five evaluation dataset profiles from Table I of the SpecHD paper.
//!
//! Performance and energy experiments (Table I, Figs 7–9) operate on these
//! profiles at **full scale** through the analytic models in `spechd-fpga`,
//! while quality experiments run on scaled-down synthetic datasets.

/// Static description of one PRIDE evaluation dataset.
///
/// Public as the row type of [`TABLE1`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetProfile {
    /// Short name used in reports.
    pub name: &'static str,
    /// PRIDE accession.
    pub pride_id: &'static str,
    /// Sample type as given in Table I.
    pub sample_type: &'static str,
    /// Number of MS/MS spectra.
    pub num_spectra: u64,
    /// On-disk size in bytes.
    pub bytes: u64,
    /// Preprocessing time reported in Table I (seconds).
    pub paper_pp_time_s: f64,
    /// Preprocessing energy reported in Table I (joules).
    pub paper_pp_energy_j: f64,
}

/// The five rows of Table I.
pub const TABLE1: [DatasetProfile; 5] = [
    DatasetProfile {
        name: "PXD001468",
        pride_id: "PXD001468",
        sample_type: "Kidney cell",
        num_spectra: 1_100_000,
        bytes: 5_600_000_000,
        paper_pp_time_s: 1.79,
        paper_pp_energy_j: 17.38,
    },
    DatasetProfile {
        name: "PXD001197",
        pride_id: "PXD001197",
        sample_type: "Kidney cell",
        num_spectra: 1_100_000,
        bytes: 25_000_000_000,
        paper_pp_time_s: 8.22,
        paper_pp_energy_j: 77.27,
    },
    DatasetProfile {
        name: "PXD003258",
        pride_id: "PXD003258",
        sample_type: "HeLa proteins",
        num_spectra: 4_100_000,
        bytes: 54_000_000_000,
        paper_pp_time_s: 18.44,
        paper_pp_energy_j: 166.53,
    },
    DatasetProfile {
        name: "PXD001511",
        pride_id: "PXD001511",
        sample_type: "HEK293 cell",
        num_spectra: 4_200_000,
        bytes: 87_000_000_000,
        paper_pp_time_s: 28.53,
        paper_pp_energy_j: 268.22,
    },
    DatasetProfile {
        name: "PXD000561",
        pride_id: "PXD000561",
        sample_type: "Human proteome",
        num_spectra: 21_100_000,
        bytes: 131_000_000_000,
        paper_pp_time_s: 43.38,
        paper_pp_energy_j: 382.62,
    },
];

impl DatasetProfile {
    /// Looks up a profile by PRIDE accession.
    pub fn find(pride_id: &str) -> Option<&'static DatasetProfile> {
        TABLE1.iter().find(|p| p.pride_id == pride_id)
    }

    /// The largest profile (PXD000561, the human proteome draft) — the
    /// dataset used for Fig. 8's standalone-clustering comparison.
    pub fn largest() -> &'static DatasetProfile {
        &TABLE1[4]
    }

    /// Dataset size in gigabytes (decimal, as in the paper).
    pub fn gigabytes(&self) -> f64 {
        self.bytes as f64 / 1e9
    }

    /// Average raw bytes per spectrum.
    pub fn bytes_per_spectrum(&self) -> f64 {
        self.bytes as f64 / self.num_spectra as f64
    }

    /// Compression factor achieved by storing `dim`-bit hypervectors
    /// instead of the raw file: `bytes / (num_spectra * dim / 8)`.
    ///
    /// With `dim = 2048` the five Table-I profiles span ≈20–108×, matching
    /// Fig. 6b of the paper.
    pub fn compression_factor(&self, dim: usize) -> f64 {
        let hv_bytes = self.num_spectra as f64 * dim as f64 / 8.0;
        self.bytes as f64 / hv_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_row_count_and_order() {
        assert_eq!(TABLE1.len(), 5);
        // Ascending preprocessing time as in the paper's table.
        for w in TABLE1.windows(2) {
            assert!(w[0].paper_pp_time_s < w[1].paper_pp_time_s);
        }
    }

    #[test]
    fn find_by_accession() {
        let p = DatasetProfile::find("PXD000561").unwrap();
        assert_eq!(p.num_spectra, 21_100_000);
        assert!(DatasetProfile::find("PXD999999").is_none());
    }

    #[test]
    fn largest_is_human_proteome() {
        assert_eq!(DatasetProfile::largest().pride_id, "PXD000561");
    }

    #[test]
    fn gigabytes_match_paper() {
        assert!((DatasetProfile::find("PXD001468").unwrap().gigabytes() - 5.6).abs() < 0.01);
        assert!((DatasetProfile::find("PXD000561").unwrap().gigabytes() - 131.0).abs() < 0.01);
    }

    #[test]
    fn implied_msas_bandwidth_consistent() {
        // Table I implies ≈3 GB/s effective preprocessing bandwidth on every
        // row; this is the calibration target of the MSAS model.
        for p in &TABLE1 {
            let bw = p.gigabytes() / p.paper_pp_time_s;
            assert!((2.8..3.3).contains(&bw), "{}: {bw:.2} GB/s", p.pride_id);
        }
    }

    #[test]
    fn implied_msas_power_consistent() {
        for p in &TABLE1 {
            let w = p.paper_pp_energy_j / p.paper_pp_time_s;
            assert!((8.5..10.0).contains(&w), "{}: {w:.2} W", p.pride_id);
        }
    }

    #[test]
    fn compression_factors_span_fig6b_range() {
        // Fig. 6b: 24×–108× at D=2048.
        let factors: Vec<f64> = TABLE1.iter().map(|p| p.compression_factor(2048)).collect();
        let min = factors.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = factors.iter().cloned().fold(0.0, f64::max);
        assert!((15.0..30.0).contains(&min), "min factor {min:.1}");
        assert!((80.0..120.0).contains(&max), "max factor {max:.1}");
    }

    #[test]
    fn bytes_per_spectrum_plausible() {
        for p in &TABLE1 {
            let bps = p.bytes_per_spectrum();
            assert!((1_000.0..25_000.0).contains(&bps), "{}: {bps}", p.pride_id);
        }
    }
}
