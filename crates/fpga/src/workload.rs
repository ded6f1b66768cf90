//! Workload descriptions consumed by the system model.

/// The shape of a clustering workload: everything the performance model
/// needs to know about a dataset, independent of its actual spectra.
///
/// For the five paper datasets use the constructors; for synthetic runs
/// derive the shape from measured bucket statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadShape {
    /// Number of MS/MS spectra.
    pub num_spectra: u64,
    /// Raw on-disk bytes (drives the MSAS stage).
    pub raw_bytes: u64,
    /// Average surviving peaks per spectrum after filter + top-k.
    pub peaks_per_spectrum: f64,
    /// Mean precursor-bucket size at the configured resolution. Large
    /// repository-scale runs concentrate mass buckets (the human proteome
    /// draft averages ≈5000 spectra per 1-Da mass bucket).
    pub mean_bucket_size: f64,
    /// Hypervector dimensionality.
    pub dim: usize,
}

impl WorkloadShape {
    /// Builds a shape from dataset scale numbers, with the paper-default
    /// 50 surviving peaks and D = 2048.
    ///
    /// # Panics
    ///
    /// Panics if `num_spectra == 0` or `mean_bucket_size <= 0`.
    pub fn new(num_spectra: u64, raw_bytes: u64, mean_bucket_size: f64) -> Self {
        assert!(num_spectra > 0, "workload needs spectra");
        assert!(mean_bucket_size > 0.0, "bucket size must be positive");
        Self {
            num_spectra,
            raw_bytes,
            peaks_per_spectrum: 50.0,
            mean_bucket_size,
            dim: 2048,
        }
    }

    /// Number of buckets implied by the mean bucket size (at least 1).
    pub fn num_buckets(&self) -> u64 {
        ((self.num_spectra as f64 / self.mean_bucket_size).ceil() as u64).max(1)
    }

    /// The PXD000561 human-proteome shape (Table I row 5): 21.1M spectra,
    /// 131 GB. Mass buckets at 1-Da resolution average ≈5000 spectra.
    pub fn pxd000561() -> Self {
        Self::new(21_100_000, 131_000_000_000, 5_000.0)
    }

    /// PXD001468 (1.1M spectra, 5.6 GB); sparse buckets (≈700).
    pub fn pxd001468() -> Self {
        Self::new(1_100_000, 5_600_000_000, 700.0)
    }

    /// PXD001197 (1.1M spectra, 25 GB).
    pub(crate) fn pxd001197() -> Self {
        Self::new(1_100_000, 25_000_000_000, 700.0)
    }

    /// PXD003258 (4.1M spectra, 54 GB).
    pub(crate) fn pxd003258() -> Self {
        Self::new(4_100_000, 54_000_000_000, 1_800.0)
    }

    /// PXD001511 (4.2M spectra, 87 GB).
    fn pxd001511() -> Self {
        Self::new(4_200_000, 87_000_000_000, 1_800.0)
    }

    /// All five Table-I shapes in the table's order.
    pub fn table1() -> [WorkloadShape; 5] {
        [
            Self::pxd001468(),
            Self::pxd001197(),
            Self::pxd003258(),
            Self::pxd001511(),
            Self::pxd000561(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_count() {
        let w = WorkloadShape::new(10_000, 1, 250.0);
        assert_eq!(w.num_buckets(), 40);
    }

    #[test]
    fn table1_shapes_match_profiles() {
        let shapes = WorkloadShape::table1();
        assert_eq!(shapes[0].num_spectra, 1_100_000);
        assert_eq!(shapes[4].raw_bytes, 131_000_000_000);
        for s in &shapes {
            assert!(s.num_buckets() >= 1);
            assert_eq!(s.dim, 2048);
        }
    }

    #[test]
    #[should_panic(expected = "needs spectra")]
    fn zero_spectra_panics() {
        WorkloadShape::new(0, 1, 10.0);
    }
}
