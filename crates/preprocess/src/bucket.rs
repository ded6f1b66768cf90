//! Precursor-m/z bucketing (Eq. 1 of the SpecHD paper).
//!
//! "To manage the computational complexity, we partition the dataset into
//! smaller, discrete 'buckets' calculated as
//! `bucket_i = ⌊(m/z_i − 1.00794) · C_i / resolution⌋`" — confining the
//! quadratic pairwise work to spectra whose neutral mass agrees within the
//! instrument resolution. Charge participates in the formula, so the same
//! peptide at different charge states lands in the same *mass* bucket.

use spechd_ms::{Spectrum, HYDROGEN_AVG_MASS};

/// Computes Eq. (1) bucket indices and groups spectra by them.
///
/// # Examples
///
/// ```
/// use spechd_preprocess::PrecursorBucketer;
/// use spechd_ms::{Precursor, Spectrum};
///
/// let bucketer = PrecursorBucketer::new(1.0);
/// let s = Spectrum::new("x", Precursor::new(500.5, 2)?, vec![])?;
/// // (500.5 - 1.00794) * 2 / 1.0 = 998.98 -> bucket 998
/// assert_eq!(bucketer.bucket_of(&s), 998);
/// # Ok::<(), spechd_ms::MsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecursorBucketer {
    resolution: f64,
}

impl PrecursorBucketer {
    /// Creates a bucketer. `resolution` is the mass granularity in Dalton;
    /// the paper states it "can range from 0.05 to 1".
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is not finite and positive.
    pub fn new(resolution: f64) -> Self {
        assert!(
            resolution.is_finite() && resolution > 0.0,
            "resolution must be positive"
        );
        Self { resolution }
    }

    /// The configured resolution in Dalton.
    pub fn resolution(&self) -> f64 {
        self.resolution
    }

    /// Eq. (1): the bucket index of one spectrum.
    ///
    /// The neutral mass `(mz − 1.00794) · charge` is *negative* for
    /// spectra whose precursor m/z lies below the hydrogen mass at charge
    /// 1 — physically nonsensical, but nothing upstream forbids such
    /// records (`Precursor` only requires `mz > 0`), and file formats
    /// deliver whatever the instrument wrote. Two properties keep shard
    /// routing sound for them:
    ///
    /// * `.floor()` (not an `as i64` truncation of the quotient) is used,
    ///   so the sub-hydrogen range does not collapse into bucket 0:
    ///   truncation would fold every mass in `(-resolution, resolution)`
    ///   together, merging bogus records into a real bucket. With `floor`,
    ///   negative masses land in distinct, correctly ordered negative
    ///   buckets of the same `resolution` width.
    /// * The key space is `i64` end to end (map keys, [`Bucket::key`]), so
    ///   negative keys sort before all real buckets instead of wrapping.
    ///
    /// The cast itself saturates at `i64::MIN`/`i64::MAX` only for masses
    /// beyond ±9.2 × 10¹⁸ Da, far outside anything a parser accepts.
    pub fn bucket_of(&self, spectrum: &Spectrum) -> i64 {
        let mz = spectrum.precursor().mz();
        let charge = f64::from(spectrum.precursor().charge());
        ((mz - HYDROGEN_AVG_MASS) * charge / self.resolution).floor() as i64
    }

    /// Groups spectrum indices by bucket, returning buckets sorted by key
    /// (i.e. by precursor neutral mass — the paper's "data organization
    /// strategy based on precursor m/z sorting").
    pub fn bucketize(&self, spectra: &[Spectrum]) -> Vec<Bucket> {
        let mut map: std::collections::BTreeMap<i64, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (i, s) in spectra.iter().enumerate() {
            map.entry(self.bucket_of(s)).or_default().push(i);
        }
        map.into_iter()
            .map(|(key, members)| Bucket { key, members })
            .collect()
    }
}

impl Default for PrecursorBucketer {
    fn default() -> Self {
        Self::new(1.0)
    }
}

/// One precursor-mass bucket: its Eq. (1) key and the indices of member
/// spectra (in input order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bucket {
    /// Eq. (1) bucket index.
    pub key: i64,
    /// Indices into the source spectrum slice.
    pub members: Vec<usize>,
}

impl Bucket {
    /// Number of member spectra.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the bucket is empty (never true for produced buckets).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// Summary of a bucketized dataset: the quantity the FPGA scheduler uses
/// for load balancing across clustering kernels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketStats {
    /// Number of non-empty buckets.
    pub count: usize,
    /// Largest bucket size.
    pub max_size: usize,
    /// Mean bucket size.
    pub mean_size: f64,
    /// Sum over buckets of `n_b²` — proportional to total pairwise work.
    pub pairwise_work: u64,
}

/// Computes [`BucketStats`] for a bucketization.
pub fn bucket_stats(buckets: &[Bucket]) -> BucketStats {
    bucket_stats_from_sizes(buckets.iter().map(Bucket::len))
}

/// Computes [`BucketStats`] from bucket sizes alone — for the pipeline's
/// shard ingest in `spechd-core`, whose membership lists live in its
/// shards and should not be copied into [`Bucket`] values just for
/// accounting.
pub fn bucket_stats_from_sizes<I: IntoIterator<Item = usize>>(sizes: I) -> BucketStats {
    let mut count = 0usize;
    let mut max_size = 0usize;
    let mut total = 0usize;
    let mut pairwise_work = 0u64;
    for size in sizes {
        count += 1;
        max_size = max_size.max(size);
        total += size;
        pairwise_work += (size * size) as u64;
    }
    BucketStats {
        count,
        max_size,
        mean_size: if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        },
        pairwise_work,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechd_ms::Precursor;

    fn spectrum(mz: f64, charge: u8) -> Spectrum {
        Spectrum::new(
            format!("mz={mz}/z={charge}"),
            Precursor::new(mz, charge).unwrap(),
            vec![],
        )
        .unwrap()
    }

    #[test]
    fn equation_one_values() {
        let b = PrecursorBucketer::new(1.0);
        // (500.5 - 1.00794)*2 = 998.98 -> 998
        assert_eq!(b.bucket_of(&spectrum(500.5, 2)), 998);
        // (500.5 - 1.00794)*3 = 1498.48 -> 1498
        assert_eq!(b.bucket_of(&spectrum(500.5, 3)), 1498);
    }

    #[test]
    fn same_neutral_mass_different_charge_same_bucket() {
        // A peptide of neutral mass M observed at 2+ and 3+:
        // mz_z = M/z + proton. Eq. (1) recovers ≈M for both.
        let m = 1500.0;
        let mz2 = m / 2.0 + 1.00728;
        let mz3 = m / 3.0 + 1.00728;
        let b = PrecursorBucketer::new(1.0);
        let b2 = b.bucket_of(&spectrum(mz2, 2));
        let b3 = b.bucket_of(&spectrum(mz3, 3));
        assert!((b2 - b3).abs() <= 1, "buckets {b2} vs {b3}");
    }

    #[test]
    fn negative_neutral_mass_keeps_distinct_buckets() {
        // m/z below the hydrogen mass at charge 1 computes a negative
        // neutral mass. Regression guard: floor (not truncation) must keep
        // these in their own negative buckets rather than silently
        // collapsing them into bucket 0 alongside real sub-resolution
        // masses.
        let b = PrecursorBucketer::new(1.0);
        let tiny = spectrum(0.10, 1); // mass ≈ −0.908 → bucket −1
        let tinier = spectrum(0.10, 3); // mass ≈ −2.724 → bucket −3
        let sub_da = spectrum(1.50, 1); // mass ≈ 0.492 → bucket 0
        assert_eq!(b.bucket_of(&tiny), -1);
        assert_eq!(b.bucket_of(&tinier), -3);
        assert_eq!(b.bucket_of(&sub_da), 0);
        // Truncation (`as i64` on the raw quotient) would have mapped all
        // three to bucket 0.
        let buckets = b.bucketize(&[tiny, tinier, sub_da]);
        assert_eq!(buckets.len(), 3);
        assert_eq!(
            buckets.iter().map(|b| b.key).collect::<Vec<_>>(),
            vec![-3, -1, 0],
            "negative keys must sort below real buckets"
        );
    }

    #[test]
    fn negative_mass_fine_resolution_stays_distinct() {
        let b = PrecursorBucketer::new(0.05);
        let a = spectrum(0.20, 1); // mass ≈ −0.808 → bucket −17
        let c = spectrum(0.90, 1); // mass ≈ −0.108 → bucket −3
        assert_ne!(b.bucket_of(&a), b.bucket_of(&c));
        assert!(b.bucket_of(&a) < b.bucket_of(&c));
    }

    #[test]
    fn finer_resolution_means_more_buckets() {
        let spectra: Vec<Spectrum> = (0..100)
            .map(|i| spectrum(400.0 + 0.37 * i as f64, 2))
            .collect();
        let coarse = PrecursorBucketer::new(1.0).bucketize(&spectra);
        let fine = PrecursorBucketer::new(0.05).bucketize(&spectra);
        assert!(fine.len() > coarse.len());
    }

    #[test]
    fn bucketize_partitions_everything() {
        let spectra: Vec<Spectrum> = (0..57)
            .map(|i| spectrum(400.0 + 3.1 * (i % 9) as f64, 2))
            .collect();
        let buckets = PrecursorBucketer::new(1.0).bucketize(&spectra);
        let mut seen = vec![false; spectra.len()];
        for bucket in &buckets {
            assert!(!bucket.is_empty());
            for &m in &bucket.members {
                assert!(!seen[m], "index {m} appears twice");
                seen[m] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn buckets_sorted_by_key() {
        let spectra: Vec<Spectrum> =
            vec![spectrum(900.0, 2), spectrum(300.0, 2), spectrum(600.0, 2)];
        let buckets = PrecursorBucketer::new(1.0).bucketize(&spectra);
        assert!(buckets.windows(2).all(|w| w[0].key < w[1].key));
    }

    #[test]
    fn close_precursors_share_bucket() {
        let spectra = vec![spectrum(500.20, 2), spectrum(500.21, 2)];
        let buckets = PrecursorBucketer::new(1.0).bucketize(&spectra);
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].members, vec![0, 1]);
    }

    #[test]
    fn stats_computation() {
        let spectra = vec![spectrum(500.2, 2), spectrum(500.21, 2), spectrum(800.0, 2)];
        let buckets = PrecursorBucketer::new(1.0).bucketize(&spectra);
        let st = bucket_stats(&buckets);
        assert_eq!(st.count, 2);
        assert_eq!(st.max_size, 2);
        assert!((st.mean_size - 1.5).abs() < 1e-12);
        assert_eq!(st.pairwise_work, 4 + 1);
    }

    #[test]
    fn stats_empty() {
        let st = bucket_stats(&[]);
        assert_eq!(st.count, 0);
        assert_eq!(st.max_size, 0);
        assert_eq!(st.mean_size, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_resolution_panics() {
        PrecursorBucketer::new(0.0);
    }
}
