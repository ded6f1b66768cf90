//! Top-k peak selection.
//!
//! The paper's Top-k Selector "employs a streamlined Bitonic sorting
//! algorithm" (§III-A) because bitonic networks have a fixed,
//! data-independent comparator schedule that maps directly onto FPGA
//! pipelines. [`bitonic_top_k`] is a bit-exact software model of that
//! network (padding to a power of two, full sort, take k), tested against
//! a plain sort-and-truncate. It returns the k most intense peaks
//! **re-sorted by m/z**, the order the encoder consumes; the pipeline runs
//! it only on spectra with more than k peaks, the others being their own
//! top k.

use spechd_ms::Peak;
#[cfg(test)]
use spechd_ms::Spectrum;

/// Selects the `k` most intense peaks using a bitonic sorting network,
/// mirroring the FPGA implementation. Returns peaks sorted by m/z.
///
/// Ties in intensity resolve deterministically by m/z (larger m/z ranks
/// higher), making the network output unique.
///
/// # Examples
///
/// ```
/// use spechd_preprocess::topk::bitonic_top_k;
/// use spechd_ms::Peak;
/// let peaks = vec![
///     Peak::new(100.0, 5.0),
///     Peak::new(200.0, 50.0),
///     Peak::new(300.0, 20.0),
/// ];
/// let top2 = bitonic_top_k(&peaks, 2);
/// assert_eq!(top2.len(), 2);
/// assert_eq!(top2[0].mz, 200.0); // sorted by m/z again
/// assert_eq!(top2[1].mz, 300.0);
/// ```
pub fn bitonic_top_k(peaks: &[Peak], k: usize) -> Vec<Peak> {
    if k == 0 || peaks.is_empty() {
        return Vec::new();
    }
    if peaks.len() <= k {
        let mut out = peaks.to_vec();
        out.sort_by(|a, b| a.mz.total_cmp(&b.mz));
        return out;
    }
    // Pad to the next power of two with sentinel minimum elements, exactly
    // like the hardware pads its sorting lanes.
    let n = peaks.len().next_power_of_two();
    let sentinel = Peak::new(f64::MAX, f32::NEG_INFINITY);
    let mut lanes: Vec<Peak> = Vec::with_capacity(n);
    lanes.extend_from_slice(peaks);
    lanes.resize(n, sentinel);

    bitonic_sort_desc(&mut lanes);

    lanes.truncate(k);
    lanes.sort_by(|a, b| a.mz.total_cmp(&b.mz));
    lanes
}

/// Rank key: intensity first, m/z as the deterministic tiebreak.
#[inline]
fn rank_ge(a: &Peak, b: &Peak) -> bool {
    match a.intensity.total_cmp(&b.intensity) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => a.mz >= b.mz,
    }
}

/// In-place bitonic sort into descending rank order. `data.len()` must be
/// a power of two (guaranteed by the caller's padding).
fn bitonic_sort_desc(data: &mut [Peak]) {
    let n = data.len();
    debug_assert!(n.is_power_of_two());
    let mut stage = 2;
    while stage <= n {
        let mut step = stage / 2;
        while step > 0 {
            // The comparators of one column: lanes `i` with the `step` bit
            // clear, each against `i ^ step`.
            for block in (0..n).step_by(2 * step) {
                for i in block..block + step {
                    // Direction: ascending blocks alternate; we sort the
                    // whole array descending, so invert the classic test.
                    let descending = (i & stage) == 0;
                    let in_order = rank_ge(&data[i], &data[i + step]);
                    if descending != in_order {
                        data.swap(i, i + step);
                    }
                }
            }
            step /= 2;
        }
        stage *= 2;
    }
}

/// [`bitonic_top_k`] on a spectrum, preserving its metadata — the stage
/// as the pipeline's equivalence test composes it.
#[cfg(test)]
pub(crate) fn top_k_spectrum(spectrum: &Spectrum, k: usize) -> Spectrum {
    let kept = bitonic_top_k(spectrum.peaks(), k);
    spectrum
        .with_peaks(kept)
        .expect("top-k preserves peak validity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechd_rng::{Rng, Xoshiro256StarStar};

    /// Sort-and-truncate reference with [`bitonic_top_k`]'s contract.
    fn select_top_k(peaks: &[Peak], k: usize) -> Vec<Peak> {
        let mut work = peaks.to_vec();
        work.sort_by(|a, b| match b.intensity.total_cmp(&a.intensity) {
            std::cmp::Ordering::Equal => b.mz.total_cmp(&a.mz),
            other => other,
        });
        work.truncate(k);
        work.sort_by(|a, b| a.mz.total_cmp(&b.mz));
        work
    }

    fn random_peaks(n: usize, seed: u64) -> Vec<Peak> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        (0..n)
            .map(|_| Peak::new(rng.range_f64(100.0, 2000.0), rng.next_f32() * 1000.0))
            .collect()
    }

    #[test]
    fn keeps_k_most_intense() {
        let peaks = vec![
            Peak::new(100.0, 1.0),
            Peak::new(200.0, 9.0),
            Peak::new(300.0, 5.0),
            Peak::new(400.0, 7.0),
            Peak::new(500.0, 3.0),
        ];
        let top3 = bitonic_top_k(&peaks, 3);
        let mzs: Vec<f64> = top3.iter().map(|p| p.mz).collect();
        assert_eq!(mzs, vec![200.0, 300.0, 400.0]);
    }

    #[test]
    fn matches_quickselect_reference() {
        for seed in 0..10 {
            for n in [1usize, 2, 3, 7, 16, 33, 100, 257] {
                let peaks = random_peaks(n, seed * 31 + n as u64);
                for k in [1usize, 5, 20, 50, 300] {
                    let a = bitonic_top_k(&peaks, k);
                    let b = select_top_k(&peaks, k);
                    assert_eq!(a, b, "n={n} k={k} seed={seed}");
                }
            }
        }
    }

    #[test]
    fn k_zero_and_empty() {
        assert!(bitonic_top_k(&[], 5).is_empty());
        assert!(bitonic_top_k(&random_peaks(10, 1), 0).is_empty());
        assert!(select_top_k(&[], 5).is_empty());
    }

    #[test]
    fn k_larger_than_input_returns_all_sorted() {
        let peaks = random_peaks(7, 2);
        let out = bitonic_top_k(&peaks, 100);
        assert_eq!(out.len(), 7);
        assert!(out.windows(2).all(|w| w[0].mz <= w[1].mz));
    }

    #[test]
    fn output_sorted_by_mz() {
        let out = bitonic_top_k(&random_peaks(64, 3), 20);
        assert!(out.windows(2).all(|w| w[0].mz <= w[1].mz));
    }

    #[test]
    fn intensity_ties_broken_by_mz() {
        let peaks = vec![
            Peak::new(100.0, 5.0),
            Peak::new(200.0, 5.0),
            Peak::new(300.0, 5.0),
        ];
        // Larger m/z ranks higher on ties: top-2 keeps 200 and 300.
        let out = bitonic_top_k(&peaks, 2);
        let mzs: Vec<f64> = out.iter().map(|p| p.mz).collect();
        assert_eq!(mzs, vec![200.0, 300.0]);
    }

    #[test]
    fn top_k_spectrum_preserves_metadata() {
        use spechd_ms::{Precursor, Spectrum};
        let s = Spectrum::new(
            "meta",
            Precursor::new(444.0, 2).unwrap(),
            random_peaks(30, 4),
        )
        .unwrap()
        .with_retention_time(12.0);
        let t = top_k_spectrum(&s, 10);
        assert_eq!(t.peak_count(), 10);
        assert_eq!(t.title(), "meta");
        assert_eq!(t.retention_time(), Some(12.0));
    }

    #[test]
    fn large_input_stress() {
        let peaks = random_peaks(3000, 5);
        let out = bitonic_top_k(&peaks, 150);
        assert_eq!(out.len(), 150);
        assert_eq!(out, select_top_k(&peaks, 150));
    }
}
