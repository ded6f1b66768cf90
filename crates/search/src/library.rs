//! Packed spectral library: hypervectors + precursor-mass index.
//!
//! An [`HvLibrary`] is the searchable form of a spectral library: one
//! [`HvPack`] whose rows are sorted by precursor neutral mass, with
//! parallel metadata arrays (mass, charge, entry id, target/decoy
//! provenance). Sorting by mass makes a precursor window a contiguous
//! row range, so both standard and open-modification search reduce to
//! a ranged sweep of the tiled distance engine
//! (see [`crate::PackedSearchEngine`]).
//!
//! Libraries come from two places:
//!
//! * a [`PeptideDatabase`] — every entry's theoretical b/y spectrum is
//!   batch-encoded through the ID-Level encoder
//!   ([`HvLibrary::from_database`]); reversed-peptide decoys flow
//!   through as decoy entries, and
//! * a clustered run's consensus hypervectors — pushed through an
//!   [`HvLibraryBuilder`], optionally with one shuffled decoy per
//!   target so HD scores stay FDR-controllable
//!   ([`HvLibraryBuilder::push_with_shuffled_decoy`]).
//!
//! # Window convention
//!
//! [`HvLibrary::window`] uses the same **closed interval**
//! `[center − tol, center + tol]` as
//! [`PeptideDatabase::candidates`](crate::PeptideDatabase::candidates):
//! entries whose mass equals either edge are included.

use crate::PeptideDatabase;
use spechd_hdc::{BinaryHypervector, HvPack, IdLevelEncoder};
use spechd_ms::fragment::theoretical_spectrum;
use spechd_ms::Peak;
use spechd_rng::{Rng, Xoshiro256StarStar};

/// A packed, mass-sorted spectral library.
///
/// Rows of [`HvLibrary::pack`] are sorted ascending by neutral mass;
/// `masses`, `charges`, `ids` and decoy flags are parallel to the rows.
///
/// # Examples
///
/// ```
/// use spechd_search::{HvLibrary, PeptideDatabase};
/// use spechd_hdc::{EncoderConfig, IdLevelEncoder};
/// use spechd_ms::Peptide;
///
/// let targets = vec![Peptide::new("PEPTIDEK")?, Peptide::new("SAMPLER")?];
/// let db = PeptideDatabase::build(&targets);
/// let encoder = IdLevelEncoder::new(EncoderConfig::default());
/// let lib = HvLibrary::from_database(&db, &encoder, 1);
/// assert_eq!(lib.len(), db.len());
/// let w = lib.window(targets[0].monoisotopic_mass(), 0.01);
/// assert!(!w.is_empty());
/// # Ok::<(), spechd_ms::MsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HvLibrary {
    pack: HvPack,
    masses: Vec<f64>,
    charges: Vec<u8>,
    ids: Vec<String>,
    decoys: Vec<bool>,
}

impl HvLibrary {
    /// Builds a library from a target–decoy peptide database: every
    /// entry's theoretical b/y spectrum (fragment charges up to
    /// `max_fragment_charge`) is base-peak-normalized and batch-encoded.
    /// Database entries are already mass-sorted, so row order matches
    /// [`PeptideDatabase::entries`] exactly.
    ///
    /// # Panics
    ///
    /// Panics if `max_fragment_charge == 0` (propagated from fragment
    /// generation).
    pub fn from_database(
        db: &PeptideDatabase,
        encoder: &IdLevelEncoder,
        max_fragment_charge: u8,
    ) -> Self {
        let spectra: Vec<Vec<(f64, f64)>> = db
            .entries()
            .iter()
            .map(|e| relative_peaks(&theoretical_spectrum(&e.peptide, max_fragment_charge)))
            .collect();
        let pack = encoder.encode_batch_packed(&spectra);
        let mut masses = Vec::with_capacity(db.len());
        let mut charges = Vec::with_capacity(db.len());
        let mut ids = Vec::with_capacity(db.len());
        let mut decoys = Vec::with_capacity(db.len());
        for e in db.entries() {
            masses.push(e.mass);
            // Database entries carry no precursor charge of their own.
            charges.push(0);
            ids.push(e.peptide.sequence().to_string());
            decoys.push(e.is_decoy);
        }
        Self {
            pack,
            masses,
            charges,
            ids,
            decoys,
        }
    }

    /// Number of library entries.
    pub fn len(&self) -> usize {
        self.pack.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.pack.is_empty()
    }

    /// Hypervector dimensionality shared by every entry.
    pub fn dim(&self) -> usize {
        self.pack.dim()
    }

    /// The packed hypervector rows, sorted by mass.
    pub fn pack(&self) -> &HvPack {
        &self.pack
    }

    /// Neutral mass of entry `i`.
    pub fn mass(&self, i: usize) -> f64 {
        self.masses[i]
    }

    /// All masses, ascending (parallel to the pack rows).
    pub fn masses(&self) -> &[f64] {
        &self.masses
    }

    /// Precursor charge of entry `i` (0 = unknown).
    pub fn charge(&self, i: usize) -> u8 {
        self.charges[i]
    }

    /// Identifier of entry `i` (peptide sequence or consensus id).
    pub fn id(&self, i: usize) -> &str {
        &self.ids[i]
    }

    /// Whether entry `i` is a decoy.
    pub fn is_decoy(&self, i: usize) -> bool {
        self.decoys[i]
    }

    /// Number of target (non-decoy) entries.
    pub fn target_count(&self) -> usize {
        self.decoys.iter().filter(|&&d| !d).count()
    }

    /// Number of decoy entries.
    pub fn decoy_count(&self) -> usize {
        self.decoys.iter().filter(|&&d| d).count()
    }

    /// The contiguous row range whose masses lie in the **closed**
    /// interval `[center − tol_da, center + tol_da]` (edges included —
    /// the same convention as
    /// [`PeptideDatabase::candidates`](crate::PeptideDatabase::candidates)).
    ///
    /// # Panics
    ///
    /// Panics if `center` is not finite or `tol_da` is negative, NaN,
    /// or infinite.
    pub fn window(&self, center: f64, tol_da: f64) -> std::ops::Range<usize> {
        assert!(center.is_finite(), "window center must be finite");
        assert!(
            tol_da.is_finite() && tol_da >= 0.0,
            "tolerance must be finite and non-negative"
        );
        let lo = self.masses.partition_point(|&m| m < center - tol_da);
        let hi = self.masses.partition_point(|&m| m <= center + tol_da);
        lo..hi
    }

    /// Storage footprint of the packed rows in bytes (metadata excluded).
    pub fn storage_bytes(&self) -> usize {
        self.pack.storage_bytes()
    }
}

/// Incremental [`HvLibrary`] construction from arbitrary hypervectors —
/// the consensus-spectrum path. Entries may be pushed in any mass
/// order; [`HvLibraryBuilder::build`] sorts them (stably, by mass then
/// insertion order, so equal-mass ties keep a deterministic layout).
///
/// # Examples
///
/// ```
/// use spechd_search::HvLibraryBuilder;
/// use spechd_hdc::BinaryHypervector;
///
/// let mut b = HvLibraryBuilder::new(64);
/// b.push_with_shuffled_decoy(&BinaryHypervector::ones(64), 900.0, 2, "c0", 7);
/// let lib = b.build();
/// assert_eq!(lib.len(), 2);
/// assert_eq!(lib.target_count(), 1);
/// assert_eq!(lib.decoy_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct HvLibraryBuilder {
    pack: HvPack,
    masses: Vec<f64>,
    charges: Vec<u8>,
    ids: Vec<String>,
    decoys: Vec<bool>,
}

impl HvLibraryBuilder {
    /// An empty builder for hypervectors of dimensionality `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        Self {
            pack: HvPack::new(dim),
            masses: Vec::new(),
            charges: Vec::new(),
            ids: Vec::new(),
            decoys: Vec::new(),
        }
    }

    /// Number of entries pushed so far.
    pub fn len(&self) -> usize {
        self.pack.len()
    }

    /// Whether no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.pack.is_empty()
    }

    /// Appends one entry.
    ///
    /// # Panics
    ///
    /// Panics if `mass` is not finite or the hypervector's
    /// dimensionality differs from the builder's.
    pub fn push_hypervector(
        &mut self,
        hv: &BinaryHypervector,
        mass: f64,
        charge: u8,
        id: impl Into<String>,
        is_decoy: bool,
    ) {
        assert!(mass.is_finite(), "entry mass must be finite");
        self.pack.push(hv);
        self.masses.push(mass);
        self.charges.push(charge);
        self.ids.push(id.into());
        self.decoys.push(is_decoy);
    }

    /// Appends one entry from pre-packed row words (rows received off
    /// the wire or copied from another pack).
    ///
    /// # Panics
    ///
    /// Panics if `mass` is not finite, the word count differs from the
    /// pack stride, or a bit beyond `dim` is set.
    pub fn push_row_words(
        &mut self,
        words: &[u64],
        mass: f64,
        charge: u8,
        id: impl Into<String>,
        is_decoy: bool,
    ) {
        assert!(mass.is_finite(), "entry mass must be finite");
        self.pack.push_row_words(words);
        self.masses.push(mass);
        self.charges.push(charge);
        self.ids.push(id.into());
        self.decoys.push(is_decoy);
    }

    /// Appends a target entry plus its shuffled decoy — the bits of `hv`
    /// under a seeded permutation of positions, same mass and charge, id
    /// prefixed `DECOY_` — the entry pair that makes HD scores against a
    /// consensus library FDR-controllable.
    pub fn push_with_shuffled_decoy(
        &mut self,
        hv: &BinaryHypervector,
        mass: f64,
        charge: u8,
        id: &str,
        seed: u64,
    ) {
        self.push_hypervector(hv, mass, charge, id, false);
        self.push_hypervector(
            &shuffled_decoy(hv, seed),
            mass,
            charge,
            format!("DECOY_{id}"),
            true,
        );
    }

    /// Finalizes the library: entries are stably sorted by mass
    /// ([`f64::total_cmp`], ties keep insertion order) and the rows
    /// gathered into the final pack. Already-sorted input (the common
    /// case for bulk loads) skips the gather copy.
    pub fn build(self) -> HvLibrary {
        let n = self.masses.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| self.masses[a].total_cmp(&self.masses[b]));
        if order.iter().enumerate().all(|(i, &p)| i == p) {
            return HvLibrary {
                pack: self.pack,
                masses: self.masses,
                charges: self.charges,
                ids: self.ids,
                decoys: self.decoys,
            };
        }
        let mut pack = HvPack::with_capacity(self.pack.dim(), n);
        let mut masses = Vec::with_capacity(n);
        let mut charges = Vec::with_capacity(n);
        let mut ids = Vec::with_capacity(n);
        let mut decoys = Vec::with_capacity(n);
        for &i in &order {
            pack.push_row_words(self.pack.row(i));
            masses.push(self.masses[i]);
            charges.push(self.charges[i]);
            ids.push(self.ids[i].clone());
            decoys.push(self.decoys[i]);
        }
        HvLibrary {
            pack,
            masses,
            charges,
            ids,
            decoys,
        }
    }
}

/// Base-peak-normalizes `peaks` and encodes them: the ID-Level encoder
/// expects intensities relative to the base peak in `[0, 1]`, while raw
/// [`Peak`] lists (e.g. [`theoretical_spectrum`] output) carry absolute
/// intensities. Query spectra searched against an
/// [`HvLibrary::from_database`] library must go through this same
/// normalization to be comparable.
pub fn encode_spectrum_peaks(encoder: &IdLevelEncoder, peaks: &[Peak]) -> BinaryHypervector {
    encoder.encode(&relative_peaks(peaks))
}

fn relative_peaks(peaks: &[Peak]) -> Vec<(f64, f64)> {
    let max = peaks
        .iter()
        .map(|p| f64::from(p.intensity))
        .fold(0.0, f64::max);
    if max <= 0.0 {
        return Vec::new();
    }
    peaks
        .iter()
        .map(|p| (p.mz, f64::from(p.intensity) / max))
        .collect()
}

/// A decoy hypervector: the bits of `hv` under a seeded Fisher–Yates
/// permutation of positions. The popcount (and therefore the expected
/// distance statistics) is preserved while the placement is
/// decorrelated — the HD analogue of peak-shuffled decoy spectra used
/// by open-modification search tools.
pub(crate) fn shuffled_decoy(hv: &BinaryHypervector, seed: u64) -> BinaryHypervector {
    let dim = hv.dim();
    let mut perm: Vec<u32> = (0..dim as u32).collect();
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    for i in (1..dim).rev() {
        let j = rng.bounded_u64(i as u64 + 1) as usize;
        perm.swap(i, j);
    }
    BinaryHypervector::from_fn(dim, |i| hv.bit(perm[i] as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spechd_hdc::EncoderConfig;
    use spechd_ms::Peptide;

    fn encoder(dim: usize) -> IdLevelEncoder {
        IdLevelEncoder::new(EncoderConfig {
            dim,
            ..EncoderConfig::default()
        })
    }

    fn random_hv(dim: usize, seed: u64) -> BinaryHypervector {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        BinaryHypervector::random(dim, &mut rng)
    }

    #[test]
    fn from_database_mirrors_entry_order() {
        let targets: Vec<Peptide> = ["PEPTIDEK", "SAMPLER", "ACDEFGHK"]
            .iter()
            .map(|s| Peptide::new(*s).unwrap())
            .collect();
        let db = PeptideDatabase::build(&targets);
        let lib = HvLibrary::from_database(&db, &encoder(256), 1);
        assert_eq!(lib.len(), db.len());
        assert_eq!(lib.dim(), 256);
        for (i, e) in db.entries().iter().enumerate() {
            assert_eq!(lib.mass(i), e.mass);
            assert_eq!(lib.id(i), e.peptide.sequence());
            assert_eq!(lib.is_decoy(i), e.is_decoy);
        }
        assert_eq!(lib.target_count(), db.target_count());
        assert!(lib.masses().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn from_database_rows_match_per_entry_encoding() {
        let targets = vec![Peptide::new("PEPTIDEK").unwrap()];
        let db = PeptideDatabase::build(&targets);
        let enc = encoder(128);
        let lib = HvLibrary::from_database(&db, &enc, 1);
        for (i, e) in db.entries().iter().enumerate() {
            let expect = encode_spectrum_peaks(&enc, &theoretical_spectrum(&e.peptide, 1));
            assert_eq!(lib.pack().hypervector(i), expect, "entry {i}");
        }
    }

    #[test]
    fn window_is_closed_on_both_edges() {
        let mut b = HvLibraryBuilder::new(64);
        for (i, &m) in [100.0, 200.0, 200.0, 300.0].iter().enumerate() {
            b.push_hypervector(&random_hv(64, i as u64), m, 2, format!("e{i}"), false);
        }
        let lib = b.build();
        // Edges exactly on entry masses are included on both sides.
        assert_eq!(lib.window(200.0, 100.0), 0..4);
        assert_eq!(lib.window(150.0, 50.0), 0..3);
        assert_eq!(lib.window(250.0, 50.0), 1..4);
        // Zero tolerance selects exact-mass entries only.
        assert_eq!(lib.window(200.0, 0.0), 1..3);
        assert_eq!(lib.window(199.0, 0.5), 1..1);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn window_rejects_nan_tolerance() {
        let lib = HvLibraryBuilder::new(64).build();
        lib.window(500.0, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn window_rejects_negative_tolerance() {
        let lib = HvLibraryBuilder::new(64).build();
        lib.window(500.0, -1.0);
    }

    #[test]
    fn builder_sorts_by_mass_with_stable_ties() {
        let hvs: Vec<BinaryHypervector> = (0..4).map(|i| random_hv(96, 10 + i)).collect();
        let mut b = HvLibraryBuilder::new(96);
        b.push_hypervector(&hvs[0], 300.0, 2, "late", false);
        b.push_hypervector(&hvs[1], 100.0, 2, "tie-a", false);
        b.push_hypervector(&hvs[2], 100.0, 3, "tie-b", true);
        b.push_hypervector(&hvs[3], 200.0, 2, "mid", false);
        let lib = b.build();
        let ids: Vec<&str> = (0..4).map(|i| lib.id(i)).collect();
        assert_eq!(ids, ["tie-a", "tie-b", "mid", "late"]);
        assert_eq!(lib.pack().hypervector(0), hvs[1]);
        assert_eq!(lib.pack().hypervector(1), hvs[2]);
        assert_eq!(lib.charge(1), 3);
        assert!(lib.is_decoy(1));
    }

    #[test]
    fn builder_sorted_input_round_trips() {
        let mut b = HvLibraryBuilder::new(63);
        let hvs: Vec<BinaryHypervector> = (0..3).map(|i| random_hv(63, 20 + i)).collect();
        for (i, hv) in hvs.iter().enumerate() {
            b.push_row_words(
                hv.words(),
                100.0 * (i + 1) as f64,
                1,
                format!("s{i}"),
                false,
            );
        }
        let lib = b.build();
        assert_eq!(lib.pack().to_hypervectors(), hvs);
    }

    #[test]
    #[should_panic(expected = "mass must be finite")]
    fn builder_rejects_nan_mass() {
        let mut b = HvLibraryBuilder::new(64);
        b.push_hypervector(&random_hv(64, 1), f64::NAN, 2, "x", false);
    }

    #[test]
    fn shuffled_decoy_preserves_weight_and_is_deterministic() {
        let hv = random_hv(2048, 33);
        let d1 = shuffled_decoy(&hv, 99);
        let d2 = shuffled_decoy(&hv, 99);
        assert_eq!(d1, d2, "seeded shuffle is deterministic");
        assert_eq!(d1.count_ones(), hv.count_ones(), "weight preserved");
        assert!(
            hv.hamming(&d1) > 700,
            "shuffle decorrelates placement: {}",
            hv.hamming(&d1)
        );
        assert_ne!(shuffled_decoy(&hv, 100), d1, "seed changes the shuffle");
    }

    #[test]
    fn encode_spectrum_peaks_normalizes_by_base_peak() {
        let enc = encoder(256);
        let peaks = vec![Peak::new(300.0, 500.0), Peak::new(400.0, 1000.0)];
        let relative = vec![(300.0, 0.5), (400.0, 1.0)];
        assert_eq!(encode_spectrum_peaks(&enc, &peaks), enc.encode(&relative));
        // Scaling all intensities is a no-op after normalization.
        let scaled = vec![Peak::new(300.0, 5.0), Peak::new(400.0, 10.0)];
        assert_eq!(
            encode_spectrum_peaks(&enc, &peaks),
            encode_spectrum_peaks(&enc, &scaled)
        );
        assert_eq!(
            encode_spectrum_peaks(&enc, &[]),
            BinaryHypervector::zeros(256)
        );
    }
}
