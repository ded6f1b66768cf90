//! Simplified peptide database search engine.
//!
//! SpecHD's downstream evaluation (Fig. 11, §IV-E2) feeds consensus
//! spectra to a database search engine (the paper uses MSGF+) and compares
//! the sets of identified unique peptides across clustering tools. This
//! crate is the stand-in: a compact but complete
//! search engine with
//!
//! * a target–decoy [`PeptideDatabase`] indexed by precursor neutral mass,
//! * X!Tandem-style [`hyperscore`] scoring over matched b/y ions,
//! * a [`SearchEngine`] applying precursor and fragment tolerances, and
//! * target–decoy FDR control ([`assign_q_values`], [`filter_at_fdr`]).
//!
//! Relative peptide-set overlaps between tools — the Fig. 11 quantity —
//! are computed by [`overlap::venn3`].
//!
//! # Packed hypervector search
//!
//! Alongside the scalar engine, the crate hosts a packed spectral
//! library search pipeline operating directly in hypervector space:
//!
//! * [`HvLibrary`] — a persistent packed store of library
//!   hypervectors, mass-sorted with parallel metadata arrays and
//!   target/decoy provenance, built from a [`PeptideDatabase`]
//!   ([`HvLibrary::from_database`]) or entry-by-entry via
//!   [`HvLibraryBuilder`] (e.g. from a clustered run's consensus
//!   hypervectors);
//! * [`PackedSearchEngine`] — standard (narrow-window) and
//!   open-modification (wide-window) search sharing one tiled code
//!   path, bit-identical to the [`scalar_search_window`] oracle;
//! * [`HdPsm`] — hits implementing [`ScoredMatch`] so the same
//!   [`assign_q_values`] / [`filter_at_fdr`] machinery controls FDR on
//!   HD scores via shuffled-decoy library entries
//!   ([`HvLibraryBuilder::push_with_shuffled_decoy`]).
//!
//! # Example
//!
//! ```
//! use spechd_search::{PeptideDatabase, SearchConfig, SearchEngine};
//! use spechd_ms::synth::{SyntheticConfig, SyntheticGenerator};
//!
//! let gen = SyntheticGenerator::new(SyntheticConfig {
//!     num_spectra: 50, num_peptides: 20, seed: 3,
//!     noise_spectrum_fraction: 0.0, ..SyntheticConfig::default()
//! });
//! let ds = gen.generate();
//! let db = PeptideDatabase::build(gen.peptide_library());
//! let engine = SearchEngine::new(db, SearchConfig::default());
//! let psms = engine.search_dataset(ds.spectra());
//! let hits = psms.iter().flatten().count();
//! assert!(hits > 25, "most synthetic spectra should be identifiable, got {hits}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod db;
mod engine;
mod fdr;
mod library;
pub mod overlap;
mod packed;
mod score;

pub use db::{DbEntry, PeptideDatabase};
pub use engine::{Psm, SearchConfig, SearchEngine};
pub use fdr::{assign_q_values, filter_at_fdr, ScoredMatch};
pub use library::{encode_spectrum_peaks, HvLibrary, HvLibraryBuilder};
pub use packed::{scalar_search_window, HdPsm, PackedSearchConfig, PackedSearchEngine};
pub use score::{hyperscore, MatchedIons};
