//! Mass spectrometry file formats.
//!
//! The MS acquisition pipeline (Fig. 1 of the paper) converts raw
//! instrument output into structured peak-list formats; SpecHD's
//! preprocessing consumes them. This module provides:
//!
//! * [`mgf`] — Mascot Generic Format, read/write (the most common exchange
//!   format for MS/MS peak lists).
//! * [`ms2`] — the MS2 text format, read/write.
//!
//! All readers are line/byte tolerant: unknown headers are skipped, and
//! errors carry line numbers for diagnosis.

pub mod mgf;
pub mod ms2;
mod scan;
