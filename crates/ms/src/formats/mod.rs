//! Mass spectrometry file formats.
//!
//! The MS acquisition pipeline (Fig. 1 of the paper) converts raw
//! instrument output into structured text/XML formats; SpecHD's
//! preprocessing consumes them. This module provides:
//!
//! * [`mgf`] — Mascot Generic Format, read/write (the most common exchange
//!   format for MS/MS peak lists).
//! * [`ms2`] — the MS2 text format, read/write.
//! * [`mzml`] — a minimal mzML reader/writer (uncompressed, base64-encoded
//!   32/64-bit binary arrays; zlib-compressed files are rejected).
//! * [`base64`] — the RFC 4648 codec used by mzML binary arrays.
//!
//! All readers are line/byte tolerant: unknown headers are skipped, and
//! errors carry line numbers for diagnosis.

pub mod base64;
pub mod mgf;
pub mod ms2;
pub mod mzml;
mod scan;
