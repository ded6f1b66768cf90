//! Binary hyperdimensional computing (HDC) core for SpecHD.
//!
//! This crate implements the hyperdimensional machinery of the SpecHD paper
//! (DATE 2024): spectra are encoded into dense binary *hypervectors* of
//! dimensionality `D` (the paper uses `D = 2048`) via the **ID-Level**
//! scheme, and compared with Hamming distance computed by XOR + popcount —
//! exactly the operations the paper maps onto FPGA LUTs.
//!
//! Layout of the crate:
//!
//! * [`BinaryHypervector`] — bit-packed (64 bits/word) binary hypervector
//!   with XOR/AND/OR, popcount and Hamming distance.
//! * [`MajorityAccumulator`] — the pointwise accumulate-then-threshold
//!   bundler of Eq. (2) in the paper, on bit-sliced counters.
//! * [`IdLevelEncoder`] — the spectrum encoder, the one place the
//!   decisions of Eq. (2) live: the m/z bins, the √ intensity levels, the
//!   random `ID[0,f]` and correlated `L[0,q]` memories (two private
//!   [`HvPack`] slabs), and `spectra_i = Σ (ID_i ⊕ L_j)` followed by a
//!   pointwise majority; `encode` returns one vector, every batch form
//!   writes straight into an [`HvPack`].
//! * [`HvPack`] — contiguous struct-of-arrays storage for N packed
//!   hypervectors: the one multi-vector container, from the encoder
//!   through the distance kernels to the pipeline outcome.
//! * [`distance`] — batch Hamming distance kernels: the tiled,
//!   multithreaded [`distance::PackedDistanceEngine`] over an [`HvPack`],
//!   and two scalar reference functions kept as its test oracle.
//! * [`fan_out`] — the workspace's one scoped worker fan-out: jobs from a
//!   feed on the caller, results back in feed order, inline at one worker.
//!
//! # Example: encode two peak lists and compare them
//!
//! ```
//! use spechd_hdc::{EncoderConfig, IdLevelEncoder};
//!
//! let encoder = IdLevelEncoder::new(EncoderConfig {
//!     dim: 2048,
//!     mz_bins: 1024,
//!     intensity_levels: 32,
//!     mz_range: (200.0, 2000.0),
//!     seed: 7,
//! });
//! let a = encoder.encode(&[(500.02, 1.0), (720.4, 0.5), (991.1, 0.2)]);
//! let b = encoder.encode(&[(500.03, 1.0), (720.4, 0.45), (991.1, 0.2)]);
//! let c = encoder.encode(&[(301.0, 0.9), (455.5, 0.8), (1200.8, 0.7)]);
//! assert!(a.hamming(&b) < a.hamming(&c));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accumulator;
pub mod distance;
mod encoder;
mod fan_out;
mod hypervector;
mod item_memory;
mod pack;

pub use accumulator::MajorityAccumulator;
pub use encoder::{EncoderConfig, IdLevelEncoder};
pub use fan_out::fan_out;
pub use hypervector::BinaryHypervector;
pub use pack::{HvPack, PackError};
