//! Typed failures of the cluster store.

use spechd_hdc::PackError;

/// Everything that can go wrong constructing, mutating, serializing or
/// deserializing a [`crate::ClusterStore`].
///
/// Deserialization ([`crate::ClusterStore::from_bytes`]) is total: every
/// hostile input maps to one of these variants, never a panic, and the
/// store value is only produced once the whole file has validated — there
/// is no partial state to observe on error.
#[derive(Debug)]
pub enum StoreError {
    /// Reading or writing a backing file failed; `path` names the file
    /// involved.
    Io {
        /// The file being read, written, renamed or synced.
        path: std::path::PathBuf,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
    /// The file does not start with the `SHPK` magic.
    BadMagic {
        /// The four bytes found where the magic was expected.
        found: [u8; 4],
    },
    /// The file's format version is not one this build can read.
    UnsupportedVersion {
        /// The version the file declares.
        found: u16,
    },
    /// The file ends before a required field or section.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
        /// Bytes required to finish that read.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The file is longer than its own header accounts for.
    TrailingBytes {
        /// Total length the header/table imply.
        expected: usize,
        /// Actual file length.
        found: usize,
    },
    /// The header's row stride disagrees with its dimensionality
    /// (`stride` must equal `dim.div_ceil(64)`).
    StrideMismatch {
        /// Dimensionality the header declares.
        dim: u32,
        /// Stride the header declares.
        stride: u32,
    },
    /// The store's hypervector dimensionality does not match the engine's,
    /// or, from [`crate::ClusterStore::new`], exceeds the `u32::MAX` that
    /// the `SHPK` header holds (then `expected` is `u32::MAX`).
    DimMismatch {
        /// Dimensionality of the stored rows.
        store: usize,
        /// Dimensionality the caller requires.
        expected: usize,
    },
    /// The store was produced under a different pipeline configuration
    /// (encoder/preprocess/bucketing/linkage/threshold fingerprint).
    ConfigMismatch {
        /// Fingerprint recorded in the store.
        store: u64,
        /// Fingerprint the caller requires.
        expected: u64,
    },
    /// The footer checksum does not match the file contents.
    ChecksumMismatch {
        /// Checksum stored in the footer.
        stored: u64,
        /// Checksum computed over the file.
        computed: u64,
    },
    /// The file parsed but its contents are internally inconsistent
    /// (overlapping sections, count mismatches, out-of-range ids, …).
    Corrupt(String),
    /// A medoid row violated the [`spechd_hdc::HvPack`] invariants.
    Pack(PackError),
    /// [`crate::ClusterStore::refresh`] on a store that does not keep
    /// member rows (see [`crate::ClusterStore::new_keeping_rows`]).
    MemberRowMode,
    /// An installment's members do not number its spectra `0..count`
    /// exactly once; `id` is a global id where the numbering breaks.
    InvalidSpectrumId {
        /// The offending id.
        id: u64,
        /// The id horizon the installment would leave behind.
        next: u64,
    },
    /// The 64-bit spectrum id space is exhausted.
    IdSpaceExhausted,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "store i/o error at {}: {source}", path.display())
            }
            StoreError::BadMagic { found } => {
                write!(f, "bad magic {found:02x?} (expected \"SHPK\")")
            }
            StoreError::UnsupportedVersion { found } => {
                write!(f, "unsupported store format version {found}")
            }
            StoreError::Truncated {
                context,
                needed,
                available,
            } => write!(
                f,
                "truncated store file: {context} needs {needed} bytes, {available} available"
            ),
            StoreError::TrailingBytes { expected, found } => write!(
                f,
                "store file has trailing bytes: header accounts for {expected}, file is {found}"
            ),
            StoreError::StrideMismatch { dim, stride } => write!(
                f,
                "header stride {stride} does not match dim {dim} (expected {})",
                (*dim as usize).div_ceil(64)
            ),
            StoreError::DimMismatch { store, expected } => write!(
                f,
                "store dimensionality {store} does not match engine dimensionality {expected}"
            ),
            StoreError::ConfigMismatch { store, expected } => write!(
                f,
                "store config fingerprint {store:#018x} does not match engine {expected:#018x}"
            ),
            StoreError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: footer {stored:#018x}, computed {computed:#018x}"
            ),
            StoreError::Corrupt(detail) => write!(f, "corrupt store file: {detail}"),
            StoreError::Pack(e) => write!(f, "malformed medoid row: {e}"),
            StoreError::MemberRowMode => {
                write!(f, "store does not keep member rows (see new_keeping_rows)")
            }
            StoreError::InvalidSpectrumId { id, next } => write!(
                f,
                "installment does not cover its spectrum ids once (at id {id}, next id {next})"
            ),
            StoreError::IdSpaceExhausted => write!(f, "64-bit spectrum id space exhausted"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Pack(e) => Some(e),
            _ => None,
        }
    }
}

impl StoreError {
    /// Wraps an I/O failure with the path it happened on.
    pub fn io(path: impl Into<std::path::PathBuf>, source: std::io::Error) -> Self {
        StoreError::Io {
            path: path.into(),
            source,
        }
    }
}

impl From<PackError> for StoreError {
    fn from(e: PackError) -> Self {
        StoreError::Pack(e)
    }
}
