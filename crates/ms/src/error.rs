//! Error type shared by the MS data model and file format parsers.

use std::fmt;

/// Errors produced by spectrum construction and file format I/O.
#[derive(Debug)]
pub enum MsError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A file could not be parsed; carries the 1-based line number (0 when
    /// unknown) and a description.
    Parse {
        /// 1-based line number of the offending input, 0 if not line-oriented.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// A spectrum violated a model invariant (non-finite m/z, negative
    /// intensity, zero charge, ...).
    InvalidSpectrum(String),
}

impl MsError {
    /// Convenience constructor for parse errors.
    pub fn parse(line: usize, message: impl Into<String>) -> Self {
        MsError::Parse {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for MsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsError::Io(e) => write!(f, "i/o error: {e}"),
            MsError::Parse { line: 0, message } => write!(f, "parse error: {message}"),
            MsError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            MsError::InvalidSpectrum(msg) => write!(f, "invalid spectrum: {msg}"),
        }
    }
}

impl std::error::Error for MsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MsError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for MsError {
    fn from(e: std::io::Error) -> Self {
        MsError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_variants() {
        let p = MsError::parse(12, "bad token");
        assert_eq!(p.to_string(), "parse error at line 12: bad token");
        let p0 = MsError::parse(0, "bad payload");
        assert_eq!(p0.to_string(), "parse error: bad payload");
        let i = MsError::InvalidSpectrum("negative intensity".into());
        assert!(i.to_string().contains("negative intensity"));
    }

    #[test]
    fn io_error_source_preserved() {
        let inner = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = MsError::from(inner);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("gone"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MsError>();
    }
}
