//! Error types for the streaming engine.

use std::fmt;

use noisemine_core::ScanError;
use noisemine_seqdb::bytes::ByteError;

/// Errors produced by the streaming engine.
#[derive(Debug)]
pub enum Error {
    /// An error bubbled up from the core miner (bad config, truncated
    /// phase 2, …).
    Core(noisemine_core::error::Error),
    /// The backing sequence store failed mid-scan (I/O fault, corrupt or
    /// truncated record) during ingestion or a re-mine.
    Scan(ScanError),
    /// An I/O error while writing or reading a checkpoint.
    Io(std::io::Error),
    /// A checkpoint file failed structural validation (bad magic, version,
    /// or inconsistent payload).
    Corrupt(String),
    /// The checkpoint was taken against a different compatibility matrix
    /// than the one supplied at restore time.
    MatrixMismatch {
        /// Alphabet size recorded in the checkpoint.
        expected: usize,
        /// Alphabet size of the supplied matrix.
        got: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Core(e) => write!(f, "{e}"),
            Error::Scan(e) => write!(f, "database scan failed: {e}"),
            Error::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            Error::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            Error::MatrixMismatch { expected, got } => write!(
                f,
                "checkpoint was taken against a different compatibility matrix \
                 (alphabet size {expected} recorded, {got} supplied)"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Core(e) => Some(e),
            Error::Scan(e) => Some(e),
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<noisemine_core::error::Error> for Error {
    fn from(e: noisemine_core::error::Error) -> Self {
        // Unwrap scan failures so callers can match on the scan fault
        // directly instead of digging through the core error.
        match e {
            noisemine_core::error::Error::Scan(s) => Error::Scan(s),
            other => Error::Core(other),
        }
    }
}

impl From<ScanError> for Error {
    fn from(e: ScanError) -> Self {
        Error::Scan(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// A checkpoint field that fails to decode.
impl From<ByteError> for Error {
    fn from(e: ByteError) -> Self {
        Error::Corrupt(match e {
            ByteError::Truncated { what, at, .. } => {
                format!("truncated while reading {what} at offset {at}")
            }
            ByteError::Overlong {
                what,
                claimed,
                left,
            } => format!("{what} claims {claimed} records but only {left} bytes remain"),
        })
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;
