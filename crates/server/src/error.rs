//! Typed errors of the deletion service.

use std::fmt;

use priu_core::CoreError;

use crate::protocol::ProtocolError;

/// Everything the server can report to a caller.
#[derive(Debug)]
pub enum ServerError {
    /// The named session is not registered.
    UnknownSession(String),
    /// A session with this name is already registered.
    SessionExists(String),
    /// A predict request's feature vector does not match the session's
    /// feature count.
    FeatureMismatch {
        /// Features the session's model expects.
        expected: usize,
        /// Features the request carried.
        got: usize,
    },
    /// A change request's appended rows are malformed or do not fit the
    /// session (shape, non-finite values, label kind, or class range), or
    /// a predict carried a non-finite feature. Rejected at admission so
    /// one bad add never fails a whole coalesced batch.
    InvalidRows(String),
    /// The underlying deletion engine failed (invalid removal set,
    /// factorisation failure, divergence, ...). The session is left on its
    /// pre-batch state.
    Engine(CoreError),
    /// The coalesced batch containing this request failed; every folded
    /// request receives the same rendered engine error. The session is
    /// left on its pre-batch state.
    BatchFailed(String),
    /// The server is shutting down and no longer admits requests.
    ShuttingDown,
    /// The durability layer failed (WAL I/O, snapshot write, or recovery
    /// found unusable persisted state). Raised before acknowledgement, so
    /// a caller seeing this knows the change was *not* made durable.
    Durability(String),
    /// A wire-protocol frame could not be decoded.
    Protocol(ProtocolError),
    /// A WAL frame or snapshot file is longer than its length prefix
    /// admits, so its reader would reject it. Raised before any byte of it
    /// is written: the log stays usable, the snapshot set unchanged, and
    /// the batch or registration fails unacknowledged.
    Oversized {
        /// What was being written.
        what: &'static str,
        /// Its encoded length in bytes.
        len: usize,
        /// The most its length prefix admits.
        max: u32,
    },
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::UnknownSession(name) => write!(f, "unknown session {name:?}"),
            ServerError::SessionExists(name) => {
                write!(f, "a session named {name:?} is already registered")
            }
            ServerError::FeatureMismatch { expected, got } => write!(
                f,
                "feature count mismatch: session expects {expected}, request carried {got}"
            ),
            ServerError::InvalidRows(message) => {
                write!(f, "invalid rows: {message}")
            }
            ServerError::Engine(err) => write!(f, "deletion engine error: {err}"),
            ServerError::BatchFailed(message) => {
                write!(f, "deletion batch failed: {message}")
            }
            ServerError::ShuttingDown => f.write_str("the server is shutting down"),
            ServerError::Durability(message) => write!(f, "durability error: {message}"),
            ServerError::Protocol(err) => write!(f, "protocol error: {err}"),
            ServerError::Oversized { what, len, max } => {
                write!(f, "{what} of {len} bytes exceeds its {max} byte limit")
            }
        }
    }
}

impl std::error::Error for ServerError {}

/// `len` as the `u32` length prefix of a `what` whose reader admits at
/// most `max` bytes.
///
/// # Errors
/// [`ServerError::Oversized`] if `len` exceeds `max`.
pub(crate) fn length_prefix(what: &'static str, len: usize, max: u32) -> Result<u32> {
    match u32::try_from(len) {
        Ok(prefix) if prefix <= max => Ok(prefix),
        _ => Err(ServerError::Oversized { what, len, max }),
    }
}

impl From<CoreError> for ServerError {
    fn from(err: CoreError) -> Self {
        ServerError::Engine(err)
    }
}

impl From<ProtocolError> for ServerError {
    fn from(err: ProtocolError) -> Self {
        ServerError::Protocol(err)
    }
}

/// Convenience alias used across the server crate.
pub type Result<T> = std::result::Result<T, ServerError>;
