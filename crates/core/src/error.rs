//! Error type for the core crate.

use std::fmt;

use priu_linalg::LinalgError;

/// Errors produced by training, provenance capture and incremental updates.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A linear-algebra routine failed.
    Linalg(LinalgError),
    /// The dataset's labels do not match the requested model kind.
    LabelMismatch {
        /// What the operation expected.
        expected: &'static str,
    },
    /// The model parameters diverged (non-finite values) during training or
    /// updating; usually a too-large learning rate for the data at hand.
    Diverged {
        /// Iteration at which divergence was detected.
        iteration: usize,
    },
    /// A removal index was out of range for the dataset.
    InvalidRemoval {
        /// Offending sample index.
        index: usize,
        /// Number of samples in the dataset.
        num_samples: usize,
    },
    /// A configuration value was invalid.
    InvalidConfig(String),
    /// The requested update method is not available on this session — either
    /// the task does not support it (closed-form is linear-only) or the
    /// required capture was not materialised. Query
    /// `DeletionEngine::supported_methods` to discover what a session offers.
    UnsupportedMethod {
        /// Name of the rejected method.
        method: &'static str,
        /// Why the method is unavailable on this session.
        reason: &'static str,
    },
    /// Snapshot bytes could not be decoded (truncated, corrupted, or from
    /// an incompatible format version). Recovery treats this as "skip the
    /// snapshot and fall back", never as a panic.
    Snapshot(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            CoreError::LabelMismatch { expected } => {
                write!(
                    f,
                    "dataset labels do not match the model: expected {expected}"
                )
            }
            CoreError::Diverged { iteration } => {
                write!(f, "model parameters diverged at iteration {iteration}")
            }
            CoreError::InvalidRemoval { index, num_samples } => write!(
                f,
                "removal index {index} out of range for {num_samples} samples"
            ),
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::UnsupportedMethod { method, reason } => {
                write!(f, "update method {method} not supported here: {reason}")
            }
            CoreError::Snapshot(msg) => write!(f, "snapshot error: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<LinalgError> for CoreError {
    fn from(e: LinalgError) -> Self {
        CoreError::Linalg(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::Diverged { iteration: 7 };
        assert!(e.to_string().contains("iteration 7"));
        let e = CoreError::InvalidRemoval {
            index: 10,
            num_samples: 5,
        };
        assert!(e.to_string().contains("10"));
        let e: CoreError = LinalgError::Singular { op: "x" }.into();
        assert!(matches!(e, CoreError::Linalg(_)));
        assert!(e.to_string().contains("singular"));
        assert!(CoreError::UnsupportedMethod {
            method: "Closed-form",
            reason: "linear regression only",
        }
        .to_string()
        .contains("Closed-form"));
        assert!(CoreError::LabelMismatch { expected: "binary" }
            .to_string()
            .contains("binary"));
        assert!(CoreError::InvalidConfig("bad".into())
            .to_string()
            .contains("bad"));
    }
}
