//! # priu — Provenance-based Incremental Updates of regression models
//!
//! Facade crate for the PrIU reproduction (Wu, Tannen, Davidson,
//! *"PrIU: A Provenance-Based Approach for Incrementally Updating Regression
//! Models"*, SIGMOD 2020). It re-exports the public API of the workspace
//! crates so downstream users need a single dependency:
//!
//! * [`linalg`] — dense/sparse linear algebra substrate,
//! * [`provenance`] — the provenance-semiring framework and annotated
//!   matrices,
//! * [`data`] — synthetic dataset generators, dirty-data injection, and
//!   deterministic mini-batch schedules,
//! * [`core`] — the PrIU / PrIU-opt incremental-update algorithms, the
//!   baselines (retraining, closed-form, influence functions), the
//!   evaluation metrics, and the unified `engine` API
//!   (`SessionBuilder` / `DeletionEngine` / `Method`) every session kind is
//!   programmed through — including chained deletions via `apply`.
//!
//! See `examples/quickstart.rs` for a five-minute tour, `DESIGN.md` for the
//! design notes, and the `reproduce` binary in `priu-bench` for the
//! experiment-by-experiment reproduction.

pub use priu_core as core;
pub use priu_data as data;
pub use priu_linalg as linalg;
pub use priu_provenance as provenance;

/// Convenience prelude bringing the most commonly used types into scope.
pub mod prelude {
    pub use priu_core::prelude::*;
    pub use priu_data::prelude::*;
    pub use priu_linalg::{Matrix, Vector};
    pub use priu_provenance::{Polynomial, Token, Valuation};
}
