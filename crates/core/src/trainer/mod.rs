//! The per-iteration GD steps and the captures they feed.
//!
//! Each family's step runs the *exact* mb-SGD update rule (Eq. 5/6) and,
//! when asked, captures the iteration's provenance intermediates PrIU needs
//! for later incremental updates: Gram-form sample contributions, moment
//! vectors and linearisation coefficients. Training is not a loop of its
//! own: `Engine::fit` walks the schedule through the same replay BaseL and
//! PrIU use, running these steps with capture on, and then adds the
//! family's offline captures (the PrIU-opt eigendecompositions, whose
//! logistic form is built here).

pub mod linear;
pub mod logistic;
pub mod sparse;

pub use sparse::SparseLogisticProvenance;
