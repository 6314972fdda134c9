//! Baselines the paper compares PrIU / PrIU-opt against.
//!
//! * [`retrain`] — **BaseL**: retraining from scratch with the same
//!   mini-batch schedule, excluding the removed samples from every batch.
//! * [`closed_form`] — the incremental closed-form (normal-equation) update
//!   for linear regression used by prior incremental-maintenance work
//!   [13, 22, 40].
//! * [`influence`] — **INFL**: the influence-function estimator of Koh &
//!   Liang [30], extended to removing an arbitrary subset of samples.

pub mod closed_form;
pub mod influence;
pub mod retrain;

pub use closed_form::{closed_form_full, ClosedFormCapture};
pub use influence::influence_update;
pub use retrain::{
    retrain_binary_logistic, retrain_linear, retrain_multinomial_logistic,
    retrain_sparse_binary_logistic,
};
