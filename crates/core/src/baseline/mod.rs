//! Baselines the paper compares PrIU / PrIU-opt against, beyond BaseL.
//!
//! BaseL — retraining with the same mini-batch schedule, the removed
//! samples excluded from every batch — has no module here: it is
//! `Method::Retrain` in the engine's delta pipeline, which replays the
//! fit's own GD step (`engine`, DESIGN §2.1).
//!
//! * [`closed_form`] — the incremental closed-form (normal-equation) update
//!   for linear regression used by prior incremental-maintenance work
//!   [13, 22, 40].
//! * [`influence`] — **INFL**: the influence-function estimator of Koh &
//!   Liang [30], extended to removing an arbitrary subset of samples.

pub mod closed_form;
pub mod influence;

pub use closed_form::{closed_form_full, ClosedFormCapture};
pub use influence::influence_update;
