//! # priu-core
//!
//! The core of the PrIU reproduction (Wu, Tannen, Davidson, SIGMOD 2020):
//! provenance-based incremental updates of regression models after deleting
//! subsets of their training samples.
//!
//! ## What the library does
//!
//! 1. **Train** a linear-regression, binary-logistic or multinomial-logistic
//!    model with mini-batch SGD (Eq. 5/6) while *capturing provenance*: the
//!    per-iteration contributions of the training samples to the update rule
//!    (Gram forms and interpolation coefficients, §4.1/§4.2), optionally
//!    compressed with truncated SVD (§5.1/§5.3).
//! 2. **Delete** an arbitrary subset of training samples (data cleaning,
//!    interpretability probes, deletion diagnostics).
//! 3. **Update** the model parameters with any registered
//!    [`engine::Method`] — PrIU, PrIU-opt, BaseL retraining, the closed-form
//!    ridge update or the influence-function estimate — through one uniform
//!    [`engine::DeletionEngine`] API, obtaining a model provably close to the
//!    retrained one (Theorems 5/8/9) at a small fraction of the cost.
//!
//! ## Where each equation lives
//!
//! The GD steps of Eq. 5/6 and the §4.1/§4.2 provenance they capture are
//! written in [`trainer`]; the captures are stored in [`capture`]. Both
//! phases run in [`engine`], on one walk over the schedule: the offline
//! fit walks it with capture on, and in the online delta pipeline BaseL
//! and PrIU walk it again. The family modules supply one PrIU iteration
//! each — linear regression (Eq. 13/14), dense logistic regression (Eq.
//! 19/20) and the sparse linearised rule (Eq. 11, §5.3) — plus PrIU-opt
//! (Eq. 15-18 for linear regression, §5.4 for logistic, whose first phase
//! is the same walk cut at its switch iteration). [`update`] holds the
//! removal-set helpers the walk shares.
//!
//! ## Quick start
//!
//! Train once through the [`engine::SessionBuilder`] (the model family
//! follows the labels), then answer any number of deletion requests:
//!
//! ```
//! use priu_core::prelude::*;
//! use priu_data::prelude::*;
//!
//! // A small synthetic regression dataset standing in for UCI SGEMM.
//! let spec = DatasetCatalog::sgemm_original().scaled(0.02);
//! let dataset = spec.generate();
//! let dense = dataset.as_dense().unwrap();
//!
//! // Train once, capturing provenance (the offline phase).
//! let config = TrainerConfig::from_hyper(spec.hyper);
//! let session = SessionBuilder::dense(dense.clone(), config)
//!     .seed(7)
//!     .fit()
//!     .unwrap();
//!
//! // Discover what this session can do: closed-form is linear-only, so it
//! // is present here but absent on logistic sessions.
//! assert!(session.supports(Method::ClosedForm));
//!
//! // Delete 1% of the training samples and update incrementally.
//! let removed = random_subsets(session.num_samples(), 0.01, 1, 3)[0].clone();
//! let updated = session.update(Method::Priu, &removed).unwrap();
//! let retrained = session.update(Method::Retrain, &removed).unwrap();
//! let cmp = compare_models(&updated.model, &retrained.model).unwrap();
//! assert!(cmp.cosine_similarity > 0.99);
//!
//! // Or run every supported method at once, keyed by `Method`.
//! let report = session.run_all(&removed).unwrap();
//! assert!(report.get(Method::Retrain).unwrap().duration >= report.get(Method::Priu).unwrap().duration / 1000);
//!
//! // Chained deletions: consume the outcome into a new session over the
//! // survivors (the paper's Fig. 4 repeated-deletion scenario).
//! let chained = session.apply(Method::Priu, &removed).unwrap();
//! assert_eq!(chained.session.num_samples(), session.num_samples() - removed.len());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baseline;
pub mod capture;
pub mod config;
pub mod engine;
pub mod error;
pub mod interpolation;
pub mod metrics;
pub mod model;
pub mod objective;
pub mod reference;
pub mod snapshot;
pub mod trainer;
pub mod update;
pub mod workspace;

pub use config::{Compression, TrainerConfig};
pub use engine::{
    CaptureSnapshot, ChainedUpdate, DeletionEngine, Delta, DeltaRows, LinearEngine, LogisticEngine,
    Method, MethodReport, Session, SessionBuilder, SparseLogisticEngine, StagedDelta,
    UpdateOutcome,
};
pub use error::{CoreError, Result};
pub use metrics::{compare_models, ModelComparison};
pub use model::{Model, ModelKind};
pub use priu_data::dataset::TaskKind;
pub use workspace::Workspace;

/// Convenience prelude bringing the most commonly used types into scope.
pub mod prelude {
    pub use crate::baseline::influence::influence_update;
    pub use crate::capture::ProvenanceMemory;
    pub use crate::config::{Compression, TrainerConfig};
    pub use crate::engine::{
        CaptureSnapshot, ChainedUpdate, DeletionEngine, Delta, DeltaRows, LinearEngine,
        LogisticEngine, Method, MethodReport, Session, SessionBuilder, SparseLogisticEngine,
        UpdateOutcome,
    };
    pub use crate::error::{CoreError, Result};
    pub use crate::interpolation::PiecewiseLinearSigmoid;
    pub use crate::metrics::{compare_models, ModelComparison};
    pub use crate::model::{Model, ModelKind};
}
