//! The linear-regression GD step (Eq. 5) with provenance capture (§5.1).

use priu_linalg::{Matrix, Vector};

use crate::capture::{GramCache, LinearIterationCache};
use crate::config::Compression;
use crate::error::Result;
use crate::workspace::Workspace;

/// Runs one mb-SGD step (Eq. 5) on the batch currently staged in
/// `ws.batch`, selecting rows from `x`/`y` and mutating `w` in place. This
/// is the *single* definition of the linear GD step: the engine's fit calls
/// it per scheduled iteration, and BaseL's retraining and the appended
/// explicit batches call it too — so they agree with training by
/// construction.
///
/// With `capture` set the iteration's provenance (Gram cache + moment
/// vector) is built and returned — that storage allocates by design. With
/// `None` the step touches only workspace buffers, so a warm workspace makes
/// it allocation-free (BaseL and the delta engine's model-only addition
/// path).
pub(crate) fn linear_step(
    x: &Matrix,
    y: &Vector,
    w: &mut Vector,
    eta: f64,
    lambda: f64,
    capture: Option<Compression>,
    ws: &mut Workspace,
) -> Result<Option<LinearIterationCache>> {
    let m = x.ncols();
    let b = ws.batch.len();
    ws.select_batch_rows(x);
    ws.prepare_batch(b);
    ws.prepare_features(m);
    let Workspace {
        batch,
        rows,
        b0: residuals,
        b1: y_batch,
        m0: grad,
        ..
    } = ws;

    // Gradient step: w ← (1-ηλ) w − (2η/B) Σ x_i (x_iᵀ w − y_i).
    rows.matvec_into(w, residuals)?;
    for (pos, &i) in batch.iter().enumerate() {
        y_batch[pos] = y[i];
        residuals[pos] -= y[i];
    }
    rows.transpose_matvec_into(residuals, grad)?;
    // Fused parameter step (bitwise identical to scale_mut + axpy on
    // every SIMD level — one pass over w instead of two).
    w.scale_add(1.0 - eta * lambda, -2.0 * eta / b as f64, grad)?;

    let Some(compression) = capture else {
        return Ok(None);
    };
    // Provenance capture for this iteration (allocates: it is storage).
    let xy = rows.transpose_matvec(y_batch)?;
    let b2 = &mut ws.b2;
    b2.clear();
    b2.resize(b, 1.0);
    let gram = GramCache::build(&ws.rows, b2, compression)?;
    Ok(Some(LinearIterationCache {
        gram,
        xy,
        batch_size: b,
    }))
}

#[cfg(test)]
mod tests {
    use crate::capture::ProvenanceMemory;
    use crate::config::{Compression, TrainerConfig};
    use crate::engine::{DeletionEngine, LinearEngine, Session, SessionBuilder};
    use crate::error::{CoreError, Result};
    use crate::metrics;
    use crate::model::{Model, ModelKind};
    use priu_data::catalog::Hyperparameters;
    use priu_data::dataset::{DenseDataset, Labels};
    use priu_data::synthetic::regression::{generate_regression, RegressionConfig};
    use priu_linalg::Vector;

    fn dataset() -> DenseDataset {
        generate_regression(&RegressionConfig {
            num_samples: 400,
            num_features: 6,
            noise_std: 0.05,
            seed: 11,
            ..Default::default()
        })
    }

    fn config() -> TrainerConfig {
        TrainerConfig::from_hyper(Hyperparameters {
            batch_size: 40,
            num_iterations: 300,
            learning_rate: 0.05,
            regularization: 0.01,
        })
        .with_seed(5)
    }

    /// A linear session without the closed-form view, so the
    /// normal-equations view is there only for PrIU-opt.
    fn fit(data: &DenseDataset, config: &TrainerConfig) -> Result<LinearEngine> {
        let builder = SessionBuilder::dense(data.clone(), *config).closed_form_capture(false);
        match builder.fit()? {
            Session::Linear(engine) => Ok(engine),
            _ => unreachable!("continuous labels fit a linear session"),
        }
    }

    #[test]
    fn training_reduces_mse_substantially() {
        let data = dataset();
        let trained = fit(&data, &config()).unwrap();
        let mse = metrics::mean_squared_error(trained.model(), &data).unwrap();
        let baseline_mse =
            metrics::mean_squared_error(&Model::zeros(ModelKind::Linear, 6), &data).unwrap();
        assert!(
            mse < baseline_mse * 0.05,
            "trained mse {mse} vs baseline {baseline_mse}"
        );
        assert!(trained.model().is_finite());
        assert_eq!(trained.provenance().iterations.len(), 300);
        assert!(trained.provenance().opt.is_some());
        assert!(trained.provenance().provenance_bytes() > 0);
    }

    #[test]
    fn training_is_deterministic() {
        let data = dataset();
        let a = fit(&data, &config()).unwrap();
        let b = fit(&data, &config()).unwrap();
        assert_eq!(a.model(), b.model());
        let c = fit(&data, &config().with_seed(6)).unwrap();
        assert_ne!(a.model(), c.model());
    }

    #[test]
    fn compressed_capture_trains_to_the_same_model() {
        let data = dataset();
        let dense = fit(&data, &config()).unwrap();
        let compressed = fit(
            &data,
            &config().with_compression(Compression::Exact { rank: 2 }),
        )
        .unwrap();
        // Compression only changes what is cached, not the training trajectory.
        assert_eq!(dense.model(), compressed.model());
        // A rank-2 cache stores 2·m·r = 24 values per iteration vs m² = 36.
        assert!(compressed.provenance().provenance_bytes() < dense.provenance().provenance_bytes());
    }

    #[test]
    fn opt_capture_can_be_disabled() {
        let data = dataset();
        let trained = fit(&data, &config().with_opt_capture(false)).unwrap();
        assert!(trained.provenance().opt.is_none());
        assert!(trained.provenance().normal.is_none());
    }

    #[test]
    fn wrong_labels_are_rejected() {
        let data = DenseDataset::new(
            priu_linalg::Matrix::zeros(10, 2),
            Labels::Binary(Vector::from_fn(10, |i| if i % 2 == 0 { 1.0 } else { -1.0 })),
        );
        assert!(matches!(
            LinearEngine::fit(data, config()),
            Err(CoreError::LabelMismatch { .. })
        ));
    }

    #[test]
    fn divergence_is_detected() {
        let data = dataset();
        let bad = TrainerConfig::from_hyper(Hyperparameters {
            batch_size: 40,
            num_iterations: 200,
            learning_rate: 50.0,
            regularization: 0.0,
        });
        assert!(matches!(fit(&data, &bad), Err(CoreError::Diverged { .. })));
    }
}
