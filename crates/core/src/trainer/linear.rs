//! Linear-regression training (Eq. 5) with provenance capture (§5.1, §5.2).

use priu_data::dataset::{DenseDataset, Labels};
use priu_data::minibatch::BatchSchedule;
use priu_linalg::decomposition::eigen::SymmetricEigen;
use priu_linalg::{Matrix, Vector};

use crate::capture::{
    GramCache, LinearIterationCache, LinearOptCapture, LinearProvenance, NormalEquations,
};
use crate::config::{Compression, TrainerConfig};
use crate::error::{CoreError, Result};
use crate::model::{Model, ModelKind};
use crate::workspace::Workspace;

/// Runs one mb-SGD step (Eq. 5) on the batch currently staged in
/// `ws.batch`, selecting rows from `x`/`y` and mutating `w` in place. This
/// is the *single* definition of the linear GD step: the trainer loop calls
/// it per scheduled iteration, and the delta engine calls it for BaseL's
/// retraining and for appended explicit batches — so both agree with
/// training by construction.
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

/// The result of training a linear-regression model with provenance capture.
#[derive(Debug, Clone)]
pub struct TrainedLinear {
    /// The trained model `M_init`.
    pub model: Model,
    /// The captured provenance, consumed by `update::priu_linear` and
    /// `update::priu_opt_linear`.
    pub provenance: LinearProvenance,
}

/// Trains a linear-regression model with mb-SGD (Eq. 5) while caching, per
/// iteration, the batch Gram matrix `Σ_{i∈B_t} x_i x_iᵀ` (possibly truncated,
/// Eq. 14) and the moment vector `Σ_{i∈B_t} x_i y_i` (Eq. 13). When
/// `config.capture_opt` is set the PrIU-opt offline structures (§5.2) — the
/// normal-equations view `XᵀX`, `XᵀY` and the eigendecomposition of `XᵀX`
/// — are captured as well.
///
/// # Errors
/// * [`CoreError::LabelMismatch`] if the dataset is not a regression dataset.
/// * [`CoreError::Diverged`] if the parameters become non-finite (learning
///   rate too large for the data).
pub fn train_linear(dataset: &DenseDataset, config: &TrainerConfig) -> Result<TrainedLinear> {
    train_linear_with(dataset, config, &mut Workspace::new())
}

/// Like [`train_linear`], reusing a caller-owned [`Workspace`]: once the
/// buffers are warm, the GD step itself performs no heap allocation per
/// iteration (provenance capture storage still allocates — it outlives the
/// loop by design).
///
/// # Errors
/// See [`train_linear`].
pub fn train_linear_with(
    dataset: &DenseDataset,
    config: &TrainerConfig,
    ws: &mut Workspace,
) -> Result<TrainedLinear> {
    let y = match &dataset.labels {
        Labels::Continuous(y) => y,
        _ => {
            return Err(CoreError::LabelMismatch {
                expected: "continuous labels for linear regression",
            })
        }
    };
    let n = dataset.num_samples();
    let m = dataset.num_features();
    let hyper = &config.hyper;
    let schedule = BatchSchedule::new(n, hyper.batch_size, hyper.num_iterations, config.seed);
    let eta = hyper.learning_rate;
    let lambda = hyper.regularization;

    let initial_model = Model::zeros(ModelKind::Linear, m);
    let mut w = Vector::zeros(m);
    let mut iterations = Vec::with_capacity(hyper.num_iterations);

    for t in 0..hyper.num_iterations {
        schedule.batch_into(t, &mut ws.batch, &mut ws.idx_scratch);
        let cache = linear_step(
            &dataset.x,
            y,
            &mut w,
            eta,
            lambda,
            Some(config.compression),
            ws,
        )?
        .expect("capture was requested");
        if t % 32 == 0 && !w.is_finite() {
            return Err(CoreError::Diverged { iteration: t });
        }
        iterations.push(cache);
    }
    if !w.is_finite() {
        return Err(CoreError::Diverged {
            iteration: hyper.num_iterations,
        });
    }

    // PrIU-opt offline capture: the normal equations M = XᵀX, N = XᵀY and
    // the eigendecomposition of M. The Gram matrix and the tridiagonal + QL
    // solve run on workspace buffers (`weighted_gram_into` +
    // `SymmetricEigen::new_with`), so with a pre-sized workspace the
    // capture allocates only what it stores.
    let (normal, opt) = if config.capture_opt {
        ws.prepare_square(m);
        let Workspace { mm0, eig, .. } = ws;
        dataset.x.weighted_gram_into(None, mm0);
        let eigen = SymmetricEigen::new_with(mm0, eig)?;
        let normal = NormalEquations {
            xtx: mm0.clone(),
            xty: dataset.x.transpose_matvec(y)?,
            n,
        };
        (Some(normal), Some(LinearOptCapture { eigen }))
    } else {
        (None, None)
    };

    let model = Model::new(ModelKind::Linear, vec![w])?;
    Ok(TrainedLinear {
        model,
        provenance: LinearProvenance {
            schedule,
            learning_rate: eta,
            regularization: lambda,
            initial_model,
            iterations,
            normal,
            opt,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::ProvenanceMemory;
    use crate::config::Compression;
    use crate::metrics;
    use priu_data::catalog::Hyperparameters;
    use priu_data::synthetic::regression::{generate_regression, RegressionConfig};

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

    #[test]
    fn training_reduces_mse_substantially() {
        let data = dataset();
        let trained = train_linear(&data, &config()).unwrap();
        let mse = metrics::mean_squared_error(&trained.model, &data).unwrap();
        let baseline_mse =
            metrics::mean_squared_error(&Model::zeros(ModelKind::Linear, 6), &data).unwrap();
        assert!(
            mse < baseline_mse * 0.05,
            "trained mse {mse} vs baseline {baseline_mse}"
        );
        assert!(trained.model.is_finite());
        assert_eq!(trained.provenance.iterations.len(), 300);
        assert!(trained.provenance.opt.is_some());
        assert!(trained.provenance.provenance_bytes() > 0);
    }

    #[test]
    fn training_is_deterministic() {
        let data = dataset();
        let a = train_linear(&data, &config()).unwrap();
        let b = train_linear(&data, &config()).unwrap();
        assert_eq!(a.model, b.model);
        let c = train_linear(&data, &config().with_seed(6)).unwrap();
        assert_ne!(a.model, c.model);
    }

    #[test]
    fn compressed_capture_trains_to_the_same_model() {
        let data = dataset();
        let dense = train_linear(&data, &config()).unwrap();
        let compressed = train_linear(
            &data,
            &config().with_compression(Compression::Exact { rank: 2 }),
        )
        .unwrap();
        // Compression only changes what is cached, not the training trajectory.
        assert_eq!(dense.model, compressed.model);
        // A rank-2 cache stores 2·m·r = 24 values per iteration vs m² = 36.
        assert!(compressed.provenance.provenance_bytes() < dense.provenance.provenance_bytes());
    }

    #[test]
    fn opt_capture_can_be_disabled() {
        let data = dataset();
        let trained = train_linear(&data, &config().with_opt_capture(false)).unwrap();
        assert!(trained.provenance.opt.is_none());
        assert!(trained.provenance.normal.is_none());
    }

    #[test]
    fn wrong_labels_are_rejected() {
        let data = DenseDataset::new(
            priu_linalg::Matrix::zeros(10, 2),
            Labels::Binary(Vector::from_fn(10, |i| if i % 2 == 0 { 1.0 } else { -1.0 })),
        );
        assert!(matches!(
            train_linear(&data, &config()),
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
        assert!(matches!(
            train_linear(&data, &bad),
            Err(CoreError::Diverged { .. })
        ));
    }
}
