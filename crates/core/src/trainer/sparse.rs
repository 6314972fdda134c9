//! The sparse binary logistic-regression GD step (the RCV1-style path of
//! §5.3) and the provenance it captures.
//!
//! For sparse datasets PrIU does not cache Gram-form intermediates (their
//! truncated factors would be dense); it only records the per-iteration
//! linearisation coefficients and replays the linearised update rule
//! (Eq. 11) over the surviving samples, so the expected speed-up over
//! retraining is marginal — which is exactly what the paper reports (~10%).

use std::sync::Arc;

use priu_data::minibatch::BatchSchedule;
use priu_linalg::{CsrMatrix, Vector};

use crate::error::Result;
use crate::interpolation::PiecewiseLinearSigmoid;
use crate::model::Model;
use crate::workspace::Workspace;

/// Provenance captured while training a sparse binary logistic model: the
/// mini-batch schedule plus, per iteration, the `(a, b')` linearisation
/// coefficients of every batch member (in batch order).
#[derive(Debug, Clone)]
pub struct SparseLogisticProvenance {
    /// The deterministic mini-batch schedule shared with the update phase.
    pub schedule: BatchSchedule,
    /// Learning rate `η`.
    pub learning_rate: f64,
    /// Regularisation rate `λ`.
    pub regularization: f64,
    /// Initial parameters `w^{(0)}`.
    pub initial_model: Model,
    /// Per-iteration `(a, b')` coefficients, aligned with the batch order,
    /// each shared with the sessions chained from this one until a delta
    /// touches its batch.
    pub coefficients: Vec<Arc<Vec<(f64, f64)>>>,
}

/// Runs one exact sparse binary-logistic mb-SGD step on the batch staged in
/// `ws.batch` (gather margins, scatter gradient — the batched CSR kernels),
/// mutating `w` in place. The single definition of the step: the engine's
/// fit calls it per scheduled iteration, BaseL's retraining and the
/// appended explicit batches call it too. With `capture` set the
/// iteration's `(a, b')` linearisation coefficients are collected and
/// returned (allocates: it is storage); with `false` the step touches only
/// workspace buffers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sparse_logistic_step(
    x: &CsrMatrix,
    y: &Vector,
    w: &mut Vector,
    eta: f64,
    lambda: f64,
    interp: &PiecewiseLinearSigmoid,
    capture: bool,
    ws: &mut Workspace,
) -> Result<Option<Vec<(f64, f64)>>> {
    let m = x.ncols();
    let b = ws.batch.len() as f64;
    ws.prepare_features(m);
    ws.prepare_sparse_batch(ws.batch.len());
    let Workspace {
        batch,
        b0: dots,
        b1: alphas,
        m0: acc,
        ..
    } = ws;
    let dots = &mut dots[..batch.len()];
    let alphas = &mut alphas[..batch.len()];
    // Gather phase: all per-sample margins in one parallel kernel.
    x.rows_dot_into(batch, w, dots)?;
    let mut iter_coeffs = capture.then(|| Vec::with_capacity(batch.len()));
    for (pos, &i) in batch.iter().enumerate() {
        let margin = y[i] * dots[pos];
        let f = PiecewiseLinearSigmoid::exact(margin);
        alphas[pos] = y[i] * f;
        if let Some(coeffs) = iter_coeffs.as_mut() {
            let seg = interp.coefficients(margin);
            coeffs.push((seg.slope, seg.intercept * y[i]));
        }
    }
    // Scatter phase: the batch gradient as one chunk-ordered reduction.
    x.scatter_rows_into(batch, alphas, acc)?;
    // Fused parameter step (bitwise identical to scale_mut + axpy).
    w.scale_add(1.0 - eta * lambda, eta / b, acc)?;
    Ok(iter_coeffs)
}

#[cfg(test)]
mod tests {
    use crate::capture::ProvenanceMemory;
    use crate::config::TrainerConfig;
    use crate::engine::{DeletionEngine, SparseLogisticEngine};
    use crate::error::CoreError;
    use crate::metrics::sparse_classification_accuracy;
    use priu_data::catalog::Hyperparameters;
    use priu_data::dataset::{Labels, SparseDataset};
    use priu_data::synthetic::sparse_text::{generate_sparse_binary, SparseConfig};
    use priu_linalg::Vector;

    fn data() -> SparseDataset {
        generate_sparse_binary(&SparseConfig {
            num_samples: 500,
            num_features: 400,
            nnz_per_row: 20,
            informative_fraction: 0.2,
            seed: 31,
        })
    }

    fn config() -> TrainerConfig {
        TrainerConfig::from_hyper(Hyperparameters {
            batch_size: 50,
            num_iterations: 300,
            learning_rate: 0.3,
            regularization: 1e-3,
        })
        .with_seed(4)
    }

    #[test]
    fn sparse_training_beats_chance() {
        let d = data();
        let trained = SparseLogisticEngine::fit(d.clone(), config()).unwrap();
        let acc = sparse_classification_accuracy(trained.model(), &d).unwrap();
        assert!(acc > 0.7, "accuracy {acc}");
        assert_eq!(trained.provenance().coefficients.len(), 300);
        assert_eq!(trained.provenance().coefficients[0].len(), 50);
        assert!(trained.provenance().provenance_bytes() > 0);
    }

    #[test]
    fn sparse_training_is_deterministic() {
        let a = SparseLogisticEngine::fit(data(), config()).unwrap();
        let b = SparseLogisticEngine::fit(data(), config()).unwrap();
        assert_eq!(a.model(), b.model());
    }

    #[test]
    fn wrong_labels_are_rejected() {
        let d = data();
        let bad = SparseDataset::new(
            d.x.clone(),
            Labels::Continuous(Vector::zeros(d.num_samples())),
        );
        assert!(matches!(
            SparseLogisticEngine::fit(bad, config()),
            Err(CoreError::LabelMismatch { .. })
        ));
    }
}
