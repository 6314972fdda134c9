//! PrIU for sparse datasets (§5.3): replay the linearised update rule
//! (Eq. 11) over the surviving samples.
//!
//! For sparse feature matrices the truncated-SVD caches of the dense path
//! would densify the intermediates, so PrIU only reuses the linearisation
//! coefficients captured during training and re-applies the update rule over
//! CSR rows. The cost per iteration is `O(nnz(B_U^{(t)}))` — essentially the
//! retraining cost minus the non-linear evaluations, hence the paper's ~10%
//! speed-up.

use priu_data::dataset::SparseDataset;

use crate::error::Result;
use crate::model::{Model, ModelKind};
use crate::trainer::sparse::SparseLogisticProvenance;
use crate::update::{normalize_removed, removed_positions_into};
use crate::workspace::Workspace;

/// Incrementally updates a sparse binary logistic-regression model after
/// removing the given training samples.
///
/// # Errors
/// Returns [`crate::error::CoreError::InvalidRemoval`] for out-of-range
/// indices and propagates linear-algebra failures.
pub fn priu_update_sparse_logistic(
    dataset: &SparseDataset,
    provenance: &SparseLogisticProvenance,
    removed: &[usize],
) -> Result<Model> {
    priu_update_sparse_logistic_with(dataset, provenance, removed, &mut Workspace::new())
}

/// Like [`priu_update_sparse_logistic`], reusing a caller-owned
/// [`Workspace`] so the replay loop is allocation-free once warm.
///
/// # Errors
/// See [`priu_update_sparse_logistic`].
pub fn priu_update_sparse_logistic_with(
    dataset: &SparseDataset,
    provenance: &SparseLogisticProvenance,
    removed: &[usize],
    ws: &mut Workspace,
) -> Result<Model> {
    let n = dataset.num_samples();
    let removed = normalize_removed(n, removed)?;
    let m = dataset.num_features();
    let eta = provenance.learning_rate;
    let lambda = provenance.regularization;

    let mut w = provenance.initial_model.weight().clone();
    for (t, coeffs) in provenance.coefficients.iter().enumerate() {
        provenance
            .schedule
            .batch_into(t, &mut ws.batch, &mut ws.idx_scratch);
        removed_positions_into(&ws.batch, &removed, &mut ws.positions);
        let b_u = ws.batch.len() - ws.positions.len();
        if b_u == 0 {
            w.scale_mut(1.0 - eta * lambda);
            continue;
        }
        ws.prepare_features(m);
        ws.prepare_sparse_batch(ws.batch.len());
        let Workspace {
            batch,
            positions,
            sel,
            b0: dots,
            b1: slopes,
            b2: intercepts,
            m0: acc,
            ..
        } = ws;
        // Compact the survivors: row indices into `sel`, their captured
        // (a, b') linearisation coefficients into parallel buffers.
        sel.clear();
        let mut next_removed = positions.iter().copied().peekable();
        for (pos, &i) in batch.iter().enumerate() {
            if next_removed.peek() == Some(&pos) {
                next_removed.next();
                continue;
            }
            let (a, b_prime) = coeffs[pos];
            slopes[sel.len()] = a;
            intercepts[sel.len()] = b_prime;
            sel.push(i);
        }
        // Gather phase: all survivor margins xᵀw in one parallel kernel.
        let dots = &mut dots[..sel.len()];
        dataset.x.rows_dot_into(sel, &w, dots)?;
        // Contribution a·x (xᵀw) + b'·x collapses to a single scatter
        // weight per survivor...
        for (k, dot) in dots.iter().enumerate() {
            slopes[k] = slopes[k] * dot + intercepts[k];
        }
        // ...applied as one chunk-ordered deterministic reduction.
        dataset
            .x
            .scatter_rows_into(sel, &slopes[..sel.len()], acc)?;
        // Fused parameter step (bitwise identical to scale_mut + axpy on
        // every SIMD level) — keeps the replay in lock-step with the
        // trainer's fused step.
        w.scale_add(1.0 - eta * lambda, eta / b_u as f64, acc)?;
    }
    Model::new(ModelKind::BinaryLogistic, vec![w])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainerConfig;
    use crate::engine::{DeletionEngine, Method, SparseLogisticEngine};
    use crate::error::CoreError;
    use crate::metrics::{compare_models, sparse_classification_accuracy};
    use crate::trainer::sparse::train_sparse_binary_logistic;
    use priu_data::catalog::Hyperparameters;
    use priu_data::dirty::random_subsets;
    use priu_data::synthetic::sparse_text::{generate_sparse_binary, SparseConfig};

    fn data() -> SparseDataset {
        generate_sparse_binary(&SparseConfig {
            num_samples: 600,
            num_features: 500,
            nnz_per_row: 25,
            informative_fraction: 0.2,
            seed: 71,
        })
    }

    fn config() -> TrainerConfig {
        TrainerConfig::from_hyper(Hyperparameters {
            batch_size: 60,
            num_iterations: 250,
            learning_rate: 0.3,
            regularization: 1e-3,
        })
        .with_seed(6)
    }

    #[test]
    fn removing_nothing_reproduces_the_original_model_up_to_linearisation() {
        let d = data();
        let trained = train_sparse_binary_logistic(&d, &config()).unwrap();
        let updated = priu_update_sparse_logistic(&d, &trained.provenance, &[]).unwrap();
        let cmp = compare_models(&trained.model, &updated).unwrap();
        assert!(cmp.l2_distance < 1e-6, "distance {}", cmp.l2_distance);
    }

    #[test]
    fn matches_retraining_for_small_deletions() {
        let d = data();
        let engine = SparseLogisticEngine::fit(d.clone(), config()).unwrap();
        let removed = random_subsets(d.num_samples(), 0.05, 1, 3)[0].clone();
        let updated = priu_update_sparse_logistic(&d, engine.provenance(), &removed).unwrap();
        let retrained = engine.update(Method::Retrain, &removed).unwrap().model;
        let cmp = compare_models(&retrained, &updated).unwrap();
        assert!(
            cmp.cosine_similarity > 0.999,
            "similarity {}",
            cmp.cosine_similarity
        );
        let acc_updated = sparse_classification_accuracy(&updated, &d).unwrap();
        let acc_retrained = sparse_classification_accuracy(&retrained, &d).unwrap();
        assert!((acc_updated - acc_retrained).abs() < 0.02);
    }

    #[test]
    fn invalid_removals_are_rejected() {
        let d = data();
        let trained = train_sparse_binary_logistic(&d, &config()).unwrap();
        assert!(matches!(
            priu_update_sparse_logistic(&d, &trained.provenance, &[10_000]),
            Err(CoreError::InvalidRemoval { .. })
        ));
    }
}
