//! PrIU-opt incremental update for linear regression (§5.2, Eq. 15-18).
//!
//! When the feature space is small, the mb-SGD update can be approximated by
//! its full-gradient (GD) counterpart, which diagonalises in the eigenbasis
//! of `M = XᵀX`:
//!
//! 1. offline (during training): cache the normal equations `M = XᵀX`,
//!    `N = XᵀY` and eigendecompose `M = Q diag(c) Qᵀ`;
//! 2. online (per deletion): approximate the eigenvalues of
//!    `M' = M − ΔXᵀΔX` by `c'_i = (Qᵀ M' Q)_{ii}` (Eq. 18, the incremental
//!    eigenvalue update of Ning et al.), update `N' = N − ΔXᵀΔY`, and run the
//!    per-coordinate scalar recursion of Eq. 17 — `O(min{Δn,m}·m² + τ·m)`
//!    total, independent of `n`.

use priu_data::dataset::{DenseDataset, Labels};

use crate::capture::LinearProvenance;
use crate::error::{CoreError, Result};
use crate::model::{Model, ModelKind};
use crate::update::normalize_removed;
use crate::workspace::Workspace;

/// Incrementally updates a linear-regression model after removing the given
/// training samples, using the PrIU-opt eigen-recursion.
///
/// # Errors
/// * [`CoreError::MissingCapture`] if the provenance was captured without the
///   PrIU-opt structures.
/// * [`CoreError::LabelMismatch`] / [`CoreError::InvalidRemoval`] as usual.
pub fn priu_opt_update_linear(
    dataset: &DenseDataset,
    provenance: &LinearProvenance,
    removed: &[usize],
) -> Result<Model> {
    priu_opt_update_linear_with(dataset, provenance, removed, &mut Workspace::new())
}

/// Like [`priu_opt_update_linear`], reusing a caller-owned [`Workspace`] for
/// the removed-row block and the eigenbasis vectors. The per-iteration work
/// is a scalar recursion and allocates nothing; the per-*deletion* setup
/// (eigenvalue downdate) allocates independently of the iteration count.
///
/// # Errors
/// See [`priu_opt_update_linear`].
pub fn priu_opt_update_linear_with(
    dataset: &DenseDataset,
    provenance: &LinearProvenance,
    removed: &[usize],
    ws: &mut Workspace,
) -> Result<Model> {
    let y = match &dataset.labels {
        Labels::Continuous(y) => y,
        _ => {
            return Err(CoreError::LabelMismatch {
                expected: "continuous labels for linear regression",
            })
        }
    };
    let (Some(opt), Some(normal)) = (&provenance.opt, &provenance.normal) else {
        return Err(CoreError::MissingCapture("PrIU-opt linear capture"));
    };
    let n = dataset.num_samples();
    let removed = normalize_removed(n, removed)?;
    let delta_n = removed.len();
    if delta_n >= n {
        return Err(CoreError::InvalidRemoval {
            index: n,
            num_samples: n,
        });
    }
    let n_u = (n - delta_n) as f64;
    let eta = provenance.learning_rate;
    let lambda = provenance.regularization;
    let tau = provenance.schedule.num_iterations();

    // ΔX, ΔY and the downdated quantities.
    ws.batch.clear();
    ws.batch.extend_from_slice(&removed);
    ws.select_batch_rows(&dataset.x);
    let delta_x = &ws.rows;
    ws.b0.clear();
    ws.b0.extend(removed.iter().map(|&i| y[i]));
    let delta_y = &ws.b0;
    // The exact eigenvalues of M' = X_Uᵀ X_U are non-negative; the diagonal
    // approximation of Eq. 18 can dip below zero for high-leverage removals,
    // which would make the recursion expansive, so clamp at zero.
    let mut c_prime = opt.eigen.downdated_eigenvalues(delta_x)?;
    c_prime.map_mut(|c| c.max(0.0));
    let mut n_prime = normal.xty.clone();
    let delta_xty = delta_x.transpose_matvec(delta_y)?;
    n_prime.axpy(-1.0, &delta_xty)?;

    // Work in the eigenbasis: z = Qᵀ w, b̃ = Qᵀ N'.
    let q = &opt.eigen.vectors;
    let w0 = provenance.initial_model.weight();
    let m = w0.len();
    ws.prepare_features(m);
    let Workspace {
        m0: z, m1: b_tilde, ..
    } = ws;
    q.transpose_matvec_into(w0, z)?;
    q.transpose_matvec_into(&n_prime, b_tilde)?;

    // Per-coordinate scalar recursion of Eq. 17 (constant learning rate).
    for i in 0..m {
        let decay = 1.0 - eta * lambda - 2.0 * eta * c_prime[i] / n_u;
        let forcing = 2.0 * eta * b_tilde[i] / n_u;
        let mut zi = z[i];
        for _ in 0..tau {
            zi = decay * zi + forcing;
        }
        z[i] = zi;
    }

    let w = q.matvec(z)?;
    Model::new(ModelKind::Linear, vec![w])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainerConfig;
    use crate::engine::{DeletionEngine, LinearEngine, Method};
    use crate::metrics::{compare_models, mean_squared_error};
    use crate::trainer::linear::train_linear;
    use priu_data::catalog::Hyperparameters;
    use priu_data::dirty::random_subsets;
    use priu_data::synthetic::regression::{generate_regression, RegressionConfig};

    fn dataset() -> DenseDataset {
        generate_regression(&RegressionConfig {
            num_samples: 600,
            num_features: 10,
            noise_std: 0.1,
            seed: 17,
            ..Default::default()
        })
    }

    fn config() -> TrainerConfig {
        TrainerConfig::from_hyper(Hyperparameters {
            batch_size: 60,
            num_iterations: 400,
            learning_rate: 0.05,
            regularization: 0.05,
        })
        .with_seed(2)
    }

    #[test]
    fn close_to_retraining_for_small_deletions() {
        let data = dataset();
        let engine = LinearEngine::fit(data.clone(), config()).unwrap();
        let removed = random_subsets(data.num_samples(), 0.01, 1, 5)[0].clone();
        let updated = priu_opt_update_linear(&data, engine.provenance(), &removed).unwrap();
        let retrained = engine.update(Method::Retrain, &removed).unwrap().model;
        let cmp = compare_models(&retrained, &updated).unwrap();
        assert!(
            cmp.cosine_similarity > 0.999,
            "similarity {}",
            cmp.cosine_similarity
        );
        // PrIU-opt swaps mb-SGD for its GD approximation, so the updated
        // parameters sit within the SGD noise ball around the retrained ones
        // rather than coinciding exactly (§5.2, "statistically the same").
        assert!(cmp.l2_distance < 0.2, "distance {}", cmp.l2_distance);
        // Predictive quality matches retraining (Q1/Q3).
        let kept: Vec<usize> = (0..data.num_samples())
            .filter(|i| !removed.contains(i))
            .collect();
        let remaining = data.select(&kept);
        let mse_updated = mean_squared_error(&updated, &remaining).unwrap();
        let mse_retrained = mean_squared_error(&retrained, &remaining).unwrap();
        assert!(
            mse_updated < 1.5 * mse_retrained + 0.01,
            "mse updated {mse_updated} vs retrained {mse_retrained}"
        );
    }

    #[test]
    fn removing_nothing_stays_close_to_the_original_model() {
        // PrIU-opt approximates mb-SGD by GD, so even the empty deletion is
        // only statistically identical (§5.2); the models must still be very
        // similar in direction and predictive quality.
        let data = dataset();
        let trained = train_linear(&data, &config()).unwrap();
        let updated = priu_opt_update_linear(&data, &trained.provenance, &[]).unwrap();
        let cmp = compare_models(&trained.model, &updated).unwrap();
        assert!(
            cmp.cosine_similarity > 0.999,
            "similarity {}",
            cmp.cosine_similarity
        );
    }

    #[test]
    fn missing_capture_is_reported() {
        let data = dataset();
        let trained = train_linear(&data, &config().with_opt_capture(false)).unwrap();
        assert!(matches!(
            priu_opt_update_linear(&data, &trained.provenance, &[0]),
            Err(CoreError::MissingCapture(_))
        ));
    }

    #[test]
    fn removing_everything_is_rejected() {
        let data = dataset();
        let trained = train_linear(&data, &config()).unwrap();
        let everything: Vec<usize> = (0..data.num_samples()).collect();
        assert!(priu_opt_update_linear(&data, &trained.provenance, &everything).is_err());
    }
}
