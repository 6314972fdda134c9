//! PrIU-opt incremental update for logistic regression (§5.4).
//!
//! The optimisation exploits the observation that the linearisation
//! coefficients stabilise as training converges: after iteration
//! `ts ≈ 0.7·τ` the training phase froze per-sample coefficients
//! `(a_{i,*}, b'_{i,*})`, materialised the full-data `C*` / `D*` once, and
//! eigendecomposed `C*` offline. The online update therefore
//!
//! 1. replays the ordinary PrIU recursion (Eq. 19/20) for `t < ts`;
//! 2. downdates the eigenvalues of `C*` for the removed samples
//!    (`c'_i = c_i − (QᵀΔC*Q)_{ii}`, the same incremental eigenvalue update
//!    as §5.2) and subtracts `ΔD*`;
//! 3. finishes the remaining `τ − ts` iterations as a per-coordinate scalar
//!    recursion in the eigenbasis — `O((τ−ts)·m)` instead of
//!    `O((τ−ts)·(r·m + ΔB·m))`.

use priu_data::dataset::DenseDataset;

use crate::capture::LogisticProvenance;
use crate::error::{CoreError, Result};
use crate::model::Model;
use crate::update::normalize_removed;
use crate::update::priu_logistic::priu_update_logistic_range;
use crate::workspace::Workspace;

/// Incrementally updates a (binary or multinomial) logistic-regression model
/// using the PrIU-opt early-termination strategy.
///
/// # Errors
/// * [`CoreError::MissingCapture`] if the provenance was captured without the
///   PrIU-opt structures.
/// * [`CoreError::InvalidRemoval`] for invalid removal sets (including
///   removing every sample).
pub fn priu_opt_update_logistic(
    dataset: &DenseDataset,
    provenance: &LogisticProvenance,
    removed: &[usize],
) -> Result<Model> {
    priu_opt_update_logistic_with(dataset, provenance, removed, &mut Workspace::new())
}

/// Like [`priu_opt_update_logistic`], reusing a caller-owned [`Workspace`]:
/// the phase-1 replay is allocation-free per iteration (it shares the plain
/// PrIU loop) and the phase-2 eigen-recursion allocates only per class,
/// independently of the iteration count.
///
/// # Errors
/// See [`priu_opt_update_logistic`].
pub fn priu_opt_update_logistic_with(
    dataset: &DenseDataset,
    provenance: &LogisticProvenance,
    removed: &[usize],
    ws: &mut Workspace,
) -> Result<Model> {
    let opt = provenance
        .opt
        .as_ref()
        .ok_or(CoreError::MissingCapture("PrIU-opt logistic capture"))?;
    let n = dataset.num_samples();
    let removed = normalize_removed(n, removed)?;
    if removed.len() >= n {
        return Err(CoreError::InvalidRemoval {
            index: n,
            num_samples: n,
        });
    }
    let eta = provenance.learning_rate;
    let lambda = provenance.regularization;
    let tau = provenance.schedule.num_iterations();
    let ts = opt.switch_iteration.min(provenance.iterations.len());
    let n_u = (n - removed.len()) as f64;

    // Phase 1: ordinary PrIU replay for the provenance-tracked iterations.
    let mut model = priu_update_logistic_range(
        dataset,
        provenance,
        &removed,
        0,
        ts,
        provenance.initial_model.clone(),
        ws,
    )?;

    if tau <= ts {
        return Ok(model);
    }

    // Phase 2: frozen-coefficient GD in the eigenbasis of C*.
    ws.batch.clear();
    ws.batch.extend_from_slice(&removed);
    ws.select_batch_rows(&dataset.x);
    let remaining_iterations = tau - ts;
    let weights = model.weights_mut();
    let m = dataset.num_features();
    for (k, class) in opt.classes.iter().enumerate() {
        ws.prepare_batch(removed.len());
        ws.prepare_features(m);
        let Workspace {
            rows: delta_rows,
            b0: a_removed,
            b1: b_removed,
            m0: z,
            m1: d_tilde,
            ..
        } = ws;
        // Removed samples' frozen coefficients.
        for (slot, &i) in removed.iter().enumerate() {
            a_removed[slot] = class.coefficients[i].0;
            b_removed[slot] = class.coefficients[i].1;
        }

        // Downdated eigenvalues of C*' = C* − ΔC* and moment vector D*'.
        // C*' is negative semi-definite (the linearisation slopes are ≤ 0);
        // clamp the diagonal eigenvalue approximation accordingly so the
        // recursion stays contractive for high-leverage removals.
        let mut c_prime = class
            .eigen
            .downdated_eigenvalues_weighted(delta_rows, a_removed)?;
        c_prime.map_mut(|c| c.min(0.0));
        let mut d_prime = class.d_star.clone();
        let delta_d = delta_rows.transpose_matvec(b_removed)?;
        d_prime.axpy(-1.0, &delta_d)?;

        // Scalar recursion in the eigenbasis.
        let q = &class.eigen.vectors;
        q.transpose_matvec_into(&weights[k], z)?;
        q.transpose_matvec_into(&d_prime, d_tilde)?;
        for i in 0..m {
            let decay = 1.0 - eta * lambda + eta * c_prime[i] / n_u;
            let forcing = eta * d_tilde[i] / n_u;
            let mut zi = z[i];
            for _ in 0..remaining_iterations {
                zi = decay * zi + forcing;
            }
            z[i] = zi;
        }
        weights[k] = q.matvec(z)?;
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainerConfig;
    use crate::engine::{DeletionEngine, LogisticEngine, Method};
    use crate::metrics::{classification_accuracy, compare_models};
    use crate::trainer::logistic::train_binary_logistic;
    use priu_data::catalog::Hyperparameters;
    use priu_data::dirty::random_subsets;
    use priu_data::synthetic::classification::{
        generate_binary_classification, generate_multiclass_classification, ClassificationConfig,
    };

    fn binary_data() -> DenseDataset {
        generate_binary_classification(&ClassificationConfig {
            num_samples: 800,
            num_features: 10,
            separation: 3.0,
            label_noise: 0.5,
            seed: 61,
            ..Default::default()
        })
    }

    fn config() -> TrainerConfig {
        TrainerConfig::from_hyper(Hyperparameters {
            batch_size: 80,
            num_iterations: 300,
            learning_rate: 0.3,
            regularization: 0.02,
        })
        .with_seed(12)
    }

    #[test]
    fn close_to_retraining_for_small_deletions() {
        let data = binary_data();
        let engine = LogisticEngine::fit(data.clone(), config()).unwrap();
        let removed = random_subsets(data.num_samples(), 0.01, 1, 2)[0].clone();
        let updated = priu_opt_update_logistic(&data, engine.provenance(), &removed).unwrap();
        let retrained = engine.update(Method::Retrain, &removed).unwrap().model;
        let cmp = compare_models(&retrained, &updated).unwrap();
        assert!(
            cmp.cosine_similarity > 0.995,
            "similarity {}",
            cmp.cosine_similarity
        );
        let acc_updated = classification_accuracy(&updated, &data).unwrap();
        let acc_retrained = classification_accuracy(&retrained, &data).unwrap();
        assert!((acc_updated - acc_retrained).abs() < 0.02);
    }

    #[test]
    fn multinomial_variant_matches_retraining_direction() {
        let data = generate_multiclass_classification(&ClassificationConfig {
            num_samples: 600,
            num_features: 8,
            num_classes: 3,
            separation: 3.0,
            label_noise: 0.5,
            seed: 62,
        });
        let engine = LogisticEngine::fit(data.clone(), config()).unwrap();
        let removed = random_subsets(data.num_samples(), 0.02, 1, 9)[0].clone();
        let updated = priu_opt_update_logistic(&data, engine.provenance(), &removed).unwrap();
        let retrained = engine.update(Method::Retrain, &removed).unwrap().model;
        let cmp = compare_models(&retrained, &updated).unwrap();
        assert!(
            cmp.cosine_similarity > 0.99,
            "similarity {}",
            cmp.cosine_similarity
        );
    }

    #[test]
    fn missing_opt_capture_is_reported() {
        let data = binary_data();
        let trained = train_binary_logistic(&data, &config().with_opt_capture(false)).unwrap();
        assert!(matches!(
            priu_opt_update_logistic(&data, &trained.provenance, &[1]),
            Err(CoreError::MissingCapture(_))
        ));
    }

    #[test]
    fn agrees_with_plain_priu_when_deletions_are_small() {
        use crate::update::priu_logistic::priu_update_logistic;
        let data = binary_data();
        let trained = train_binary_logistic(&data, &config()).unwrap();
        let removed = random_subsets(data.num_samples(), 0.005, 1, 13)[0].clone();
        let plain = priu_update_logistic(&data, &trained.provenance, &removed).unwrap();
        let opt = priu_opt_update_logistic(&data, &trained.provenance, &removed).unwrap();
        let cmp = compare_models(&plain, &opt).unwrap();
        assert!(
            cmp.cosine_similarity > 0.995,
            "similarity {}",
            cmp.cosine_similarity
        );
    }
}
