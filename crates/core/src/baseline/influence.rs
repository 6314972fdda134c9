//! INFL: the influence-function baseline (Koh & Liang [30]) extended to
//! removing an arbitrary subset of training samples.
//!
//! The influence function estimates the parameter change caused by removing
//! sample `i` as `H_w^{-1} ∇ℓ_i(w) / n`, where `H_w` is the Hessian of the
//! regularised objective at the trained parameters. The natural multi-sample
//! extension — the one the paper evaluates and finds inaccurate for large
//! removal sets — simply sums the per-sample terms:
//!
//! ```text
//! w_upd ≈ w + (1/(n − Δn)) H_w^{-1} Σ_{i∈R} ∇ℓ_i(w)
//! ```
//!
//! One Hessian factorisation plus one solve; no iteration. It is therefore
//! fast (often faster than PrIU-opt, as in the paper's figures) but its
//! first-order Taylor reasoning degrades as `Δn` grows, which the Table 4
//! reproduction shows.

use priu_data::dataset::DenseDataset;
use priu_linalg::decomposition::{Cholesky, Lu};
use priu_linalg::Vector;

use crate::error::{CoreError, Result};
use crate::model::Model;
use crate::objective::{full_hessian, sample_gradient};
use crate::update::normalize_removed;

/// Estimates the updated model after removing `removed`, using the
/// influence-function approximation around the trained `model`.
///
/// # Errors
/// * [`CoreError::LabelMismatch`] if dataset labels and model kind disagree.
/// * [`CoreError::InvalidRemoval`] for invalid removal sets (including
///   removing every sample).
pub fn influence_update(
    dataset: &DenseDataset,
    model: &Model,
    regularization: f64,
    removed: &[usize],
) -> Result<Model> {
    let n = dataset.num_samples();
    let removed = normalize_removed(n, removed)?;
    if removed.len() >= n {
        return Err(CoreError::InvalidRemoval {
            index: n,
            num_samples: n,
        });
    }
    if removed.is_empty() {
        return Ok(model.clone());
    }

    // Σ_{i∈R} ∇ℓ_i(w) in the flattened parameter layout.
    let mut removed_gradient = Vector::zeros(model.num_parameters());
    for &i in &removed {
        removed_gradient.axpy(1.0, &sample_gradient(model, dataset, i)?)?;
    }

    // Hessian of the regularised objective at w.
    let hessian = full_hessian(model, dataset, regularization)?;

    // Solve H δ = Σ ∇ℓ_i; the regularised Hessian is positive definite in
    // exact arithmetic, but fall back to LU if Cholesky hits numerical
    // trouble.
    let delta = match Cholesky::new(&hessian) {
        Ok(chol) => chol.solve(&removed_gradient)?,
        Err(_) => Lu::new(&hessian)?.solve(&removed_gradient)?,
    };

    let scale = 1.0 / (n - removed.len()) as f64;
    let flat = model.flatten();
    let mut updated_flat = flat.clone();
    updated_flat.axpy(scale, &delta)?;
    let weights = updated_flat.split(model.weights().len())?;
    Model::new(model.kind(), weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainerConfig;
    use crate::engine::{DeletionEngine, LogisticEngine, Method};
    use crate::metrics::compare_models;
    use crate::model::ModelKind;
    use priu_data::catalog::Hyperparameters;
    use priu_data::dirty::random_subsets;
    use priu_data::synthetic::classification::{
        generate_binary_classification, ClassificationConfig,
    };

    fn data() -> DenseDataset {
        generate_binary_classification(&ClassificationConfig {
            num_samples: 600,
            num_features: 8,
            separation: 3.0,
            label_noise: 0.5,
            seed: 95,
            ..Default::default()
        })
    }

    fn config() -> TrainerConfig {
        TrainerConfig::from_hyper(Hyperparameters {
            batch_size: 60,
            num_iterations: 300,
            learning_rate: 0.3,
            regularization: 0.02,
        })
        .with_seed(14)
        .with_opt_capture(false)
    }

    #[test]
    fn empty_removal_returns_the_original_model() {
        let d = data();
        let trained = LogisticEngine::fit(d.clone(), config()).unwrap();
        let updated = influence_update(&d, trained.model(), 0.02, &[]).unwrap();
        assert_eq!(&updated, trained.model());
    }

    #[test]
    fn reasonable_for_tiny_removals() {
        let d = data();
        let engine = LogisticEngine::fit(d.clone(), config()).unwrap();
        let removed = random_subsets(d.num_samples(), 0.002, 1, 1)[0].clone();
        let infl = influence_update(&d, engine.model(), 0.02, &removed).unwrap();
        let retrained = engine.update(Method::Retrain, &removed).unwrap().model;
        let cmp = compare_models(&retrained, &infl).unwrap();
        assert!(
            cmp.cosine_similarity > 0.98,
            "similarity {}",
            cmp.cosine_similarity
        );
    }

    #[test]
    fn substantially_worse_than_priu_for_large_removals() {
        // The paper's Q5 finding: INFL degrades sharply when many samples are
        // removed while PrIU stays close to the retrained model.
        let d = data();
        let engine = LogisticEngine::fit(d.clone(), config()).unwrap();
        let removed = random_subsets(d.num_samples(), 0.2, 1, 2)[0].clone();
        let retrained = engine.update(Method::Retrain, &removed).unwrap().model;
        let infl = influence_update(&d, engine.model(), 0.02, &removed).unwrap();
        let priu = engine.update(Method::Priu, &removed).unwrap().model;
        let infl_dist = compare_models(&retrained, &infl).unwrap().l2_distance;
        let priu_dist = compare_models(&retrained, &priu).unwrap().l2_distance;
        assert!(
            priu_dist < infl_dist,
            "PrIU distance {priu_dist} should beat INFL distance {infl_dist}"
        );
    }

    #[test]
    fn invalid_removals_are_rejected() {
        let d = data();
        let model = Model::zeros(ModelKind::BinaryLogistic, 8);
        assert!(influence_update(&d, &model, 0.1, &[10_000]).is_err());
        let everything: Vec<usize> = (0..d.num_samples()).collect();
        assert!(influence_update(&d, &model, 0.1, &everything).is_err());
    }
}
