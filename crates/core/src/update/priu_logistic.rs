//! PrIU incremental update for binary and multinomial logistic regression
//! (Eq. 19/20).
//!
//! Per iteration and per class, the captured provenance holds the linearised
//! Gram form `C_t = Σ a_{i,(t)} x_i x_iᵀ` (possibly truncated to
//! `P_t V_tᵀ`), the moment vector `D_t = Σ b'_{i,(t)} x_i`, and the
//! per-sample coefficients. Deleting the samples in `R` replays
//!
//! ```text
//! w ← [(1-ηλ)I + (η/B_U)(C_t − ΔC_t)] w + (η/B_U)(D_t − ΔD_t)
//! ```
//!
//! with `ΔC_t w` and `ΔD_t` assembled on the fly from the removed samples'
//! rows and stored coefficients — `O(r·m + ΔB·m)` per class per iteration.

use priu_data::dataset::DenseDataset;

use crate::capture::LogisticProvenance;
use crate::error::Result;
use crate::model::Model;
use crate::update::{normalize_removed, removed_positions_into};
use crate::workspace::Workspace;

/// Incrementally updates a (binary or multinomial) logistic-regression model
/// after removing the given training samples.
///
/// # Errors
/// Returns [`crate::error::CoreError::InvalidRemoval`] for out-of-range
/// indices and propagates linear-algebra failures.
pub fn priu_update_logistic(
    dataset: &DenseDataset,
    provenance: &LogisticProvenance,
    removed: &[usize],
) -> Result<Model> {
    priu_update_logistic_with(dataset, provenance, removed, &mut Workspace::new())
}

/// Like [`priu_update_logistic`], reusing a caller-owned [`Workspace`]: with
/// warm buffers the replay loop performs zero heap allocation per iteration
/// and per class.
///
/// # Errors
/// See [`priu_update_logistic`].
pub fn priu_update_logistic_with(
    dataset: &DenseDataset,
    provenance: &LogisticProvenance,
    removed: &[usize],
    ws: &mut Workspace,
) -> Result<Model> {
    let n = dataset.num_samples();
    let removed = normalize_removed(n, removed)?;
    priu_update_logistic_range(
        dataset,
        provenance,
        &removed,
        0,
        provenance.iterations.len(),
        provenance.initial_model.clone(),
        ws,
    )
}

/// Replays the incremental update over iterations `[start, end)` starting
/// from `model`. Used both by the full PrIU update and by PrIU-opt, which
/// replays `[0, ts)` with this routine and switches to the eigen-recursion
/// afterwards.
#[allow(clippy::too_many_arguments)]
pub(crate) fn priu_update_logistic_range(
    dataset: &DenseDataset,
    provenance: &LogisticProvenance,
    removed_sorted: &[usize],
    start: usize,
    end: usize,
    model: Model,
    ws: &mut Workspace,
) -> Result<Model> {
    let eta = provenance.learning_rate;
    let lambda = provenance.regularization;
    let m = dataset.num_features();
    let mut model = model;

    for t in start..end {
        let cache = &provenance.iterations[t];
        provenance
            .schedule
            .batch_into(t, &mut ws.batch, &mut ws.idx_scratch);
        removed_positions_into(&ws.batch, removed_sorted, &mut ws.positions);
        let b_u = cache.batch_size - ws.positions.len();
        if b_u == 0 {
            for w in model.weights_mut() {
                w.scale_mut(1.0 - eta * lambda);
            }
            continue;
        }
        let scale = eta / b_u as f64;

        let weights = model.weights_mut();
        for (k, class_cache) in cache.classes.iter().enumerate() {
            ws.prepare_features(m);
            let Workspace {
                batch,
                positions,
                m0: cw,
                m1: delta_cw,
                m2: delta_d,
                g0,
                g1,
                ..
            } = ws;
            let w = &weights[k];
            class_cache.gram.apply_into(w, cw, g0, g1)?;

            for &pos in positions.iter() {
                let i = batch[pos];
                let (a, b_prime) = class_cache.coefficients[pos];
                let row = dataset.x.row(i);
                let dot: f64 = row.iter().zip(w.iter()).map(|(u, v)| u * v).sum();
                let gram_coeff = a * dot;
                for (j, &v) in row.iter().enumerate() {
                    delta_cw[j] += gram_coeff * v;
                    delta_d[j] += b_prime * v;
                }
            }

            // In-place: every right-hand side was computed from the old `w`.
            // The shrink and the first axpy fuse into one pass (bitwise
            // identical to scale_mut + axpy on every SIMD level).
            let w = &mut weights[k];
            w.scale_add(1.0 - eta * lambda, scale, cw)?;
            w.axpy(-scale, &*delta_cw)?;
            w.axpy(scale, &class_cache.d)?;
            w.axpy(-scale, &*delta_d)?;
        }
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Compression, TrainerConfig};
    use crate::engine::{DeletionEngine, LogisticEngine, Method};
    use crate::error::CoreError;
    use crate::metrics::{classification_accuracy, compare_models};
    use crate::trainer::logistic::train_binary_logistic;
    use priu_data::catalog::Hyperparameters;
    use priu_data::dirty::random_subsets;
    use priu_data::synthetic::classification::{
        generate_binary_classification, generate_multiclass_classification, ClassificationConfig,
    };

    fn binary_data() -> DenseDataset {
        generate_binary_classification(&ClassificationConfig {
            num_samples: 600,
            num_features: 10,
            separation: 3.0,
            label_noise: 0.5,
            seed: 51,
            ..Default::default()
        })
    }

    fn multi_data() -> DenseDataset {
        generate_multiclass_classification(&ClassificationConfig {
            num_samples: 700,
            num_features: 12,
            num_classes: 3,
            separation: 3.0,
            label_noise: 0.5,
            seed: 52,
        })
    }

    fn config() -> TrainerConfig {
        TrainerConfig::from_hyper(Hyperparameters {
            batch_size: 64,
            num_iterations: 250,
            learning_rate: 0.3,
            regularization: 0.01,
        })
        .with_seed(8)
    }

    #[test]
    fn removing_nothing_reproduces_the_original_model_up_to_linearisation() {
        let data = binary_data();
        let trained = train_binary_logistic(&data, &config()).unwrap();
        let updated = priu_update_logistic(&data, &trained.provenance, &[]).unwrap();
        let cmp = compare_models(&trained.model, &updated).unwrap();
        // Theorem 4: the only gap is the O((Δx)²) interpolation error.
        assert!(cmp.l2_distance < 1e-6, "distance {}", cmp.l2_distance);
    }

    #[test]
    fn binary_update_matches_retraining() {
        let data = binary_data();
        let engine = LogisticEngine::fit(data.clone(), config()).unwrap();
        let removed = random_subsets(data.num_samples(), 0.05, 1, 3)[0].clone();
        let updated = priu_update_logistic(&data, engine.provenance(), &removed).unwrap();
        let retrained = engine.update(Method::Retrain, &removed).unwrap().model;
        let cmp = compare_models(&retrained, &updated).unwrap();
        assert!(
            cmp.cosine_similarity > 0.999,
            "similarity {}",
            cmp.cosine_similarity
        );
        // Validation accuracy is preserved (Q3).
        let acc_updated = classification_accuracy(&updated, &data).unwrap();
        let acc_retrained = classification_accuracy(&retrained, &data).unwrap();
        assert!((acc_updated - acc_retrained).abs() < 0.02);
    }

    #[test]
    fn multinomial_update_matches_retraining() {
        let data = multi_data();
        let engine = LogisticEngine::fit(data.clone(), config()).unwrap();
        let removed = random_subsets(data.num_samples(), 0.05, 1, 4)[0].clone();
        let updated = priu_update_logistic(&data, engine.provenance(), &removed).unwrap();
        let retrained = engine.update(Method::Retrain, &removed).unwrap().model;
        let cmp = compare_models(&retrained, &updated).unwrap();
        assert!(
            cmp.cosine_similarity > 0.995,
            "similarity {}",
            cmp.cosine_similarity
        );
        assert_eq!(cmp.drift.sign_flips, 0);
    }

    #[test]
    fn truncated_capture_still_matches_retraining() {
        let data = binary_data();
        let cfg = config().with_compression(Compression::Randomized {
            rank: 10,
            oversample: 6,
        });
        let engine = LogisticEngine::fit(data.clone(), cfg).unwrap();
        let removed = random_subsets(data.num_samples(), 0.05, 1, 6)[0].clone();
        let updated = priu_update_logistic(&data, engine.provenance(), &removed).unwrap();
        let retrained = engine.update(Method::Retrain, &removed).unwrap().model;
        let cmp = compare_models(&retrained, &updated).unwrap();
        assert!(
            cmp.cosine_similarity > 0.99,
            "similarity {}",
            cmp.cosine_similarity
        );
    }

    #[test]
    fn invalid_removals_are_rejected() {
        let data = binary_data();
        let trained = train_binary_logistic(&data, &config()).unwrap();
        assert!(matches!(
            priu_update_logistic(&data, &trained.provenance, &[100_000]),
            Err(CoreError::InvalidRemoval { .. })
        ));
    }
}
