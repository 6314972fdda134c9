//! PrIU incremental update for linear regression (Eq. 13/14).
//!
//! The provenance captured during training contains, per iteration `t`, the
//! batch Gram matrix `G_t = Σ_{i∈B_t} x_i x_iᵀ` (possibly truncated to
//! `P_t V_tᵀ`) and the moment vector `h_t = Σ_{i∈B_t} x_i y_i`. Zeroing out
//! the removed samples' provenance tokens turns Eq. 8 into
//!
//! ```text
//! w ← [(1-ηλ)I − (2η/B_U)(G_t − ΔX_tᵀΔX_t)] w + (2η/B_U)(h_t − Δh_t)
//! ```
//!
//! where `ΔX_t` / `Δh_t` are built from the removed samples that fall in
//! batch `t`. The associativity trick of §5.1 keeps everything matrix-vector:
//! the cost per iteration is `O(r·m + ΔB·m)` instead of the `O(B·m)` of
//! retraining.

use priu_data::dataset::{DenseDataset, Labels};

use crate::capture::LinearProvenance;
use crate::error::{CoreError, Result};
use crate::model::{Model, ModelKind};
use crate::update::{normalize_removed, removed_positions_into};
use crate::workspace::Workspace;

/// Incrementally updates a linear-regression model after removing the given
/// training samples, using the captured provenance.
///
/// # Errors
/// * [`CoreError::LabelMismatch`] if the dataset is not a regression dataset.
/// * [`CoreError::InvalidRemoval`] for out-of-range removal indices.
pub fn priu_update_linear(
    dataset: &DenseDataset,
    provenance: &LinearProvenance,
    removed: &[usize],
) -> Result<Model> {
    priu_update_linear_with(dataset, provenance, removed, &mut Workspace::new())
}

/// Like [`priu_update_linear`], reusing a caller-owned [`Workspace`]: with
/// warm buffers the replay loop performs zero heap allocation per iteration
/// (batch derivation, Gram-cache application and the removed-sample deltas
/// all flow through the workspace).
///
/// # Errors
/// See [`priu_update_linear`].
pub fn priu_update_linear_with(
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
    let n = dataset.num_samples();
    let removed = normalize_removed(n, removed)?;
    let eta = provenance.learning_rate;
    let lambda = provenance.regularization;
    let m = dataset.num_features();

    let mut w = provenance.initial_model.weight().clone();
    for (t, cache) in provenance.iterations.iter().enumerate() {
        provenance
            .schedule
            .batch_into(t, &mut ws.batch, &mut ws.idx_scratch);
        removed_positions_into(&ws.batch, &removed, &mut ws.positions);
        let b_u = cache.batch_size - ws.positions.len();
        if b_u == 0 {
            // The whole batch was deleted: only the regularisation shrink
            // applies at this iteration.
            w.scale_mut(1.0 - eta * lambda);
            continue;
        }

        ws.prepare_features(m);
        let Workspace {
            batch,
            positions,
            m0: gw,
            m1: delta_gw,
            m2: delta_xy,
            g0,
            g1,
            ..
        } = ws;

        // Cached full-batch contribution.
        cache.gram.apply_into(&w, gw, g0, g1)?;

        // Removed contribution, assembled on the fly from the raw samples.
        for &pos in positions.iter() {
            let i = batch[pos];
            let row = dataset.x.row(i);
            let dot: f64 = row.iter().zip(w.iter()).map(|(a, b)| a * b).sum();
            for (j, &v) in row.iter().enumerate() {
                delta_gw[j] += v * dot;
                delta_xy[j] += v * y[i];
            }
        }

        // In-place: every right-hand side was computed from the old `w`.
        // The shrink and the first axpy fuse into one pass (bitwise
        // identical to scale_mut + axpy on every SIMD level).
        let scale = 2.0 * eta / b_u as f64;
        w.scale_add(1.0 - eta * lambda, -scale, gw)?;
        w.axpy(scale, &*delta_gw)?;
        w.axpy(scale, &cache.xy)?;
        w.axpy(-scale, &*delta_xy)?;
    }

    Model::new(ModelKind::Linear, vec![w])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Compression, TrainerConfig};
    use crate::engine::{DeletionEngine, LinearEngine, Method};
    use crate::metrics::compare_models;
    use crate::trainer::linear::train_linear;
    use priu_data::catalog::Hyperparameters;
    use priu_data::dirty::random_subsets;
    use priu_data::synthetic::regression::{generate_regression, RegressionConfig};

    fn dataset() -> DenseDataset {
        generate_regression(&RegressionConfig {
            num_samples: 500,
            num_features: 8,
            noise_std: 0.1,
            seed: 42,
            ..Default::default()
        })
    }

    fn config() -> TrainerConfig {
        TrainerConfig::from_hyper(Hyperparameters {
            batch_size: 50,
            num_iterations: 250,
            learning_rate: 0.05,
            regularization: 0.05,
        })
        .with_seed(9)
    }

    #[test]
    fn removing_nothing_reproduces_the_original_model() {
        let data = dataset();
        let trained = train_linear(&data, &config()).unwrap();
        let updated = priu_update_linear(&data, &trained.provenance, &[]).unwrap();
        let cmp = compare_models(&trained.model, &updated).unwrap();
        assert!(cmp.l2_distance < 1e-9, "distance {}", cmp.l2_distance);
    }

    #[test]
    fn matches_retraining_closely_for_small_deletions() {
        let data = dataset();
        let cfg = config();
        let engine = LinearEngine::fit(data.clone(), cfg).unwrap();
        let removed = random_subsets(data.num_samples(), 0.02, 1, 7)[0].clone();
        let updated = priu_update_linear(&data, engine.provenance(), &removed).unwrap();
        let retrained = engine.update(Method::Retrain, &removed).unwrap().model;
        let cmp = compare_models(&retrained, &updated).unwrap();
        // PrIU for linear regression replays the exact update rule, so the
        // only error source is floating-point accumulation.
        assert!(cmp.l2_distance < 1e-8, "distance {}", cmp.l2_distance);
        assert!(cmp.cosine_similarity > 0.999999);
    }

    #[test]
    fn matches_retraining_for_large_deletions_with_truncated_capture() {
        let data = dataset();
        let cfg = config().with_compression(Compression::Exact { rank: 8 });
        let engine = LinearEngine::fit(data.clone(), cfg).unwrap();
        let removed = random_subsets(data.num_samples(), 0.2, 1, 11)[0].clone();
        let updated = priu_update_linear(&data, engine.provenance(), &removed).unwrap();
        let retrained = engine.update(Method::Retrain, &removed).unwrap().model;
        let cmp = compare_models(&retrained, &updated).unwrap();
        // Full-rank truncation (rank = m) is exact.
        assert!(cmp.l2_distance < 1e-8, "distance {}", cmp.l2_distance);
    }

    #[test]
    fn duplicate_and_unsorted_removals_are_normalised() {
        let data = dataset();
        let trained = train_linear(&data, &config()).unwrap();
        let a = priu_update_linear(&data, &trained.provenance, &[10, 3, 10, 7]).unwrap();
        let b = priu_update_linear(&data, &trained.provenance, &[3, 7, 10]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_removals_are_rejected() {
        let data = dataset();
        let trained = train_linear(&data, &config()).unwrap();
        assert!(matches!(
            priu_update_linear(&data, &trained.provenance, &[9999]),
            Err(CoreError::InvalidRemoval { .. })
        ));
    }
}
