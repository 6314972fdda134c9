//! The closed-form (normal equation) baseline for linear regression.
//!
//! Prior incremental-maintenance systems [13, 22, 40] maintain the linear
//! views `M = XᵀX` and `N = XᵀY`; a deletion updates them to
//! `M' = M − ΔXᵀΔX`, `N' = N − ΔXᵀΔY` and the model is recovered by solving
//! the regularised normal equations. The paper compares PrIU-opt against this
//! "Closed-form" approach in Figure 1.
//!
//! For the objective `h(w) = (1/n) Σ (y_i − x_iᵀw)² + (λ/2)‖w‖²` the
//! stationarity condition is `(2/n)(XᵀX w − XᵀY) + λ w = 0`, i.e.
//! `(XᵀX + (nλ/2) I) w = XᵀY`.

use priu_data::dataset::DenseDataset;
use priu_linalg::decomposition::{cholesky_factor_into, cholesky_solve_into, Cholesky};
use priu_linalg::Vector;

use crate::capture::NormalEquations;
use crate::error::{CoreError, Result};
use crate::model::{Model, ModelKind};
use crate::update::normalize_removed;
use crate::workspace::Workspace;

/// The closed-form baseline's inputs: the normal-equations view
/// `M = XᵀX`, `N = XᵀY` over the training rows plus the regularisation
/// rate. A linear session keeps only the [`NormalEquations`] (shared with
/// PrIU-opt) and solves through [`closed_form_delta_with`]; this pairing
/// is the standalone form.
#[derive(Debug, Clone)]
pub struct ClosedFormCapture {
    /// `XᵀX`, `XᵀY` and `n` over the full training data.
    pub normal: NormalEquations,
    /// Regularisation rate `λ`.
    pub regularization: f64,
}

impl ClosedFormCapture {
    /// Builds the views from a regression dataset.
    ///
    /// # Errors
    /// Returns [`CoreError::LabelMismatch`] for non-regression datasets.
    pub fn build(dataset: &DenseDataset, regularization: f64) -> Result<Self> {
        Ok(Self {
            normal: NormalEquations::build(dataset)?,
            regularization,
        })
    }
}

/// Solves the regularised normal equations for the *full* dataset (no
/// deletions) — used as a reference point and by tests.
///
/// # Errors
/// Propagates factorisation failures.
pub fn closed_form_full(capture: &ClosedFormCapture) -> Result<Model> {
    let normal = &capture.normal;
    let mut xtx = normal.xtx.clone();
    xtx.add_diagonal_mut(normal.n as f64 * capture.regularization / 2.0)?;
    let w = Cholesky::new(&xtx)?.solve(&normal.xty)?;
    Model::new(ModelKind::Linear, vec![w])
}

/// Incrementally updates the closed-form solution after removing the given
/// samples: downdate the views with the removed block and re-solve
/// (`O(Δn·m² + m³)`).
///
/// # Errors
/// Label mismatches, invalid removals and factorisation failures are
/// reported as usual.
pub fn closed_form_incremental(
    dataset: &DenseDataset,
    capture: &ClosedFormCapture,
    removed: &[usize],
) -> Result<Model> {
    closed_form_delta_with(
        dataset,
        &capture.normal,
        capture.regularization,
        removed,
        None,
        &mut Workspace::new(),
    )
}

/// Solves the closed-form model after a delta, from a session's
/// [`NormalEquations`]: the removed rows downdate the views and any added
/// rows grow them — `M' = M − ΔXᵀΔX + AᵀA`, `N' = N − ΔXᵀΔY + AᵀY_A` —
/// then one regularised solve with `n' = n − |Δ| + |A|`, in
/// `O((Δn + |A|)·m² + m³)`, independent of `n`. The removed-row block, the
/// updated views, the blocked Cholesky factor and the substitution all run
/// on the caller's [`Workspace`], so a warm (pre-sized) workspace makes the
/// whole update allocate only the produced model. Without added rows (or
/// with an empty block) the growth stage never runs. This is the entry
/// point the linear engine's timed updates use.
///
/// # Errors
/// Label mismatches (on either the session dataset or the added block),
/// invalid removals and factorisation failures are reported as usual.
pub fn closed_form_delta_with(
    dataset: &DenseDataset,
    normal: &NormalEquations,
    regularization: f64,
    removed: &[usize],
    added: Option<&DenseDataset>,
    ws: &mut Workspace,
) -> Result<Model> {
    let y = dataset
        .labels
        .as_continuous()
        .ok_or(CoreError::LabelMismatch {
            expected: "continuous labels for the closed-form baseline",
        })?;
    // Validate the added block's labels even when it is empty.
    let added = match added {
        Some(rows) => {
            let y = rows
                .labels
                .as_continuous()
                .ok_or(CoreError::LabelMismatch {
                    expected: "continuous labels for rows added to the closed-form baseline",
                })?;
            (rows.num_samples() > 0).then_some((rows, y))
        }
        None => None,
    };
    let removed = normalize_removed(dataset.num_samples(), removed)?;
    if removed.len() >= normal.n {
        return Err(CoreError::InvalidRemoval {
            index: normal.n,
            num_samples: normal.n,
        });
    }
    let m = dataset.num_features();

    // Stage 1 — downdate the removed block: M' = M − ΔXᵀΔX (the removed
    // block's Gram goes into the factor buffer, which the factorisation
    // overwrites right after), N' = N − ΔXᵀΔY.
    ws.batch.clear();
    ws.batch.extend_from_slice(&removed);
    ws.select_batch_rows(&dataset.x);
    ws.prepare_batch(removed.len());
    ws.prepare_features(m);
    ws.prepare_square(m);
    {
        let Workspace {
            rows: delta_x,
            b0: delta_y,
            m0: xty,
            mm0: xtx,
            mm1: factor,
            ..
        } = ws;
        for (slot, &i) in removed.iter().enumerate() {
            delta_y[slot] = y[i];
        }
        xtx.as_mut_slice().copy_from_slice(normal.xtx.as_slice());
        delta_x.weighted_gram_into(None, factor);
        xtx.axpy(-1.0, factor)?;
        delta_x.transpose_matvec_into(delta_y, xty)?;
        for (slot, full) in xty.iter_mut().zip(normal.xty.iter()) {
            *slot = full - *slot;
        }
    }

    // Stage 2 — fold the added block in (same buffers, re-staged; the
    // feature accumulators `m0`/`m1` survive the batch re-preparation).
    let k = added.map_or(0, |(rows, _)| rows.num_samples());
    if let Some((added, y_added)) = added {
        ws.batch.clear();
        ws.batch.extend(0..k);
        ws.select_batch_rows(&added.x);
        ws.prepare_batch(k);
        let Workspace {
            rows: added_x,
            b0: added_y,
            m0: xty,
            m1: tmp,
            mm0: xtx,
            mm1: factor,
            ..
        } = ws;
        added_y.copy_from_slice(y_added);
        added_x.weighted_gram_into(None, factor);
        xtx.axpy(1.0, factor)?;
        added_x.transpose_matvec_into(added_y, tmp)?;
        for (acc, inc) in xty.iter_mut().zip(tmp.iter()) {
            *acc += *inc;
        }
    }

    // Regularised normal equations via the blocked Cholesky `_into` pair.
    let n_u = normal.n - removed.len() + k;
    let Workspace {
        m0: xty,
        mm0: xtx,
        mm1: factor,
        ..
    } = ws;
    xtx.add_diagonal_mut(n_u as f64 * regularization / 2.0)?;
    cholesky_factor_into(xtx, factor)?;
    let mut w = Vector::zeros(m);
    cholesky_solve_into(factor, xty, w.as_mut_slice())?;
    Model::new(ModelKind::Linear, vec![w])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mean_squared_error;
    use priu_data::dataset::Labels;
    use priu_data::dirty::random_subsets;
    use priu_data::synthetic::regression::{generate_regression, RegressionConfig};
    use priu_linalg::Matrix;

    fn dataset() -> DenseDataset {
        generate_regression(&RegressionConfig {
            num_samples: 400,
            num_features: 6,
            noise_std: 0.05,
            seed: 91,
            ..Default::default()
        })
    }

    #[test]
    fn full_solution_fits_the_data_well() {
        let data = dataset();
        let capture = ClosedFormCapture::build(&data, 1e-3).unwrap();
        let model = closed_form_full(&capture).unwrap();
        let mse = mean_squared_error(&model, &data).unwrap();
        assert!(mse < 0.01, "mse {mse}");
    }

    #[test]
    fn incremental_update_equals_rebuilding_from_scratch() {
        let data = dataset();
        let capture = ClosedFormCapture::build(&data, 1e-3).unwrap();
        let removed = random_subsets(data.num_samples(), 0.1, 1, 5)[0].clone();
        let incremental = closed_form_incremental(&data, &capture, &removed).unwrap();

        // Ground truth: rebuild the views over the surviving samples only.
        let kept: Vec<usize> = (0..data.num_samples())
            .filter(|i| !removed.contains(i))
            .collect();
        let remaining = data.select(&kept);
        let fresh_capture = ClosedFormCapture::build(&remaining, 1e-3).unwrap();
        let fresh = closed_form_full(&fresh_capture).unwrap();

        let diff = (&incremental.flatten() - &fresh.flatten()).norm_inf();
        assert!(diff < 1e-8, "difference {diff}");
    }

    #[test]
    fn delta_update_equals_rebuilding_from_scratch() {
        let data = dataset();
        let capture = ClosedFormCapture::build(&data, 1e-3).unwrap();
        let removed = random_subsets(data.num_samples(), 0.1, 1, 7)[0].clone();
        let added = generate_regression(&RegressionConfig {
            num_samples: 30,
            num_features: 6,
            noise_std: 0.05,
            seed: 97,
            ..Default::default()
        });
        let mut ws = Workspace::new();
        let (normal, lambda) = (&capture.normal, capture.regularization);
        let delta =
            closed_form_delta_with(&data, normal, lambda, &removed, Some(&added), &mut ws).unwrap();

        // Ground truth: rebuild the views over survivors + added rows.
        let kept: Vec<usize> = (0..data.num_samples())
            .filter(|i| !removed.contains(i))
            .collect();
        let mut remaining = data.select(&kept);
        remaining.append(&added).unwrap();
        let fresh = closed_form_full(&ClosedFormCapture::build(&remaining, 1e-3).unwrap()).unwrap();
        let diff = (&delta.flatten() - &fresh.flatten()).norm_inf();
        assert!(diff < 1e-8, "difference {diff}");

        // An empty added block reduces to the removal-only incremental path.
        let empty = DenseDataset::new(Matrix::zeros(0, 6), Labels::Continuous(Vector::zeros(0)));
        let removal_only = closed_form_incremental(&data, &capture, &removed).unwrap();
        let via_delta =
            closed_form_delta_with(&data, normal, lambda, &removed, Some(&empty), &mut ws).unwrap();
        assert_eq!(removal_only, via_delta);
    }

    #[test]
    fn workspace_variant_matches_allocating_variant_bitwise() {
        let data = dataset();
        let capture = ClosedFormCapture::build(&data, 1e-3).unwrap();
        let removed = random_subsets(data.num_samples(), 0.08, 1, 9)[0].clone();
        let plain = closed_form_incremental(&data, &capture, &removed).unwrap();
        let mut ws = Workspace::sized_for(data.num_features(), removed.len(), 1);
        ws.reserve_decompositions(data.num_features());
        for _ in 0..2 {
            // Twice: a warm workspace must not change results either.
            let with_ws = closed_form_delta_with(
                &data,
                &capture.normal,
                capture.regularization,
                &removed,
                None,
                &mut ws,
            )
            .unwrap();
            assert_eq!(plain, with_ws);
        }
    }

    #[test]
    fn rejects_wrong_labels_and_full_removal() {
        let data = dataset();
        let capture = ClosedFormCapture::build(&data, 1e-3).unwrap();
        let everything: Vec<usize> = (0..data.num_samples()).collect();
        assert!(closed_form_incremental(&data, &capture, &everything).is_err());

        let bad = DenseDataset::new(
            Matrix::zeros(5, 2),
            Labels::Binary(Vector::from_fn(5, |i| if i % 2 == 0 { 1.0 } else { -1.0 })),
        );
        assert!(ClosedFormCapture::build(&bad, 0.1).is_err());
    }
}
