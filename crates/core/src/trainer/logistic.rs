//! Binary and multinomial logistic-regression training (Eq. 6) with
//! provenance capture via piecewise-linear interpolation (§4.2, §5.3, §5.4).
//!
//! The trainers run the *exact* non-linear mb-SGD update to produce the
//! initial model; at every iteration they additionally capture the
//! linearisation of the non-linearity around the current trajectory —
//! per-sample coefficients `(a_{i,(t)}, b'_{i,(t)})`, the aggregated
//! Gram-form `C^{(t)}` (possibly truncated, Eq. 20) and moment vector
//! `D^{(t)}` — which is all the incremental update (Eq. 19) needs.
//!
//! For the multinomial case the softmax probability of class `k` is written
//! as `σ(w_kᵀx_i − L_{i,k})` with `L_{i,k} = ln Σ_{j≠k} e^{w_jᵀx_i}` captured
//! during training, reducing the multi-dimensional interpolation of [51] to
//! the same 1-D interpolant per class (see `DESIGN.md` §2.6 for why this
//! substitution preserves the paper's structure).

use priu_data::dataset::{DenseDataset, Labels};
use priu_data::minibatch::BatchSchedule;
use priu_linalg::decomposition::eigen::SymmetricEigen;
use priu_linalg::{Matrix, Vector};

use crate::capture::{
    ClassIterationCache, GramCache, LogisticIterationCache, LogisticOptCapture,
    LogisticOptClassCapture, LogisticProvenance,
};
use crate::config::{Compression, TrainerConfig};
use crate::error::{CoreError, Result};
use crate::interpolation::PiecewiseLinearSigmoid;
use crate::model::{Model, ModelKind};
use crate::workspace::Workspace;

/// The result of training a logistic-regression model with provenance
/// capture.
#[derive(Debug, Clone)]
pub struct TrainedLogistic {
    /// The trained model `M_init`.
    pub model: Model,
    /// The captured provenance, consumed by the logistic engine's PrIU and
    /// PrIU-opt updates.
    pub provenance: LogisticProvenance,
}

/// Builds one class's per-iteration cache from batch rows and coefficients.
/// Borrows its inputs — `transpose_matvec` consumes the coefficient slice
/// directly, so nothing is cloned beyond what the cache stores.
fn build_class_cache(
    rows: &Matrix,
    a: &[f64],
    b_prime: &[f64],
    compression: crate::config::Compression,
) -> Result<ClassIterationCache> {
    let d = rows.transpose_matvec(b_prime)?;
    let gram = GramCache::build(rows, a, compression)?;
    let coefficients = a.iter().copied().zip(b_prime.iter().copied()).collect();
    Ok(ClassIterationCache {
        gram,
        d,
        coefficients,
    })
}

/// Runs one exact binary-logistic mb-SGD step (Eq. 6) on the batch staged
/// in `ws.batch`, selecting rows from `x`/`y` and mutating `w` in place.
/// The single definition of the step: the trainer loop calls it per
/// scheduled iteration, the delta engine for BaseL's retraining and for
/// appended explicit batches.
///
/// With `capture` set the iteration's linearised provenance — the `(a, b')`
/// coefficients around the *current* trajectory plus the aggregated Gram
/// form — is built and returned (allocates: it is storage). With `None` the
/// step skips the linearisation and touches only workspace buffers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn binary_logistic_step(
    x: &Matrix,
    y: &Vector,
    w: &mut Vector,
    eta: f64,
    lambda: f64,
    interp: &PiecewiseLinearSigmoid,
    capture: Option<Compression>,
    ws: &mut Workspace,
) -> Result<Option<LogisticIterationCache>> {
    let m = x.ncols();
    let b = ws.batch.len();
    ws.select_batch_rows(x);
    ws.prepare_batch(b);
    ws.prepare_features(m);
    let Workspace {
        batch,
        rows,
        b0: xw,
        b1: update_coeffs,
        b2: a_coeffs,
        b3: b_coeffs,
        m0: grad,
        ..
    } = ws;

    rows.matvec_into(w, xw)?;
    // Exact update: w ← (1-ηλ) w + (η/B) Σ y_i x_i f(y_i wᵀ x_i).
    for pos in 0..b {
        let yi = y[batch[pos]];
        let margin = yi * xw[pos];
        update_coeffs[pos] = yi * PiecewiseLinearSigmoid::exact(margin);
        if capture.is_some() {
            let seg = interp.coefficients(margin);
            // Contribution of sample i: a·x xᵀ w + b'·x with b' = intercept·y.
            a_coeffs[pos] = seg.slope;
            b_coeffs[pos] = seg.intercept * yi;
        }
    }
    rows.transpose_matvec_into(update_coeffs, grad)?;
    // Fused parameter step (bitwise identical to scale_mut + axpy on
    // every SIMD level).
    w.scale_add(1.0 - eta * lambda, eta / b as f64, grad)?;

    let Some(compression) = capture else {
        return Ok(None);
    };
    let cache = build_class_cache(&ws.rows, &ws.b2, &ws.b3, compression)?;
    Ok(Some(LogisticIterationCache {
        classes: vec![cache],
        batch_size: b,
    }))
}

/// Runs one exact multinomial mb-SGD step on the batch staged in `ws.batch`
/// (all class logits computed up front, so in-place weight updates never
/// feed an updated class back in), mutating `weights` in place. As with
/// [`binary_logistic_step`], `capture` controls whether the per-class
/// linearisation runs and its provenance is built and returned.
#[allow(clippy::too_many_arguments)]
pub(crate) fn multinomial_logistic_step(
    x: &Matrix,
    classes: &[u32],
    q: usize,
    weights: &mut [Vector],
    eta: f64,
    lambda: f64,
    interp: &PiecewiseLinearSigmoid,
    capture: Option<Compression>,
    ws: &mut Workspace,
) -> Result<Option<LogisticIterationCache>> {
    let m = x.ncols();
    let b = ws.batch.len();
    ws.select_batch_rows(x);
    ws.prepare_batch(b);
    ws.prepare_features(m);
    ws.classes.clear();
    ws.classes
        .extend(ws.batch.iter().map(|&i| classes[i] as usize));
    // Per-class logits over the batch, one row of the logits buffer per
    // class.
    ws.logits.reshape_zeroed(q, b);
    for (k, wk) in weights.iter().enumerate() {
        ws.rows.matvec_into(wk, ws.logits.row_mut(k))?;
    }

    let mut class_caches = capture.map(|_| Vec::with_capacity(q));
    // Pre-compute per-sample log-sum-exp over all classes.
    {
        let Workspace {
            logits, b0: lse, ..
        } = ws;
        for i in 0..b {
            let max = (0..q).fold(f64::NEG_INFINITY, |acc, k| acc.max(logits[(k, i)]));
            let sum: f64 = (0..q).map(|k| (logits[(k, i)] - max).exp()).sum();
            lse[i] = max + sum.ln();
        }
    }

    for k in 0..q {
        let Workspace {
            classes: batch_classes,
            logits,
            b0: lse,
            b1: exact_coeffs,
            b2: a_coeffs,
            b3: b_coeffs,
            m0: grad,
            rows,
            ..
        } = ws;
        for i in 0..b {
            let z = logits[(k, i)];
            let p = (z - lse[i]).exp();
            let indicator = if batch_classes[i] == k { 1.0 } else { 0.0 };
            exact_coeffs[i] = p - indicator;
            if capture.is_none() {
                continue;
            }

            // Scalarised softmax: p = σ(z − L) with L the log-sum-exp of
            // the *other* classes; clamp for numerical safety when p≈1.
            let l_other = lse[i] + (1.0 - p).max(1e-300).ln();
            let u = z - l_other;
            let seg = interp.sigmoid_coefficients(u);
            // Gradient contribution: x (σ(u) − 1[y=k]) ≈ α x xᵀ w_k +
            // (β − α·L − 1[y=k]) x; cast into the Eq. 19 form
            // `+ a x xᵀ w + b' x` with a = −α, b' = 1[y=k] − β + α·L.
            a_coeffs[i] = -seg.slope;
            b_coeffs[i] = indicator - seg.intercept + seg.slope * l_other;
        }
        // Exact update for class k (the logits were computed up front, so
        // updating in place never feeds an updated weight back in).
        rows.transpose_matvec_into(exact_coeffs, grad)?;
        // Fused parameter step (bitwise identical to scale_mut + axpy).
        weights[k].scale_add(1.0 - eta * lambda, -eta / b as f64, grad)?;

        if let (Some(caches), Some(compression)) = (class_caches.as_mut(), capture) {
            caches.push(build_class_cache(&ws.rows, &ws.b2, &ws.b3, compression)?);
        }
    }

    Ok(class_caches.map(|classes| LogisticIterationCache {
        classes,
        batch_size: b,
    }))
}

/// Trains a binary logistic-regression model (labels in `{-1, +1}`) with
/// mb-SGD while capturing PrIU provenance.
///
/// # Errors
/// * [`CoreError::LabelMismatch`] for non-binary labels.
/// * [`CoreError::Diverged`] if parameters become non-finite.
pub fn train_binary_logistic(
    dataset: &DenseDataset,
    config: &TrainerConfig,
) -> Result<TrainedLogistic> {
    train_binary_logistic_with(dataset, config, &mut Workspace::new())
}

/// Like [`train_binary_logistic`], reusing a caller-owned [`Workspace`]:
/// once the buffers are warm, the mb-SGD step performs no heap allocation
/// per iteration (provenance capture storage still allocates — it outlives
/// the loop by design).
///
/// # Errors
/// See [`train_binary_logistic`].
pub fn train_binary_logistic_with(
    dataset: &DenseDataset,
    config: &TrainerConfig,
    ws: &mut Workspace,
) -> Result<TrainedLogistic> {
    let y = match &dataset.labels {
        Labels::Binary(y) => y,
        _ => {
            return Err(CoreError::LabelMismatch {
                expected: "binary (+1/-1) labels for binary logistic regression",
            })
        }
    };
    let n = dataset.num_samples();
    let m = dataset.num_features();
    let hyper = &config.hyper;
    let schedule = BatchSchedule::new(n, hyper.batch_size, hyper.num_iterations, config.seed);
    let eta = hyper.learning_rate;
    let lambda = hyper.regularization;
    let interp = &config.interpolation;
    let ts = config.opt_switch_iteration();

    let initial_model = Model::zeros(ModelKind::BinaryLogistic, m);
    let mut w = Vector::zeros(m);
    let mut iterations = Vec::with_capacity(hyper.num_iterations);
    let mut opt: Option<LogisticOptCapture> = None;

    for t in 0..hyper.num_iterations {
        // PrIU-opt freeze point: capture full-data linearisation at w^{(ts)}.
        if config.capture_opt && t == ts {
            opt = Some(capture_binary_opt(dataset, y, &w, interp, ts, m, ws)?);
        }

        schedule.batch_into(t, &mut ws.batch, &mut ws.idx_scratch);
        let cache = binary_logistic_step(
            &dataset.x,
            y,
            &mut w,
            eta,
            lambda,
            interp,
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

    let model = Model::new(ModelKind::BinaryLogistic, vec![w])?;
    Ok(TrainedLogistic {
        model,
        provenance: LogisticProvenance {
            schedule,
            learning_rate: eta,
            regularization: lambda,
            initial_model,
            iterations,
            opt,
        },
    })
}

fn capture_binary_opt(
    dataset: &DenseDataset,
    y: &Vector,
    w: &Vector,
    interp: &PiecewiseLinearSigmoid,
    ts: usize,
    m: usize,
    ws: &mut Workspace,
) -> Result<LogisticOptCapture> {
    let n = dataset.num_samples();
    let xw = dataset.x.matvec(w)?;
    let mut a_all = Vec::with_capacity(n);
    let mut b_all = Vec::with_capacity(n);
    for i in 0..n {
        let margin = y[i] * xw[i];
        let seg = interp.coefficients(margin);
        a_all.push(seg.slope);
        b_all.push(seg.intercept * y[i]);
    }
    // The frozen C* and its eigendecomposition run on workspace buffers;
    // only the capture's stored pieces are allocated.
    ws.prepare_square(m);
    let Workspace { mm0, eig, .. } = ws;
    dataset.x.weighted_gram_into(Some(&a_all), mm0);
    let eigen = SymmetricEigen::new_with(mm0, eig)?;
    let d_star = dataset.x.transpose_matvec(&b_all)?;
    let coefficients = a_all.into_iter().zip(b_all).collect();
    Ok(LogisticOptCapture {
        switch_iteration: ts,
        model_at_switch: Model::new(ModelKind::BinaryLogistic, vec![w.clone()])?,
        classes: vec![LogisticOptClassCapture {
            eigen,
            d_star,
            coefficients,
        }],
    })
    .map(|mut capture| {
        // Defensive: ensure the eigen dimension matches the feature count.
        debug_assert_eq!(capture.classes[0].eigen.values.len(), m);
        capture.switch_iteration = ts;
        capture
    })
}

/// Trains a multinomial logistic-regression model with mb-SGD while
/// capturing PrIU provenance (one set of caches per class).
///
/// # Errors
/// * [`CoreError::LabelMismatch`] for non-multiclass labels.
/// * [`CoreError::Diverged`] if parameters become non-finite.
pub fn train_multinomial_logistic(
    dataset: &DenseDataset,
    config: &TrainerConfig,
) -> Result<TrainedLogistic> {
    train_multinomial_logistic_with(dataset, config, &mut Workspace::new())
}

/// Like [`train_multinomial_logistic`], reusing a caller-owned
/// [`Workspace`] so the mb-SGD step is allocation-free once warm.
///
/// # Errors
/// See [`train_multinomial_logistic`].
pub fn train_multinomial_logistic_with(
    dataset: &DenseDataset,
    config: &TrainerConfig,
    ws: &mut Workspace,
) -> Result<TrainedLogistic> {
    let (classes, q) = match &dataset.labels {
        Labels::Multiclass {
            classes,
            num_classes,
        } => (classes, *num_classes),
        _ => {
            return Err(CoreError::LabelMismatch {
                expected: "multiclass labels for multinomial logistic regression",
            })
        }
    };
    let n = dataset.num_samples();
    let m = dataset.num_features();
    let hyper = &config.hyper;
    let schedule = BatchSchedule::new(n, hyper.batch_size, hyper.num_iterations, config.seed);
    let eta = hyper.learning_rate;
    let lambda = hyper.regularization;
    let interp = &config.interpolation;
    let ts = config.opt_switch_iteration();

    let initial_model = Model::zeros(ModelKind::MultinomialLogistic { num_classes: q }, m);
    let mut weights: Vec<Vector> = vec![Vector::zeros(m); q];
    let mut iterations = Vec::with_capacity(hyper.num_iterations);
    let mut opt: Option<LogisticOptCapture> = None;

    for t in 0..hyper.num_iterations {
        if config.capture_opt && t == ts {
            opt = Some(capture_multinomial_opt(
                dataset, classes, q, &weights, interp, ts, ws,
            )?);
        }

        schedule.batch_into(t, &mut ws.batch, &mut ws.idx_scratch);
        let cache = multinomial_logistic_step(
            &dataset.x,
            classes,
            q,
            &mut weights,
            eta,
            lambda,
            interp,
            Some(config.compression),
            ws,
        )?
        .expect("capture was requested");

        if t % 32 == 0 && weights.iter().any(|w| !w.is_finite()) {
            return Err(CoreError::Diverged { iteration: t });
        }

        iterations.push(cache);
    }
    if weights.iter().any(|w| !w.is_finite()) {
        return Err(CoreError::Diverged {
            iteration: hyper.num_iterations,
        });
    }

    let model = Model::new(ModelKind::MultinomialLogistic { num_classes: q }, weights)?;
    Ok(TrainedLogistic {
        model,
        provenance: LogisticProvenance {
            schedule,
            learning_rate: eta,
            regularization: lambda,
            initial_model,
            iterations,
            opt,
        },
    })
}

fn capture_multinomial_opt(
    dataset: &DenseDataset,
    classes: &[u32],
    q: usize,
    weights: &[Vector],
    interp: &PiecewiseLinearSigmoid,
    ts: usize,
    ws: &mut Workspace,
) -> Result<LogisticOptCapture> {
    let n = dataset.num_samples();
    let logits: Vec<Vector> = weights
        .iter()
        .map(|wk| dataset.x.matvec(wk))
        .collect::<std::result::Result<_, _>>()?;
    let mut lse = Vec::with_capacity(n);
    #[allow(clippy::needless_range_loop)] // `i` spans all q logit vectors
    for i in 0..n {
        let max = (0..q).fold(f64::NEG_INFINITY, |acc, k| acc.max(logits[k][i]));
        let sum: f64 = (0..q).map(|k| (logits[k][i] - max).exp()).sum();
        lse.push(max + sum.ln());
    }
    let mut class_captures = Vec::with_capacity(q);
    #[allow(clippy::needless_range_loop)] // `k` spans logits and per-class captures
    for k in 0..q {
        let mut a_all = Vec::with_capacity(n);
        let mut b_all = Vec::with_capacity(n);
        for i in 0..n {
            let z = logits[k][i];
            let p = (z - lse[i]).exp();
            let indicator = if classes[i] as usize == k { 1.0 } else { 0.0 };
            let l_other = lse[i] + (1.0 - p).max(1e-300).ln();
            let u = z - l_other;
            let seg = interp.sigmoid_coefficients(u);
            a_all.push(-seg.slope);
            b_all.push(indicator - seg.intercept + seg.slope * l_other);
        }
        ws.prepare_square(dataset.num_features());
        let Workspace { mm0, eig, .. } = ws;
        dataset.x.weighted_gram_into(Some(&a_all), mm0);
        let eigen = SymmetricEigen::new_with(mm0, eig)?;
        let d_star = dataset.x.transpose_matvec(&b_all)?;
        class_captures.push(LogisticOptClassCapture {
            eigen,
            d_star,
            coefficients: a_all.into_iter().zip(b_all).collect(),
        });
    }
    Ok(LogisticOptCapture {
        switch_iteration: ts,
        model_at_switch: Model::new(
            ModelKind::MultinomialLogistic { num_classes: q },
            weights.to_vec(),
        )?,
        classes: class_captures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::classification_accuracy;
    use priu_data::catalog::Hyperparameters;
    use priu_data::synthetic::classification::{
        generate_binary_classification, generate_multiclass_classification, ClassificationConfig,
    };

    fn binary_data() -> DenseDataset {
        generate_binary_classification(&ClassificationConfig {
            num_samples: 600,
            num_features: 8,
            separation: 3.0,
            label_noise: 0.3,
            seed: 21,
            ..Default::default()
        })
    }

    fn multi_data() -> DenseDataset {
        generate_multiclass_classification(&ClassificationConfig {
            num_samples: 800,
            num_features: 10,
            num_classes: 4,
            separation: 3.0,
            label_noise: 0.3,
            seed: 22,
        })
    }

    fn config(iters: usize) -> TrainerConfig {
        TrainerConfig::from_hyper(Hyperparameters {
            batch_size: 64,
            num_iterations: iters,
            learning_rate: 0.3,
            regularization: 0.01,
        })
        .with_seed(3)
    }

    #[test]
    fn binary_training_beats_chance_substantially() {
        let data = binary_data();
        let trained = train_binary_logistic(&data, &config(300)).unwrap();
        let acc = classification_accuracy(&trained.model, &data).unwrap();
        assert!(acc > 0.8, "accuracy {acc}");
        assert_eq!(trained.provenance.iterations.len(), 300);
        assert!(trained.provenance.opt.is_some());
        assert_eq!(
            trained.provenance.opt.as_ref().unwrap().switch_iteration,
            210
        );
    }

    #[test]
    fn multinomial_training_beats_chance_substantially() {
        let data = multi_data();
        let trained = train_multinomial_logistic(&data, &config(300)).unwrap();
        let acc = classification_accuracy(&trained.model, &data).unwrap();
        assert!(acc > 0.6, "accuracy {acc} (chance is 0.25)");
        assert_eq!(trained.provenance.iterations[0].classes.len(), 4);
        assert!(trained.provenance.opt.is_some());
        assert_eq!(trained.provenance.opt.as_ref().unwrap().classes.len(), 4);
    }

    #[test]
    fn training_is_deterministic() {
        let data = binary_data();
        let a = train_binary_logistic(&data, &config(50)).unwrap();
        let b = train_binary_logistic(&data, &config(50)).unwrap();
        assert_eq!(a.model, b.model);
    }

    #[test]
    fn captured_linearisation_tracks_exact_update() {
        // Replaying the captured linearised rule (Eq. 9) from w0 must land
        // close to the exact model (Theorem 4: error O((Δx)²)).
        let data = binary_data();
        let cfg = config(150);
        let trained = train_binary_logistic(&data, &cfg).unwrap();
        let prov = &trained.provenance;
        let mut w = Vector::zeros(data.num_features());
        let eta = prov.learning_rate;
        let lambda = prov.regularization;
        for it in &prov.iterations {
            let cache = &it.classes[0];
            let b = it.batch_size as f64;
            let cw = cache.gram.apply(&w).unwrap();
            let mut next = w.scaled(1.0 - eta * lambda);
            next.axpy(eta / b, &cw).unwrap();
            next.axpy(eta / b, &cache.d).unwrap();
            w = next;
        }
        let diff = (&w - trained.model.weight()).norm2();
        assert!(diff < 1e-6, "linearised trajectory differs by {diff}");
    }

    #[test]
    fn label_mismatch_and_divergence_are_reported() {
        let data = binary_data();
        assert!(matches!(
            train_multinomial_logistic(&data, &config(10)),
            Err(CoreError::LabelMismatch { .. })
        ));
        let multi = multi_data();
        assert!(matches!(
            train_binary_logistic(&multi, &config(10)),
            Err(CoreError::LabelMismatch { .. })
        ));
    }

    #[test]
    fn opt_capture_can_be_disabled() {
        let data = binary_data();
        let trained = train_binary_logistic(&data, &config(40).with_opt_capture(false)).unwrap();
        assert!(trained.provenance.opt.is_none());
    }
}
