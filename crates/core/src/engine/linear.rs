//! The linear-regression family. A cache holds one batch's Gram matrix
//! `Σ x_i x_iᵀ` and moment vector `Σ x_i y_i`; one PrIU iteration evaluates
//! it with the removed samples' tokens zeroed (Eq. 13/14), and dropping a
//! removed sample from it deflates the Gram form and subtracts its moment.
//! PrIU-opt runs the GD recursion in the eigenbasis of `XᵀX` (Eq. 15-18).
//! The successor downdates the normal-equations view by the removed rows and
//! grows it by the added ones. Its PrIU-opt eigenbasis follows by exact
//! rank-one updates of the parent's pairs for a delta of at most
//! [`RANK_ONE_BREAK_EVEN`] rows, else by a fresh decomposition of the view.
//! Closed-form folds both delta directions into that view and solves once.

use std::cell::RefCell;

use priu_data::dataset::{DenseDataset, Labels};
use priu_linalg::decomposition::eigen::{
    eigen_update_into, EigenScratch, EigenUpdateScratch, SymmetricEigen,
};
use priu_linalg::{Matrix, Vector};

use crate::baseline::closed_form::closed_form_delta_with;
use crate::baseline::influence::influence_update;
use crate::capture::{LinearIterationCache, LinearOptCapture, LinearProvenance, NormalEquations};
use crate::engine::{timed_update, Family, LinearEngine, Method, Session, UpdateOutcome};
use crate::error::{CoreError, Result};
use crate::model::{Model, ModelKind};
use crate::snapshot::{SnapshotReader, SnapshotWriter};
use crate::trainer::linear::linear_step;
use crate::workspace::Workspace;

thread_local! {
    /// Eigen buffers reused by every successor refresh on this thread (the
    /// server's applier), so a chained apply factorises on warm scratch.
    static REFRESH_SCRATCH: RefCell<EigenScratch> = RefCell::new(EigenScratch::default());
    /// Rank-one update buffers, likewise reused across successors.
    static UPDATE_SCRATCH: RefCell<EigenUpdateScratch> =
        RefCell::new(EigenUpdateScratch::default());
}

/// Largest delta (removed plus added rows) whose successor eigenbasis is
/// carried forward by rank-one updates rather than re-decomposed. At
/// m = 318 one update costs about a sixth of the exact pipeline (DESIGN
/// §4.5 has the measurement); the choice depends only on the delta's shape,
/// so a live apply and its WAL redo take the same path.
const RANK_ONE_BREAK_EVEN: usize = 5;

/// Largest relative residual ([`EigenUpdateScratch::probe_residual`]) an
/// updated eigenbasis may show against the maintained `XᵀX` before the
/// exact decomposition replaces it. Fresh decompositions sit near 1e-15
/// and hundreds of chained updates near 1e-13 (DESIGN §4.5).
const PROBE_TOLERANCE: f64 = 1e-11;

/// The successor's PrIU-opt eigenbasis: an exact eigendecomposition of the
/// maintained `XᵀX`, on this thread's warm scratch.
fn refresh_eigen(xtx: &Matrix) -> Result<SymmetricEigen> {
    REFRESH_SCRATCH.with_borrow_mut(|scratch| Ok(SymmetricEigen::new_with(xtx, scratch)?))
}

/// The successor's PrIU-opt eigenbasis for a delta that added `added` and
/// removed `removed` rows: the parent's pairs carried across one rank-one
/// update per added row and one downdate per removed row, when the delta
/// has 1 to [`RANK_ONE_BREAK_EVEN`] rows, every row is finite and the
/// result passes the residual probe against `xtx` (the successor's
/// maintained view); otherwise [`refresh_eigen`].
fn successor_eigen(
    parent: &SymmetricEigen,
    removed: &Matrix,
    added: Option<&Matrix>,
    xtx: &Matrix,
) -> Result<SymmetricEigen> {
    let grown = added
        .into_iter()
        .flat_map(|a| (0..a.nrows()).map(|i| (a.row(i), 1.0)));
    let shrunk = (0..removed.nrows()).map(|i| (removed.row(i), -1.0));
    let rows: Vec<(&[f64], f64)> = grown.chain(shrunk).collect();
    let finite = rows.iter().all(|(x, _)| x.iter().all(|v| v.is_finite()));
    if rows.len() <= RANK_ONE_BREAK_EVEN && finite {
        let updated = UPDATE_SCRATCH.with_borrow_mut(|scratch| {
            rank_one_chain(parent, &rows, scratch, xtx)
                .then(|| SymmetricEigen::from_update(scratch))
        });
        if let Some(eigen) = updated {
            return Ok(eigen);
        }
    }
    refresh_eigen(xtx)
}

/// Runs `rows` through `scratch` as a chain of rank-one updates starting
/// at `parent`: whether there was a row, every link succeeded and the
/// result passed the residual probe.
fn rank_one_chain(
    parent: &SymmetricEigen,
    rows: &[(&[f64], f64)],
    scratch: &mut EigenUpdateScratch,
    xtx: &Matrix,
) -> bool {
    let Some((&(x, rho), rest)) = rows.split_first() else {
        return false;
    };
    eigen_update_into(parent.values.as_slice(), &parent.vectors, x, rho, scratch).is_ok()
        && rest.iter().all(|&(x, rho)| scratch.update(x, rho).is_ok())
        && scratch
            .probe_residual(xtx)
            .is_ok_and(|residual| residual <= PROBE_TOLERANCE)
}

/// The linear-regression family marker of [`LinearEngine`].
#[derive(Debug, Clone, Copy)]
pub struct Linear {
    /// Whether the closed-form method is offered (it solves with
    /// `provenance.normal`, present whenever this is set).
    pub(super) closed_form: bool,
}

impl Default for Linear {
    fn default() -> Self {
        Self { closed_form: true }
    }
}

impl LinearEngine {
    /// One timed closed-form solve folding the whole delta into the
    /// normal-equations view (downdate removed, grow added, solve once).
    fn closed_form_delta(
        &self,
        removed: &[usize],
        added: Option<&DenseDataset>,
    ) -> Result<UpdateOutcome> {
        let view = match &self.provenance.normal {
            Some(view) if self.family.closed_form => view,
            _ => {
                return Err(CoreError::UnsupportedMethod {
                    method: Method::ClosedForm.name(),
                    reason: "the closed-form views were not materialised for this session",
                })
            }
        };
        let lambda = self.provenance.regularization;
        let num_removed = removed.len();
        let num_added = added.map_or(0, DenseDataset::num_samples);
        // Sized before the timer: the downdate, blocked Cholesky
        // factorisation and substitution all reuse workspace buffers (the
        // m × m pair is reserved here only — the replay methods never
        // touch it).
        let mut ws = self.sized_workspace(num_removed.max(num_added));
        ws.reserve_decompositions(self.dataset.num_features());
        timed_update(Method::ClosedForm, num_removed, num_added, || {
            closed_form_delta_with(&self.dataset, view, lambda, removed, added, &mut ws)
        })
    }

    /// PrIU-opt (§5.2, Eq. 15-18) for a removal set, ascending and
    /// distinct. When the feature space is small, the mb-SGD update can be
    /// approximated by its full-gradient (GD) counterpart, which
    /// diagonalises in the eigenbasis of `M = XᵀX`:
    ///
    /// 1. offline (during training): cache the normal equations `M = XᵀX`,
    ///    `N = XᵀY` and eigendecompose `M = Q diag(c) Qᵀ`;
    /// 2. online (per deletion): approximate the eigenvalues of
    ///    `M' = M − ΔXᵀΔX` by `c'_i = (Qᵀ M' Q)_{ii}` (Eq. 18, the
    ///    incremental eigenvalue update of Ning et al.), update
    ///    `N' = N − ΔXᵀΔY`, and run the per-coordinate scalar recursion of
    ///    Eq. 17 — `O(min{Δn,m}·m² + τ·m)` total, independent of `n`.
    ///
    /// The removed-row block and the eigenbasis vectors live in `ws`. The
    /// per-iteration work is a scalar recursion and allocates nothing; the
    /// per-deletion setup (eigenvalue downdate) allocates independently of
    /// the iteration count.
    pub(super) fn priu_opt(&self, removed: &[usize], ws: &mut Workspace) -> Result<Model> {
        let (Some(opt), Some(normal)) = (&self.provenance.opt, &self.provenance.normal) else {
            return Err(CoreError::UnsupportedMethod {
                method: Method::PriuOpt.name(),
                reason: "the PrIU-opt capture was not materialised for this session",
            });
        };
        let (dataset, provenance) = (&self.dataset, &self.provenance);
        let y = dataset
            .labels
            .as_continuous()
            .expect("a linear session always holds continuous labels");
        let n = dataset.num_samples();
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
        ws.batch.extend_from_slice(removed);
        ws.select_batch_rows(&dataset.x);
        let delta_x = &ws.rows;
        ws.b0.clear();
        ws.b0.extend(removed.iter().map(|&i| y[i]));
        let delta_y = &ws.b0;
        // The exact eigenvalues of M' = X_Uᵀ X_U are non-negative; the
        // diagonal approximation of Eq. 18 can dip below zero for
        // high-leverage removals, which would make the recursion
        // expansive, so clamp at zero.
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
}

impl Family for Linear {
    type Data = DenseDataset;
    type Cache = LinearIterationCache;
    type Provenance = LinearProvenance;
    const SESSION: &'static str = "dense linear";
    const LABELS: &'static str = "continuous labels for rows added to a linear session";
    const OPT_CAPTURE: bool = true;
    const TAG: u8 = 4;

    fn model_kind(rows: &DenseDataset) -> Result<ModelKind> {
        match rows.labels {
            Labels::Continuous(_) => Ok(ModelKind::Linear),
            _ => Err(CoreError::LabelMismatch {
                expected: "continuous labels for linear regression",
            }),
        }
    }

    /// The offline structures of PrIU-opt (§5.2) and closed form: one
    /// normal-equations view `XᵀX`, `XᵀY`, plus the eigendecomposition of
    /// `XᵀX` for PrIU-opt.
    fn fit_captures(
        e: &mut LinearEngine,
        _frozen: Option<&[Vector]>,
        ws: &mut Workspace,
    ) -> Result<()> {
        if e.config.capture_opt || e.family.closed_form {
            let view = NormalEquations::build(&e.dataset)?;
            if e.config.capture_opt {
                // The fit's own scratch, not the thread's refresh scratch:
                // that one would outlive the fit on the fitting thread.
                let eigen = SymmetricEigen::new_with(&view.xtx, &mut ws.eig)?;
                e.provenance.opt = Some(LinearOptCapture { eigen });
            }
            e.provenance.normal = Some(view);
        }
        Ok(())
    }

    fn supported_methods(e: &LinearEngine) -> Vec<Method> {
        let mut methods = vec![Method::Retrain, Method::Priu];
        if e.provenance.opt.is_some() {
            methods.push(Method::PriuOpt);
        }
        if e.family.closed_form {
            methods.push(Method::ClosedForm);
        }
        methods.push(Method::Influence);
        methods
    }

    fn update(
        e: &LinearEngine,
        method: Method,
        removed: &[usize],
        added: Option<&DenseDataset>,
    ) -> Result<UpdateOutcome> {
        let num_removed = removed.len();
        match method {
            Method::ClosedForm => e.closed_form_delta(removed, added),
            Method::PriuOpt => e.timed_replay(method, num_removed, num_removed, |ws| {
                e.priu_opt(removed, ws)
            }),
            Method::Influence => timed_update(method, num_removed, 0, || {
                influence_update(&e.dataset, &e.model, e.config.hyper.regularization, removed)
            }),
            _ => unreachable!("BaseL and PrIU are answered by the pipeline"),
        }
    }

    /// Zeroing out the removed samples' provenance tokens turns Eq. 8 into
    ///
    /// ```text
    /// w ← [(1-ηλ)I − (2η/B_U)(G_t − ΔX_tᵀΔX_t)] w + (2η/B_U)(h_t − Δh_t)
    /// ```
    ///
    /// where `G_t = Σ_{i∈B_t} x_i x_iᵀ` (possibly truncated to `P_t V_tᵀ`)
    /// and `h_t = Σ_{i∈B_t} x_i y_i` are the cached batch Gram matrix and
    /// moment vector, and `ΔX_t` / `Δh_t` are built from the removed
    /// samples that fall in batch `t`. The associativity trick of §5.1
    /// keeps everything matrix-vector: the cost per iteration is
    /// `O(r·m + ΔB·m)` instead of the `O(B·m)` of retraining.
    fn priu_step(
        e: &LinearEngine,
        cache: &LinearIterationCache,
        weights: &mut [Vector],
        b_u: usize,
        ws: &mut Workspace,
    ) -> Result<()> {
        debug_assert_eq!(b_u, cache.batch_size - ws.positions.len());
        let y = e
            .dataset
            .labels
            .as_continuous()
            .expect("a linear session always holds continuous labels");
        let (eta, lambda) = (e.provenance.learning_rate, e.provenance.regularization);
        let w = &mut weights[0];

        ws.prepare_features(e.dataset.num_features());
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
        cache.gram.apply_into(w, gw, g0, g1)?;

        // Removed contribution, assembled on the fly from the raw samples.
        for &pos in positions.iter() {
            let i = batch[pos];
            let row = e.dataset.x.row(i);
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
        Ok(())
    }

    fn propagate(
        e: &LinearEngine,
        cache: &LinearIterationCache,
        batch: &[usize],
        positions: &[usize],
    ) -> Result<LinearIterationCache> {
        // Subtract the removed members' Gram and moment contributions.
        let y = e
            .dataset
            .labels
            .as_continuous()
            .expect("a linear session always holds continuous labels");
        let removed: Vec<usize> = positions.iter().map(|&p| batch[p]).collect();
        let rows = e.dataset.x.select_rows(&removed);
        let removed_y = Vector::from_vec(removed.iter().map(|&i| y[i]).collect());
        let mut xy = cache.xy.clone();
        xy.axpy(-1.0, &rows.transpose_matvec(&removed_y)?)?;
        Ok(LinearIterationCache {
            gram: cache.gram.deflate(rows, vec![1.0; removed.len()])?,
            xy,
            batch_size: cache.batch_size - positions.len(),
        })
    }

    fn step(
        e: &LinearEngine,
        rows: &DenseDataset,
        weights: &mut [Vector],
        capture: bool,
        ws: &mut Workspace,
    ) -> Result<Option<LinearIterationCache>> {
        let y = rows
            .labels
            .as_continuous()
            .expect("linear rows carry continuous labels");
        let p = &e.provenance;
        let compression = capture.then_some(e.config.compression);
        linear_step(
            &rows.x,
            y,
            &mut weights[0],
            p.learning_rate,
            p.regularization,
            compression,
            ws,
        )
    }

    fn successor_captures(
        e: &LinearEngine,
        removed: &[usize],
        added: Option<&DenseDataset>,
        successor: &mut LinearEngine,
    ) {
        // The normal-equations view downdates by the removed block and
        // grows by the added one (rank-k, O((|Δ| + |A|)·m²)). The PrIU-opt
        // eigenbasis follows it: a delta of at most RANK_ONE_BREAK_EVEN
        // finite rows carries the parent's pairs across one rank-one
        // secular update per row (O(m²) plus one V·U product each), checked
        // by a residual probe against the new view; a larger delta, a
        // non-finite row or a failed probe re-decomposes the view exactly
        // (O(m³), independent of n). Neither is charged to the outcome's
        // duration. (The appended caches are trajectory-free — Gram +
        // moment of the batch rows — so they hold for closed form too,
        // whose model is the view solve.) A capture that cannot be rebuilt
        // is dropped: a view that does not fold takes closed form and
        // PrIU-opt with it (stage validated the rows, so it always folds);
        // a decomposition that does not converge takes PrIU-opt.
        let Some(view) = &e.provenance.normal else {
            return;
        };
        let removed = e.dataset.select(removed);
        let mut view = view.clone();
        if view.apply_delta(&removed, added).is_err() {
            successor.family.closed_form = false;
            return;
        }
        if let Some(opt) = &e.provenance.opt {
            let eigen = successor_eigen(&opt.eigen, &removed.x, added.map(|a| &a.x), &view.xtx);
            successor.provenance.opt = eigen.ok().map(|eigen| LinearOptCapture { eigen });
        }
        successor.provenance.normal = Some(view);
    }

    fn into_session(e: LinearEngine) -> Session {
        Session::Linear(e)
    }

    fn deflation_rows(cache: &LinearIterationCache) -> usize {
        cache.gram.deflation_rows()
    }

    fn put_state(&self, w: &mut SnapshotWriter) {
        w.bool(self.closed_form);
    }

    fn get_state(r: &mut SnapshotReader<'_>) -> Result<Self> {
        Ok(Linear {
            closed_form: r.bool("linear closed-form flag")?,
        })
    }

    fn cache_fits(_: &LinearEngine, cache: &LinearIterationCache, batch_len: usize) -> bool {
        cache.batch_size == batch_len
    }

    /// The view and the eigenpairs are `m × m` over the dataset's rows, and
    /// the view is there whenever a method solves with it.
    fn captures_fit(e: &LinearEngine) -> bool {
        let (m, p) = (e.dataset.num_features(), &e.provenance);
        let view_fits = p
            .normal
            .as_ref()
            .is_none_or(|v| v.xtx.nrows() == m && v.n == e.dataset.num_samples());
        let eigen_fits = p.opt.as_ref().is_none_or(|o| o.eigen.vectors.nrows() == m);
        let view_present = p.normal.is_some() || (p.opt.is_none() && !e.family.closed_form);
        view_fits && eigen_fits && view_present
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainerConfig;
    use crate::engine::{DeletionEngine, Delta, DeltaRows};
    use crate::metrics::compare_models;
    use priu_data::catalog::Hyperparameters;
    use priu_data::dirty::inject_dirty_samples;
    use priu_data::synthetic::regression::{generate_regression, RegressionConfig};
    use priu_linalg::decomposition::eigen::eigen_into;

    /// A 400 × 64 regression with a fifth of its rows scaled ×10, fitted
    /// with both the PrIU-opt and the closed-form captures; and its dirty
    /// rows.
    fn dirty_session() -> (LinearEngine, Vec<usize>) {
        let clean = generate_regression(&RegressionConfig {
            num_samples: 400,
            num_features: 64,
            seed: 16,
            ..Default::default()
        });
        let injection = inject_dirty_samples(&clean, 0.2, 10.0, 17);
        let config = TrainerConfig::from_hyper(Hyperparameters {
            batch_size: 100,
            num_iterations: 20,
            learning_rate: 0.001,
            regularization: 0.01,
        });
        let engine = LinearEngine::fit(injection.dirty_dataset, config).unwrap();
        (engine, injection.dirty_indices)
    }

    fn linear(session: Session) -> LinearEngine {
        match session {
            Session::Linear(engine) => engine,
            _ => unreachable!("a linear session stays linear"),
        }
    }

    fn eigen(engine: &LinearEngine) -> &SymmetricEigen {
        &engine.provenance.opt.as_ref().unwrap().eigen
    }

    /// The exact pipeline on the engine's maintained view.
    fn exact(engine: &LinearEngine) -> SymmetricEigen {
        let xtx = &engine.provenance.normal.as_ref().unwrap().xtx;
        let mut scratch = EigenScratch::default();
        eigen_into(xtx, &mut scratch).unwrap();
        SymmetricEigen {
            values: Vector::from_vec(scratch.values().to_vec()),
            vectors: scratch.vectors().clone(),
        }
    }

    /// Checks the successor's eigenpairs against the exact pipeline and its
    /// PrIU-opt model against the one the exact basis gives.
    fn assert_matches_exact(engine: &LinearEngine, probe_row: usize, what: &str) {
        let reference = exact(engine);
        let carried = eigen(engine);
        let scale = reference.values[0].abs();
        let worst = (0..reference.values.len())
            .map(|i| (carried.values[i] - reference.values[i]).abs())
            .fold(0.0, f64::max);
        assert!(
            worst <= 1e-10 * scale,
            "{what}: eigenvalues off by {worst:e}"
        );
        let xtx = &engine.provenance.normal.as_ref().unwrap().xtx;
        let rebuilt = (&carried.reconstruct() - xtx).frobenius_norm() / xtx.frobenius_norm();
        assert!(
            rebuilt <= 1e-10,
            "{what}: reconstruction off by {rebuilt:e}"
        );

        let mut exact_engine = engine.clone();
        exact_engine.provenance.opt = Some(LinearOptCapture { eigen: reference });
        let carried_model = engine.update(Method::PriuOpt, &[probe_row]).unwrap().model;
        let exact_model = exact_engine
            .update(Method::PriuOpt, &[probe_row])
            .unwrap()
            .model;
        let cosine = compare_models(&exact_model, &carried_model)
            .unwrap()
            .cosine_similarity;
        assert!(cosine >= 1.0 - 1e-9, "{what}: PrIU-opt cosine {cosine}");
    }

    #[test]
    fn rank_one_successors_track_the_exact_eigenbasis() {
        let (mut engine, dirty) = dirty_session();
        // 100 single-row deletes of dirty rows, each named by its position
        // in the current session (earlier deletes shift the later rows).
        for (step, &row) in dirty.iter().take(100).enumerate() {
            let position = row - step;
            let next = engine.apply_delta(Method::PriuOpt, &Delta::removal(&[position]));
            engine = linear(next.unwrap().session);
            assert_matches_exact(&engine, 0, &format!("delete {step}"));
        }
        // Then one mixed delta of three rows: two removed, one added.
        let added = engine.dataset.select(&[5]);
        let delta = Delta::mixed(&[1, 2], DeltaRows::Dense(added));
        engine = linear(engine.apply_delta(Method::PriuOpt, &delta).unwrap().session);
        assert_matches_exact(&engine, 0, "mixed delta");
    }

    #[test]
    fn a_perturbed_parent_basis_takes_the_exact_path() {
        let (engine, dirty) = dirty_session();
        let delta = Delta::removal(&[dirty[0]]);
        let bits = |e: &SymmetricEigen| {
            e.values
                .iter()
                .chain(e.vectors.as_slice())
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        // The healthy parent carries its basis across: the result is not
        // the exact pipeline's bits.
        let carried = linear(engine.apply_delta(Method::PriuOpt, &delta).unwrap().session);
        assert_ne!(bits(eigen(&carried)), bits(&exact(&carried)));
        // A parent whose stored eigenvalue drifted by 1e-6 (relative)
        // trips the residual probe, and the successor re-decomposes.
        let mut perturbed = engine.clone();
        let opt = perturbed.provenance.opt.as_mut().unwrap();
        opt.eigen.values[0] *= 1.0 + 1e-6;
        let successor = linear(
            perturbed
                .apply_delta(Method::PriuOpt, &delta)
                .unwrap()
                .session,
        );
        assert_eq!(bits(eigen(&successor)), bits(&exact(&successor)));
    }

    #[test]
    fn a_successor_refresh_that_fails_drops_only_the_opt_capture() {
        // A parent view poisoned by one NaN: staging a PrIU delete never
        // reads it, but the successor's eigenbasis cannot be rebuilt from
        // it. Finishing still succeeds and leaves PrIU-opt out.
        let (mut engine, dirty) = dirty_session();
        engine.provenance.normal.as_mut().unwrap().xtx[(0, 0)] = f64::NAN;
        let delta = Delta::removal(&[dirty[0]]);
        let staged = engine.stage_delta(Method::Priu, &delta).unwrap();
        let model = staged.outcome().model.clone();
        let successor = linear(staged.finish().session);
        assert!(successor.provenance.opt.is_none());
        assert!(successor.provenance.normal.is_some());
        assert_eq!(
            successor.supported_methods(),
            vec![
                Method::Retrain,
                Method::Priu,
                Method::ClosedForm,
                Method::Influence
            ]
        );
        assert_eq!(successor.model.flatten(), model.flatten());
    }
}
