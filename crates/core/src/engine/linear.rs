//! The linear-regression family (Eq. 13/14). A cache holds one batch's
//! Gram matrix `Σ x_i x_iᵀ` and moment vector `Σ x_i y_i`; dropping a
//! removed sample deflates the Gram form and subtracts its moment. The
//! successor downdates the normal-equations view by the removed rows, grows
//! it by the added ones, and refreshes the PrIU-opt eigenbasis from it.
//! Closed-form folds both delta directions into that view and solves once.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use priu_data::dataset::DenseDataset;
use priu_linalg::decomposition::eigen::{EigenScratch, SymmetricEigen};
use priu_linalg::{Matrix, Vector};

use crate::baseline::closed_form::closed_form_delta_with;
use crate::baseline::influence::influence_update;
use crate::baseline::retrain::retrain_linear;
use crate::capture::{LinearIterationCache, LinearOptCapture, LinearProvenance, NormalEquations};
use crate::config::TrainerConfig;
use crate::engine::{
    timed_update, DeletionEngine, Engine, Family, LinearEngine, Method, Session, UpdateOutcome,
};
use crate::error::{CoreError, Result};
use crate::snapshot::{
    get_closed_form_v1, get_dense_dataset, get_linear_provenance, get_linear_provenance_v1,
    get_model, get_trainer_config, put_dense_dataset, put_linear_provenance, put_model,
    put_trainer_config, SnapshotReader, SnapshotWriter,
};
use crate::trainer::linear::{linear_step, train_linear_with};
use crate::update::normalize_removed;
use crate::update::priu_linear::priu_update_linear_with;
use crate::update::priu_opt_linear::priu_opt_update_linear_with;
use crate::workspace::Workspace;

thread_local! {
    /// Eigen buffers reused by every successor refresh on this thread (the
    /// server's applier), so a chained apply factorises on warm scratch.
    static REFRESH_SCRATCH: RefCell<EigenScratch> = RefCell::new(EigenScratch::default());
}

/// The successor's PrIU-opt eigenbasis: an exact eigendecomposition of the
/// maintained `XᵀX`, on this thread's warm scratch.
fn refresh_eigen(xtx: &Matrix) -> Result<SymmetricEigen> {
    REFRESH_SCRATCH.with_borrow_mut(|scratch| Ok(SymmetricEigen::new_with(xtx, scratch)?))
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
    /// Serializes the whole engine state bit-exactly (durability snapshots)
    /// in the current layout (layout 2, see [`LinearEngine::decode_snapshot`]).
    pub fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        put_dense_dataset(w, &self.dataset);
        put_trainer_config(w, &self.config);
        put_model(w, &self.model);
        put_linear_provenance(w, &self.provenance);
        w.bool(self.family.closed_form);
        w.u64(self.training_time.as_nanos() as u64);
    }

    /// Rebuilds an engine from [`LinearEngine::encode_snapshot`] bytes:
    /// dataset, config, model, provenance (one normal-equations view, then
    /// the eigenpairs), the closed-form flag and the training time.
    ///
    /// # Errors
    /// Returns [`CoreError::Snapshot`] on truncated or corrupt input.
    pub fn decode_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self> {
        Self {
            dataset: get_dense_dataset(r, "linear dataset")?,
            config: get_trainer_config(r, "linear config")?,
            model: get_model(r, "linear model")?,
            provenance: get_linear_provenance(r, "linear provenance")?,
            family: Linear {
                closed_form: r.bool("linear closed-form flag")?,
            },
            training_time: Duration::from_nanos(r.u64("linear training time")?),
        }
        .checked()
    }

    /// Rebuilds an engine from bytes in the first layout, where the
    /// PrIU-opt capture and the closed-form views each carried their own
    /// `XᵀY` (and the closed-form views their own `XᵀX`). The copies fold
    /// into one view: the closed-form one when present (it is exact), else
    /// the opt capture's `XᵀY` with `XᵀX` reconstructed from its
    /// eigenpairs.
    ///
    /// # Errors
    /// Returns [`CoreError::Snapshot`] on truncated or corrupt input.
    pub fn decode_snapshot_v1(r: &mut SnapshotReader<'_>) -> Result<Self> {
        let dataset = get_dense_dataset(r, "linear dataset")?;
        let config = get_trainer_config(r, "linear config")?;
        let model = get_model(r, "linear model")?;
        let (mut provenance, opt_xty) = get_linear_provenance_v1(r, "linear provenance")?;
        let closed_form_view = if r.bool("linear closed-form flag")? {
            Some(get_closed_form_v1(r, "linear closed-form")?)
        } else {
            None
        };
        let training_time = Duration::from_nanos(r.u64("linear training time")?);
        let closed_form = closed_form_view.is_some();
        provenance.normal = match (closed_form_view, &provenance.opt, opt_xty) {
            (Some(view), _, _) => Some(view),
            (None, Some(opt), Some(xty)) => Some(NormalEquations {
                xtx: opt.eigen.reconstruct(),
                xty,
                n: dataset.num_samples(),
            }),
            _ => None,
        };
        Self {
            dataset,
            config,
            model,
            provenance,
            family: Linear { closed_form },
            training_time,
        }
        .checked()
    }

    /// Rejects a decoded engine whose views or eigenpairs disagree in
    /// shape with the dataset (so corrupt input fails here with a typed
    /// error instead of panicking in a later apply).
    fn checked(self) -> Result<Self> {
        let (m, p) = (self.dataset.num_features(), &self.provenance);
        let view_fits = p
            .normal
            .as_ref()
            .is_none_or(|v| v.xtx.nrows() == m && v.n == self.dataset.num_samples());
        let eigen_fits = p.opt.as_ref().is_none_or(|o| o.eigen.vectors.nrows() == m);
        let view_present = p.normal.is_some() || (p.opt.is_none() && !self.family.closed_form);
        if !(view_fits && eigen_fits && view_present) {
            return Err(CoreError::Snapshot(
                "snapshot truncated or corrupt: linear captures do not match the dataset"
                    .to_string(),
            ));
        }
        Ok(self)
    }

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
        let num_removed = normalize_removed(self.num_samples(), removed)?.len();
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
}

impl Family for Linear {
    type Data = DenseDataset;
    type Cache = LinearIterationCache;
    type Provenance = LinearProvenance;
    const SESSION: &'static str = "dense linear";
    const LABELS: &'static str = "continuous labels for rows added to a linear session";

    fn fit(self, dataset: DenseDataset, config: TrainerConfig) -> Result<LinearEngine> {
        // Pre-size the workspace before the offline timer starts, so the
        // timed region measures training and capture work, not buffer
        // growth; the m × m decomposition buffers are only needed when the
        // PrIU-opt capture will factorise.
        let mut ws = Workspace::sized_for(dataset.num_features(), config.hyper.batch_size, 1);
        if config.capture_opt {
            ws.reserve_decompositions(dataset.num_features());
        }
        let start = Instant::now();
        let mut trained = train_linear_with(&dataset, &config, &mut ws)?;
        if self.closed_form && trained.provenance.normal.is_none() {
            trained.provenance.normal = Some(NormalEquations::build(&dataset)?);
        }
        Ok(Engine {
            dataset,
            config,
            model: trained.model,
            provenance: trained.provenance,
            family: self,
            training_time: start.elapsed(),
        })
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
        if method == Method::ClosedForm {
            return e.closed_form_delta(removed, added);
        }
        let num_removed = normalize_removed(e.num_samples(), removed)?.len();
        match method {
            Method::Retrain => timed_update(method, num_removed, 0, || {
                retrain_linear(&e.dataset, &e.provenance, removed)
            }),
            Method::Priu => e.timed_replay(method, num_removed, num_removed, |ws| {
                priu_update_linear_with(&e.dataset, &e.provenance, removed, ws)
            }),
            Method::PriuOpt => {
                if e.provenance.opt.is_none() {
                    return Err(CoreError::UnsupportedMethod {
                        method: method.name(),
                        reason: "the PrIU-opt capture was not materialised for this session",
                    });
                }
                e.timed_replay(method, num_removed, num_removed, |ws| {
                    priu_opt_update_linear_with(&e.dataset, &e.provenance, removed, ws)
                })
            }
            Method::Influence => timed_update(method, num_removed, 0, || {
                influence_update(&e.dataset, &e.model, e.config.hyper.regularization, removed)
            }),
            Method::ClosedForm => unreachable!("closed form is answered above"),
        }
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
        added: &DenseDataset,
        weights: &mut [Vector],
        capture: bool,
        ws: &mut Workspace,
    ) -> Result<Option<LinearIterationCache>> {
        let y = added
            .labels
            .as_continuous()
            .expect("added rows were validated as continuous");
        let p = &e.provenance;
        let compression = capture.then_some(e.config.compression);
        linear_step(
            &added.x,
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
        successor: &mut LinearProvenance,
    ) -> Result<()> {
        // The normal-equations view downdates by the removed block and
        // grows by the added one (rank-k, O((|Δ| + |A|)·m²)); the PrIU-opt
        // eigenbasis is then one exact eigendecomposition of the maintained
        // `XᵀX` (O(m³), independent of n). Neither is charged to the
        // outcome's duration. (The appended caches are trajectory-free —
        // Gram + moment of the batch rows — so they hold for closed form
        // too, whose model is the view solve.)
        if let Some(view) = &e.provenance.normal {
            let mut view = view.clone();
            view.apply_delta(&e.dataset.select(removed), added)?;
            if e.provenance.opt.is_some() {
                successor.opt = Some(LinearOptCapture {
                    eigen: refresh_eigen(&view.xtx)?,
                });
            }
            successor.normal = Some(view);
        }
        Ok(())
    }

    fn into_session(e: LinearEngine) -> Session {
        Session::Linear(e)
    }

    fn deflation_rows(cache: &LinearIterationCache) -> usize {
        cache.gram.deflation_rows()
    }
}
