//! The linear-regression deletion engine.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use priu_data::dataset::{DenseDataset, TaskKind};
use priu_linalg::decomposition::eigen::{EigenScratch, SymmetricEigen};
use priu_linalg::{Matrix, Vector};

use crate::baseline::closed_form::closed_form_delta_with;
use crate::baseline::influence::influence_update;
use crate::baseline::retrain::retrain_linear;
use crate::capture::{
    LinearIterationCache, LinearOptCapture, LinearProvenance, NormalEquations, ProvenanceMemory,
};
use crate::config::TrainerConfig;
use crate::engine::{
    appended_batches, split_survivors, timed_update, ChainedUpdate, DeletionEngine, Delta,
    DeltaRows, Method, Session, UpdateOutcome,
};
use crate::error::{CoreError, Result};
use crate::model::{Model, ModelKind};
use crate::snapshot::{
    get_closed_form_v1, get_dense_dataset, get_linear_provenance, get_linear_provenance_v1,
    get_model, get_trainer_config, put_dense_dataset, put_linear_provenance, put_model,
    put_trainer_config, SnapshotReader, SnapshotWriter,
};
use crate::trainer::linear::{linear_step, train_linear_with, TrainedLinear};
use crate::update::priu_linear::priu_update_linear_with;
use crate::update::priu_opt_linear::priu_opt_update_linear_with;
use crate::update::{normalize_removed, removed_positions};
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

/// A linear-regression session: dataset + trained model + captured
/// provenance, including one normal-equations view shared by the
/// closed-form baseline and PrIU-opt.
///
/// Linear provenance shrinks *exactly* under [`DeletionEngine::apply`] —
/// Gram caches and the normal-equations view are downdated by the removed
/// samples' contributions, and the PrIU-opt eigenbasis is recomputed from
/// the downdated view — so a chained linear session keeps its full method
/// set.
#[derive(Debug, Clone)]
pub struct LinearEngine {
    dataset: DenseDataset,
    config: TrainerConfig,
    trained: TrainedLinear,
    /// Whether the closed-form method is offered (it solves with
    /// `trained.provenance.normal`, present whenever this is set).
    closed_form: bool,
    training_time: Duration,
}

impl LinearEngine {
    /// Trains the initial model and captures provenance (offline phase),
    /// materialising the closed-form views.
    ///
    /// # Errors
    /// Propagates training failures (label mismatch, divergence).
    pub fn fit(dataset: DenseDataset, config: TrainerConfig) -> Result<Self> {
        Self::fit_with(dataset, config, true)
    }

    /// Like [`LinearEngine::fit`], controlling whether the closed-form views
    /// (`XᵀX` / `XᵀY`) are materialised.
    ///
    /// # Errors
    /// Propagates training failures (label mismatch, divergence).
    pub fn fit_with(
        dataset: DenseDataset,
        config: TrainerConfig,
        capture_closed_form: bool,
    ) -> Result<Self> {
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
        if capture_closed_form && trained.provenance.normal.is_none() {
            trained.provenance.normal = Some(NormalEquations::build(&dataset)?);
        }
        Ok(Self {
            dataset,
            config,
            trained,
            closed_form: capture_closed_form,
            training_time: start.elapsed(),
        })
    }

    /// The training dataset this session currently covers.
    pub fn dataset(&self) -> &DenseDataset {
        &self.dataset
    }

    /// The captured provenance, including the normal-equations view and
    /// the PrIU-opt eigenpairs when those captures are on.
    pub fn provenance(&self) -> &LinearProvenance {
        &self.trained.provenance
    }

    /// Serializes the whole engine state bit-exactly (durability snapshots)
    /// in the current layout (layout 2, see [`LinearEngine::decode_snapshot`]).
    pub fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        put_dense_dataset(w, &self.dataset);
        put_trainer_config(w, &self.config);
        put_model(w, &self.trained.model);
        put_linear_provenance(w, &self.trained.provenance);
        w.bool(self.closed_form);
        w.u64(self.training_time.as_nanos() as u64);
    }

    /// Rebuilds an engine from [`LinearEngine::encode_snapshot`] bytes:
    /// dataset, config, model, provenance (one normal-equations view, then
    /// the eigenpairs), the closed-form flag and the training time.
    ///
    /// # Errors
    /// Returns [`CoreError::Snapshot`] on truncated or corrupt input.
    pub fn decode_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self> {
        let dataset = get_dense_dataset(r, "linear dataset")?;
        let config = get_trainer_config(r, "linear config")?;
        let model = get_model(r, "linear model")?;
        let provenance = get_linear_provenance(r, "linear provenance")?;
        let closed_form = r.bool("linear closed-form flag")?;
        let training_time = Duration::from_nanos(r.u64("linear training time")?);
        Self::checked(
            dataset,
            config,
            model,
            provenance,
            closed_form,
            training_time,
        )
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
        Self::checked(
            dataset,
            config,
            model,
            provenance,
            closed_form,
            training_time,
        )
    }

    /// Assembles a decoded engine, rejecting views and eigenpairs whose
    /// shape disagrees with the dataset (so corrupt input fails here with
    /// a typed error instead of panicking in a later apply).
    fn checked(
        dataset: DenseDataset,
        config: TrainerConfig,
        model: Model,
        provenance: LinearProvenance,
        closed_form: bool,
        training_time: Duration,
    ) -> Result<Self> {
        let m = dataset.num_features();
        let view_fits = provenance
            .normal
            .as_ref()
            .is_none_or(|v| v.xtx.nrows() == m && v.n == dataset.num_samples());
        let eigen_fits = provenance
            .opt
            .as_ref()
            .is_none_or(|o| o.eigen.vectors.nrows() == m);
        let view_present =
            provenance.normal.is_some() || (provenance.opt.is_none() && !closed_form);
        if !(view_fits && eigen_fits && view_present) {
            return Err(CoreError::Snapshot(
                "snapshot truncated or corrupt: linear captures do not match the dataset"
                    .to_string(),
            ));
        }
        Ok(Self {
            dataset,
            config,
            trained: TrainedLinear { model, provenance },
            closed_form,
            training_time,
        })
    }

    /// The normal-equations view the closed-form method solves with.
    fn closed_form_view(&self) -> Result<&NormalEquations> {
        match &self.trained.provenance.normal {
            Some(view) if self.closed_form => Ok(view),
            _ => Err(CoreError::UnsupportedMethod {
                method: Method::ClosedForm.name(),
                reason: "the closed-form views were not materialised for this session",
            }),
        }
    }

    fn continuous_labels(&self) -> &Vector {
        self.dataset
            .labels
            .as_continuous()
            .expect("a linear session always holds continuous labels")
    }

    /// A workspace pre-sized for this session's replay loops (called before
    /// the update timer starts, so the timed region never allocates buffers).
    fn sized_workspace(&self, num_removed: usize) -> Workspace {
        let mut ws = Workspace::sized_for(
            self.dataset.num_features(),
            self.trained
                .provenance
                .schedule
                .batch_size()
                .max(num_removed),
            1,
        );
        // Chained sessions carry deflation corrections whose row count can
        // exceed both the batch size and the feature count.
        let max_deflation = self
            .trained
            .provenance
            .iterations
            .iter()
            .map(|it| it.gram.deflation_rows())
            .max()
            .unwrap_or(0);
        ws.reserve_gram_scratch(max_deflation);
        ws
    }

    /// Validates a delta's added rows against this session: dense block,
    /// matching feature width, continuous labels. Returns `None` for
    /// deltas that add nothing (including an explicitly empty block).
    fn validate_added<'a>(&self, delta: &'a Delta) -> Result<Option<&'a DenseDataset>> {
        match &delta.added {
            None => Ok(None),
            Some(DeltaRows::Sparse(_)) => Err(CoreError::InvalidConfig(
                "sparse rows cannot be added to a dense linear session".to_string(),
            )),
            Some(DeltaRows::Dense(rows)) => {
                if rows.num_features() != self.dataset.num_features() {
                    return Err(CoreError::InvalidConfig(format!(
                        "added rows have {} features, the session has {}",
                        rows.num_features(),
                        self.dataset.num_features()
                    )));
                }
                if rows.labels.as_continuous().is_none() {
                    return Err(CoreError::LabelMismatch {
                        expected: "continuous labels for rows added to a linear session",
                    });
                }
                Ok((rows.num_samples() > 0).then_some(rows))
            }
        }
    }

    /// Runs the appended explicit-batch GD steps over `added`, chunked by
    /// the schedule's batch size, warm-started from `w` (mutated in place).
    /// When `captures` is provided, one iteration cache per appended batch
    /// is collected (the apply path); without it the warm path allocates
    /// nothing per step.
    fn addition_steps(
        &self,
        added: &DenseDataset,
        w: &mut Vector,
        ws: &mut Workspace,
        mut captures: Option<&mut Vec<LinearIterationCache>>,
    ) -> Result<()> {
        let y = added
            .labels
            .as_continuous()
            .expect("added rows were validated as continuous");
        let provenance = &self.trained.provenance;
        let (eta, lambda) = (provenance.learning_rate, provenance.regularization);
        for batch in appended_batches(0, added.num_samples(), provenance.schedule.batch_size()) {
            ws.batch.clear();
            ws.batch.extend_from_slice(&batch);
            let cache = linear_step(
                &added.x,
                y,
                w,
                eta,
                lambda,
                captures.as_ref().map(|_| self.config.compression),
                ws,
            )?;
            if let (Some(caps), Some(cache)) = (captures.as_deref_mut(), cache) {
                caps.push(cache);
            }
        }
        if !w.is_finite() {
            return Err(CoreError::Diverged {
                iteration: provenance.schedule.num_iterations(),
            });
        }
        Ok(())
    }

    /// One timed closed-form solve folding the whole delta into the
    /// normal-equations view (downdate removed, grow added, solve once).
    fn closed_form_delta(
        &self,
        removed: &[usize],
        added: Option<&DenseDataset>,
    ) -> Result<UpdateOutcome> {
        let view = self.closed_form_view()?;
        let lambda = self.trained.provenance.regularization;
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

    /// The deletion-only update path — exactly the pre-delta code, so
    /// removal-only deltas stay bitwise identical to the old engine.
    fn removal_update(&self, method: Method, removed: &[usize]) -> Result<UpdateOutcome> {
        let num_removed = normalize_removed(self.num_samples(), removed)?.len();
        match method {
            Method::Retrain => timed_update(method, num_removed, 0, || {
                retrain_linear(&self.dataset, &self.trained.provenance, removed)
            }),
            Method::Priu => {
                // The workspace is sized before the timer starts, so the
                // timed region measures pure replay work.
                let mut ws = self.sized_workspace(num_removed);
                timed_update(method, num_removed, 0, || {
                    priu_update_linear_with(
                        &self.dataset,
                        &self.trained.provenance,
                        removed,
                        &mut ws,
                    )
                })
            }
            Method::PriuOpt => {
                if self.trained.provenance.opt.is_none() {
                    return Err(CoreError::UnsupportedMethod {
                        method: method.name(),
                        reason: "the PrIU-opt capture was not materialised for this session",
                    });
                }
                let mut ws = self.sized_workspace(num_removed);
                timed_update(method, num_removed, 0, || {
                    priu_opt_update_linear_with(
                        &self.dataset,
                        &self.trained.provenance,
                        removed,
                        &mut ws,
                    )
                })
            }
            Method::ClosedForm => self.closed_form_delta(removed, None),
            Method::Influence => timed_update(method, num_removed, 0, || {
                influence_update(
                    &self.dataset,
                    &self.trained.model,
                    self.config.hyper.regularization,
                    removed,
                )
            }),
        }
    }
}

impl DeletionEngine for LinearEngine {
    fn task(&self) -> TaskKind {
        TaskKind::Regression
    }

    fn num_samples(&self) -> usize {
        self.dataset.num_samples()
    }

    fn model(&self) -> &Model {
        &self.trained.model
    }

    fn training_time(&self) -> Duration {
        self.training_time
    }

    fn provenance_bytes(&self) -> usize {
        self.trained.provenance.provenance_bytes()
    }

    fn supported_methods(&self) -> Vec<Method> {
        let mut methods = vec![Method::Retrain, Method::Priu];
        if self.trained.provenance.opt.is_some() {
            methods.push(Method::PriuOpt);
        }
        if self.closed_form {
            methods.push(Method::ClosedForm);
        }
        methods.push(Method::Influence);
        methods
    }

    fn update_delta(&self, method: Method, delta: &Delta) -> Result<UpdateOutcome> {
        let Some(added) = self.validate_added(delta)? else {
            return self.removal_update(method, &delta.removed);
        };
        // Closed-form folds both directions into the views and solves once;
        // every other method removes with its own machinery and then runs
        // the exact appended GD steps warm-started from the removal model.
        if method == Method::ClosedForm {
            return self.closed_form_delta(&delta.removed, Some(added));
        }
        let mut outcome = self.removal_update(method, &delta.removed)?;
        let mut ws = self.sized_workspace(0);
        let start = Instant::now();
        let mut w = outcome.model.weight().clone();
        self.addition_steps(added, &mut w, &mut ws, None)?;
        outcome.model = Model::new(ModelKind::Linear, vec![w])?;
        outcome.duration += start.elapsed();
        outcome.num_added = added.num_samples();
        Ok(outcome)
    }

    fn apply_delta(&self, method: Method, delta: &Delta) -> Result<ChainedUpdate> {
        let added = self.validate_added(delta)?;
        let mut outcome = if method == Method::ClosedForm {
            self.closed_form_delta(&delta.removed, added)?
        } else {
            self.removal_update(method, &delta.removed)?
        };
        let (removed, survivors) = split_survivors(self.num_samples(), &delta.removed)?;
        let y = self.continuous_labels();
        let provenance = &self.trained.provenance;

        // Deletion propagation through the per-iteration caches: subtract the
        // removed samples' Gram and moment contributions from every batch
        // they appear in. The batches are materialised once and reused to
        // build the restricted schedule below.
        let mut batches = Vec::with_capacity(provenance.iterations.len());
        let mut iterations = Vec::with_capacity(provenance.iterations.len());
        for (t, cache) in provenance.iterations.iter().enumerate() {
            let batch = provenance.schedule.batch(t);
            let positions = removed_positions(&batch, &removed);
            if positions.is_empty() {
                iterations.push(cache.clone());
                batches.push(batch);
                continue;
            }
            let removed_in_batch: Vec<usize> = positions.iter().map(|&p| batch[p]).collect();
            batches.push(batch);
            let delta_rows = self.dataset.x.select_rows(&removed_in_batch);
            let delta_y = Vector::from_vec(removed_in_batch.iter().map(|&i| y[i]).collect());
            let mut xy = cache.xy.clone();
            xy.axpy(-1.0, &delta_rows.transpose_matvec(&delta_y)?)?;
            let gram = cache
                .gram
                .deflate(delta_rows, vec![1.0; removed_in_batch.len()])?;
            iterations.push(LinearIterationCache {
                gram,
                xy,
                batch_size: cache.batch_size - positions.len(),
            });
        }

        // The normal-equations view downdates by the removed block and
        // grows by the added one (rank-k, O((|Δ| + |A|)·m²)); the PrIU-opt
        // eigenbasis is then one exact eigendecomposition of the maintained
        // `XᵀX` (O(m³), independent of n). Neither is charged to
        // `outcome.duration`.
        let normal = match &provenance.normal {
            Some(view) => {
                let mut view = view.clone();
                view.apply_delta(&self.dataset.select(&removed), added)?;
                Some(view)
            }
            None => None,
        };
        let opt = match (&provenance.opt, &normal) {
            (Some(_), Some(view)) => Some(LinearOptCapture {
                eigen: refresh_eigen(&view.xtx)?,
            }),
            _ => None,
        };

        let mut dataset = self.dataset.select(&survivors);
        let mut schedule = provenance.schedule.restrict_from(&removed, batches);
        if let Some(added) = added {
            let k = added.num_samples();
            // Appended explicit-batch iterations: run the exact GD steps
            // warm-started from the removal-path model, capturing one
            // iteration cache per appended batch. (The linear captures are
            // trajectory-free — Gram + moment of the batch rows — so for
            // closed-form, whose outcome model is the view solve, the same
            // captures apply.)
            let mut ws = self.sized_workspace(0);
            let start = Instant::now();
            let mut w = outcome.model.weight().clone();
            let mut caps = Vec::with_capacity(k.div_ceil(schedule.batch_size().max(1)));
            self.addition_steps(added, &mut w, &mut ws, Some(&mut caps))?;
            iterations.extend(caps);
            schedule = schedule.extend_with(
                appended_batches(survivors.len(), k, provenance.schedule.batch_size()),
                k,
            );
            dataset.append(added)?;
            if method != Method::ClosedForm {
                outcome.model = Model::new(ModelKind::Linear, vec![w])?;
                outcome.duration += start.elapsed();
                outcome.num_added = k;
            }
        }

        let successor = LinearEngine {
            dataset,
            config: self.config,
            trained: TrainedLinear {
                model: outcome.model.clone(),
                provenance: LinearProvenance {
                    schedule,
                    learning_rate: provenance.learning_rate,
                    regularization: provenance.regularization,
                    initial_model: provenance.initial_model.clone(),
                    iterations,
                    normal,
                    opt,
                },
            },
            closed_form: self.closed_form,
            training_time: self.training_time,
        };
        Ok(ChainedUpdate {
            outcome,
            session: Session::Linear(successor),
        })
    }
}
