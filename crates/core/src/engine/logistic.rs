//! The dense logistic-regression family, binary and multinomial. A cache
//! holds, per class, the linearised `C_t = Σ a x xᵀ` and `D_t = Σ b' x`
//! plus every batch member's `(a, b')` coefficients, which pinpoint a
//! removed sample's contribution; one PrIU iteration evaluates it with
//! those contributions taken out (Eq. 19/20). PrIU-opt replays PrIU up to
//! its switch iteration and finishes in the eigenbasis of the frozen `C*`
//! (§5.4). The successor keeps no extra captures: the PrIU-opt capture's
//! frozen linearisation point belongs to the pre-delta trajectory, so it
//! is dropped rather than left stale.

use std::time::{Duration, Instant};

use priu_data::dataset::{DenseDataset, Labels, TaskKind};
use priu_linalg::Vector;

use crate::baseline::influence::influence_update;
use crate::capture::{ClassIterationCache, LogisticIterationCache, LogisticProvenance};
use crate::config::TrainerConfig;
use crate::engine::{timed_update, Engine, Family, LogisticEngine, Method, Session, UpdateOutcome};
use crate::error::{CoreError, Result};
use crate::model::Model;
use crate::snapshot::{
    get_dense_dataset, get_logistic_provenance, get_model, get_trainer_config, put_dense_dataset,
    put_logistic_provenance, put_model, put_trainer_config, SnapshotReader, SnapshotWriter,
};
use crate::trainer::logistic::{
    binary_logistic_step, multinomial_logistic_step, train_binary_logistic_with,
    train_multinomial_logistic_with,
};
use crate::update::drop_positions;
use crate::workspace::Workspace;

/// The dense logistic-regression family marker of [`LogisticEngine`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Logistic;

impl LogisticEngine {
    /// Serializes the whole engine state bit-exactly (durability snapshots).
    pub fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        put_dense_dataset(w, &self.dataset);
        put_trainer_config(w, &self.config);
        put_model(w, &self.model);
        put_logistic_provenance(w, &self.provenance);
        w.u64(self.training_time.as_nanos() as u64);
    }

    /// Rebuilds an engine from [`LogisticEngine::encode_snapshot`] bytes.
    ///
    /// # Errors
    /// Returns [`CoreError::Snapshot`] on truncated or corrupt input.
    pub fn decode_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self> {
        Ok(Self {
            dataset: get_dense_dataset(r, "logistic dataset")?,
            config: get_trainer_config(r, "logistic config")?,
            model: get_model(r, "logistic model")?,
            provenance: get_logistic_provenance(r, "logistic provenance")?,
            family: Logistic,
            training_time: Duration::from_nanos(r.u64("logistic training time")?),
        })
    }

    /// PrIU-opt (§5.4) for a removal set, ascending and distinct. The
    /// optimisation exploits the observation that the linearisation
    /// coefficients stabilise as training converges: after iteration
    /// `ts ≈ 0.7·τ` the training phase froze per-sample coefficients
    /// `(a_{i,*}, b'_{i,*})`, materialised the full-data `C*` / `D*` once,
    /// and eigendecomposed `C*` offline. The online update therefore
    ///
    /// 1. replays PrIU (Eq. 19/20) for `t < ts`, the pipeline's walk cut at
    ///    `ts`;
    /// 2. downdates the eigenvalues of `C*` for the removed samples
    ///    (`c'_i = c_i − (QᵀΔC*Q)_{ii}`, the same incremental eigenvalue
    ///    update as §5.2) and subtracts `ΔD*`;
    /// 3. finishes the remaining `τ − ts` iterations as a per-coordinate
    ///    scalar recursion in the eigenbasis — `O((τ−ts)·m)` instead of
    ///    `O((τ−ts)·(r·m + ΔB·m))`.
    ///
    /// Phase 1 is allocation-free per iteration and phase 2 allocates only
    /// per class, independently of the iteration count.
    pub(super) fn priu_opt(&self, removed: &[usize], ws: &mut Workspace) -> Result<Model> {
        let Some(opt) = &self.provenance.opt else {
            return Err(CoreError::UnsupportedMethod {
                method: Method::PriuOpt.name(),
                reason: "the PrIU-opt capture was not materialised for this session",
            });
        };
        let (dataset, provenance) = (&self.dataset, &self.provenance);
        let n = dataset.num_samples();
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
        let mut model = self.priu(removed, ts, ws)?;

        if tau <= ts {
            return Ok(model);
        }

        // Phase 2: frozen-coefficient GD in the eigenbasis of C*.
        ws.batch.clear();
        ws.batch.extend_from_slice(removed);
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

            // Downdated eigenvalues of C*' = C* − ΔC* and moment vector
            // D*'. C*' is negative semi-definite (the linearisation
            // slopes are ≤ 0); clamp the diagonal eigenvalue
            // approximation accordingly so the recursion stays
            // contractive for high-leverage removals.
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
}

impl Family for Logistic {
    type Data = DenseDataset;
    type Cache = LogisticIterationCache;
    type Provenance = LogisticProvenance;
    const SESSION: &'static str = "dense logistic";
    const LABELS: &'static str =
        "added rows with the same label kind (and class count) as the logistic session";

    fn fit(self, dataset: DenseDataset, config: TrainerConfig) -> Result<LogisticEngine> {
        // Pre-size the workspace — including the m × m buffers the PrIU-opt
        // capture eigendecomposes into — before the offline timer starts.
        let num_classes = match dataset.task() {
            TaskKind::MulticlassClassification { num_classes } => num_classes,
            _ => 1,
        };
        let mut ws =
            Workspace::sized_for(dataset.num_features(), config.hyper.batch_size, num_classes);
        if config.capture_opt {
            ws.reserve_decompositions(dataset.num_features());
        }
        let start = Instant::now();
        let trained = match dataset.task() {
            TaskKind::BinaryClassification => {
                train_binary_logistic_with(&dataset, &config, &mut ws)?
            }
            TaskKind::MulticlassClassification { .. } => {
                train_multinomial_logistic_with(&dataset, &config, &mut ws)?
            }
            TaskKind::Regression => {
                return Err(CoreError::LabelMismatch {
                    expected: "binary or multiclass labels for a logistic session",
                })
            }
        };
        Ok(Engine {
            dataset,
            config,
            model: trained.model,
            provenance: trained.provenance,
            family: self,
            training_time: start.elapsed(),
        })
    }

    fn supported_methods(e: &LogisticEngine) -> Vec<Method> {
        let mut methods = vec![Method::Retrain, Method::Priu];
        if e.provenance.opt.is_some() {
            methods.push(Method::PriuOpt);
        }
        methods.push(Method::Influence);
        methods
    }

    fn update(
        e: &LogisticEngine,
        method: Method,
        removed: &[usize],
        _added: Option<&DenseDataset>,
    ) -> Result<UpdateOutcome> {
        let num_removed = removed.len();
        match method {
            Method::PriuOpt => e.timed_replay(method, num_removed, num_removed, |ws| {
                e.priu_opt(removed, ws)
            }),
            Method::Influence => timed_update(method, num_removed, 0, || {
                influence_update(&e.dataset, &e.model, e.config.hyper.regularization, removed)
            }),
            _ => Err(CoreError::UnsupportedMethod {
                method: method.name(),
                reason: "the closed-form update maintains the regularised normal equations, \
                         which exist only for linear regression",
            }),
        }
    }

    /// Deleting the samples in `R` replays, per class,
    ///
    /// ```text
    /// w ← [(1-ηλ)I + (η/B_U)(C_t − ΔC_t)] w + (η/B_U)(D_t − ΔD_t)
    /// ```
    ///
    /// where `C_t = Σ a_{i,(t)} x_i x_iᵀ` (possibly truncated to
    /// `P_t V_tᵀ`) and `D_t = Σ b'_{i,(t)} x_i` are the cached linearised
    /// Gram form and moment vector, with `ΔC_t w` and `ΔD_t` assembled on
    /// the fly from the removed samples' rows and stored coefficients —
    /// `O(r·m + ΔB·m)` per class per iteration.
    fn priu_step(
        e: &LogisticEngine,
        cache: &LogisticIterationCache,
        weights: &mut [Vector],
        b_u: usize,
        ws: &mut Workspace,
    ) -> Result<()> {
        debug_assert_eq!(b_u, cache.batch_size - ws.positions.len());
        let (eta, lambda) = (e.provenance.learning_rate, e.provenance.regularization);
        let m = e.dataset.num_features();
        let scale = eta / b_u as f64;

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
                let row = e.dataset.x.row(i);
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
        Ok(())
    }

    fn propagate(
        e: &LogisticEngine,
        cache: &LogisticIterationCache,
        batch: &[usize],
        positions: &[usize],
    ) -> Result<LogisticIterationCache> {
        // Per class, the stored `(a, b')` coefficients pinpoint each removed
        // member's contribution to `C_t` and `D_t`.
        let removed: Vec<usize> = positions.iter().map(|&p| batch[p]).collect();
        let rows = e.dataset.x.select_rows(&removed);
        let mut classes = Vec::with_capacity(cache.classes.len());
        for class in &cache.classes {
            let a: Vec<f64> = positions.iter().map(|&p| class.coefficients[p].0).collect();
            let b: Vec<f64> = positions.iter().map(|&p| class.coefficients[p].1).collect();
            let mut d = class.d.clone();
            d.axpy(-1.0, &rows.transpose_matvec(&Vector::from_vec(b))?)?;
            classes.push(ClassIterationCache {
                gram: class.gram.deflate(rows.clone(), a)?,
                d,
                coefficients: drop_positions(&class.coefficients, positions),
            });
        }
        Ok(LogisticIterationCache {
            classes,
            batch_size: cache.batch_size - positions.len(),
        })
    }

    fn step(
        e: &LogisticEngine,
        rows: &DenseDataset,
        weights: &mut [Vector],
        capture: bool,
        ws: &mut Workspace,
    ) -> Result<Option<LogisticIterationCache>> {
        let (eta, lambda) = (e.provenance.learning_rate, e.provenance.regularization);
        let interp = &e.config.interpolation;
        let compression = capture.then_some(e.config.compression);
        match &rows.labels {
            Labels::Multiclass {
                classes,
                num_classes,
            } => multinomial_logistic_step(
                &rows.x,
                classes,
                *num_classes,
                weights,
                eta,
                lambda,
                interp,
                compression,
                ws,
            ),
            Labels::Binary(y) => binary_logistic_step(
                &rows.x,
                y,
                &mut weights[0],
                eta,
                lambda,
                interp,
                compression,
                ws,
            ),
            Labels::Continuous(_) => unreachable!("logistic rows carry class labels"),
        }
    }

    fn into_session(e: LogisticEngine) -> Session {
        Session::Logistic(e)
    }

    fn deflation_rows(cache: &LogisticIterationCache) -> usize {
        let classes = cache.classes.iter();
        classes
            .map(|class| class.gram.deflation_rows())
            .max()
            .unwrap_or(0)
    }
}
