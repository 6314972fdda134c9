//! The dense logistic-regression family, binary and multinomial (Eq.
//! 19/20). A cache holds, per class, the linearised `C_t = Σ a x xᵀ` and
//! `D_t = Σ b' x` plus every batch member's `(a, b')` coefficients, which
//! pinpoint a removed sample's contribution. The successor keeps no extra
//! captures: the PrIU-opt capture's frozen linearisation point belongs to
//! the pre-delta trajectory, so it is dropped rather than left stale.

use std::time::{Duration, Instant};

use priu_data::dataset::{DenseDataset, Labels, TaskKind};
use priu_linalg::Vector;

use crate::baseline::influence::influence_update;
use crate::capture::{ClassIterationCache, LogisticIterationCache, LogisticProvenance};
use crate::config::TrainerConfig;
use crate::engine::{
    timed_update, DeletionEngine, Engine, Family, LogisticEngine, Method, Session, UpdateOutcome,
};
use crate::error::{CoreError, Result};
use crate::snapshot::{
    get_dense_dataset, get_logistic_provenance, get_model, get_trainer_config, put_dense_dataset,
    put_logistic_provenance, put_model, put_trainer_config, SnapshotReader, SnapshotWriter,
};
use crate::trainer::logistic::{
    binary_logistic_step, multinomial_logistic_step, train_binary_logistic_with,
    train_multinomial_logistic_with,
};
use crate::update::priu_logistic::priu_update_logistic_with;
use crate::update::priu_opt_logistic::priu_opt_update_logistic_with;
use crate::update::{drop_positions, normalize_removed};
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
        let num_removed = normalize_removed(e.num_samples(), removed)?.len();
        match method {
            Method::Priu => e.timed_replay(method, num_removed, num_removed, |ws| {
                priu_update_logistic_with(&e.dataset, &e.provenance, removed, ws)
            }),
            Method::PriuOpt => {
                if e.provenance.opt.is_none() {
                    return Err(CoreError::UnsupportedMethod {
                        method: method.name(),
                        reason: "the PrIU-opt capture was not materialised for this session",
                    });
                }
                e.timed_replay(method, num_removed, num_removed, |ws| {
                    priu_opt_update_logistic_with(&e.dataset, &e.provenance, removed, ws)
                })
            }
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
