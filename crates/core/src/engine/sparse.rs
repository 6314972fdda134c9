//! The sparse binary logistic-regression family (§5.3). The sparse path
//! caches no Gram forms (their truncated factors would be dense): a cache
//! is one iteration's `(a, b')` linearisation coefficients in batch order,
//! so dropping a removed sample drops its entry, and the successor keeps no
//! extra captures.

use std::time::{Duration, Instant};

use priu_data::dataset::SparseDataset;
use priu_linalg::Vector;

use crate::config::TrainerConfig;
use crate::engine::{
    DeletionEngine, Engine, Family, Method, Session, SparseLogisticEngine, UpdateOutcome,
};
use crate::error::{CoreError, Result};
use crate::snapshot::{
    get_model, get_sparse_dataset, get_sparse_provenance, get_trainer_config, put_model,
    put_sparse_dataset, put_sparse_provenance, put_trainer_config, SnapshotReader, SnapshotWriter,
};
use crate::trainer::sparse::{
    sparse_logistic_step, train_sparse_binary_logistic, SparseLogisticProvenance,
};
use crate::update::sparse_logistic::priu_update_sparse_logistic_with;
use crate::update::{drop_positions, normalize_removed};
use crate::workspace::Workspace;

/// One iteration's `(a, b')` coefficients, in batch order.
type Coefficients = Vec<(f64, f64)>;

/// The sparse logistic-regression family marker of
/// [`SparseLogisticEngine`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SparseLogistic;

impl SparseLogisticEngine {
    /// Serializes the whole engine state bit-exactly (durability snapshots).
    pub fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        put_sparse_dataset(w, &self.dataset);
        put_trainer_config(w, &self.config);
        put_model(w, &self.model);
        put_sparse_provenance(w, &self.provenance);
        w.u64(self.training_time.as_nanos() as u64);
    }

    /// Rebuilds an engine from [`SparseLogisticEngine::encode_snapshot`]
    /// bytes.
    ///
    /// # Errors
    /// Returns [`CoreError::Snapshot`] on truncated or corrupt input.
    pub fn decode_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self> {
        Ok(Self {
            dataset: get_sparse_dataset(r, "sparse dataset")?,
            config: get_trainer_config(r, "sparse config")?,
            model: get_model(r, "sparse model")?,
            provenance: get_sparse_provenance(r, "sparse provenance")?,
            family: SparseLogistic,
            training_time: Duration::from_nanos(r.u64("sparse training time")?),
        })
    }
}

impl Family for SparseLogistic {
    type Data = SparseDataset;
    type Cache = Coefficients;
    type Provenance = SparseLogisticProvenance;
    const SESSION: &'static str = "sparse logistic";
    const LABELS: &'static str =
        "binary (+1/-1) labels for rows added to a sparse logistic session";

    fn fit(self, dataset: SparseDataset, config: TrainerConfig) -> Result<SparseLogisticEngine> {
        let start = Instant::now();
        let trained = train_sparse_binary_logistic(&dataset, &config)?;
        Ok(Engine {
            dataset,
            config,
            model: trained.model,
            provenance: trained.provenance,
            family: self,
            training_time: start.elapsed(),
        })
    }

    fn supported_methods(_: &SparseLogisticEngine) -> Vec<Method> {
        vec![Method::Retrain, Method::Priu]
    }

    fn update(
        e: &SparseLogisticEngine,
        method: Method,
        removed: &[usize],
        _added: Option<&SparseDataset>,
    ) -> Result<UpdateOutcome> {
        let num_removed = normalize_removed(e.num_samples(), removed)?.len();
        // The workspace stays batch-sized: the CSR kernels never stage the
        // removed rows densely.
        match method {
            Method::Priu => e.timed_replay(method, num_removed, 0, |ws| {
                priu_update_sparse_logistic_with(&e.dataset, &e.provenance, removed, ws)
            }),
            _ => Err(CoreError::UnsupportedMethod {
                method: method.name(),
                reason: "the sparse path captures linearisation coefficients only (§5.3); \
                         it supports PrIU and retraining",
            }),
        }
    }

    fn propagate(
        _: &SparseLogisticEngine,
        cache: &Coefficients,
        _batch: &[usize],
        positions: &[usize],
    ) -> Result<Coefficients> {
        Ok(drop_positions(cache, positions))
    }

    fn step(
        e: &SparseLogisticEngine,
        rows: &SparseDataset,
        weights: &mut [Vector],
        capture: bool,
        ws: &mut Workspace,
    ) -> Result<Option<Coefficients>> {
        let y = rows
            .labels
            .as_binary()
            .expect("sparse rows carry binary labels");
        let p = &e.provenance;
        let interp = &e.config.interpolation;
        sparse_logistic_step(
            &rows.x,
            y,
            &mut weights[0],
            p.learning_rate,
            p.regularization,
            interp,
            capture,
            ws,
        )
    }

    fn into_session(e: SparseLogisticEngine) -> Session {
        Session::SparseLogistic(e)
    }
}
