//! The sparse binary logistic-regression family (§5.3). The sparse path
//! caches no Gram forms (their truncated factors would be dense): a cache
//! is one iteration's `(a, b')` linearisation coefficients in batch order,
//! so one PrIU iteration re-applies the linearised update rule (Eq. 11)
//! over the surviving CSR rows, dropping a removed sample drops its entry,
//! and the successor keeps no extra captures.

use std::time::{Duration, Instant};

use priu_data::dataset::SparseDataset;
use priu_linalg::Vector;

use crate::config::TrainerConfig;
use crate::engine::{Engine, Family, Method, Session, SparseLogisticEngine, UpdateOutcome};
use crate::error::{CoreError, Result};
use crate::snapshot::{
    get_model, get_sparse_dataset, get_sparse_provenance, get_trainer_config, put_model,
    put_sparse_dataset, put_sparse_provenance, put_trainer_config, SnapshotReader, SnapshotWriter,
};
use crate::trainer::sparse::{
    sparse_logistic_step, train_sparse_binary_logistic, SparseLogisticProvenance,
};
use crate::update::drop_positions;
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
        _: &SparseLogisticEngine,
        method: Method,
        _removed: &[usize],
        _added: Option<&SparseDataset>,
    ) -> Result<UpdateOutcome> {
        Err(CoreError::UnsupportedMethod {
            method: method.name(),
            reason: "the sparse path captures linearisation coefficients only (§5.3); \
                     it supports PrIU and retraining",
        })
    }

    /// For sparse feature matrices the truncated-SVD caches of the dense
    /// path would densify the intermediates, so PrIU only reuses the
    /// linearisation coefficients captured during training and re-applies
    /// the update rule (Eq. 11) over the surviving CSR rows. The cost per
    /// iteration is `O(nnz(B_U^{(t)}))` — essentially the retraining cost
    /// minus the non-linear evaluations, hence the paper's ~10% speed-up.
    fn priu_step(
        e: &SparseLogisticEngine,
        coeffs: &Coefficients,
        weights: &mut [Vector],
        b_u: usize,
        ws: &mut Workspace,
    ) -> Result<()> {
        let (eta, lambda) = (e.provenance.learning_rate, e.provenance.regularization);
        let w = &mut weights[0];
        ws.prepare_features(e.dataset.num_features());
        ws.prepare_sparse_batch(ws.batch.len());
        let Workspace {
            batch,
            positions,
            sel,
            b0: dots,
            b1: slopes,
            b2: intercepts,
            m0: acc,
            ..
        } = ws;
        // Compact the survivors: row indices into `sel`, their captured
        // (a, b') linearisation coefficients into parallel buffers.
        sel.clear();
        let mut next_removed = positions.iter().copied().peekable();
        for (pos, &i) in batch.iter().enumerate() {
            if next_removed.peek() == Some(&pos) {
                next_removed.next();
                continue;
            }
            let (a, b_prime) = coeffs[pos];
            slopes[sel.len()] = a;
            intercepts[sel.len()] = b_prime;
            sel.push(i);
        }
        // Gather phase: all survivor margins xᵀw in one parallel kernel.
        let dots = &mut dots[..sel.len()];
        e.dataset.x.rows_dot_into(sel, w, dots)?;
        // Contribution a·x (xᵀw) + b'·x collapses to a single scatter
        // weight per survivor...
        for (k, dot) in dots.iter().enumerate() {
            slopes[k] = slopes[k] * dot + intercepts[k];
        }
        // ...applied as one chunk-ordered deterministic reduction.
        e.dataset
            .x
            .scatter_rows_into(sel, &slopes[..sel.len()], acc)?;
        // Fused parameter step (bitwise identical to scale_mut + axpy on
        // every SIMD level) — keeps the replay in lock-step with the
        // trainer's fused step.
        w.scale_add(1.0 - eta * lambda, eta / b_u as f64, acc)?;
        Ok(())
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
