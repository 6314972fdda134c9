//! The delta service: session registry + planner + scheduler wired to
//! one applier thread, with an optional wire front-end.
//!
//! # Threads
//!
//! * **Callers** (any number) predict synchronously on immutable
//!   snapshots and enqueue change requests — deletions, additions,
//!   sliding-window ticks — receiving a [`DeleteTicket`].
//! * The **applier thread** sleeps on the planner condvar until a request
//!   is admitted (or a window deadline, flush or shutdown poke), takes
//!   every ready batch (under the default zero window, everything that
//!   queued since its last look, up to `max_batch` per session), and
//!   applies them in one pass: it resolves and WAL-appends every batch
//!   serially, fsyncs once, then fans the engine calls, acks and commits
//!   out per session over the shared worker pool via [`par::run_tasks`]:
//!   a batch is acked once its model is staged and published, and its
//!   successor session is built and committed after the ack. It is the
//!   only writer of slot state (see `apply_pass`).
//! * **Connections** ([`Server::serve_connection`]) each get a dedicated
//!   protocol reader thread plus a responder thread that resolves
//!   change tickets in admission order.
//!
//! # Determinism
//!
//! A coalesced batch commits exactly the session produced by **one**
//! [`DeletionEngine::apply_delta`] call with the union delta (staged
//! before the ack and finished after it: the same call, split in two) — removal
//! union over stable ids (plus any sliding-window expiry), additions in
//! FIFO admission order — the same call a direct engine user would make
//! with the folded [`Delta`]. Server results are therefore
//! bitwise-identical to engine results under the same `PRIU_THREADS` ×
//! `PRIU_SIMD` pin. [`ServerConfig::apply_threads`] /
//! [`ServerConfig::simd_level`] pin both on the applier thread
//! regardless of which thread admitted the requests.
//!
//! # Sliding-window retention (`Tick`)
//!
//! A tick batch resolves its retention bound at apply time against the
//! pre-batch id list: after the batch's deletions and additions, if more
//! than `keep_last` rows would remain, the **oldest pre-existing** rows
//! (lowest stable ids) are expired — never rows the same batch appends —
//! clamped so at least one pre-existing row survives. Expired rows ride
//! the same union delta, so a tick is still one engine call.
//!
//! [`DeletionEngine::apply_delta`]: priu_core::DeletionEngine::apply_delta

use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use priu_core::{DeletionEngine, Delta, DeltaRows, Method, Model, ModelKind, Session, TaskKind};
use priu_data::dataset::{DenseDataset, Labels};
use priu_linalg::par;
use priu_linalg::simd::{self, SimdLevel};
use priu_linalg::{Matrix, Vector};

use crate::error::{Result, ServerError};
use crate::failpoint::fail_point;
use crate::planner::{
    AddedRows, BatchReply, DeleteTicket, PlannerConfig, PlannerState, ReadyBatch,
};
use crate::protocol::{
    decode_request, encode_response, spawn_frame_reader, write_frame, RecoverySessionStatus,
    Request, Response, ResponseEnvelope,
};
use crate::recovery::{recover, RecoveryReport};
use crate::registry::{Resolution, SessionRegistry, SessionSlot};
use crate::scheduler::{CostModel, SchedulerConfig};
use crate::snapshot::{SnapshotJob, SnapshotService};
use crate::wal::{GroupCommitConfig, GroupWal, WalRecord, WalStats};

/// Durability configuration: where the WAL and snapshots live, and how
/// often snapshots are cut.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding `deltas.wal` and `snapshots/`. Created on start.
    pub dir: PathBuf,
    /// Write a session snapshot every this many committed batches (a
    /// baseline snapshot is always written at registration). Bounds the
    /// WAL suffix redo to at most `snapshot_every - 1` records per
    /// session.
    pub snapshot_every: u64,
    /// Group-commit tuning: how many WAL frames one fsync may cover. An
    /// applier pass normally shares one fsync across every batch it
    /// appends; `max_group: 1` makes every append fsync on its own.
    pub group: GroupCommitConfig,
    /// WAL compaction threshold: after each background snapshot lands,
    /// the log is checkpointed (rewritten down to the snapshot coverage
    /// frontier) once it holds at least this many bytes of delta frames
    /// not yet compacted away. Bounds log size for long-lived servers.
    pub checkpoint_bytes: u64,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with the default snapshot cadence (8),
    /// default group commit, and a 1 MiB checkpoint threshold.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            snapshot_every: 8,
            group: GroupCommitConfig::default(),
            checkpoint_bytes: 1 << 20,
        }
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Admission + coalescing planner configuration.
    pub planner: PlannerConfig,
    /// Cost-model scheduler configuration.
    pub scheduler: SchedulerConfig,
    /// Pins the worker-thread count for every batch apply (`None`
    /// inherits `PRIU_THREADS` / the machine default).
    pub apply_threads: Option<usize>,
    /// Pins the SIMD kernel level for every batch apply (`None` inherits
    /// `PRIU_SIMD` / runtime detection).
    pub simd_level: Option<SimdLevel>,
    /// Durable WAL + snapshots. `None` keeps the pre-durability behaviour
    /// (everything in memory, nothing survives a restart).
    pub durability: Option<DurabilityConfig>,
}

/// One prediction from one immutable snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Regression value, binary decision value, or the winning logit.
    pub value: f64,
    /// Predicted class for classifiers, `None` for regression.
    pub class: Option<usize>,
    /// Epoch of the snapshot that produced the prediction.
    pub epoch: u64,
}

/// Bookkeeping for one session.
#[derive(Debug, Clone)]
pub struct SessionStats {
    /// Batches committed so far.
    pub epoch: u64,
    /// Surviving sample count.
    pub num_samples: usize,
    /// Feature count.
    pub num_features: usize,
    /// Rows removed incrementally since the last refit, over
    /// registration-time rows.
    pub drift: f64,
    /// Deletion requests pending in the planner.
    pub pending: usize,
    /// Scheduler decision histogram, [`Method::ALL`] order.
    pub decisions: Vec<(Method, u64)>,
}

/// The live durability state: the group-commit WAL plus the background
/// snapshot service. The applier appends every frame from one thread,
/// which assigns the global LSN order, and fsyncs once per pass.
struct Durability {
    snapshot_every: u64,
    wal: Arc<GroupWal>,
    snapshots: Arc<SnapshotService>,
}

struct Inner {
    registry: SessionRegistry,
    cfg: ServerConfig,
    planner: Mutex<PlannerState>,
    /// Pokes the applier: new admission, flush, or shutdown.
    work: Condvar,
    /// Per-session cost models (per-session mutexes so fanned-out batches
    /// never contend on one model).
    cost: Mutex<HashMap<String, Arc<Mutex<CostModel>>>>,
    /// WAL + snapshots, when configured.
    durability: Option<Durability>,
    /// What restart recovery found and redid (durable servers only).
    recovery: Option<RecoveryReport>,
    shutdown: AtomicBool,
}

impl Inner {
    fn planner(&self) -> MutexGuard<'_, PlannerState> {
        self.planner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn cost_model(&self, session: &str) -> Option<Arc<Mutex<CostModel>>> {
        self.cost
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(session)
            .cloned()
    }

    fn predict(&self, session: &str, features: &[f64]) -> Result<Prediction> {
        let slot = self.registry.get(session)?;
        let (model, epoch) = slot.served();
        if features.len() != model.num_features() {
            return Err(ServerError::FeatureMismatch {
                expected: model.num_features(),
                got: features.len(),
            });
        }
        check_finite("feature", features)?;
        Ok(predict_on(&model, features, epoch))
    }

    fn delete(&self, session: &str, ids: Vec<u64>) -> Result<DeleteTicket> {
        self.change(session, ids, None, None)
    }

    /// Admits a general change request — deletions, appended rows, and/or
    /// a retention window. Appended rows are validated here, against the
    /// session's current snapshot, so one malformed add never fails a
    /// whole coalesced batch.
    fn change(
        &self,
        session: &str,
        ids: Vec<u64>,
        added: Option<AddedRows>,
        keep_last: Option<u64>,
    ) -> Result<DeleteTicket> {
        if self.shutdown.load(Ordering::Acquire) {
            return Err(ServerError::ShuttingDown);
        }
        let slot = self.registry.get(session)?; // admission check: session must exist
        if let Some(rows) = &added {
            let (snapshot, _) = slot.snapshot();
            validate_added_rows(&snapshot, rows)?;
        }
        let ticket = self.planner().enqueue_change(
            session,
            ids,
            added.filter(|r| r.num_rows() > 0),
            keep_last,
        );
        self.work.notify_all();
        Ok(ticket)
    }

    fn flush(&self, session: &str) -> Result<()> {
        self.registry.get(session)?;
        self.planner().flush(session);
        self.work.notify_all();
        Ok(())
    }

    fn stats(&self, session: &str) -> Result<SessionStats> {
        let slot = self.registry.get(session)?;
        // One settled read: epoch, sample count and drift all come from
        // the same commit, and none trails an ack already sent.
        let (epoch, num_samples, num_features, drift) = slot.settled(|state| {
            (
                state.epoch,
                state.session.num_samples(),
                state.session.model().num_features(),
                state.drift_after(0),
            )
        });
        let decisions = self
            .cost_model(session)
            .map(|m| m.lock().unwrap_or_else(PoisonError::into_inner).decisions())
            .unwrap_or_default();
        Ok(SessionStats {
            epoch,
            num_samples,
            num_features,
            drift,
            pending: self.planner().pending(session),
            decisions,
        })
    }
}

/// Computes a prediction on a model snapshot (lock-free: the snapshot is
/// immutable).
fn predict_on(model: &Model, features: &[f64], epoch: u64) -> Prediction {
    match model.kind() {
        ModelKind::Linear => Prediction {
            value: model.predict_linear(features),
            class: None,
            epoch,
        },
        ModelKind::BinaryLogistic => Prediction {
            value: model.decision_value(features),
            class: Some(model.predict_class(features)),
            epoch,
        },
        ModelKind::MultinomialLogistic { .. } => {
            let class = model.predict_class(features);
            Prediction {
                value: model.logits(features)[class],
                class: Some(class),
                epoch,
            }
        }
    }
}

/// Rejects NaN and infinite values: one would poison every model it
/// reached, and the WAL would replay the poison on every restart.
fn check_finite(what: &str, values: &[f64]) -> Result<()> {
    match values.iter().find(|v| !v.is_finite()) {
        Some(bad) => Err(ServerError::InvalidRows(format!(
            "{what} {bad} is not finite"
        ))),
        None => Ok(()),
    }
}

/// Admission-time validation of appended rows against the session they
/// target: shape, feature width, finiteness, and label kind/range.
/// Rejecting here keeps a malformed add from failing the coalesced batch
/// it would have been folded into, and keeps it out of the WAL.
fn validate_added_rows(session: &Session, rows: &AddedRows) -> Result<()> {
    if rows.features.len() != rows.num_features * rows.labels.len() {
        return Err(ServerError::InvalidRows(format!(
            "{} features do not fill {} rows of width {}",
            rows.features.len(),
            rows.labels.len(),
            rows.num_features
        )));
    }
    if rows.num_rows() == 0 {
        return Ok(());
    }
    if session.dense_dataset().is_none() {
        return Err(ServerError::InvalidRows(
            "appended rows are dense but the session is sparse".to_string(),
        ));
    }
    let expected = session.model().num_features();
    if rows.num_features != expected {
        return Err(ServerError::FeatureMismatch {
            expected,
            got: rows.num_features,
        });
    }
    check_finite("feature", &rows.features)?;
    match session.task() {
        TaskKind::Regression => check_finite("label", &rows.labels)?,
        // NaN and ±inf fail both class-domain checks below.
        TaskKind::BinaryClassification => {
            if let Some(&bad) = rows.labels.iter().find(|&&l| l != 1.0 && l != -1.0) {
                return Err(ServerError::InvalidRows(format!(
                    "binary label {bad} is not ±1"
                )));
            }
        }
        TaskKind::MulticlassClassification { num_classes } => {
            if let Some(&bad) = rows
                .labels
                .iter()
                .find(|&&l| l.fract() != 0.0 || l < 0.0 || l >= num_classes as f64)
            {
                return Err(ServerError::InvalidRows(format!(
                    "class label {bad} is not an integer in 0..{num_classes}"
                )));
            }
        }
    }
    Ok(())
}

/// Concatenates a batch's appended rows in FIFO admission order:
/// `(width, features, labels)`. `None` when the batch appends nothing.
/// This flat form is exactly what the WAL records — redo rebuilds the
/// same dense block through [`dense_added`], so live and recovered
/// appends are bit-identical.
fn concat_added(batch: &ReadyBatch) -> Option<(usize, Vec<f64>, Vec<f64>)> {
    let mut width = 0;
    let mut features = Vec::new();
    let mut labels = Vec::new();
    for request in &batch.requests {
        if let Some(rows) = request.added.as_ref().filter(|r| r.num_rows() > 0) {
            width = rows.num_features;
            features.extend_from_slice(&rows.features);
            labels.extend_from_slice(&rows.labels);
        }
    }
    if labels.is_empty() {
        return None;
    }
    Some((width, features, labels))
}

/// Builds the dense appended block with task-appropriate labels — shared
/// by the live batch path and WAL redo. Shapes were validated at
/// admission (and ride the WAL verbatim).
pub(crate) fn dense_added(
    task: TaskKind,
    width: usize,
    features: Vec<f64>,
    labels: Vec<f64>,
) -> DenseDataset {
    let x = Matrix::from_vec(labels.len(), width, features).expect("shapes validated at admission");
    let labels = match task {
        TaskKind::Regression => Labels::Continuous(Vector::from_vec(labels)),
        TaskKind::BinaryClassification => Labels::Binary(Vector::from_vec(labels)),
        TaskKind::MulticlassClassification { num_classes } => Labels::Multiclass {
            classes: labels.into_iter().map(|l| l as u32).collect(),
            num_classes,
        },
    };
    DenseDataset::new(x, labels)
}

/// Runs `f` with the configured worker-thread count and SIMD level pinned
/// (both thread-local, so the pin travels with the applier regardless of
/// which thread admitted the work). Recovery redo runs under the same
/// pin, which is what keeps replayed results bitwise identical.
pub(crate) fn run_pinned<R>(cfg: &ServerConfig, f: impl FnOnce() -> R) -> R {
    match (cfg.apply_threads, cfg.simd_level) {
        (Some(t), Some(l)) => par::with_threads(t, || simd::with_level(l, f)),
        (Some(t), None) => par::with_threads(t, f),
        (None, Some(l)) => simd::with_level(l, f),
        (None, None) => f(),
    }
}

/// One resolved batch, as phase 3 needs it.
enum Step {
    /// The batch changes nothing (every id already gone, nothing
    /// appended, no retention bite) — acknowledged after the pass fsync
    /// like every other batch of the pass.
    Noop {
        /// Epoch to report: the session's committed epoch.
        epoch: u64,
        /// Per request `(requested, applied = 0 by definition)`.
        acks: Vec<(usize, usize)>,
    },
    /// A real delta to apply and commit.
    Apply {
        /// Removal row indices into the committed state, ascending.
        rows: Vec<usize>,
        /// Appended rows, flat `(width, features, labels)`.
        added: Option<(usize, Vec<f64>, Vec<f64>)>,
        /// The method the cost model chose at resolve time.
        method: Method,
        /// Retention-expired row count (already folded into `rows`).
        expired: usize,
        /// The LSN the batch's WAL record got, if durable.
        wal_lsn: Option<u64>,
        /// Per request `(requested, applied)` against the committed state.
        acks: Vec<(usize, usize)>,
    },
}

/// One session's batch of a pass and what phase 1 resolved for it.
struct BatchPlan {
    batch: ReadyBatch,
    slot: Arc<SessionSlot>,
    cost: Option<Arc<Mutex<CostModel>>>,
    step: Step,
}

fn fail_batch(batch: &ReadyBatch, message: &str) {
    for request in &batch.requests {
        let _ = request
            .reply
            .send(Err(ServerError::BatchFailed(message.to_string())));
    }
}

/// Applies every batch one planner pass made ready — at most one per
/// session (`take_ready` folds each ready queue into one batch). The pass
/// moves the durability boundary once for all of them:
///
/// 1. **Resolve + append**, serially, batch by batch. Each batch is
///    resolved against its session's committed state: the previous pass
///    committed every batch it took before this pass began. The cost
///    model decides the method and the batch's WAL frame is appended
///    (unsynced).
/// 2. **One fsync** ([`GroupWal::sync_through`]) covers every frame the
///    pass appended, across all sessions.
/// 3. **Stage + publish + ack + finish + commit** fan out per session
///    over the worker pool: the staged engine update (every error
///    surfaces here), the post-batch model published to predicts, the
///    replies, the successor build, the slot commit, the periodic
///    snapshot handoff, the cost-model observation. The pass ends only
///    once every session committed.
///
/// Per batch the durability contract is unchanged — resolve → decide →
/// append → fsync → stage → ack, so nothing is acked before it is
/// durable — but a pass pays one fsync instead of one per batch, and an
/// ack waits for the update, not for the successor session only the
/// next batch needs. The applier is the only writer of slot state, and
/// a pass commits each session from one task, so no per-slot lock is
/// held across the engine call. If an append or the fsync fails,
/// nothing in the pass applies or acks. A batch whose stage fails leaves
/// its session's committed state untouched, and recovery skips its WAL
/// record the same way.
fn apply_pass(inner: &Inner, ready: Vec<ReadyBatch>) {
    // --- Phase 1: resolve + append, serially ----------------------------
    let mut plans = Vec::with_capacity(ready.len());
    let mut last_seq = None;
    let mut broken: Option<String> = None;
    for batch in ready {
        let slot = match inner.registry.get(&batch.session) {
            Ok(slot) => slot,
            Err(err) => {
                // Session dropped between admission and batching.
                fail_batch(&batch, &err.to_string());
                continue;
            }
        };
        if let Some(message) = &broken {
            fail_batch(&batch, message);
            continue;
        }
        let cost = inner.cost_model(&batch.session);
        match resolve_batch(inner, &batch, &slot, cost.as_ref(), &mut last_seq) {
            Ok(step) => plans.push(BatchPlan {
                batch,
                slot,
                cost,
                step,
            }),
            Err(err) => {
                // The log is broken: earlier appends can never fsync.
                let message = format!("durability failure: {err}");
                fail_batch(&batch, &message);
                broken = Some(message);
            }
        }
    }

    // --- Phase 2: one fsync for the whole pass --------------------------
    if broken.is_none() {
        if let (Some(durability), Some(seq)) = (&inner.durability, last_seq) {
            if let Err(err) = durability.wal.sync_through(seq) {
                broken = Some(format!("durability failure: {err}"));
            }
        }
    }
    if let Some(message) = broken {
        // Nothing was acknowledged; every session state is untouched.
        for plan in &plans {
            fail_batch(&plan.batch, &message);
        }
        return;
    }

    // --- Phase 3: stage, ack, finish, commit, fanned out per session ----
    // A single batch runs inline on the applier, free to use the pool.
    par::run_tasks(
        plans
            .into_iter()
            .map(|plan| move || commit_batch(inner, plan))
            .collect(),
    );
}

/// Phase 1 for one batch: resolves it against the slot's committed
/// state, decides its method and appends its WAL frame.
///
/// # Errors
/// The WAL append failure; the log is broken from then on.
fn resolve_batch(
    inner: &Inner,
    batch: &ReadyBatch,
    slot: &SessionSlot,
    cost: Option<&Arc<Mutex<CostModel>>>,
    last_seq: &mut Option<u64>,
) -> Result<Step> {
    let state = slot.state();
    let Resolution {
        rows,
        expired,
        acks,
    } = state.resolve(batch);
    let num_added = batch.num_added();
    if rows.is_empty() && num_added == 0 {
        return Ok(Step::Noop {
            epoch: state.epoch,
            acks,
        });
    }
    let method = match cost {
        Some(model) => model
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .decide_delta(
                &state.session.capture_snapshot(),
                rows.len(),
                num_added,
                state.drift_after(rows.len()),
            ),
        None => Method::Retrain,
    };
    let added = concat_added(batch);

    // Durability boundary: the resolved removal set (stable ids after
    // retention expiry) and the chosen method — both timing-dependent and
    // hence recorded rather than re-derived — go to the WAL now; the pass
    // fsync follows in phase 2, before anything applies or acks.
    let mut wal_lsn = None;
    if let Some(durability) = &inner.durability {
        let mut record = WalRecord {
            lsn: 0,
            prev_lsn: None,
            session: batch.session.clone(),
            method,
            removed_ids: rows.iter().map(|&ix| state.ids[ix]).collect(),
            keep_last: batch.keep_last,
            added: added.clone(),
        };
        *last_seq = Some(durability.wal.append(&mut record)?);
        wal_lsn = Some(record.lsn);
    }
    Ok(Step::Apply {
        rows,
        added,
        method,
        expired,
        wal_lsn,
        acks,
    })
}

/// Phase 3 for one batch, after the pass fsync made it durable: stage the
/// delta on the committed session, publish the staged model to predicts,
/// ack, finish the successor, commit. A crash between the ack and the
/// commit recovers the acked batch from its WAL record.
fn commit_batch(inner: &Inner, plan: BatchPlan) {
    let BatchPlan {
        batch,
        slot,
        cost,
        step,
    } = plan;
    match step {
        Step::Noop { epoch, acks } => {
            for (request, (requested, _)) in batch.requests.iter().zip(acks) {
                let _ = request.reply.send(Ok(BatchReply {
                    requested,
                    applied: 0,
                    stale: requested,
                    added: 0,
                    expired: 0,
                    batch_rows: 0,
                    method: None,
                    seconds: 0.0,
                    epoch,
                }));
            }
        }
        Step::Apply {
            rows,
            added,
            method,
            expired,
            wal_lsn,
            acks,
        } => {
            // The live pre-batch state: this task is the slot's only
            // writer.
            let session = slot.snapshot().0;
            let num_added = batch.num_added();
            // The one engine call the batch reduces to: the union delta,
            // additions concatenated in FIFO admission order.
            let delta = Delta {
                removed: rows,
                added: added
                    .map(|(width, features, labels)| {
                        dense_added(session.task(), width, features, labels)
                    })
                    .map(DeltaRows::Dense),
            };
            // Stage: the update, the touched caches and the appended
            // steps. Every error the batch can hit surfaces here, before
            // anything is published.
            let staged = match run_pinned(&inner.cfg, || session.stage_delta(method, &delta)) {
                Ok(staged) => staged,
                Err(err) => {
                    // The pre-batch state stays committed.
                    fail_batch(
                        &batch,
                        &format!(
                            "{method:?} removing {} and adding {num_added} rows: {err}",
                            delta.removed.len()
                        ),
                    );
                    return;
                }
            };
            let seconds = staged.outcome().duration.as_secs_f64();
            // Publish, then ack: the batch is durable (the pass fsync) and
            // its model final, so predicts serve it from here on, at the
            // epoch its commit will reach.
            let pending = slot.publish(staged.outcome().model.clone());
            let epoch = pending.epoch();
            fail_point("before-ack");
            for (request, (requested, applied)) in batch.requests.iter().zip(acks) {
                let _ = request.reply.send(Ok(BatchReply {
                    requested,
                    applied,
                    stale: requested - applied,
                    added: request.num_added(),
                    expired,
                    batch_rows: delta.removed.len(),
                    method: Some(method),
                    seconds,
                    epoch,
                }));
            }
            fail_point("after-ack");
            // Finish: the successor session only the next batch needs —
            // carried caches, capture refresh, dataset — built after the
            // ack. It cannot fail.
            let successor = run_pinned(&inner.cfg, || staged.finish());
            // A retrain's successor carries the measured offline phase of
            // its refit (training + provenance capture) — feed it to the
            // flat retrain term so scheduling tracks the real eigensolver.
            let refit = method == Method::Retrain;
            let refit_offline =
                refit.then(|| successor.session.capture_snapshot().training_seconds);
            fail_point("apply-before-commit");
            pending.commit(
                Arc::new(successor.session),
                &delta.removed,
                num_added,
                refit,
            );
            // Periodic snapshot: a copy-on-write handoff of the committed
            // state to the snapshot thread — the Arc-swap commit already
            // produced an immutable post-batch model, so the applier only
            // enqueues and moves on. Best-effort: the WAL already makes
            // the batch durable, a failed snapshot only lengthens the next
            // redo.
            if let (Some(durability), Some(lsn)) = (&inner.durability, wal_lsn) {
                if epoch.is_multiple_of(durability.snapshot_every) {
                    fail_point("snapshot-handoff");
                    let session_name = &batch.session;
                    let job = SnapshotJob {
                        session: session_name.clone(),
                        covered_lsn: lsn + 1,
                        state: slot.state(),
                        reply: None,
                    };
                    if let Err(err) = durability.snapshots.enqueue(job) {
                        eprintln!("scheduling snapshot of {session_name} at epoch {epoch}: {err}");
                    }
                }
            }
            if let Some(model) = &cost {
                let mut model = model.lock().unwrap_or_else(PoisonError::into_inner);
                model.observe_delta(
                    method,
                    delta.removed.len(),
                    num_added,
                    session.num_samples(),
                    seconds,
                );
                if let Some(offline) = refit_offline {
                    model.observe_offline(offline);
                }
            }
        }
    }
}

fn applier_loop(inner: &Inner) {
    loop {
        let ready: Vec<ReadyBatch> = {
            let mut planner = inner.planner();
            loop {
                // Read once per pass, under the planner lock `shutdown`
                // stores it under: a drain decision always follows a flush
                // of the same reading, and a store cannot slip in between
                // this check and the wait below.
                let shutting_down = inner.shutdown.load(Ordering::Acquire);
                if shutting_down {
                    planner.flush_all();
                }
                let ready = planner.take_ready(Instant::now(), &inner.cfg.planner);
                if !ready.is_empty() {
                    break ready;
                }
                if shutting_down {
                    return; // drained
                }
                let wait = match planner.next_deadline(&inner.cfg.planner) {
                    Some(deadline) => {
                        let until = deadline.saturating_duration_since(Instant::now());
                        if until.is_zero() {
                            continue; // deadline passed while we were busy
                        }
                        until
                    }
                    // Idle: sleep until poked (bounded, defensively).
                    None => Duration::from_millis(100),
                };
                planner = inner
                    .work
                    .wait_timeout(planner, wait)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        // Planner lock released: applying never blocks admission.
        apply_pass(inner, ready);
    }
}

/// The deletion service. See the module docs for the thread model.
pub struct Server {
    inner: Arc<Inner>,
    applier: Mutex<Option<JoinHandle<()>>>,
}

impl Server {
    /// Starts a server (one applier thread) with the given configuration.
    /// When durability is configured, starting **is** recovering: the
    /// durability directory's snapshots are loaded, the WAL suffix is
    /// redone through the normal `apply_delta` path under the configured
    /// thread/SIMD pin, and every previously registered session comes
    /// back bitwise identical to its last acknowledged state
    /// ([`Server::recovery_report`] says what happened).
    ///
    /// # Errors
    /// [`ServerError::Durability`] on genuine I/O failure in the
    /// durability directory. Corrupt WAL tails or snapshot files are
    /// *not* errors — they are skipped and reported. A server without
    /// durability never fails to start.
    pub fn start(cfg: ServerConfig) -> Result<Self> {
        let mut durability = None;
        let mut recovery = None;
        let mut restored = Vec::new();
        if let Some(dur_cfg) = &cfg.durability {
            let recovered = recover(&cfg, &dur_cfg.dir)?;
            restored = recovered.sessions;
            recovery = Some(recovered.report);
            let wal = Arc::new(GroupWal::new(recovered.wal, dur_cfg.group));
            let snapshots = SnapshotService::start(
                dur_cfg.dir.clone(),
                Arc::clone(&wal),
                dur_cfg.checkpoint_bytes.max(1),
            );
            durability = Some(Durability {
                snapshot_every: dur_cfg.snapshot_every.max(1),
                wal,
                snapshots,
            });
        }
        let scheduler = cfg.scheduler;
        let inner = Arc::new(Inner {
            registry: SessionRegistry::new(),
            cfg,
            planner: Mutex::new(PlannerState::default()),
            work: Condvar::new(),
            cost: Mutex::new(HashMap::new()),
            durability,
            recovery,
            shutdown: AtomicBool::new(false),
        });
        for (name, state) in restored {
            inner.registry.register_state(&name, state)?;
            inner
                .cost
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(name, Arc::new(Mutex::new(CostModel::new(scheduler))));
        }
        let applier = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("priu-server-applier".to_string())
                .spawn(move || applier_loop(&inner))
                .expect("spawn applier thread")
        };
        Ok(Self {
            inner,
            applier: Mutex::new(Some(applier)),
        })
    }

    /// What restart recovery loaded, redid, and skipped. `None` on a
    /// server without durability.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.inner.recovery.as_ref()
    }

    /// Registers a fitted session under `name`; its rows get stable ids
    /// `0..n`. On a durable server this also writes the session's
    /// baseline snapshot (covering the current WAL position) so every
    /// later WAL record has a redo base — the registration is not
    /// acknowledged until the snapshot is on disk.
    ///
    /// # Errors
    /// [`ServerError::SessionExists`], [`ServerError::ShuttingDown`],
    /// [`ServerError::Durability`] if the baseline snapshot cannot be
    /// written (the session is not registered in that case).
    pub fn register_session(&self, name: &str, session: Session) -> Result<()> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(ServerError::ShuttingDown);
        }
        let slot = self.inner.registry.register(name, session)?;
        if let Some(durability) = &self.inner.durability {
            // The covered LSN is read under the WAL lock so no batch can
            // sneak a record for this session below it (it can't anyway —
            // the session just appeared — but the invariant is free). The
            // baseline rides the snapshot thread like every other
            // snapshot, blocking until it is durable.
            let covered_lsn = durability.wal.next_lsn();
            let state = slot.state();
            if let Err(err) = durability
                .snapshots
                .write_baseline(name, covered_lsn, state)
            {
                let _ = self.inner.registry.remove(name);
                return Err(err);
            }
        }
        self.inner
            .cost
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(
                name.to_string(),
                Arc::new(Mutex::new(CostModel::new(self.inner.cfg.scheduler))),
            );
        Ok(())
    }

    /// Predicts on the named session's served model: the latest
    /// acknowledged batch's, whose epoch may run one ahead of the
    /// committed session. Never blocks on an in-flight batch.
    ///
    /// # Errors
    /// [`ServerError::UnknownSession`], [`ServerError::FeatureMismatch`],
    /// [`ServerError::InvalidRows`] for a non-finite feature.
    pub fn predict(&self, session: &str, features: &[f64]) -> Result<Prediction> {
        self.inner.predict(session, features)
    }

    /// Enqueues a deletion of the given stable row ids; resolves when the
    /// coalesced batch containing it is durable and its model is served
    /// to predicts (the commit follows).
    ///
    /// # Errors
    /// [`ServerError::UnknownSession`], [`ServerError::ShuttingDown`].
    pub fn delete(&self, session: &str, ids: &[u64]) -> Result<DeleteTicket> {
        self.inner.delete(session, ids.to_vec())
    }

    /// Enqueues rows to append to the named session; resolves when the
    /// coalesced batch containing it is durable and served. Appended rows
    /// get fresh stable ids, never reusing a retired id.
    ///
    /// # Errors
    /// [`ServerError::UnknownSession`], [`ServerError::ShuttingDown`],
    /// [`ServerError::InvalidRows`] / [`ServerError::FeatureMismatch`]
    /// when the rows don't fit the session.
    pub fn add(&self, session: &str, rows: AddedRows) -> Result<DeleteTicket> {
        self.inner.change(session, Vec::new(), Some(rows), None)
    }

    /// Enqueues a sliding-window tick: append `rows` (possibly none) and
    /// retain at most `keep_last` rows after the batch commits, expiring
    /// the oldest pre-existing rows first. See the module docs for the
    /// exact retention semantics.
    ///
    /// # Errors
    /// Same as [`Server::add`].
    pub fn tick(
        &self,
        session: &str,
        rows: Option<AddedRows>,
        keep_last: u64,
    ) -> Result<DeleteTicket> {
        self.inner
            .change(session, Vec::new(), rows, Some(keep_last))
    }

    /// Forces the named session's pending deletions into a batch now.
    ///
    /// # Errors
    /// [`ServerError::UnknownSession`].
    pub fn flush(&self, session: &str) -> Result<()> {
        self.inner.flush(session)
    }

    /// The named session's bookkeeping, read from one commit. Waits for a
    /// batch that was acknowledged but not yet committed.
    ///
    /// # Errors
    /// [`ServerError::UnknownSession`].
    pub fn stats(&self, session: &str) -> Result<SessionStats> {
        self.inner.stats(session)
    }

    /// The named session's committed immutable snapshot and its epoch.
    /// Waits for a batch that was acknowledged but not yet committed, so
    /// the epoch is never below an ack already sent.
    ///
    /// # Errors
    /// [`ServerError::UnknownSession`].
    pub fn model_snapshot(&self, session: &str) -> Result<(Arc<Session>, u64)> {
        let slot = self.inner.registry.get(session)?;
        Ok(slot.settled(|state| (state.session.clone(), state.epoch)))
    }

    /// Registered session names, sorted.
    pub fn session_names(&self) -> Vec<String> {
        self.inner.registry.names()
    }

    /// Serves one connection over any `Read`/`Write` transport pair (a
    /// socket, or the in-memory [`duplex`]): spawns the dedicated
    /// protocol reader thread plus a responder that resolves deletion
    /// tickets in admission order. Predict/flush/stats answer inline;
    /// responses carry the request's correlation id and may arrive out of
    /// order relative to deletions.
    ///
    /// [`duplex`]: crate::protocol::duplex
    pub fn serve_connection<R, W>(&self, reader: R, writer: W) -> ConnectionHandle
    where
        R: Read + Send + 'static,
        W: Write + Send + 'static,
    {
        let inner = Arc::clone(&self.inner);
        let handle = thread::Builder::new()
            .name("priu-server-conn".to_string())
            .spawn(move || connection_loop(&inner, reader, writer))
            .expect("spawn connection thread");
        ConnectionHandle { handle }
    }

    /// Cumulative durability counters — fsyncs, frames, bytes appended,
    /// largest group one fsync covered, checkpoints completed. `None` on
    /// a server without durability. Mean group size is
    /// `frames / fsyncs`.
    pub fn durability_stats(&self) -> Option<WalStats> {
        self.inner.durability.as_ref().map(|d| d.wal.stats())
    }

    /// Blocks until every background snapshot scheduled so far has been
    /// written (and any WAL checkpoint it triggered has completed) — the
    /// drain barrier tests and benchmarks use before inspecting the
    /// durability directory. No-op without durability.
    pub fn drain_durability(&self) {
        if let Some(durability) = &self.inner.durability {
            durability.snapshots.drain();
        }
    }

    /// Shuts the server down: rejects new deletions, drains every pending
    /// batch (tickets resolve), joins the applier, then drains and stops
    /// the snapshot thread — so a clean shutdown never abandons a
    /// scheduled snapshot. Idempotent; safe from multiple threads.
    pub fn shutdown(&self) {
        // Stored under the planner lock, which the applier holds from its
        // shutdown check until it waits: it either sees the flag before
        // deciding, or is already waiting and gets the notification.
        {
            let _planner = self.inner.planner();
            self.inner.shutdown.store(true, Ordering::Release);
        }
        self.inner.work.notify_all();
        let handle = self
            .applier
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
        // The applier is gone, so no new snapshot jobs can appear; the
        // service drains its queue before exiting.
        if let Some(durability) = &self.inner.durability {
            durability.snapshots.stop();
        }
        // Anything admitted after the drain decision fails typed.
        self.inner.planner().fail_all();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Which wire response a resolved ticket maps to: `Delete` requests
/// answer [`Response::Deleted`], `Add`/`Tick` requests answer
/// [`Response::Applied`].
#[derive(Debug, Clone, Copy)]
enum TicketKind {
    Delete,
    Change,
}

/// Join handle of a served connection; resolves when the client closes
/// its write half (EOF) or the transport fails.
pub struct ConnectionHandle {
    handle: JoinHandle<()>,
}

impl ConnectionHandle {
    /// Waits for the connection loop (and its reader/responder threads)
    /// to finish.
    pub fn join(self) {
        let _ = self.handle.join();
    }
}

fn connection_loop<R, W>(inner: &Arc<Inner>, reader: R, writer: W)
where
    R: Read + Send + 'static,
    W: Write + Send + 'static,
{
    let (requests, reader_thread) = spawn_frame_reader(reader, decode_request);
    let writer = Arc::new(Mutex::new(writer));

    // Change tickets resolve long after admission; a responder thread
    // waits them out in admission order so the service loop stays free.
    // The kind marker picks the response shape: deletions answer
    // `Deleted`, add/tick requests answer `Applied`.
    let (ticket_tx, ticket_rx) = channel::<(u64, TicketKind, DeleteTicket)>();
    let responder = {
        let writer = Arc::clone(&writer);
        thread::Builder::new()
            .name("priu-server-responder".to_string())
            .spawn(move || {
                for (id, kind, ticket) in ticket_rx {
                    let response = match ticket.wait() {
                        Ok(reply) => match kind {
                            TicketKind::Delete => Response::Deleted {
                                requested: reply.requested as u64,
                                applied: reply.applied as u64,
                                stale: reply.stale as u64,
                                batch_rows: reply.batch_rows as u64,
                                method: reply.method,
                                seconds: reply.seconds,
                                epoch: reply.epoch,
                            },
                            TicketKind::Change => Response::Applied {
                                added: reply.added as u64,
                                expired: reply.expired as u64,
                                batch_rows: reply.batch_rows as u64,
                                method: reply.method,
                                seconds: reply.seconds,
                                epoch: reply.epoch,
                            },
                        },
                        Err(err) => Response::Error {
                            message: err.to_string(),
                        },
                    };
                    if send_response(&writer, id, response).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn responder thread")
    };

    for incoming in &requests {
        match incoming {
            Ok(envelope) => {
                let id = envelope.id;
                let response = match envelope.request {
                    Request::Predict { session, features } => {
                        match inner.predict(&session, &features) {
                            Ok(p) => Response::Predicted {
                                value: p.value,
                                class: p.class.map(|c| c as u64),
                                epoch: p.epoch,
                            },
                            Err(err) => Response::Error {
                                message: err.to_string(),
                            },
                        }
                    }
                    Request::Delete { session, ids } => match inner.delete(&session, ids) {
                        Ok(ticket) => {
                            let _ = ticket_tx.send((id, TicketKind::Delete, ticket));
                            continue; // answered by the responder later
                        }
                        Err(err) => Response::Error {
                            message: err.to_string(),
                        },
                    },
                    Request::Add {
                        session,
                        num_features,
                        features,
                        labels,
                    } => {
                        let rows = AddedRows {
                            num_features: num_features as usize,
                            features,
                            labels,
                        };
                        match inner.change(&session, Vec::new(), Some(rows), None) {
                            Ok(ticket) => {
                                let _ = ticket_tx.send((id, TicketKind::Change, ticket));
                                continue;
                            }
                            Err(err) => Response::Error {
                                message: err.to_string(),
                            },
                        }
                    }
                    Request::Tick {
                        session,
                        num_features,
                        features,
                        labels,
                        keep_last,
                    } => {
                        let rows = AddedRows {
                            num_features: num_features as usize,
                            features,
                            labels,
                        };
                        match inner.change(&session, Vec::new(), Some(rows), Some(keep_last)) {
                            Ok(ticket) => {
                                let _ = ticket_tx.send((id, TicketKind::Change, ticket));
                                continue;
                            }
                            Err(err) => Response::Error {
                                message: err.to_string(),
                            },
                        }
                    }
                    Request::Flush { session } => match inner.flush(&session) {
                        Ok(()) => Response::Flushed,
                        Err(err) => Response::Error {
                            message: err.to_string(),
                        },
                    },
                    Request::Recovery => match &inner.recovery {
                        Some(report) => Response::RecoveryStatus {
                            durable: true,
                            wal_records: report.wal_records,
                            wal_tail: report.wal_tail.clone(),
                            snapshot_skips: report.snapshot_skips.len() as u64,
                            orphan_records: report.orphan_records,
                            sessions: report
                                .sessions
                                .iter()
                                .map(|s| RecoverySessionStatus {
                                    session: s.session.clone(),
                                    redone: s.redone,
                                    skipped: s.skipped.len() as u64,
                                    final_epoch: s.final_epoch,
                                })
                                .collect(),
                        },
                        None => Response::RecoveryStatus {
                            durable: false,
                            wal_records: 0,
                            wal_tail: None,
                            snapshot_skips: 0,
                            orphan_records: 0,
                            sessions: Vec::new(),
                        },
                    },
                    Request::DurabilityStats => match &inner.durability {
                        Some(durability) => {
                            let stats = durability.wal.stats();
                            Response::DurabilityStats {
                                durable: true,
                                fsyncs: stats.fsyncs,
                                wal_frames: stats.frames,
                                wal_bytes: stats.bytes,
                                max_group: stats.max_group,
                                checkpoints: stats.checkpoints,
                            }
                        }
                        None => Response::DurabilityStats {
                            durable: false,
                            fsyncs: 0,
                            wal_frames: 0,
                            wal_bytes: 0,
                            max_group: 0,
                            checkpoints: 0,
                        },
                    },
                    Request::Stats { session } => match inner.stats(&session) {
                        Ok(stats) => Response::Stats {
                            epoch: stats.epoch,
                            num_samples: stats.num_samples as u64,
                            num_features: stats.num_features as u64,
                            drift: stats.drift,
                            pending: stats.pending as u64,
                            decisions: stats.decisions,
                        },
                        Err(err) => Response::Error {
                            message: err.to_string(),
                        },
                    },
                };
                if send_response(&writer, id, response).is_err() {
                    break;
                }
            }
            Err(err) => {
                // Undecodable stream: report once (id 0) and drop the
                // connection.
                let _ = send_response(
                    &writer,
                    0,
                    Response::Error {
                        message: ServerError::Protocol(err).to_string(),
                    },
                );
                break;
            }
        }
    }
    drop(ticket_tx); // responder drains outstanding tickets, then exits
    let _ = responder.join();
    let _ = reader_thread.join();
}

fn send_response<W: Write>(writer: &Mutex<W>, id: u64, response: Response) -> std::io::Result<()> {
    let payload = encode_response(&ResponseEnvelope { id, response });
    let mut writer = writer.lock().unwrap_or_else(PoisonError::into_inner);
    write_frame(&mut *writer, &payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::WAL_FILE;
    use crate::registry::SlotState;
    use crate::wal::scan_wal;
    use priu_core::{SessionBuilder, TrainerConfig};
    use priu_data::catalog::Hyperparameters;
    use priu_data::synthetic::regression::{generate_regression, RegressionConfig};
    use priu_rng::Rng64;

    const WIDTH: usize = 3;

    fn fixture(n: usize, seed: u64) -> Session {
        let data = generate_regression(&RegressionConfig {
            num_samples: n,
            num_features: WIDTH,
            seed,
            ..Default::default()
        });
        let hyper = Hyperparameters {
            batch_size: 8,
            num_iterations: 6,
            learning_rate: 0.05,
            regularization: 0.05,
        };
        SessionBuilder::dense(data, TrainerConfig::from_hyper(hyper))
            .seed(seed)
            .opt_capture(false)
            .fit()
            .unwrap()
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("priu-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A durable server whose batches form on flush only, snapshotting
    /// only at registration so a restart redoes every record.
    fn durable(dir: &std::path::Path) -> ServerConfig {
        let mut durability = DurabilityConfig::new(dir);
        durability.snapshot_every = u64::MAX;
        ServerConfig {
            planner: PlannerConfig {
                window: Duration::from_secs(3600),
                max_batch: 1 << 20,
            },
            scheduler: SchedulerConfig {
                retrain_drift: 0.15,
                ..SchedulerConfig::default()
            },
            durability: Some(durability),
            ..ServerConfig::default()
        }
    }

    /// The slot bookkeeping the two transition paths must agree on.
    fn bookkeeping(state: &SlotState) -> (Vec<u64>, u64, u64, usize, usize) {
        (
            state.ids.clone(),
            state.next_id,
            state.epoch,
            state.initial_samples,
            state.removed_since_refit,
        )
    }

    enum Op {
        Delete(Vec<u64>),
        Add(AddedRows),
        Tick(Option<AddedRows>, u64),
    }

    /// One to `max` random rows.
    fn rows(rng: &mut Rng64, max: usize) -> AddedRows {
        let count = 1 + rng.index(max);
        AddedRows {
            num_features: WIDTH,
            features: (0..count * WIDTH).map(|_| rng.uniform(-1.0, 1.0)).collect(),
            labels: (0..count).map(|_| rng.uniform(-1.0, 1.0)).collect(),
        }
    }

    /// A random stream over an `n`-row session: deletes naming live,
    /// retired, never-assigned and duplicate ids, adds, and retention
    /// ticks. Removals stay within a budget so every batch applies.
    fn stream(rng: &mut Rng64, n: usize) -> Vec<Op> {
        let mut horizon = n;
        let mut budget = n / 3;
        (0..3 + rng.index(6))
            .map(|_| match rng.index(4) {
                0 | 1 if budget >= 4 => {
                    let mut ids: Vec<u64> = (0..1 + rng.index(3))
                        .map(|_| rng.index(horizon + 3) as u64)
                        .collect();
                    if rng.index(3) == 0 {
                        ids.push(ids[0]);
                    }
                    budget -= ids.len();
                    Op::Delete(ids)
                }
                3 => {
                    let added = (rng.index(2) == 0).then(|| rows(rng, 2));
                    horizon += added.as_ref().map_or(0, AddedRows::num_rows);
                    Op::Tick(added, (2 * n / 3 + rng.index(n / 3 + 4)) as u64)
                }
                _ => {
                    let added = rows(rng, 3);
                    horizon += added.num_rows();
                    Op::Add(added)
                }
            })
            .collect()
    }

    /// Live commits and recovery redo are two routes through one
    /// transition; over seeded random streams they must land on the same
    /// ids, `next_id`, epoch and drift.
    #[test]
    fn transition_paths_agree_over_seeded_streams() {
        const STREAMS: u64 = 200;
        let dir = tempdir("transition");
        let server = Server::start(durable(&dir)).unwrap();
        let mut streams = Vec::new();
        for seed in 0..STREAMS {
            let mut rng = Rng64::from_seed(seed);
            let n = 18 + rng.index(12);
            let name = format!("s{seed:03}");
            server.register_session(&name, fixture(n, seed)).unwrap();
            streams.push(stream(&mut rng, n));
        }

        // Live: every request is flushed as it is admitted, so the applier
        // folds each backlog into batches of whatever size timing produces.
        let mut tickets = Vec::new();
        for (seed, ops) in streams.iter().enumerate() {
            let name = format!("s{seed:03}");
            for op in ops {
                tickets.push(match op {
                    Op::Delete(ids) => server.delete(&name, ids),
                    Op::Add(added) => server.add(&name, added.clone()),
                    Op::Tick(added, keep) => server.tick(&name, added.clone(), *keep),
                });
                server.flush(&name).unwrap();
            }
        }
        for ticket in tickets {
            ticket.unwrap().wait().unwrap();
        }
        let live: Vec<SlotState> = (0..STREAMS)
            .map(|seed| {
                server
                    .inner
                    .registry
                    .get(&format!("s{seed:03}"))
                    .unwrap()
                    .state()
            })
            .collect();
        server.shutdown();
        drop(server);

        let records = scan_wal(&dir.join(WAL_FILE)).unwrap().records;
        assert!(records.iter().all(|r| r.prev_lsn.is_none()));
        let methods: std::collections::BTreeSet<Method> =
            records.iter().map(|r| r.method).collect();
        assert!(
            methods.contains(&Method::Retrain),
            "no stream refit: {methods:?}"
        );
        assert!(methods.len() > 1, "only one method exercised: {methods:?}");

        // Redo: a restart replays every record onto the baselines.
        let restarted = Server::start(durable(&dir)).unwrap();
        let report = restarted.recovery_report().unwrap();
        assert!(report.sessions.iter().all(|s| s.skipped.is_empty()));
        for (seed, live) in live.iter().enumerate() {
            let name = format!("s{seed:03}");
            let redone = restarted.inner.registry.get(&name).unwrap().state();
            assert_eq!(bookkeeping(&redone), bookkeeping(live), "{name}: redo");
            assert_eq!(
                redone.session.model().flatten(),
                live.session.model().flatten(),
                "{name}: redo model"
            );
        }
        restarted.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Under the default planner, requests that queue while the applier
    /// cannot take them fold into one batch the moment it can: every
    /// ticket resolves at the same epoch, and the model is the one direct
    /// `apply_delta` of the union produces.
    #[test]
    fn a_backlog_folds_into_one_batch_under_the_default_planner() {
        const REQUESTS: u64 = 32;
        let server = Server::start(ServerConfig::default()).unwrap();
        server.register_session("s", fixture(400, 41)).unwrap();
        // Holding the planner lock keeps the applier from taking any of
        // the requests before all of them are queued.
        let tickets: Vec<DeleteTicket> = {
            let mut planner = server.inner.planner();
            (0..REQUESTS)
                .map(|i| planner.enqueue_change("s", vec![3 * i], None, None))
                .collect()
        };
        server.inner.work.notify_all();
        let replies: Vec<BatchReply> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        for reply in &replies {
            assert_eq!(reply.epoch, 1, "every request rides the first batch");
            assert_eq!(reply.batch_rows, REQUESTS as usize);
            assert_eq!((reply.requested, reply.applied, reply.stale), (1, 1, 0));
        }
        assert_eq!(server.stats("s").unwrap().epoch, 1);

        let method = replies[0].method.expect("the batch ran an engine call");
        let union: Vec<usize> = (0..REQUESTS as usize).map(|i| 3 * i).collect();
        let expected = fixture(400, 41)
            .apply_delta(method, &Delta::removal(&union))
            .unwrap()
            .session;
        let (served, epoch) = server.model_snapshot("s").unwrap();
        assert_eq!(epoch, 1);
        let bits = |m: &Model| m.flatten().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(served.model()), bits(expected.model()));
        server.shutdown();
    }

    /// Batches of several sessions that one applier pass takes share one
    /// fsync: frames grow by one per session, fsyncs by one in total.
    #[test]
    fn one_applier_pass_fsyncs_once_across_sessions() {
        const SESSIONS: u64 = 4;
        let dir = tempdir("cross-session");
        let server = Server::start(durable(&dir)).unwrap();
        let names: Vec<String> = (0..SESSIONS).map(|i| format!("x{i}")).collect();
        for (seed, name) in (0..).zip(&names) {
            server.register_session(name, fixture(24, seed)).unwrap();
        }
        let before = server.durability_stats().unwrap();
        // Nothing is ready until flushed (an hour-long window); flushing
        // every session under one planner lock hands the applier all of
        // them in its next pass.
        let tickets: Vec<DeleteTicket> = (0..)
            .zip(&names)
            .map(|(id, name)| server.delete(name, &[id]).unwrap())
            .collect();
        {
            let mut planner = server.inner.planner();
            for name in &names {
                planner.flush(name);
            }
        }
        server.inner.work.notify_all();
        for ticket in tickets {
            assert_eq!(ticket.wait().unwrap().applied, 1);
        }
        let after = server.durability_stats().unwrap();
        assert_eq!(after.frames - before.frames, SESSIONS);
        assert_eq!(after.fsyncs - before.fsyncs, 1, "one fsync for the pass");
        assert_eq!(after.max_group, SESSIONS);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
