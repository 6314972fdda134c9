//! The unified deletion-engine API: one polymorphic surface over every model
//! family and update method the PrIU reproduction implements.
//!
//! The paper's protocol is *train once capturing provenance, then answer many
//! deletion requests with interchangeable methods*. This module exposes that
//! protocol directly:
//!
//! * [`SessionBuilder`] — fits a [`Session`] from a dense or sparse dataset,
//!   inferring the model family from the labels and materialising the
//!   captures you ask for (PrIU-opt eigendecompositions, closed-form views);
//! * [`Method`] — the registry of update methods (PrIU, PrIU-opt, BaseL
//!   retraining, closed-form, INFL), with
//!   [`DeletionEngine::supported_methods`] for introspection — closed-form is
//!   discoverable as linear-only instead of simply missing;
//! * [`Delta`] — a bidirectional change set: samples to remove *and* rows to
//!   append, folded into the provenance in one pass;
//! * [`DeletionEngine`] — the trait every session implements:
//!   `update_delta(method, delta)` runs one timed online update,
//!   `run_all(removed)` produces a [`MethodReport`] keyed by method, and
//!   `apply_delta(method, delta)` *consumes* a delta, returning a new session
//!   over the surviving + appended samples with its provenance adjusted —
//!   chained deltas (the paper's Figure 4 scenario, generalised to sliding
//!   windows) as a first-class API. The deletion-only `update`/`apply`
//!   signatures remain as thin wrappers over a removal-only delta.
//!
//! Every family is one [`Engine`] and shares one delta pipeline, written
//! here, in two phases. [`Session::stage_delta`] is fallible and yields the
//! post-batch model: validate the added rows → normalise the removal set
//! → run the method's model update → derive the survivors → zero the
//! removed samples' tokens in each cached per-iteration expression they
//! appear in (§4.1) → run the appended explicit-batch GD steps. Training,
//! BaseL and PrIU are one walk over the schedule, written here
//! (`Engine::replay`); they differ only in the per-iteration step: the
//! family's GD step with capture for the fit, without for BaseL, and its
//! cached expression for PrIU (Eq. 13/14, Eq. 19/20, Eq. 11). Every other
//! method is the family's.
//! [`StagedDelta::finish`] cannot fail and builds the successor: share the
//! untouched caches → restrict and extend the schedule → select and extend
//! the dataset → the family's extra captures. `apply_delta` is one followed
//! by the other. The snapshot codec is written here once too
//! (`Session::to_snapshot_bytes`): the family's tag, then dataset,
//! configuration, model, provenance, family state and training time, with
//! a decode-time check that the parts agree. The family modules (`linear`,
//! `logistic`, `sparse`) supply only what differs, through a sealed family
//! trait: the fit's label check and extra captures, the per-method model
//! function, how one cache drops removed batch members, one PrIU
//! iteration, one GD step (shared by training, BaseL and the appended
//! batches), the successor's extra captures, and for snapshots its tag, its
//! own state and whether a decoded cache and its extra captures fit.

mod linear;
mod logistic;
mod sparse;

use std::fmt::Debug;
use std::sync::Arc;
use std::time::{Duration, Instant};

use priu_data::dataset::{DenseDataset, SparseDataset, TaskKind};
use priu_data::minibatch::BatchSchedule;
use priu_linalg::Vector;

use crate::capture::{
    LinearIterationCache, LinearProvenance, LogisticIterationCache, LogisticProvenance,
    ProvenanceMemory,
};
use crate::config::{Compression, TrainerConfig};
use crate::error::{CoreError, Result};
use crate::interpolation::PiecewiseLinearSigmoid;
use crate::model::{Model, ModelKind};
use crate::snapshot::{
    corrupt, get_model, get_schedule, get_trainer_config, put_model, put_schedule,
    put_trainer_config, Codec, SnapshotReader, SnapshotWriter,
};
use crate::trainer::sparse::SparseLogisticProvenance;
use crate::update::{normalize_removed, removed_positions_into};
use crate::workspace::Workspace;

use family::{Captured, Family, Rows};

/// A linear-regression session: dataset + trained model + captured
/// provenance, including one normal-equations view shared by the
/// closed-form baseline and PrIU-opt.
///
/// Linear provenance shrinks *exactly* under [`DeletionEngine::apply`] —
/// Gram caches and the normal-equations view are downdated by the removed
/// samples' contributions, and the PrIU-opt eigenbasis is recomputed from
/// the downdated view — so a chained linear session keeps its full method
/// set.
pub type LinearEngine = Engine<linear::Linear>;

/// A dense logistic-regression session (binary or multinomial, following
/// the dataset's labels).
///
/// Under [`DeletionEngine::apply`] the per-iteration caches shrink exactly
/// (the stored `(a, b')` coefficients identify each removed sample's
/// contribution); the PrIU-opt capture is dropped, because its frozen
/// linearisation point refers to the pre-deletion trajectory — the successor
/// supports plain PrIU, retraining and INFL.
pub type LogisticEngine = Engine<logistic::Logistic>;

/// A sparse binary logistic-regression session (RCV1-style workloads). The
/// sparse path captures only the per-iteration linearisation coefficients
/// (§5.3), so the supported methods are PrIU and retraining.
pub type SparseLogisticEngine = Engine<sparse::SparseLogistic>;

/// The registry of deletion-update methods, using the paper's naming.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Method {
    /// BaseL: retrain from scratch on the surviving samples, replaying the
    /// original mini-batch schedule with the removals excluded.
    Retrain,
    /// PrIU: provenance-based incremental update (Eq. 13/14, Eq. 19/20).
    Priu,
    /// PrIU-opt: the optimised update using offline eigendecompositions and
    /// early provenance termination (§5.2 / §5.4).
    PriuOpt,
    /// Closed-form: incremental maintenance of the regularised normal
    /// equations (linear regression only).
    ClosedForm,
    /// INFL: the influence-function estimate.
    Influence,
}

impl Method {
    /// Every method, in report order (BaseL first — it is the reference
    /// point the other methods are compared against).
    pub const ALL: [Method; 5] = [
        Method::Retrain,
        Method::Priu,
        Method::PriuOpt,
        Method::ClosedForm,
        Method::Influence,
    ];

    /// The paper's display name for the method.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Retrain => "BaseL",
            Method::Priu => "PrIU",
            Method::PriuOpt => "PrIU-opt",
            Method::ClosedForm => "Closed-form",
            Method::Influence => "INFL",
        }
    }

    /// Parses a display name back into a method (case-insensitive).
    pub fn parse(name: &str) -> Option<Method> {
        Method::ALL
            .into_iter()
            .find(|m| m.name().eq_ignore_ascii_case(name))
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Rows to append in a [`Delta`]: a dense or sparse block whose label kind
/// must match the session's task (the engines validate this before touching
/// any state).
#[derive(Debug, Clone)]
pub enum DeltaRows {
    /// Dense rows, for linear and dense logistic sessions.
    Dense(DenseDataset),
    /// Sparse CSR rows, for sparse logistic sessions.
    Sparse(SparseDataset),
}

impl DeltaRows {
    /// Number of rows in the block.
    pub fn num_rows(&self) -> usize {
        match self {
            DeltaRows::Dense(d) => d.num_samples(),
            DeltaRows::Sparse(s) => s.num_samples(),
        }
    }
}

/// A bidirectional change set: sample indices to remove plus rows to append,
/// applied as one unit.
///
/// Semantics, shared by every engine:
///
/// * `removed` holds **pre-addition** indices into the session's current
///   dataset — a delta can never remove rows it is itself adding;
/// * removals propagate through the captured provenance exactly as a
///   deletion-only update does (the no-adds path is literally the old code);
/// * added rows are appended *after* the removals as extra explicit-batch
///   GD iterations on the provenance schedule, chunked by the schedule's
///   batch size and warm-started from the post-removal model — so a
///   subsequent retrain over the extended schedule reproduces the same
///   trajectory, and deleting an added row later flows through the ordinary
///   deflation path.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    /// Current-session sample indices to remove (deduplicated on use).
    pub removed: Vec<usize>,
    /// Rows to append after the removals.
    pub added: Option<DeltaRows>,
}

impl Delta {
    /// A removal-only delta — the classic deletion request.
    pub fn removal(removed: &[usize]) -> Self {
        Delta {
            removed: removed.to_vec(),
            added: None,
        }
    }

    /// An addition-only delta.
    pub fn addition(rows: DeltaRows) -> Self {
        Delta {
            removed: Vec::new(),
            added: Some(rows),
        }
    }

    /// A mixed delta: remove `removed` (current indices), then append `rows`.
    pub fn mixed(removed: &[usize], rows: DeltaRows) -> Self {
        Delta {
            removed: removed.to_vec(),
            added: Some(rows),
        }
    }

    /// Number of rows the delta appends.
    pub fn num_added(&self) -> usize {
        self.added.as_ref().map_or(0, DeltaRows::num_rows)
    }

    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.num_added() == 0
    }
}

/// The result of one timed incremental-update (or retraining) run, carrying
/// the method that produced it and the size of the (deduplicated) removal
/// set so reports never have to thread that context separately.
#[derive(Debug, Clone)]
pub struct UpdateOutcome {
    /// The updated model.
    pub model: Model,
    /// Wall-clock time of the online update work.
    pub duration: Duration,
    /// The method that produced this outcome.
    pub method: Method,
    /// Number of distinct samples removed.
    pub num_removed: usize,
    /// Number of rows appended (0 for deletion-only updates).
    pub num_added: usize,
}

/// The outcomes of running every supported method on one removal set,
/// keyed by [`Method`].
#[derive(Debug, Clone)]
pub struct MethodReport {
    outcomes: Vec<UpdateOutcome>,
}

impl MethodReport {
    /// The outcome of a given method, if it was run.
    pub fn get(&self, method: Method) -> Option<&UpdateOutcome> {
        self.outcomes.iter().find(|o| o.method == method)
    }

    /// All outcomes in registry order.
    pub fn outcomes(&self) -> &[UpdateOutcome] {
        &self.outcomes
    }

    /// Number of methods that ran.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether no method ran.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }
}

/// A point-in-time introspection snapshot of a session: the shape and
/// capture inventory a cost-model scheduler prices deletion methods from —
/// sample/feature counts for the retrain-vs-incremental trade-off,
/// provenance bytes for admission and eviction decisions, the offline cost
/// as the ceiling any online update must beat, and the method set that
/// survived chained applies.
#[derive(Debug, Clone, PartialEq)]
pub struct CaptureSnapshot {
    /// The learning task.
    pub task: TaskKind,
    /// Number of training samples currently held (`n`).
    pub num_samples: usize,
    /// Number of features (`m`).
    pub num_features: usize,
    /// Bytes of captured provenance (Q8 / Table 3 accounting).
    pub provenance_bytes: usize,
    /// Offline-phase wall-clock seconds (training + capture) — the upper
    /// bound a scheduler compares online-update estimates against.
    pub training_seconds: f64,
    /// The methods this session can run, in registry order.
    pub methods: Vec<Method>,
}

/// The result of consuming a deletion with [`DeletionEngine::apply`]: the
/// timed outcome plus the successor session over the surviving samples.
#[derive(Debug, Clone)]
pub struct ChainedUpdate {
    /// The timed update outcome whose model became the successor's model.
    pub outcome: UpdateOutcome,
    /// The successor session: dataset shrunk to the survivors, provenance
    /// shrunk by deletion propagation, model set to `outcome.model`.
    pub session: Session,
}

/// The uniform API over every session kind: train once (done by
/// [`SessionBuilder::fit`]), then answer deletion requests with any
/// supported [`Method`].
pub trait DeletionEngine {
    /// The learning task this session was fitted for.
    fn task(&self) -> TaskKind;

    /// Number of training samples the session currently holds.
    fn num_samples(&self) -> usize;

    /// The session's current model: `M_init` for a freshly fitted session,
    /// the applied outcome's model after a chained deletion.
    fn model(&self) -> &Model;

    /// Wall-clock time of the offline phase (training + provenance capture).
    fn training_time(&self) -> Duration;

    /// Bytes of captured provenance (Q8 / Table 3 accounting).
    fn provenance_bytes(&self) -> usize;

    /// The methods this session can run, in registry order. Reflects both
    /// the task (closed-form exists only for linear regression) and the
    /// materialised captures (PrIU-opt needs its offline eigendecomposition).
    fn supported_methods(&self) -> Vec<Method>;

    /// Runs one timed online update for a bidirectional [`Delta`]: the
    /// removal set is folded in with the given method, then any appended
    /// rows are consumed as explicit-batch GD iterations warm-started from
    /// the post-removal model (exact for every family; for linear
    /// closed-form the normal-equation views fold both directions and are
    /// solved once). The model reflects the whole delta; the session itself
    /// is unchanged.
    ///
    /// # Errors
    /// [`CoreError::UnsupportedMethod`] if [`DeletionEngine::supports`] is
    /// false for the method; [`CoreError::LabelMismatch`] /
    /// [`CoreError::InvalidConfig`] when the added rows don't fit the
    /// session; otherwise whatever the underlying update reports (invalid
    /// removal indices, factorisation failures, ...).
    fn update_delta(&self, method: Method, delta: &Delta) -> Result<UpdateOutcome>;

    /// Consumes a delta: runs the [`DeletionEngine::update_delta`] work and
    /// folds the outcome into a successor session whose dataset and
    /// provenance cover the surviving samples (re-indexed by survivor rank)
    /// plus the appended rows (indexed after the survivors). Removal indices
    /// passed to the successor are relative to that layout.
    ///
    /// Chaining `apply_delta` calls composes: sequential applies are
    /// equivalent to one apply of the union delta — the repeated-deletion
    /// scenario of the paper's Figure 4, generalised to sliding windows.
    ///
    /// Captures that cannot be adjusted exactly are dropped rather than left
    /// stale (the logistic PrIU-opt capture, whose frozen linearisation
    /// point is no longer meaningful, and a linear PrIU-opt eigenbasis
    /// whose re-decomposition does not converge); `supported_methods` on
    /// the successor reflects what survived.
    ///
    /// On a [`Session`] this is [`Session::stage_delta`] followed by
    /// [`StagedDelta::finish`]; every error comes from the first.
    ///
    /// # Errors
    /// Everything `update_delta` reports, plus
    /// [`CoreError::InvalidRemoval`] when the removal would leave no
    /// pre-existing training samples, and [`CoreError::Diverged`] when
    /// the appended steps leave a non-finite model.
    fn apply_delta(&self, method: Method, delta: &Delta) -> Result<ChainedUpdate>;

    /// Runs one timed online update for a deletion-only request — a thin
    /// wrapper over [`DeletionEngine::update_delta`] with
    /// [`Delta::removal`], preserved as the classic PrIU surface.
    ///
    /// # Errors
    /// See [`DeletionEngine::update_delta`].
    fn update(&self, method: Method, removed: &[usize]) -> Result<UpdateOutcome> {
        self.update_delta(method, &Delta::removal(removed))
    }

    /// Consumes a deletion-only request — a thin wrapper over
    /// [`DeletionEngine::apply_delta`] with [`Delta::removal`].
    ///
    /// # Errors
    /// See [`DeletionEngine::apply_delta`].
    fn apply(&self, method: Method, removed: &[usize]) -> Result<ChainedUpdate> {
        self.apply_delta(method, &Delta::removal(removed))
    }

    /// Whether this session can run the given method.
    fn supports(&self, method: Method) -> bool {
        self.supported_methods().contains(&method)
    }

    /// Number of features `m` of the session's model.
    fn num_features(&self) -> usize {
        self.model().num_features()
    }

    /// A point-in-time snapshot of the session's shape and captures — the
    /// inputs a cost model needs to price PrIU vs PrIU-opt vs closed-form
    /// vs full retrain for a pending deletion batch.
    fn capture_snapshot(&self) -> CaptureSnapshot {
        CaptureSnapshot {
            task: self.task(),
            num_samples: self.num_samples(),
            num_features: self.num_features(),
            provenance_bytes: self.provenance_bytes(),
            training_seconds: self.training_time().as_secs_f64(),
            methods: self.supported_methods(),
        }
    }

    /// Runs every supported method on the removal set and returns the
    /// outcomes keyed by method (BaseL first).
    ///
    /// # Errors
    /// Propagates the first failing update.
    fn run_all(&self, removed: &[usize]) -> Result<MethodReport> {
        let mut outcomes = Vec::new();
        for method in self.supported_methods() {
            outcomes.push(self.update(method, removed)?);
        }
        Ok(MethodReport { outcomes })
    }
}

/// Times the online phase of one update and assembles the outcome.
pub(crate) fn timed_update(
    method: Method,
    num_removed: usize,
    num_added: usize,
    f: impl FnOnce() -> Result<Model>,
) -> Result<UpdateOutcome> {
    let start = Instant::now();
    let model = f()?;
    Ok(UpdateOutcome {
        model,
        duration: start.elapsed(),
        method,
        num_removed,
        num_added,
    })
}

/// Chunks `num_added` appended rows — occupying successor indices
/// `num_survivors..num_survivors + num_added` — into explicit batches of at
/// most `batch_size`, in insertion order. Both `update_delta` (stepping over
/// the delta's rows directly) and `apply_delta` (extending the schedule with
/// these batches) derive their chunking from this one definition, which is
/// what makes the two bitwise-agree on the post-addition model.
pub(crate) fn appended_batches(
    num_survivors: usize,
    num_added: usize,
    batch_size: usize,
) -> Vec<Vec<usize>> {
    let batch_size = batch_size.max(1);
    let mut batches = Vec::with_capacity(num_added.div_ceil(batch_size));
    let mut start = 0;
    while start < num_added {
        let end = (start + batch_size).min(num_added);
        batches.push((num_survivors + start..num_survivors + end).collect());
        start = end;
    }
    batches
}

/// The survivors of a normalised removal set (ascending and distinct), for
/// `apply`: the indices it leaves, of which there must be at least one.
pub(crate) fn survivors(num_samples: usize, removed: &[usize]) -> Result<Vec<usize>> {
    if removed.len() >= num_samples {
        return Err(CoreError::InvalidRemoval {
            index: num_samples,
            num_samples,
        });
    }
    let mut survivors = Vec::with_capacity(num_samples - removed.len());
    let mut r = 0usize;
    for i in 0..num_samples {
        if r < removed.len() && removed[r] == i {
            r += 1;
        } else {
            survivors.push(i);
        }
    }
    Ok(survivors)
}

/// A fitted session of one model family: dataset + trained model + captured
/// provenance. [`LinearEngine`], [`LogisticEngine`] and
/// [`SparseLogisticEngine`] are its instances; all of them answer deltas
/// through the one pipeline behind [`DeletionEngine::update_delta`] and
/// [`DeletionEngine::apply_delta`].
#[derive(Debug, Clone)]
pub struct Engine<F: Family> {
    dataset: F::Data,
    config: TrainerConfig,
    model: Model,
    provenance: F::Provenance,
    family: F,
    training_time: Duration,
}

/// The traits behind [`Engine`]. They are public inside a private module,
/// so nothing outside this crate can name or implement them.
mod family {
    use super::*;

    /// What differs between model families; everything else is the shared
    /// pipeline on [`Engine`].
    pub trait Family: Clone + Debug + Default {
        /// The training rows (dense or sparse).
        type Data: Rows;
        /// One iteration's cached provenance expression.
        type Cache: Clone;
        /// Everything the offline phase captured.
        type Provenance: Captured<Self::Cache>;
        /// The session kind named in storage-mismatch errors.
        const SESSION: &'static str;
        /// The label kind added rows must carry, for label mismatches.
        const LABELS: &'static str;
        /// Whether the family has a PrIU-opt capture. When the config asks
        /// for it, the fit factorises an `m × m` matrix on its workspace.
        const OPT_CAPTURE: bool = false;
        /// The snapshot's session tag. It doubles as the layout version: a
        /// layout change takes a fresh tag.
        const TAG: u8;

        /// The model kind a fit over `rows` trains. This is the family's
        /// label check: rows it cannot train on are a
        /// [`CoreError::LabelMismatch`] before any step runs.
        fn model_kind(rows: &Self::Data) -> Result<ModelKind>;

        /// The fit iteration whose starting weights
        /// [`Family::fit_captures`] reads, if it reads any.
        fn frozen_iteration(_e: &Engine<Self>) -> Option<usize> {
            None
        }

        /// Adds the captures the family keeps beyond the caches to a
        /// freshly fitted engine. `frozen` holds the weights at
        /// [`Family::frozen_iteration`] if the fit reached it.
        fn fit_captures(
            _e: &mut Engine<Self>,
            _frozen: Option<&[Vector]>,
            _ws: &mut Workspace,
        ) -> Result<()> {
            Ok(())
        }

        /// The methods the session's captures support, in registry order.
        fn supported_methods(e: &Engine<Self>) -> Vec<Method>;

        /// The method's timed model update for the removal set, ascending
        /// and distinct. A method that folds the added rows itself (closed
        /// form) counts them in the outcome; the pipeline then leaves its
        /// model alone. Never called for BaseL or PrIU: the pipeline
        /// replays both over [`Family::step`] and [`Family::priu_step`].
        fn update(
            e: &Engine<Self>,
            method: Method,
            removed: &[usize],
            added: Option<&Self::Data>,
        ) -> Result<UpdateOutcome>;

        /// One PrIU iteration: evaluates `cache` with the removed batch
        /// members' tokens zeroed (§4.1), in place on `weights`. The batch
        /// is staged in `ws.batch`, the removed members' positions in
        /// `ws.positions`, and `b_u > 0` members survive.
        fn priu_step(
            e: &Engine<Self>,
            cache: &Self::Cache,
            weights: &mut [Vector],
            b_u: usize,
            ws: &mut Workspace,
        ) -> Result<()>;

        /// Drops the batch members at `positions` of `batch` from one
        /// iteration's cache.
        fn propagate(
            e: &Engine<Self>,
            cache: &Self::Cache,
            batch: &[usize],
            positions: &[usize],
        ) -> Result<Self::Cache>;

        /// One exact GD step over the batch staged in `ws.batch` of
        /// `rows`, capturing the iteration's cache when asked: run with
        /// capture by the fit and without by BaseL, both over the
        /// session's rows, and by the appended batches over a delta's.
        fn step(
            e: &Engine<Self>,
            rows: &Self::Data,
            weights: &mut [Vector],
            capture: bool,
            ws: &mut Workspace,
        ) -> Result<Option<Self::Cache>>;

        /// Adds the captures the family keeps beyond the caches to the
        /// successor. Runs in [`Staged::finish`], after the delta is
        /// staged, so it cannot fail: a capture it cannot rebuild is left
        /// out of the successor, deterministically.
        fn successor_captures(
            _e: &Engine<Self>,
            _removed: &[usize],
            _added: Option<&Self::Data>,
            _successor: &mut Engine<Self>,
        ) {
        }

        /// Wraps an engine of this family as a [`Session`].
        fn into_session(e: Engine<Self>) -> Session;

        /// The deflation rows a cache's Gram forms carry (chained sessions
        /// size the replay workspace by the largest).
        fn deflation_rows(_cache: &Self::Cache) -> usize {
            0
        }

        /// Writes the family's own state to a snapshot, after the
        /// provenance.
        fn put_state(&self, _w: &mut SnapshotWriter) {}

        /// Reads what [`Family::put_state`] wrote.
        fn get_state(_r: &mut SnapshotReader<'_>) -> Result<Self> {
            Ok(Self::default())
        }

        /// Whether a decoded `cache` fits `e`: it covers a batch of
        /// `batch_len` rows, with one entry per weight vector where it
        /// keeps one.
        fn cache_fits(e: &Engine<Self>, cache: &Self::Cache, batch_len: usize) -> bool;

        /// Whether a decoded engine's extra captures fit its dataset and
        /// model.
        fn captures_fit(_e: &Engine<Self>) -> bool {
            true
        }
    }

    /// The parts every family's provenance shares. Each cache sits behind
    /// an `Arc`, so a successor shares every cache its delta did not touch
    /// with its parent. Its snapshot codec writes the schedule, `η`, `λ`,
    /// `w⁽⁰⁾`, the caches and each extra capture behind a presence flag.
    pub trait Captured<C>: Codec + ProvenanceMemory + Clone + Debug {
        /// The mini-batch schedule.
        fn schedule(&self) -> &BatchSchedule;
        /// One cache per scheduled iteration.
        fn caches(&self) -> &[Arc<C>];
        /// The caches, which the fit fills.
        fn caches_mut(&mut self) -> &mut Vec<Arc<C>>;
        /// The parameters training started from, `w⁽⁰⁾`.
        fn initial_model(&self) -> &Model;
        /// The weight decay `1 − ηλ` of one GD step.
        fn decay(&self) -> f64;
        /// A fit's provenance before its walk: the schedule, `η`, `λ` and
        /// `w⁽⁰⁾`, without caches or extra captures.
        fn new(schedule: BatchSchedule, eta: f64, lambda: f64, initial_model: Model) -> Self;
        /// The successor's provenance: the same hyperparameters and
        /// initial model around a new schedule and caches, without extra
        /// captures.
        fn successor(&self, schedule: BatchSchedule, caches: Vec<Arc<C>>) -> Self;
    }

    /// Implements [`Captured`] and its snapshot codec for a provenance
    /// whose caches are `$caches` and whose extra captures are the `Option`
    /// fields `$extra`, in field order.
    macro_rules! captured {
        ($provenance:ty, $caches:ident: $cache:ty $(, $extra:ident)*) => {
            impl Codec for $provenance {
                fn put(&self, w: &mut SnapshotWriter) {
                    put_schedule(w, &self.schedule);
                    w.f64(self.learning_rate);
                    w.f64(self.regularization);
                    put_model(w, &self.initial_model);
                    w.usize(self.$caches.len());
                    self.$caches.iter().for_each(|cache| cache.put(w));
                    $(w.option(self.$extra.as_ref(), |w, extra| extra.put(w));)*
                }
                fn get(r: &mut SnapshotReader<'_>, what: &str) -> Result<Self> {
                    let schedule = get_schedule(r, what)?;
                    let (eta, lambda) = (r.f64(what)?, r.f64(what)?);
                    let mut provenance = Self::new(schedule, eta, lambda, get_model(r, what)?);
                    let n = r.len(1, what)?;
                    let mut caches = Vec::with_capacity(n);
                    for _ in 0..n {
                        caches.push(Arc::new(Codec::get(r, what)?));
                    }
                    provenance.$caches = caches;
                    $(provenance.$extra = r.option(what, |r| Codec::get(r, what))?;)*
                    Ok(provenance)
                }
            }

            impl Captured<$cache> for $provenance {
                fn schedule(&self) -> &BatchSchedule {
                    &self.schedule
                }
                fn caches(&self) -> &[Arc<$cache>] {
                    &self.$caches
                }
                fn caches_mut(&mut self) -> &mut Vec<Arc<$cache>> {
                    &mut self.$caches
                }
                fn initial_model(&self) -> &Model {
                    &self.initial_model
                }
                fn decay(&self) -> f64 {
                    1.0 - self.learning_rate * self.regularization
                }
                fn new(schedule: BatchSchedule, eta: f64, lambda: f64, initial_model: Model) -> Self {
                    Self {
                        schedule,
                        learning_rate: eta,
                        regularization: lambda,
                        initial_model,
                        $caches: Vec::new(),
                        $($extra: None,)*
                    }
                }
                fn successor(&self, schedule: BatchSchedule, caches: Vec<Arc<$cache>>) -> Self {
                    let (eta, lambda) = (self.learning_rate, self.regularization);
                    let initial_model = self.initial_model.clone();
                    Self {
                        $caches: caches,
                        ..Self::new(schedule, eta, lambda, initial_model)
                    }
                }
            }
        };
    }
    captured!(LinearProvenance, iterations: LinearIterationCache, normal, opt);
    // The logistic PrIU-opt capture's frozen linearisation point belongs to
    // the pre-delta trajectory, so successors drop it rather than keep it
    // stale.
    captured!(LogisticProvenance, iterations: LogisticIterationCache, opt);
    captured!(SparseLogisticProvenance, coefficients: Vec<(f64, f64)>);

    /// Training rows, dense or sparse.
    pub trait Rows: Codec + Clone + Debug {
        /// The rows of this storage in a delta, if it has this storage.
        fn of(rows: &DeltaRows) -> Option<&Self>;
        /// Number of rows.
        fn num_samples(&self) -> usize;
        /// Number of features.
        fn num_features(&self) -> usize;
        /// The task the labels imply.
        fn task(&self) -> TaskKind;
        /// The given rows, in order.
        ///
        /// # Panics
        /// If an index is out of range; the pipeline passes only indices
        /// [`survivors`] derived from the session's own row count.
        fn select(&self, rows: &[usize]) -> Self;
        /// Appends `rows` in place.
        ///
        /// # Panics
        /// If the widths or label kinds differ; the pipeline appends only
        /// rows `validate_added` accepted.
        fn append(&mut self, rows: &Self);
    }

    /// Implements [`Rows`] by forwarding to the dataset's own methods.
    macro_rules! rows {
        ($data:ident, $variant:ident, |$d:ident, $rows:ident| $select:expr) => {
            impl Rows for $data {
                fn of(rows: &DeltaRows) -> Option<&Self> {
                    match rows {
                        DeltaRows::$variant(rows) => Some(rows),
                        _ => None,
                    }
                }
                fn num_samples(&self) -> usize {
                    $data::num_samples(self)
                }
                fn num_features(&self) -> usize {
                    $data::num_features(self)
                }
                fn task(&self) -> TaskKind {
                    $data::task(self)
                }
                fn select(&self, $rows: &[usize]) -> Self {
                    let $d = self;
                    $select
                }
                fn append(&mut self, rows: &Self) {
                    $data::append(self, rows).expect("appended rows were validated");
                }
            }
        };
    }
    rows!(DenseDataset, Dense, |d, rows| d.select(rows));
    rows!(SparseDataset, Sparse, |d, rows| d
        .select(rows)
        .expect("survivor indices are in range"));
}

impl<F: Family> Engine<F> {
    /// Trains the initial model and captures provenance (the offline
    /// phase) with the family's default captures: for linear regression
    /// that includes the closed-form views; for dense logistic regression
    /// binary vs multinomial follows the labels.
    ///
    /// # Errors
    /// Propagates training failures (label mismatch, divergence).
    pub fn fit(dataset: F::Data, config: TrainerConfig) -> Result<Self> {
        Self::fit_family(F::default(), dataset, config)
    }

    /// The offline phase for a family marker, timed after its workspace
    /// is sized, so the timed region measures training and capture work,
    /// not buffer growth.
    fn fit_family(family: F, dataset: F::Data, config: TrainerConfig) -> Result<Self> {
        let (mut e, mut ws) = Self::unfitted(family, dataset, config)?;
        let start = Instant::now();
        e.train(&mut ws)?;
        e.training_time = start.elapsed();
        Ok(e)
    }

    /// A fit's engine before its walk — the schedule, `η`, `λ` and `w⁽⁰⁾`
    /// without caches — and the workspace sized for the walk. Labels the
    /// family cannot train on are a [`CoreError::LabelMismatch`].
    fn unfitted(family: F, dataset: F::Data, config: TrainerConfig) -> Result<(Self, Workspace)> {
        let kind = F::model_kind(&dataset)?;
        let (hyper, n, m) = (config.hyper, dataset.num_samples(), dataset.num_features());
        let schedule = BatchSchedule::new(n, hyper.batch_size, hyper.num_iterations, config.seed);
        let model = Model::zeros(kind, m);
        let (eta, lambda) = (hyper.learning_rate, hyper.regularization);
        let provenance = F::Provenance::new(schedule, eta, lambda, model.clone());
        let e = Engine {
            dataset,
            config,
            model,
            provenance,
            family,
            training_time: Duration::ZERO,
        };
        let mut ws = e.sized_workspace(0);
        if F::OPT_CAPTURE && e.config.capture_opt {
            ws.reserve_decompositions(m);
        }
        Ok((e, ws))
    }

    /// Trains the model (Eq. 5/6) as the replay with nothing removed and
    /// capture on, so training, BaseL and PrIU walk one schedule: each
    /// iteration runs [`Family::step`] and keeps its cache, with the
    /// weights checked for divergence every 32 iterations and at `τ`. The
    /// family's extra captures follow the walk.
    fn train(&mut self, ws: &mut Workspace) -> Result<()> {
        let tau = self.provenance.schedule().num_iterations();
        let frozen_at = F::frozen_iteration(self);
        let (mut caches, mut frozen) = (Vec::with_capacity(tau), None);
        let model = self.replay(&[], tau, ws, |t, weights, _, ws| {
            if frozen_at == Some(t) {
                frozen = Some(weights.to_vec());
            }
            let cache = F::step(self, &self.dataset, weights, true, ws)?;
            caches.push(Arc::new(cache.expect("capture was requested")));
            if t % 32 == 0 && weights.iter().any(|w| !w.is_finite()) {
                return Err(CoreError::Diverged { iteration: t });
            }
            Ok(())
        })?;
        if !model.is_finite() {
            return Err(CoreError::Diverged { iteration: tau });
        }
        self.model = model;
        *self.provenance.caches_mut() = caches;
        F::fit_captures(self, frozen.as_deref(), ws)
    }

    /// The training dataset this session currently covers.
    pub fn dataset(&self) -> &F::Data {
        &self.dataset
    }

    /// The captured provenance.
    pub fn provenance(&self) -> &F::Provenance {
        &self.provenance
    }

    /// Writes the whole engine bit-exactly after its family's tag: dataset,
    /// trainer configuration, model, provenance, the family's own state and
    /// the training time.
    fn put(&self, w: &mut SnapshotWriter) {
        w.u8(F::TAG);
        self.dataset.put(w);
        put_trainer_config(w, &self.config);
        put_model(w, &self.model);
        self.provenance.put(w);
        self.family.put_state(w);
        w.u64(self.training_time.as_nanos() as u64);
    }

    /// Reads what [`Engine::put`] wrote after the tag. Every failure is a
    /// [`CoreError::Snapshot`], including parts that decode alone but
    /// disagree with each other (see [`Engine::checked`]).
    fn get(r: &mut SnapshotReader<'_>) -> Result<Self> {
        let what = |part: &str| format!("{} {part}", F::SESSION);
        let decoded = (|| {
            Self {
                dataset: Codec::get(r, &what("dataset"))?,
                config: get_trainer_config(r, &what("config"))?,
                model: get_model(r, &what("model"))?,
                provenance: Codec::get(r, &what("provenance"))?,
                family: F::get_state(r)?,
                training_time: Duration::from_nanos(r.u64("training time")?),
            }
            .checked()
        })();
        decoded.map_err(|e| match e {
            CoreError::Snapshot(_) => e,
            e => corrupt(&format!("{}: {e}", F::SESSION)),
        })
    }

    /// Rejects a decoded engine whose parts disagree, so corrupt input
    /// fails at decode instead of panicking in a later update: the schedule
    /// draws from the dataset's rows, there is one cache per scheduled
    /// iteration and each fits its batch, the model and `w⁽⁰⁾` are of the
    /// kind the labels train with the dataset's width, and the family's
    /// extra captures fit.
    fn checked(self) -> Result<Self> {
        let (p, m) = (&self.provenance, self.dataset.num_features());
        let schedule = p.schedule();
        let kind = F::model_kind(&self.dataset).ok();
        let fits = |model: &Model| Some(model.kind()) == kind && model.num_features() == m;
        let mut caches = p.caches().iter().enumerate();
        let consistent = schedule.num_samples() == self.dataset.num_samples()
            && p.caches().len() == schedule.num_iterations()
            && caches.all(|(t, cache)| F::cache_fits(&self, cache, schedule.batch_len(t)))
            && fits(&self.model)
            && fits(p.initial_model())
            && F::captures_fit(&self);
        if !consistent {
            return Err(corrupt(&format!(
                "{}: parts disagree with the dataset",
                F::SESSION
            )));
        }
        Ok(self)
    }

    /// A workspace pre-sized for this session's replay loops (called before
    /// the update timer starts, so the timed region never allocates buffers).
    fn sized_workspace(&self, num_removed: usize) -> Workspace {
        let batch_size = self.provenance.schedule().batch_size();
        let mut ws = Workspace::sized_for(
            self.dataset.num_features(),
            batch_size.max(num_removed),
            self.model.weights().len(),
        );
        // Chained sessions carry deflation corrections whose row count can
        // exceed both the batch size and the feature count.
        let caches = self.provenance.caches().iter();
        ws.reserve_gram_scratch(caches.map(|c| F::deflation_rows(c)).max().unwrap_or(0));
        ws
    }

    /// Times `replay` over a workspace sized (for `rows` removed rows)
    /// before the timer starts, so the timed region measures pure replay
    /// work.
    fn timed_replay(
        &self,
        method: Method,
        num_removed: usize,
        rows: usize,
        replay: impl FnOnce(&mut Workspace) -> Result<Model>,
    ) -> Result<UpdateOutcome> {
        let mut ws = self.sized_workspace(rows);
        timed_update(method, num_removed, 0, || replay(&mut ws))
    }

    /// The one schedule walk behind training, BaseL and PrIU: walks the
    /// captured schedule from `w⁽⁰⁾` over iterations `0..end` with the
    /// samples of `removed` (ascending and distinct) taken out; the fit
    /// removes nothing. Each iteration stages its batch in `ws.batch` and
    /// the removed members' positions in `ws.positions`; a batch left
    /// empty only decays every weight vector by `1 − ηλ`, any other goes
    /// to `step` with its iteration and its number of survivors `b_u`.
    fn replay(
        &self,
        removed: &[usize],
        end: usize,
        ws: &mut Workspace,
        mut step: impl FnMut(usize, &mut [Vector], usize, &mut Workspace) -> Result<()>,
    ) -> Result<Model> {
        let (schedule, decay) = (self.provenance.schedule(), self.provenance.decay());
        let mut model = self.provenance.initial_model().clone();
        let weights = model.weights_mut();
        for t in 0..end {
            schedule.batch_into(t, &mut ws.batch, &mut ws.idx_scratch);
            removed_positions_into(&ws.batch, removed, &mut ws.positions);
            let b_u = ws.batch.len() - ws.positions.len();
            if b_u == 0 {
                weights.iter_mut().for_each(|w| w.scale_mut(decay));
            } else {
                step(t, weights, b_u, ws)?;
            }
        }
        Ok(model)
    }

    /// BaseL (§6): retrains over the captured schedule with the removed
    /// samples dropped from every batch, through the fit's own
    /// [`Family::step`] — so an empty removal replays the fit bit for bit.
    fn retrain(&self, removed: &[usize], ws: &mut Workspace) -> Result<Model> {
        let end = self.provenance.schedule().num_iterations();
        self.replay(removed, end, ws, |_, weights, _, ws| {
            let (mut pos, mut dropped) = (0, ws.positions.iter().peekable());
            ws.batch.retain(|_| {
                let keep = dropped.next_if_eq(&&pos).is_none();
                pos += 1;
                keep
            });
            F::step(self, &self.dataset, weights, false, ws).map(drop)
        })
    }

    /// PrIU over iterations `0..end`: the replay with each iteration's
    /// cached expression evaluated by [`Family::priu_step`] (§4.1–§4.2,
    /// §5.3). The full update runs every cached iteration; PrIU-opt's
    /// logistic phase 1 stops at its switch iteration.
    fn priu(&self, removed: &[usize], end: usize, ws: &mut Workspace) -> Result<Model> {
        let caches = self.provenance.caches();
        self.replay(removed, end, ws, |t, weights, b_u, ws| {
            F::priu_step(self, &caches[t], weights, b_u, ws)
        })
    }

    /// The method's timed model update for a normalised removal set:
    /// BaseL and PrIU here, every other method in the family.
    fn method_update(
        &self,
        method: Method,
        removed: &[usize],
        added: Option<&F::Data>,
    ) -> Result<UpdateOutcome> {
        // Both replays stay batch-sized: neither stages the removed rows.
        match method {
            Method::Retrain => {
                self.timed_replay(method, removed.len(), 0, |ws| self.retrain(removed, ws))
            }
            Method::Priu => self.timed_replay(method, removed.len(), 0, |ws| {
                self.priu(removed, self.provenance.caches().len(), ws)
            }),
            _ => F::update(self, method, removed, added),
        }
    }

    /// Validates a delta's added rows against this session: same storage,
    /// matching feature width, the session's label kind (and class count).
    /// Returns `None` for deltas that add nothing (including an explicitly
    /// empty block).
    fn validate_added<'a>(&self, delta: &'a Delta) -> Result<Option<&'a F::Data>> {
        let Some(rows) = &delta.added else {
            return Ok(None);
        };
        let Some(rows) = F::Data::of(rows) else {
            let storage = match rows {
                DeltaRows::Dense(_) => "dense",
                DeltaRows::Sparse(_) => "sparse",
            };
            return Err(CoreError::InvalidConfig(format!(
                "{storage} rows cannot be added to a {} session",
                F::SESSION
            )));
        };
        if rows.num_features() != self.dataset.num_features() {
            return Err(CoreError::InvalidConfig(format!(
                "added rows have {} features, the session has {}",
                rows.num_features(),
                self.dataset.num_features()
            )));
        }
        if rows.task() != self.dataset.task() {
            return Err(CoreError::LabelMismatch {
                expected: F::LABELS,
            });
        }
        Ok((rows.num_samples() > 0).then_some(rows))
    }

    /// Runs the appended explicit-batch GD steps over `added`, chunked by
    /// the schedule's batch size and warm-started from the outcome's model.
    /// With `captures`, one cache per appended batch is collected (the
    /// apply path) — linearised around the trajectory the steps take;
    /// without, a warm workspace makes the steps allocation-free. The
    /// outcome takes the stepped model unless its method already folded
    /// the rows in.
    fn addition_steps(
        &self,
        added: &F::Data,
        outcome: &mut UpdateOutcome,
        mut captures: Option<&mut Vec<F::Cache>>,
    ) -> Result<()> {
        let folded = outcome.num_added > 0;
        if folded && captures.is_none() {
            return Ok(());
        }
        let schedule = self.provenance.schedule();
        let mut ws = self.sized_workspace(0);
        let start = Instant::now();
        let mut weights = outcome.model.weights().to_vec();
        for batch in appended_batches(0, added.num_samples(), schedule.batch_size()) {
            ws.batch.clear();
            ws.batch.extend_from_slice(&batch);
            let cache = F::step(self, added, &mut weights, captures.is_some(), &mut ws)?;
            if let (Some(caps), Some(cache)) = (captures.as_deref_mut(), cache) {
                caps.push(cache);
            }
        }
        if weights.iter().any(|w| !w.is_finite()) {
            return Err(CoreError::Diverged {
                iteration: schedule.num_iterations(),
            });
        }
        if !folded {
            outcome.model = Model::new(outcome.model.kind(), weights)?;
            outcome.duration += start.elapsed();
            outcome.num_added = added.num_samples();
        }
        Ok(())
    }
}

impl<F: Family> DeletionEngine for Engine<F> {
    fn task(&self) -> TaskKind {
        self.dataset.task()
    }

    fn num_samples(&self) -> usize {
        self.dataset.num_samples()
    }

    fn model(&self) -> &Model {
        &self.model
    }

    fn training_time(&self) -> Duration {
        self.training_time
    }

    fn provenance_bytes(&self) -> usize {
        self.provenance.provenance_bytes()
    }

    fn supported_methods(&self) -> Vec<Method> {
        F::supported_methods(self)
    }

    fn update_delta(&self, method: Method, delta: &Delta) -> Result<UpdateOutcome> {
        let added = self.validate_added(delta)?;
        let removed = normalize_removed(self.num_samples(), &delta.removed)?;
        let mut outcome = self.method_update(method, &removed, added)?;
        if let Some(added) = added {
            self.addition_steps(added, &mut outcome, None)?;
        }
        Ok(outcome)
    }

    fn apply_delta(&self, method: Method, delta: &Delta) -> Result<ChainedUpdate> {
        Ok(self.stage_delta(method, delta)?.finish())
    }
}

impl<F: Family> Engine<F> {
    /// The fallible half of [`DeletionEngine::apply_delta`]: validates the
    /// delta, runs the method's update, drops the removed samples' tokens
    /// from every cached iteration they appear in (§4.1) and runs the
    /// appended explicit-batch GD steps, capturing one cache per appended
    /// batch. The staged outcome's model is the successor's model, bit for
    /// bit; [`Staged::finish`] builds the rest of the successor and cannot
    /// fail, so every error `apply_delta` returns comes from here.
    ///
    /// # Errors
    /// Exactly the errors of [`DeletionEngine::apply_delta`].
    pub(crate) fn stage_delta<'a>(
        &'a self,
        method: Method,
        delta: &'a Delta,
    ) -> Result<Staged<'a, F>> {
        let added = self.validate_added(delta)?;
        let removed = normalize_removed(self.num_samples(), &delta.removed)?;
        let mut outcome = self.method_update(method, &removed, added)?;
        let survivors = survivors(self.num_samples(), &removed)?;

        // Only the iterations whose batch held a removed sample are
        // propagated here; finish carries the untouched caches over.
        let schedule = self.provenance.schedule();
        let (mut batch, mut scratch, mut positions) = (Vec::new(), Vec::new(), Vec::new());
        let mut propagated = Vec::new();
        for (t, cache) in self.provenance.caches().iter().enumerate() {
            schedule.batch_into(t, &mut batch, &mut scratch);
            removed_positions_into(&batch, &removed, &mut positions);
            if !positions.is_empty() {
                propagated.push((t, F::propagate(self, cache, &batch, &positions)?));
            }
        }

        // The addition steps run once: the successor's appended caches and
        // the returned model come from the same trajectory.
        let mut appended = Vec::new();
        if let Some(added) = added {
            self.addition_steps(added, &mut outcome, Some(&mut appended))?;
        }
        Ok(Staged {
            parent: self,
            added,
            outcome,
            removed,
            survivors,
            propagated,
            appended,
        })
    }
}

/// A delta staged on an [`Engine`] by [`Engine::stage_delta`]: the timed
/// outcome, whose model is final, plus the caches the delta touched.
/// [`Staged::finish`] turns it into the successor session.
pub(crate) struct Staged<'a, F: Family> {
    parent: &'a Engine<F>,
    added: Option<&'a F::Data>,
    outcome: UpdateOutcome,
    /// The removal set, ascending and distinct.
    removed: Vec<usize>,
    survivors: Vec<usize>,
    /// `(iteration, cache)` for each iteration whose batch held a removed
    /// sample, ascending, with that sample's tokens dropped.
    propagated: Vec<(usize, F::Cache)>,
    /// One cache per appended batch, from the staged GD steps.
    appended: Vec<F::Cache>,
}

impl<F: Family> Staged<'_, F> {
    /// The staged update's outcome; its model is the successor's.
    pub(crate) fn outcome(&self) -> &UpdateOutcome {
        &self.outcome
    }

    /// The infallible half of [`DeletionEngine::apply_delta`]: restricts
    /// the schedule to the survivors, shares the untouched caches with the
    /// parent (only the propagated and appended ones are new),
    /// extends schedule and dataset by the appended rows — by the same
    /// chunking (`appended_batches`) the staged steps took, shifted to the
    /// successor's row space, so retraining the successor replays the
    /// identical steps over the identical rows — and rebuilds the family's
    /// extra captures.
    pub(crate) fn finish(self) -> ChainedUpdate {
        let Staged {
            parent,
            added,
            outcome,
            removed,
            survivors,
            propagated,
            appended,
        } = self;
        let schedule = parent.provenance.schedule();
        let mut propagated = propagated.into_iter().peekable();
        let mut caches = Vec::with_capacity(schedule.num_iterations() + appended.len());
        for (t, cache) in parent.provenance.caches().iter().enumerate() {
            caches.push(match propagated.next_if(|(u, _)| *u == t) {
                Some((_, cache)) => Arc::new(cache),
                None => Arc::clone(cache),
            });
        }
        let batches = (0..schedule.num_iterations())
            .map(|t| schedule.batch(t))
            .collect();
        let mut restricted = schedule.restrict_from(&removed, batches);
        let mut dataset = parent.dataset.select(&survivors);
        if let Some(added) = added {
            let k = added.num_samples();
            let extra = appended_batches(survivors.len(), k, schedule.batch_size());
            restricted = restricted.extend_with(extra, k);
            caches.extend(appended.into_iter().map(Arc::new));
            dataset.append(added);
        }
        let mut successor = Engine {
            dataset,
            config: parent.config,
            model: outcome.model.clone(),
            provenance: parent.provenance.successor(restricted, caches),
            family: parent.family.clone(),
            training_time: parent.training_time,
        };
        F::successor_captures(parent, &removed, added, &mut successor);
        ChainedUpdate {
            outcome,
            session: F::into_session(successor),
        }
    }
}

macro_rules! delegate {
    ($self:ident, $e:ident => $body:expr) => {
        match $self {
            Session::Linear($e) => $body,
            Session::Logistic($e) => $body,
            Session::SparseLogistic($e) => $body,
        }
    };
}

/// A fitted session of any model family, programmable through
/// [`DeletionEngine`]. Produced by [`SessionBuilder::fit`] and by
/// [`DeletionEngine::apply`].
#[derive(Debug, Clone)]
pub enum Session {
    /// Linear regression.
    Linear(LinearEngine),
    /// Binary or multinomial logistic regression (dense).
    Logistic(LogisticEngine),
    /// Sparse binary logistic regression.
    SparseLogistic(SparseLogisticEngine),
}

impl Session {
    /// The dense training dataset, if this is a dense session.
    pub fn dense_dataset(&self) -> Option<&DenseDataset> {
        match self {
            Session::Linear(e) => Some(e.dataset()),
            Session::Logistic(e) => Some(e.dataset()),
            Session::SparseLogistic(_) => None,
        }
    }

    /// The sparse training dataset, if this is a sparse session.
    pub fn sparse_dataset(&self) -> Option<&SparseDataset> {
        match self {
            Session::SparseLogistic(e) => Some(e.dataset()),
            _ => None,
        }
    }

    /// Serializes the session bit-exactly for durability snapshots, into
    /// one buffer that a sizing pass made exactly as long as the encoding.
    /// See [`Session::write_snapshot`] for the layout.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut sizing = SnapshotWriter::sizing();
        self.write_snapshot(&mut sizing);
        let mut w = SnapshotWriter::with_capacity(sizing.len());
        self.write_snapshot(&mut w);
        w.into_bytes()
    }

    /// Appends the session's snapshot encoding to `w`: the family's tag,
    /// then the dataset, trainer configuration, model, captured provenance
    /// and any materialised views, every `f64` as its exact bit pattern.
    /// The inverse is [`Session::from_snapshot_bytes`]; round-tripping
    /// yields a session whose `apply_delta` chain is bitwise identical to
    /// the original's.
    pub fn write_snapshot(&self, w: &mut SnapshotWriter) {
        delegate!(self, e => e.put(w));
    }

    /// Rebuilds a session from [`Session::to_snapshot_bytes`] output. The
    /// tag selects the family: linear 4, dense logistic 2, sparse logistic
    /// 3. Tag 1, an earlier linear layout, is unknown.
    ///
    /// # Errors
    /// Returns [`CoreError::Snapshot`] on truncated, corrupt or
    /// trailing-byte input, an unknown tag, or parts that disagree with
    /// each other (a schedule over another row count, a cache count other
    /// than the iteration count, batches indexing past the dataset, a model
    /// the labels do not train, captures shaped for another width) — never
    /// panics, so the recovery path can skip a bad snapshot and fall back
    /// to an older one.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Session> {
        let mut r = SnapshotReader::new(bytes);
        let session = match r.u8("session family tag")? {
            linear::Linear::TAG => Session::Linear(Engine::get(&mut r)?),
            logistic::Logistic::TAG => Session::Logistic(Engine::get(&mut r)?),
            sparse::SparseLogistic::TAG => Session::SparseLogistic(Engine::get(&mut r)?),
            tag => {
                return Err(CoreError::Snapshot(format!(
                    "unknown session family tag {tag}"
                )))
            }
        };
        r.finish()?;
        Ok(session)
    }
}

impl DeletionEngine for Session {
    fn task(&self) -> TaskKind {
        delegate!(self, e => e.task())
    }

    fn num_samples(&self) -> usize {
        delegate!(self, e => e.num_samples())
    }

    fn model(&self) -> &Model {
        delegate!(self, e => e.model())
    }

    fn training_time(&self) -> Duration {
        delegate!(self, e => e.training_time())
    }

    fn provenance_bytes(&self) -> usize {
        delegate!(self, e => e.provenance_bytes())
    }

    fn supported_methods(&self) -> Vec<Method> {
        delegate!(self, e => e.supported_methods())
    }

    fn update_delta(&self, method: Method, delta: &Delta) -> Result<UpdateOutcome> {
        delegate!(self, e => e.update_delta(method, delta))
    }

    fn apply_delta(&self, method: Method, delta: &Delta) -> Result<ChainedUpdate> {
        delegate!(self, e => e.apply_delta(method, delta))
    }
}

impl Session {
    /// The fallible half of [`DeletionEngine::apply_delta`]: validates the
    /// delta, runs the method's update, drops the removed samples' tokens
    /// from the cached iterations they appear in (§4.1) and runs the
    /// appended GD steps. The staged model is the successor's model, bit
    /// for bit; [`StagedDelta::finish`] builds the rest of the successor
    /// and cannot fail.
    ///
    /// # Errors
    /// Exactly the errors of [`DeletionEngine::apply_delta`].
    pub fn stage_delta<'a>(&'a self, method: Method, delta: &'a Delta) -> Result<StagedDelta<'a>> {
        Ok(StagedDelta(match self {
            Session::Linear(e) => StagedFamily::Linear(e.stage_delta(method, delta)?),
            Session::Logistic(e) => StagedFamily::Logistic(e.stage_delta(method, delta)?),
            Session::SparseLogistic(e) => {
                StagedFamily::SparseLogistic(e.stage_delta(method, delta)?)
            }
        }))
    }
}

/// A delta staged on a [`Session`] by [`Session::stage_delta`]: the
/// post-batch model is known, the successor session is not built yet.
/// `stage_delta(..)?.finish()` is [`DeletionEngine::apply_delta`].
pub struct StagedDelta<'a>(StagedFamily<'a>);

enum StagedFamily<'a> {
    Linear(Staged<'a, linear::Linear>),
    Logistic(Staged<'a, logistic::Logistic>),
    SparseLogistic(Staged<'a, sparse::SparseLogistic>),
}

macro_rules! delegate_staged {
    ($self:expr, $s:ident => $body:expr) => {
        match $self {
            StagedFamily::Linear($s) => $body,
            StagedFamily::Logistic($s) => $body,
            StagedFamily::SparseLogistic($s) => $body,
        }
    };
}

impl StagedDelta<'_> {
    /// The staged update's outcome; its model is the successor's.
    pub fn outcome(&self) -> &UpdateOutcome {
        delegate_staged!(&self.0, s => s.outcome())
    }

    /// The infallible half of [`DeletionEngine::apply_delta`]: shares the
    /// untouched caches with the staged session, restricts and extends the
    /// schedule and the dataset, and rebuilds the family's extra captures.
    /// A capture that cannot be rebuilt is left out of the successor.
    pub fn finish(self) -> ChainedUpdate {
        delegate_staged!(self.0, s => s.finish())
    }
}

enum BuilderData {
    Dense(DenseDataset),
    Sparse(SparseDataset),
}

/// Builds a [`Session`]: dataset + task kind (inferred from the labels) +
/// trainer configuration + which captures to materialise.
///
/// ```
/// use priu_core::engine::{DeletionEngine, Method, SessionBuilder};
/// use priu_core::TrainerConfig;
/// use priu_data::catalog::Hyperparameters;
/// use priu_data::synthetic::regression::{generate_regression, RegressionConfig};
///
/// let dataset = generate_regression(&RegressionConfig {
///     num_samples: 200,
///     num_features: 4,
///     seed: 1,
///     ..Default::default()
/// });
/// let hyper = Hyperparameters {
///     batch_size: 50,
///     num_iterations: 100,
///     learning_rate: 0.05,
///     regularization: 0.01,
/// };
/// let session = SessionBuilder::dense(dataset, TrainerConfig::from_hyper(hyper))
///     .seed(7)
///     .fit()
///     .unwrap();
/// assert!(session.supports(Method::ClosedForm)); // linear-only, discoverable
/// let outcome = session.update(Method::Priu, &[3, 1, 4]).unwrap();
/// assert_eq!(outcome.num_removed, 3);
/// ```
pub struct SessionBuilder {
    data: BuilderData,
    config: TrainerConfig,
    closed_form: bool,
}

impl SessionBuilder {
    /// Starts a builder over a dense dataset; the model family follows the
    /// labels (continuous → linear, binary → binary logistic, multiclass →
    /// multinomial logistic).
    pub fn dense(dataset: DenseDataset, config: TrainerConfig) -> Self {
        Self {
            data: BuilderData::Dense(dataset),
            config,
            closed_form: true,
        }
    }

    /// Starts a builder over a sparse dataset (binary logistic only, §5.3).
    pub fn sparse(dataset: SparseDataset, config: TrainerConfig) -> Self {
        Self {
            data: BuilderData::Sparse(dataset),
            config,
            closed_form: false,
        }
    }

    /// The task kind the fitted session will have.
    pub fn task(&self) -> TaskKind {
        match &self.data {
            BuilderData::Dense(d) => d.task(),
            BuilderData::Sparse(s) => s.task(),
        }
    }

    /// Sets the mini-batch schedule seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config = self.config.with_seed(seed);
        self
    }

    /// Sets the Gram-cache compression strategy (§5.1 / §5.3).
    #[must_use]
    pub fn compression(mut self, compression: Compression) -> Self {
        self.config = self.config.with_compression(compression);
        self
    }

    /// Enables or disables the PrIU-opt capture (offline
    /// eigendecompositions; skip for very large feature spaces).
    #[must_use]
    pub fn opt_capture(mut self, capture: bool) -> Self {
        self.config = self.config.with_opt_capture(capture);
        self
    }

    /// Sets the piecewise-linear interpolation grid of the logistic
    /// non-linearity.
    #[must_use]
    pub fn interpolation(mut self, interpolation: PiecewiseLinearSigmoid) -> Self {
        self.config = self.config.with_interpolation(interpolation);
        self
    }

    /// Sets the PrIU-opt early-termination fraction `ts / τ` (§5.4).
    #[must_use]
    pub fn opt_capture_fraction(mut self, fraction: f64) -> Self {
        self.config = self.config.with_opt_capture_fraction(fraction);
        self
    }

    /// Enables or disables the closed-form baseline's materialised views
    /// (`XᵀX` / `XᵀY`; linear regression only, on by default there).
    #[must_use]
    pub fn closed_form_capture(mut self, capture: bool) -> Self {
        self.closed_form = capture;
        self
    }

    /// Trains the initial model and captures provenance (the offline phase).
    ///
    /// # Errors
    /// Training failures (label mismatch, divergence) are reported as usual;
    /// sparse datasets with non-binary labels are a label mismatch.
    pub fn fit(self) -> Result<Session> {
        Ok(match self.data {
            BuilderData::Dense(dataset) if dataset.task() == TaskKind::Regression => {
                let family = linear::Linear {
                    closed_form: self.closed_form,
                };
                Session::Linear(LinearEngine::fit_family(family, dataset, self.config)?)
            }
            BuilderData::Dense(dataset) => {
                Session::Logistic(LogisticEngine::fit(dataset, self.config)?)
            }
            // The sparse family's label check rejects non-binary labels.
            BuilderData::Sparse(dataset) => {
                Session::SparseLogistic(SparseLogisticEngine::fit(dataset, self.config)?)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::compare_models;
    use priu_data::catalog::Hyperparameters;
    use priu_data::dirty::random_subsets;
    use priu_data::synthetic::classification::{
        generate_binary_classification, generate_multiclass_classification, ClassificationConfig,
    };
    use priu_data::synthetic::regression::{generate_regression, RegressionConfig};
    use priu_data::synthetic::sparse_text::{generate_sparse_binary, SparseConfig};

    fn hyper() -> Hyperparameters {
        Hyperparameters {
            batch_size: 50,
            num_iterations: 150,
            learning_rate: 0.05,
            regularization: 0.02,
        }
    }

    fn linear_session() -> Session {
        let data = generate_regression(&RegressionConfig {
            num_samples: 300,
            num_features: 6,
            seed: 1,
            ..Default::default()
        });
        SessionBuilder::dense(data, TrainerConfig::from_hyper(hyper()))
            .fit()
            .unwrap()
    }

    fn binary_session() -> Session {
        let data = generate_binary_classification(&ClassificationConfig {
            num_samples: 300,
            num_features: 6,
            separation: 3.0,
            seed: 2,
            ..Default::default()
        });
        let mut h = hyper();
        h.learning_rate = 0.3;
        SessionBuilder::dense(data, TrainerConfig::from_hyper(h))
            .fit()
            .unwrap()
    }

    fn multinomial_session() -> Session {
        let data = generate_multiclass_classification(&ClassificationConfig {
            num_samples: 400,
            num_features: 8,
            num_classes: 3,
            separation: 3.0,
            seed: 12,
            ..Default::default()
        });
        let mut h = hyper();
        h.learning_rate = 0.3;
        SessionBuilder::dense(data, TrainerConfig::from_hyper(h))
            .fit()
            .unwrap()
    }

    fn binary_added_rows(num_rows: usize, seed: u64) -> DenseDataset {
        generate_binary_classification(&ClassificationConfig {
            num_samples: num_rows,
            num_features: 6,
            separation: 3.0,
            seed,
            ..Default::default()
        })
    }

    fn multinomial_added_rows(num_rows: usize, seed: u64) -> DenseDataset {
        generate_multiclass_classification(&ClassificationConfig {
            num_samples: num_rows,
            num_features: 8,
            num_classes: 3,
            separation: 3.0,
            seed,
            ..Default::default()
        })
    }

    fn sparse_session() -> Session {
        let data = generate_sparse_binary(&SparseConfig {
            num_samples: 300,
            num_features: 200,
            nnz_per_row: 15,
            informative_fraction: 0.2,
            seed: 9,
        });
        let mut h = hyper();
        h.learning_rate = 0.3;
        SessionBuilder::sparse(data, TrainerConfig::from_hyper(h))
            .fit()
            .unwrap()
    }

    fn sparse_added_rows(num_rows: usize, seed: u64) -> SparseDataset {
        generate_sparse_binary(&SparseConfig {
            num_samples: num_rows,
            num_features: 200,
            nnz_per_row: 15,
            informative_fraction: 0.2,
            seed,
        })
    }

    #[test]
    fn method_registry_names_round_trip() {
        for method in Method::ALL {
            assert_eq!(Method::parse(method.name()), Some(method));
            assert_eq!(method.to_string(), method.name());
        }
        assert_eq!(Method::parse("priu"), Some(Method::Priu));
        assert_eq!(Method::parse("basel"), Some(Method::Retrain));
        assert_eq!(Method::parse("nope"), None);
    }

    #[test]
    fn linear_sessions_support_every_method() {
        let session = linear_session();
        assert_eq!(session.supported_methods(), Method::ALL.to_vec());
        assert_eq!(session.task(), TaskKind::Regression);
        assert!(session.dense_dataset().is_some());
        assert!(session.sparse_dataset().is_none());
    }

    #[test]
    fn linear_capture_flags_shrink_the_method_set() {
        let data = generate_regression(&RegressionConfig {
            num_samples: 200,
            num_features: 5,
            seed: 3,
            ..Default::default()
        });
        let session = SessionBuilder::dense(data, TrainerConfig::from_hyper(hyper()))
            .opt_capture(false)
            .closed_form_capture(false)
            .fit()
            .unwrap();
        assert!(!session.supports(Method::PriuOpt));
        assert!(!session.supports(Method::ClosedForm));
        assert!(session.supports(Method::Priu));
        assert!(matches!(
            session.update(Method::ClosedForm, &[0]),
            Err(CoreError::UnsupportedMethod { .. })
        ));
    }

    #[test]
    fn logistic_sessions_exclude_closed_form() {
        let session = binary_session();
        let methods = session.supported_methods();
        assert!(!methods.contains(&Method::ClosedForm));
        assert!(methods.contains(&Method::PriuOpt));
        assert!(matches!(
            session.update(Method::ClosedForm, &[0]),
            Err(CoreError::UnsupportedMethod { .. })
        ));
    }

    #[test]
    fn sparse_sessions_support_priu_and_retraining_only() {
        let data = generate_sparse_binary(&SparseConfig {
            num_samples: 200,
            num_features: 150,
            nnz_per_row: 10,
            informative_fraction: 0.2,
            seed: 4,
        });
        let mut h = hyper();
        h.learning_rate = 0.3;
        let session = SessionBuilder::sparse(data, TrainerConfig::from_hyper(h))
            .fit()
            .unwrap();
        assert_eq!(
            session.supported_methods(),
            vec![Method::Retrain, Method::Priu]
        );
        assert!(session.sparse_dataset().is_some());
        assert!(session.dense_dataset().is_none());
    }

    #[test]
    fn sparse_builder_rejects_non_binary_labels() {
        use priu_data::dataset::{Labels, SparseDataset};
        use priu_linalg::{CsrMatrix, Matrix, Vector};
        let dense = Matrix::from_fn(4, 3, |i, j| (i + j) as f64);
        let data = SparseDataset::new(
            CsrMatrix::from_dense(&dense),
            Labels::Continuous(Vector::zeros(4)),
        );
        assert!(matches!(
            SessionBuilder::sparse(data, TrainerConfig::from_hyper(hyper())).fit(),
            Err(CoreError::LabelMismatch { .. })
        ));
    }

    #[test]
    fn run_all_reports_every_supported_method() {
        let session = linear_session();
        let removed = random_subsets(300, 0.05, 1, 1)[0].clone();
        let report = session.run_all(&removed).unwrap();
        assert_eq!(report.len(), Method::ALL.len());
        assert!(!report.is_empty());
        for method in Method::ALL {
            let outcome = report.get(method).unwrap();
            assert_eq!(outcome.method, method);
            assert_eq!(outcome.num_removed, removed.len());
            assert!(outcome.model.is_finite());
            assert!(outcome.duration > Duration::ZERO);
        }
        let basel = report.get(Method::Retrain).unwrap();
        let priu = report.get(Method::Priu).unwrap();
        let cmp = compare_models(&basel.model, &priu.model).unwrap();
        assert!(cmp.cosine_similarity > 0.999);
    }

    #[test]
    fn capture_snapshot_reflects_shape_and_surviving_methods() {
        let session = linear_session();
        let snap = session.capture_snapshot();
        assert_eq!(snap.task, TaskKind::Regression);
        assert_eq!(snap.num_samples, 300);
        assert_eq!(snap.num_features, 6);
        assert_eq!(snap.num_features, session.num_features());
        assert_eq!(snap.provenance_bytes, session.provenance_bytes());
        assert!(snap.training_seconds > 0.0);
        assert_eq!(snap.methods, Method::ALL.to_vec());

        // A chained logistic session drops its opt capture; the snapshot
        // reports the surviving inventory, not the original one.
        let logistic = binary_session();
        let chained = logistic.apply(Method::Priu, &[1, 2, 3]).unwrap();
        let snap = chained.session.capture_snapshot();
        assert_eq!(snap.num_samples, 297);
        assert!(!snap.methods.contains(&Method::PriuOpt));
    }

    #[test]
    fn outcome_counts_distinct_removals() {
        let session = linear_session();
        let outcome = session.update(Method::Priu, &[7, 3, 7, 3, 11]).unwrap();
        assert_eq!(outcome.num_removed, 3);
        assert_eq!(outcome.method, Method::Priu);
    }

    #[test]
    fn chained_applies_compose_like_one_deletion_linear() {
        let session = linear_session();
        let first = random_subsets(300, 0.05, 1, 5)[0].clone();
        let chained = session.apply(Method::Priu, &first).unwrap();
        assert_eq!(chained.session.num_samples(), 300 - first.len());

        // Second removal, expressed in survivor indices.
        let second_survivor: Vec<usize> = vec![0, 17, 91, 200];
        let second = chained
            .session
            .update(Method::Priu, &second_survivor)
            .unwrap();

        // Reference: one PrIU update on the union, in original indices.
        let survivors: Vec<usize> = (0..300).filter(|i| !first.contains(i)).collect();
        let mut union = first.clone();
        union.extend(second_survivor.iter().map(|&i| survivors[i]));
        let reference = session.update(Method::Priu, &union).unwrap();

        let cmp = compare_models(&reference.model, &second.model).unwrap();
        assert!(
            cmp.l2_distance < 1e-7,
            "chained linear PrIU should be exact, distance {}",
            cmp.l2_distance
        );

        // And both agree with retraining on the union.
        let retrained = session.update(Method::Retrain, &union).unwrap();
        let cmp = compare_models(&retrained.model, &second.model).unwrap();
        assert!(
            cmp.cosine_similarity > 0.99,
            "similarity {}",
            cmp.cosine_similarity
        );
    }

    #[test]
    fn chained_applies_compose_like_one_deletion_logistic() {
        let session = binary_session();
        let first = random_subsets(300, 0.04, 1, 6)[0].clone();
        let chained = session.apply(Method::Priu, &first).unwrap();

        // The logistic opt capture is dropped on apply; plain PrIU survives.
        assert!(!chained.session.supports(Method::PriuOpt));
        assert!(chained.session.supports(Method::Priu));

        let second_survivor = random_subsets(chained.session.num_samples(), 0.04, 1, 7)[0].clone();
        let second = chained
            .session
            .update(Method::Priu, &second_survivor)
            .unwrap();

        let survivors: Vec<usize> = (0..300).filter(|i| !first.contains(i)).collect();
        let mut union = first.clone();
        union.extend(second_survivor.iter().map(|&i| survivors[i]));
        let retrained = session.update(Method::Retrain, &union).unwrap();

        let cmp = compare_models(&retrained.model, &second.model).unwrap();
        assert!(
            cmp.cosine_similarity > 0.99,
            "two chained applies vs one retrain on the union: similarity {}",
            cmp.cosine_similarity
        );
    }

    #[test]
    fn chained_apply_supports_retraining_and_closed_form_on_the_successor() {
        let session = linear_session();
        let first = random_subsets(300, 0.05, 1, 8)[0].clone();
        let chained = session.apply(Method::PriuOpt, &first).unwrap();
        // The linear captures shrink exactly, so every method survives.
        assert_eq!(chained.session.supported_methods(), Method::ALL.to_vec());

        let second: Vec<usize> = vec![1, 2, 3];
        let retrain_chained = chained.session.update(Method::Retrain, &second).unwrap();
        let closed_chained = chained.session.update(Method::ClosedForm, &second).unwrap();
        assert!(retrain_chained.model.is_finite());
        assert!(closed_chained.model.is_finite());

        // Closed-form on the successor equals closed-form on the union.
        let survivors: Vec<usize> = (0..300).filter(|i| !first.contains(i)).collect();
        let mut union = first.clone();
        union.extend(second.iter().map(|&i| survivors[i]));
        let reference = session.update(Method::ClosedForm, &union).unwrap();
        let cmp = compare_models(&reference.model, &closed_chained.model).unwrap();
        assert!(cmp.l2_distance < 1e-6, "distance {}", cmp.l2_distance);
    }

    #[test]
    fn chained_apply_on_sparse_sessions() {
        let data = generate_sparse_binary(&SparseConfig {
            num_samples: 300,
            num_features: 200,
            nnz_per_row: 15,
            informative_fraction: 0.2,
            seed: 9,
        });
        let mut h = hyper();
        h.learning_rate = 0.3;
        let session = SessionBuilder::sparse(data, TrainerConfig::from_hyper(h))
            .fit()
            .unwrap();
        let first = random_subsets(300, 0.03, 1, 10)[0].clone();
        let chained = session.apply(Method::Priu, &first).unwrap();
        assert_eq!(chained.session.num_samples(), 300 - first.len());

        let second = random_subsets(chained.session.num_samples(), 0.03, 1, 11)[0].clone();
        let updated = chained.session.update(Method::Priu, &second).unwrap();

        let survivors: Vec<usize> = (0..300).filter(|i| !first.contains(i)).collect();
        let mut union = first.clone();
        union.extend(second.iter().map(|&i| survivors[i]));
        let retrained = session.update(Method::Retrain, &union).unwrap();
        let cmp = compare_models(&retrained.model, &updated.model).unwrap();
        assert!(
            cmp.cosine_similarity > 0.99,
            "similarity {}",
            cmp.cosine_similarity
        );
    }

    #[test]
    fn apply_rejects_removing_everything() {
        let session = linear_session();
        let everything: Vec<usize> = (0..300).collect();
        assert!(matches!(
            session.apply(Method::Priu, &everything),
            Err(CoreError::InvalidRemoval { .. })
        ));
    }

    fn linear_added_rows(num_rows: usize, seed: u64) -> DenseDataset {
        generate_regression(&RegressionConfig {
            num_samples: num_rows,
            num_features: 6,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn appended_batches_chunk_by_schedule_batch_size() {
        assert_eq!(
            appended_batches(10, 5, 2),
            vec![vec![10, 11], vec![12, 13], vec![14]]
        );
        assert_eq!(appended_batches(0, 3, 50), vec![vec![0, 1, 2]]);
        assert!(appended_batches(10, 0, 2).is_empty());
        // A degenerate batch size still makes progress.
        assert_eq!(appended_batches(1, 2, 0), vec![vec![1], vec![2]]);
    }

    #[test]
    fn empty_delta_is_identity_shaped() {
        let session = linear_session();
        let delta = Delta::default();
        assert!(delta.is_empty());
        let outcome = session.update_delta(Method::Priu, &delta).unwrap();
        assert_eq!(outcome.num_removed, 0);
        assert_eq!(outcome.num_added, 0);
        assert!(outcome.model.is_finite());
    }

    #[test]
    fn update_delta_and_apply_delta_agree_bitwise_on_the_model() {
        // The two paths step over the same added rows with the same chunking
        // from the same warm start, so their post-addition models must be
        // bitwise identical — for every family and method that supports it.
        let delta = Delta::mixed(&[3, 17, 40], DeltaRows::Dense(linear_added_rows(23, 21)));
        let session = linear_session();
        for method in [Method::Priu, Method::PriuOpt, Method::ClosedForm] {
            let updated = session.update_delta(method, &delta).unwrap();
            let chained = session.apply_delta(method, &delta).unwrap();
            assert_eq!(
                updated.model, chained.outcome.model,
                "{method}: update_delta and apply_delta disagree"
            );
            assert_eq!(chained.session.model(), &chained.outcome.model);
            assert_eq!(updated.num_added, 23);
            assert_eq!(chained.session.num_samples(), 300 - 3 + 23);
        }

        let logistic = binary_session();
        let delta = Delta::mixed(&[3, 17, 40], DeltaRows::Dense(binary_added_rows(23, 22)));
        let updated = logistic.update_delta(Method::Priu, &delta).unwrap();
        let chained = logistic.apply_delta(Method::Priu, &delta).unwrap();
        assert_eq!(updated.model, chained.outcome.model);

        let multinomial = multinomial_session();
        let delta = Delta::mixed(
            &[3, 17, 40],
            DeltaRows::Dense(multinomial_added_rows(23, 24)),
        );
        for method in [Method::Priu, Method::PriuOpt] {
            let updated = multinomial.update_delta(method, &delta).unwrap();
            let chained = multinomial.apply_delta(method, &delta).unwrap();
            assert_eq!(
                updated.model, chained.outcome.model,
                "multinomial {method}: update_delta and apply_delta disagree"
            );
        }

        let sparse = sparse_session();
        let delta = Delta::mixed(&[3, 17, 40], DeltaRows::Sparse(sparse_added_rows(23, 23)));
        let updated = sparse.update_delta(Method::Priu, &delta).unwrap();
        let chained = sparse.apply_delta(Method::Priu, &delta).unwrap();
        assert_eq!(updated.model, chained.outcome.model);
    }

    #[test]
    fn successor_retrain_reproduces_the_delta_model() {
        // The whole-delta contract: retraining the successor over its
        // extended schedule (survivor batches + appended explicit batches)
        // replays the same trajectory the delta engine stepped through.
        let session = linear_session();
        let delta = Delta::mixed(&[5, 6, 7, 120], DeltaRows::Dense(linear_added_rows(37, 31)));
        let chained = session.apply_delta(Method::Priu, &delta).unwrap();
        assert_eq!(chained.session.num_samples(), 300 - 4 + 37);
        let retrained = chained.session.update(Method::Retrain, &[]).unwrap();
        let cmp = compare_models(&retrained.model, chained.session.model()).unwrap();
        assert!(
            cmp.l2_distance < 1e-8,
            "successor retrain should replay the delta trajectory, distance {}",
            cmp.l2_distance
        );

        let logistic = binary_session();
        let added = DeltaRows::Dense(binary_added_rows(37, 32));
        let chained = logistic
            .apply_delta(Method::Priu, &Delta::mixed(&[5, 6, 7], added))
            .unwrap();
        let retrained = chained.session.update(Method::Retrain, &[]).unwrap();
        let cmp = compare_models(&retrained.model, chained.session.model()).unwrap();
        assert!(
            cmp.cosine_similarity > 0.999,
            "similarity {}",
            cmp.cosine_similarity
        );

        let others = [
            (
                "multinomial",
                multinomial_session(),
                DeltaRows::Dense(multinomial_added_rows(37, 33)),
            ),
            (
                "sparse",
                sparse_session(),
                DeltaRows::Sparse(sparse_added_rows(37, 34)),
            ),
        ];
        for (label, session, added) in others {
            let chained = session
                .apply_delta(Method::Priu, &Delta::mixed(&[5, 6, 7], added))
                .unwrap();
            let retrained = chained.session.update(Method::Retrain, &[]).unwrap();
            let cmp = compare_models(&retrained.model, chained.session.model()).unwrap();
            assert!(
                cmp.cosine_similarity > 0.999,
                "{label}: similarity {}",
                cmp.cosine_similarity
            );
        }
    }

    /// BaseL runs the fit's own GD step, so with nothing removed it
    /// replays the fit bit for bit.
    fn assert_basel_replays_training(session: &Session) {
        let replay = session.update(Method::Retrain, &[]).unwrap();
        assert_eq!(&replay.model, session.model());
    }

    #[test]
    fn basel_replays_linear_training_bitwise() {
        assert_basel_replays_training(&linear_session());
    }

    #[test]
    fn basel_replays_binary_training_bitwise() {
        assert_basel_replays_training(&binary_session());
    }

    #[test]
    fn basel_replays_multinomial_training_bitwise() {
        assert_basel_replays_training(&multinomial_session());
    }

    #[test]
    fn basel_replays_sparse_training_bitwise() {
        assert_basel_replays_training(&sparse_session());
    }

    #[test]
    fn basel_removal_changes_the_model_independent_of_threads() {
        // A removal changes the model, and its bits do not depend on the
        // thread count.
        let families = [
            ("linear", linear_session()),
            ("binary", binary_session()),
            ("multinomial", multinomial_session()),
            ("sparse", sparse_session()),
        ];
        let removed = [2, 17, 40];
        for (label, session) in families {
            let run = |threads| {
                priu_linalg::par::with_threads(threads, || {
                    session.update(Method::Retrain, &removed).unwrap().model
                })
            };
            let retrained = run(1);
            assert_ne!(&retrained, session.model(), "{label}");
            assert!(retrained.is_finite(), "{label}");
            assert_eq!(retrained, run(4), "{label}");
        }
    }

    #[test]
    fn basel_replays_the_successor_of_a_mixed_delta_bitwise() {
        // The successor's schedule is the parent's restricted to the
        // survivors and extended by the appended batches, so retraining it
        // runs the steps of the BaseL apply over the same rows in the same
        // order.
        let families = [
            (
                "linear",
                linear_session(),
                DeltaRows::Dense(linear_added_rows(37, 71)),
            ),
            (
                "binary",
                binary_session(),
                DeltaRows::Dense(binary_added_rows(37, 72)),
            ),
            (
                "multinomial",
                multinomial_session(),
                DeltaRows::Dense(multinomial_added_rows(37, 73)),
            ),
            (
                "sparse",
                sparse_session(),
                DeltaRows::Sparse(sparse_added_rows(37, 74)),
            ),
        ];
        for (label, session, added) in families {
            let delta = Delta::mixed(&[5, 6, 7, 120], added);
            let chained = session.apply_delta(Method::Retrain, &delta).unwrap();
            let replay = chained.session.update(Method::Retrain, &[]).unwrap();
            assert_eq!(&replay.model, chained.session.model(), "{label}");
        }
    }

    #[test]
    fn replay_of_an_emptied_batch_agrees_across_basel_and_priu() {
        // Removing every member of one scheduled batch takes the walk's
        // decay-only branch at that iteration, for BaseL and PrIU alike.
        let first_batch =
            |session: &Session| delegate!(session, e => e.provenance.schedule().batch(0));
        let families = [
            ("linear", linear_session()),
            ("binary", binary_session()),
            ("multinomial", multinomial_session()),
            ("sparse", sparse_session()),
        ];
        for (label, session) in &families {
            let removed = first_batch(session);
            for method in [Method::Retrain, Method::Priu] {
                let run = |threads| {
                    priu_linalg::par::with_threads(threads, || {
                        session.update(method, &removed).unwrap().model
                    })
                };
                let model = run(1);
                assert!(model.is_finite(), "{label} {method}");
                assert_eq!(model, run(4), "{label} {method}");
            }
        }

        // Uncompressed, the linear expressions are exact: PrIU and BaseL
        // differ only in summation order.
        let data = generate_regression(&RegressionConfig {
            num_samples: 300,
            num_features: 6,
            seed: 1,
            ..Default::default()
        });
        let exact = SessionBuilder::dense(data, TrainerConfig::from_hyper(hyper()))
            .compression(Compression::None)
            .fit()
            .unwrap();
        let removed = first_batch(&exact);
        let basel = exact.update(Method::Retrain, &removed).unwrap().model;
        let priu = exact.update(Method::Priu, &removed).unwrap().model;
        let distance = compare_models(&basel, &priu).unwrap().l2_distance;
        let relative = distance / basel.flatten().norm2();
        assert!(relative < 1e-9, "relative L2 {relative:e}");
    }

    #[test]
    fn fit_rejects_the_wrong_label_kind_without_panicking() {
        // Each family checks the labels before its first step, so rows it
        // cannot train on are a typed error, never the step's `expect`.
        use priu_data::dataset::Labels;
        use priu_linalg::CsrMatrix;
        let config = TrainerConfig::from_hyper(hyper());
        let binary = generate_binary_classification(&ClassificationConfig {
            num_samples: 60,
            num_features: 4,
            seed: 5,
            ..Default::default()
        });
        let continuous = generate_regression(&RegressionConfig {
            num_samples: 60,
            num_features: 4,
            seed: 6,
            ..Default::default()
        });
        let x = CsrMatrix::from_dense(&continuous.x);
        let multiclass = Labels::Multiclass {
            classes: (0..60).map(|i| i % 3).collect(),
            num_classes: 3,
        };
        let fits = [
            ("linear", LinearEngine::fit(binary, config).map(drop)),
            (
                "logistic",
                LogisticEngine::fit(continuous.clone(), config).map(drop),
            ),
            (
                "sparse continuous",
                SparseLogisticEngine::fit(SparseDataset::new(x.clone(), continuous.labels), config)
                    .map(drop),
            ),
            (
                "sparse multiclass",
                SparseLogisticEngine::fit(SparseDataset::new(x, multiclass), config).map(drop),
            ),
        ];
        for (label, fit) in fits {
            assert!(
                matches!(fit, Err(CoreError::LabelMismatch { .. })),
                "{label}: {fit:?}"
            );
        }
    }

    #[test]
    fn replays_never_grow_the_sized_workspace() {
        // Every replay, the fit included, runs on the workspace the engine
        // sizes for it before its timer starts, and never has to grow it.
        fn assert_warm<F: Family>(
            label: &str,
            e: &Engine<F>,
            rows: usize,
            replay: impl FnOnce(&mut Workspace) -> Result<Model>,
        ) {
            let mut ws = e.sized_workspace(rows);
            replay(&mut ws).unwrap();
            assert_eq!(ws.grow_events(), 0, "{label} grew its sized workspace");
        }
        fn assert_walks_warm<F: Family>(label: &str, e: &Engine<F>, removed: &[usize]) {
            // The fit walks the session's rows on the workspace it sizes.
            let fit = Engine::unfitted(e.family.clone(), e.dataset.clone(), e.config);
            let (mut fresh, mut ws) = fit.unwrap();
            fresh.train(&mut ws).unwrap();
            assert_eq!(ws.grow_events(), 0, "{label} fit grew its sized workspace");
            assert_warm(&format!("{label} BaseL"), e, 0, |ws| e.retrain(removed, ws));
            let end = e.provenance.caches().len();
            assert_warm(&format!("{label} PrIU"), e, 0, |ws| {
                e.priu(removed, end, ws)
            });
        }

        // More removed rows than a batch holds, so PrIU-opt stages a block
        // larger than the batch-sized buffers.
        let removed: Vec<usize> = (0..300).step_by(5).collect();
        let chained = linear_session()
            .apply_delta(
                Method::Priu,
                &Delta::mixed(&[4, 9, 16], DeltaRows::Dense(linear_added_rows(20, 81))),
            )
            .unwrap()
            .session;
        let families = [
            ("linear", linear_session()),
            ("chained linear", chained),
            ("binary", binary_session()),
            ("multinomial", multinomial_session()),
            ("sparse", sparse_session()),
        ];
        for (label, session) in &families {
            let opt = format!("{label} PrIU-opt");
            match session {
                Session::Linear(e) => {
                    assert_walks_warm(label, e, &removed);
                    assert_warm(&opt, e, removed.len(), |ws| e.priu_opt(&removed, ws));
                }
                Session::Logistic(e) => {
                    assert_walks_warm(label, e, &removed);
                    assert_warm(&opt, e, removed.len(), |ws| e.priu_opt(&removed, ws));
                }
                Session::SparseLogistic(e) => assert_walks_warm(label, e, &removed),
            }
        }
    }

    #[test]
    fn closed_form_mixed_delta_matches_rebuilding() {
        // Closed-form folds both delta directions into the normal-equation
        // views with one solve; the reference is a fresh closed-form session
        // over the survivors + added rows.
        let session = linear_session();
        let added = linear_added_rows(29, 41);
        let removed = vec![2, 9, 250, 251];
        let delta = Delta::mixed(&removed, DeltaRows::Dense(added.clone()));
        let outcome = session.update_delta(Method::ClosedForm, &delta).unwrap();

        let base = session.dense_dataset().unwrap();
        let survivors: Vec<usize> = (0..300).filter(|i| !removed.contains(i)).collect();
        let mut rebuilt = base.select(&survivors);
        rebuilt.append(&added).unwrap();
        let fresh = SessionBuilder::dense(rebuilt, TrainerConfig::from_hyper(hyper()))
            .fit()
            .unwrap();
        let reference = fresh.update(Method::ClosedForm, &[]).unwrap();
        let cmp = compare_models(&reference.model, &outcome.model).unwrap();
        assert!(cmp.l2_distance < 1e-7, "distance {}", cmp.l2_distance);
    }

    #[test]
    fn added_rows_can_be_deleted_through_the_ordinary_path() {
        // Rows appended by one delta flow through deflation like any other
        // sample in the next delta.
        let session = linear_session();
        let chained = session
            .apply_delta(
                Method::Priu,
                &Delta::addition(DeltaRows::Dense(linear_added_rows(20, 51))),
            )
            .unwrap();
        assert_eq!(chained.session.num_samples(), 320);
        // Delete a mix of original and freshly appended rows.
        let second = chained
            .session
            .apply(Method::Priu, &[10, 305, 319])
            .unwrap();
        assert_eq!(second.session.num_samples(), 317);
        let retrained = second.session.update(Method::Retrain, &[]).unwrap();
        let cmp = compare_models(&retrained.model, second.session.model()).unwrap();
        assert!(cmp.l2_distance < 1e-7, "distance {}", cmp.l2_distance);
    }

    #[test]
    fn delta_validation_rejects_mismatched_rows() {
        use priu_data::dataset::{Labels, SparseDataset};
        use priu_linalg::{CsrMatrix, Matrix, Vector};

        let session = linear_session();
        // Wrong width.
        let narrow = generate_regression(&RegressionConfig {
            num_samples: 5,
            num_features: 3,
            seed: 61,
            ..Default::default()
        });
        assert!(matches!(
            session.update_delta(Method::Priu, &Delta::addition(DeltaRows::Dense(narrow))),
            Err(CoreError::InvalidConfig(_))
        ));
        // Wrong label kind for the task.
        let labelled = generate_binary_classification(&ClassificationConfig {
            num_samples: 5,
            num_features: 6,
            separation: 3.0,
            seed: 62,
            ..Default::default()
        });
        assert!(matches!(
            session.update_delta(Method::Priu, &Delta::addition(DeltaRows::Dense(labelled))),
            Err(CoreError::LabelMismatch { .. })
        ));
        // Sparse rows into a dense session.
        let sparse_rows = SparseDataset::new(
            CsrMatrix::from_dense(&Matrix::from_fn(2, 6, |i, j| (i + j) as f64)),
            Labels::Binary(Vector::from_vec(vec![1.0, -1.0])),
        );
        assert!(matches!(
            session.update_delta(
                Method::Priu,
                &Delta::addition(DeltaRows::Sparse(sparse_rows))
            ),
            Err(CoreError::InvalidConfig(_))
        ));

        // Dense rows into a sparse session.
        let sparse_session = {
            let data = generate_sparse_binary(&SparseConfig {
                num_samples: 100,
                num_features: 80,
                nnz_per_row: 8,
                informative_fraction: 0.2,
                seed: 63,
            });
            let mut h = hyper();
            h.learning_rate = 0.3;
            SessionBuilder::sparse(data, TrainerConfig::from_hyper(h))
                .fit()
                .unwrap()
        };
        let dense_rows = generate_regression(&RegressionConfig {
            num_samples: 2,
            num_features: 80,
            seed: 64,
            ..Default::default()
        });
        assert!(matches!(
            sparse_session
                .update_delta(Method::Priu, &Delta::addition(DeltaRows::Dense(dense_rows))),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn multinomial_sessions_fit_through_the_builder() {
        let session = multinomial_session();
        assert_eq!(
            session.task(),
            TaskKind::MulticlassClassification { num_classes: 3 }
        );
        let removed = random_subsets(400, 0.02, 1, 3)[0].clone();
        let priu = session.update(Method::Priu, &removed).unwrap();
        let retrain = session.update(Method::Retrain, &removed).unwrap();
        let cmp = compare_models(&retrain.model, &priu.model).unwrap();
        assert!(cmp.cosine_similarity > 0.99);
    }

    /// Encodes `e` after `corrupt` changed it, and decodes the blob.
    fn decode_corrupted<F: Family>(
        e: &Engine<F>,
        corrupt: impl FnOnce(&mut Engine<F>),
    ) -> Result<Session> {
        let mut e = e.clone();
        corrupt(&mut e);
        let mut w = SnapshotWriter::new();
        e.put(&mut w);
        Session::from_snapshot_bytes(&w.into_bytes())
    }

    /// A cache missing, or one moved onto a batch of another size, fails
    /// at decode; the untouched engine decodes.
    fn assert_decode_rejects_misplaced_caches<F: Family>(e: &Engine<F>) {
        assert!(decode_corrupted(e, |_| {}).is_ok());
        let short = decode_corrupted(e, |e| drop(e.provenance.caches_mut().pop()));
        assert!(matches!(short, Err(CoreError::Snapshot(_))), "{short:?}");
        let schedule = e.provenance.schedule();
        let len = |t| schedule.batch_len(t);
        let other = (1..schedule.num_iterations()).find(|&t| len(t) != len(0));
        let other = other.expect("a successor's batches differ in size");
        let swapped = decode_corrupted(e, |e| e.provenance.caches_mut().swap(0, other));
        assert!(
            matches!(swapped, Err(CoreError::Snapshot(_))),
            "{swapped:?}"
        );
    }

    /// Asserts that `successor`, the result of `delta` on `parent`, shares
    /// with it every cache whose batch held no removed row, holds a new
    /// allocation for every other cache and every appended one, and
    /// encodes exactly as the successor of a parent whose caches are all
    /// deep copies.
    fn assert_shares_untouched_caches<F: Family>(
        parent: &Engine<F>,
        successor: &Engine<F>,
        delta: &Delta,
    ) {
        let schedule = parent.provenance.schedule();
        let (before, after) = (parent.provenance.caches(), successor.provenance.caches());
        let mut touched = 0;
        for (t, (old, new)) in before.iter().zip(after).enumerate() {
            let hit = schedule.batch(t).iter().any(|i| delta.removed.contains(i));
            touched += usize::from(hit);
            assert_eq!(Arc::ptr_eq(old, new), !hit, "{}: iteration {t}", F::SESSION);
        }
        assert_eq!(touched > 0, !delta.removed.is_empty(), "{}", F::SESSION);
        let appended = &after[before.len()..];
        assert_eq!(
            appended.is_empty(),
            delta.num_added() == 0,
            "{}",
            F::SESSION
        );
        for new in appended {
            assert!(before.iter().all(|old| !Arc::ptr_eq(old, new)));
        }

        let mut copied = parent.clone();
        for cache in copied.provenance.caches_mut() {
            *cache = Arc::new(F::Cache::clone(cache));
        }
        let copied = F::into_session(copied);
        let from_copies = copied.apply_delta(Method::Priu, delta).unwrap().session;
        assert_eq!(
            F::into_session(successor.clone()).to_snapshot_bytes(),
            from_copies.to_snapshot_bytes(),
            "{}",
            F::SESSION
        );
    }

    #[test]
    fn successors_share_the_caches_their_delta_left_alone() {
        let cases = [
            (linear_session(), DeltaRows::Dense(linear_added_rows(1, 91))),
            (binary_session(), DeltaRows::Dense(binary_added_rows(1, 92))),
            (
                multinomial_session(),
                DeltaRows::Dense(multinomial_added_rows(1, 93)),
            ),
            (
                sparse_session(),
                DeltaRows::Sparse(sparse_added_rows(1, 94)),
            ),
        ];
        for (session, added) in cases {
            for delta in [Delta::removal(&[7]), Delta::addition(added.clone())] {
                let successor = session.apply_delta(Method::Priu, &delta).unwrap().session;
                match (&session, &successor) {
                    (Session::Linear(p), Session::Linear(s)) => {
                        assert_shares_untouched_caches(p, s, &delta)
                    }
                    (Session::Logistic(p), Session::Logistic(s)) => {
                        assert_shares_untouched_caches(p, s, &delta)
                    }
                    (Session::SparseLogistic(p), Session::SparseLogistic(s)) => {
                        assert_shares_untouched_caches(p, s, &delta)
                    }
                    _ => panic!("a successor keeps its parent's family"),
                }
            }
        }
    }

    #[test]
    fn decode_rejects_caches_that_disagree_with_the_schedule() {
        let sessions = [
            linear_session(),
            binary_session(),
            multinomial_session(),
            sparse_session(),
        ];
        for session in sessions {
            // A successor's explicit batches lost different numbers of rows.
            let removed: Vec<usize> = (0..session.num_samples()).step_by(5).collect();
            match session.apply(Method::Priu, &removed).unwrap().session {
                Session::Linear(e) => {
                    assert_decode_rejects_misplaced_caches(&e);
                    // Closed form solves with the view, so it must be there.
                    let viewless = decode_corrupted(&e, |e| e.provenance.normal = None);
                    assert!(matches!(viewless, Err(CoreError::Snapshot(_))));
                }
                Session::Logistic(e) => assert_decode_rejects_misplaced_caches(&e),
                Session::SparseLogistic(e) => assert_decode_rejects_misplaced_caches(&e),
            }
        }
    }
}
