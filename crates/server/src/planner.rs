//! The admission + coalescing batch planner.
//!
//! Per-user change requests — deletions, additions, sliding-window ticks —
//! arrive one row (or a few rows) at a time; the engines' `apply_delta`
//! takes an arbitrary bidirectional [`Delta`] and its cost is heavily
//! sub-linear in the change-set size (one downdate/update pass instead of
//! N). The planner therefore *coalesces*: requests for one session
//! accumulate in a FIFO queue and are folded into a single batched delta
//! when any of
//!
//! * the oldest pending request has waited the **coalescing window**,
//! * the folded change set (removal union + appended rows) reaches the
//!   **max batch size**,
//! * a flush was requested (or the server is shutting down)
//!
//! holds. The removal side is plain set union over *stable row ids*
//! (assigned monotonically, never reused — unlike current row indices,
//! which shift whenever an earlier row is removed); the addition side
//! concatenates appended rows in FIFO admission order. The resulting batch
//! is applied as **one** `apply_delta` call, so its outcome is *identical*
//! to a single apply with the union delta — not merely close, the same
//! call. Duplicate ids across requests dedup; ids already deleted are
//! counted per request as `stale` and acknowledged without work; `Tick`
//! retention windows fold by minimum.
//!
//! The default window is zero, so a queue is ready whenever the applier
//! looks at it: a lone request goes out on the applier's next pass, and a
//! batch is whatever arrived while the applier was busy with its previous
//! pass (fsync, stage, finish), capped by `max_batch`. The batch grows with
//! the backlog, not with a clock — classic group commit. A positive window
//! holds a queue back until its oldest request has waited that long.
//!
//! A pass takes at most one batch per session, so the applier resolves
//! each batch against the state the session's previous batch committed.
//!
//! [`Delta`]: priu_core::Delta

use std::collections::{BTreeSet, HashMap};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

use priu_core::Method;

use crate::error::{Result, ServerError};

/// Planner tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    /// How long the oldest pending request of a session waits for company
    /// before its queue is ready. A queue is ready when its oldest request
    /// was admitted at least `window` before the applier looks at it (or
    /// when `max_batch` or a flush forces it). `ZERO`, the default, makes
    /// every queue ready as soon as the applier looks: nothing waits on a
    /// timer, and a batch holds whatever queued up while the applier was
    /// busy with its previous pass.
    pub window: Duration,
    /// Union size that forces a batch out early. A single request larger
    /// than this still forms one batch — requests are never split.
    pub max_batch: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            window: Duration::ZERO,
            max_batch: 256,
        }
    }
}

/// Rows one request appends: a row-major dense block plus one label per
/// row (interpreted against the session's task at apply time).
#[derive(Debug, Clone, PartialEq)]
pub struct AddedRows {
    /// Feature width of every row.
    pub num_features: usize,
    /// Row-major features, `labels.len() * num_features` values.
    pub features: Vec<f64>,
    /// One label per row.
    pub labels: Vec<f64>,
}

impl AddedRows {
    /// Number of rows in the block.
    pub fn num_rows(&self) -> usize {
        self.labels.len()
    }
}

/// What a change request learns once its batch has been applied.
#[derive(Debug, Clone)]
pub struct BatchReply {
    /// Distinct rows this request asked to delete.
    pub requested: usize,
    /// How many of them were live and removed by the batch.
    pub applied: usize,
    /// How many were already gone (acknowledged without work).
    pub stale: usize,
    /// Rows this request appended.
    pub added: usize,
    /// Rows the batch's sliding-window retention expired (batch-level:
    /// expiry is a property of the whole coalesced batch, not of one
    /// request).
    pub expired: usize,
    /// Distinct rows the whole coalesced batch removed (deletions plus
    /// retention expiry).
    pub batch_rows: usize,
    /// The method the scheduler picked (`None` when the batch changed
    /// nothing and no engine call ran).
    pub method: Option<Method>,
    /// Engine-measured seconds of the online update (0 when nothing ran).
    pub seconds: f64,
    /// The epoch the batch commits at; predicts report it from the ack
    /// on.
    pub epoch: u64,
}

/// A waiter on an enqueued deletion request; resolves when the coalesced
/// batch containing the request is durable and its model is served to
/// predicts.
#[derive(Debug)]
pub struct DeleteTicket {
    rx: Receiver<Result<BatchReply>>,
}

impl DeleteTicket {
    /// Blocks until the batch is applied.
    ///
    /// # Errors
    /// The batch's failure, or [`ServerError::ShuttingDown`] when the
    /// server died without resolving the ticket.
    pub fn wait(self) -> Result<BatchReply> {
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => Err(ServerError::ShuttingDown),
        }
    }
}

/// One enqueued change request: deletions, appended rows, and/or a
/// sliding-window retention bound.
#[derive(Debug)]
pub(crate) struct PendingChange {
    /// Stable row ids the request wants gone (possibly with duplicates).
    pub ids: Vec<u64>,
    /// Rows the request appends.
    pub added: Option<AddedRows>,
    /// Retention window (`Tick`): retain at most this many rows after the
    /// batch commits.
    pub keep_last: Option<u64>,
    /// Admission time; the coalescing window counts from the oldest one.
    pub enqueued: Instant,
    /// Resolution channel of the request's [`DeleteTicket`].
    pub reply: Sender<Result<BatchReply>>,
}

impl PendingChange {
    /// Rows this request appends.
    pub(crate) fn num_added(&self) -> usize {
        self.added.as_ref().map_or(0, AddedRows::num_rows)
    }
}

/// A batch the planner has decided to apply now.
#[derive(Debug)]
pub(crate) struct ReadyBatch {
    /// The session the batch belongs to.
    pub session: String,
    /// The folded requests, FIFO order; each is answered individually.
    /// Appended rows are consumed in this order, so the batch delta is the
    /// FIFO concatenation of every request's additions.
    pub requests: Vec<PendingChange>,
    /// Sorted distinct stable ids — the union removal set.
    pub union: Vec<u64>,
    /// The tightest retention window among the folded requests (`Tick`
    /// windows fold by minimum).
    pub keep_last: Option<u64>,
}

impl ReadyBatch {
    /// Total rows the batch appends, across every folded request.
    pub fn num_added(&self) -> usize {
        self.requests.iter().map(PendingChange::num_added).sum()
    }
}

#[derive(Debug, Default)]
struct SessionQueue {
    pending: Vec<PendingChange>,
    flush: bool,
}

impl SessionQueue {
    /// Distinct removal ids plus appended rows over every pending request.
    fn change_set(&self) -> usize {
        let ids: BTreeSet<u64> = self
            .pending
            .iter()
            .flat_map(|r| r.ids.iter().copied())
            .collect();
        let added: usize = self.pending.iter().map(PendingChange::num_added).sum();
        ids.len() + added
    }
}

/// The planner's mutable state; the server guards it with one mutex +
/// condvar pair (admission signals the applier through that condvar).
#[derive(Debug, Default)]
pub(crate) struct PlannerState {
    queues: HashMap<String, SessionQueue>,
}

impl PlannerState {
    /// Admits a deletion-only request, returning the ticket its submitter
    /// waits on.
    #[cfg(test)]
    pub fn enqueue(&mut self, session: &str, ids: Vec<u64>) -> DeleteTicket {
        self.enqueue_change(session, ids, None, None)
    }

    /// Admits a general change request — deletions, appended rows, and/or
    /// a retention window — returning the ticket its submitter waits on.
    pub fn enqueue_change(
        &mut self,
        session: &str,
        ids: Vec<u64>,
        added: Option<AddedRows>,
        keep_last: Option<u64>,
    ) -> DeleteTicket {
        let (tx, rx) = channel();
        self.queues
            .entry(session.to_string())
            .or_default()
            .pending
            .push(PendingChange {
                ids,
                added,
                keep_last,
                enqueued: Instant::now(),
                reply: tx,
            });
        DeleteTicket { rx }
    }

    /// Marks one session's queue for immediate batching.
    pub fn flush(&mut self, session: &str) {
        if let Some(queue) = self.queues.get_mut(session) {
            queue.flush = true;
        }
    }

    /// Marks every queue for immediate batching (shutdown drain).
    pub fn flush_all(&mut self) {
        for queue in self.queues.values_mut() {
            queue.flush = true;
        }
    }

    /// Pending request count for one session.
    pub fn pending(&self, session: &str) -> usize {
        self.queues.get(session).map_or(0, |q| q.pending.len())
    }

    /// Whether no request is pending anywhere.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.queues.values().all(|q| q.pending.is_empty())
    }

    /// The earliest instant at which some queue becomes window-ready; the
    /// applier sleeps until then. `None` when nothing is pending.
    pub fn next_deadline(&self, cfg: &PlannerConfig) -> Option<Instant> {
        self.queues
            .values()
            .filter_map(|q| q.pending.first())
            .map(|oldest| oldest.enqueued + cfg.window)
            .min()
    }

    /// Takes every batch that is ready at `now`, at most one per session,
    /// in session-name order (deterministic fan-out). A ready queue folds
    /// FIFO requests until the change set — removal union plus appended
    /// rows — would exceed `max_batch` (a single oversized request still
    /// forms one batch); the remainder stays queued — and stays ready, so
    /// the applier picks it up on its next pass.
    pub fn take_ready(&mut self, now: Instant, cfg: &PlannerConfig) -> Vec<ReadyBatch> {
        let mut names: Vec<&String> = self
            .queues
            .iter()
            .filter(|(_, q)| !q.pending.is_empty())
            .map(|(name, _)| name)
            .collect();
        names.sort();
        let names: Vec<String> = names.into_iter().cloned().collect();

        let mut batches = Vec::new();
        for name in names {
            let queue = self.queues.get_mut(&name).expect("listed above");
            let window_ready = queue
                .pending
                .first()
                .is_some_and(|oldest| oldest.enqueued + cfg.window <= now);
            // The whole queue's change set is only counted when neither a
            // flush nor the window already made the queue ready.
            let ready = queue.flush || window_ready || queue.change_set() >= cfg.max_batch;
            if !ready {
                continue;
            }

            // Fold FIFO, growing the union in place: a request joins when
            // its new distinct ids plus everything appended so far stay
            // within `max_batch` (the first request always joins).
            let mut union = BTreeSet::new();
            let mut added = 0;
            let mut take = 0;
            for request in &queue.pending {
                let fresh: BTreeSet<u64> = request
                    .ids
                    .iter()
                    .copied()
                    .filter(|id| !union.contains(id))
                    .collect();
                let grown = union.len() + fresh.len() + added + request.num_added();
                if take > 0 && grown > cfg.max_batch {
                    break;
                }
                union.extend(fresh);
                added += request.num_added();
                take += 1;
            }
            let requests: Vec<PendingChange> = queue.pending.drain(..take).collect();
            if queue.pending.is_empty() {
                queue.flush = false;
            }
            let keep_last = requests.iter().filter_map(|r| r.keep_last).min();
            batches.push(ReadyBatch {
                session: name,
                requests,
                union: union.into_iter().collect(),
                keep_last,
            });
        }
        batches
    }

    /// Fails every pending request with [`ServerError::ShuttingDown`]
    /// (server teardown after the drain window).
    pub fn fail_all(&mut self) {
        for queue in self.queues.values_mut() {
            for request in queue.pending.drain(..) {
                let _ = request.reply.send(Err(ServerError::ShuttingDown));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(window_ms: u64, max_batch: usize) -> PlannerConfig {
        PlannerConfig {
            window: Duration::from_millis(window_ms),
            max_batch,
        }
    }

    #[test]
    fn window_gates_batching_and_flush_overrides_it() {
        let mut state = PlannerState::default();
        let long = cfg(120_000, 100);
        let _t1 = state.enqueue("s", vec![3]);
        let _t2 = state.enqueue("s", vec![1, 3]);
        assert_eq!(state.pending("s"), 2);
        // Window far away: nothing ready, deadline is oldest + window.
        assert!(state.take_ready(Instant::now(), &long).is_empty());
        assert!(state.next_deadline(&long).unwrap() > Instant::now());
        // Flush forces the fold: one batch, union deduplicated and sorted.
        state.flush("s");
        let batches = state.take_ready(Instant::now(), &long);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].session, "s");
        assert_eq!(batches[0].requests.len(), 2);
        assert_eq!(batches[0].union, vec![1, 3]);
        assert!(state.is_empty());
        assert!(state.next_deadline(&long).is_none());

        // Zero window: ready immediately.
        let zero = cfg(0, 100);
        let _t3 = state.enqueue("s", vec![9]);
        let batches = state.take_ready(Instant::now(), &zero);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].union, vec![9]);
    }

    #[test]
    fn max_batch_caps_the_union_without_splitting_requests() {
        let mut state = PlannerState::default();
        let config = cfg(120_000, 4);
        let _tickets: Vec<DeleteTicket> = vec![
            state.enqueue("s", vec![0, 1]),
            state.enqueue("s", vec![1, 2]), // overlaps: union stays small
            state.enqueue("s", vec![3, 4]),
            state.enqueue("s", vec![5]),
        ];
        // Union of all pending = {0..5} ≥ max_batch → ready without window.
        let batches = state.take_ready(Instant::now(), &config);
        assert_eq!(batches.len(), 1);
        // Folding stops before request 2 ({3,4}) would push past 4 distinct.
        assert_eq!(batches[0].requests.len(), 2);
        assert_eq!(batches[0].union, vec![0, 1, 2]);
        assert_eq!(state.pending("s"), 2);

        // A single oversized request still forms one (oversized) batch.
        let _t = state.enqueue("s", vec![10, 11, 12, 13, 14, 15]);
        state.flush("s");
        let batches = state.take_ready(Instant::now(), &config);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].union, vec![3, 4, 5]);
        // Flush sticks until the queue drains: the oversized leftover goes
        // out on the next pass, unsplit.
        let batches = state.take_ready(Instant::now(), &config);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].union.len(), 6);
        assert!(state.is_empty());
    }

    #[test]
    fn overlapping_ids_straddling_max_batch_fold_like_the_union() {
        let mut state = PlannerState::default();
        let config = cfg(120_000, 4);
        let _tickets: Vec<DeleteTicket> = vec![
            state.enqueue("s", vec![0, 1]),
            state.enqueue("s", vec![1, 2, 2]), // one new id
            state.enqueue("s", vec![3, 3, 0]), // one new id, named twice: at the cap
            state.enqueue("s", vec![3, 1]),    // nothing new: still fits
            state.enqueue("s", vec![3, 4]),    // 4 is new: would be 5 > cap
            state.enqueue("s", vec![5]),
        ];
        let batches = state.take_ready(Instant::now(), &config);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].requests.len(), 4);
        assert_eq!(batches[0].union, vec![0, 1, 2, 3]);
        // The remainder's change set {3, 4, 5} is under the cap.
        assert_eq!(state.pending("s"), 2);
        assert!(state.take_ready(Instant::now(), &config).is_empty());
        state.flush("s");
        let batches = state.take_ready(Instant::now(), &config);
        assert_eq!(batches[0].union, vec![3, 4, 5]);

        // Appended rows count on top of the union: a request whose ids are
        // all folded already still joins when its rows fit.
        let _tickets: Vec<DeleteTicket> = vec![
            state.enqueue("s", vec![6, 7]),
            state.enqueue_change("s", vec![7, 6], Some(rows(2)), None),
            state.enqueue("s", vec![8]),
        ];
        let batches = state.take_ready(Instant::now(), &config);
        assert_eq!(batches[0].requests.len(), 2);
        assert_eq!(batches[0].union, vec![6, 7]);
        assert_eq!(batches[0].num_added(), 2);
        assert_eq!(state.pending("s"), 1);
    }

    /// Folds the way the planner did before it grew the union in place:
    /// a fresh union per candidate request.
    fn reference_fold(queue: &[PendingChange], max_batch: usize) -> (usize, Vec<u64>) {
        let mut union = BTreeSet::new();
        let mut added = 0;
        let mut take = 0;
        for request in queue {
            let mut grown = union.clone();
            grown.extend(request.ids.iter().copied());
            if take > 0 && grown.len() + added + request.num_added() > max_batch {
                break;
            }
            union = grown;
            added += request.num_added();
            take += 1;
        }
        (take, union.into_iter().collect())
    }

    #[test]
    fn incremental_fold_matches_the_reference_fold_over_seeded_queues() {
        for seed in 0..200 {
            let mut rng = priu_rng::Rng64::from_seed(seed);
            let max_batch = 1 + rng.index(12);
            let config = cfg(0, max_batch);
            let mut state = PlannerState::default();
            let mut tickets = Vec::new();
            for _ in 0..1 + rng.index(16) {
                let ids = (0..rng.index(5)).map(|_| rng.index(16) as u64).collect();
                let added = (rng.index(4) == 0).then(|| rows(1 + rng.index(3)));
                tickets.push(state.enqueue_change("s", ids, added, None));
            }
            while state.pending("s") > 0 {
                let expected = reference_fold(&state.queues["s"].pending, max_batch);
                let batches = state.take_ready(Instant::now(), &config);
                assert_eq!(batches.len(), 1, "seed {seed}");
                assert_eq!(
                    (batches[0].requests.len(), batches[0].union.clone()),
                    expected,
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn default_config_readies_a_lone_request_at_once_and_folds_a_backlog() {
        let config = PlannerConfig::default();
        assert_eq!(config.window, Duration::ZERO);
        let mut state = PlannerState::default();
        // A lone request is ready at its own enqueue instant.
        let _lone = state.enqueue("s", vec![7]);
        let enqueued = state.queues["s"].pending[0].enqueued;
        assert_eq!(state.next_deadline(&config), Some(enqueued));
        let batches = state.take_ready(enqueued, &config);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].union, vec![7]);
        assert!(state.is_empty());

        // Requests queued before the applier looks fold into one batch,
        // up to `max_batch`; the rest goes out on the next look.
        let extra = 3;
        let total = (config.max_batch + extra) as u64;
        let _backlog: Vec<DeleteTicket> =
            (0..total).map(|id| state.enqueue("s", vec![id])).collect();
        let batches = state.take_ready(Instant::now(), &config);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].requests.len(), config.max_batch);
        assert_eq!(
            batches[0].union,
            (0..config.max_batch as u64).collect::<Vec<_>>()
        );
        let batches = state.take_ready(Instant::now(), &config);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].requests.len(), extra);
        assert!(state.is_empty());
    }

    #[test]
    fn sessions_batch_independently_and_sort_deterministically() {
        let mut state = PlannerState::default();
        let config = cfg(0, 100);
        let _b = state.enqueue("b", vec![2]);
        let _a = state.enqueue("a", vec![1]);
        let batches = state.take_ready(Instant::now(), &config);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].session, "a");
        assert_eq!(batches[1].session, "b");
    }

    fn rows(n: usize) -> AddedRows {
        AddedRows {
            num_features: 2,
            features: vec![0.0; n * 2],
            labels: vec![1.0; n],
        }
    }

    #[test]
    fn mixed_requests_fold_into_one_batch_with_min_retention() {
        let mut state = PlannerState::default();
        let config = cfg(0, 100);
        let _a = state.enqueue("s", vec![3, 5]);
        let _b = state.enqueue_change("s", vec![], Some(rows(4)), None);
        let _c = state.enqueue_change("s", vec![5, 9], Some(rows(2)), Some(120));
        let _d = state.enqueue_change("s", vec![], None, Some(100));
        let batches = state.take_ready(Instant::now(), &config);
        assert_eq!(batches.len(), 1);
        let batch = &batches[0];
        assert_eq!(batch.requests.len(), 4);
        assert_eq!(batch.union, vec![3, 5, 9]);
        assert_eq!(batch.num_added(), 6);
        // Tick windows fold by minimum: the tightest retention governs.
        assert_eq!(batch.keep_last, Some(100));
        assert!(state.is_empty());
    }

    #[test]
    fn added_rows_count_toward_the_batch_cap() {
        let mut state = PlannerState::default();
        let config = cfg(120_000, 4);
        let _a = state.enqueue_change("s", vec![0, 1], Some(rows(1)), None);
        let _b = state.enqueue_change("s", vec![], Some(rows(3)), None);
        // Change set = 2 removals + 4 additions ≥ max_batch → ready without
        // the window; folding stops before the second request would push
        // the set past the cap.
        let batches = state.take_ready(Instant::now(), &config);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].requests.len(), 1);
        assert_eq!(batches[0].num_added(), 1);
        assert_eq!(batches[0].union, vec![0, 1]);
        assert_eq!(state.pending("s"), 1);
    }

    #[test]
    fn fail_all_resolves_tickets_with_shutting_down() {
        let mut state = PlannerState::default();
        let ticket = state.enqueue("s", vec![1]);
        state.fail_all();
        assert!(matches!(ticket.wait(), Err(ServerError::ShuttingDown)));
        // A ticket whose sender is dropped resolves the same way.
        let ticket = state.enqueue("s", vec![2]);
        state.queues.clear();
        assert!(matches!(ticket.wait(), Err(ServerError::ShuttingDown)));
    }
}
