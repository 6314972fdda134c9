//! The session registry: named tenant × model sessions, each holding one
//! [`SlotState`] behind a read/write lock.
//!
//! # Locking model
//!
//! * **Predictions** take the slot's state lock in *read* mode only long
//!   enough to clone the `Arc<Session>` pointer and the epoch, then compute
//!   on that immutable snapshot lock-free. An in-flight batch never
//!   blocks a prediction, no matter how long its engine call runs.
//! * **Batches** are computed by the server's applier pass, the only
//!   writer of slot state: it runs [`DeletionEngine::apply_delta`] on the
//!   snapshot *outside* the lock and commits with one
//!   [`SlotState::advance`] plus the `Arc` swap under a brief *write*
//!   lock. A pass commits each session from exactly one task, so no
//!   per-slot gate is needed.
//!
//! A predict observes either the pre-batch or the post-batch session —
//! never a torn intermediate.
//!
//! **Lock order** (deadlock freedom): registry map lock ≺ slot state
//! lock. The map lock is never held while acquiring a slot lock —
//! callers clone the `Arc<SessionSlot>` out of the map first.
//!
//! # One transition
//!
//! [`SlotState::resolve`] and [`SlotState::advance`] are the whole
//! bookkeeping of an update: id translation, retention expiry, survivor
//! ids, fresh ids, epoch and drift. The live commit, the applier's chain
//! speculation (on a scratch clone) and recovery redo all call them, so
//! a speculated state is the committed state by construction.
//!
//! [`DeletionEngine::apply_delta`]: priu_core::DeletionEngine::apply_delta

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use priu_core::{DeletionEngine, Session};

use crate::error::{Result, ServerError};
use crate::planner::ReadyBatch;

/// Everything that defines a slot: the current session snapshot plus the
/// bookkeeping each committed batch advances. Snapshots persist exactly
/// these fields, so a restored slot is bit-identical to the live one.
#[derive(Debug, Clone)]
pub(crate) struct SlotState {
    /// The current session; replaced wholesale on batch commit.
    pub session: Arc<Session>,
    /// Stable row id of each current row, ascending (registration assigns
    /// `0..n`; survivors keep their ids across batches; appended rows get
    /// fresh ids from `next_id`). Requests address rows by stable id, so
    /// ids stay valid while current indices shift under coalesced
    /// deletions.
    pub ids: Vec<u64>,
    /// The next stable id to assign. Strictly monotonic: every id ever
    /// handed out is `< next_id`, so a retired id is never reallocated —
    /// a delete request that races a sliding window can therefore never
    /// remove a *different* row than the one it named.
    pub next_id: u64,
    /// Bumped once per committed batch; predictions report the epoch of
    /// the snapshot they used.
    pub epoch: u64,
    /// Sample count at registration — the denominator of the drift ratio.
    pub initial_samples: usize,
    /// Rows removed by incremental methods since the last full retrain
    /// (reset when a batch commits with `Method::Retrain`).
    pub removed_since_refit: usize,
}

/// A batch resolved against a [`SlotState`].
#[derive(Debug)]
pub(crate) struct Resolution {
    /// Removal row indices into the state, ascending and distinct:
    /// requested ids still present plus retention expiry.
    pub rows: Vec<usize>,
    /// How many of `rows` the retention window expired.
    pub expired: usize,
    /// Per request `(distinct ids requested, ids present)`.
    pub acks: Vec<(usize, usize)>,
}

impl SlotState {
    /// The state of a freshly registered session: ids `0..n`, epoch 0.
    pub(crate) fn new(session: Session) -> Self {
        let n = session.num_samples();
        Self {
            session: Arc::new(session),
            ids: (0..n as u64).collect(),
            next_id: n as u64,
            epoch: 0,
            initial_samples: n,
            removed_since_refit: 0,
        }
    }

    /// The drift ratio after `removed` more incremental removals: rows
    /// removed since the last refit over registration-time rows.
    pub(crate) fn drift_after(&self, removed: usize) -> f64 {
        if self.initial_samples == 0 {
            0.0
        } else {
            (self.removed_since_refit + removed) as f64 / self.initial_samples as f64
        }
    }

    /// Resolves a batch against this state: translates its union of
    /// stable ids to row indices (ids already gone are stale), applies
    /// its retention window, and counts what each request will see.
    ///
    /// The window is resolved against the pre-batch id list: if more
    /// than `keep_last` rows would remain after the batch's deletions and
    /// additions, the oldest pre-existing rows (lowest stable ids — the
    /// map is ascending) not already deleted expire, never rows the batch
    /// appends, clamped so at least one pre-existing row survives.
    pub(crate) fn resolve(&self, batch: &ReadyBatch) -> Resolution {
        let mut removal: BTreeSet<usize> = batch
            .union
            .iter()
            .filter_map(|id| self.ids.binary_search(id).ok())
            .collect();
        let mut expired = 0;
        if let Some(keep) = batch.keep_last {
            let pre_survivors = self.ids.len() - removal.len();
            let over = (pre_survivors + batch.num_added()).saturating_sub(keep as usize);
            let to_expire = over.min(pre_survivors.saturating_sub(1));
            let mut ix = 0;
            while expired < to_expire {
                if removal.insert(ix) {
                    expired += 1;
                }
                ix += 1;
            }
        }
        let acks = batch
            .requests
            .iter()
            .map(|request| {
                let distinct: BTreeSet<u64> = request.ids.iter().copied().collect();
                let applied = distinct
                    .iter()
                    .filter(|id| self.ids.binary_search(id).is_ok())
                    .count();
                (distinct.len(), applied)
            })
            .collect();
        Resolution {
            rows: removal.into_iter().collect(),
            expired,
            acks,
        }
    }

    /// Advances the bookkeeping past one committed batch: the rows at
    /// `rows` (ascending indices) retire, `num_added` appended rows take
    /// fresh ids after the survivors, the epoch bumps, and the drift
    /// counter accumulates — or resets when `refit` (a full retrain
    /// re-anchors the model on the survivors). The session itself is the
    /// caller's to swap.
    ///
    /// # Panics
    /// If a surviving id was never assigned: fresh ids come from the
    /// strictly monotonic `next_id` counter, so every id must be below it
    /// — the invariant that makes retired ids unreusable.
    pub(crate) fn advance(&mut self, rows: &[usize], num_added: usize, refit: bool) {
        let mut retiring = rows.iter().copied().peekable();
        let mut ix = 0;
        self.ids.retain(|_| {
            let retire = retiring.next_if_eq(&ix).is_some();
            ix += 1;
            !retire
        });
        if let Some(&max) = self.ids.last() {
            assert!(
                max < self.next_id,
                "stable id {max} was never assigned (next_id {})",
                self.next_id
            );
        }
        self.ids
            .extend(self.next_id..self.next_id + num_added as u64);
        self.next_id += num_added as u64;
        self.epoch += 1;
        self.removed_since_refit = if refit {
            0
        } else {
            self.removed_since_refit + rows.len()
        };
    }
}

/// A registered session: the unit the registry hands out. See the module
/// docs for the locking model.
#[derive(Debug)]
pub struct SessionSlot {
    state: RwLock<SlotState>,
}

impl SessionSlot {
    fn read(&self) -> std::sync::RwLockReadGuard<'_, SlotState> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// A copy of the whole slot state in one shared acquisition — the
    /// base of a chain's speculation and of every snapshot.
    pub(crate) fn state(&self) -> SlotState {
        self.read().clone()
    }

    /// The shared grant: the current session snapshot and its epoch. The
    /// lock is held only for the pointer clone; computation on the
    /// returned session proceeds without blocking writers.
    pub fn snapshot(&self) -> (Arc<Session>, u64) {
        let state = self.read();
        (state.session.clone(), state.epoch)
    }

    /// The epoch of the current snapshot (bumped once per committed batch).
    pub fn epoch(&self) -> u64 {
        self.read().epoch
    }

    /// Rows removed incrementally since the last full retrain, as a
    /// fraction of the registration-time sample count — the accumulated
    /// drift the scheduler folds into its retrain decision.
    pub fn drift(&self) -> f64 {
        self.read().drift_after(0)
    }

    /// Commits a batch: one [`SlotState::advance`] on the live state and
    /// the swap to the successor session, under one write lock. Returns
    /// the new epoch.
    pub(crate) fn commit(
        &self,
        session: Arc<Session>,
        rows: &[usize],
        num_added: usize,
        refit: bool,
    ) -> u64 {
        let mut state = self.state.write().unwrap_or_else(PoisonError::into_inner);
        state.advance(rows, num_added, refit);
        state.session = session;
        state.epoch
    }
}

/// The registry of named sessions (tenant × model → slot).
#[derive(Debug, Default)]
pub struct SessionRegistry {
    slots: Mutex<HashMap<String, Arc<SessionSlot>>>,
}

impl SessionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<String, Arc<SessionSlot>>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a fitted session under `name`, assigning stable row ids
    /// `0..n`.
    ///
    /// # Errors
    /// [`ServerError::SessionExists`] if the name is taken.
    pub fn register(&self, name: &str, session: Session) -> Result<Arc<SessionSlot>> {
        self.register_state(name, SlotState::new(session))
    }

    /// Registers a slot with the given state — a fresh one, or one
    /// restored from a snapshot plus redo on recovery.
    ///
    /// # Errors
    /// [`ServerError::SessionExists`] if the name is taken.
    pub(crate) fn register_state(&self, name: &str, state: SlotState) -> Result<Arc<SessionSlot>> {
        let slot = Arc::new(SessionSlot {
            state: RwLock::new(state),
        });
        let mut slots = self.lock();
        if slots.contains_key(name) {
            return Err(ServerError::SessionExists(name.to_string()));
        }
        slots.insert(name.to_string(), slot.clone());
        Ok(slot)
    }

    /// The slot registered under `name`.
    ///
    /// # Errors
    /// [`ServerError::UnknownSession`] if nothing is registered.
    pub fn get(&self, name: &str) -> Result<Arc<SessionSlot>> {
        self.lock()
            .get(name)
            .cloned()
            .ok_or_else(|| ServerError::UnknownSession(name.to_string()))
    }

    /// Removes the session registered under `name`. In-flight snapshots
    /// keep the session alive until they drop.
    ///
    /// # Errors
    /// [`ServerError::UnknownSession`] if nothing is registered.
    pub fn remove(&self, name: &str) -> Result<()> {
        self.lock()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| ServerError::UnknownSession(name.to_string()))
    }

    /// Registered session names, sorted (deterministic iteration order for
    /// reports and tests).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered sessions.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no session is registered.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use priu_core::SessionBuilder;
    use priu_core::TrainerConfig;
    use priu_data::catalog::Hyperparameters;
    use priu_data::synthetic::regression::{generate_regression, RegressionConfig};

    fn session(n: usize, seed: u64) -> Session {
        let data = generate_regression(&RegressionConfig {
            num_samples: n,
            num_features: 4,
            seed,
            ..Default::default()
        });
        let hyper = Hyperparameters {
            batch_size: 25,
            num_iterations: 40,
            learning_rate: 0.05,
            regularization: 0.01,
        };
        SessionBuilder::dense(data, TrainerConfig::from_hyper(hyper))
            .seed(1)
            .fit()
            .unwrap()
    }

    #[test]
    fn register_get_remove_round_trip() {
        let registry = SessionRegistry::new();
        assert!(registry.is_empty());
        registry.register("t1/model-a", session(60, 1)).unwrap();
        registry.register("t2/model-b", session(60, 2)).unwrap();
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.names(), vec!["t1/model-a", "t2/model-b"]);
        assert!(matches!(
            registry.register("t1/model-a", session(60, 3)),
            Err(ServerError::SessionExists(_))
        ));
        assert!(registry.get("t1/model-a").is_ok());
        assert!(matches!(
            registry.get("nope"),
            Err(ServerError::UnknownSession(_))
        ));
        registry.remove("t1/model-a").unwrap();
        assert!(matches!(
            registry.remove("t1/model-a"),
            Err(ServerError::UnknownSession(_))
        ));
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn slots_track_epoch_ids_and_drift_across_commits() {
        let mut state = SlotState::new(session(50, 7));
        assert_eq!(state.epoch, 0);
        assert_eq!(state.drift_after(0), 0.0);
        assert_eq!(state.ids, (0..50).collect::<Vec<u64>>());
        assert_eq!(state.initial_samples, 50);

        // Retire current rows {1, 3}: ids 1 and 3 drop out of the id map,
        // drift accumulates.
        state.advance(&[1, 3], 0, false);
        assert_eq!(state.epoch, 1);
        assert_eq!(state.ids.len(), 48);
        assert!(!state.ids.contains(&1) && !state.ids.contains(&3));
        assert!((state.drift_after(0) - 2.0 / 50.0).abs() < 1e-15);

        // A refit resets the drift counter.
        state.advance(&[0], 0, true);
        assert_eq!(state.epoch, 2);
        assert_eq!(state.drift_after(0), 0.0);

        // The live commit is the same transition plus the session swap.
        let registry = SessionRegistry::new();
        let slot = registry.register("s", session(50, 7)).unwrap();
        let (snap, _) = slot.snapshot();
        assert_eq!(slot.commit(snap, &[1, 3], 0, false), 1);
        assert_eq!(slot.epoch(), 1);
        assert_eq!(slot.state().ids.len(), 48);
        assert!((slot.drift() - 2.0 / 50.0).abs() < 1e-15);
    }

    #[test]
    fn retired_ids_are_never_reallocated() {
        let mut state = SlotState::new(session(10, 3));

        // Retire ids {0, 1} and append 3 rows in the same batch: the
        // fresh ids continue from the monotonic counter, skipping nothing
        // and reusing nothing.
        state.advance(&[0, 1], 3, false);
        assert_eq!(state.ids, (2..13).collect::<Vec<u64>>());
        assert_eq!(state.next_id, 13);

        // Retire an appended row (id 10 sits at row 8) and append again:
        // still no reuse — the next fresh id is 13 even though 0, 1 and
        // 10 are free.
        state.advance(&[8], 1, false);
        assert_eq!(*state.ids.last().unwrap(), 13);
        // Every id ever retired stays retired.
        for retired in [0, 1, 10] {
            assert!(!state.ids.contains(&retired));
        }
    }

    #[test]
    #[should_panic(expected = "never assigned")]
    fn committing_an_unassigned_id_panics() {
        // Only a corrupt state can hold an id at or past `next_id`; the
        // commit refuses to build on it.
        let mut state = SlotState::new(session(10, 4));
        state.ids = vec![0, 99];
        let registry = SessionRegistry::new();
        let slot = registry.register_state("s", state).unwrap();
        let (snap, _) = slot.snapshot();
        slot.commit(snap, &[], 0, false);
    }
}
