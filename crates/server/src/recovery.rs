//! Restart recovery: latest valid snapshot per session + WAL suffix redo.
//!
//! # Algorithm
//!
//! 1. Open the WAL, which scans the valid frame prefix and truncates any
//!    torn tail (a torn tail is by construction unacknowledged — the ack
//!    only goes out after the fsync).
//! 2. For every session with a snapshot file, load the newest epoch that
//!    passes magic + CRC + decode, falling back to the previous epoch and
//!    reporting what was skipped.
//! 3. Redo the session's WAL records with `lsn >= covered_lsn`, in LSN
//!    order, through the **same** [`apply_delta`] path the live server
//!    uses, under the same `PRIU_THREADS` × `PRIU_SIMD` pin — which is
//!    what makes the recovered model bitwise identical to the pre-crash
//!    one.
//!
//! Redo never re-derives anything timing-dependent: the record carries
//! the *resolved* removal set (stable ids, retention expiry folded in)
//! and the method the cost model chose. Translation back to row indices
//! is a binary search against the recovered id map; the bookkeeping is
//! the live commit's own [`SlotState::advance`].
//!
//! A record whose apply fails is *skipped, deterministically*: the live
//! server writes the WAL frame before running the engine, so a batch that
//! failed its apply (and answered an error) leaves a record whose redo
//! fails the same way — the skip converges to the live outcome instead of
//! diverging from it.
//!
//! Group commit appends *chains* of speculatively-resolved records before
//! any of them applies; each record carries the LSN of its predecessor in
//! the chain (`prev_lsn`). Live, an apply failure fails every later batch
//! of its chain without applying them — so redo skips transitively: a
//! record whose `prev_lsn` points at a skipped record is itself skipped,
//! exactly as the live chain abandoned it.
//!
//! [`apply_delta`]: priu_core::DeletionEngine::apply_delta

use std::path::Path;
use std::sync::Arc;

use priu_core::{DeletionEngine, Delta, DeltaRows, Method};

use crate::error::Result;
use crate::failpoint::fail_point;
use crate::registry::SlotState;
use crate::server::{dense_added, run_pinned, ServerConfig};
use crate::snapshot::{ensure_store_dirs, list_sessions, load_latest, SkippedSnapshot};
use crate::wal::{Wal, WalRecord};

/// The WAL file inside a durability directory.
pub const WAL_FILE: &str = "deltas.wal";

/// What recovery did for one session.
#[derive(Debug, Clone)]
pub struct SessionRecovery {
    /// The session restored.
    pub session: String,
    /// Epoch of the snapshot recovery started from.
    pub snapshot_epoch: u64,
    /// The LSN the snapshot covered; records at or past it were redone.
    pub covered_lsn: u64,
    /// WAL records successfully redone.
    pub redone: u64,
    /// Records skipped because their apply failed (deterministically —
    /// the live batch failed the same way) or their ids did not resolve;
    /// `(lsn, reason)`.
    pub skipped: Vec<(u64, String)>,
    /// The epoch the session recovered to.
    pub final_epoch: u64,
}

/// The full restart-recovery outcome, kept on the server and queryable
/// over the wire (`Request::Recovery`).
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Per-session outcomes, sorted by session name.
    pub sessions: Vec<SessionRecovery>,
    /// Valid WAL records in the scanned prefix (all sessions).
    pub wal_records: u64,
    /// Rendered torn-tail description, if the WAL did not end cleanly.
    /// The tail was truncated; it contained no acknowledged change.
    pub wal_tail: Option<String>,
    /// Snapshot files that existed but were unusable (corrupt, torn,
    /// wrong magic); recovery fell back past them.
    pub snapshot_skips: Vec<SkippedSnapshot>,
    /// WAL records naming a session with no usable snapshot — nothing to
    /// redo onto. Zero unless a snapshot set was lost or corrupted
    /// wholesale (registration writes a baseline snapshot before any WAL
    /// record for the session can exist).
    pub orphan_records: u64,
}

/// Everything recovery hands the starting server: the restored sessions,
/// the opened WAL (positioned after the valid prefix), and the report.
#[derive(Debug)]
pub(crate) struct Recovered {
    pub sessions: Vec<(String, SlotState)>,
    pub wal: Wal,
    pub report: RecoveryReport,
}

/// Recovers a durability directory: loads snapshots, redoes the WAL
/// suffix, returns the restored state. An empty or absent directory
/// recovers to an empty server (first boot).
///
/// # Errors
/// [`crate::error::ServerError::Durability`] on genuine I/O failure;
/// corruption is skipped and reported, never an error and never a panic.
pub(crate) fn recover(cfg: &ServerConfig, dir: &Path) -> Result<Recovered> {
    ensure_store_dirs(dir)?;
    let (wal, scan) = Wal::open(&dir.join(WAL_FILE))?;
    let mut report = RecoveryReport {
        wal_records: scan.records.len() as u64,
        wal_tail: scan.tail.as_ref().map(|t| t.to_string()),
        ..RecoveryReport::default()
    };

    let mut sessions = Vec::new();
    let names = list_sessions(dir)?;
    let mut claimed = vec![false; scan.records.len()];
    for name in names {
        let (loaded, skips) = load_latest(dir, &name)?;
        report.snapshot_skips.extend(skips);
        let Some(snapshot) = loaded else {
            continue; // every epoch unusable; its records become orphans
        };
        let mut state = snapshot.state;
        let mut outcome = SessionRecovery {
            session: name.clone(),
            snapshot_epoch: state.epoch,
            covered_lsn: snapshot.covered_lsn,
            redone: 0,
            skipped: Vec::new(),
            final_epoch: state.epoch,
        };
        let mut failed = std::collections::BTreeSet::new();
        for (ix, record) in scan.records.iter().enumerate() {
            if record.session != name {
                continue;
            }
            claimed[ix] = true;
            if record.lsn < snapshot.covered_lsn {
                continue; // already folded into the snapshot
            }
            fail_point("recovery-mid-redo");
            // A chained record downstream of a skipped one was never
            // applied live — skip it without attempting the redo (its
            // removal set was resolved against state that never existed).
            if let Some(prev) = record.prev_lsn.filter(|p| failed.contains(p)) {
                failed.insert(record.lsn);
                outcome
                    .skipped
                    .push((record.lsn, format!("chained onto skipped record {prev}")));
                continue;
            }
            match redo_record(cfg, &mut state, record) {
                Ok(()) => outcome.redone += 1,
                Err(reason) => {
                    failed.insert(record.lsn);
                    outcome.skipped.push((record.lsn, reason));
                }
            }
        }
        outcome.final_epoch = state.epoch;
        report.sessions.push(outcome);
        sessions.push((name, state));
    }
    report.orphan_records = claimed.iter().filter(|&&c| !c).count() as u64;
    report.sessions.sort_by(|a, b| a.session.cmp(&b.session));
    sessions.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(Recovered {
        sessions,
        wal,
        report,
    })
}

/// Redoes one WAL record onto a recovered slot state: the engine call,
/// then the same [`SlotState::advance`] the live commit runs. `Err` skips
/// the record without mutating state.
fn redo_record(
    cfg: &ServerConfig,
    state: &mut SlotState,
    record: &WalRecord,
) -> std::result::Result<(), String> {
    // The record stores the resolved removal set — every id was present
    // when the live batch ran, so every id must resolve here too. The
    // decoder guarantees the ids ascend, hence so do the translated
    // indices, as `Delta` requires.
    let mut rows = Vec::with_capacity(record.removed_ids.len());
    for &id in &record.removed_ids {
        match state.ids.binary_search(&id) {
            Ok(ix) => rows.push(ix),
            Err(_) => return Err(format!("stable id {id} not in the recovered id map")),
        }
    }
    let added = record.added.as_ref().map(|(width, features, labels)| {
        dense_added(
            state.session.task(),
            *width,
            features.clone(),
            labels.clone(),
        )
    });
    let num_added = added.as_ref().map_or(0, |d| d.num_samples());
    let delta = Delta {
        removed: rows,
        added: added.map(DeltaRows::Dense),
    };
    let chained = run_pinned(cfg, || state.session.apply_delta(record.method, &delta))
        .map_err(|e| format!("apply failed (as it did live): {e}"))?;
    state.advance(&delta.removed, num_added, record.method == Method::Retrain);
    state.session = Arc::new(chained.session);
    Ok(())
}
