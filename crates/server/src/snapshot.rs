//! Durable session snapshots.
//!
//! A snapshot is the full durable state of one session slot — engine
//! state, stable-id map, fresh-id counter, epoch, drift counters —
//! serialized bit-exactly, plus the WAL LSN it *covers*: every WAL record
//! with `lsn < covered_lsn` is already folded into the snapshot, so
//! recovery loads the newest valid snapshot and redoes only the WAL
//! suffix.
//!
//! # File format
//!
//! ```text
//! <dir>/snapshots/<hex(session name)>-<epoch, 20 digits>.snap
//!
//! [8  magic "PRIUSNP1"]
//! [u32 payload len][u32 crc32(payload)]
//! payload = u64 covered_lsn, u64 epoch, u64 next_id,
//!           u64 initial_samples, u64 removed_since_refit,
//!           u64 id count + that many u64 stable ids,
//!           u64 session blob len + Session::to_snapshot_bytes
//! ```
//!
//! Session names contain `/` (tenant × model), so the filename carries the
//! name hex-encoded; the zero-padded epoch makes lexicographic order equal
//! epoch order.
//!
//! # Atomicity
//!
//! A snapshot is written to `<final>.snap.tmp`, fsync'd, renamed over the
//! final name, and the directory fsync'd — a crash at any point (the
//! `snapshot-mid-write` / `snapshot-before-rename` / `snapshot-after-rename`
//! fail points) leaves either the old snapshot set or the old set plus a
//! complete new file. Loaders ignore `.tmp` leftovers and skip files that
//! fail the magic, CRC, or decode — a corrupt snapshot falls back to the
//! previous epoch, never panics.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

use priu_core::snapshot::{SnapshotReader, SnapshotWriter};
use priu_core::{DeletionEngine, Session};

use crate::error::{Result, ServerError};
use crate::failpoint::fail_point;
use crate::registry::SlotState;
use crate::wal::{crc32, read_file, sync_parent_dir, GroupWal};

/// Identifies a file as a PrIU session snapshot, version 1.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"PRIUSNP1";

/// A snapshot loaded back from disk.
#[derive(Debug)]
pub(crate) struct LoadedSnapshot {
    /// Every WAL record with `lsn < covered_lsn` is folded in already.
    pub covered_lsn: u64,
    /// The slot state to restore.
    pub state: SlotState,
}

/// A snapshot file that existed but could not be used — recovery reports
/// these and falls back to an older epoch.
#[derive(Debug, Clone)]
pub struct SkippedSnapshot {
    /// The unusable file.
    pub path: PathBuf,
    /// Why it was skipped.
    pub reason: String,
}

// --- naming ---------------------------------------------------------------

fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

/// The directory holding a store's snapshot files.
pub fn snapshot_dir(dir: &Path) -> PathBuf {
    dir.join("snapshots")
}

fn snapshot_path(dir: &Path, session: &str, epoch: u64) -> PathBuf {
    snapshot_dir(dir).join(format!(
        "{}-{epoch:020}.snap",
        hex_encode(session.as_bytes())
    ))
}

/// Splits a snapshot filename back into `(session name, epoch)`; `None`
/// for files that are not well-formed snapshot names (e.g. `.tmp`
/// leftovers).
fn parse_snapshot_name(file_name: &str) -> Option<(String, u64)> {
    let stem = file_name.strip_suffix(".snap")?;
    let (hex_name, epoch) = stem.rsplit_once('-')?;
    let epoch = epoch.parse().ok()?;
    let name = String::from_utf8(hex_decode(hex_name)?).ok()?;
    Some((name, epoch))
}

// --- writing --------------------------------------------------------------

fn encode_snapshot(covered_lsn: u64, state: &SlotState) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.u64(covered_lsn);
    w.u64(state.epoch);
    w.u64(state.next_id);
    w.usize(state.initial_samples);
    w.usize(state.removed_since_refit);
    w.usize(state.ids.len());
    for &id in &state.ids {
        w.u64(id);
    }
    let blob = state.session.to_snapshot_bytes();
    w.usize(blob.len());
    let mut bytes = w.into_bytes();
    bytes.extend_from_slice(&blob);
    bytes
}

fn decode_snapshot(payload: &[u8]) -> std::result::Result<LoadedSnapshot, String> {
    let fail = |e: priu_core::CoreError| e.to_string();
    let mut r = SnapshotReader::new(payload);
    let covered_lsn = r.u64("covered_lsn").map_err(fail)?;
    let epoch = r.u64("epoch").map_err(fail)?;
    let next_id = r.u64("next_id").map_err(fail)?;
    let initial_samples = r.usize("initial_samples").map_err(fail)?;
    let removed_since_refit = r.usize("removed_since_refit").map_err(fail)?;
    let n = r.len(8, "stable ids").map_err(fail)?;
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(r.u64("stable id").map_err(fail)?);
    }
    let blob_len = r.usize("session blob length").map_err(fail)?;
    if blob_len != r.remaining() {
        return Err(format!(
            "session blob length {blob_len} does not match remaining {} bytes",
            r.remaining()
        ));
    }
    let blob = r.take(blob_len, "session blob").map_err(fail)?;
    let session = Session::from_snapshot_bytes(blob).map_err(fail)?;
    // Redo and resolution binary-search the map, so it must be strictly
    // ascending as well as below the fresh-id counter.
    if let Some(pair) = ids.windows(2).find(|pair| pair[0] >= pair[1]) {
        return Err(format!(
            "stable ids not strictly ascending: {} then {}",
            pair[0], pair[1]
        ));
    }
    if let Some(&max) = ids.last() {
        if max >= next_id {
            return Err(format!("stable id {max} is not below next_id {next_id}"));
        }
    }
    if ids.len() != session.num_samples() {
        return Err(format!(
            "{} stable ids for a session of {} rows",
            ids.len(),
            session.num_samples()
        ));
    }
    Ok(LoadedSnapshot {
        covered_lsn,
        state: SlotState {
            session: Arc::new(session),
            ids,
            next_id,
            epoch,
            initial_samples,
            removed_since_refit,
        },
    })
}

/// Writes one session snapshot atomically (temp file → fsync → rename →
/// directory fsync) and prunes superseded epochs. Crash points:
/// `snapshot-mid-write`, `snapshot-before-rename`, `snapshot-after-rename`.
///
/// # Errors
/// [`ServerError::Durability`] on I/O failure; the previous snapshot set
/// is untouched in that case.
pub(crate) fn write_snapshot(
    dir: &Path,
    session: &str,
    covered_lsn: u64,
    state: &SlotState,
) -> Result<PathBuf> {
    let snap_dir = snapshot_dir(dir);
    std::fs::create_dir_all(&snap_dir)
        .map_err(|e| ServerError::Durability(format!("creating {}: {e}", snap_dir.display())))?;
    let payload = encode_snapshot(covered_lsn, state);
    let mut bytes = Vec::with_capacity(16 + payload.len());
    bytes.extend_from_slice(SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);

    let final_path = snapshot_path(dir, session, state.epoch);
    let tmp_path = final_path.with_extension("snap.tmp");
    let io = |what: &str, p: &Path, e: std::io::Error| {
        ServerError::Durability(format!("{what} {}: {e}", p.display()))
    };
    {
        let mut tmp = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&tmp_path)
            .map_err(|e| io("creating", &tmp_path, e))?;
        // Two half-writes with a crash point between them, so the torture
        // suite can leave a genuinely torn temp file behind.
        let mid = bytes.len() / 2;
        tmp.write_all(&bytes[..mid])
            .map_err(|e| io("writing", &tmp_path, e))?;
        fail_point("snapshot-mid-write");
        tmp.write_all(&bytes[mid..])
            .map_err(|e| io("writing", &tmp_path, e))?;
        tmp.sync_data().map_err(|e| io("syncing", &tmp_path, e))?;
    }
    fail_point("snapshot-before-rename");
    std::fs::rename(&tmp_path, &final_path)
        .map_err(|e| io("renaming into place", &final_path, e))?;
    fail_point("snapshot-after-rename");
    sync_parent_dir(&final_path)?;
    prune_old_snapshots(dir, session, state.epoch);
    Ok(final_path)
}

/// Removes snapshots of `session` older than the newest two epochs ≤
/// `latest_epoch`. Keeping one predecessor means a corrupt latest file
/// still has a fallback; best-effort (pruning failures are ignored — a
/// stale file only costs disk).
fn prune_old_snapshots(dir: &Path, session: &str, latest_epoch: u64) {
    let Ok(mut epochs) = list_epochs(dir, session) else {
        return;
    };
    epochs.retain(|&e| e <= latest_epoch);
    epochs.sort_unstable();
    if epochs.len() <= 2 {
        return;
    }
    for &epoch in &epochs[..epochs.len() - 2] {
        let _ = std::fs::remove_file(snapshot_path(dir, session, epoch));
    }
}

// --- loading --------------------------------------------------------------

fn list_epochs(dir: &Path, session: &str) -> Result<Vec<u64>> {
    let snap_dir = snapshot_dir(dir);
    let entries = match std::fs::read_dir(&snap_dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => {
            return Err(ServerError::Durability(format!(
                "listing {}: {e}",
                snap_dir.display()
            )))
        }
    };
    let mut epochs = Vec::new();
    for entry in entries {
        let entry = entry
            .map_err(|e| ServerError::Durability(format!("listing {}: {e}", snap_dir.display())))?;
        if let Some((name, epoch)) = entry.file_name().to_str().and_then(parse_snapshot_name) {
            if name == session {
                epochs.push(epoch);
            }
        }
    }
    Ok(epochs)
}

/// Every session that has at least one snapshot file, sorted — the set of
/// sessions recovery restores.
pub(crate) fn list_sessions(dir: &Path) -> Result<Vec<String>> {
    let snap_dir = snapshot_dir(dir);
    let entries = match std::fs::read_dir(&snap_dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => {
            return Err(ServerError::Durability(format!(
                "listing {}: {e}",
                snap_dir.display()
            )))
        }
    };
    let mut names = Vec::new();
    for entry in entries {
        let entry = entry
            .map_err(|e| ServerError::Durability(format!("listing {}: {e}", snap_dir.display())))?;
        if let Some((name, _)) = entry.file_name().to_str().and_then(parse_snapshot_name) {
            if !names.contains(&name) {
                names.push(name);
            }
        }
    }
    names.sort();
    Ok(names)
}

fn load_snapshot_file(path: &Path) -> Result<std::result::Result<LoadedSnapshot, String>> {
    let Some(bytes) = read_file(path)? else {
        return Ok(Err("file vanished while loading".to_string()));
    };
    if bytes.len() < 16 {
        return Ok(Err(format!(
            "{} bytes is too short for a header",
            bytes.len()
        )));
    }
    if &bytes[..8] != SNAPSHOT_MAGIC {
        return Ok(Err("bad magic".to_string()));
    }
    let len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    if bytes.len() - 16 != len {
        return Ok(Err(format!(
            "header claims {len} payload bytes, file has {}",
            bytes.len() - 16
        )));
    }
    let payload = &bytes[16..];
    if crc32(payload) != crc {
        return Ok(Err("checksum mismatch".to_string()));
    }
    Ok(decode_snapshot(payload))
}

/// Loads the newest usable snapshot of `session`, skipping (and
/// reporting) corrupt epochs. `Ok((None, skips))` means no usable
/// snapshot exists.
///
/// # Errors
/// Only genuine I/O failures; corruption is a skip, not an error.
pub(crate) fn load_latest(
    dir: &Path,
    session: &str,
) -> Result<(Option<LoadedSnapshot>, Vec<SkippedSnapshot>)> {
    let mut epochs = list_epochs(dir, session)?;
    epochs.sort_unstable();
    let mut skips = Vec::new();
    for &epoch in epochs.iter().rev() {
        let path = snapshot_path(dir, session, epoch);
        match load_snapshot_file(&path)? {
            Ok(snapshot) => return Ok((Some(snapshot), skips)),
            Err(reason) => skips.push(SkippedSnapshot { path, reason }),
        }
    }
    Ok((None, skips))
}

// --- coverage floors (checkpoint frontier) --------------------------------

/// The `covered_lsn` of one snapshot file, if the file is fully valid —
/// the light parse the checkpoint frontier uses: magic, length, CRC, then
/// the first payload field. No session decode; a file that passes its CRC
/// has a trustworthy `covered_lsn`.
fn snapshot_floor(path: &Path) -> Option<u64> {
    let bytes = read_file(path).ok()??;
    if bytes.len() < 24 || &bytes[..8] != SNAPSHOT_MAGIC {
        return None;
    }
    let len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    if bytes.len() - 16 != len || crc32(&bytes[16..]) != crc {
        return None;
    }
    Some(u64::from_le_bytes(
        bytes[16..24].try_into().expect("8 bytes"),
    ))
}

/// The per-session WAL frontier implied by the durable snapshot set: for
/// each session, the minimum `covered_lsn` over **every** valid retained
/// epoch — not just the newest — so a checkpoint never truncates a record
/// the older fallback epoch would still need if the newest file turns out
/// corrupt at recovery. Sessions with no valid file are omitted; the
/// checkpoint treats them as floor 0 and retains all their records.
///
/// # Errors
/// Only directory-listing I/O failures; an unreadable or corrupt snapshot
/// file simply doesn't contribute a floor.
pub(crate) fn coverage_floors(dir: &Path) -> Result<Vec<(String, u64)>> {
    let mut floors: Vec<(String, u64)> = Vec::new();
    for session in list_sessions(dir)? {
        let floor = list_epochs(dir, &session)?
            .into_iter()
            .filter_map(|epoch| snapshot_floor(&snapshot_path(dir, &session, epoch)))
            .min();
        if let Some(floor) = floor {
            floors.push((session, floor));
        }
    }
    floors.sort();
    Ok(floors)
}

// --- background snapshot service ------------------------------------------

/// One queued snapshot: the copy-on-write handoff from the applier. The
/// committed `Arc<Session>` and the registry bookkeeping are immutable
/// once captured, so serialization proceeds on the snapshot thread with
/// no lock on the slot and no stall on the applier.
pub(crate) struct SnapshotJob {
    /// Session the snapshot belongs to.
    pub session: String,
    /// The WAL frontier the snapshot covers (`lsn + 1` of the batch that
    /// produced this state).
    pub covered_lsn: u64,
    /// The full durable state to serialize.
    pub state: SlotState,
    /// Registration baselines block on the write — the registration is
    /// not acknowledged until the baseline is durable. Periodic snapshots
    /// are fire-and-forget (`None`): the WAL already makes their batches
    /// durable, a failed write only lengthens the next redo.
    pub reply: Option<Sender<Result<PathBuf>>>,
}

struct ServiceState {
    jobs: VecDeque<SnapshotJob>,
    /// The worker is serializing a job it already popped.
    in_flight: bool,
    stop: bool,
}

/// The dedicated snapshot thread: drains a FIFO queue of
/// [`SnapshotJob`]s, writes each through the same temp/rename path the
/// inline writer used, and triggers a WAL checkpoint after each
/// successful write (newest durable snapshot set = newest truncation
/// frontier). FIFO with no superseding keeps the on-disk epoch history
/// identical to the inline writer's — recovery's corrupt-newest-epoch
/// fallback depends on the predecessor epoch actually existing.
pub(crate) struct SnapshotService {
    state: Mutex<ServiceState>,
    /// Wakes the worker (new job / stop) and drain waiters (job done).
    cv: Condvar,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl SnapshotService {
    /// Spawns the snapshot thread for the store at `dir`. After every
    /// successful snapshot the worker recomputes the coverage floors and
    /// runs [`GroupWal::checkpoint_if_due`] with `checkpoint_bytes` as
    /// the threshold.
    pub(crate) fn start(dir: PathBuf, wal: Arc<GroupWal>, checkpoint_bytes: u64) -> Arc<Self> {
        let service = Arc::new(Self {
            state: Mutex::new(ServiceState {
                jobs: VecDeque::new(),
                in_flight: false,
                stop: false,
            }),
            cv: Condvar::new(),
            worker: Mutex::new(None),
        });
        let worker = {
            let service = Arc::clone(&service);
            thread::Builder::new()
                .name("priu-server-snapshot".to_string())
                .spawn(move || service.worker_loop(&dir, &wal, checkpoint_bytes))
                .expect("spawn snapshot thread")
        };
        *service
            .worker
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(worker);
        service
    }

    fn lock(&self) -> MutexGuard<'_, ServiceState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn worker_loop(&self, dir: &Path, wal: &GroupWal, checkpoint_bytes: u64) {
        loop {
            let job = {
                let mut state = self.lock();
                loop {
                    // Pop before honoring stop: shutdown *drains* the
                    // queue, so an enqueued-then-acked batch never loses
                    // its scheduled snapshot to a clean exit.
                    if let Some(job) = state.jobs.pop_front() {
                        state.in_flight = true;
                        break Some(job);
                    }
                    if state.stop {
                        break None;
                    }
                    state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
                }
            };
            let Some(job) = job else { return };

            let result = write_snapshot(dir, &job.session, job.covered_lsn, &job.state);
            let wrote = result.is_ok();
            match (job.reply, result) {
                (Some(reply), result) => {
                    let _ = reply.send(result);
                }
                (None, Err(err)) => {
                    eprintln!(
                        "snapshot of {} at epoch {} failed: {err}",
                        job.session, job.state.epoch
                    );
                }
                (None, Ok(_)) => {}
            }
            // The snapshot set just advanced: see whether the WAL has
            // accumulated enough to be worth compacting against it.
            if wrote {
                match coverage_floors(dir) {
                    Ok(floors) => {
                        if let Err(err) = wal.checkpoint_if_due(checkpoint_bytes, &floors) {
                            eprintln!("WAL checkpoint failed: {err}");
                        }
                    }
                    Err(err) => eprintln!("skipping WAL checkpoint: {err}"),
                }
            }

            let mut state = self.lock();
            state.in_flight = false;
            self.cv.notify_all();
        }
    }

    /// Hands a snapshot job to the worker.
    ///
    /// # Errors
    /// [`ServerError::ShuttingDown`] once [`SnapshotService::stop`] ran.
    pub(crate) fn enqueue(&self, job: SnapshotJob) -> Result<()> {
        let mut state = self.lock();
        if state.stop {
            return Err(ServerError::ShuttingDown);
        }
        state.jobs.push_back(job);
        self.cv.notify_all();
        Ok(())
    }

    /// Writes a registration baseline through the snapshot thread,
    /// blocking until it is durable — same code path as periodic
    /// snapshots, so there is exactly one writer ordering the epoch
    /// files.
    ///
    /// # Errors
    /// [`ServerError::Durability`] if the write failed (the caller then
    /// unregisters the session), [`ServerError::ShuttingDown`] if the
    /// service already stopped.
    pub(crate) fn write_baseline(
        &self,
        session: &str,
        covered_lsn: u64,
        state: SlotState,
    ) -> Result<PathBuf> {
        let (tx, rx) = channel();
        self.enqueue(SnapshotJob {
            session: session.to_string(),
            covered_lsn,
            state,
            reply: Some(tx),
        })?;
        rx.recv()
            .map_err(|_| ServerError::Durability("snapshot thread exited".to_string()))?
    }

    /// The drain barrier: blocks until every job enqueued so far is fully
    /// written (queue empty, nothing in flight) — so shutdown and tests
    /// never observe a half-scheduled snapshot.
    pub(crate) fn drain(&self) {
        let mut state = self.lock();
        while !state.jobs.is_empty() || state.in_flight {
            state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stops the service: the worker drains the remaining queue, then
    /// exits; new enqueues fail typed. Idempotent.
    pub(crate) fn stop(&self) {
        self.lock().stop = true;
        self.cv.notify_all();
        let worker = self
            .worker
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(worker) = worker {
            let _ = worker.join();
        }
    }
}

/// Fsyncs the snapshot directory's parent chain after first creation.
pub(crate) fn ensure_store_dirs(dir: &Path) -> Result<()> {
    let snap_dir = snapshot_dir(dir);
    std::fs::create_dir_all(&snap_dir)
        .map_err(|e| ServerError::Durability(format!("creating {}: {e}", snap_dir.display())))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    sync_parent_dir(&snap_dir.join("x"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use priu_core::{SessionBuilder, TrainerConfig};
    use priu_data::catalog::Hyperparameters;
    use priu_data::synthetic::regression::{generate_regression, RegressionConfig};

    fn state(n: usize, seed: u64, epoch: u64) -> SlotState {
        let data = generate_regression(&RegressionConfig {
            num_samples: n,
            num_features: 4,
            seed,
            ..Default::default()
        });
        let hyper = Hyperparameters {
            batch_size: 20,
            num_iterations: 30,
            learning_rate: 0.05,
            regularization: 0.01,
        };
        let session = SessionBuilder::dense(data, TrainerConfig::from_hyper(hyper))
            .seed(1)
            .fit()
            .unwrap();
        SlotState {
            session: Arc::new(session),
            ids: (5..5 + n as u64).collect(),
            next_id: 5 + n as u64,
            epoch,
            initial_samples: n,
            removed_since_refit: 3,
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("priu-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn filename_round_trip_handles_slashes() {
        let path = snapshot_path(Path::new("/tmp/d"), "tenant/model-a", 7);
        let file = path.file_name().unwrap().to_str().unwrap();
        let (name, epoch) = parse_snapshot_name(file).unwrap();
        assert_eq!(name, "tenant/model-a");
        assert_eq!(epoch, 7);
        assert!(parse_snapshot_name("nothex-00000000000000000007.snap").is_none());
        assert!(parse_snapshot_name("ff-3.snap.tmp").is_none());
    }

    #[test]
    fn write_load_round_trip_is_bitwise() {
        let dir = tempdir("snap-roundtrip");
        let original = state(40, 11, 3);
        write_snapshot(&dir, "t/m", 17, &original).unwrap();
        let (loaded, skips) = load_latest(&dir, "t/m").unwrap();
        let loaded = loaded.unwrap();
        assert!(skips.is_empty());
        assert_eq!(loaded.covered_lsn, 17);
        assert_eq!(loaded.state.epoch, 3);
        assert_eq!(loaded.state.next_id, original.next_id);
        assert_eq!(loaded.state.ids, original.ids);
        assert_eq!(loaded.state.initial_samples, 40);
        assert_eq!(loaded.state.removed_since_refit, 3);
        // Bit-exact engine state: the serialized blobs must agree byte for
        // byte, which implies to_bits equality of every weight.
        assert_eq!(
            loaded.state.session.to_snapshot_bytes(),
            original.session.to_snapshot_bytes()
        );
        assert_eq!(list_sessions(&dir).unwrap(), vec!["t/m"]);
    }

    #[test]
    fn corrupt_latest_falls_back_to_previous_epoch() {
        let dir = tempdir("snap-fallback");
        write_snapshot(&dir, "s", 5, &state(30, 2, 1)).unwrap();
        let latest = write_snapshot(&dir, "s", 9, &state(30, 2, 2)).unwrap();
        // Flip one payload byte of the newest epoch.
        let mut bytes = std::fs::read(&latest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&latest, &bytes).unwrap();
        let (loaded, skips) = load_latest(&dir, "s").unwrap();
        assert_eq!(loaded.unwrap().covered_lsn, 5);
        assert_eq!(skips.len(), 1);
        assert!(skips[0].reason.contains("checksum"));

        // Truncate the older one too: nothing usable remains, still no
        // panic.
        let older = snapshot_path(&dir, "s", 1);
        let bytes = std::fs::read(&older).unwrap();
        std::fs::write(&older, &bytes[..bytes.len() / 3]).unwrap();
        std::fs::write(&latest, b"PRIUSNP1garbage").unwrap();
        let (loaded, skips) = load_latest(&dir, "s").unwrap();
        assert!(loaded.is_none());
        assert_eq!(skips.len(), 2);
    }

    #[test]
    fn non_ascending_stable_ids_skip_the_snapshot() {
        let dir = tempdir("snap-unsorted");
        for (session, bad) in [("swapped", [9, 7]), ("repeated", [7, 7])] {
            // A valid epoch, then a CRC-valid newer one whose id map is
            // out of order or repeats an id.
            write_snapshot(&dir, session, 5, &state(20, 4, 1)).unwrap();
            let mut unsorted = state(20, 4, 2);
            unsorted.ids[3..5].copy_from_slice(&bad);
            write_snapshot(&dir, session, 9, &unsorted).unwrap();
            let (loaded, skips) = load_latest(&dir, session).unwrap();
            assert_eq!(loaded.unwrap().state.epoch, 1, "{session}: no fallback");
            assert_eq!(skips.len(), 1);
            assert!(skips[0].reason.contains("strictly ascending"), "{skips:?}");
        }
    }

    #[test]
    fn coverage_floors_take_the_minimum_over_valid_epochs() {
        let dir = tempdir("snap-floors");
        write_snapshot(&dir, "a", 5, &state(20, 1, 1)).unwrap();
        write_snapshot(&dir, "a", 9, &state(20, 1, 2)).unwrap();
        write_snapshot(&dir, "b", 3, &state(20, 2, 1)).unwrap();
        assert_eq!(
            coverage_floors(&dir).unwrap(),
            vec![("a".to_string(), 5), ("b".to_string(), 3)]
        );

        // A corrupt older epoch stops holding the floor down: only the
        // valid epochs count.
        let older = snapshot_path(&dir, "a", 1);
        let mut bytes = std::fs::read(&older).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        std::fs::write(&older, &bytes).unwrap();
        assert_eq!(
            coverage_floors(&dir).unwrap(),
            vec![("a".to_string(), 9), ("b".to_string(), 3)]
        );

        // A session with no valid file contributes no floor at all — the
        // checkpoint then retains every record it has.
        std::fs::write(snapshot_path(&dir, "b", 1), b"PRIUSNP1junk").unwrap();
        assert_eq!(coverage_floors(&dir).unwrap(), vec![("a".to_string(), 9)]);
    }

    #[test]
    fn snapshot_service_writes_in_fifo_order_and_drains() {
        let dir = tempdir("snap-service");
        let wal_path = dir.join("deltas.wal");
        let (wal, _) = GroupWal::open(&wal_path, Default::default()).unwrap();
        let service = SnapshotService::start(dir.clone(), Arc::new(wal), u64::MAX);
        // A blocking baseline, then two fire-and-forget epochs.
        service.write_baseline("s", 0, state(20, 7, 0)).unwrap();
        for epoch in 1..=2 {
            service
                .enqueue(SnapshotJob {
                    session: "s".to_string(),
                    covered_lsn: epoch,
                    state: state(20, 7, epoch),
                    reply: None,
                })
                .unwrap();
        }
        service.drain();
        let (loaded, skips) = load_latest(&dir, "s").unwrap();
        assert_eq!(loaded.unwrap().state.epoch, 2);
        assert!(skips.is_empty());
        let mut epochs = list_epochs(&dir, "s").unwrap();
        epochs.sort_unstable();
        assert_eq!(epochs, vec![1, 2], "older epochs pruned as they land");
        service.stop();
        assert!(service
            .enqueue(SnapshotJob {
                session: "s".to_string(),
                covered_lsn: 9,
                state: state(20, 7, 9),
                reply: None,
            })
            .is_err());
    }

    #[test]
    fn tmp_leftovers_are_ignored_and_old_epochs_pruned() {
        let dir = tempdir("snap-prune");
        for epoch in 1..=4 {
            write_snapshot(&dir, "s", epoch, &state(20, 3, epoch)).unwrap();
        }
        // Only the newest two epochs survive pruning.
        let mut epochs = list_epochs(&dir, "s").unwrap();
        epochs.sort_unstable();
        assert_eq!(epochs, vec![3, 4]);
        // A torn temp file next to them changes nothing.
        std::fs::write(
            snapshot_dir(&dir).join("73-00000000000000000009.snap.tmp"),
            b"to",
        )
        .unwrap();
        let (loaded, skips) = load_latest(&dir, "s").unwrap();
        assert_eq!(loaded.unwrap().state.epoch, 4);
        assert!(skips.is_empty());
    }
}
