//! The deletion write-ahead log: append-only CRC frames, group commit,
//! and checkpoint compaction.
//!
//! An append-only file of length-prefixed, CRC-checksummed frames. A
//! batch is acknowledged on the wire only after its frame is fsync'd
//! (the server's applier pass runs WAL append → one fsync → engine apply
//! → registry commit → ack), so an acknowledged deletion can always be
//! redone after a crash.
//!
//! # Frame format
//!
//! ```text
//! [u32 len][u32 crc32][payload: len bytes]
//! payload = u8 kind (0 = delta record, 1 = checkpoint)
//!
//! kind 0:   u64 lsn
//!           u8  prev_lsn flag (+ u64 prev_lsn)
//!           u32 session-name len + bytes (UTF-8)
//!           u8  method index into Method::ALL
//!           u64 removed-id count + that many u64 stable ids
//!           u8  keep_last flag (+ u64 keep_last)
//!           u8  added flag (+ u64 num_features, u64 num_rows,
//!                           num_rows*num_features f64 bit patterns,
//!                           num_rows f64 label bit patterns)
//!
//! kind 1:   u64 next_lsn (the LSN counter at checkpoint time)
//!           u64 floor count + per floor:
//!               u32 session-name len + bytes, u64 floor LSN
//! ```
//!
//! Payloads encode through `priu_core::snapshot`'s `SnapshotWriter` /
//! `SnapshotReader`, the one codec the wire protocol and snapshots use
//! too: integers little-endian, flags strict 0/1 bytes, and `f64`s as
//! [`f64::to_bits`] so redo reconstructs the exact added block the live
//! path applied. The added block decodes through the same length-checked
//! helper as the wire's, behind `u64` counts where the wire has `u32`s.
//! The CRC (CRC-32/IEEE, hand-rolled table — no dependencies) covers the
//! payload only: a torn length prefix already fails the length check.
//!
//! # Group commit
//!
//! [`GroupWal`] wraps the log for the applier, its single writer: every
//! batch an applier pass resolves is **appended as its own frame, and
//! the pass shares one fsync**. [`GroupWal::append`] writes the frame and
//! returns a commit sequence number; [`GroupWal::sync_through`] fsyncs
//! once if that sequence is not yet durable. Both run under one plain
//! mutex, which also excludes the checkpoint rewrite. An append that
//! leaves [`GroupCommitConfig::max_group`] frames unsynced fsyncs on the
//! spot, so no fsync ever covers more; at `max_group == 1` every append
//! fsyncs. An append or fsync failure marks the log **broken** — sticky,
//! because a failed `write_all` may leave a partial frame that later
//! frames would land behind — and every subsequent operation fails fast.
//!
//! # Checkpoints
//!
//! [`GroupWal::checkpoint_if_due`] bounds the log: given the per-session
//! covered-LSN floors implied by the durable snapshots, it rewrites the
//! live suffix (every record at or past its session's floor) into a new
//! log headed by a kind-1 checkpoint frame, atomically renames it over
//! the old one, and truncates everything every session's snapshots
//! already cover. The checkpoint frame preserves the LSN counter so
//! sequence numbers never rewind. Crash points `checkpoint-mid-rewrite`
//! / `checkpoint-before-rename` / `checkpoint-after-rename` leave either
//! the old log (plus an ignored `.tmp`) or the complete new one.
//!
//! # Torn-tail semantics
//!
//! The reader returns the longest valid frame prefix plus a typed
//! [`WalTail`] describing why it stopped (truncated frame, bad checksum,
//! undecodable payload). A torn tail is *normal* after a crash — the
//! frame that was mid-write was by definition unacknowledged — so
//! recovery logs the tail and truncates the file back to the valid
//! prefix before appending again. What the reader never does is panic or
//! apply half a frame.
//!
//! # Records store *resolved* deltas
//!
//! A record carries the union removal set as **stable ids after retention
//! expiry** and the method the cost model chose. Both resolutions are
//! timing-dependent (what folds into the batch is whatever queued while
//! the applier was busy; the EMA cost model decides the method from
//! measured seconds), so redo must not re-derive them. Everything downstream of
//! the record — id translation, `apply_delta`, survivor computation,
//! fresh-id assignment — is deterministic, which is what makes replay
//! bitwise-exact. The server resolves every record against committed
//! state and writes no `prev_lsn`; the field stays in the format because
//! logs from earlier versions, whose applier chained same-session
//! batches, carry it, and recovery skips a record whose antecedent's
//! redo failed.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use priu_core::snapshot::{CodecError, CodecResult, SnapshotReader, SnapshotWriter};
use priu_core::Method;

use crate::error::{length_prefix, Result, ServerError};
use crate::failpoint::fail_point;
use crate::protocol::get_added_rows;

/// Frames larger than this are rejected as corrupt (a length prefix of
/// garbage bytes would otherwise ask for gigabytes).
pub const MAX_WAL_FRAME_BYTES: u32 = 1 << 30;

/// Frame payload kind: one committed union delta.
const KIND_DELTA: u8 = 0;
/// Frame payload kind: a checkpoint (compaction marker).
const KIND_CHECKPOINT: u8 = 1;

/// One committed union delta, as redo needs it.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Log sequence number, strictly increasing across the file.
    pub lsn: u64,
    /// LSN of the record this one was resolved against, when that record
    /// was not yet applied at resolve time. The server writes `None`: it
    /// resolves every batch against committed state. Logs from earlier
    /// versions, which chained same-session batches within one pass, can
    /// hold `Some`; recovery skips such a record if the antecedent's redo
    /// was skipped — the resolution would no longer be meaningful.
    pub prev_lsn: Option<u64>,
    /// The session the batch targeted.
    pub session: String,
    /// The method the cost model chose (recorded because the choice is
    /// timing-dependent and must not be re-derived on redo).
    pub method: Method,
    /// Resolved union removal set as stable ids — deletion requests plus
    /// retention expiry, exactly what the live batch removed.
    pub removed_ids: Vec<u64>,
    /// The retention bound the batch carried, if any (informational: the
    /// expiry it induced is already folded into `removed_ids`).
    pub keep_last: Option<u64>,
    /// Appended rows in FIFO admission order: `(num_features, features,
    /// labels)`. `None` when the batch appended nothing.
    pub added: Option<(usize, Vec<f64>, Vec<f64>)>,
}

/// A checkpoint frame: the compaction marker heading a rewritten log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointRecord {
    /// The LSN counter at checkpoint time — reopening seeds the next LSN
    /// from this even when every delta frame was truncated away, so the
    /// sequence never rewinds.
    pub next_lsn: u64,
    /// Per-session covered-LSN floors the compaction honored: every
    /// record of `session` with `lsn < floor` was dropped because a
    /// durable snapshot already folds it in. Sorted by session name.
    pub floors: Vec<(String, u64)>,
}

/// Why WAL reading stopped before end-of-file. A torn tail after a crash
/// is expected; recovery reports it and truncates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalTail {
    /// The file ends inside a frame header or payload.
    TruncatedFrame {
        /// Byte offset of the incomplete frame.
        at: u64,
    },
    /// A frame's payload does not match its stored CRC.
    BadChecksum {
        /// Byte offset of the corrupt frame.
        at: u64,
    },
    /// The frame passed its CRC but the payload did not decode — format
    /// corruption rather than torn bytes.
    BadPayload {
        /// Byte offset of the undecodable frame.
        at: u64,
        /// What failed to decode.
        reason: String,
    },
    /// A length prefix exceeding [`MAX_WAL_FRAME_BYTES`].
    OversizedFrame {
        /// Byte offset of the oversized frame.
        at: u64,
        /// The claimed length.
        len: u32,
    },
}

impl std::fmt::Display for WalTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalTail::TruncatedFrame { at } => write!(f, "truncated frame at byte {at}"),
            WalTail::BadChecksum { at } => write!(f, "checksum mismatch at byte {at}"),
            WalTail::BadPayload { at, reason } => {
                write!(f, "undecodable payload at byte {at}: {reason}")
            }
            WalTail::OversizedFrame { at, len } => {
                write!(f, "oversized frame ({len} bytes) at byte {at}")
            }
        }
    }
}

/// Result of scanning a WAL file: the valid record prefix, where it ends,
/// and why scanning stopped (if not clean EOF).
#[derive(Debug)]
pub struct WalScan {
    /// Every delta record of the valid prefix, in LSN order (checkpoint
    /// frames are reported separately, not here).
    pub records: Vec<WalRecord>,
    /// The newest checkpoint frame in the valid prefix, if any (a
    /// compacted log leads with one).
    pub checkpoint: Option<CheckpointRecord>,
    /// Byte offset where the valid prefix ends; appending resumes here.
    pub valid_bytes: u64,
    /// Why the scan stopped early; `None` means the whole file was valid.
    pub tail: Option<WalTail>,
}

// --- CRC-32 (IEEE 802.3, reflected) ---------------------------------------

/// Slicing-by-8 tables: `tables[0]` is the classic bytewise table and
/// `tables[k][i]` the CRC of byte `i` followed by `k` zero bytes, so eight
/// input bytes fold into the running CRC with eight independent lookups.
fn crc32_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 8];
        for (i, entry) in tables[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = tables[k - 1][i];
                tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        tables
    })
}

/// CRC-32 (IEEE) of a byte slice. Eight bytes per step (slicing-by-8);
/// the value is the bytewise algorithm's.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = crc32_tables();
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// --- record codec ---------------------------------------------------------

/// A method's position in [`Method::ALL`]: its code in WAL records (the
/// wire sends the position plus one, with 0 for "no method").
pub(crate) fn method_index(method: Method) -> u8 {
    Method::ALL
        .iter()
        .position(|&m| m == method)
        .expect("every method is in Method::ALL") as u8
}

/// Reads a frame's kind byte, failing typed unless it is `want`.
fn expect_kind(r: &mut SnapshotReader<'_>, want: u8) -> CodecResult<()> {
    match r.u8("frame kind")? {
        kind if kind == want => Ok(()),
        kind => Err(CodecError::BadTag(
            kind,
            format!("unknown frame kind {kind}"),
        )),
    }
}

pub(crate) fn encode_record(record: &WalRecord) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.u8(KIND_DELTA);
    w.u64(record.lsn);
    w.option(record.prev_lsn, SnapshotWriter::u64);
    w.str(&record.session);
    w.u8(method_index(record.method));
    w.usize(record.removed_ids.len());
    w.u64s(&record.removed_ids);
    w.option(record.keep_last, SnapshotWriter::u64);
    w.option(
        record.added.as_ref(),
        |w, (num_features, features, labels)| {
            w.usize(*num_features);
            w.usize(labels.len());
            w.f64s(features);
            w.f64s(labels);
        },
    );
    w.into_bytes()
}

pub(crate) fn decode_record(payload: &[u8]) -> CodecResult<WalRecord> {
    let mut r = SnapshotReader::new(payload);
    expect_kind(&mut r, KIND_DELTA)?;
    let lsn = r.u64("lsn")?;
    let prev_lsn = r.option("prev_lsn flag", |r| r.u64("prev_lsn"))?;
    let session = r.str("session name")?;
    let ix = r.u8("method")?;
    let method = *Method::ALL
        .get(usize::from(ix))
        .ok_or_else(|| CodecError::BadTag(ix, format!("bad method index {ix}")))?;
    let n = r.usize("removed id count")?;
    let removed_ids = r.u64s(n, "removed ids")?;
    // Redo walks the set as ascending row indices.
    if let Some(pair) = removed_ids.windows(2).find(|pair| pair[0] >= pair[1]) {
        return Err(CodecError::Invalid(format!(
            "removed ids not strictly ascending at {}",
            pair[1]
        )));
    }
    let keep_last = r.option("keep_last flag", |r| r.u64("keep_last"))?;
    let added = r.option("added flag", |r| {
        let num_features = r.usize("num_features")?;
        let num_rows = r.usize("num_rows")?;
        let (features, labels) = get_added_rows(r, num_features, num_rows)?;
        Ok::<_, CodecError>((num_features, features, labels))
    })?;
    r.finish()?;
    Ok(WalRecord {
        lsn,
        prev_lsn,
        session,
        method,
        removed_ids,
        keep_last,
        added,
    })
}

pub(crate) fn encode_checkpoint(cp: &CheckpointRecord) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.u8(KIND_CHECKPOINT);
    w.u64(cp.next_lsn);
    w.usize(cp.floors.len());
    for (session, floor) in &cp.floors {
        w.str(session);
        w.u64(*floor);
    }
    w.into_bytes()
}

pub(crate) fn decode_checkpoint(payload: &[u8]) -> CodecResult<CheckpointRecord> {
    let mut r = SnapshotReader::new(payload);
    expect_kind(&mut r, KIND_CHECKPOINT)?;
    let next_lsn = r.u64("checkpoint next_lsn")?;
    let n = r.len(12, "checkpoint floors")?;
    let floors = (0..n)
        .map(|_| Ok((r.str("floor session name")?, r.u64("floor lsn")?)))
        .collect::<CodecResult<_>>()?;
    r.finish()?;
    Ok(CheckpointRecord { next_lsn, floors })
}

/// Appends one `[len][crc][payload]` frame to a byte buffer.
///
/// # Errors
/// [`ServerError::Oversized`] for a payload over [`MAX_WAL_FRAME_BYTES`],
/// which the scan would read back as an [`WalTail::OversizedFrame`]
/// tail; nothing is appended then.
pub(crate) fn push_frame(out: &mut Vec<u8>, payload: &[u8]) -> Result<()> {
    let len = length_prefix("WAL frame payload", payload.len(), MAX_WAL_FRAME_BYTES)?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

// --- scanning -------------------------------------------------------------

pub(crate) fn scan_bytes(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut checkpoint = None;
    let mut at = 0usize;
    let mut tail = None;
    while at < bytes.len() {
        if bytes.len() - at < 8 {
            tail = Some(WalTail::TruncatedFrame { at: at as u64 });
            break;
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        if len > MAX_WAL_FRAME_BYTES {
            tail = Some(WalTail::OversizedFrame { at: at as u64, len });
            break;
        }
        let body_start = at + 8;
        let Some(body_end) = body_start
            .checked_add(len as usize)
            .filter(|&e| e <= bytes.len())
        else {
            tail = Some(WalTail::TruncatedFrame { at: at as u64 });
            break;
        };
        let payload = &bytes[body_start..body_end];
        if crc32(payload) != crc {
            tail = Some(WalTail::BadChecksum { at: at as u64 });
            break;
        }
        let decoded = match payload.first() {
            Some(&KIND_CHECKPOINT) => decode_checkpoint(payload).map(|c| checkpoint = Some(c)),
            _ => decode_record(payload).map(|r| records.push(r)),
        };
        if let Err(err) = decoded {
            tail = Some(WalTail::BadPayload {
                at: at as u64,
                reason: err.to_string(),
            });
            break;
        }
        at = body_end;
    }
    WalScan {
        records,
        checkpoint,
        valid_bytes: at as u64,
        tail,
    }
}

/// Scans a WAL file, returning the longest valid frame prefix. A missing
/// file is an empty log. Never panics on any byte sequence.
///
/// # Errors
/// Only genuine I/O failures ([`ServerError::Durability`]); corruption is
/// reported in [`WalScan::tail`], not as an error.
pub fn scan_wal(path: &Path) -> Result<WalScan> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalScan {
                records: Vec::new(),
                checkpoint: None,
                valid_bytes: 0,
                tail: None,
            })
        }
        Err(e) => return Err(ServerError::Durability(format!("reading WAL: {e}"))),
    };
    Ok(scan_bytes(&bytes))
}

// --- appending ------------------------------------------------------------

/// The append half of the log: owns the file handle and the LSN counter.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    next_lsn: u64,
}

impl Wal {
    /// Opens (or creates) the WAL at `path`, scanning the existing
    /// contents: the valid prefix (and any checkpoint frame) seeds the
    /// LSN counter, and any torn tail is truncated away so new frames
    /// never land behind garbage. Returns the scan so the caller can
    /// redo / report it.
    ///
    /// # Errors
    /// [`ServerError::Durability`] on I/O failure.
    pub fn open(path: &Path) -> Result<(Wal, WalScan)> {
        let scan = scan_wal(path)?;
        let io = |what: &str, e: std::io::Error| {
            ServerError::Durability(format!("{what} {}: {e}", path.display()))
        };
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(false)
            .truncate(false)
            .write(true)
            .open(path)
            .map_err(|e| io("opening WAL", e))?;
        file.set_len(scan.valid_bytes)
            .map_err(|e| io("truncating WAL tail", e))?;
        file.seek(SeekFrom::Start(scan.valid_bytes))
            .map_err(|e| io("seeking WAL", e))?;
        sync_parent_dir(path)?;
        let next_lsn = scan
            .records
            .last()
            .map_or(0, |r| r.lsn + 1)
            .max(scan.checkpoint.as_ref().map_or(0, |c| c.next_lsn));
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                next_lsn,
            },
            scan,
        ))
    }

    /// The LSN the next appended record will get.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Appends one record *without* syncing: frame write and LSN
    /// assignment only (crash point `wal-after-append` after the write).
    /// The record is not durable until a subsequent fsync; group commit
    /// batches several appends under one. Returns `(lsn, frame bytes)`.
    ///
    /// # Errors
    /// [`ServerError::Oversized`] for a record over
    /// [`MAX_WAL_FRAME_BYTES`], before anything is written.
    /// [`ServerError::Durability`] on I/O failure. A failed `write_all`
    /// may leave a partial frame, so the caller must treat the log as
    /// broken (see [`GroupWal`]).
    pub fn append(&mut self, record: &mut WalRecord) -> Result<(u64, u64)> {
        let lsn = self.next_lsn;
        record.lsn = lsn;
        let payload = encode_record(record);
        let mut frame = Vec::with_capacity(8 + payload.len());
        push_frame(&mut frame, &payload)?;
        self.file.write_all(&frame).map_err(|e| {
            ServerError::Durability(format!("appending WAL frame {}: {e}", self.path.display()))
        })?;
        fail_point("wal-after-append");
        self.next_lsn = lsn + 1;
        Ok((lsn, frame.len() as u64))
    }
}

// --- group commit ---------------------------------------------------------

/// Group-commit tuning.
#[derive(Debug, Clone, Copy)]
pub struct GroupCommitConfig {
    /// Maximum frames a single fsync may cover, enforced at append time.
    /// `1` makes every append fsync on its own.
    pub max_group: usize,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        Self { max_group: 64 }
    }
}

/// Cumulative durability counters, exposed through server stats and the
/// wire `DurabilityStats` response so group-commit amortisation is priced
/// directly (mean group size = `frames / fsyncs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// WAL fsyncs issued (checkpoint rewrites excluded).
    pub fsyncs: u64,
    /// Delta frames appended.
    pub frames: u64,
    /// Bytes appended (frame headers included).
    pub bytes: u64,
    /// Largest number of frames one fsync covered.
    pub max_group: u64,
    /// Checkpoint compactions completed.
    pub checkpoints: u64,
}

#[derive(Debug)]
struct GroupState {
    wal: Wal,
    /// Commit sequence numbers: count of frames appended through this
    /// handle (1-based; independent of LSNs, which survive restarts).
    appended_seq: u64,
    /// Highest sequence known durable.
    synced_seq: u64,
    /// Sticky failure: a failed append may have left a partial frame, a
    /// failed fsync an indeterminate prefix — nothing after either can
    /// be trusted durable, so the log refuses further work.
    broken: Option<String>,
    stats: WalStats,
    /// Delta-frame bytes in the log: appended since the last checkpoint
    /// or kept by it (compaction trigger).
    uncompacted_bytes: u64,
}

impl GroupState {
    fn check(&self) -> Result<()> {
        match &self.broken {
            Some(broken) => Err(ServerError::Durability(broken.clone())),
            None => Ok(()),
        }
    }

    /// Fsyncs every frame appended so far as one group.
    fn sync(&mut self) -> Result<()> {
        fail_point("group-leader-sync");
        fail_point("wal-before-fsync");
        if let Err(e) = self.wal.file.sync_data() {
            let message = format!("syncing WAL {}: {e}", self.wal.path.display());
            self.broken = Some(message.clone());
            return Err(ServerError::Durability(message));
        }
        fail_point("wal-after-fsync");
        let group = self.appended_seq - self.synced_seq;
        self.synced_seq = self.appended_seq;
        self.stats.fsyncs += 1;
        self.stats.max_group = self.stats.max_group.max(group);
        Ok(())
    }
}

/// The group-commit front of the WAL: one writer appends, one fsync per
/// group, checkpoint compaction. See the module docs.
#[derive(Debug)]
pub struct GroupWal {
    max_group: u64,
    state: Mutex<GroupState>,
}

impl GroupWal {
    /// Wraps an already-opened [`Wal`] (the recovery path opens and scans
    /// first, then hands the log over for serving).
    pub fn new(wal: Wal, cfg: GroupCommitConfig) -> Self {
        Self {
            max_group: cfg.max_group.max(1) as u64,
            state: Mutex::new(GroupState {
                wal,
                appended_seq: 0,
                synced_seq: 0,
                broken: None,
                stats: WalStats::default(),
                uncompacted_bytes: 0,
            }),
        }
    }

    /// Opens (or creates) the log at `path` behind a group-commit front.
    ///
    /// # Errors
    /// [`ServerError::Durability`] on I/O failure.
    pub fn open(path: &Path, cfg: GroupCommitConfig) -> Result<(Self, WalScan)> {
        let (wal, scan) = Wal::open(path)?;
        Ok((Self::new(wal, cfg), scan))
    }

    fn lock(&self) -> MutexGuard<'_, GroupState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The LSN the next appended record will get.
    pub fn next_lsn(&self) -> u64 {
        self.lock().wal.next_lsn
    }

    /// Cumulative durability counters.
    pub fn stats(&self) -> WalStats {
        self.lock().stats
    }

    /// Appends one record, returning the commit sequence number to pass
    /// to [`GroupWal::sync_through`]. The record's LSN is assigned (and
    /// `record.lsn` set) under the same lock that orders the frames, so
    /// LSN order equals file order. If the append leaves `max_group`
    /// frames unsynced, it fsyncs them before returning.
    ///
    /// # Errors
    /// [`ServerError::Durability`] on I/O failure or a previously broken
    /// log. An append failure breaks the log (partial frame), except a
    /// [`ServerError::Oversized`] record, which fails before anything is
    /// written and leaves the log serving.
    pub fn append(&self, record: &mut WalRecord) -> Result<u64> {
        let mut state = self.lock();
        state.check()?;
        let (_, bytes) = state.wal.append(record).inspect_err(|err| {
            if !matches!(err, ServerError::Oversized { .. }) {
                state.broken = Some(err.to_string());
            }
        })?;
        state.appended_seq += 1;
        state.stats.frames += 1;
        state.stats.bytes += bytes;
        state.uncompacted_bytes += bytes;
        if state.appended_seq - state.synced_seq >= self.max_group {
            state.sync()?;
        }
        Ok(state.appended_seq)
    }

    /// Makes every append up to `seq` durable: one fsync covering all
    /// unsynced frames, or nothing if `seq` already is. The applier calls
    /// this once per pass, after appending every batch it resolved.
    ///
    /// # Errors
    /// [`ServerError::Durability`] if the fsync failed or the log is
    /// broken; the caller must fail the batch (it was never durable).
    pub fn sync_through(&self, seq: u64) -> Result<()> {
        let mut state = self.lock();
        state.check()?;
        if state.synced_seq >= seq {
            return Ok(());
        }
        state.sync()
    }

    /// Appends one record and makes it durable. Returns the record's LSN.
    ///
    /// # Errors
    /// As [`GroupWal::append`] / [`GroupWal::sync_through`].
    pub fn append_sync(&self, record: &mut WalRecord) -> Result<u64> {
        let seq = self.append(record)?;
        self.sync_through(seq)?;
        Ok(record.lsn)
    }

    /// Whether [`GroupWal::checkpoint_if_due`] would compact the log now:
    /// it holds at least `threshold` bytes of delta frames and is not
    /// broken. Lets the snapshot thread skip computing coverage floors
    /// (which re-reads every retained snapshot) when no checkpoint is due.
    pub fn checkpoint_due(&self, threshold: u64) -> bool {
        let state = self.lock();
        state.broken.is_none() && state.uncompacted_bytes >= threshold
    }

    /// Compacts the log if it holds at least `threshold` bytes of delta
    /// frames (appended since the last checkpoint, or kept by it):
    /// rewrites every record at or past its session's floor (unknown
    /// sessions keep everything) into a new log headed by a checkpoint
    /// frame, fsyncs it, atomically renames it over the old one, and
    /// resumes appending there. Returns whether a
    /// checkpoint ran. Runs on the snapshot thread; appends and fsyncs
    /// are excluded for the duration by the log mutex.
    ///
    /// Crash points: `checkpoint-mid-rewrite` (torn temp file, old log
    /// intact), `checkpoint-before-rename` (complete temp, old log
    /// intact), `checkpoint-after-rename` (new log in place, directory
    /// fsync pending).
    ///
    /// # Errors
    /// [`ServerError::Durability`] on I/O failure. Failures before the
    /// rename abandon the temp file and leave the log serving; failures
    /// after it break the log (the handle no longer matches the file).
    pub fn checkpoint_if_due(&self, threshold: u64, floors: &[(String, u64)]) -> Result<bool> {
        let mut state = self.lock();
        if state.broken.is_some() || state.uncompacted_bytes < threshold {
            return Ok(false);
        }

        let path = state.wal.path.clone();
        // The mutex quiesces appends, so every frame in the file is
        // complete; unsynced frames are still visible (same page cache).
        let scan = scan_wal(&path)?;
        let floor_of = |session: &str| {
            floors
                .iter()
                .find(|(name, _)| name == session)
                .map_or(0, |&(_, floor)| floor)
        };
        let checkpoint = CheckpointRecord {
            next_lsn: state.wal.next_lsn,
            floors: floors.to_vec(),
        };
        let mut rewritten = Vec::new();
        push_frame(&mut rewritten, &encode_checkpoint(&checkpoint))?;
        let head = rewritten.len();
        for record in scan
            .records
            .iter()
            .filter(|r| r.lsn >= floor_of(&r.session))
        {
            push_frame(&mut rewritten, &encode_record(record))?;
        }

        let tmp = path.with_extension("wal.tmp");
        let io = |what: &str, p: &Path, e: std::io::Error| {
            ServerError::Durability(format!("{what} {}: {e}", p.display()))
        };
        let staged = (|| -> Result<()> {
            let mut file = OpenOptions::new()
                .create(true)
                .truncate(true)
                .write(true)
                .open(&tmp)
                .map_err(|e| io("creating", &tmp, e))?;
            // Two half-writes around the crash point, so the torture
            // suite can leave a genuinely torn rewrite behind.
            let mid = rewritten.len() / 2;
            file.write_all(&rewritten[..mid])
                .map_err(|e| io("writing", &tmp, e))?;
            fail_point("checkpoint-mid-rewrite");
            file.write_all(&rewritten[mid..])
                .map_err(|e| io("writing", &tmp, e))?;
            file.sync_data().map_err(|e| io("syncing", &tmp, e))
        })();
        if let Err(err) = staged {
            // The old log is untouched and still serving; drop the stage.
            let _ = std::fs::remove_file(&tmp);
            return Err(err);
        }
        fail_point("checkpoint-before-rename");
        if let Err(e) = std::fs::rename(&tmp, &path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(io("renaming checkpoint into place", &path, e));
        }
        fail_point("checkpoint-after-rename");

        // Past the rename the open handle writes to the *old* inode, so
        // any failure from here on breaks the log.
        let mut fatal = |message: String| -> ServerError {
            state.broken = Some(message.clone());
            ServerError::Durability(message)
        };
        if let Err(err) = sync_parent_dir(&path) {
            return Err(fatal(err.to_string()));
        }
        let reopened = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .and_then(|mut f| f.seek(SeekFrom::End(0)).map(|_| f));
        match reopened {
            Ok(file) => state.wal.file = file,
            Err(e) => {
                return Err(fatal(format!(
                    "reopening WAL after checkpoint {}: {e}",
                    path.display()
                )))
            }
        }
        // The rewrite was fully fsync'd before the rename, so everything
        // appended (synced or not) is now durable.
        state.synced_seq = state.appended_seq;
        // Frames the floors kept still count: a snapshot that lagged the
        // appends may cover them at its own checkpoint, with nothing new
        // appended in between.
        state.uncompacted_bytes = (rewritten.len() - head) as u64;
        state.stats.checkpoints += 1;
        Ok(true)
    }
}

/// Fsyncs the directory containing `path`, making a create/rename in it
/// durable (no-op on platforms where directories cannot be opened).
pub fn sync_parent_dir(path: &Path) -> Result<()> {
    let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) else {
        return Ok(());
    };
    match File::open(parent) {
        Ok(dir) => dir.sync_all().map_err(|e| {
            ServerError::Durability(format!("syncing directory {}: {e}", parent.display()))
        }),
        // Directories aren't openable everywhere; the rename itself is
        // still atomic, we just lose the metadata flush.
        Err(_) => Ok(()),
    }
}

/// Reads a whole file, distinguishing "missing" from other I/O failures.
pub(crate) fn read_file(path: &Path) -> Result<Option<Vec<u8>>> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(ServerError::Durability(format!(
            "reading {}: {e}",
            path.display()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(lsn: u64, session: &str) -> WalRecord {
        WalRecord {
            lsn,
            prev_lsn: None,
            session: session.to_string(),
            method: Method::Priu,
            removed_ids: vec![3, 5, 8],
            keep_last: Some(40),
            added: Some((2, vec![1.5, -2.0, 0.25, 4.0], vec![1.0, -1.0])),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_equals_the_bytewise_algorithm_at_every_length() {
        let bytewise = |bytes: &[u8]| {
            let t = &crc32_tables()[0];
            let mut c = 0xFFFF_FFFFu32;
            for &b in bytes {
                c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            c ^ 0xFFFF_FFFF
        };
        let bytes: Vec<u8> = (0..300u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for end in start..bytes.len() {
                assert_eq!(crc32(&bytes[start..end]), bytewise(&bytes[start..end]));
            }
        }
    }

    #[test]
    fn append_scan_round_trip() {
        let dir = tempdir("wal-roundtrip");
        let path = dir.join("deltas.wal");
        let (mut wal, scan) = Wal::open(&path).unwrap();
        assert!(scan.records.is_empty());
        assert!(scan.checkpoint.is_none());
        assert!(scan.tail.is_none());
        for i in 0..5u64 {
            let mut r = record(999, &format!("s{}", i % 2));
            if i > 2 {
                r.prev_lsn = Some(i - 1);
            }
            let (lsn, _) = wal.append(&mut r).unwrap();
            assert_eq!(lsn, i); // LSN is assigned by the log, not the caller
        }
        drop(wal);
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 5);
        assert!(scan.tail.is_none());
        assert_eq!(scan.records[3].lsn, 3);
        assert_eq!(scan.records[3].prev_lsn, Some(2));
        assert_eq!(scan.records[2].prev_lsn, None);
        assert_eq!(scan.records[3].session, "s1");
        assert_eq!(scan.records[3].removed_ids, vec![3, 5, 8]);
        assert_eq!(scan.records[3].keep_last, Some(40));
        let (num_features, features, labels) = scan.records[3].added.clone().unwrap();
        assert_eq!(num_features, 2);
        assert_eq!(features, vec![1.5, -2.0, 0.25, 4.0]);
        assert_eq!(labels, vec![1.0, -1.0]);

        // Reopening resumes the LSN sequence after the valid prefix.
        let (wal, scan) = Wal::open(&path).unwrap();
        assert_eq!(scan.records.len(), 5);
        assert_eq!(wal.next_lsn(), 5);
    }

    #[test]
    fn torn_tail_is_reported_and_truncated() {
        let dir = tempdir("wal-torn");
        let path = dir.join("deltas.wal");
        let (mut wal, _) = Wal::open(&path).unwrap();
        for _ in 0..3 {
            wal.append(&mut record(0, "s")).unwrap();
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();

        // Frame boundaries: a cut exactly there is indistinguishable from
        // a shorter log that ended cleanly.
        let clean = scan_wal(&path).unwrap();
        let mut boundaries = vec![0u64];
        for _ in &clean.records {
            // All frames are the same size here; recompute from the scan.
            boundaries.push(clean.valid_bytes / 3 * boundaries.len() as u64);
        }

        // Every truncation offset yields a clean prefix, never a panic; a
        // mid-frame cut is reported as a torn tail.
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let scan = scan_wal(&path).unwrap();
            assert!(scan.records.len() <= 3);
            assert!(scan.valid_bytes <= cut as u64);
            if boundaries.contains(&(cut as u64)) {
                assert!(scan.tail.is_none(), "boundary cut at {cut} misreported");
            } else {
                assert!(scan.tail.is_some(), "cut at {cut} lost a record silently");
            }
        }

        // A bit flip in the last frame's payload fails its checksum; the
        // prefix survives.
        let mut flipped = full.clone();
        let last = flipped.len() - 3;
        flipped[last] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert!(matches!(scan.tail, Some(WalTail::BadChecksum { .. })));

        // Reopening truncates the corrupt tail and appends cleanly after.
        let (mut wal, _) = Wal::open(&path).unwrap();
        assert_eq!(wal.next_lsn(), 2);
        wal.append(&mut record(0, "s")).unwrap();
        drop(wal);
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert!(scan.tail.is_none());
    }

    #[test]
    fn lengths_past_what_the_reader_admits_fail_typed_at_write_time() {
        let max = MAX_WAL_FRAME_BYTES;
        assert_eq!(length_prefix("frame", 0, max).unwrap(), 0);
        assert_eq!(length_prefix("frame", max as usize, max).unwrap(), max);
        assert!(matches!(
            length_prefix("frame", max as usize + 1, max),
            Err(ServerError::Oversized { what: "frame", .. })
        ));
        // A length past `u32::MAX` fails instead of wrapping to a small
        // prefix (the snapshot header's limit).
        if let Ok(len) = usize::try_from(1u64 << 32) {
            assert!(matches!(
                length_prefix("snapshot", len, u32::MAX),
                Err(ServerError::Oversized { len: l, max: u32::MAX, .. }) if l == len
            ));
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let dir = tempdir("wal-oversized");
        let path = dir.join("deltas.wal");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert!(scan.records.is_empty());
        assert!(matches!(scan.tail, Some(WalTail::OversizedFrame { .. })));
    }

    #[test]
    fn non_ascending_removed_ids_are_a_bad_payload() {
        let dir = tempdir("wal-unsorted");
        let path = dir.join("deltas.wal");
        for bad in [vec![5, 3], vec![3, 3]] {
            // A valid frame, then one whose CRC holds but whose removal
            // set is out of order (the encoder writes whatever it gets).
            let mut bytes = Vec::new();
            push_frame(&mut bytes, &encode_record(&record(0, "s"))).unwrap();
            let mut unsorted = record(1, "s");
            unsorted.removed_ids = bad;
            push_frame(&mut bytes, &encode_record(&unsorted)).unwrap();
            std::fs::write(&path, &bytes).unwrap();
            let scan = scan_wal(&path).unwrap();
            assert_eq!(scan.records.len(), 1);
            match scan.tail {
                Some(WalTail::BadPayload { reason, .. }) => {
                    assert!(reason.contains("strictly ascending"), "{reason}")
                }
                other => panic!("expected a bad payload, got {other:?}"),
            }
        }
    }

    #[test]
    fn group_commit_shares_fsyncs_and_acks_in_order() {
        let dir = tempdir("wal-group");
        let path = dir.join("deltas.wal");
        let (wal, _) = GroupWal::open(&path, GroupCommitConfig::default()).unwrap();

        // A chain of appends, one sync for the lot: every record durable,
        // one fsync counted, group size = chain length.
        let mut last = 0;
        for i in 0..6u64 {
            let mut r = record(0, "s");
            r.prev_lsn = (i > 0).then(|| i - 1);
            last = wal.append(&mut r).unwrap();
            assert_eq!(r.lsn, i);
        }
        wal.sync_through(last).unwrap();
        let stats = wal.stats();
        assert_eq!(stats.frames, 6);
        assert_eq!(stats.fsyncs, 1);
        assert_eq!(stats.max_group, 6);
        assert!(stats.bytes > 0);
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 6);
        assert!(scan.tail.is_none());

        // Syncing an already-durable sequence is free.
        wal.sync_through(last).unwrap();
        assert_eq!(wal.stats().fsyncs, 1);

        // max_group = 1 degenerates to one fsync per frame.
        let dir = tempdir("wal-group-1");
        let path = dir.join("deltas.wal");
        let (wal, _) = GroupWal::open(&path, GroupCommitConfig { max_group: 1 }).unwrap();
        for seq in 1..=3 {
            assert_eq!(wal.append(&mut record(0, "s")).unwrap(), seq);
            assert_eq!(wal.stats().fsyncs, seq, "every append fsyncs");
        }
        wal.sync_through(3).unwrap();
        let stats = wal.stats();
        assert_eq!(stats.frames, 3);
        assert_eq!(stats.fsyncs, 3, "a group of 1 per fsync");
        assert_eq!(stats.max_group, 1);
    }

    #[test]
    fn checkpoint_truncates_covered_records_and_preserves_lsns() {
        let dir = tempdir("wal-checkpoint");
        let path = dir.join("deltas.wal");
        let (wal, _) = GroupWal::open(&path, GroupCommitConfig::default()).unwrap();
        for i in 0..8u64 {
            let session = if i % 2 == 0 { "a" } else { "b" };
            let seq = wal.append(&mut record(0, session)).unwrap();
            wal.sync_through(seq).unwrap();
        }
        let before = std::fs::metadata(&path).unwrap().len();

        // Floors: a's snapshots cover LSN < 6, b's cover LSN < 3; session
        // a keeps {6}, b keeps {3, 5, 7}.
        let floors = vec![("a".to_string(), 6), ("b".to_string(), 3)];
        assert!(wal.checkpoint_due(1) && !wal.checkpoint_due(1 << 30));
        assert!(wal.checkpoint_if_due(1, &floors).unwrap());
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after < before, "compaction shrank the log");

        let scan = scan_wal(&path).unwrap();
        let lsns: Vec<u64> = scan.records.iter().map(|r| r.lsn).collect();
        assert_eq!(lsns, vec![3, 5, 6, 7]);
        let checkpoint = scan.checkpoint.expect("checkpoint frame");
        assert_eq!(checkpoint.next_lsn, 8);
        assert_eq!(checkpoint.floors, floors);

        // Below-threshold appends don't re-checkpoint.
        assert!(!wal.checkpoint_due(1 << 30));
        assert!(!wal.checkpoint_if_due(1 << 30, &floors).unwrap());

        // Appending continues the LSN sequence on the rewritten log.
        let mut r = record(0, "a");
        let seq = wal.append(&mut r).unwrap();
        wal.sync_through(seq).unwrap();
        assert_eq!(r.lsn, 8);

        // Reopening seeds the counter from the checkpoint chain even if
        // every remaining delta frame were truncated away.
        let (reopened, scan) = Wal::open(&path).unwrap();
        assert_eq!(scan.records.len(), 5);
        assert_eq!(reopened.next_lsn(), 9);
    }

    #[test]
    fn checkpoint_of_a_fully_covered_log_keeps_only_the_marker() {
        let dir = tempdir("wal-checkpoint-empty");
        let path = dir.join("deltas.wal");
        let (wal, _) = GroupWal::open(&path, GroupCommitConfig::default()).unwrap();
        for _ in 0..4 {
            let seq = wal.append(&mut record(0, "s")).unwrap();
            wal.sync_through(seq).unwrap();
        }
        assert!(wal.checkpoint_if_due(1, &[("s".to_string(), 4)]).unwrap());
        let scan = scan_wal(&path).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.checkpoint.expect("marker").next_lsn, 4);
        // The counter survives the empty rewrite.
        let (reopened, _) = Wal::open(&path).unwrap();
        assert_eq!(reopened.next_lsn(), 4);
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("priu-{tag}-{}", std::process::id(),));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
