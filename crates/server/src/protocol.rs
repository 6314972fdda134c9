//! The length-prefixed request protocol.
//!
//! # Framing
//!
//! Every message is one frame: a little-endian `u32` payload length
//! followed by that many payload bytes, at most [`MAX_FRAME_BYTES`] of
//! them ([`write_frame`] refuses a larger payload, [`read_frame`] a larger
//! prefix). Payloads encode through the workspace's one byte codec,
//! `priu_core::snapshot`'s `SnapshotWriter` / `SnapshotReader`, which the
//! WAL and snapshots use too: integers are little-endian, `f64`s travel as
//! their IEEE-754 bit pattern (bit-exact across the wire), strings as a
//! `u32` byte length plus UTF-8 bytes, flags as one strict 0/1 byte, and
//! vectors as a `u32` element count plus the elements. The first payload
//! byte after the 8-byte request/response id is a message tag. Codec
//! errors map onto [`ProtocolError`] variants.
//!
//! The protocol is transport-agnostic over `Read`/`Write`: a
//! `TcpStream`, a Unix socket, or the in-memory [`pipe`] from this module
//! all work unchanged. Each connection gets a **dedicated reader thread**
//! ([`spawn_frame_reader`]) that blocks on the transport and feeds decoded
//! messages into an `mpsc` **message queue**, so slow transports never
//! stall the service loop and a clean EOF simply closes the queue.
//!
//! Request and response ids are caller-chosen correlation handles:
//! responses may arrive out of order (deletions resolve when their batch
//! commits, long after later predicts answered).

use std::io::{Read, Write};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::{fmt, io, thread};

use priu_core::snapshot::{CodecError, CodecResult, SnapshotReader, SnapshotWriter};
use priu_core::Method;

use crate::wal::method_index;

/// Frames larger than this are rejected while decoding the length prefix
/// (corrupt or hostile peer, not a real message).
pub const MAX_FRAME_BYTES: u32 = 16 << 20;

/// Everything that can go wrong while decoding the wire format.
#[derive(Debug)]
pub enum ProtocolError {
    /// The transport failed.
    Io(io::Error),
    /// The stream ended in the middle of a frame or a field.
    Truncated,
    /// An unknown message or method tag.
    BadTag(u8),
    /// A length prefix exceeded [`MAX_FRAME_BYTES`].
    FrameTooLarge(u32),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Payload bytes were left over after a complete message.
    TrailingBytes(usize),
    /// A field decoded but broke an invariant of its type.
    Invalid(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(err) => write!(f, "transport error: {err}"),
            ProtocolError::Truncated => f.write_str("frame truncated mid-message"),
            ProtocolError::BadTag(tag) => write!(f, "unknown message tag {tag:#04x}"),
            ProtocolError::FrameTooLarge(len) => {
                write!(
                    f,
                    "frame length {len} exceeds the {MAX_FRAME_BYTES} byte cap"
                )
            }
            ProtocolError::BadUtf8 => f.write_str("string field is not valid UTF-8"),
            ProtocolError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after a complete message")
            }
            ProtocolError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(err: io::Error) -> Self {
        ProtocolError::Io(err)
    }
}

impl From<CodecError> for ProtocolError {
    fn from(err: CodecError) -> Self {
        match err {
            CodecError::Truncated(_) => ProtocolError::Truncated,
            CodecError::BadTag(tag, _) => ProtocolError::BadTag(tag),
            CodecError::BadUtf8(_) => ProtocolError::BadUtf8,
            CodecError::TrailingBytes(n) => ProtocolError::TrailingBytes(n),
            CodecError::Invalid(what) => ProtocolError::Invalid(what),
        }
    }
}

/// What a client can ask of the server.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Predict on the named session's current model snapshot.
    Predict {
        /// Session name.
        session: String,
        /// Feature vector; must match the session's feature count.
        features: Vec<f64>,
    },
    /// Delete rows (by stable id) from the named session. The response
    /// arrives once the coalesced batch containing the request commits.
    Delete {
        /// Session name.
        session: String,
        /// Stable row ids to remove.
        ids: Vec<u64>,
    },
    /// Force the named session's pending deletions out now.
    Flush {
        /// Session name.
        session: String,
    },
    /// The named session's bookkeeping (epoch, drift, decisions, ...).
    Stats {
        /// Session name.
        session: String,
    },
    /// Append rows to the named session. The response arrives once the
    /// coalesced batch containing the request commits; appended rows get
    /// fresh stable ids (never reusing a retired id).
    Add {
        /// Session name.
        session: String,
        /// Feature width of every appended row; must match the session.
        num_features: u32,
        /// Row-major features, `labels.len() * num_features` values.
        features: Vec<f64>,
        /// One label per row: continuous value, ±1, or class index,
        /// following the session's task.
        labels: Vec<f64>,
    },
    /// Sliding-window tick: append rows (possibly none) and retain at most
    /// `keep_last` rows after the batch commits. Expiry removes the oldest
    /// pre-existing committed rows first (lowest stable ids) and never
    /// touches rows the same batch appends; it is clamped so at least one
    /// pre-existing row survives.
    Tick {
        /// Session name.
        session: String,
        /// Feature width of every appended row.
        num_features: u32,
        /// Row-major features, `labels.len() * num_features` values.
        features: Vec<f64>,
        /// One label per row.
        labels: Vec<f64>,
        /// Window size: the row count to retain after the commit.
        keep_last: u64,
    },
    /// What restart recovery loaded, redid, and skipped (server-wide).
    Recovery,
    /// Cumulative server-wide durability counters (fsyncs, WAL bytes,
    /// group sizes, checkpoints).
    DurabilityStats,
}

/// One session's line in a [`Response::RecoveryStatus`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoverySessionStatus {
    /// Session name.
    pub session: String,
    /// WAL records redone onto the loaded snapshot.
    pub redone: u64,
    /// WAL records skipped (their apply failed live too, or their ids did
    /// not resolve).
    pub skipped: u64,
    /// The epoch the session recovered to.
    pub final_epoch: u64,
}

/// What the server answers.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A prediction from one immutable model snapshot.
    Predicted {
        /// Regression value, decision value, or winning logit.
        value: f64,
        /// Predicted class for classifiers, `None` for regression.
        class: Option<u64>,
        /// Epoch of the snapshot that produced the prediction.
        epoch: u64,
    },
    /// The request's deletion batch committed.
    Deleted {
        /// Distinct rows the request asked for.
        requested: u64,
        /// Rows actually removed (live at batch time).
        applied: u64,
        /// Rows already gone, acknowledged without work.
        stale: u64,
        /// Distinct rows in the whole coalesced batch.
        batch_rows: u64,
        /// Method the scheduler picked; `None` when the batch was all
        /// stale and nothing ran.
        method: Option<Method>,
        /// Engine-measured seconds of the online update.
        seconds: f64,
        /// Session epoch after the commit.
        epoch: u64,
    },
    /// The request's add/tick batch committed.
    Applied {
        /// Rows this request appended.
        added: u64,
        /// Rows the batch's sliding-window retention expired (batch-level:
        /// expiry is a property of the whole coalesced batch).
        expired: u64,
        /// Distinct rows the whole coalesced batch removed (deletions plus
        /// retention expiry).
        batch_rows: u64,
        /// Method the scheduler picked; `None` when the batch changed
        /// nothing and no engine call ran.
        method: Option<Method>,
        /// Engine-measured seconds of the online update.
        seconds: f64,
        /// Session epoch after the commit.
        epoch: u64,
    },
    /// Flush accepted.
    Flushed,
    /// Session bookkeeping.
    Stats {
        /// Current epoch.
        epoch: u64,
        /// Current (surviving) sample count.
        num_samples: u64,
        /// Feature count.
        num_features: u64,
        /// Drift ratio since the last refit.
        drift: f64,
        /// Deletion requests still pending in the planner.
        pending: u64,
        /// Scheduler decision histogram, [`Method::ALL`] order.
        decisions: Vec<(Method, u64)>,
    },
    /// What restart recovery did. `durable: false` means the server runs
    /// without a durability layer (everything else is zero/empty).
    RecoveryStatus {
        /// Whether the server has a durability layer at all.
        durable: bool,
        /// Valid WAL records in the scanned prefix.
        wal_records: u64,
        /// Rendered torn-tail description, if the WAL did not end cleanly.
        wal_tail: Option<String>,
        /// Corrupt snapshot files recovery skipped.
        snapshot_skips: u64,
        /// WAL records whose session had no usable snapshot.
        orphan_records: u64,
        /// Per-session outcomes, sorted by name.
        sessions: Vec<RecoverySessionStatus>,
    },
    /// Cumulative durability counters. `durable: false` means the server
    /// runs without a durability layer (all counters are zero).
    DurabilityStats {
        /// Whether the server has a durability layer at all.
        durable: bool,
        /// Total `fsync` calls the WAL issued (group commit shares one
        /// fsync across many frames, so this lags `wal_frames`).
        fsyncs: u64,
        /// WAL frames appended (one per resolved non-noop batch).
        wal_frames: u64,
        /// WAL bytes appended (frame headers included).
        wal_bytes: u64,
        /// Largest number of frames a single fsync covered.
        max_group: u64,
        /// WAL checkpoint rewrites completed.
        checkpoints: u64,
    },
    /// The request failed; the message is the rendered server error.
    Error {
        /// Human-readable failure description.
        message: String,
    },
}

/// A request plus its correlation id.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestEnvelope {
    /// Caller-chosen correlation id, echoed on the response.
    pub id: u64,
    /// The request itself.
    pub request: Request,
}

/// A response plus the correlation id it answers.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseEnvelope {
    /// Correlation id of the request this answers.
    pub id: u64,
    /// The response itself.
    pub response: Response,
}

// --- frame I/O -----------------------------------------------------------

/// Writes one length-prefixed frame.
///
/// # Errors
/// [`io::ErrorKind::InvalidInput`], with nothing written, if the payload
/// exceeds [`MAX_FRAME_BYTES`] (the peer's [`read_frame`] would reject it
/// and drop the connection); otherwise transport errors.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&len| len <= MAX_FRAME_BYTES)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "a {} byte payload exceeds the {MAX_FRAME_BYTES} byte frame cap",
                    payload.len()
                ),
            )
        })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame. `Ok(None)` is a clean EOF at a frame
/// boundary; EOF inside a frame is [`ProtocolError::Truncated`].
///
/// # Errors
/// Transport errors, truncation, or an oversized length prefix.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut len = [0u8; 4];
    match read_exact_or_eof(r, &mut len)? {
        Filled::Eof => return Ok(None),
        Filled::Partial => return Err(ProtocolError::Truncated),
        Filled::Full => {}
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME_BYTES {
        return Err(ProtocolError::FrameTooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    match read_exact_or_eof(r, &mut payload)? {
        Filled::Full => Ok(Some(payload)),
        _ => Err(ProtocolError::Truncated),
    }
}

enum Filled {
    Full,
    Partial,
    Eof,
}

fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<Filled, ProtocolError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    Filled::Eof
                } else {
                    Filled::Partial
                });
            }
            Ok(n) => filled += n,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err.into()),
        }
    }
    Ok(Filled::Full)
}

// --- payload encoding ----------------------------------------------------

const TAG_PREDICT: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_FLUSH: u8 = 3;
const TAG_STATS: u8 = 4;
const TAG_ADD: u8 = 5;
const TAG_TICK: u8 = 6;
const TAG_RECOVERY: u8 = 7;
const TAG_DURABILITY_STATS: u8 = 8;

const TAG_PREDICTED: u8 = 101;
const TAG_DELETED: u8 = 102;
const TAG_FLUSHED: u8 = 103;
const TAG_STATS_REPLY: u8 = 104;
const TAG_ERROR: u8 = 105;
const TAG_APPLIED: u8 = 106;
const TAG_RECOVERY_STATUS: u8 = 107;
const TAG_DURABILITY_STATS_REPLY: u8 = 108;

/// `method + 1` as a byte, 0 for `None`, using [`Method::ALL`] positions.
fn put_method(w: &mut SnapshotWriter, method: Option<Method>) {
    w.u8(method.map_or(0, |m| method_index(m) + 1));
}

fn get_method(r: &mut SnapshotReader<'_>) -> CodecResult<Option<Method>> {
    let code = r.u8("method")?;
    match code.checked_sub(1) {
        None => Ok(None),
        Some(ix) => Method::ALL
            .get(usize::from(ix))
            .copied()
            .map(Some)
            .ok_or_else(|| CodecError::BadTag(code, format!("bad method code {code}"))),
    }
}

/// Encodes a request envelope into a frame payload.
pub fn encode_request(env: &RequestEnvelope) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.u64(env.id);
    match &env.request {
        Request::Predict { session, features } => {
            w.u8(TAG_PREDICT);
            w.str(session);
            w.len32(features.len());
            w.f64s(features);
        }
        Request::Delete { session, ids } => {
            w.u8(TAG_DELETE);
            w.str(session);
            w.len32(ids.len());
            w.u64s(ids);
        }
        Request::Flush { session } => {
            w.u8(TAG_FLUSH);
            w.str(session);
        }
        Request::Stats { session } => {
            w.u8(TAG_STATS);
            w.str(session);
        }
        Request::Add {
            session,
            num_features,
            features,
            labels,
        } => {
            w.u8(TAG_ADD);
            w.str(session);
            put_added_rows(&mut w, *num_features, features, labels);
        }
        Request::Tick {
            session,
            num_features,
            features,
            labels,
            keep_last,
        } => {
            w.u8(TAG_TICK);
            w.str(session);
            put_added_rows(&mut w, *num_features, features, labels);
            w.u64(*keep_last);
        }
        Request::Recovery => w.u8(TAG_RECOVERY),
        Request::DurabilityStats => w.u8(TAG_DURABILITY_STATS),
    }
    w.into_bytes()
}

/// Encodes an appended-rows block: feature width, row count, row-major
/// features, then one label per row.
fn put_added_rows(w: &mut SnapshotWriter, num_features: u32, features: &[f64], labels: &[f64]) {
    w.u32(num_features);
    w.len32(labels.len());
    w.f64s(features);
    w.f64s(labels);
}

/// Decodes the body of an appended-rows block whose feature width and row
/// count the caller has read (`u32`s on the wire, `u64`s in the WAL):
/// `num_rows × num_features` row-major features, then one label per row.
/// Both runs are checked against the remaining bytes before allocation.
pub(crate) fn get_added_rows(
    r: &mut SnapshotReader<'_>,
    num_features: usize,
    num_rows: usize,
) -> CodecResult<(Vec<f64>, Vec<f64>)> {
    let total = num_rows
        .checked_mul(num_features)
        .ok_or_else(|| CodecError::Truncated("added rows overflow".to_string()))?;
    Ok((
        r.f64s(total, "added features")?,
        r.f64s(num_rows, "added labels")?,
    ))
}

/// Encodes a response envelope into a frame payload.
pub fn encode_response(env: &ResponseEnvelope) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.u64(env.id);
    match &env.response {
        Response::Predicted {
            value,
            class,
            epoch,
        } => {
            w.u8(TAG_PREDICTED);
            w.f64(*value);
            w.option(*class, SnapshotWriter::u64);
            w.u64(*epoch);
        }
        Response::Deleted {
            requested,
            applied,
            stale,
            batch_rows,
            method,
            seconds,
            epoch,
        } => {
            w.u8(TAG_DELETED);
            w.u64s(&[*requested, *applied, *stale, *batch_rows]);
            put_method(&mut w, *method);
            w.f64(*seconds);
            w.u64(*epoch);
        }
        Response::Applied {
            added,
            expired,
            batch_rows,
            method,
            seconds,
            epoch,
        } => {
            w.u8(TAG_APPLIED);
            w.u64s(&[*added, *expired, *batch_rows]);
            put_method(&mut w, *method);
            w.f64(*seconds);
            w.u64(*epoch);
        }
        Response::Flushed => w.u8(TAG_FLUSHED),
        Response::Stats {
            epoch,
            num_samples,
            num_features,
            drift,
            pending,
            decisions,
        } => {
            w.u8(TAG_STATS_REPLY);
            w.u64s(&[*epoch, *num_samples, *num_features]);
            w.f64(*drift);
            w.u64(*pending);
            w.len32(decisions.len());
            for &(method, count) in decisions {
                put_method(&mut w, Some(method));
                w.u64(count);
            }
        }
        Response::RecoveryStatus {
            durable,
            wal_records,
            wal_tail,
            snapshot_skips,
            orphan_records,
            sessions,
        } => {
            w.u8(TAG_RECOVERY_STATUS);
            w.bool(*durable);
            w.u64(*wal_records);
            w.option(wal_tail.as_deref(), SnapshotWriter::str);
            w.u64s(&[*snapshot_skips, *orphan_records]);
            w.len32(sessions.len());
            for s in sessions {
                w.str(&s.session);
                w.u64s(&[s.redone, s.skipped, s.final_epoch]);
            }
        }
        Response::DurabilityStats {
            durable,
            fsyncs,
            wal_frames,
            wal_bytes,
            max_group,
            checkpoints,
        } => {
            w.u8(TAG_DURABILITY_STATS_REPLY);
            w.bool(*durable);
            w.u64s(&[*fsyncs, *wal_frames, *wal_bytes, *max_group, *checkpoints]);
        }
        Response::Error { message } => {
            w.u8(TAG_ERROR);
            w.str(message);
        }
    }
    w.into_bytes()
}

/// Decodes a frame payload into a request envelope.
///
/// # Errors
/// Truncated/oversized fields, unknown tags, invalid UTF-8, trailing
/// bytes.
pub fn decode_request(payload: &[u8]) -> Result<RequestEnvelope, ProtocolError> {
    let mut r = SnapshotReader::new(payload);
    let id = r.u64("id")?;
    let request = match r.u8("tag")? {
        TAG_PREDICT => {
            let session = r.str("session")?;
            let n = r.u32("feature count")? as usize;
            Request::Predict {
                session,
                features: r.f64s(n, "features")?,
            }
        }
        TAG_DELETE => {
            let session = r.str("session")?;
            let n = r.u32("id count")? as usize;
            Request::Delete {
                session,
                ids: r.u64s(n, "ids")?,
            }
        }
        TAG_FLUSH => Request::Flush {
            session: r.str("session")?,
        },
        TAG_STATS => Request::Stats {
            session: r.str("session")?,
        },
        tag @ (TAG_ADD | TAG_TICK) => {
            let session = r.str("session")?;
            let num_features = r.u32("num_features")?;
            let num_rows = r.u32("num_rows")? as usize;
            let (features, labels) = get_added_rows(&mut r, num_features as usize, num_rows)?;
            if tag == TAG_ADD {
                Request::Add {
                    session,
                    num_features,
                    features,
                    labels,
                }
            } else {
                Request::Tick {
                    session,
                    num_features,
                    features,
                    labels,
                    keep_last: r.u64("keep_last")?,
                }
            }
        }
        TAG_RECOVERY => Request::Recovery,
        TAG_DURABILITY_STATS => Request::DurabilityStats,
        other => return Err(ProtocolError::BadTag(other)),
    };
    r.finish()?;
    Ok(RequestEnvelope { id, request })
}

/// Decodes a frame payload into a response envelope.
///
/// # Errors
/// Same failure modes as [`decode_request`], plus a flag byte other than
/// 0 or 1 ([`ProtocolError::BadTag`]).
pub fn decode_response(payload: &[u8]) -> Result<ResponseEnvelope, ProtocolError> {
    let mut r = SnapshotReader::new(payload);
    let id = r.u64("id")?;
    let response = match r.u8("tag")? {
        TAG_PREDICTED => Response::Predicted {
            value: r.f64("value")?,
            class: r.option("class flag", |r| r.u64("class"))?,
            epoch: r.u64("epoch")?,
        },
        TAG_DELETED => Response::Deleted {
            requested: r.u64("requested")?,
            applied: r.u64("applied")?,
            stale: r.u64("stale")?,
            batch_rows: r.u64("batch_rows")?,
            method: get_method(&mut r)?,
            seconds: r.f64("seconds")?,
            epoch: r.u64("epoch")?,
        },
        TAG_APPLIED => Response::Applied {
            added: r.u64("added")?,
            expired: r.u64("expired")?,
            batch_rows: r.u64("batch_rows")?,
            method: get_method(&mut r)?,
            seconds: r.f64("seconds")?,
            epoch: r.u64("epoch")?,
        },
        TAG_FLUSHED => Response::Flushed,
        TAG_STATS_REPLY => Response::Stats {
            epoch: r.u64("epoch")?,
            num_samples: r.u64("num_samples")?,
            num_features: r.u64("num_features")?,
            drift: r.f64("drift")?,
            pending: r.u64("pending")?,
            decisions: {
                let n = r.len32(9, "decisions")?;
                (0..n)
                    .map(|_| {
                        let method = get_method(&mut r)?.ok_or(ProtocolError::BadTag(0))?;
                        Ok((method, r.u64("decision count")?))
                    })
                    .collect::<Result<_, ProtocolError>>()?
            },
        },
        TAG_RECOVERY_STATUS => Response::RecoveryStatus {
            durable: r.bool("durable")?,
            wal_records: r.u64("wal_records")?,
            wal_tail: r.option("wal_tail flag", |r| r.str("wal_tail"))?,
            snapshot_skips: r.u64("snapshot_skips")?,
            orphan_records: r.u64("orphan_records")?,
            sessions: {
                let n = r.len32(28, "sessions")?;
                (0..n)
                    .map(|_| {
                        Ok(RecoverySessionStatus {
                            session: r.str("session")?,
                            redone: r.u64("redone")?,
                            skipped: r.u64("skipped")?,
                            final_epoch: r.u64("final_epoch")?,
                        })
                    })
                    .collect::<CodecResult<_>>()?
            },
        },
        TAG_DURABILITY_STATS_REPLY => Response::DurabilityStats {
            durable: r.bool("durable")?,
            fsyncs: r.u64("fsyncs")?,
            wal_frames: r.u64("wal_frames")?,
            wal_bytes: r.u64("wal_bytes")?,
            max_group: r.u64("max_group")?,
            checkpoints: r.u64("checkpoints")?,
        },
        TAG_ERROR => Response::Error {
            message: r.str("message")?,
        },
        other => return Err(ProtocolError::BadTag(other)),
    };
    r.finish()?;
    Ok(ResponseEnvelope { id, response })
}

// --- the dedicated reader thread -----------------------------------------

/// Spawns the per-connection reader thread: it blocks on the transport,
/// decodes each frame with `decode`, and pushes the results into the
/// returned message queue. A clean EOF (or the receiver being dropped)
/// ends the thread and closes the queue; a decode or transport error is
/// delivered as the queue's final message.
pub fn spawn_frame_reader<R, T, F>(
    mut transport: R,
    decode: F,
) -> (Receiver<Result<T, ProtocolError>>, JoinHandle<()>)
where
    R: Read + Send + 'static,
    T: Send + 'static,
    F: Fn(&[u8]) -> Result<T, ProtocolError> + Send + 'static,
{
    let (tx, rx) = channel();
    let handle = thread::Builder::new()
        .name("priu-server-reader".to_string())
        .spawn(move || loop {
            match read_frame(&mut transport) {
                Ok(None) => break,
                Ok(Some(payload)) => {
                    if tx.send(decode(&payload)).is_err() {
                        break;
                    }
                }
                Err(err) => {
                    let _ = tx.send(Err(err));
                    break;
                }
            }
        })
        .expect("spawn reader thread");
    (rx, handle)
}

// --- in-memory transport -------------------------------------------------

#[derive(Debug, Default)]
struct PipeShared {
    buf: Vec<u8>,
    writer_closed: bool,
    reader_closed: bool,
}

#[derive(Debug, Default)]
struct PipeInner {
    shared: Mutex<PipeShared>,
    readable: Condvar,
}

/// The write half of an in-memory byte pipe.
#[derive(Debug)]
pub struct PipeWriter {
    inner: Arc<PipeInner>,
}

/// The read half of an in-memory byte pipe.
#[derive(Debug)]
pub struct PipeReader {
    inner: Arc<PipeInner>,
}

/// A unidirectional in-memory byte pipe with blocking reads — the
/// sandbox-friendly stand-in for a socket. Dropping the writer delivers
/// EOF to the reader; dropping the reader turns writes into
/// `BrokenPipe`.
pub fn pipe() -> (PipeWriter, PipeReader) {
    let inner = Arc::new(PipeInner::default());
    (
        PipeWriter {
            inner: inner.clone(),
        },
        PipeReader { inner },
    )
}

/// A bidirectional in-memory connection: two pipes crossed over. Returns
/// `(client, server)` halves, each a `(writer, reader)` pair.
#[allow(clippy::type_complexity)]
pub fn duplex() -> ((PipeWriter, PipeReader), (PipeWriter, PipeReader)) {
    let (client_w, server_r) = pipe();
    let (server_w, client_r) = pipe();
    ((client_w, client_r), (server_w, server_r))
}

impl Write for PipeWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut shared = self
            .inner
            .shared
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if shared.reader_closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "pipe reader dropped",
            ));
        }
        shared.buf.extend_from_slice(buf);
        self.inner.readable.notify_all();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        let mut shared = self
            .inner
            .shared
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        shared.writer_closed = true;
        self.inner.readable.notify_all();
    }
}

impl Read for PipeReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut shared = self
            .inner
            .shared
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while shared.buf.is_empty() && !shared.writer_closed {
            shared = self
                .inner
                .readable
                .wait(shared)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if shared.buf.is_empty() {
            return Ok(0); // writer closed: EOF
        }
        let n = buf.len().min(shared.buf.len());
        buf[..n].copy_from_slice(&shared.buf[..n]);
        shared.buf.drain(..n);
        Ok(n)
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        let mut shared = self
            .inner
            .shared
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        shared.reader_closed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(request: Request) {
        let env = RequestEnvelope { id: 42, request };
        let decoded = decode_request(&encode_request(&env)).unwrap();
        assert_eq!(decoded, env);
    }

    fn round_trip_response(response: Response) {
        let env = ResponseEnvelope { id: 7, response };
        let decoded = decode_response(&encode_response(&env)).unwrap();
        assert_eq!(decoded, env);
    }

    #[test]
    fn every_message_round_trips_bit_exactly() {
        round_trip_request(Request::Predict {
            session: "tenant/model".into(),
            features: vec![0.0, -1.5, f64::MIN_POSITIVE, 1.0e300, -0.0],
        });
        round_trip_request(Request::Delete {
            session: "s".into(),
            ids: vec![0, u64::MAX, 17],
        });
        round_trip_request(Request::Flush {
            session: "s".into(),
        });
        round_trip_request(Request::Stats {
            session: "πρ/iu".into(),
        });
        round_trip_request(Request::Add {
            session: "s".into(),
            num_features: 3,
            features: vec![1.0, -2.5, 0.0, 4.0, f64::MAX, -0.0],
            labels: vec![1.0, -1.0],
        });
        round_trip_request(Request::Add {
            session: "s".into(),
            num_features: 0,
            features: vec![],
            labels: vec![],
        });
        round_trip_request(Request::Tick {
            session: "window".into(),
            num_features: 2,
            features: vec![0.5, 0.25],
            labels: vec![7.0],
            keep_last: 1000,
        });
        round_trip_request(Request::Tick {
            session: "shrink-only".into(),
            num_features: 4,
            features: vec![],
            labels: vec![],
            keep_last: 64,
        });

        round_trip_response(Response::Predicted {
            value: -3.25,
            class: Some(2),
            epoch: 9,
        });
        round_trip_response(Response::Predicted {
            value: f64::NEG_INFINITY,
            class: None,
            epoch: 0,
        });
        for method in Method::ALL.iter().map(|&m| Some(m)).chain([None]) {
            round_trip_response(Response::Deleted {
                requested: 3,
                applied: 2,
                stale: 1,
                batch_rows: 5,
                method,
                seconds: 0.001953125,
                epoch: 4,
            });
        }
        for method in [Some(Method::ClosedForm), None] {
            round_trip_response(Response::Applied {
                added: 12,
                expired: 7,
                batch_rows: 9,
                method,
                seconds: 0.25,
                epoch: 3,
            });
        }
        round_trip_response(Response::Flushed);
        round_trip_response(Response::Stats {
            epoch: 12,
            num_samples: 4800,
            num_features: 16,
            drift: 0.04,
            pending: 3,
            decisions: Method::ALL.iter().map(|&m| (m, 2)).collect(),
        });
        round_trip_request(Request::DurabilityStats);
        round_trip_response(Response::DurabilityStats {
            durable: true,
            fsyncs: 7,
            wal_frames: 41,
            wal_bytes: 9001,
            max_group: 12,
            checkpoints: 2,
        });
        round_trip_response(Response::DurabilityStats {
            durable: false,
            fsyncs: 0,
            wal_frames: 0,
            wal_bytes: 0,
            max_group: 0,
            checkpoints: 0,
        });
        round_trip_response(Response::Error {
            message: "unknown session \"x\"".into(),
        });
    }

    #[test]
    fn f64_payloads_are_bit_exact_including_nan() {
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let env = RequestEnvelope {
            id: 1,
            request: Request::Predict {
                session: "s".into(),
                features: vec![nan],
            },
        };
        let decoded = decode_request(&encode_request(&env)).unwrap();
        match decoded.request {
            Request::Predict { features, .. } => {
                assert_eq!(features[0].to_bits(), nan.to_bits());
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn malformed_payloads_are_rejected_with_typed_errors() {
        let good = encode_request(&RequestEnvelope {
            id: 5,
            request: Request::Delete {
                session: "s".into(),
                ids: vec![1, 2, 3],
            },
        });
        // Truncation anywhere inside the payload.
        for cut in 0..good.len() {
            assert!(
                matches!(decode_request(&good[..cut]), Err(ProtocolError::Truncated)),
                "cut at {cut}"
            );
        }
        // Unknown tag.
        let mut bad_tag = good.clone();
        bad_tag[8] = 0xee;
        assert!(matches!(
            decode_request(&bad_tag),
            Err(ProtocolError::BadTag(0xee))
        ));
        // Trailing bytes.
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(
            decode_request(&trailing),
            Err(ProtocolError::TrailingBytes(1))
        ));
        // Invalid UTF-8 in the session name.
        let mut bad_utf8 = good;
        bad_utf8[13] = 0xff; // first byte of the 1-byte session string
        assert!(matches!(
            decode_request(&bad_utf8),
            Err(ProtocolError::BadUtf8)
        ));
        // Bad method code in a response.
        let mut resp = encode_response(&ResponseEnvelope {
            id: 1,
            response: Response::Deleted {
                requested: 1,
                applied: 1,
                stale: 0,
                batch_rows: 1,
                method: Some(Method::Priu),
                seconds: 0.0,
                epoch: 1,
            },
        });
        let method_at = 8 + 1 + 4 * 8;
        resp[method_at] = 200;
        assert!(matches!(
            decode_response(&resp),
            Err(ProtocolError::BadTag(200))
        ));
    }

    #[test]
    fn flag_bytes_other_than_zero_or_one_are_rejected() {
        let encode = |response| encode_response(&ResponseEnvelope { id: 1, response });
        let durability = encode(Response::DurabilityStats {
            durable: true,
            fsyncs: 1,
            wal_frames: 1,
            wal_bytes: 1,
            max_group: 1,
            checkpoints: 0,
        });
        let predicted = encode(Response::Predicted {
            value: 1.0,
            class: Some(3),
            epoch: 2,
        });
        let recovery = encode(Response::RecoveryStatus {
            durable: true,
            wal_records: 0,
            wal_tail: None,
            snapshot_skips: 0,
            orphan_records: 0,
            sessions: vec![],
        });
        // Layout: id(8) tag(1), then the flag under test.
        for (mut payload, at, byte) in [
            (durability, 9, 7),
            (predicted, 8 + 1 + 8, 2),
            (recovery.clone(), 9, 0xff),
            (recovery, 8 + 1 + 1 + 8, 5),
        ] {
            payload[at] = byte;
            let got = decode_response(&payload);
            assert!(
                matches!(got, Err(ProtocolError::BadTag(b)) if b == byte),
                "flag {byte} at {at}: {got:?}"
            );
        }
    }

    #[test]
    fn malformed_added_rows_are_rejected() {
        let good = encode_request(&RequestEnvelope {
            id: 9,
            request: Request::Add {
                session: "s".into(),
                num_features: 2,
                features: vec![1.0, 2.0, 3.0, 4.0],
                labels: vec![1.0, -1.0],
            },
        });
        // Truncation anywhere inside the payload.
        for cut in 0..good.len() {
            assert!(
                matches!(decode_request(&good[..cut]), Err(ProtocolError::Truncated)),
                "cut at {cut}"
            );
        }
        // A row count lying about the feature payload truncates.
        // Layout: id(8) tag(1) strlen(4) "s"(1) num_features(4) num_rows(4).
        let rows_at = 8 + 1 + 4 + 1 + 4;
        let mut lying = good.clone();
        lying[rows_at..rows_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_request(&lying),
            Err(ProtocolError::Truncated)
        ));
        // Extra payload after the labels is trailing bytes.
        let mut trailing = good;
        trailing.extend_from_slice(&[0; 8]);
        assert!(matches!(
            decode_request(&trailing),
            Err(ProtocolError::TrailingBytes(8))
        ));
        // A tick cut before `keep_last` truncates.
        let tick = encode_request(&RequestEnvelope {
            id: 9,
            request: Request::Tick {
                session: "s".into(),
                num_features: 1,
                features: vec![1.0],
                labels: vec![1.0],
                keep_last: 3,
            },
        });
        assert!(matches!(
            decode_request(&tick[..tick.len() - 8]),
            Err(ProtocolError::Truncated)
        ));
    }

    #[test]
    fn frames_reject_oversized_lengths_and_detect_truncation() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        let mut cursor = io::Cursor::new(wire.clone());
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");

        // EOF inside the payload.
        let mut cursor = io::Cursor::new(wire[..wire.len() - 2].to_vec());
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ProtocolError::Truncated)
        ));
        // EOF inside the length prefix.
        let mut cursor = io::Cursor::new(wire[..2].to_vec());
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ProtocolError::Truncated)
        ));
        // Hostile length prefix.
        let mut cursor = io::Cursor::new(u32::MAX.to_le_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ProtocolError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn write_frame_refuses_payloads_over_the_readers_cap() {
        let mut payload = vec![7u8; MAX_FRAME_BYTES as usize + 1];
        let mut wire = Vec::new();
        let err = write_frame(&mut wire, &payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(wire.is_empty(), "nothing is written");
        // A payload at the cap goes through and reads back.
        payload.pop();
        write_frame(&mut wire, &payload).unwrap();
        let read = read_frame(&mut io::Cursor::new(wire)).unwrap().unwrap();
        assert_eq!(read.len(), payload.len());
    }

    #[test]
    fn reader_thread_feeds_the_message_queue_and_ends_on_eof() {
        let (mut writer, reader) = pipe();
        let (rx, handle) = spawn_frame_reader(reader, decode_request);
        for id in 0..3u64 {
            let payload = encode_request(&RequestEnvelope {
                id,
                request: Request::Flush {
                    session: "s".into(),
                },
            });
            write_frame(&mut writer, &payload).unwrap();
        }
        for id in 0..3u64 {
            let env = rx.recv().unwrap().unwrap();
            assert_eq!(env.id, id);
        }
        drop(writer); // EOF → reader thread exits, queue closes
        assert!(rx.recv().is_err());
        handle.join().unwrap();
    }

    #[test]
    fn reader_thread_surfaces_mid_frame_eof_as_an_error() {
        let (mut writer, reader) = pipe();
        let (rx, handle) = spawn_frame_reader(reader, decode_request);
        writer.write_all(&100u32.to_le_bytes()).unwrap();
        writer.write_all(b"short").unwrap();
        drop(writer);
        assert!(matches!(rx.recv().unwrap(), Err(ProtocolError::Truncated)));
        assert!(rx.recv().is_err());
        handle.join().unwrap();
    }

    #[test]
    fn pipe_blocks_readers_until_data_or_eof_and_breaks_dropped_writes() {
        let (mut writer, mut reader) = pipe();
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 5];
            reader.read_exact(&mut buf).unwrap();
            assert_eq!(&buf, b"delay");
            let mut rest = Vec::new();
            reader.read_to_end(&mut rest).unwrap();
            assert!(rest.is_empty());
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        writer.write_all(b"delay").unwrap();
        drop(writer);
        t.join().unwrap();

        let (mut writer, reader) = pipe();
        drop(reader);
        assert_eq!(
            writer.write(b"x").unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
    }
}
