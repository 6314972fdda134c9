//! # priu-server — deletion as a service
//!
//! A multi-session server over the PrIU deletion engines: models keep
//! answering predictions while training-data deletions are honored
//! incrementally in the background.
//!
//! The pieces, each in its own module:
//!
//! * [`registry`] — named sessions: predicts run on immutable snapshots,
//!   and the applier, the only writer, commits by pointer swap, so a long
//!   downdate never blocks a predict. One pure transition
//!   (`SlotState::resolve` / `advance`) serves the commit, the chain
//!   speculation and recovery redo.
//! * [`planner`] — admission + coalescing: N single-row deletion requests
//!   fold into one batched downdate per session, gated by a time window
//!   and a max batch size. The coalesced batch is *one* engine `apply`
//!   with the union removal set — identical to the call a direct engine
//!   user would make, hence bitwise-reproducible under the same
//!   `PRIU_THREADS` × `PRIU_SIMD` pin.
//! * [`scheduler`] — a cost model picks PrIU / PrIU-opt / closed-form /
//!   full-retrain per batch from calibrated per-row throughputs refined
//!   online, and forces a retrain once accumulated deletion drift crosses
//!   a threshold.
//! * [`protocol`] — a length-prefixed wire format over any `Read`/`Write`
//!   transport, with a dedicated reader thread feeding a message queue
//!   per connection.
//! * [`server`] — wires the above to one applier thread; the engine
//!   calls of a pass fan out per session over the shared `priu-linalg`
//!   worker pool.
//! * [`wal`] / [`snapshot`] / [`recovery`] — the durability layer: an
//!   append-only CRC-checksummed WAL with *group commit* (every batch of
//!   an applier pass shares one fsync; every ack still waits for it), atomic
//!   per-session snapshots cut on a dedicated background thread via
//!   copy-on-write handoff of the committed session `Arc`, periodic WAL
//!   checkpoints that rewrite the log down to the suffix not yet covered
//!   by every session's snapshots, and restart recovery that redoes the
//!   WAL suffix through the normal `apply_delta` path — recovered models
//!   are bitwise identical to the pre-crash state under the same
//!   thread/SIMD pin.
//! * [`failpoint`] — named crash points (`PRIU_FAILPOINT`) the
//!   crash-recovery torture suite uses to abort the process at exact
//!   instants in the commit/snapshot/recovery paths.

pub mod error;
pub mod failpoint;
pub mod planner;
pub mod protocol;
pub mod recovery;
pub mod registry;
pub mod scheduler;
pub mod server;
pub mod snapshot;
pub mod wal;

pub use error::{Result, ServerError};
pub use failpoint::{fail_point, FAILPOINT_ENV};
pub use planner::{AddedRows, BatchReply, DeleteTicket, PlannerConfig};
pub use protocol::{
    decode_request, decode_response, duplex, encode_request, encode_response, pipe, read_frame,
    spawn_frame_reader, write_frame, PipeReader, PipeWriter, ProtocolError, RecoverySessionStatus,
    Request, RequestEnvelope, Response, ResponseEnvelope,
};
pub use recovery::{RecoveryReport, SessionRecovery, WAL_FILE};
pub use registry::{SessionRegistry, SessionSlot};
pub use scheduler::{Calibration, CostModel, SchedulerConfig};
pub use server::{
    ConnectionHandle, DurabilityConfig, Prediction, Server, ServerConfig, SessionStats,
};
pub use snapshot::{SkippedSnapshot, SNAPSHOT_MAGIC};
pub use wal::{
    crc32, scan_wal, CheckpointRecord, GroupCommitConfig, GroupWal, Wal, WalRecord, WalScan,
    WalStats, WalTail, MAX_WAL_FRAME_BYTES,
};
