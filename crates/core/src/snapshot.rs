//! Bit-exact serialization of sessions for durability snapshots, and the
//! byte codec the server's wire protocol and WAL share.
//!
//! The server's durability layer persists whole sessions — dataset,
//! trained model, captured provenance, closed-form views — and must restore
//! them *bitwise identical*: recovery redoes WAL deltas through the same
//! `apply_delta` replay as the live path, so any rounding introduced by the
//! codec would diverge the recovered chain. Every `f64` therefore round-trips
//! through [`f64::to_bits`]; every integer is fixed-width little-endian.
//! There is no varint cleverness and no compression — snapshots are already
//! dominated by the dense provenance caches, and a transparent format keeps
//! the corruption story simple (the WAL layer checksums the whole blob).
//!
//! [`SnapshotWriter`] / [`SnapshotReader`] are the one codec of the
//! workspace: session snapshots, the server's snapshot files, WAL frames
//! and wire messages all encode through them. Strings travel as a `u32`
//! byte length plus UTF-8, flags as one strict 0/1 byte, optional values
//! as a flag followed by the value, and runs of `f64`/`u64` as their
//! elements after a count the caller writes (`u64` here and in the WAL,
//! `u32` on the wire).
//!
//! Layout discipline: each composite type with public fields has its codec
//! in this module — a `put_*` / `get_*` pair, or a [`Codec`] impl where the
//! engine reaches it through a type parameter (datasets, one iteration's
//! cache, extra captures). The engine session (private fields) is written
//! once, generically over its family, next to `Engine` in the engine
//! module: tag, dataset, configuration, model, provenance, family state,
//! training time. A one-byte tag disambiguates every enum. Decode failures
//! are a typed [`CodecError`], which surfaces here as
//! [`CoreError::Snapshot`] — an error the recovery path can log and skip,
//! never a panic. The session decoder maps every other error onto it as
//! well, and rejects parts that decode alone but disagree with each other.

use std::fmt;
use std::sync::Arc;

use priu_data::catalog::Hyperparameters;
use priu_data::dataset::{DenseDataset, Labels, SparseDataset};
use priu_data::minibatch::BatchSchedule;
use priu_linalg::decomposition::eigen::SymmetricEigen;
use priu_linalg::decomposition::TruncatedGram;
use priu_linalg::{CsrMatrix, Matrix, Vector};

use crate::capture::{
    ClassIterationCache, GramCache, LinearIterationCache, LinearOptCapture, LogisticIterationCache,
    LogisticOptCapture, LogisticOptClassCapture, NormalEquations,
};
use crate::config::{Compression, TrainerConfig};
use crate::error::{CoreError, Result};
use crate::interpolation::PiecewiseLinearSigmoid;
use crate::model::{Model, ModelKind};

/// Why bytes failed to decode. Every variant but `TrailingBytes` carries
/// its rendered message; callers map the variant onto their own error
/// ([`CoreError::Snapshot`] here, the wire protocol's typed error in the
/// server).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The bytes end inside a field, or a length prefix claims more bytes
    /// than remain.
    Truncated(String),
    /// A tag or flag byte outside its domain.
    BadTag(u8, String),
    /// A string field is not valid UTF-8.
    BadUtf8(String),
    /// Bytes remain after a complete value.
    TrailingBytes(usize),
    /// A decoded value breaks an invariant of its type.
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated(msg)
            | CodecError::BadTag(_, msg)
            | CodecError::BadUtf8(msg)
            | CodecError::Invalid(msg) => f.write_str(msg),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for CoreError {
    fn from(err: CodecError) -> Self {
        CoreError::Snapshot(format!("snapshot truncated or corrupt: {err}"))
    }
}

pub(crate) fn corrupt(what: &str) -> CoreError {
    CodecError::Invalid(what.to_string()).into()
}

/// A composite the engine's generic snapshot codec reaches through a type
/// parameter: a dataset, one iteration's cache or an extra capture. `get`
/// reads back what `put` wrote, bit for bit.
pub trait Codec: Sized {
    /// Appends the value.
    fn put(&self, w: &mut SnapshotWriter);
    /// Reads a value [`Codec::put`] wrote; `what` names it in errors.
    ///
    /// # Errors
    /// [`CoreError::Snapshot`] on truncated or corrupt input.
    fn get(r: &mut SnapshotReader<'_>, what: &str) -> Result<Self>;
}

/// Append-only byte sink. A sizing writer ([`SnapshotWriter::sizing`])
/// stores nothing and only counts what it is given, so one pass of a
/// value's `put` tells the exact capacity the real encoding needs.
#[derive(Debug)]
pub struct SnapshotWriter {
    sink: Sink,
}

#[derive(Debug)]
enum Sink {
    Bytes(Vec<u8>),
    Count(usize),
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl SnapshotWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer whose buffer holds `capacity` bytes before it grows.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            sink: Sink::Bytes(Vec::with_capacity(capacity)),
        }
    }

    /// A writer that counts the bytes it is given without storing them.
    pub fn sizing() -> Self {
        Self {
            sink: Sink::Count(0),
        }
    }

    /// Bytes written (or, for a sizing writer, counted) so far.
    pub fn len(&self) -> usize {
        match &self.sink {
            Sink::Bytes(buf) => buf.len(),
            Sink::Count(n) => *n,
        }
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the writer, yielding the encoded bytes; a sizing writer
    /// yields none.
    pub fn into_bytes(self) -> Vec<u8> {
        match self.sink {
            Sink::Bytes(buf) => buf,
            Sink::Count(_) => Vec::new(),
        }
    }

    /// Appends raw bytes (a nested blob with its own codec).
    pub fn bytes(&mut self, bytes: &[u8]) {
        match &mut self.sink {
            Sink::Bytes(buf) => buf.extend_from_slice(bytes),
            Sink::Count(n) => *n += bytes.len(),
        }
    }

    /// Appends a raw byte.
    pub fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (also the `u64` count prefix).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a `u32` count prefix.
    ///
    /// # Panics
    /// If `n` exceeds `u32::MAX`.
    pub fn len32(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("count fits its u32 prefix"));
    }

    /// Appends an `f64` by its bit pattern (lossless, NaN-preserving).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a flag, then the value through `put` when present.
    pub fn option<T>(&mut self, v: Option<T>, put: impl FnOnce(&mut Self, T)) {
        self.bool(v.is_some());
        if let Some(v) = v {
            put(self, v);
        }
    }

    /// Appends a string: `u32` byte length, then the UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.len32(s.len());
        self.bytes(s.as_bytes());
    }

    /// Appends the bit patterns of a run of `f64`s (no count).
    pub fn f64s(&mut self, v: &[f64]) {
        self.words(v.iter().map(|x| x.to_bits()));
    }

    /// Appends a run of `u64`s (no count).
    pub fn u64s(&mut self, v: &[u64]) {
        self.words(v.iter().copied());
    }

    fn words(&mut self, words: impl ExactSizeIterator<Item = u64>) {
        match &mut self.sink {
            Sink::Bytes(buf) => {
                buf.reserve(8 * words.len());
                for x in words {
                    buf.extend_from_slice(&x.to_le_bytes());
                }
            }
            Sink::Count(n) => *n += 8 * words.len(),
        }
    }
}

/// Bounds-checked cursor over encoded bytes. `what` names the field in
/// error messages.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

/// Result of a [`SnapshotReader`] read.
pub type CodecResult<T> = std::result::Result<T, CodecError>;

impl<'a> SnapshotReader<'a> {
    /// A reader over the full byte slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// Consumes the next `n` raw bytes (a nested blob with its own codec).
    ///
    /// # Errors
    /// [`CodecError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize, what: &str) -> CodecResult<&'a [u8]> {
        if n > self.remaining() {
            return Err(CodecError::Truncated(what.to_string()));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self, what: &str) -> CodecResult<[u8; N]> {
        Ok(self
            .take(N, what)?
            .try_into()
            .expect("take returns N bytes"))
    }

    /// Reads a raw byte.
    pub fn u8(&mut self, what: &str) -> CodecResult<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> CodecResult<u32> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> CodecResult<u64> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn usize(&mut self, what: &str) -> CodecResult<usize> {
        usize::try_from(self.u64(what)?).map_err(|_| CodecError::Invalid(what.to_string()))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self, what: &str) -> CodecResult<f64> {
        self.u64(what).map(f64::from_bits)
    }

    /// Reads a bool byte (strictly 0 or 1).
    pub fn bool(&mut self, what: &str) -> CodecResult<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::BadTag(
                other,
                format!("{what}: bad bool byte {other}"),
            )),
        }
    }

    /// Reads a flag, then the value through `get` when it is set.
    pub fn option<T, E: From<CodecError>>(
        &mut self,
        what: &str,
        get: impl FnOnce(&mut Self) -> std::result::Result<T, E>,
    ) -> std::result::Result<Option<T>, E> {
        if self.bool(what)? {
            get(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Reads a string: `u32` byte length, then UTF-8 bytes.
    pub fn str(&mut self, what: &str) -> CodecResult<String> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CodecError::BadUtf8(format!("{what} not UTF-8")))
    }

    /// Reads a `u64` count prefix that must be coverable by the remaining
    /// bytes at `elem_bytes` each — rejects lying prefixes before any
    /// allocation.
    pub fn len(&mut self, elem_bytes: usize, what: &str) -> CodecResult<usize> {
        let n = self.usize(what)?;
        self.check_len(n, elem_bytes, what)
    }

    /// Like [`Self::len`], for a `u32` count prefix.
    pub fn len32(&mut self, elem_bytes: usize, what: &str) -> CodecResult<usize> {
        let n = self.u32(what)? as usize;
        self.check_len(n, elem_bytes, what)
    }

    fn check_len(&self, n: usize, elem_bytes: usize, what: &str) -> CodecResult<usize> {
        match n.checked_mul(elem_bytes) {
            Some(need) if need <= self.remaining() => Ok(n),
            Some(_) => Err(CodecError::Truncated(format!(
                "{what}: length {n} exceeds remaining bytes"
            ))),
            None => Err(CodecError::Truncated(what.to_string())),
        }
    }

    /// Reads a run of `n` `f64` bit patterns, checking that the bytes are
    /// there before allocating.
    pub fn f64s(&mut self, n: usize, what: &str) -> CodecResult<Vec<f64>> {
        Ok(self.words(n, what)?.map(f64::from_bits).collect())
    }

    /// Reads a run of `n` `u64`s, checking that the bytes are there before
    /// allocating.
    pub fn u64s(&mut self, n: usize, what: &str) -> CodecResult<Vec<u64>> {
        Ok(self.words(n, what)?.collect())
    }

    fn words(&mut self, n: usize, what: &str) -> CodecResult<impl Iterator<Item = u64> + 'a> {
        let bytes = self.take(self.check_len(n, 8, what)? * 8, what)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk"))))
    }

    /// Fails unless every byte has been consumed.
    pub fn finish(self) -> CodecResult<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }
}

// --- primitives -----------------------------------------------------------

/// Encodes a vector (length + bit patterns).
pub fn put_vector(w: &mut SnapshotWriter, v: &Vector) {
    w.usize(v.len());
    w.f64s(v.as_slice());
}

/// Decodes a vector.
pub fn get_vector(r: &mut SnapshotReader<'_>, what: &str) -> Result<Vector> {
    let n = r.usize(what)?;
    Ok(Vector::from_vec(r.f64s(n, what)?))
}

/// Encodes a dense matrix (shape + row-major bit patterns).
pub fn put_matrix(w: &mut SnapshotWriter, m: &Matrix) {
    w.usize(m.nrows());
    w.usize(m.ncols());
    w.f64s(m.as_slice());
}

/// Decodes a dense matrix.
pub fn get_matrix(r: &mut SnapshotReader<'_>, what: &str) -> Result<Matrix> {
    let rows = r.usize(what)?;
    let cols = r.usize(what)?;
    let total = rows.checked_mul(cols).ok_or_else(|| corrupt(what))?;
    Ok(Matrix::from_vec(rows, cols, r.f64s(total, what)?)?)
}

fn put_usize_slice(w: &mut SnapshotWriter, s: &[usize]) {
    w.usize(s.len());
    for &x in s {
        w.usize(x);
    }
}

fn get_usize_vec(r: &mut SnapshotReader<'_>, what: &str) -> Result<Vec<usize>> {
    let n = r.usize(what)?;
    r.u64s(n, what)?
        .into_iter()
        .map(|x| usize::try_from(x).map_err(|_| corrupt(what)))
        .collect()
}

/// `(a, b')` linearisation coefficients: the sparse family's cache, and
/// part of the dense logistic ones.
impl Codec for Vec<(f64, f64)> {
    fn put(&self, w: &mut SnapshotWriter) {
        w.usize(self.len());
        for &(a, b) in self {
            w.f64(a);
            w.f64(b);
        }
    }

    fn get(r: &mut SnapshotReader<'_>, what: &str) -> Result<Self> {
        let n = r.len(16, what)?;
        let flat = r.f64s(2 * n, what)?;
        Ok(flat.chunks_exact(2).map(|p| (p[0], p[1])).collect())
    }
}

// --- datasets -------------------------------------------------------------

const LABELS_CONTINUOUS: u8 = 1;
const LABELS_BINARY: u8 = 2;
const LABELS_MULTICLASS: u8 = 3;

/// Encodes typed labels.
pub fn put_labels(w: &mut SnapshotWriter, labels: &Labels) {
    match labels {
        Labels::Continuous(v) => {
            w.u8(LABELS_CONTINUOUS);
            put_vector(w, v);
        }
        Labels::Binary(v) => {
            w.u8(LABELS_BINARY);
            put_vector(w, v);
        }
        Labels::Multiclass {
            classes,
            num_classes,
        } => {
            w.u8(LABELS_MULTICLASS);
            w.usize(*num_classes);
            w.usize(classes.len());
            for &c in classes {
                w.u32(c);
            }
        }
    }
}

/// Decodes typed labels.
pub fn get_labels(r: &mut SnapshotReader<'_>, what: &str) -> Result<Labels> {
    match r.u8(what)? {
        LABELS_CONTINUOUS => Ok(Labels::Continuous(get_vector(r, what)?)),
        LABELS_BINARY => Ok(Labels::Binary(get_vector(r, what)?)),
        LABELS_MULTICLASS => {
            let num_classes = r.usize(what)?;
            let n = r.len(4, what)?;
            let mut classes = Vec::with_capacity(n);
            for _ in 0..n {
                classes.push(r.u32(what)?);
            }
            Ok(Labels::Multiclass {
                classes,
                num_classes,
            })
        }
        tag => Err(corrupt(&format!("{what}: bad labels tag {tag}"))),
    }
}

impl Codec for DenseDataset {
    fn put(&self, w: &mut SnapshotWriter) {
        put_matrix(w, &self.x);
        put_labels(w, &self.labels);
    }

    fn get(r: &mut SnapshotReader<'_>, what: &str) -> Result<Self> {
        let x = get_matrix(r, what)?;
        let labels = get_labels(r, what)?;
        if labels.len() != x.nrows() {
            return Err(corrupt(&format!("{what}: label/row count mismatch")));
        }
        Ok(DenseDataset::new(x, labels))
    }
}

/// Encodes a CSR matrix.
pub fn put_csr(w: &mut SnapshotWriter, m: &CsrMatrix) {
    w.usize(m.nrows());
    w.usize(m.ncols());
    put_usize_slice(w, m.row_ptr());
    put_usize_slice(w, m.col_idx());
    w.usize(m.values().len());
    w.f64s(m.values());
}

/// Decodes a CSR matrix, revalidating its structural invariants.
pub fn get_csr(r: &mut SnapshotReader<'_>, what: &str) -> Result<CsrMatrix> {
    let rows = r.usize(what)?;
    let cols = r.usize(what)?;
    let row_ptr = get_usize_vec(r, what)?;
    let col_idx = get_usize_vec(r, what)?;
    let n = r.usize(what)?;
    let values = r.f64s(n, what)?;
    Ok(CsrMatrix::from_raw(rows, cols, row_ptr, col_idx, values)?)
}

impl Codec for SparseDataset {
    fn put(&self, w: &mut SnapshotWriter) {
        put_csr(w, &self.x);
        put_labels(w, &self.labels);
    }

    fn get(r: &mut SnapshotReader<'_>, what: &str) -> Result<Self> {
        let x = get_csr(r, what)?;
        let labels = get_labels(r, what)?;
        if labels.len() != x.nrows() {
            return Err(corrupt(&format!("{what}: label/row count mismatch")));
        }
        Ok(SparseDataset::new(x, labels))
    }
}

// --- model / config -------------------------------------------------------

const KIND_LINEAR: u8 = 1;
const KIND_BINARY: u8 = 2;
const KIND_MULTINOMIAL: u8 = 3;

/// Encodes a model (kind + per-class weight vectors).
pub fn put_model(w: &mut SnapshotWriter, m: &Model) {
    match m.kind() {
        ModelKind::Linear => w.u8(KIND_LINEAR),
        ModelKind::BinaryLogistic => w.u8(KIND_BINARY),
        ModelKind::MultinomialLogistic { num_classes } => {
            w.u8(KIND_MULTINOMIAL);
            w.usize(num_classes);
        }
    }
    w.usize(m.weights().len());
    for v in m.weights() {
        put_vector(w, v);
    }
}

/// Decodes a model.
pub fn get_model(r: &mut SnapshotReader<'_>, what: &str) -> Result<Model> {
    let kind = match r.u8(what)? {
        KIND_LINEAR => ModelKind::Linear,
        KIND_BINARY => ModelKind::BinaryLogistic,
        KIND_MULTINOMIAL => ModelKind::MultinomialLogistic {
            num_classes: r.usize(what)?,
        },
        tag => return Err(corrupt(&format!("{what}: bad model kind tag {tag}"))),
    };
    let n = r.len(8, what)?;
    let mut weights = Vec::with_capacity(n);
    for _ in 0..n {
        weights.push(get_vector(r, what)?);
    }
    Model::new(kind, weights)
}

const COMPRESSION_NONE: u8 = 1;
const COMPRESSION_EXACT: u8 = 2;
const COMPRESSION_RANDOMIZED: u8 = 3;
const COMPRESSION_AUTO: u8 = 4;

/// Encodes a trainer configuration.
pub fn put_trainer_config(w: &mut SnapshotWriter, c: &TrainerConfig) {
    w.usize(c.hyper.batch_size);
    w.usize(c.hyper.num_iterations);
    w.f64(c.hyper.learning_rate);
    w.f64(c.hyper.regularization);
    w.u64(c.seed);
    match c.compression {
        Compression::None => w.u8(COMPRESSION_NONE),
        Compression::Exact { rank } => {
            w.u8(COMPRESSION_EXACT);
            w.usize(rank);
        }
        Compression::Randomized { rank, oversample } => {
            w.u8(COMPRESSION_RANDOMIZED);
            w.usize(rank);
            w.usize(oversample);
        }
        Compression::Auto => w.u8(COMPRESSION_AUTO),
    }
    w.f64(c.interpolation.half_range());
    w.usize(c.interpolation.num_intervals());
    w.f64(c.opt_capture_fraction);
    w.bool(c.capture_opt);
}

/// Decodes a trainer configuration. The interpolation grid is rebuilt from
/// `(half_range, num_intervals)` — its derived step is a pure function of
/// those, so the grid is bitwise identical to the encoded one.
pub fn get_trainer_config(r: &mut SnapshotReader<'_>, what: &str) -> Result<TrainerConfig> {
    let hyper = Hyperparameters {
        batch_size: r.usize(what)?,
        num_iterations: r.usize(what)?,
        learning_rate: r.f64(what)?,
        regularization: r.f64(what)?,
    };
    let seed = r.u64(what)?;
    let compression = match r.u8(what)? {
        COMPRESSION_NONE => Compression::None,
        COMPRESSION_EXACT => Compression::Exact {
            rank: r.usize(what)?,
        },
        COMPRESSION_RANDOMIZED => Compression::Randomized {
            rank: r.usize(what)?,
            oversample: r.usize(what)?,
        },
        COMPRESSION_AUTO => Compression::Auto,
        tag => return Err(corrupt(&format!("{what}: bad compression tag {tag}"))),
    };
    let half_range = r.f64(what)?;
    let num_intervals = r.usize(what)?;
    if half_range.is_nan() || half_range <= 0.0 || num_intervals == 0 {
        return Err(corrupt(&format!("{what}: bad interpolation grid")));
    }
    Ok(TrainerConfig {
        hyper,
        seed,
        compression,
        interpolation: PiecewiseLinearSigmoid::new(half_range, num_intervals),
        opt_capture_fraction: r.f64(what)?,
        capture_opt: r.bool(what)?,
    })
}

// --- schedules ------------------------------------------------------------

/// Encodes a mini-batch schedule (explicit batches included verbatim).
pub fn put_schedule(w: &mut SnapshotWriter, s: &BatchSchedule) {
    w.usize(s.num_samples());
    w.usize(s.batch_size());
    w.usize(s.num_iterations());
    w.u64(s.seed());
    w.option(s.explicit_batches(), |w, batches| {
        w.usize(batches.len());
        for b in batches {
            put_usize_slice(w, b);
        }
    });
}

/// Decodes a mini-batch schedule, rejecting one whose batches cannot be
/// drawn: a seed-derived batch larger than the sample space, or explicit
/// batches that are not one per iteration or index past `num_samples`.
pub fn get_schedule(r: &mut SnapshotReader<'_>, what: &str) -> Result<BatchSchedule> {
    let num_samples = r.usize(what)?;
    let batch_size = r.usize(what)?;
    let num_iterations = r.usize(what)?;
    let seed = r.u64(what)?;
    let explicit: Option<Vec<Vec<usize>>> = r.option(what, |r| {
        let n = r.len(8, what)?;
        (0..n)
            .map(|_| get_usize_vec(r, what))
            .collect::<Result<_>>()
    })?;
    if num_samples == 0 || batch_size == 0 {
        return Err(corrupt(&format!("{what}: empty schedule")));
    }
    let drawable = match &explicit {
        None => batch_size <= num_samples,
        Some(batches) => {
            batches.len() == num_iterations && batches.iter().flatten().all(|&i| i < num_samples)
        }
    };
    if !drawable {
        return Err(corrupt(&format!("{what}: batches do not fit the schedule")));
    }
    Ok(BatchSchedule::from_parts(
        num_samples,
        batch_size,
        num_iterations,
        seed,
        explicit,
    ))
}

// --- provenance caches ----------------------------------------------------

const GRAM_DENSE: u8 = 1;
const GRAM_TRUNCATED: u8 = 2;
const GRAM_DEFLATED: u8 = 3;

fn put_truncated(w: &mut SnapshotWriter, t: &TruncatedGram) {
    put_matrix(w, t.p());
    put_matrix(w, t.v());
}

fn get_truncated(r: &mut SnapshotReader<'_>, what: &str) -> Result<TruncatedGram> {
    let p = get_matrix(r, what)?;
    let v = get_matrix(r, what)?;
    Ok(TruncatedGram::from_parts(p, v)?)
}

/// Encodes a Gram-form cache.
pub fn put_gram_cache(w: &mut SnapshotWriter, g: &GramCache) {
    match g {
        GramCache::Dense(m) => {
            w.u8(GRAM_DENSE);
            put_matrix(w, m);
        }
        GramCache::Truncated(t) => {
            w.u8(GRAM_TRUNCATED);
            put_truncated(w, t);
        }
        GramCache::Deflated {
            base,
            rows,
            coefficients,
        } => {
            w.u8(GRAM_DEFLATED);
            put_truncated(w, base);
            put_matrix(w, rows);
            w.usize(coefficients.len());
            w.f64s(coefficients);
        }
    }
}

/// Decodes a Gram-form cache.
pub fn get_gram_cache(r: &mut SnapshotReader<'_>, what: &str) -> Result<GramCache> {
    match r.u8(what)? {
        GRAM_DENSE => Ok(GramCache::Dense(get_matrix(r, what)?)),
        GRAM_TRUNCATED => Ok(GramCache::Truncated(Arc::new(get_truncated(r, what)?))),
        GRAM_DEFLATED => {
            let base = Arc::new(get_truncated(r, what)?);
            let rows = get_matrix(r, what)?;
            let n = r.usize(what)?;
            let coefficients = r.f64s(n, what)?;
            if coefficients.len() != rows.nrows() {
                return Err(corrupt(&format!("{what}: deflation row/coeff mismatch")));
            }
            Ok(GramCache::Deflated {
                base,
                rows,
                coefficients,
            })
        }
        tag => Err(corrupt(&format!("{what}: bad gram cache tag {tag}"))),
    }
}

fn put_eigen(w: &mut SnapshotWriter, e: &SymmetricEigen) {
    put_vector(w, &e.values);
    put_matrix(w, &e.vectors);
}

fn get_eigen(r: &mut SnapshotReader<'_>, what: &str) -> Result<SymmetricEigen> {
    let values = get_vector(r, what)?;
    let vectors = get_matrix(r, what)?;
    if !vectors.is_square() || vectors.nrows() != values.len() {
        return Err(corrupt(&format!("{what}: eigenpair shape mismatch")));
    }
    Ok(SymmetricEigen { values, vectors })
}

// --- captures and per-iteration caches ----------------------------------

impl Codec for NormalEquations {
    fn put(&self, w: &mut SnapshotWriter) {
        put_matrix(w, &self.xtx);
        put_vector(w, &self.xty);
        w.usize(self.n);
    }

    fn get(r: &mut SnapshotReader<'_>, what: &str) -> Result<Self> {
        let xtx = get_matrix(r, what)?;
        let xty = get_vector(r, what)?;
        if !xtx.is_square() || xtx.nrows() != xty.len() {
            return Err(corrupt(&format!("{what}: normal-equations shape mismatch")));
        }
        Ok(NormalEquations {
            xtx,
            xty,
            n: r.usize(what)?,
        })
    }
}

impl Codec for LinearOptCapture {
    fn put(&self, w: &mut SnapshotWriter) {
        put_eigen(w, &self.eigen);
    }

    fn get(r: &mut SnapshotReader<'_>, what: &str) -> Result<Self> {
        Ok(LinearOptCapture {
            eigen: get_eigen(r, what)?,
        })
    }
}

impl Codec for LogisticOptCapture {
    fn put(&self, w: &mut SnapshotWriter) {
        w.usize(self.switch_iteration);
        put_model(w, &self.model_at_switch);
        w.usize(self.classes.len());
        for c in &self.classes {
            put_eigen(w, &c.eigen);
            put_vector(w, &c.d_star);
            c.coefficients.put(w);
        }
    }

    fn get(r: &mut SnapshotReader<'_>, what: &str) -> Result<Self> {
        let switch_iteration = r.usize(what)?;
        let model_at_switch = get_model(r, what)?;
        let n = r.len(1, what)?;
        let mut classes = Vec::with_capacity(n);
        for _ in 0..n {
            classes.push(LogisticOptClassCapture {
                eigen: get_eigen(r, what)?,
                d_star: get_vector(r, what)?,
                coefficients: Codec::get(r, what)?,
            });
        }
        Ok(LogisticOptCapture {
            switch_iteration,
            model_at_switch,
            classes,
        })
    }
}

/// The linear family's cache: one batch's Gram form, moment and size.
impl Codec for LinearIterationCache {
    fn put(&self, w: &mut SnapshotWriter) {
        put_gram_cache(w, &self.gram);
        put_vector(w, &self.xy);
        w.usize(self.batch_size);
    }

    fn get(r: &mut SnapshotReader<'_>, what: &str) -> Result<Self> {
        Ok(LinearIterationCache {
            gram: get_gram_cache(r, what)?,
            xy: get_vector(r, what)?,
            batch_size: r.usize(what)?,
        })
    }
}

/// The dense logistic family's cache: per class the linearised Gram form,
/// moment and coefficients, then the batch size.
impl Codec for LogisticIterationCache {
    fn put(&self, w: &mut SnapshotWriter) {
        w.usize(self.classes.len());
        for c in &self.classes {
            put_gram_cache(w, &c.gram);
            put_vector(w, &c.d);
            c.coefficients.put(w);
        }
        w.usize(self.batch_size);
    }

    fn get(r: &mut SnapshotReader<'_>, what: &str) -> Result<Self> {
        let n = r.len(1, what)?;
        let mut classes = Vec::with_capacity(n);
        for _ in 0..n {
            classes.push(ClassIterationCache {
                gram: get_gram_cache(r, what)?,
                d: get_vector(r, what)?,
                coefficients: Codec::get(r, what)?,
            });
        }
        Ok(LogisticIterationCache {
            classes,
            batch_size: r.usize(what)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_bitwise() {
        let mut w = SnapshotWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.bool(true);
        put_vector(&mut w, &Vector::from_vec(vec![1.5, -2.25, 1e-308]));
        w.str("πρ/iu");
        w.option(Some(9u64), SnapshotWriter::u64);
        w.option(None::<u64>, SnapshotWriter::u64);
        w.len32(2);
        w.u64s(&[u64::MAX, 0]);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.u8("t").unwrap(), 7);
        assert_eq!(r.u32("t").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("t").unwrap(), u64::MAX - 3);
        assert_eq!(r.f64("t").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64("t").unwrap().to_bits(), f64::NAN.to_bits());
        assert!(r.bool("t").unwrap());
        let v = get_vector(&mut r, "t").unwrap();
        assert_eq!(v.as_slice(), &[1.5, -2.25, 1e-308]);
        assert_eq!(r.str("t").unwrap(), "πρ/iu");
        assert_eq!(r.option("t", |r| r.u64("t")), Ok(Some(9)));
        assert_eq!(r.option("t", |r| r.u64("t")), Ok(None));
        let n = r.len32(8, "t").unwrap();
        assert_eq!(r.u64s(n, "t").unwrap(), [u64::MAX, 0]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_bad_tags_are_typed_errors() {
        let mut w = SnapshotWriter::new();
        put_vector(&mut w, &Vector::from_vec(vec![1.0, 2.0]));
        let bytes = w.into_bytes();
        // Every truncation offset fails cleanly, never panics.
        for cut in 0..bytes.len() {
            let mut r = SnapshotReader::new(&bytes[..cut]);
            assert!(matches!(
                get_vector(&mut r, "vec"),
                Err(CoreError::Snapshot(_))
            ));
        }
        // A lying length prefix is rejected before allocation.
        let mut w = SnapshotWriter::new();
        w.u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert!(get_vector(&mut r, "vec").is_err());
        // Unknown enum tags decode to errors.
        let mut r = SnapshotReader::new(&[9u8]);
        assert!(get_labels(&mut r, "labels").is_err());
        // Each primitive failure has its own typed variant, and the core
        // error keeps the rendered message.
        let mut r = SnapshotReader::new(&[2, 1, 0, 0, 0, 0xff, 0]);
        assert!(matches!(r.bool("flag"), Err(CodecError::BadTag(2, _))));
        assert!(matches!(r.str("name"), Err(CodecError::BadUtf8(_))));
        assert_eq!(r.finish(), Err(CodecError::TrailingBytes(1)));
        let mut r = SnapshotReader::new(&[0xff; 4]);
        let err = r.len32(8, "ids").unwrap_err();
        assert!(matches!(err, CodecError::Truncated(_)));
        assert_eq!(
            CoreError::from(err),
            CoreError::Snapshot(
                "snapshot truncated or corrupt: ids: length 4294967295 exceeds remaining bytes"
                    .into()
            )
        );
    }

    #[test]
    fn schedule_round_trips_with_and_without_explicit_batches() {
        for schedule in [
            BatchSchedule::new(10, 4, 6, 42),
            BatchSchedule::new(10, 4, 6, 42).restrict(&[1, 5]),
        ] {
            let mut w = SnapshotWriter::new();
            put_schedule(&mut w, &schedule);
            let bytes = w.into_bytes();
            let mut r = SnapshotReader::new(&bytes);
            let back = get_schedule(&mut r, "schedule").unwrap();
            r.finish().unwrap();
            assert_eq!(back, schedule);
        }
    }

    #[test]
    fn schedules_whose_batches_cannot_be_drawn_are_rejected() {
        let decode = |schedule: &BatchSchedule| {
            let mut w = SnapshotWriter::new();
            put_schedule(&mut w, schedule);
            get_schedule(&mut SnapshotReader::new(&w.into_bytes()), "schedule")
        };
        let batches = |b: &[&[usize]]| Some(b.iter().map(|b| b.to_vec()).collect());
        assert!(decode(&BatchSchedule::from_parts(
            4,
            2,
            2,
            1,
            batches(&[&[0, 3], &[1]])
        ))
        .is_ok());
        for schedule in [
            // A seed-derived batch larger than the sample space.
            BatchSchedule::from_parts(4, 5, 2, 1, None),
            // Explicit batches: one short of the iteration count, or
            // indexing past the samples.
            BatchSchedule::from_parts(4, 2, 3, 1, batches(&[&[0, 3], &[1]])),
            BatchSchedule::from_parts(4, 2, 2, 1, batches(&[&[0, 4], &[1]])),
        ] {
            assert!(matches!(decode(&schedule), Err(CoreError::Snapshot(_))));
        }
    }
}
