//! Symmetric eigendecomposition: two-stage tridiagonalisation + QL by
//! default, cyclic Jacobi as a fallback.
//!
//! PrIU-opt (§5.2) relies on an *offline* eigendecomposition of the Gram
//! matrix `M = X^T X` (`M = Q diag(c) Q^T`), followed by an *online*
//! incremental eigenvalue update after a deletion: `c'_i = (Q^T M' Q)_{ii}`
//! (Eq. 18, citing Ning et al.). Both pieces live in this module.
//!
//! # The default pipeline: tridiag + implicit-shift QL
//!
//! [`eigen_into`] (and [`SymmetricEigen::new`] / [`new_with`] on top of it)
//! runs the classic two-stage dense symmetric eigensolver from
//! [`super::tridiag`]: blocked Householder tridiagonalisation
//! (`A = Q_t T Q_tᵀ`, `4n³/3` flops) followed by implicit-shift QL
//! iteration on `(d, e)` with eigenvector back-accumulation into `Zᵀ`
//! seeded with `Q_tᵀ` (`O(n²)` per sweep, `O(1)` sweeps per eigenvalue) —
//! `O(n³)` *total*, where each Jacobi **sweep** costs `Θ(n³)`. The
//! production path (one pool fork-join per call) is bitwise identical to
//! the plain-loop reference [`eigen_scalar_into`] for any `PRIU_THREADS`,
//! per `PRIU_SIMD` level
//! (the shared-driver argument lives in the `tridiag` module docs).
//! Eigenpairs agree with the Jacobi fallback *numerically* (both
//! diagonalise the same matrix), never bitwise — the trees are unrelated.
//!
//! ## Method selection
//!
//! `PRIU_EIGEN` picks the solver process-wide: unset / `auto` / `tridiag` /
//! `ql` select the two-stage pipeline, `jacobi` the sweep solver below
//! (kept as a numerically independent cross-check and escape hatch);
//! anything else panics at first use. Tests and benches pin a method in
//! scope with [`with_eigen_method`], which overrides the environment on the
//! current thread.
//!
//! [`new_with`]: SymmetricEigen::new_with
//!
//! # The Jacobi fallback: blocked, pool-parallel sweeps
//!
//! The sweep is *round-robin cyclic*: each sweep runs `N − 1` rounds of the
//! tournament (circle-method) schedule, every round pairing all indices into
//! `N/2` **disjoint** rotation pairs (`N` is `n` rounded up to even; pairs
//! touching the padding index are skipped). Per round the rotation angles
//! are computed from the round-start matrix, then applied in three
//! element-independent passes — row pairs of `M`, column pairs of `M`, row
//! pairs of the transposed accumulator `Qᵀ` — each chunked over the pair
//! list through [`crate::par`] with shape-only chunk boundaries.
//!
//! The schedule (referenced by the `decomp_parity` reference
//! implementation): in round `t ∈ 0..N−1` the pairs are `{N−1, t}` and
//! `{(t+k) mod (N−1), (t+N−1−k) mod (N−1)}` for `k ∈ 1..N/2`; each pair is
//! normalised to `p < r`. Every unordered pair occurs exactly once per
//! sweep.
//!
//! **Determinism.** Pair disjointness makes every pass a pure element-wise
//! map (each matrix entry is written by exactly one pair), so the result is
//! **bitwise identical for any `PRIU_THREADS`** and for the serial execution
//! of the same schedule. Note the *rotation order* differs from the previous
//! sequential row-cyclic implementation, so eigenpairs agree with it
//! numerically (to convergence tolerance), not bitwise — the bitwise
//! guarantee is over thread counts and executions of this schedule.

use std::cell::Cell;
use std::sync::OnceLock;

use crate::dense::matrix::Matrix;
use crate::dense::vector::Vector;
use crate::error::{LinalgError, Result};
use crate::par::{self, Chunks, SendPtr};

use super::tridiag::{
    tql2_into, tridiag_factor_into, tridiag_factor_scalar_into, QlRotation, TridiagScratch,
};

/// Which symmetric eigensolver [`eigen_into`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EigenMethod {
    /// Blocked Householder tridiagonalisation + implicit-shift QL (default).
    TridiagQl,
    /// Round-robin cyclic Jacobi sweeps (the `PRIU_EIGEN=jacobi` fallback).
    Jacobi,
}

fn env_eigen_method() -> EigenMethod {
    static METHOD: OnceLock<EigenMethod> = OnceLock::new();
    *METHOD.get_or_init(|| match std::env::var("PRIU_EIGEN") {
        Err(_) => EigenMethod::TridiagQl,
        Ok(v) => match v.to_ascii_lowercase().as_str() {
            "" | "auto" | "tridiag" | "ql" => EigenMethod::TridiagQl,
            "jacobi" => EigenMethod::Jacobi,
            other => panic!("PRIU_EIGEN must be one of auto|tridiag|ql|jacobi, got {other:?}"),
        },
    })
}

thread_local! {
    static METHOD_OVERRIDE: Cell<Option<EigenMethod>> = const { Cell::new(None) };
}

/// The eigensolver [`eigen_into`] will use on this thread: the innermost
/// [`with_eigen_method`] override, else the `PRIU_EIGEN` selection.
pub fn current_eigen_method() -> EigenMethod {
    METHOD_OVERRIDE
        .with(|m| m.get())
        .unwrap_or_else(env_eigen_method)
}

/// Runs `f` with the eigensolver pinned to `method` on the current thread
/// (restored afterwards, panic-safe via the drop guard). Tests and benches
/// use this to exercise a specific solver regardless of `PRIU_EIGEN`.
pub fn with_eigen_method<R>(method: EigenMethod, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<EigenMethod>);
    impl Drop for Restore {
        fn drop(&mut self) {
            METHOD_OVERRIDE.with(|m| m.set(self.0));
        }
    }
    let _guard = Restore(METHOD_OVERRIDE.with(|m| m.replace(Some(method))));
    f()
}

/// Minimum rotation pairs per chunk: a pair's application costs `~6n`
/// fused operations across the three passes, so chunks of at least this
/// many pairs keep the pool hand-off amortised; rounds with fewer than
/// `2 ×` this many pairs (n < 32) run inline on the calling thread.
const EIG_MIN_CHUNK_PAIRS: usize = 8;
/// Chunk-count cap for the rotation passes (map-style, disjoint pairs).
const EIG_MAX_CHUNKS: usize = 8;
/// Sweep budget; Jacobi converges in well under this for symmetric input.
const MAX_SWEEPS: usize = 100;

/// One tournament pair's rotation for the current round. `apply == false`
/// marks padding pairs and below-threshold off-diagonals (identity
/// rotations are *skipped*, not applied — `x − 0·y` is not always bitwise
/// `x`).
#[derive(Debug, Clone, Copy, Default)]
struct PairRotation {
    p: usize,
    r: usize,
    c: f64,
    s: f64,
    apply: bool,
}

/// Reusable scratch for the Jacobi fallback: the working copy of the
/// matrix, the transposed eigenvector accumulator, the per-round rotation
/// list and the sort buffers. Buffers grow to the largest problem seen; a
/// warm scratch makes repeated factorisations allocation-free.
#[derive(Debug, Default, Clone)]
pub struct JacobiScratch {
    m: Matrix,
    qt: Matrix,
    rot: Vec<PairRotation>,
    diag: Vec<f64>,
    idx: Vec<usize>,
}

impl JacobiScratch {
    /// Pre-sizes every buffer for `n × n` inputs (so the first
    /// factorisation is already allocation-free apart from its returned
    /// eigenpairs). Engines call this before starting the offline timer.
    pub fn reserve(&mut self, n: usize) {
        self.m.reshape_zeroed(n, n);
        self.qt.reshape_zeroed(n, n);
        self.rot.reserve(n.div_ceil(2));
        self.diag.reserve(n);
        self.idx.reserve(n);
    }
}

/// Reusable scratch — and warm output storage — for [`eigen_into`]: the
/// tridiag/QL pipeline buffers, the Jacobi fallback scratch, and the
/// eigenpair storage the results land in. Buffers grow to the largest
/// problem seen; a warm scratch makes [`eigen_into`] fully allocation-free
/// (asserted with a counting allocator in `zero_alloc`).
#[derive(Debug, Default, Clone)]
pub struct EigenScratch {
    /// Eigenvalues of the last factorisation, descending.
    values: Vec<f64>,
    /// Eigenvectors of the last factorisation (columns, matching `values`).
    vectors: Matrix,
    /// Tridiagonal diagonal; eigenvalues (unsorted) after the QL stage.
    d: Vec<f64>,
    /// Tridiagonal subdiagonal plus one padding slot for the QL sweep.
    e: Vec<f64>,
    /// Orthogonal factor of the tridiagonalisation.
    q: Matrix,
    /// Transposed eigenvector accumulator (row `i` = candidate vector `i`).
    zt: Matrix,
    /// Rotation log of the QL stage (up to about `n²` entries, capped;
    /// grows to the largest problem seen).
    rot: Vec<QlRotation>,
    /// Sort permutation.
    idx: Vec<usize>,
    /// Stage-one scratch.
    tri: TridiagScratch,
    /// Fallback solver scratch (untouched on the tridiag path).
    jacobi: JacobiScratch,
}

impl EigenScratch {
    /// Pre-sizes every buffer for `n × n` inputs. Engines call this before
    /// starting the offline timer. Only the QL rotation log, whose length
    /// depends on the matrix (up to about `n²` entries, capped), may still
    /// grow on the first factorisation; a scratch warmed on a problem that
    /// size is allocation-free afterwards.
    pub fn reserve(&mut self, n: usize) {
        self.values.reserve(n);
        self.vectors.reshape_zeroed(n, n);
        self.d.reserve(n);
        self.e.reserve(n);
        self.q.reshape_zeroed(n, n);
        self.zt.reshape_zeroed(n, n);
        self.idx.reserve(n);
        self.tri.reserve(n);
        self.jacobi.reserve(n);
    }

    /// Eigenvalues of the last [`eigen_into`] call, descending.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Eigenvectors of the last [`eigen_into`] call (columns, matching
    /// [`Self::values`]).
    pub fn vectors(&self) -> &Matrix {
        &self.vectors
    }
}

/// Eigendecomposition `A = Q diag(values) Q^T` of a symmetric matrix, with
/// eigenvalues sorted in descending order and eigenvectors stored as the
/// columns of `Q`.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues, descending.
    pub values: Vector,
    /// Orthonormal eigenvectors (columns).
    pub vectors: Matrix,
}

impl SymmetricEigen {
    /// Computes the eigendecomposition of a symmetric matrix with the
    /// solver selected by `PRIU_EIGEN` / [`with_eigen_method`] (module
    /// docs): two-stage tridiagonalisation + QL by default, cyclic Jacobi
    /// as the fallback.
    ///
    /// The strictly upper triangle is trusted; small asymmetries (up to
    /// `1e-8 * max_abs`) are tolerated and symmetrised away.
    ///
    /// # Errors
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::InvalidArgument`] if `a` is markedly asymmetric.
    /// * [`LinalgError::DidNotConverge`] if the iteration budget is
    ///   exhausted.
    pub fn new(a: &Matrix) -> Result<Self> {
        let mut scratch = EigenScratch::default();
        eigen_into(a, &mut scratch)?;
        Ok(Self {
            values: Vector::from_vec(std::mem::take(&mut scratch.values)),
            vectors: std::mem::take(&mut scratch.vectors),
        })
    }

    /// Like [`SymmetricEigen::new`], reusing caller-owned scratch buffers:
    /// with a warm [`EigenScratch`] the only allocations are the returned
    /// eigenvalue vector and eigenvector matrix (use [`eigen_into`]
    /// directly and read the results out of the scratch to avoid even
    /// those). This is the entry point the PrIU-opt offline captures use.
    ///
    /// # Errors
    /// See [`SymmetricEigen::new`].
    pub fn new_with(a: &Matrix, scratch: &mut EigenScratch) -> Result<Self> {
        eigen_into(a, scratch)?;
        Ok(Self {
            values: Vector::from_vec(scratch.values.clone()),
            vectors: scratch.vectors.clone(),
        })
    }

    /// Reconstructs `Q diag(values) Q^T` (mainly for testing / diagnostics).
    pub fn reconstruct(&self) -> Matrix {
        let n = self.values.len();
        let mut scaled = self.vectors.clone();
        for j in 0..n {
            for i in 0..n {
                scaled[(i, j)] *= self.values[j];
            }
        }
        scaled
            .matmul(&self.vectors.transpose())
            .expect("shapes are consistent by construction")
    }

    /// Incremental eigenvalue update after a low-rank perturbation
    /// `M' = M - Δ`, following Eq. 18 of the paper: keeping the eigenvectors
    /// `Q` of `M` fixed, the updated eigenvalues are approximated by the
    /// diagonal of `Q^T M' Q`, i.e. `c'_i = c_i - (Q^T Δ Q)_{ii}`.
    ///
    /// `delta_rows` holds the removed sample rows `ΔX` so that
    /// `Δ = ΔX^T ΔX`, and the diagonal entries are computed as
    /// `(Q^T Δ Q)_{ii} = ||ΔX q_i||²` in `O(Δn · m²)`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `delta_rows` has a different
    /// column count than the eigenvector dimension.
    pub fn downdated_eigenvalues(&self, delta_rows: &Matrix) -> Result<Vector> {
        let m = self.vectors.nrows();
        if delta_rows.ncols() != m {
            return Err(LinalgError::ShapeMismatch {
                op: "SymmetricEigen::downdated_eigenvalues",
                left: (m, m),
                right: delta_rows.shape(),
            });
        }
        if delta_rows.nrows() == 0 {
            return Ok(self.values.clone());
        }
        // D = ΔX * Q  (Δn x m); correction_i = Σ_k D[k,i]^2.
        let d = delta_rows.matmul(&self.vectors)?;
        let mut corrections = vec![0.0; m];
        for k in 0..d.nrows() {
            let row = d.row(k);
            for i in 0..m {
                corrections[i] += row[i] * row[i];
            }
        }
        Ok(Vector::from_fn(m, |i| self.values[i] - corrections[i]))
    }

    /// Weighted variant of [`Self::downdated_eigenvalues`] for Gram forms
    /// `Δ = ΔX^T diag(w) ΔX` (used by PrIU-opt for logistic regression where
    /// the removed contributions carry linearisation coefficients).
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] on inconsistent shapes or a
    /// weight count different from the number of removed rows.
    pub fn downdated_eigenvalues_weighted(
        &self,
        delta_rows: &Matrix,
        weights: &[f64],
    ) -> Result<Vector> {
        let m = self.vectors.nrows();
        if delta_rows.ncols() != m {
            return Err(LinalgError::ShapeMismatch {
                op: "SymmetricEigen::downdated_eigenvalues_weighted",
                left: (m, m),
                right: delta_rows.shape(),
            });
        }
        if weights.len() != delta_rows.nrows() {
            return Err(LinalgError::ShapeMismatch {
                op: "SymmetricEigen::downdated_eigenvalues_weighted",
                left: (delta_rows.nrows(), 1),
                right: (weights.len(), 1),
            });
        }
        if delta_rows.nrows() == 0 {
            return Ok(self.values.clone());
        }
        let d = delta_rows.matmul(&self.vectors)?;
        let mut corrections = vec![0.0; m];
        for (k, &w) in weights.iter().enumerate() {
            let row = d.row(k);
            for i in 0..m {
                corrections[i] += w * row[i] * row[i];
            }
        }
        Ok(Vector::from_fn(m, |i| self.values[i] - corrections[i]))
    }
}

/// Symmetric eigendecomposition into caller-owned scratch, fully
/// allocation-free once the scratch is warm: eigenvalues land in
/// [`EigenScratch::values`] (descending) and eigenvectors in
/// [`EigenScratch::vectors`] (columns). Runs the solver selected by
/// `PRIU_EIGEN` / [`with_eigen_method`] — the tridiag + QL pipeline (one
/// pool fork-join per call) by default, Jacobi sweeps as the fallback.
///
/// # Errors
/// See [`SymmetricEigen::new`].
pub fn eigen_into(a: &Matrix, scratch: &mut EigenScratch) -> Result<()> {
    validate_symmetric(a)?;
    match current_eigen_method() {
        EigenMethod::TridiagQl => tridiag_ql_pipeline(a, scratch, false),
        EigenMethod::Jacobi => jacobi_into(
            a,
            &mut scratch.jacobi,
            &mut scratch.values,
            &mut scratch.vectors,
        ),
    }
}

/// The plain-loop reference for the default pipeline: sequential
/// tridiagonalisation, per-reflector back-accumulation and per-sweep QL
/// rotation application, ignoring the method
/// selection (it *is* the tridiag + QL reference the parity suite compares
/// [`eigen_into`] against bitwise).
///
/// # Errors
/// See [`SymmetricEigen::new`].
pub fn eigen_scalar_into(a: &Matrix, scratch: &mut EigenScratch) -> Result<()> {
    validate_symmetric(a)?;
    tridiag_ql_pipeline(a, scratch, true)
}

fn validate_symmetric(a: &Matrix) -> Result<()> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.nrows(),
            cols: a.ncols(),
        });
    }
    if a.nrows() == 0 {
        return Ok(());
    }
    let scale = a.max_abs().max(1.0);
    if a.asymmetry()? > 1e-8 * scale {
        return Err(LinalgError::InvalidArgument(
            "SymmetricEigen requires a (numerically) symmetric matrix".to_string(),
        ));
    }
    Ok(())
}

/// Stage one + stage two + descending sort; `reference` selects the
/// sequential per-reflector / per-sweep passes instead of the one-pass
/// column-chunked ones (same computation tree per element).
fn tridiag_ql_pipeline(a: &Matrix, scratch: &mut EigenScratch, reference: bool) -> Result<()> {
    let n = a.nrows();
    let EigenScratch {
        values,
        vectors,
        d,
        e,
        q,
        zt,
        rot,
        idx,
        tri,
        ..
    } = scratch;
    if reference {
        tridiag_factor_scalar_into(a, q, d, e, tri)?;
    } else {
        tridiag_factor_into(a, q, d, e, tri)?;
    }
    // Seed Zᵀ with Q_tᵀ: row i of zt is the i-th basis column.
    zt.reshape_for_overwrite(n, n);
    for i in 0..n {
        for j in 0..n {
            zt[(i, j)] = q[(j, i)];
        }
    }
    tql2_into(d, e, zt, rot, !reference)?;
    sort_and_extract(d, zt, idx, values, vectors);
    Ok(())
}

/// Sorts the raw eigenvalues descending and writes the permuted eigenpairs
/// into the output storage without allocating (warm buffers reused).
fn sort_and_extract(
    d: &[f64],
    zt: &Matrix,
    idx: &mut Vec<usize>,
    values: &mut Vec<f64>,
    vectors: &mut Matrix,
) {
    let n = d.len();
    idx.clear();
    idx.extend(0..n);
    idx.sort_unstable_by(|&i, &j| d[j].partial_cmp(&d[i]).expect("finite eigenvalues"));
    values.clear();
    values.extend(idx.iter().map(|&i| d[i]));
    vectors.reshape_for_overwrite(n, n);
    for i in 0..n {
        let out = vectors.row_mut(i);
        for (j, &src) in idx.iter().enumerate() {
            out[j] = zt[(src, i)];
        }
    }
}

/// The Jacobi fallback solver (module docs): round-robin cyclic sweeps
/// writing the sorted eigenpairs into the caller's storage. Kept as a
/// numerically independent cross-check of the default pipeline and as the
/// `PRIU_EIGEN=jacobi` escape hatch.
fn jacobi_into(
    a: &Matrix,
    scratch: &mut JacobiScratch,
    values: &mut Vec<f64>,
    vectors: &mut Matrix,
) -> Result<()> {
    let n = a.nrows();
    let scale = a.max_abs().max(1.0);
    if n == 0 {
        values.clear();
        vectors.reshape_zeroed(0, 0);
        return Ok(());
    }

    // Work on a symmetrised copy; accumulate Q transposed (rotations
    // then combine two contiguous rows in every pass).
    let m = &mut scratch.m;
    m.reshape_zeroed(n, n);
    for i in 0..n {
        for j in 0..n {
            m[(i, j)] = 0.5 * (a[(i, j)] + a[(j, i)]);
        }
    }
    let qt = &mut scratch.qt;
    qt.reshape_zeroed(n, n);
    for i in 0..n {
        qt[(i, i)] = 1.0;
    }

    let tol = 1e-14 * scale;
    let skip_tol = tol * 1e-2;
    let big_n = n + (n & 1); // padded to even for the tournament
    let mut converged = false;
    for _sweep in 0..MAX_SWEEPS {
        if off_diagonal_norm(m) <= tol {
            converged = true;
            break;
        }
        for t in 0..big_n.saturating_sub(1) {
            build_round_rotations(m, n, big_n, t, skip_tol, &mut scratch.rot);
            rotate_row_pairs(m, &scratch.rot);
            rotate_column_pairs(m, &scratch.rot);
            rotate_row_pairs(qt, &scratch.rot);
        }
    }
    if !converged {
        // One final check: Jacobi nearly always converges in well under
        // the sweep budget; treat leftover off-diagonal mass as failure.
        if off_diagonal_norm(m) > 1e-8 * scale {
            return Err(LinalgError::DidNotConverge {
                op: "SymmetricEigen::new",
                iterations: MAX_SWEEPS,
            });
        }
    }

    // Collect eigenvalues and sort descending, permuting eigenvectors.
    let diag = &mut scratch.diag;
    diag.clear();
    diag.extend((0..n).map(|i| m[(i, i)]));
    sort_and_extract(diag, qt, &mut scratch.idx, values, vectors);
    Ok(())
}

/// Frobenius norm of the strictly upper triangle, accumulated row-major
/// ascending (fixed order — part of the deterministic tree).
fn off_diagonal_norm(m: &Matrix) -> f64 {
    let n = m.nrows();
    let mut off = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            off += m[(i, j)] * m[(i, j)];
        }
    }
    off.sqrt()
}

/// Fills `rot` with round `t` of the tournament schedule (module docs) and
/// each pair's Jacobi rotation computed from the round-start matrix.
fn build_round_rotations(
    m: &Matrix,
    n: usize,
    big_n: usize,
    t: usize,
    skip_tol: f64,
    rot: &mut Vec<PairRotation>,
) {
    rot.clear();
    let last = big_n - 1;
    for k in 0..big_n / 2 {
        let (a, b) = if k == 0 {
            (last, t % last)
        } else {
            ((t + k) % last, (t + last - k) % last)
        };
        let (p, r) = (a.min(b), a.max(b));
        let mut entry = PairRotation {
            p,
            r,
            ..PairRotation::default()
        };
        if r < n {
            let apr = m[(p, r)];
            if apr.abs() > skip_tol {
                let app = m[(p, p)];
                let arr = m[(r, r)];
                // The Jacobi rotation annihilating m[p][r].
                let theta = (arr - app) / (2.0 * apr);
                let tan = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                entry.c = 1.0 / (1.0 + tan * tan).sqrt();
                entry.s = tan * entry.c;
                entry.apply = true;
            }
        }
        rot.push(entry);
    }
}

/// Combines two equal-length rows: `(x, y) ← (c·x − s·y, s·x + c·y)` via
/// the dispatched rotation microkernel. [`crate::simd::rotate_two`] is
/// deliberately FMA-free, so rotation bits are identical on every
/// `PRIU_SIMD` level — the independent plain-loop reference in
/// `decomp_parity` stays valid without dispatching.
fn rotate_two_rows(row_p: &mut [f64], row_r: &mut [f64], c: f64, s: f64) {
    crate::simd::rotate_two(row_p, row_r, c, s);
}

/// Applies every rotation of the round to its two *rows* of `mat`
/// (`Jᵀ · mat`), chunk-parallel over the pair list. Pairs are disjoint, so
/// every row is written by exactly one pair — an element-wise map, bitwise
/// identical for any chunk-to-thread assignment.
fn rotate_row_pairs(mat: &mut Matrix, rot: &[PairRotation]) {
    let n = mat.ncols();
    let chunks = Chunks::new(rot.len(), EIG_MIN_CHUNK_PAIRS, EIG_MAX_CHUNKS);
    let ptr = SendPtr(mat.as_mut_slice().as_mut_ptr());
    par::run_chunks(chunks.count(), |ci| {
        for pr in &rot[chunks.range(ci)] {
            if !pr.apply {
                continue;
            }
            // SAFETY: tournament pairs are disjoint within a round, so rows
            // `p` and `r` are touched by this pair only.
            let row_p = unsafe { ptr.slice(pr.p * n, n) };
            let row_r = unsafe { ptr.slice(pr.r * n, n) };
            rotate_two_rows(row_p, row_r, pr.c, pr.s);
        }
    });
}

/// Applies every rotation of the round to its two *columns* of `mat`
/// (`mat · J`), chunk-parallel over the pair list (disjoint columns).
fn rotate_column_pairs(mat: &mut Matrix, rot: &[PairRotation]) {
    let n = mat.nrows();
    let width = mat.ncols();
    let chunks = Chunks::new(rot.len(), EIG_MIN_CHUNK_PAIRS, EIG_MAX_CHUNKS);
    let ptr = SendPtr(mat.as_mut_slice().as_mut_ptr());
    par::run_chunks(chunks.count(), |ci| {
        for pr in &rot[chunks.range(ci)] {
            if !pr.apply {
                continue;
            }
            for k in 0..n {
                // SAFETY: disjoint pairs — columns `p` and `r` belong to
                // this pair only; one element of each per row `k`.
                let xp = unsafe { &mut ptr.slice(k * width + pr.p, 1)[0] };
                let xr = unsafe { &mut ptr.slice(k * width + pr.r, 1)[0] };
                let a = *xp;
                let b = *xr;
                *xp = pr.c * a - pr.s * b;
                *xr = pr.s * a + pr.c * b;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn symmetric() -> Matrix {
        Matrix::from_vec(3, 3, vec![4.0, 1.0, -2.0, 1.0, 2.0, 0.0, -2.0, 0.0, 3.0]).unwrap()
    }

    #[test]
    fn tournament_schedule_covers_every_pair_exactly_once() {
        for n in [2usize, 3, 5, 8, 33] {
            let big_n = n + (n & 1);
            let mut seen = std::collections::HashSet::new();
            let dummy = Matrix::identity(n);
            let mut rot = Vec::new();
            for t in 0..big_n - 1 {
                let mut this_round = std::collections::HashSet::new();
                build_round_rotations(&dummy, n, big_n, t, 0.0, &mut rot);
                for pr in &rot {
                    assert!(pr.p < pr.r, "pairs are normalised");
                    // Disjointness within the round.
                    assert!(this_round.insert(pr.p), "index {} reused (n={n})", pr.p);
                    assert!(this_round.insert(pr.r), "index {} reused (n={n})", pr.r);
                    if pr.r < n {
                        assert!(seen.insert((pr.p, pr.r)), "pair repeated (n={n})");
                    }
                }
            }
            assert_eq!(seen.len(), n * (n - 1) / 2, "n={n}");
        }
    }

    #[test]
    fn reconstruction_matches_input() {
        let a = symmetric();
        let eig = SymmetricEigen::new(&a).unwrap();
        let rec = eig.reconstruct();
        for i in 0..3 {
            for j in 0..3 {
                assert!((rec[(i, j)] - a[(i, j)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn eigenvalues_of_diagonal_matrix() {
        let a = Matrix::from_diagonal(&[1.0, 5.0, 3.0]);
        let eig = SymmetricEigen::new(&a).unwrap();
        assert!((eig.values[0] - 5.0).abs() < 1e-12);
        assert!((eig.values[1] - 3.0).abs() < 1e-12);
        assert!((eig.values[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let eig = SymmetricEigen::new(&symmetric()).unwrap();
        let qtq = eig.vectors.transpose().matmul(&eig.vectors).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((qtq[(i, j)] - expected).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn satisfies_eigen_equation() {
        let a = symmetric();
        let eig = SymmetricEigen::new(&a).unwrap();
        for j in 0..3 {
            let v = eig.vectors.column(j);
            let av = a.matvec(&v).unwrap();
            let lv = v.scaled(eig.values[j]);
            assert!((&av - &lv).norm2() < 1e-9);
        }
    }

    #[test]
    fn scratch_reuse_is_bitwise_stable_across_shapes() {
        // A warm scratch — including one warmed on a *larger* problem —
        // reproduces the fresh-scratch factorisation exactly.
        let small = symmetric();
        let big = Matrix::from_fn(9, 9, |i, j| {
            ((i * 5 + j * 3) % 7) as f64 + if i == j { 9.0 } else { 0.0 }
        });
        let big = Matrix::from_fn(9, 9, |i, j| 0.5 * (big[(i, j)] + big[(j, i)]));
        let fresh = SymmetricEigen::new(&small).unwrap();
        let mut scratch = EigenScratch::default();
        SymmetricEigen::new_with(&big, &mut scratch).unwrap();
        let warm = SymmetricEigen::new_with(&small, &mut scratch).unwrap();
        assert_eq!(fresh.values, warm.values);
        assert_eq!(fresh.vectors, warm.vectors);
    }

    #[test]
    fn rejects_asymmetric_and_non_square() {
        let asym = Matrix::from_vec(2, 2, vec![1.0, 5.0, 0.0, 1.0]).unwrap();
        assert!(SymmetricEigen::new(&asym).is_err());
        assert!(SymmetricEigen::new(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn empty_and_one_by_one_are_trivial() {
        let eig = SymmetricEigen::new(&Matrix::zeros(0, 0)).unwrap();
        assert_eq!(eig.values.len(), 0);
        let one = SymmetricEigen::new(&Matrix::from_diagonal(&[7.0])).unwrap();
        assert_eq!(one.values[0], 7.0);
        assert_eq!(one.vectors[(0, 0)], 1.0);
    }

    #[test]
    fn downdated_eigenvalues_track_exact_values_for_small_perturbation() {
        // M = X^T X for a random-ish X; remove a single small row.
        let x = Matrix::from_vec(
            5,
            3,
            vec![
                1.0, 0.2, -0.3, //
                0.4, 1.1, 0.0, //
                -0.2, 0.3, 0.9, //
                0.7, -0.5, 0.2, //
                0.05, 0.02, -0.01,
            ],
        )
        .unwrap();
        let m = x.gram();
        let eig = SymmetricEigen::new(&m).unwrap();
        let delta = x.select_rows(&[4]);
        let approx = eig.downdated_eigenvalues(&delta).unwrap();
        // Exact eigenvalues of M - delta^T delta.
        let m_prime = &m - &delta.gram();
        let exact = SymmetricEigen::new(&m_prime).unwrap();
        for i in 0..3 {
            assert!(
                (approx[i] - exact.values[i]).abs() < 1e-2,
                "eigenvalue {i}: approx {} vs exact {}",
                approx[i],
                exact.values[i]
            );
        }
        // Removing nothing leaves eigenvalues unchanged.
        let unchanged = eig.downdated_eigenvalues(&Matrix::zeros(0, 3)).unwrap();
        for i in 0..3 {
            assert_eq!(unchanged[i], eig.values[i]);
        }
    }

    #[test]
    fn weighted_downdate_matches_unweighted_with_unit_weights() {
        let x = Matrix::from_vec(4, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.3, -0.2]).unwrap();
        let eig = SymmetricEigen::new(&x.gram()).unwrap();
        let delta = x.select_rows(&[3]);
        let a = eig.downdated_eigenvalues(&delta).unwrap();
        let b = eig.downdated_eigenvalues_weighted(&delta, &[1.0]).unwrap();
        for i in 0..2 {
            assert!((a[i] - b[i]).abs() < 1e-14);
        }
        assert!(eig
            .downdated_eigenvalues_weighted(&delta, &[1.0, 2.0])
            .is_err());
    }
}
