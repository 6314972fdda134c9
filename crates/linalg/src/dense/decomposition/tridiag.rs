//! Blocked Householder tridiagonalisation `A = Q T Qᵀ` and implicit-shift
//! QL iteration — the two stages of the default symmetric eigensolver.
//!
//! # Stage one: tridiagonalisation
//!
//! [`tridiag_factor_into`] reduces a symmetric `n × n` matrix to
//! tridiagonal form with `n − 2` Householder similarity transforms
//! (Golub & Van Loan §8.3.1): at step `k` a reflector `H = I − βvvᵀ`
//! (`β = 2/vᵀv`) built from the subdiagonal column annihilates rows
//! `k+2..n` of column `k`, and the trailing block receives the symmetric
//! rank-2 update
//!
//! ```text
//! p = β·A·v,   w = p − (β·pᵀv/2)·v,   A ← A − v·wᵀ − w·vᵀ
//! ```
//!
//! for `4n³/3` total flops. The matvec ([`simd::dot4`], four rows per
//! call) and the rank-2 update (one fused [`simd::fnma2_scaled`] sweep per
//! row) run inline on the calling thread: a step's trailing block is at
//! most `n²` elements, and at every order up to 512 splitting it over the
//! pool cost more in fork-join wake-ups (two per step) than it saved. `Q`
//! is then back-accumulated inline from the stored reflectors; a column
//! split of that pass is badly unbalanced (column `j` meets only
//! reflectors `k < j`) and measured slower than one thread.
//!
//! # Stage two: implicit-shift QL
//!
//! [`tql2_into`] diagonalises the tridiagonal `(d, e)` pair with the
//! EISPACK `tql2` schedule: per eigenvalue a Wilkinson-style shift, then a
//! sequence of Givens rotations chasing the bulge. The `d`/`e` recurrence
//! is inherently serial (and `O(n)` per sweep — negligible) and never reads
//! the eigenvector accumulator `Zᵀ`. So every sweep's rotations are only
//! recorded, and the whole sequence is applied afterwards in **one** pool
//! pass over column chunks of `Zᵀ` (`~n²` rotations at `O(n)` each — the
//! pipeline's largest cost, and evenly spread over the columns). Above
//! order ~500 the log is flushed every [`QL_LOG_CAP`] rotations, so its
//! memory stays bounded. On the AVX2 level a 16-column block keeps the row
//! that consecutive rotations share in registers.
//!
//! Up to order ~500 a decomposition therefore makes one fork-join in
//! total, where the per-step, per-reflector and per-sweep passes made
//! about `5n`.
//!
//! # Determinism
//!
//! Every per-element chain advances in a fixed order (ascending rows for
//! the matvec and reflector dots, the rotation sequence per column), and
//! the QL chunk boundaries depend only on the shape. The reference entry
//! points run element loops and apply each sweep as it finishes; the
//! production passes use slice kernels with the same per-element ops and
//! apply the recorded rotations per column chunk, which reorders only
//! *which* element is processed when, never the operations an element
//! sees. So
//! [`tridiag_factor_into`] is **bitwise identical** to
//! [`tridiag_factor_scalar_into`] for any `PRIU_THREADS`, per `PRIU_SIMD`
//! level (the dot and element ops dispatch on both paths alike). The QL
//! stage's rotations are built from serial scalar arithmetic and applied
//! FMA-free, so its bits never depend on the level.

use std::ops::Range;

use crate::dense::matrix::Matrix;
use crate::error::{LinalgError, Result};
use crate::par::{self, Chunks, SendPtr};
use crate::simd;

use super::qr::apply_reflector_scalar;

/// Minimum columns per chunk for the QL rotation pass.
const TRI_MIN_CHUNK_COLS: usize = 64;
/// Chunk-count cap (map-style, disjoint outputs).
const TRI_MAX_CHUNKS: usize = 8;
/// QL iteration cap per eigenvalue before declaring divergence.
const MAX_QL_ITERS: usize = 50;
/// Rotations the deferred QL pass records before applying them (~6 MiB).
/// A matrix of order up to ~500 (about `n²` rotations) takes one pass;
/// larger ones take a few, so the log never grows with `n²`.
const QL_LOG_CAP: usize = 1 << 18;

/// Scratch buffers for [`tridiag_factor_into`], reusable across
/// factorisations of any size (buffers grow to the largest problem seen and
/// are then allocation-free).
#[derive(Debug, Default, Clone)]
pub struct TridiagScratch {
    /// Symmetrised working copy; the trailing block shrinks per step.
    t: Matrix,
    /// Householder vectors, one per row (`n × n`; row `k` is `v_k`, zero
    /// outside `k+1..n`).
    vs: Matrix,
    /// Squared norms `v_kᵀ v_k` (zero marks a skipped reflector).
    vnorms: Vec<f64>,
    /// Matvec result `p = β·A·v`.
    p: Vec<f64>,
    /// Rank-2 coefficient vector `w`.
    w: Vec<f64>,
    /// Per-column dots of the Q back-accumulation reflector passes.
    dots: Vec<f64>,
}

impl TridiagScratch {
    /// Grows every buffer to factorise `n × n` problems allocation-free.
    pub fn reserve(&mut self, n: usize) {
        self.t.reshape_zeroed(n, n);
        self.vs.reshape_zeroed(n, n);
        self.vnorms.resize(n, 0.0);
        self.p.resize(n, 0.0);
        self.w.resize(n, 0.0);
        self.dots.resize(n, 0.0);
    }
}

/// Householder tridiagonalisation into caller-owned buffers: `q` becomes
/// the orthogonal `n × n` factor, `d` the `n` diagonal and `e` the
/// subdiagonal of `T` (sized `n` with `e[n−1]` as zero padding for the QL
/// stage; the subdiagonal proper is `e[..n−1]`), such that `A = Q T Qᵀ`.
/// Runs inline on the calling thread (module docs); bitwise identical to
/// [`tridiag_factor_scalar_into`].
///
/// # Errors
/// Returns [`LinalgError::InvalidArgument`] if the matrix is not square or
/// not symmetric.
pub fn tridiag_factor_into(
    a: &Matrix,
    q: &mut Matrix,
    d: &mut Vec<f64>,
    e: &mut Vec<f64>,
    scratch: &mut TridiagScratch,
) -> Result<()> {
    tridiag_driver(a, q, d, e, scratch, false)
}

/// The plain-loop reference: the same driver as [`tridiag_factor_into`]
/// with element-loop rank-2 updates and one sequential reflector
/// application per Householder vector — used by the parity suite (bitwise)
/// and the decomposition benches (scalar baseline).
///
/// # Errors
/// See [`tridiag_factor_into`].
pub fn tridiag_factor_scalar_into(
    a: &Matrix,
    q: &mut Matrix,
    d: &mut Vec<f64>,
    e: &mut Vec<f64>,
    scratch: &mut TridiagScratch,
) -> Result<()> {
    tridiag_driver(a, q, d, e, scratch, true)
}

/// The shared factorisation driver, differing between the two entry
/// points only in how the rank-2 update and the back-accumulation run;
/// everything else — the reflector construction, the `β`/`κ` scalars, the
/// matvec, the `w` combination — is a single serial computation tree.
fn tridiag_driver(
    a: &Matrix,
    q: &mut Matrix,
    d: &mut Vec<f64>,
    e: &mut Vec<f64>,
    scratch: &mut TridiagScratch,
    reference: bool,
) -> Result<()> {
    if !a.is_square() {
        return Err(LinalgError::InvalidArgument(format!(
            "tridiagonalisation requires a square matrix, got {}x{}",
            a.nrows(),
            a.ncols()
        )));
    }
    let n = a.nrows();
    d.clear();
    d.resize(n, 0.0);
    e.clear();
    e.resize(n, 0.0);
    q.reshape_zeroed(n, n);
    for i in 0..n {
        q[(i, i)] = 1.0;
    }
    if n == 0 {
        return Ok(());
    }
    let scale = a.max_abs().max(1.0);
    if a.asymmetry()? > 1e-8 * scale {
        return Err(LinalgError::InvalidArgument(
            "tridiagonalisation requires a symmetric matrix".to_string(),
        ));
    }

    let TridiagScratch {
        t,
        vs,
        vnorms,
        p,
        w,
        dots,
    } = scratch;
    t.reshape_for_overwrite(n, n);
    for i in 0..n {
        for j in 0..n {
            t[(i, j)] = 0.5 * (a[(i, j)] + a[(j, i)]);
        }
    }
    vs.reshape_zeroed(n, n);
    vnorms.clear();
    vnorms.resize(n, 0.0);
    p.clear();
    p.resize(n, 0.0);
    w.clear();
    w.resize(n, 0.0);
    dots.clear();
    dots.resize(n, 0.0);

    for k in 0..n.saturating_sub(2) {
        let k1 = k + 1;
        d[k] = t[(k, k)];
        // Reflector from the subdiagonal column (rows k+1..n), same sign
        // convention and ascending-row norm accumulation as QR's
        // `build_reflector`.
        let mut norm_sq = 0.0;
        for i in k1..n {
            norm_sq += t[(i, k)] * t[(i, k)];
        }
        let norm = norm_sq.sqrt();
        let v = vs.row_mut(k);
        v.fill(0.0);
        if norm == 0.0 {
            vnorms[k] = 0.0;
            e[k] = 0.0;
            continue;
        }
        let alpha = if t[(k1, k)] >= 0.0 { -norm } else { norm };
        for i in k1..n {
            v[i] = t[(i, k)];
        }
        v[k1] -= alpha;
        let mut v_norm_sq = 0.0;
        for x in v[k1..n].iter() {
            v_norm_sq += x * x;
        }
        vnorms[k] = v_norm_sq;
        // H·col_k = (…, α, 0, …, 0): record the new subdiagonal directly.
        e[k] = alpha;
        let beta = 2.0 / v_norm_sq;
        let v = vs.row(k);
        tri_matvec(t, v, k1, beta, p);
        let kappa = 0.5 * beta * simd::dot(&p[k1..n], &v[k1..n]);
        for i in k1..n {
            w[i] = simd::fnma(p[i], kappa, v[i]);
        }
        if reference {
            tri_rank2_scalar(t, v, w, k1);
        } else {
            tri_rank2(t, v, w, k1);
        }
    }
    if n >= 2 {
        d[n - 2] = t[(n - 2, n - 2)];
        e[n - 2] = t[(n - 1, n - 2)];
    }
    d[n - 1] = t[(n - 1, n - 1)];

    // Back-accumulate Q = H_0 (H_1 (… H_{n-3} I)): reflector k touches
    // rows k+1..n, and column j ≤ k of the partial product is still e_j
    // when it runs, so columns k+1..n cover every non-trivial dot.
    if reference {
        for k in (0..n.saturating_sub(2)).rev() {
            if vnorms[k] == 0.0 {
                continue;
            }
            apply_reflector_scalar(q, vs.row(k), vnorms[k], k + 1, k + 1, n, dots);
        }
    } else {
        back_accumulate(q, vs, vnorms, dots);
    }
    Ok(())
}

/// Trailing matvec: `p[i] = β · Σ_j T[i][j]·v[j]` over the block
/// `i, j ∈ k1..n`, four rows at a time through [`simd::dot4`] (the rest
/// through [`simd::dot`]) — both keep the one lane structure of
/// [`simd::dot`] per row, so the grouping never changes bits. It runs
/// inline: at every order up to 512 a pool split of the per-step passes
/// costs more in wake-ups than it saves (DESIGN.md §4.4).
fn tri_matvec(t: &Matrix, v: &[f64], k1: usize, beta: f64, p: &mut [f64]) {
    let n = t.nrows();
    let x = &v[k1..n];
    let row = |i: usize| &t.row(i)[k1..n];
    let mut i = k1;
    while i + 4 <= n {
        let dots = simd::dot4(row(i), row(i + 1), row(i + 2), row(i + 3), x);
        for (slot, dot) in p[i..i + 4].iter_mut().zip(dots) {
            *slot = beta * dot;
        }
        i += 4;
    }
    for (j, slot) in p.iter_mut().enumerate().take(n).skip(i) {
        *slot = beta * simd::dot(row(j), x);
    }
}

/// Symmetric rank-2 update `T[i][j] −= v_i·w_j + w_i·v_j` over the
/// trailing block, one [`simd::fnma2_scaled`] sweep per row: the
/// `w`-scaled `fnma` first, then the `v`-scaled one, per element. Inline
/// for the same reason as [`tri_matvec`].
fn tri_rank2(t: &mut Matrix, v: &[f64], w: &[f64], k1: usize) {
    let n = t.nrows();
    for i in k1..n {
        simd::fnma2_scaled(&mut t.row_mut(i)[k1..n], &w[k1..n], v[i], &v[k1..n], w[i]);
    }
}

/// Sequential rank-2 update — the same two lanes per row as element loops
/// through the dispatched `fnma` op.
fn tri_rank2_scalar(t: &mut Matrix, v: &[f64], w: &[f64], k1: usize) {
    let n = t.nrows();
    for i in k1..n {
        let (vi, wi) = (v[i], w[i]);
        for j in k1..n {
            t[(i, j)] = simd::fnma(t[(i, j)], w[j], vi);
        }
        for j in k1..n {
            t[(i, j)] = simd::fnma(t[(i, j)], v[j], wi);
        }
    }
}

/// Back-accumulates `Q = H_0 (H_1 (… H_{n−3} I))` inline, one reflector at
/// a time over whole row slices. Per element the operations are those of
/// [`apply_reflector_scalar`] — the dot as an ascending-row dispatched
/// multiply-add chain, the update as one dispatched `fnma` — so the result
/// is bitwise the reference's. Splitting the columns over the pool does
/// not pay here: column `j` only meets reflectors `k < j`, so equal column
/// chunks carry very unequal work (DESIGN.md §4.4).
fn back_accumulate(q: &mut Matrix, vs: &Matrix, vnorms: &[f64], dots: &mut [f64]) {
    let n = q.nrows();
    for k in (0..n.saturating_sub(2)).rev() {
        if vnorms[k] == 0.0 {
            continue;
        }
        let (k1, v) = (k + 1, vs.row(k));
        let scales = &mut dots[k1..n];
        scales.fill(0.0);
        for (i, &vi) in v.iter().enumerate().skip(k1) {
            simd::axpy(scales, vi, &q.row(i)[k1..n]);
        }
        for s in scales.iter_mut() {
            *s = 2.0 * *s / vnorms[k];
        }
        for (i, &vi) in v.iter().enumerate().skip(k1) {
            simd::fnma_scaled(&mut q.row_mut(i)[k1..n], scales, vi);
        }
    }
}

/// One Givens rotation of a QL sweep, applied to adjacent rows `i`/`i+1`
/// of the eigenvector accumulator `Zᵀ`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QlRotation {
    i: usize,
    c: f64,
    s: f64,
}

/// Implicit-shift QL iteration (EISPACK `tql2` schedule) on the
/// tridiagonal `(d, e)` pair, accumulating eigenvectors into `zt`.
///
/// On entry `d` holds the diagonal and `e[..n−1]` the subdiagonal
/// (`e[n−1]` is scratch padding); `zt` holds `Zᵀ` — row `i` of `zt` is the
/// `i`-th column of the current basis (the tridiagonalisation's `Qᵀ`, or
/// the identity to diagonalise `T` alone). On exit `d` holds the
/// (unsorted) eigenvalues and row `i` of `zt` the matching eigenvector.
///
/// The `d`/`e` recurrence runs serially and never reads `zt`. With
/// `deferred` set, every sweep's rotations are recorded into `rot` and the
/// whole sequence is applied to `zt` afterwards in one column-chunked pass
/// (one fork-join; one per [`QL_LOG_CAP`] rotations for large `n`);
/// without it each sweep's rotations are applied as the sweep finishes,
/// sequentially (the reference). Each element of `zt` sees
/// the same rotation sequence either way, so the bits never depend on the
/// choice.
///
/// # Errors
/// Returns [`LinalgError::DidNotConverge`] if an eigenvalue fails to
/// deflate within [`MAX_QL_ITERS`] sweeps.
pub(crate) fn tql2_into(
    d: &mut [f64],
    e: &mut [f64],
    zt: &mut Matrix,
    rot: &mut Vec<QlRotation>,
    deferred: bool,
) -> Result<()> {
    let n = d.len();
    // The deferred pass addresses rows `i + 1 < n` of `zt` through raw
    // pointers, so the row count is a soundness condition, not a hint.
    assert_eq!(zt.nrows(), n, "tql2: Zᵀ needs one row per eigenvalue");
    rot.clear();
    if deferred {
        // Reserving once spares the cold path the doubling copies (a warm
        // log already has room).
        rot.reserve((n * n).min(QL_LOG_CAP));
    }
    if n == 0 {
        return Ok(());
    }
    debug_assert_eq!(e.len(), n, "e carries one padding slot for the sweep");
    for l in 0..n {
        let mut iters = 0;
        loop {
            // Find the first negligible coupling at or after l: the block
            // l..=mm is what the sweep rotates.
            let mut mm = l;
            while mm + 1 < n {
                let dd = d[mm].abs() + d[mm + 1].abs();
                if e[mm].abs() <= f64::EPSILON * dd {
                    break;
                }
                mm += 1;
            }
            if mm == l {
                break; // d[l] has deflated to an eigenvalue
            }
            iters += 1;
            if iters > MAX_QL_ITERS {
                return Err(LinalgError::DidNotConverge {
                    op: "implicit-shift QL",
                    iterations: MAX_QL_ITERS,
                });
            }
            // Wilkinson-style shift from the leading 2×2.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            let sign_r = if g >= 0.0 { r } else { -r };
            g = d[mm] - d[l] + e[l] / (g + sign_r);
            let (mut s, mut c) = (1.0, 1.0);
            let mut shift = 0.0;
            let mut underflow = false;
            // Chase the bulge from the bottom of the block up to l.
            for i in (l..mm).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Recover from underflow: deflate and re-scan.
                    d[i + 1] -= shift;
                    e[mm] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - shift;
                r = (d[i] - g) * s + 2.0 * c * b;
                shift = s * r;
                d[i + 1] = g + shift;
                g = c * r - b;
                rot.push(QlRotation { i, c, s });
            }
            if !deferred {
                apply_ql_rotations_scalar(zt, rot);
                rot.clear();
            } else if rot.len() >= QL_LOG_CAP {
                apply_ql_rotations(zt, rot);
                rot.clear();
            }
            if underflow {
                continue;
            }
            d[l] -= shift;
            e[l] = g;
            e[mm] = 0.0;
        }
    }
    if deferred {
        apply_ql_rotations(zt, rot);
    }
    Ok(())
}

/// Applies a rotation sequence to the rows of `Zᵀ`: rotation `(i, c, s)`
/// maps `(z_i, z_{i+1}) ← (c·z_i − s·z_{i+1}, s·z_i + c·z_{i+1})`
/// element-wise, so every column evolves independently. Each column chunk
/// applies the full sequence to its disjoint columns through
/// [`rotate_columns`] — bitwise identical to the sequential
/// [`simd::rotate_two`] pass, because both perform the same FMA-free
/// operations on every element in sequence order.
fn apply_ql_rotations(zt: &mut Matrix, rot: &[QlRotation]) {
    if rot.is_empty() {
        return;
    }
    let width = zt.ncols();
    let chunks = Chunks::new(width, TRI_MIN_CHUNK_COLS, TRI_MAX_CHUNKS);
    let ptr = SendPtr(zt.as_mut_slice().as_mut_ptr());
    par::run_chunks(chunks.count(), |ci| {
        // SAFETY: every recorded rotation has `i + 1 < zt.nrows()` (the
        // sweep's block ends inside `d`, whose length `tql2_into` asserts
        // equals the row count), chunk ranges lie in `0..width`, and chunk
        // `ci` touches only its own columns — ranges are disjoint across
        // chunks and `zt` is borrowed mutably for the whole pass.
        unsafe { rotate_columns(ptr.get(), width, chunks.range(ci), rot) };
    });
}

/// Applies `rot` in sequence to columns `cols` of the row-major matrix at
/// `base` with `n` columns. On the AVX2 level the columns go through
/// [`rotate_block16_avx2`] in 16-wide blocks; the tail (and the portable
/// level) uses [`simd::rotate_two`] per rotation. Both are FMA-free with
/// the same three roundings per output, so the level never changes bits.
///
/// # Safety
/// `base` must point to a row-major matrix with `n` columns and more than
/// `i + 1` rows for every rotation `i`, `cols` must lie in `0..n`, and no
/// other reference may access those columns for the duration of the call.
unsafe fn rotate_columns(base: *mut f64, n: usize, cols: Range<usize>, rot: &[QlRotation]) {
    #[cfg(target_arch = "x86_64")]
    let c0 = if simd::current_level() == simd::SimdLevel::Avx2 {
        let mut c0 = cols.start;
        while c0 + 16 <= cols.end {
            // The Avx2 level is only reachable after runtime detection
            // proved AVX2 support; the block lies inside `cols`.
            rotate_block16_avx2(base, n, c0, rot);
            c0 += 16;
        }
        c0
    } else {
        cols.start
    };
    #[cfg(not(target_arch = "x86_64"))]
    let c0 = cols.start;
    if c0 < cols.end {
        let width = cols.end - c0;
        for qr in rot {
            // Rows `i` and `i + 1` are distinct and in bounds, and the
            // caller owns these columns exclusively.
            let upper = std::slice::from_raw_parts_mut(base.add(qr.i * n + c0), width);
            let lower = std::slice::from_raw_parts_mut(base.add((qr.i + 1) * n + c0), width);
            simd::rotate_two(upper, lower, qr.c, qr.s);
        }
    }
}

/// Applies `rot` to the 16 columns starting at `c0`. A QL sweep chases its
/// bulge upwards (rotation `i`, then `i − 1`, …), so the row the next
/// rotation shares with this one stays in four registers instead of being
/// stored and reloaded; any other transition writes it back first. Every
/// element still receives exactly the rotation sequence, with the same
/// FMA-free arithmetic as [`simd::rotate_two`].
///
/// # Safety
/// As for [`rotate_columns`], with `c0 + 16 <= n`; the CPU must support
/// AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn rotate_block16_avx2(base: *mut f64, n: usize, c0: usize, rot: &[QlRotation]) {
    use std::arch::x86_64::*;
    let row = |r: usize| base.add(r * n + c0);
    let mut carry = [_mm256_setzero_pd(); 4];
    let mut carry_row = usize::MAX;
    for qr in rot {
        let lower = row(qr.i + 1);
        if carry_row != qr.i + 1 {
            if carry_row != usize::MAX {
                let dst = row(carry_row);
                for (j, y) in carry.iter().enumerate() {
                    _mm256_storeu_pd(dst.add(4 * j), *y);
                }
            }
            for (j, y) in carry.iter_mut().enumerate() {
                *y = _mm256_loadu_pd(lower.add(4 * j));
            }
        }
        let upper = row(qr.i);
        let cv = _mm256_set1_pd(qr.c);
        let sv = _mm256_set1_pd(qr.s);
        for (j, y) in carry.iter_mut().enumerate() {
            let a = _mm256_loadu_pd(upper.add(4 * j));
            let b = *y;
            _mm256_storeu_pd(
                lower.add(4 * j),
                _mm256_add_pd(_mm256_mul_pd(sv, a), _mm256_mul_pd(cv, b)),
            );
            *y = _mm256_sub_pd(_mm256_mul_pd(cv, a), _mm256_mul_pd(sv, b));
        }
        carry_row = qr.i;
    }
    if carry_row != usize::MAX {
        let dst = row(carry_row);
        for (j, y) in carry.iter().enumerate() {
            _mm256_storeu_pd(dst.add(4 * j), *y);
        }
    }
}

/// The sequential reference of [`apply_ql_rotations`]: whole rows, in
/// sequence order.
fn apply_ql_rotations_scalar(zt: &mut Matrix, rot: &[QlRotation]) {
    let n = zt.ncols();
    for qr in rot {
        let (upper, lower) = zt.as_mut_slice().split_at_mut((qr.i + 1) * n);
        simd::rotate_two(&mut upper[qr.i * n..], &mut lower[..n], qr.c, qr.s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(n: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let b = Matrix::from_fn(n, n, |_, _| next());
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = 0.5 * (b[(i, j)] + b[(j, i)]);
            }
        }
        a
    }

    fn tridiagonal(d: &[f64], e: &[f64]) -> Matrix {
        let n = d.len();
        let mut t = Matrix::zeros(n, n);
        for i in 0..n {
            t[(i, i)] = d[i];
            if i + 1 < n {
                t[(i + 1, i)] = e[i];
                t[(i, i + 1)] = e[i];
            }
        }
        t
    }

    #[test]
    fn factorisation_reconstructs_and_q_is_orthogonal() {
        for n in [1, 2, 3, 5, 17, 40] {
            let a = sym(n, n as u64);
            let mut q = Matrix::zeros(0, 0);
            let (mut d, mut e) = (Vec::new(), Vec::new());
            let mut scratch = TridiagScratch::default();
            tridiag_factor_into(&a, &mut q, &mut d, &mut e, &mut scratch).unwrap();
            let t = tridiagonal(&d, &e[..n - 1.min(n)]);
            let rec = q.matmul(&t).unwrap().matmul(&q.transpose()).unwrap();
            let qtq = q.transpose().matmul(&q).unwrap();
            for i in 0..n {
                for j in 0..n {
                    assert!(
                        (rec[(i, j)] - a[(i, j)]).abs() < 1e-12 * n as f64,
                        "reconstruction at {i},{j} (n={n})"
                    );
                    let id = if i == j { 1.0 } else { 0.0 };
                    assert!((qtq[(i, j)] - id).abs() < 1e-12 * n as f64, "QᵀQ (n={n})");
                }
            }
        }
    }

    #[test]
    fn blocked_is_bitwise_identical_to_scalar() {
        let a = sym(37, 7);
        let mut scratch = TridiagScratch::default();
        let mut q1 = Matrix::zeros(0, 0);
        let (mut d1, mut e1) = (Vec::new(), Vec::new());
        tridiag_factor_into(&a, &mut q1, &mut d1, &mut e1, &mut scratch).unwrap();
        let mut q2 = Matrix::zeros(0, 0);
        let (mut d2, mut e2) = (Vec::new(), Vec::new());
        tridiag_factor_scalar_into(&a, &mut q2, &mut d2, &mut e2, &mut scratch).unwrap();
        assert_eq!(q1, q2);
        assert_eq!(d1, d2);
        assert_eq!(e1, e2);
    }

    #[test]
    fn ql_diagonalises_a_tridiagonal_pair() {
        let n = 24;
        let mut d: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
        let mut e: Vec<f64> = (0..n).map(|i| ((i * 3 % 5) as f64) / 3.0 + 0.1).collect();
        e[n - 1] = 0.0;
        let t = tridiagonal(&d.clone(), &e[..n - 1]);
        let mut zt = Matrix::identity(n);
        let mut rot = Vec::new();
        tql2_into(&mut d, &mut e, &mut zt, &mut rot, false).unwrap();
        // T·z_i = λ_i·z_i for every accumulated row of Zᵀ.
        for (i, &lambda) in d.iter().enumerate() {
            let z = zt.row(i);
            for r in 0..n {
                let mut tz = 0.0;
                for (c, &zc) in z.iter().enumerate() {
                    tz += t[(r, c)] * zc;
                }
                assert!(
                    (tz - lambda * z[r]).abs() < 1e-10,
                    "eigenpair {i} residual at row {r}"
                );
            }
        }
    }

    #[test]
    fn deferred_ql_matches_per_sweep_application_across_log_flushes() {
        // Order 600 records about 1.05·n² ≈ 380k rotations, more than
        // QL_LOG_CAP, so the deferred pass flushes mid-iteration. Zᵀ only
        // needs one row per eigenvalue; 21 columns keep the test cheap
        // while still covering a 16-column block plus a tail.
        let n = 600;
        assert!(n * n > QL_LOG_CAP);
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let d0: Vec<f64> = (0..n).map(|_| next()).collect();
        let mut e0: Vec<f64> = (0..n).map(|_| next()).collect();
        e0[n - 1] = 0.0;
        let z0 = Matrix::from_fn(n, 21, |_, _| next());
        let mut rot = Vec::new();
        let (mut d1, mut e1, mut z1) = (d0.clone(), e0.clone(), z0.clone());
        tql2_into(&mut d1, &mut e1, &mut z1, &mut rot, false).unwrap();
        let (mut d2, mut e2, mut z2) = (d0, e0, z0);
        tql2_into(&mut d2, &mut e2, &mut z2, &mut rot, true).unwrap();
        assert_eq!(d1, d2);
        assert_eq!(z1, z2);
    }

    #[test]
    fn rejects_non_square_and_asymmetric() {
        let mut scratch = TridiagScratch::default();
        let mut q = Matrix::zeros(0, 0);
        let (mut d, mut e) = (Vec::new(), Vec::new());
        assert!(
            tridiag_factor_into(&Matrix::zeros(2, 3), &mut q, &mut d, &mut e, &mut scratch)
                .is_err()
        );
        let mut a = Matrix::zeros(3, 3);
        a[(0, 1)] = 1.0;
        assert!(tridiag_factor_into(&a, &mut q, &mut d, &mut e, &mut scratch).is_err());
    }
}
