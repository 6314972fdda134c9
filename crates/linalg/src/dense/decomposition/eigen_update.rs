//! Rank-one updates of a symmetric eigendecomposition.
//!
//! Given `A = V diag(λ) Vᵀ` (values descending, orthonormal columns) and a
//! row `x`, [`eigen_update_into`] returns the eigenpairs of `A + ρ·x xᵀ`
//! in `O(m²)` plus one `m × K` by `K × K` product, where `K ≤ m` counts the
//! components that survive deflation. The schedule is the divide-and-
//! conquer merge step of LAPACK (`dlaed2`–`dlaed4`), after Bunch, Nielsen
//! & Sorensen (1978) with Gu & Eisenstat's (1994) stable eigenvectors:
//!
//! 1. `z = Vᵀx`. The pairs are put in ascending order of `d = sign(ρ)·λ`
//!    (a reversal for `ρ > 0`, the identity for `ρ < 0`), so the problem
//!    becomes `D + r·u uᵀ` with `r = |ρ|·‖z‖² > 0` and `u = z/‖z‖`.
//! 2. **Deflation** (`dlaed2`), with `tol = 8·ε·max(max|d|, r)`: a
//!    component with `r·|u_j| ≤ tol` keeps its pair unchanged; two
//!    neighbouring kept components whose Givens rotation zeroing the first
//!    `u` entry would couple them by at most `tol` (`|(d_j − d_p)·c·s| ≤
//!    tol`) are rotated, and the first one keeps its rotated pair. Exact
//!    zeros in `z` and repeated eigenvalues both deflate here, which keeps
//!    the `d` of the kept components strictly increasing.
//! 3. **Secular roots** (`dlaed4`): the `K` roots of
//!    `1/r + Σ u_j²/(d_j − μ) = 0` interlace the kept `d`. Each root is
//!    held as an offset `τ` from its nearer pole (the one the midpoint test
//!    picks), so every difference `d_j − μ` is formed as
//!    `(d_j − d_origin) − τ` without cancellation. The iteration is the
//!    "middle way" two-pole rational model, safeguarded by a bracket that
//!    every step shrinks (Newton, then bisection, when the model's root
//!    leaves it).
//! 4. **Löwner's formula** recomputes `û` from the computed roots, so the
//!    vectors `û ./ (d − μ_i)` are orthogonal to working precision even when
//!    the roots are only accurate to `ε·‖A‖` (Gu & Eisenstat).
//! 5. One product `V_K · U` over the kept columns; deflated columns are
//!    copied through (rotated), and all pairs are sorted descending.
//!
//! # Determinism
//!
//! Every scalar stage (deflation, roots, Löwner, normalisation, sort) is a
//! serial loop in a fixed order, and the rotations are applied FMA-free.
//! The three matrix kernels — `Vᵀx`, the `V_K · U` product and the
//! residual probe's mat-vecs — are the chunked [`Matrix`] kernels, bitwise
//! identical for any `PRIU_THREADS`. So an update is bitwise reproducible
//! per `PRIU_SIMD` level for any thread count; across levels it differs by
//! the FMA roundings of those kernels.

use crate::dense::matrix::Matrix;
use crate::error::{LinalgError, Result};

/// Iteration cap per secular root (the model converges in a handful; the
/// bracket halves at least every other step).
const MAX_SECULAR_ITERS: usize = 64;

/// One deflating Givens rotation between working components `p < j`:
/// `(v_p, v_j) ← (c·v_p + s·v_j, c·v_j − s·v_p)`.
#[derive(Debug, Clone, Copy)]
struct Rotation {
    p: usize,
    j: usize,
    c: f64,
    s: f64,
}

/// Working buffers of one update, separate from the held pairs so a chain
/// can read the previous result while writing the next.
#[derive(Debug, Default, Clone)]
struct UpdateWork {
    /// `Vᵀx`, by column of `V`.
    z: Vec<f64>,
    /// `sign(ρ)·λ` in ascending working order (rotated after deflation).
    d: Vec<f64>,
    /// `z/‖z‖` in working order.
    u: Vec<f64>,
    rotations: Vec<Rotation>,
    /// Working indices of the kept (non-deflated) components, ascending.
    kept: Vec<usize>,
    /// Working indices of the deflated components.
    deflated: Vec<usize>,
    /// Kept `d` and `u`.
    dk: Vec<f64>,
    uk: Vec<f64>,
    /// Per root: the pole its offset is measured from, and the offset.
    origin: Vec<usize>,
    tau: Vec<f64>,
    /// Löwner's `û`.
    uhat: Vec<f64>,
    /// `K × K`: first `d_i − μ_j`, then the eigenvectors of the kept block.
    block: Matrix,
    norms: Vec<f64>,
    /// New eigenvalue per slot (kept roots first, then deflated), and the
    /// output column of each slot.
    slot_values: Vec<f64>,
    order: Vec<usize>,
    pos: Vec<usize>,
    /// One rotated row of `V`.
    row: Vec<f64>,
    /// `V_K` (`m × K`) and `V_K · U`.
    vk: Matrix,
    vku: Matrix,
    /// Probe buffers.
    probe: Vec<f64>,
    probe_a: Vec<f64>,
    probe_t: Vec<f64>,
    probe_v: Vec<f64>,
}

/// Reusable scratch — and the held eigenpairs — for [`eigen_update_into`]
/// and chained [`EigenUpdateScratch::update`] calls. Buffers grow to the
/// largest problem seen; a warm scratch makes an update allocation-free
/// (asserted with a counting allocator in `zero_alloc`).
#[derive(Debug, Default, Clone)]
pub struct EigenUpdateScratch {
    /// Eigenvalues of the last update, descending.
    values: Vec<f64>,
    /// Eigenvectors of the last update (columns, matching `values`).
    vectors: Matrix,
    /// The previous pairs while a chained update runs.
    prev_values: Vec<f64>,
    prev_vectors: Matrix,
    work: UpdateWork,
}

impl EigenUpdateScratch {
    /// Eigenvalues of the last update, descending.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Eigenvectors of the last update (columns, matching
    /// [`Self::values`]).
    pub fn vectors(&self) -> &Matrix {
        &self.vectors
    }

    /// Replaces the held pairs (those of `A`) with the pairs of
    /// `A + ρ·x xᵀ` — the next link of a chain started by
    /// [`eigen_update_into`].
    ///
    /// # Errors
    /// See [`eigen_update_into`]. After an error the held pairs are
    /// unspecified.
    pub fn update(&mut self, x: &[f64], rho: f64) -> Result<()> {
        std::mem::swap(&mut self.values, &mut self.prev_values);
        std::mem::swap(&mut self.vectors, &mut self.prev_vectors);
        rank_one_into(
            &self.prev_values,
            &self.prev_vectors,
            x,
            rho,
            &mut self.work,
            &mut self.values,
            &mut self.vectors,
        )
    }

    /// The held pairs' relative residual against `a` on one fixed probe
    /// vector `p`: `‖a·p − V·diag(λ)·Vᵀ·p‖ / (max|λ|·‖p‖)` (the absolute
    /// residual when every `λ` is zero). `O(m²)`; `NaN` when the pairs or
    /// `a` hold non-finite values. `p` is a fixed pseudo-random vector, so
    /// a generic error in the pairs cannot hide from it.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] if `a` is not `m × m`.
    pub fn probe_residual(&mut self, a: &Matrix) -> Result<f64> {
        let m = self.values.len();
        if a.shape() != (m, m) {
            return Err(LinalgError::ShapeMismatch {
                op: "EigenUpdateScratch::probe_residual",
                left: (m, m),
                right: a.shape(),
            });
        }
        let w = &mut self.work;
        w.probe.clear();
        w.probe.extend((0..m as u64).map(|i| {
            let h = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
            h as f64 / (1u64 << 53) as f64 - 0.5
        }));
        for buf in [&mut w.probe_a, &mut w.probe_t, &mut w.probe_v] {
            buf.clear();
            buf.resize(m, 0.0);
        }
        a.matvec_into(&w.probe, &mut w.probe_a)?;
        self.vectors
            .transpose_matvec_into(&w.probe, &mut w.probe_t)?;
        for (t, &l) in w.probe_t.iter_mut().zip(&self.values) {
            *t *= l;
        }
        self.vectors.matvec_into(&w.probe_t, &mut w.probe_v)?;
        let residual = norm(w.probe_a.iter().zip(&w.probe_v).map(|(x, y)| x - y));
        let scale = self.values.iter().fold(0.0_f64, |acc, l| acc.max(l.abs()));
        Ok(if scale > 0.0 {
            residual / (scale * norm(w.probe.iter().copied()))
        } else {
            residual
        })
    }
}

/// The eigenpairs of `A + ρ·x xᵀ` into `scratch` (readable through
/// [`EigenUpdateScratch::values`] / [`EigenUpdateScratch::vectors`]), where
/// `A = vectors · diag(values) · vectorsᵀ` with `values` descending and
/// `vectors` orthonormal (the [`super::SymmetricEigen`] contract, which the
/// result keeps). Module docs give the algorithm; with a warm scratch the
/// call is allocation-free.
///
/// # Errors
/// * [`LinalgError::ShapeMismatch`] on inconsistent shapes.
/// * [`LinalgError::InvalidArgument`] if `x`, `ρ` or `values` hold a
///   non-finite value, `values` is not descending, or `vectorsᵀ·x`
///   overflows or meets a non-finite entry of `vectors`.
/// * [`LinalgError::DidNotConverge`] if a secular root exhausts its
///   iteration budget or the computed vectors are not finite.
pub fn eigen_update_into(
    values: &[f64],
    vectors: &Matrix,
    x: &[f64],
    rho: f64,
    scratch: &mut EigenUpdateScratch,
) -> Result<()> {
    rank_one_into(
        values,
        vectors,
        x,
        rho,
        &mut scratch.work,
        &mut scratch.values,
        &mut scratch.vectors,
    )
}

fn norm(values: impl Iterator<Item = f64>) -> f64 {
    values.map(|v| v * v).sum::<f64>().sqrt()
}

fn validate(values: &[f64], vectors: &Matrix, x: &[f64], rho: f64) -> Result<()> {
    let m = values.len();
    if vectors.shape() != (m, m) || x.len() != m {
        return Err(LinalgError::ShapeMismatch {
            op: "eigen_update_into",
            left: vectors.shape(),
            right: (x.len(), values.len()),
        });
    }
    if !rho.is_finite() || x.iter().any(|v| !v.is_finite()) {
        return Err(LinalgError::InvalidArgument(
            "a rank-one eigen update needs a finite row and weight".to_string(),
        ));
    }
    if values.iter().any(|v| !v.is_finite()) || values.windows(2).any(|w| w[0] < w[1]) {
        return Err(LinalgError::InvalidArgument(
            "a rank-one eigen update needs finite eigenvalues in descending order".to_string(),
        ));
    }
    Ok(())
}

fn rank_one_into(
    values: &[f64],
    vectors: &Matrix,
    x: &[f64],
    rho: f64,
    w: &mut UpdateWork,
    values_out: &mut Vec<f64>,
    vectors_out: &mut Matrix,
) -> Result<()> {
    validate(values, vectors, x, rho)?;
    let m = values.len();
    w.z.clear();
    w.z.resize(m, 0.0);
    vectors.transpose_matvec_into(x, &mut w.z)?;
    // Working index i ↔ column `col(i)` of V, ascending in d = sign·λ.
    let sign = if rho > 0.0 { 1.0 } else { -1.0 };
    let col = |i: usize| if rho > 0.0 { m - 1 - i } else { i };
    let z_norm = norm(w.z.iter().copied());
    let r = rho.abs() * z_norm * z_norm;
    if !r.is_finite() {
        return Err(LinalgError::InvalidArgument(
            "a rank-one eigen update needs finite eigenvectors".to_string(),
        ));
    }
    if m == 0 || r == 0.0 {
        values_out.clear();
        values_out.extend_from_slice(values);
        vectors_out.reshape_for_overwrite(m, m);
        vectors_out
            .as_mut_slice()
            .copy_from_slice(vectors.as_slice());
        return Ok(());
    }
    w.d.clear();
    w.d.extend((0..m).map(|i| sign * values[col(i)]));
    w.u.clear();
    w.u.extend((0..m).map(|i| w.z[col(i)] / z_norm));

    deflate(w, r);
    let k = w.kept.len();
    w.dk.clear();
    w.dk.extend(w.kept.iter().map(|&i| w.d[i]));
    w.uk.clear();
    w.uk.extend(w.kept.iter().map(|&i| w.u[i]));
    w.origin.clear();
    w.tau.clear();
    for i in 0..k {
        let (origin, tau) = secular_root(i, &w.dk, &w.uk, r)?;
        w.origin.push(origin);
        w.tau.push(tau);
    }
    kept_block_vectors(w)?;

    // New eigenvalues per slot (kept roots, then deflated pairs), sorted
    // descending with the slot as a tie-break so the order is total.
    w.slot_values.clear();
    w.slot_values
        .extend((0..k).map(|i| sign * (w.dk[w.origin[i]] + w.tau[i])));
    w.slot_values
        .extend(w.deflated.iter().map(|&i| sign * w.d[i]));
    w.order.clear();
    w.order.extend(0..m);
    let slot_values = &w.slot_values;
    w.order
        .sort_unstable_by(|&a, &b| slot_values[b].total_cmp(&slot_values[a]).then(a.cmp(&b)));
    w.pos.clear();
    w.pos.resize(m, 0);
    for (position, &slot) in w.order.iter().enumerate() {
        w.pos[slot] = position;
    }
    values_out.clear();
    values_out.extend(w.order.iter().map(|&slot| w.slot_values[slot]));

    // Rotate each row of V, gather its kept part into V_K, and place its
    // deflated part straight into the output.
    vectors_out.reshape_for_overwrite(m, m);
    w.vk.reshape_for_overwrite(m, k);
    for row_index in 0..m {
        w.row.clear();
        w.row.extend_from_slice(vectors.row(row_index));
        for rot in &w.rotations {
            let (cp, cj) = (col(rot.p), col(rot.j));
            let (a, b) = (w.row[cp], w.row[cj]);
            w.row[cp] = rot.c * a + rot.s * b;
            w.row[cj] = rot.c * b - rot.s * a;
        }
        let vk_row = w.vk.row_mut(row_index);
        for (slot, &i) in w.kept.iter().enumerate() {
            vk_row[slot] = w.row[col(i)];
        }
        let out_row = vectors_out.row_mut(row_index);
        for (s, &i) in w.deflated.iter().enumerate() {
            out_row[w.pos[k + s]] = w.row[col(i)];
        }
    }
    if k == 0 {
        return Ok(());
    }
    w.vk.matmul_into(&w.block, &mut w.vku)?;
    for row_index in 0..m {
        let (src, out_row) = (w.vku.row(row_index), vectors_out.row_mut(row_index));
        for (slot, &v) in src.iter().enumerate() {
            out_row[w.pos[slot]] = v;
        }
    }
    Ok(())
}

/// `dlaed2`'s deflation over the working order: fills `kept`, `deflated`
/// and `rotations`, rotating `d` and `u` in place. The tolerance is
/// relative to `max(max|d|, r)`, the scale of `D + r·u uᵀ` (LAPACK's
/// `max|u|` stands for `r` there, its problems being scaled to unit norm).
fn deflate(w: &mut UpdateWork, r: f64) {
    let d_max = w.d.iter().fold(0.0_f64, |acc, v| acc.max(v.abs()));
    let tol = 8.0 * f64::EPSILON * d_max.max(r);
    w.kept.clear();
    w.deflated.clear();
    w.rotations.clear();
    let mut pending: Option<usize> = None;
    for j in 0..w.d.len() {
        if r * w.u[j].abs() <= tol {
            w.deflated.push(j);
            continue;
        }
        if let Some(p) = pending {
            let (s, c) = (w.u[p], w.u[j]);
            let t = (c * c + s * s).sqrt();
            let (c, s) = (c / t, -s / t);
            if ((w.d[j] - w.d[p]) * c * s).abs() <= tol {
                w.u[j] = t;
                w.u[p] = 0.0;
                w.rotations.push(Rotation { p, j, c, s });
                let (dp, dj) = (w.d[p], w.d[j]);
                w.d[p] = dp * c * c + dj * s * s;
                w.d[j] = dp * s * s + dj * c * c;
                w.deflated.push(p);
            } else {
                w.kept.push(p);
            }
        }
        pending = Some(j);
    }
    w.kept.extend(pending);
}

/// Secular function pieces at offset `tau` from pole `origin`: `(w, w',
/// ψ', φ', Σ|terms|)` where `w = 1/r + ψ + φ`, `ψ` sums the poles
/// `j ≤ split` and `φ` the rest.
fn secular_terms(
    d: &[f64],
    u: &[f64],
    rhoinv: f64,
    origin: usize,
    tau: f64,
    split: usize,
) -> (f64, f64, f64, f64, f64) {
    let d_origin = d[origin];
    let (psi, dpsi, psi_abs) = pole_sums(&d[..=split], &u[..=split], d_origin, tau);
    let (phi, dphi, phi_abs) = pole_sums(&d[split + 1..], &u[split + 1..], d_origin, tau);
    (
        rhoinv + psi + phi,
        dpsi + dphi,
        dpsi,
        dphi,
        psi_abs + phi_abs,
    )
}

/// `(Σ u_j²/δ_j, Σ u_j²/δ_j², Σ |u_j²/δ_j|)` with `δ_j = (d_j − d_origin)
/// − τ`, in four interleaved lanes (element `j` in lane `j mod 4`, lanes
/// combined in order) so the divisions vectorise.
fn pole_sums(d: &[f64], u: &[f64], d_origin: f64, tau: f64) -> (f64, f64, f64) {
    let (mut sum, mut dsum, mut abs) = ([0.0; 4], [0.0; 4], [0.0; 4]);
    let mut lane = |l: usize, dj: f64, uj: f64| {
        let t = uj / ((dj - d_origin) - tau);
        let term = uj * t;
        sum[l] += term;
        dsum[l] += t * t;
        abs[l] += term.abs();
    };
    let (d_chunks, u_chunks) = (d.chunks_exact(4), u.chunks_exact(4));
    let (d_tail, u_tail) = (d_chunks.remainder(), u_chunks.remainder());
    for (dc, uc) in d_chunks.zip(u_chunks) {
        for l in 0..4 {
            lane(l, dc[l], uc[l]);
        }
    }
    for (l, (&dj, &uj)) in d_tail.iter().zip(u_tail).enumerate() {
        lane(l, dj, uj);
    }
    let combine = |v: [f64; 4]| ((v[0] + v[1]) + v[2]) + v[3];
    (combine(sum), combine(dsum), combine(abs))
}

/// The root of `c·η² − a·η + b` strictly inside `(lo, hi)`, if any (the
/// models below have at most one there).
fn quadratic_root_in(c: f64, a: f64, b: f64, lo: f64, hi: f64) -> Option<f64> {
    let inside = |eta: f64| eta > lo && eta < hi;
    if c == 0.0 {
        return (a != 0.0).then(|| b / a).filter(|&eta| inside(eta));
    }
    let q = 0.5 * (a + a.signum() * (a * a - 4.0 * b * c).max(0.0).sqrt());
    let first = q / c;
    let second = if q == 0.0 { f64::NAN } else { b / q };
    [first, second].into_iter().find(|&eta| inside(eta))
}

/// Root `i` of `1/r + Σ u_j²/(d_j − μ) = 0` for strictly ascending `d` and
/// `r > 0`, as `(origin, τ)` with `μ = d[origin] + τ` (`dlaed4`'s
/// representation).
fn secular_root(i: usize, d: &[f64], u: &[f64], r: f64) -> Result<(usize, f64)> {
    let k = d.len();
    if k == 1 {
        return Ok((0, r * u[0] * u[0]));
    }
    let rhoinv = 1.0 / r;
    let last = i == k - 1;
    // The two poles the rational model keeps: the root's own interval, or
    // the last two poles for the root beyond the largest.
    let (p, q) = if last { (k - 2, k - 1) } else { (i, i + 1) };
    // Bracket in offsets from the chosen origin, and the midpoint probe
    // that picks it.
    let (origin, mid, mut lo, mut hi) = if last {
        let upper = r * u.iter().map(|v| v * v).sum::<f64>();
        (k - 1, 0.5 * upper, 0.0, upper)
    } else {
        let gap = d[i + 1] - d[i];
        (i, 0.5 * gap, 0.0, gap)
    };
    let (w_mid, ..) = secular_terms(d, u, rhoinv, origin, mid, p);
    let (origin, mid) = if w_mid >= 0.0 {
        hi = mid;
        (origin, mid)
    } else if last {
        lo = mid;
        (origin, mid)
    } else {
        // The root lies nearer d[i + 1]: re-measure from there.
        let gap = d[i + 1] - d[i];
        lo = mid - gap;
        hi = 0.0;
        (i + 1, mid - gap)
    };
    // Initial guess: the two-pole model through the midpoint value.
    let (shift_p, shift_q) = (d[p] - d[origin], d[q] - d[origin]);
    let (up2, uq2) = (u[p] * u[p], u[q] * u[q]);
    let c = w_mid - up2 / (shift_p - mid) - uq2 / (shift_q - mid);
    let mut tau = quadratic_root_in(
        c,
        c * (shift_p + shift_q) + up2 + uq2,
        c * shift_p * shift_q + up2 * shift_q + uq2 * shift_p,
        lo,
        hi,
    )
    .unwrap_or(0.5 * (lo + hi));

    for _ in 0..MAX_SECULAR_ITERS {
        let (w, dw, dpsi, dphi, abs_sum) = secular_terms(d, u, rhoinv, origin, tau, p);
        let bound = 8.0 * abs_sum + 2.0 * rhoinv + tau.abs() * dw;
        if w.abs() <= f64::EPSILON * bound {
            return Ok((origin, tau));
        }
        if w < 0.0 {
            lo = lo.max(tau);
        } else {
            hi = hi.min(tau);
        }
        // Middle-way step: ψ and φ each modelled by their nearest pole,
        // matched in value and slope at τ.
        let (dp, dq) = (shift_p - tau, shift_q - tau);
        let eta = quadratic_root_in(
            w - dp * dpsi - dq * dphi,
            (dp + dq) * w - dp * dq * dw,
            dp * dq * w,
            lo - tau,
            hi - tau,
        )
        .or_else(|| Some(-w / dw).filter(|&eta| tau + eta > lo && tau + eta < hi))
        .unwrap_or(0.5 * (lo + hi) - tau);
        let next = tau + eta;
        if next <= lo || next >= hi || next == tau {
            // The bracket has collapsed to adjacent floats.
            return Ok((origin, tau));
        }
        tau = next;
    }
    Err(LinalgError::DidNotConverge {
        op: "secular equation",
        iterations: MAX_SECULAR_ITERS,
    })
}

/// Löwner's `û` and the normalised eigenvectors `û ./ (d − μ_j)` of the
/// kept block, column `j` for root `j`, into `w.block` (`K × K`).
fn kept_block_vectors(w: &mut UpdateWork) -> Result<()> {
    let k = w.dk.len();
    let UpdateWork {
        dk,
        uk,
        origin,
        tau,
        uhat,
        block,
        norms,
        ..
    } = w;
    block.reshape_for_overwrite(k, k);
    for i in 0..k {
        let row = block.row_mut(i);
        for j in 0..k {
            row[j] = (dk[i] - dk[origin[j]]) - tau[j];
        }
    }
    // û_i² = −(d_i − μ_i)·Π_{j≠i} (d_i − μ_j)/(d_i − d_j), as four
    // interleaved partial products (factor j in lane j mod 4) so the
    // divisions overlap.
    uhat.clear();
    for i in 0..k {
        let row = block.row(i);
        let mut lanes = [1.0; 4];
        for (j, &delta) in row.iter().enumerate() {
            lanes[j % 4] *= if j == i {
                delta
            } else {
                delta / (dk[i] - dk[j])
            };
        }
        let prod = (lanes[0] * lanes[1]) * (lanes[2] * lanes[3]);
        uhat.push((-prod).sqrt().copysign(uk[i]));
    }
    norms.clear();
    norms.resize(k, 0.0);
    for (i, &uhat_i) in uhat.iter().enumerate() {
        for (v, norm) in block.row_mut(i).iter_mut().zip(norms.iter_mut()) {
            *v = uhat_i / *v;
            *norm += *v * *v;
        }
    }
    for n in norms.iter_mut() {
        *n = 1.0 / n.sqrt();
    }
    for i in 0..k {
        for (v, n) in block.row_mut(i).iter_mut().zip(norms.iter()) {
            *v *= n;
        }
    }
    if block.as_slice().iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(LinalgError::DidNotConverge {
            op: "secular equation (Löwner vectors)",
            iterations: 0,
        })
    }
}
