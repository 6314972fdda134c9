//! Cholesky factorisation of symmetric positive-definite matrices.
//!
//! Used by the closed-form ridge-regression baseline (`(X^T X + c I) w = X^T Y`)
//! and by the INFL baseline, which solves against the regularised Hessian of
//! the objective function.
//!
//! # Blocked, pool-parallel factorisation
//!
//! [`cholesky_factor_into`] is a *right-looking blocked* factorisation: the
//! matrix is processed in panels of [`CHOL_BLOCK`] columns — factor the
//! panel's diagonal block serially, solve the sub-diagonal panel rows in
//! parallel, then apply the panel's rank-`nb` downdate to the trailing
//! matrix in parallel (`syrk`-style, one `axpy` per panel column per row).
//! Both parallel phases are row-chunked through [`crate::par`] with
//! shape-only chunk boundaries.
//!
//! **Determinism.** Every element `L[i][j]` is produced by the chain
//! `a[i][j] − l[i][0]·l[j][0] − l[i][1]·l[j][1] − …` applied *one term at a
//! time in ascending `k`* — the trailing updates subtract each panel column
//! individually (an `axpy` per `k`, never a dot-then-subtract) and the panel
//! factorisation continues the same chain for the in-panel columns. That
//! chain is exactly the textbook left-looking loop, so the blocked path is
//! **bitwise identical** to [`cholesky_factor_scalar_into`], and — because
//! chunks only partition independent rows — bitwise identical for any
//! `PRIU_THREADS`. The `decomp_parity` suite asserts all three equalities.
//!
//! Every term of the chain goes through the [`crate::simd`] element ops
//! (`fnma_dot_seq` in the blocked phases, the fused axpy in the trailing
//! update, the dispatched [`crate::simd::fnma`] in the scalar reference),
//! so on the Avx2 level each `−= l·l` subtracts with a *fused*
//! multiply-add on every path at once: the bitwise guarantee holds per
//! `PRIU_SIMD` level, with bits differing across levels only by FMA's
//! removed intermediate rounding.

use crate::dense::matrix::Matrix;
use crate::dense::vector::{axpy_slices, Vector};
use crate::error::{LinalgError, Result};
use crate::par::{self, Chunks};
use crate::simd;

/// Panel width of the blocked factorisation. Chosen so a panel row fits in
/// L1 alongside the trailing row it updates; the value only affects
/// performance, never results (the summation chain is panel-independent).
const CHOL_BLOCK: usize = 64;
/// Minimum trailing rows per chunk: below `2 ×` this the phase runs inline
/// on the calling thread (small problems never touch the pool).
const CHOL_MIN_CHUNK_ROWS: usize = 128;
/// Chunk-count cap for the parallel phases (map-style, disjoint rows).
const CHOL_MAX_CHUNKS: usize = 16;

/// Lower-triangular Cholesky factor `L` with `A = L L^T`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorises a symmetric positive-definite matrix using the blocked,
    /// pool-parallel algorithm of [`cholesky_factor_into`].
    ///
    /// Only the lower triangle of `a` is read; the strictly upper triangle is
    /// assumed to mirror it.
    ///
    /// # Errors
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::NotPositiveDefinite`] (with the failing pivot index)
    ///   if a non-positive or non-finite pivot is encountered.
    pub fn new(a: &Matrix) -> Result<Self> {
        let mut l = Matrix::zeros(0, 0);
        cholesky_factor_into(a, &mut l)?;
        Ok(Self { l })
    }

    /// The lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` using the factorisation.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `b` has the wrong length.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let mut x = Vector::zeros(self.l.nrows());
        cholesky_solve_into(&self.l, b, x.as_mut_slice())?;
        Ok(x)
    }
}

/// Validates the input and reshapes `l` to an `n × n` zeroed matrix holding
/// the lower triangle of `a`.
fn prepare_lower(a: &Matrix, l: &mut Matrix) -> Result<usize> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.nrows(),
            cols: a.ncols(),
        });
    }
    let n = a.nrows();
    l.reshape_zeroed(n, n);
    for i in 0..n {
        l.row_mut(i)[..=i].copy_from_slice(&a.row(i)[..=i]);
    }
    Ok(n)
}

/// Checks a diagonal pivot value, converting failures into the typed
/// non-SPD error with the pivot index attached.
fn pivot_sqrt(sum: f64, pivot: usize, op: &'static str) -> Result<f64> {
    if sum <= 0.0 || !sum.is_finite() {
        return Err(LinalgError::NotPositiveDefinite { op, pivot });
    }
    Ok(sum.sqrt())
}

/// The textbook left-looking scalar factorisation — the reference tree the
/// blocked path reproduces bitwise. `l` is reshaped to `n × n`, reusing its
/// allocation, with the factor in the lower triangle.
///
/// # Errors
/// See [`Cholesky::new`].
pub fn cholesky_factor_scalar_into(a: &Matrix, l: &mut Matrix) -> Result<()> {
    let n = prepare_lower(a, l)?;
    for i in 0..n {
        for j in 0..=i {
            let mut sum = l[(i, j)];
            for k in 0..j {
                // The dispatched element op keeps the reference tree in
                // lock-step with the SIMD level: mul-then-sub on the
                // portable level, fused on the Avx2 level — exactly what
                // the blocked path's `fnma_dot_seq` / fused axpy perform.
                sum = simd::fnma(sum, l[(i, k)], l[(j, k)]);
            }
            if i == j {
                l[(i, j)] = pivot_sqrt(sum, i, "cholesky_factor_scalar_into")?;
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(())
}

/// Blocked, pool-parallel Cholesky factorisation into a caller-owned matrix
/// (reshaped to `n × n`, reusing its allocation; factor in the lower
/// triangle). Bitwise identical to [`cholesky_factor_scalar_into`] for any
/// thread count — see the module docs for the determinism argument.
///
/// # Errors
/// See [`Cholesky::new`].
pub fn cholesky_factor_into(a: &Matrix, l: &mut Matrix) -> Result<()> {
    let n = prepare_lower(a, l)?;
    let mut k0 = 0;
    while k0 < n {
        let nb = CHOL_BLOCK.min(n - k0);
        let k1 = k0 + nb;

        // Phase 1 (serial): factor the nb × nb diagonal block. Earlier
        // panels' contributions were already subtracted (in ascending k) by
        // their trailing updates, so the chain continues with k0..j.
        for j in k0..k1 {
            for i in j..k1 {
                // Continue the element chain through the dispatched
                // sequential fnma kernel (fused on the Avx2 level, matching
                // the scalar reference's dispatched element op).
                let sum = simd::fnma_dot_seq(l[(i, j)], &l.row(i)[k0..j], &l.row(j)[k0..j]);
                if i == j {
                    l[(i, j)] = pivot_sqrt(sum, i, "cholesky_factor_into")?;
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        if k1 == n {
            break;
        }

        let below = n - k1;
        // Scratch: the diagonal block (read by every solve) plus the panel
        // transpose (read by every trailing-update row), copied out so the
        // parallel phases borrow them immutably while rows of `l` are
        // written disjointly.
        par::with_scratch(nb * nb + nb * below, |scratch| {
            let (diag, pt) = scratch.split_at_mut(nb * nb);
            for j in k0..k1 {
                diag[(j - k0) * nb..(j - k0 + 1) * nb].copy_from_slice(&l.row(j)[k0..k1]);
            }

            let chunks = Chunks::new(below, CHOL_MIN_CHUNK_ROWS, CHOL_MAX_CHUNKS);
            // Phase 2 (parallel): solve the sub-diagonal panel rows
            // L21 · L11ᵀ = A21, row by row (each row needs only the diagonal
            // block and itself).
            let ncols = l.ncols();
            let rows_below = &mut l.as_mut_slice()[k1 * ncols..];
            par::map_chunks(&chunks, ncols, rows_below, |range, region| {
                for (local, _) in range.enumerate() {
                    let row = &mut region[local * ncols..(local + 1) * ncols];
                    for j in k0..k1 {
                        let jb = j - k0;
                        // Same dispatched sequential fnma chain as the
                        // diagonal block — the panel row against the
                        // contiguous diagonal-block row.
                        let sum = simd::fnma_dot_seq(
                            row[j],
                            &row[k0..j],
                            &diag[jb * nb..jb * nb + (j - k0)],
                        );
                        row[j] = sum / diag[jb * nb + jb];
                    }
                }
            });

            // Transpose the solved panel so each trailing row's update reads
            // contiguous memory (a copy — no floating-point work).
            for (local, i) in (k1..n).enumerate() {
                let row = l.row(i);
                for k in k0..k1 {
                    pt[(k - k0) * below + local] = row[k];
                }
            }

            // Phase 3 (parallel): trailing update
            // A22[i][j] −= Σ_k L21[i][k] · L21[j][k], subtracting one panel
            // column k at a time (ascending) so the element chain matches the
            // scalar reference bitwise. Each row i updates its lower-triangle
            // slice j ∈ k1..=i.
            let rows_below = &mut l.as_mut_slice()[k1 * ncols..];
            par::map_chunks(&chunks, ncols, rows_below, |range, region| {
                for (local, off) in range.enumerate() {
                    let i = k1 + off;
                    let row = &mut region[local * ncols..(local + 1) * ncols];
                    for k in k0..k1 {
                        // No zero-skip: the scalar chain subtracts every
                        // term, and `x − 0·y` is not always bitwise `x`
                        // (signed zeros), so the blocked path must too.
                        let lik = row[k];
                        let pt_row = &pt[(k - k0) * below..(k - k0) * below + off + 1];
                        axpy_slices(&mut row[k1..=i], -lik, pt_row);
                    }
                }
            });
        });
        k0 = k1;
    }
    Ok(())
}

/// Solves `A x = b` given the lower-triangular factor `l`, writing into a
/// caller-owned buffer (forward then back substitution, both in place — no
/// allocation).
///
/// # Errors
/// Returns [`LinalgError::ShapeMismatch`] if `b` or `x` has the wrong length.
#[allow(clippy::needless_range_loop)] // substitution kernels read clearest indexed
pub fn cholesky_solve_into(l: &Matrix, b: &[f64], x: &mut [f64]) -> Result<()> {
    let n = l.nrows();
    if b.len() != n || x.len() != n {
        return Err(LinalgError::ShapeMismatch {
            op: "cholesky_solve_into",
            left: (n, n),
            right: (b.len().max(x.len()), 1),
        });
    }
    x.copy_from_slice(b);
    // Forward substitution: L y = b (y overwrites x).
    for i in 0..n {
        let row = l.row(i);
        let mut sum = x[i];
        for k in 0..i {
            sum -= row[k] * x[k];
        }
        x[i] = sum / row[i];
    }
    // Back substitution: L^T x = y (in place; x[k] for k > i is final).
    for i in (0..n).rev() {
        let mut sum = x[i];
        for k in (i + 1)..n {
            sum -= l[(k, i)] * x[k];
        }
        x[i] = sum / l[(i, i)];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd() -> Matrix {
        // A = B^T B + I for a small B, guaranteed SPD.
        Matrix::from_vec(3, 3, vec![4.0, 2.0, 0.6, 2.0, 5.0, 1.0, 0.6, 1.0, 3.0]).unwrap()
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd();
        let chol = Cholesky::new(&a).unwrap();
        let l = chol.factor();
        let rec = l.matmul(&l.transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((rec[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn blocked_factor_is_bitwise_identical_to_scalar() {
        // Cross the panel boundary so phases 2/3 actually run.
        let n = CHOL_BLOCK + 7;
        let b = Matrix::from_fn(n, n, |i, j| (((i * 31 + j * 17) % 13) as f64 - 6.0) / 7.0);
        let mut a = b.gram();
        a.add_diagonal_mut(n as f64).unwrap();
        let mut blocked = Matrix::zeros(0, 0);
        let mut scalar = Matrix::zeros(0, 0);
        cholesky_factor_into(&a, &mut blocked).unwrap();
        cholesky_factor_scalar_into(&a, &mut scalar).unwrap();
        assert_eq!(blocked, scalar);
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd();
        let x_true = Vector::from_vec(vec![1.0, -2.0, 0.5]);
        let b = a.matvec(&x_true).unwrap();
        let chol = Cholesky::new(&a).unwrap();
        let x = chol.solve(&b).unwrap();
        for i in 0..3 {
            assert!((x[i] - x_true[i]).abs() < 1e-10);
        }
        assert!(chol.solve(&Vector::zeros(2)).is_err());
        let mut out = [0.0; 2];
        assert!(cholesky_solve_into(chol.factor(), &b, &mut out).is_err());
    }

    #[test]
    fn rejects_non_spd_and_non_square_with_pivot_index() {
        let not_spd = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        assert!(matches!(
            Cholesky::new(&not_spd),
            Err(LinalgError::NotPositiveDefinite { pivot: 0, .. })
        ));
        // Definiteness lost at a later pivot: leading 1x1 block fine, 2x2 not.
        let late = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        assert!(matches!(
            Cholesky::new(&late),
            Err(LinalgError::NotPositiveDefinite { pivot: 1, .. })
        ));
        let mut scalar = Matrix::zeros(0, 0);
        assert!(matches!(
            cholesky_factor_scalar_into(&late, &mut scalar),
            Err(LinalgError::NotPositiveDefinite { pivot: 1, .. })
        ));
        let rect = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::new(&rect),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn non_finite_input_is_an_error_not_a_nan_factor() {
        let mut a = spd();
        a[(1, 1)] = f64::NAN;
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { pivot: 1, .. })
        ));
    }

    #[test]
    fn empty_and_one_by_one() {
        let empty = Cholesky::new(&Matrix::zeros(0, 0)).unwrap();
        assert_eq!(empty.factor().shape(), (0, 0));
        let one = Cholesky::new(&Matrix::from_diagonal(&[9.0])).unwrap();
        assert_eq!(one.factor()[(0, 0)], 3.0);
        assert!(matches!(
            Cholesky::new(&Matrix::from_diagonal(&[-1.0])),
            Err(LinalgError::NotPositiveDefinite { pivot: 0, .. })
        ));
    }
}
