//! Dense row-major `f64` matrices.
//!
//! The four hot kernels (`matvec`, `transpose_matvec`, `matmul`,
//! `weighted_gram`) are chunked through [`crate::par`] — map-style kernels
//! write disjoint output regions per chunk, reduction-style kernels combine
//! per-chunk partials in chunk order — so their results are bitwise
//! reproducible for any `PRIU_THREADS`. Each also has an `_into` variant
//! writing into a caller-owned buffer; the allocating versions delegate to
//! those, so both spellings produce identical bits. The innermost loops
//! (row dots, axpy-style accumulations) dispatch through [`crate::simd`],
//! which preserves the 4-wide lane structure on every level — results are
//! bitwise reproducible per `PRIU_SIMD` level, and differ across levels
//! only by FMA's removed intermediate roundings.

use std::ops::{Add, Index, IndexMut, Mul, Range, Sub};

use crate::dense::vector::{axpy_slices, dot_slices, Vector};
use crate::error::{LinalgError, Result};
use crate::par::{self, Chunks};

/// Minimum rows per chunk, shared by every kernel: inputs under
/// `2 * MIN_CHUNK_ROWS` rows take the inline single-chunk path that spawns
/// nothing and allocates nothing, so mb-SGD-sized batches (≤ 511 rows)
/// never pay parallel overhead; parallelism is reserved for the full-data
/// kernels (opt captures, closed-form views, truncation matmuls).
const MIN_CHUNK_ROWS: usize = 256;
/// Chunk-count caps: map-style kernels (`matvec` / `matmul`, disjoint
/// outputs) can fan wide; reductions (`transpose_matvec` / `weighted_gram`)
/// are capped tighter because each extra chunk costs an `m`- or `m²`-sized
/// partial buffer in the combine step.
const MAP_MAX_CHUNKS: usize = 64;
const TMV_MAX_CHUNKS: usize = 16;
const GRAM_MAX_CHUNKS: usize = 8;

/// A dense, row-major matrix of `f64` values.
///
/// Row-major storage matches the access pattern of the PrIU update rules,
/// where training samples are rows of the feature matrix `X` and the hot
/// kernels are row-dot-vector products.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix from row-major data.
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidArgument`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidArgument(format!(
                "expected {} elements for a {}x{} matrix, got {}",
                rows * cols,
                rows,
                cols,
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a square diagonal matrix from the given diagonal entries.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Builds a matrix whose rows are the given vectors.
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidArgument`] if rows have unequal lengths
    /// or the slice is empty.
    pub fn from_rows(rows: &[Vector]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::InvalidArgument(
                "Matrix::from_rows requires at least one row".to_string(),
            ));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::InvalidArgument(
                    "Matrix::from_rows requires rows of equal length".to_string(),
                ));
            }
            data.extend_from_slice(r.as_slice());
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Raw row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Capacity of the backing allocation in `f64` values (buffer-reuse
    /// accounting for workspace callers).
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Mutable raw row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow of the `i`-th row as a slice.
    ///
    /// # Panics
    /// Panics if `i >= nrows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of the `i`-th row.
    ///
    /// # Panics
    /// Panics if `i >= nrows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of the `i`-th row as a [`Vector`].
    pub fn row_vector(&self, i: usize) -> Vector {
        Vector::from_vec(self.row(i).to_vec())
    }

    /// Copy of the `j`-th column as a [`Vector`].
    ///
    /// # Panics
    /// Panics if `j >= ncols()`.
    pub fn column(&self, j: usize) -> Vector {
        assert!(
            j < self.cols,
            "column index {j} out of bounds ({})",
            self.cols
        );
        Vector::from_fn(self.rows, |i| self[(i, j)])
    }

    /// Copy of the main diagonal.
    pub fn diagonal(&self) -> Vector {
        let n = self.rows.min(self.cols);
        Vector::from_fn(n, |i| self[(i, i)])
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Returns a new matrix consisting of the selected rows (in order).
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.select_rows_into(indices, &mut out);
        out
    }

    /// Writes the selected rows (in order) into `out`, reshaping it and
    /// reusing its allocation — the workspace counterpart of
    /// [`Matrix::select_rows`] used by the per-iteration hot path.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.rows = indices.len();
        out.cols = self.cols;
        out.data.clear();
        out.data.reserve(indices.len() * self.cols);
        for &i in indices {
            out.data.extend_from_slice(self.row(i));
        }
    }

    /// Appends the rows of `other` beneath this matrix in place — row-major
    /// storage makes this one `memcpy`-style extend, which is what lets the
    /// delta engines grow a feature matrix without rebuilding it.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if the column counts differ.
    pub fn append_rows(&mut self, other: &Matrix) -> Result<()> {
        if other.cols != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "Matrix::append_rows",
                left: self.shape(),
                right: other.shape(),
            });
        }
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
        Ok(())
    }

    /// Reshapes the matrix to `rows x cols` with every entry zero, reusing
    /// the existing allocation when its capacity suffices.
    pub fn reshape_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes the matrix to `rows x cols` reusing the allocation *without*
    /// zeroing retained elements — for workspace buffers the caller fully
    /// overwrites before reading (skips the `O(rows·cols)` memset of
    /// [`Matrix::reshape_zeroed`]). Retained contents are unspecified.
    pub fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Returns the submatrix consisting of the first `k` columns.
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidArgument`] if `k > ncols()`.
    pub fn first_columns(&self, k: usize) -> Result<Matrix> {
        if k > self.cols {
            return Err(LinalgError::InvalidArgument(format!(
                "cannot take {} columns from a matrix with {}",
                k, self.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, k);
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(&self.row(i)[..k]);
        }
        Ok(out)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        dot_slices(&self.data, &self.data).sqrt()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |acc: f64, x| acc.max(x.abs()))
    }

    /// In-place scaling of every entry by `alpha`.
    pub fn scale_mut(&mut self, alpha: f64) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Returns a copy scaled by `alpha`.
    pub fn scaled(&self, alpha: f64) -> Matrix {
        let mut out = self.clone();
        out.scale_mut(alpha);
        out
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "Matrix::axpy",
                left: self.shape(),
                right: other.shape(),
            });
        }
        for (x, y) in self.data.iter_mut().zip(other.data.iter()) {
            *x += alpha * y;
        }
        Ok(())
    }

    /// Adds `alpha` to every diagonal entry (shift / ridge regularisation).
    ///
    /// # Errors
    /// Returns [`LinalgError::NotSquare`] if the matrix is not square.
    pub fn add_diagonal_mut(&mut self, alpha: f64) -> Result<()> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        for i in 0..self.rows {
            self.data[i * self.cols + i] += alpha;
        }
        Ok(())
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != ncols()`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vector> {
        let mut out = Vector::zeros(self.rows);
        self.matvec_into(x, out.as_mut_slice())?;
        Ok(out)
    }

    /// Matrix-vector product into a caller-owned buffer (`out = self * x`).
    /// Row-parallel with 4-row register blocking; bitwise identical to
    /// [`Matrix::matvec`] for any thread count.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != ncols()` or
    /// `out.len() != nrows()`.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) -> Result<()> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "Matrix::matvec",
                left: self.shape(),
                right: (x.len(), 1),
            });
        }
        if out.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "Matrix::matvec_into(out)",
                left: self.shape(),
                right: (out.len(), 1),
            });
        }
        let chunks = Chunks::new(self.rows, MIN_CHUNK_ROWS, MAP_MAX_CHUNKS);
        par::map_chunks(&chunks, 1, out, |range, chunk_out| {
            matvec_rows(self, range, x, chunk_out)
        });
        Ok(())
    }

    /// Transposed matrix-vector product `self^T * x`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != nrows()`.
    pub fn transpose_matvec(&self, x: &[f64]) -> Result<Vector> {
        let mut out = Vector::zeros(self.cols);
        self.transpose_matvec_into(x, out.as_mut_slice())?;
        Ok(out)
    }

    /// Transposed matrix-vector product into a caller-owned buffer
    /// (`out = self^T * x`, overwritten). Chunked over rows with a
    /// chunk-ordered reduction, so results are bitwise identical for any
    /// thread count.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != nrows()` or
    /// `out.len() != ncols()`.
    pub fn transpose_matvec_into(&self, x: &[f64], out: &mut [f64]) -> Result<()> {
        if x.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "Matrix::transpose_matvec",
                left: (self.cols, self.rows),
                right: (x.len(), 1),
            });
        }
        if out.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "Matrix::transpose_matvec_into(out)",
                left: (self.cols, self.rows),
                right: (out.len(), 1),
            });
        }
        out.fill(0.0);
        let chunks = Chunks::new(self.rows, MIN_CHUNK_ROWS, TMV_MAX_CHUNKS);
        par::reduce_chunks(&chunks, self.cols, out, |range, partial| {
            transpose_matvec_rows(self, range, x, partial)
        });
        Ok(())
    }

    /// Matrix-matrix product `self * other`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if inner dimensions differ.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// Matrix-matrix product into a caller-owned matrix, which is reshaped
    /// to `nrows x other.ncols()` reusing its allocation. Row-parallel
    /// (each output row is produced by exactly one chunk) with a
    /// register-blocked micro-kernel that keeps each element's i-k-j
    /// `axpy` chain; bitwise identical for any thread count.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if inner dimensions differ.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "Matrix::matmul",
                left: self.shape(),
                right: other.shape(),
            });
        }
        out.reshape_zeroed(self.rows, other.cols);
        let chunks = Chunks::new(self.rows, MIN_CHUNK_ROWS, MAP_MAX_CHUNKS);
        par::map_chunks(&chunks, other.cols, &mut out.data, |range, block| {
            matmul_rows(self, other, range, block)
        });
        Ok(())
    }

    /// Gram matrix `self^T * self` (an `ncols x ncols` symmetric matrix).
    pub fn gram(&self) -> Matrix {
        self.weighted_gram(None)
    }

    /// Weighted Gram matrix `self^T * diag(w) * self`.
    ///
    /// With `w = None` this is the plain Gram matrix. This is the kernel that
    /// produces the PrIU intermediate results `Σ_i a_i x_i x_i^T` (Eq. 13/19).
    ///
    /// # Panics
    /// Panics if `w` is provided with a length different from `nrows()`.
    pub fn weighted_gram(&self, w: Option<&[f64]>) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.weighted_gram_into(w, &mut out);
        out
    }

    /// Weighted Gram matrix into a caller-owned matrix, which is reshaped to
    /// `ncols x ncols` reusing its allocation. Chunked over rows with a
    /// chunk-ordered reduction over upper-triangle partials, so results are
    /// bitwise identical for any thread count.
    ///
    /// # Panics
    /// Panics if `w` is provided with a length different from `nrows()`.
    pub fn weighted_gram_into(&self, w: Option<&[f64]>, out: &mut Matrix) {
        if let Some(w) = w {
            assert_eq!(w.len(), self.rows, "weight length must equal row count");
        }
        let m = self.cols;
        out.reshape_zeroed(m, m);
        let chunks = Chunks::new(self.rows, MIN_CHUNK_ROWS, GRAM_MAX_CHUNKS);
        // Chunk-ordered reduction over m*m upper-triangle partials (the
        // strictly lower triangles stay zero until mirrored below).
        par::reduce_chunks(&chunks, m * m, &mut out.data, |range, partial| {
            weighted_gram_rows(self, range, w, partial)
        });
        // Mirror upper triangle to lower triangle.
        for a in 0..m {
            for b in (a + 1)..m {
                out.data[b * m + a] = out.data[a * m + b];
            }
        }
    }

    /// Outer product `x * y^T`.
    pub fn outer(x: &Vector, y: &Vector) -> Matrix {
        Matrix::from_fn(x.len(), y.len(), |i, j| x[i] * y[j])
    }

    /// Whether all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute asymmetry `max_ij |A_ij - A_ji|` (0 for symmetric).
    ///
    /// # Errors
    /// Returns [`LinalgError::NotSquare`] for non-square matrices.
    pub fn asymmetry(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let mut worst = 0.0_f64;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        Ok(worst)
    }
}

/// `out[o] = a.row(rows.start + o) · x` with 4-row register blocking that
/// shares the loads of `x`. Both the fused 4-row dots and the single-row
/// remainder dispatch through [`crate::simd`], whose lanes reproduce the
/// exact 4-wide accumulator scheme of [`dot_slices`] on every level — so
/// blocking never changes bits within a SIMD level.
fn matvec_rows(a: &Matrix, rows: Range<usize>, x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(out.len(), rows.len());
    let mut i = rows.start;
    let mut o = 0;
    while i + 4 <= rows.end {
        let block = crate::simd::dot4(a.row(i), a.row(i + 1), a.row(i + 2), a.row(i + 3), x);
        out[o..o + 4].copy_from_slice(&block);
        i += 4;
        o += 4;
    }
    while i < rows.end {
        out[o] = dot_slices(a.row(i), x);
        i += 1;
        o += 1;
    }
}

/// Accumulates `Σ_{i ∈ rows} x[i] · a.row(i)` into `out` (not cleared).
fn transpose_matvec_rows(a: &Matrix, rows: Range<usize>, x: &[f64], out: &mut [f64]) {
    for i in rows {
        let xi = x[i];
        if xi == 0.0 {
            continue;
        }
        axpy_slices(out, xi, a.row(i));
    }
}

/// `out` rows `rows` of `a * b` through the register-blocked
/// [`crate::simd::gemm_acc`], whose per-element chain is the i-k-j
/// `axpy` order (zero `a[i][k]` skipped). `out_block` holds
/// `rows.len() * b.ncols()` values, pre-zeroed.
fn matmul_rows(a: &Matrix, b: &Matrix, rows: Range<usize>, out_block: &mut [f64]) {
    let inner = a.cols;
    crate::simd::gemm_acc(
        rows.len(),
        inner,
        b.cols,
        &a.data[rows.start * inner..rows.end * inner],
        &b.data,
        out_block,
    );
}

/// Accumulates the upper triangle of `Σ_{i ∈ rows} w_i x_i x_iᵀ` into the
/// row-major `m x m` buffer `out` (not cleared, lower triangle untouched).
fn weighted_gram_rows(a: &Matrix, rows: Range<usize>, w: Option<&[f64]>, out: &mut [f64]) {
    let m = a.cols;
    for i in rows {
        let wi = w.map_or(1.0, |w| w[i]);
        if wi == 0.0 {
            continue;
        }
        let row = a.row(i);
        for p in 0..m {
            let vp = wi * row[p];
            if vp == 0.0 {
                continue;
            }
            axpy_slices(&mut out[p * m + p..(p + 1) * m], vp, &row[p..]);
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &Self::Output {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Self::Output {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition shape mismatch");
        let mut out = self.clone();
        out.axpy(1.0, rhs).expect("shapes already checked");
        out
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "matrix subtraction shape mismatch"
        );
        let mut out = self.clone();
        out.axpy(-1.0, rhs).expect("shapes already checked");
        out
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: f64) -> Matrix {
        self.scaled(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn construction_and_indexing() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.column(1).as_slice(), &[2.0, 5.0]);
        assert!(Matrix::from_vec(2, 2, vec![1.0]).is_err());
        assert!(!m.is_square());
        assert!(Matrix::identity(3).is_square());
    }

    #[test]
    fn identity_and_diagonal() {
        let i = Matrix::identity(3);
        assert_eq!(i.diagonal().as_slice(), &[1.0, 1.0, 1.0]);
        let d = Matrix::from_diagonal(&[2.0, 3.0]);
        assert_eq!(d[(0, 0)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
        assert_eq!(d[(1, 1)], 3.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matvec_and_transpose_matvec() {
        let m = sample();
        let x = Vector::from_vec(vec![1.0, 0.0, -1.0]);
        let y = m.matvec(&x).unwrap();
        assert_eq!(y.as_slice(), &[-2.0, -2.0]);
        let z = m
            .transpose_matvec(&Vector::from_vec(vec![1.0, 1.0]))
            .unwrap();
        assert_eq!(z.as_slice(), &[5.0, 7.0, 9.0]);
        assert!(m.matvec(&Vector::zeros(2)).is_err());
        assert!(m.transpose_matvec(&Vector::zeros(3)).is_err());
    }

    #[test]
    fn matmul_against_hand_computed() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
        assert!(a.matmul(&sample()).is_ok());
        assert!(sample().matmul(&a).is_err());
    }

    #[test]
    fn gram_matches_explicit_product() {
        let x = sample();
        let g = x.gram();
        let explicit = x.transpose().matmul(&x).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((g[(i, j)] - explicit[(i, j)]).abs() < 1e-12);
            }
        }
        assert!(g.asymmetry().unwrap() < 1e-15);
    }

    #[test]
    fn weighted_gram_matches_loop() {
        let x = sample();
        let w = [0.5, -2.0];
        let g = x.weighted_gram(Some(&w));
        // Σ_i w_i x_i x_iᵀ, one row at a time.
        let mut expected = Matrix::zeros(3, 3);
        for (i, &wi) in w.iter().enumerate() {
            let row = x.row(i);
            for a in 0..3 {
                for b in 0..3 {
                    expected[(a, b)] += wi * row[a] * row[b];
                }
            }
        }
        for i in 0..3 {
            for j in 0..3 {
                assert!((g[(i, j)] - expected[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn select_rows_and_first_columns() {
        let x = sample();
        let s = x.select_rows(&[1]);
        assert_eq!(s.shape(), (1, 3));
        assert_eq!(s.row(0), &[4.0, 5.0, 6.0]);
        let c = x.first_columns(2).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.row(1), &[4.0, 5.0]);
        assert!(x.first_columns(4).is_err());
    }

    #[test]
    fn arithmetic_operators() {
        let a = Matrix::identity(2);
        let b = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let sum = &a + &b;
        assert_eq!(sum[(0, 0)], 2.0);
        let diff = &b - &a;
        assert_eq!(diff[(1, 1)], 3.0);
        let scaled = &b * 2.0;
        assert_eq!(scaled[(1, 0)], 6.0);
    }

    #[test]
    fn outer_and_rank_one() {
        let x = Vector::from_vec(vec![1.0, 2.0]);
        let y = Vector::from_vec(vec![3.0, 4.0, 5.0]);
        let o = Matrix::outer(&x, &y);
        assert_eq!(o.shape(), (2, 3));
        assert_eq!(o[(1, 2)], 10.0);
        // The outer product of a vector with itself is the rank-one xxᵀ.
        let m = Matrix::outer(&x, &x);
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m[(0, 1)], m[(1, 0)]);
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    fn add_diagonal_and_norms() {
        let mut m = Matrix::zeros(2, 2);
        m.add_diagonal_mut(3.0).unwrap();
        assert_eq!(m.diagonal().as_slice(), &[3.0, 3.0]);
        assert!((m.frobenius_norm() - (18.0_f64).sqrt()).abs() < 1e-12);
        assert_eq!(m.max_abs(), 3.0);
        let mut rect = Matrix::zeros(2, 3);
        assert!(rect.add_diagonal_mut(1.0).is_err());
        assert!(rect.asymmetry().is_err());
    }

    #[test]
    fn from_rows_validation() {
        let rows = vec![
            Vector::from_vec(vec![1.0, 2.0]),
            Vector::from_vec(vec![3.0, 4.0]),
        ];
        let m = Matrix::from_rows(&rows).unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert!(Matrix::from_rows(&[]).is_err());
        let bad = vec![Vector::zeros(2), Vector::zeros(3)];
        assert!(Matrix::from_rows(&bad).is_err());
    }
}
