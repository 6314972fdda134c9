//! Symmetric eigendecomposition: two-stage tridiagonalisation + QL, and
//! exact rank-one updates of an existing decomposition.
//!
//! PrIU-opt (§5.2) relies on an *offline* eigendecomposition of the Gram
//! matrix `M = X^T X` (`M = Q diag(c) Q^T`), followed by an *online*
//! incremental eigenvalue update after a deletion: `c'_i = (Q^T M' Q)_{ii}`
//! (Eq. 18, citing Ning et al.). Both pieces live in this module.
//!
//! [`eigen_into`] (and [`SymmetricEigen::new`] / [`new_with`] on top of it)
//! runs the classic two-stage dense symmetric eigensolver from
//! [`super::tridiag`]: blocked Householder tridiagonalisation
//! (`A = Q_t T Q_tᵀ`, `4n³/3` flops) followed by implicit-shift QL
//! iteration on `(d, e)` with eigenvector back-accumulation into `Zᵀ`
//! seeded with `Q_tᵀ` (`O(n²)` per sweep, `O(1)` sweeps per eigenvalue) —
//! `O(n³)` in total. The production path (one pool fork-join per call) is
//! bitwise identical to the plain-loop reference [`eigen_scalar_into`] for
//! any `PRIU_THREADS`, per `PRIU_SIMD` level (the shared-driver argument
//! lives in the `tridiag` module docs). The `decomp_parity` suite also
//! checks the eigenpairs numerically against a test-only round-robin
//! Jacobi solver, an algorithm that shares no code with this one.
//!
//! A decomposition that already exists can instead be carried across a
//! rank-one change `A ± x xᵀ` exactly: [`eigen_update_into`] (and
//! [`SymmetricEigen::rank_one_update_with`]) deflates, solves the secular
//! equation and forms one `V·U` product — `O(m²)` plus that product
//! instead of a fresh `O(m³)` pipeline (see [`super::eigen_update`]). Its
//! output keeps this module's contract: values descending, orthonormal
//! columns, bitwise reproducible for any `PRIU_THREADS` per `PRIU_SIMD`
//! level. The `eigen_update` suite checks it against [`eigen_into`] of the
//! updated matrix. The PrIU-opt successor uses it for small deltas.
//!
//! [`new_with`]: SymmetricEigen::new_with

use crate::dense::matrix::Matrix;
use crate::dense::vector::Vector;
use crate::error::{LinalgError, Result};

pub use super::eigen_update::{eigen_update_into, EigenUpdateScratch};
use super::tridiag::{
    tql2_into, tridiag_factor_into, tridiag_factor_scalar_into, QlRotation, TridiagScratch,
};

/// Reusable scratch — and warm output storage — for [`eigen_into`]: the
/// tridiag/QL pipeline buffers and the eigenpair storage the results land
/// in. Buffers grow to the largest
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
    /// two-stage tridiagonalisation + QL pipeline (module docs).
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

    /// The eigenpairs of `A + rho·x xᵀ`, where `A` is the matrix these
    /// pairs decompose, by one exact rank-one update
    /// ([`eigen_update_into`]) on caller-owned scratch: with a warm
    /// [`EigenUpdateScratch`] the only allocations are the returned
    /// eigenvalue vector and eigenvector matrix.
    ///
    /// # Errors
    /// See [`eigen_update_into`].
    pub fn rank_one_update_with(
        &self,
        x: &[f64],
        rho: f64,
        scratch: &mut EigenUpdateScratch,
    ) -> Result<Self> {
        eigen_update_into(self.values.as_slice(), &self.vectors, x, rho, scratch)?;
        Ok(Self::from_update(scratch))
    }

    /// A copy of the pairs an [`EigenUpdateScratch`] holds (the returned
    /// pairs of an update chain).
    pub fn from_update(scratch: &EigenUpdateScratch) -> Self {
        Self {
            values: Vector::from_vec(scratch.values().to_vec()),
            vectors: scratch.vectors().clone(),
        }
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
/// [`EigenScratch::vectors`] (columns). Runs the tridiag + QL pipeline
/// with one pool fork-join per call.
///
/// # Errors
/// See [`SymmetricEigen::new`].
pub fn eigen_into(a: &Matrix, scratch: &mut EigenScratch) -> Result<()> {
    validate_symmetric(a)?;
    tridiag_ql_pipeline(a, scratch, false)
}

/// The plain-loop reference for [`eigen_into`]: sequential
/// tridiagonalisation, per-reflector back-accumulation and per-sweep QL
/// rotation application. The parity suite compares [`eigen_into`] against
/// it bitwise.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn symmetric() -> Matrix {
        Matrix::from_vec(3, 3, vec![4.0, 1.0, -2.0, 1.0, 2.0, 0.0, -2.0, 0.0, 3.0]).unwrap()
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
