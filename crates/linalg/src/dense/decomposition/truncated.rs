//! Truncated (low-rank) factorisations of Gram forms `X^T diag(w) X`.
//!
//! PrIU's per-iteration provenance intermediates are exactly such Gram forms:
//! `Σ_{i∈B_t} x_i x_i^T` for linear regression (Eq. 13) and
//! `Σ_{i∈B_t} a_{i,(t)} x_i x_i^T` for linearised logistic regression
//! (Eq. 19). §5.1 and §5.3 compress them with an SVD keeping the top `r`
//! singular values, so that applying them to a parameter vector costs
//! `O(r·m)` instead of `O(m²)` (or `O(B·m)` without caching).
//!
//! Because the Gram form is symmetric with uniformly-signed weights, its SVD
//! coincides (up to sign) with its eigendecomposition, which we obtain in two
//! ways:
//!
//! * [`TruncationMethod::Exact`] — eigendecomposition of the *small* `B x B`
//!   kernel matrix `Ã Ã^T` (where `Ã = diag(√|w|) X`), suitable when the
//!   mini-batch size `B` is modest;
//! * [`TruncationMethod::Randomized`] — a Halko-style randomized range finder
//!   with cost `O(B·m·r)`, suitable for large batches and feature spaces.

use priu_rng::Rng64;

use crate::dense::decomposition::eigen::SymmetricEigen;
use crate::dense::matrix::Matrix;
use crate::dense::vector::Vector;
use crate::error::{LinalgError, Result};

/// How to compute the truncated factorisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncationMethod {
    /// Exact eigendecomposition of the `B x B` kernel matrix.
    Exact,
    /// Randomized range finder with the given oversampling (extra columns
    /// beyond the target rank, typically 5-10).
    Randomized {
        /// Extra sampled directions beyond the requested rank.
        oversample: usize,
        /// Seed for the random test matrix (kept explicit for reproducibility).
        seed: u64,
    },
}

/// A Gram form `G = X^T diag(w) X` kept in factored form.
///
/// `rows` is the `B x m` matrix whose rows are the contributing samples and
/// `weights` their (uniformly-signed) coefficients.
#[derive(Debug, Clone)]
pub struct GramFactor {
    rows: Matrix,
    weights: Vec<f64>,
}

impl GramFactor {
    /// Creates a Gram factor.
    ///
    /// # Errors
    /// * [`LinalgError::ShapeMismatch`] if `weights.len() != rows.nrows()`.
    /// * [`LinalgError::InvalidArgument`] if the weights mix signs (the
    ///   truncation routines factor out a common sign).
    pub fn new(rows: Matrix, weights: Vec<f64>) -> Result<Self> {
        if weights.len() != rows.nrows() {
            return Err(LinalgError::ShapeMismatch {
                op: "GramFactor::new",
                left: (rows.nrows(), rows.ncols()),
                right: (weights.len(), 1),
            });
        }
        let has_pos = weights.iter().any(|&w| w > 0.0);
        let has_neg = weights.iter().any(|&w| w < 0.0);
        if has_pos && has_neg {
            return Err(LinalgError::InvalidArgument(
                "GramFactor requires uniformly-signed weights".to_string(),
            ));
        }
        Ok(Self { rows, weights })
    }

    /// Creates an unweighted Gram factor `X^T X`.
    pub fn unweighted(rows: Matrix) -> Self {
        let weights = vec![1.0; rows.nrows()];
        Self { rows, weights }
    }

    /// The number of contributing rows (`B`).
    pub fn batch_size(&self) -> usize {
        self.rows.nrows()
    }

    /// The feature dimension (`m`).
    pub fn dim(&self) -> usize {
        self.rows.ncols()
    }

    /// The dense `m x m` Gram matrix (materialised).
    pub fn dense(&self) -> Matrix {
        self.rows.weighted_gram(Some(&self.weights))
    }

    /// Applies the Gram form to a vector without materialising it:
    /// `G w = X^T (diag(w) (X w))`, costing `O(B·m)`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `w.len() != dim()`.
    pub fn apply(&self, w: &Vector) -> Result<Vector> {
        let xw = self.rows.matvec(w)?;
        let scaled = Vector::from_fn(xw.len(), |i| xw[i] * self.weights[i]);
        self.rows.transpose_matvec(&scaled)
    }

    /// The common sign of the weights (+1.0, -1.0, or +1.0 if all zero).
    fn sign(&self) -> f64 {
        if self.weights.iter().any(|&w| w < 0.0) {
            -1.0
        } else {
            1.0
        }
    }

    /// Rows scaled by `√|w_i|` so that `G = sign · Ã^T Ã`.
    fn scaled_rows(&self) -> Matrix {
        let mut scaled = self.rows.clone();
        for i in 0..scaled.nrows() {
            let s = self.weights[i].abs().sqrt();
            for v in scaled.row_mut(i) {
                *v *= s;
            }
        }
        scaled
    }

    /// Computes a rank-`rank` truncated factorisation `G ≈ P V^T`.
    ///
    /// # Errors
    /// Propagates decomposition failures; returns
    /// [`LinalgError::InvalidArgument`] for a zero target rank.
    pub fn truncate(&self, rank: usize, method: TruncationMethod) -> Result<TruncatedGram> {
        if rank == 0 {
            return Err(LinalgError::InvalidArgument(
                "truncation rank must be at least 1".to_string(),
            ));
        }
        let m = self.dim();
        let b = self.batch_size();
        if b == 0 {
            return Ok(TruncatedGram::empty(m));
        }
        let sign = self.sign();
        let a_tilde = self.scaled_rows();
        match method {
            TruncationMethod::Exact => {
                // Kernel trick: the non-zero eigenvalues of Ã^T Ã equal those
                // of the B x B matrix K = Ã Ã^T, whose eigenvectors u map to
                // right singular vectors v = Ã^T u / √λ.
                let k = a_tilde.matmul(&a_tilde.transpose())?;
                let eig = SymmetricEigen::new(&k)?;
                let keep = rank.min(b).min(m);
                let mut cols_v = Vec::with_capacity(keep);
                let mut vals = Vec::with_capacity(keep);
                for j in 0..keep {
                    let lambda = eig.values[j];
                    if lambda <= 1e-12 * eig.values[0].max(1e-300) {
                        break;
                    }
                    let u = eig.vectors.column(j);
                    let v = a_tilde.transpose_matvec(&u)?.scaled(1.0 / lambda.sqrt());
                    cols_v.push(v);
                    vals.push(sign * lambda);
                }
                TruncatedGram::from_eigenpairs(m, &vals, &cols_v)
            }
            TruncationMethod::Randomized { oversample, seed } => {
                let l = (rank + oversample).min(b).min(m);
                // Random test matrix Ω (B x l); uniform entries suffice for a
                // range finder.
                let mut rng = Rng64::from_seed(seed);
                let omega = Matrix::from_fn(b, l, |_, _| rng.uniform(-1.0, 1.0));
                // Y = Ã^T Ω spans (approximately) the dominant range of G.
                let mut y = a_tilde.transpose().matmul(&omega)?;
                let basis_rank = orthonormalize_columns(&mut y);
                if basis_rank == 0 {
                    return Ok(TruncatedGram::empty(m));
                }
                let q = y.first_columns(basis_rank)?;
                // Project: S = (Ã Q)^T (Ã Q) is basis_rank x basis_rank.
                let aq = a_tilde.matmul(&q)?;
                let s = aq.gram();
                let eig = SymmetricEigen::new(&s)?;
                let keep = rank.min(basis_rank);
                let mut cols_v = Vec::with_capacity(keep);
                let mut vals = Vec::with_capacity(keep);
                for j in 0..keep {
                    let lambda = eig.values[j];
                    if lambda <= 1e-12 * eig.values[0].max(1e-300) {
                        break;
                    }
                    let z = eig.vectors.column(j);
                    let v = q.matvec(&z)?;
                    cols_v.push(v);
                    vals.push(sign * lambda);
                }
                TruncatedGram::from_eigenpairs(m, &vals, &cols_v)
            }
        }
    }
}

/// A rank-`r` approximation `G ≈ P V^T` of a Gram form, stored as the two
/// `m x r` matrices that PrIU caches per iteration (`P^{(t)}_{1..r}` and
/// `V^{(t)}_{1..r}` in the paper's notation).
#[derive(Debug, Clone)]
pub struct TruncatedGram {
    /// `P = V diag(λ)`, `m x r`.
    p: Matrix,
    /// `V`, `m x r` (orthonormal columns).
    v: Matrix,
}

impl TruncatedGram {
    /// A rank-0 approximation of the zero matrix.
    pub fn empty(dim: usize) -> Self {
        Self {
            p: Matrix::zeros(dim, 0),
            v: Matrix::zeros(dim, 0),
        }
    }

    /// Reassembles an approximation from previously extracted `P` and `V`
    /// factors (the inverse of [`p`](Self::p)/[`v`](Self::v), used when
    /// deserializing a snapshot).
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if the factors do not share
    /// the same `m x r` shape.
    pub fn from_parts(p: Matrix, v: Matrix) -> Result<Self> {
        if p.nrows() != v.nrows() || p.ncols() != v.ncols() {
            return Err(LinalgError::ShapeMismatch {
                op: "TruncatedGram::from_parts",
                left: (p.nrows(), p.ncols()),
                right: (v.nrows(), v.ncols()),
            });
        }
        Ok(Self { p, v })
    }

    fn from_eigenpairs(dim: usize, values: &[f64], vectors: &[Vector]) -> Result<Self> {
        let r = values.len();
        let mut p = Matrix::zeros(dim, r);
        let mut v = Matrix::zeros(dim, r);
        for (j, (val, vec)) in values.iter().zip(vectors.iter()).enumerate() {
            if vec.len() != dim {
                return Err(LinalgError::ShapeMismatch {
                    op: "TruncatedGram::from_eigenpairs",
                    left: (dim, 1),
                    right: (vec.len(), 1),
                });
            }
            for i in 0..dim {
                v[(i, j)] = vec[i];
                p[(i, j)] = val * vec[i];
            }
        }
        Ok(Self { p, v })
    }

    /// The retained rank `r`.
    pub fn rank(&self) -> usize {
        self.p.ncols()
    }

    /// Feature dimension `m`.
    pub fn dim(&self) -> usize {
        self.p.nrows()
    }

    /// The `P` factor (`m x r`).
    pub fn p(&self) -> &Matrix {
        &self.p
    }

    /// The `V` factor (`m x r`).
    pub fn v(&self) -> &Matrix {
        &self.v
    }

    /// Applies the approximation to a vector: `P (V^T w)` in `O(r·m)`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `w.len() != dim()`.
    pub fn apply(&self, w: &Vector) -> Result<Vector> {
        let mut out = Vector::zeros(self.dim());
        let mut scratch = Vec::new();
        self.apply_into(w, out.as_mut_slice(), &mut scratch)?;
        Ok(out)
    }

    /// Applies the approximation into a caller-owned buffer, using `scratch`
    /// (resized to the retained rank, reused across calls) for the
    /// intermediate `V^T w` — the allocation-free variant of
    /// [`TruncatedGram::apply`].
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `w.len() != dim()` or
    /// `out.len() != dim()`.
    pub fn apply_into(&self, w: &[f64], out: &mut [f64], scratch: &mut Vec<f64>) -> Result<()> {
        if w.len() != self.dim() || out.len() != self.dim() {
            return Err(LinalgError::ShapeMismatch {
                op: "TruncatedGram::apply",
                left: (self.dim(), self.dim()),
                right: (w.len().max(out.len()), 1),
            });
        }
        if self.rank() == 0 {
            out.fill(0.0);
            return Ok(());
        }
        scratch.clear();
        scratch.resize(self.rank(), 0.0);
        self.v.transpose_matvec_into(w, scratch)?;
        self.p.matvec_into(scratch, out)
    }

    /// Materialises the dense approximation `P V^T` (testing / diagnostics).
    pub fn dense(&self) -> Matrix {
        if self.rank() == 0 {
            return Matrix::zeros(self.dim(), self.dim());
        }
        self.p
            .matmul(&self.v.transpose())
            .expect("factor shapes are consistent by construction")
    }

    /// Number of `f64` values cached by this factorisation (`2·m·r`), used by
    /// the memory-accounting experiment (Table 3 / Q8).
    pub fn stored_values(&self) -> usize {
        2 * self.dim() * self.rank()
    }
}

/// Given eigenvalues sorted by descending magnitude, returns the smallest
/// rank whose retained absolute mass is at least `(1 - epsilon)` of the
/// total — the rank-selection rule justified by Theorem 6 / Theorem 8.
pub fn rank_for_energy(eigenvalues: &[f64], epsilon: f64) -> usize {
    let total: f64 = eigenvalues.iter().map(|v| v.abs()).sum();
    if total == 0.0 {
        return 0;
    }
    let target = (1.0 - epsilon) * total;
    let mut acc = 0.0;
    for (i, v) in eigenvalues.iter().enumerate() {
        acc += v.abs();
        if acc >= target {
            return i + 1;
        }
    }
    eigenvalues.len()
}

/// Orthonormalises the columns of `a` in place using modified Gram-Schmidt,
/// dropping (zeroing) columns that are numerically dependent.
///
/// Returns the number of independent columns kept; dependent columns are
/// moved to the end as zero columns so the leading `rank` columns always form
/// an orthonormal basis of the column space.
pub(crate) fn orthonormalize_columns(a: &mut Matrix) -> usize {
    let (n, m) = a.shape();
    let tol = 1e-12;
    let mut rank = 0;
    for j in 0..m {
        // Copy column j into a work buffer.
        let mut col = Vector::from_fn(n, |i| a[(i, j)]);
        // Subtract projections onto previously accepted columns (stored in
        // positions 0..rank).
        for k in 0..rank {
            let mut dot = 0.0;
            for i in 0..n {
                dot += a[(i, k)] * col[i];
            }
            for i in 0..n {
                col[i] -= dot * a[(i, k)];
            }
        }
        let norm = col.norm2();
        if norm > tol {
            for i in 0..n {
                a[(i, rank)] = col[i] / norm;
            }
            rank += 1;
        }
    }
    // Zero out the trailing columns.
    for j in rank..m {
        for i in 0..n {
            a[(i, j)] = 0.0;
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> Matrix {
        Matrix::from_vec(
            6,
            4,
            vec![
                1.0, 0.5, -0.2, 0.1, //
                0.3, 1.2, 0.4, -0.5, //
                -0.7, 0.2, 0.9, 0.3, //
                0.2, -0.4, 0.5, 1.1, //
                0.9, 0.1, 0.2, -0.3, //
                -0.1, 0.6, -0.8, 0.4,
            ],
        )
        .unwrap()
    }

    #[test]
    fn dense_and_apply_agree() {
        let f = GramFactor::unweighted(batch());
        let w = Vector::from_vec(vec![0.5, -1.0, 2.0, 0.25]);
        let via_apply = f.apply(&w).unwrap();
        let via_dense = f.dense().matvec(&w).unwrap();
        assert!((&via_apply - &via_dense).norm2() < 1e-10);
    }

    #[test]
    fn full_rank_exact_truncation_reconstructs_gram() {
        let f = GramFactor::unweighted(batch());
        let t = f.truncate(4, TruncationMethod::Exact).unwrap();
        let diff = &t.dense() - &f.dense();
        assert!(diff.frobenius_norm() < 1e-8);
        assert_eq!(t.stored_values(), 2 * 4 * t.rank());
    }

    #[test]
    fn low_rank_truncation_captures_dominant_mass() {
        let f = GramFactor::unweighted(batch());
        let full = f.dense();
        let t = f.truncate(2, TruncationMethod::Exact).unwrap();
        assert_eq!(t.rank(), 2);
        let err = (&t.dense() - &full).frobenius_norm() / full.frobenius_norm();
        assert!(err < 0.6, "relative error {err} unexpectedly large");
        // The rank-2 approximation must do at least as well as rank-1.
        let t1 = f.truncate(1, TruncationMethod::Exact).unwrap();
        let err1 = (&t1.dense() - &full).frobenius_norm() / full.frobenius_norm();
        assert!(err <= err1 + 1e-12);
    }

    #[test]
    fn randomized_matches_exact_at_full_rank() {
        let f = GramFactor::unweighted(batch());
        let exact = f.truncate(4, TruncationMethod::Exact).unwrap();
        let randomized = f
            .truncate(
                4,
                TruncationMethod::Randomized {
                    oversample: 4,
                    seed: 7,
                },
            )
            .unwrap();
        let diff = (&exact.dense() - &randomized.dense()).frobenius_norm();
        assert!(diff < 1e-6, "difference {diff}");
    }

    #[test]
    fn negative_weights_are_supported() {
        let weights = vec![-0.5, -1.0, -0.2, -0.7, -0.9, -0.3];
        let f = GramFactor::new(batch(), weights.clone()).unwrap();
        let dense = f.dense();
        // All-negative weights give a negative semi-definite Gram form.
        let eig = SymmetricEigen::new(&dense).unwrap();
        assert!(eig.values[0] <= 1e-10);
        let t = f.truncate(4, TruncationMethod::Exact).unwrap();
        assert!((&t.dense() - &dense).frobenius_norm() < 1e-8);
        let w = Vector::ones(4);
        assert!((&f.apply(&w).unwrap() - &dense.matvec(&w).unwrap()).norm2() < 1e-10);
    }

    #[test]
    fn mixed_sign_weights_are_rejected() {
        let weights = vec![1.0, -1.0, 0.0, 0.0, 0.0, 0.0];
        assert!(GramFactor::new(batch(), weights).is_err());
        assert!(GramFactor::new(batch(), vec![1.0; 3]).is_err());
    }

    #[test]
    fn empty_batch_yields_zero_operator() {
        let f = GramFactor::unweighted(Matrix::zeros(0, 3));
        let t = f.truncate(2, TruncationMethod::Exact).unwrap();
        assert_eq!(t.rank(), 0);
        let w = Vector::ones(3);
        assert_eq!(t.apply(&w).unwrap().as_slice(), &[0.0, 0.0, 0.0]);
        assert!(t.apply(&Vector::ones(2)).is_err());
    }

    #[test]
    fn zero_rank_request_is_rejected() {
        let f = GramFactor::unweighted(batch());
        assert!(f.truncate(0, TruncationMethod::Exact).is_err());
    }

    #[test]
    fn rank_for_energy_selects_expected_rank() {
        let eigs = [10.0, 5.0, 1.0, 0.5];
        assert_eq!(rank_for_energy(&eigs, 0.5), 1);
        assert_eq!(rank_for_energy(&eigs, 0.1), 2);
        assert_eq!(rank_for_energy(&eigs, 0.0), 4);
        assert_eq!(rank_for_energy(&[], 0.1), 0);
        assert_eq!(rank_for_energy(&[0.0, 0.0], 0.1), 0);
    }

    #[test]
    fn gram_schmidt_orthonormalizes_and_detects_rank() {
        let mut a = Matrix::from_vec(
            3,
            3,
            vec![
                1.0, 2.0, 2.0, //
                0.0, 1.0, 1.0, //
                1.0, 0.0, 0.0,
            ],
        )
        .unwrap();
        // Third column equals the second: rank 2.
        let rank = orthonormalize_columns(&mut a);
        assert_eq!(rank, 2);
        for k in 0..rank {
            let col = a.column(k);
            assert!((col.norm2() - 1.0).abs() < 1e-10);
        }
        let c0 = a.column(0);
        let c1 = a.column(1);
        assert!(c0.dot(&c1).unwrap().abs() < 1e-10);
        assert!(a.column(2).norm2() < 1e-12);
    }
}
