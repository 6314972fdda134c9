//! LU factorisation with partial pivoting for general square systems.

use crate::dense::matrix::Matrix;
use crate::dense::vector::Vector;
use crate::error::{LinalgError, Result};

/// LU factorisation `P A = L U` with partial pivoting.
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined storage: strictly-lower triangle holds L (unit diagonal
    /// implied), upper triangle holds U.
    lu: Matrix,
    /// Row permutation: row `i` of the factorisation corresponds to row
    /// `perm[i]` of the original matrix.
    perm: Vec<usize>,
}

impl Lu {
    /// Factorises a square matrix.
    ///
    /// # Errors
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::Singular`] if a zero pivot is found.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.nrows(),
                cols: a.ncols(),
            });
        }
        let n = a.nrows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Pivot selection.
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val == 0.0 || !pivot_val.is_finite() {
                return Err(LinalgError::Singular { op: "Lu::new" });
            }
            if pivot_row != k {
                perm.swap(k, pivot_row);
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                for j in (k + 1)..n {
                    let delta = factor * lu[(k, j)];
                    lu[(i, j)] -= delta;
                }
            }
        }
        Ok(Self { lu, perm })
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `b` has the wrong length.
    #[allow(clippy::needless_range_loop)] // substitution kernels read clearest indexed
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let n = self.lu.nrows();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "Lu::solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Apply permutation, then forward substitution with unit-lower L.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[self.perm[i]];
            for k in 0..i {
                sum -= self.lu[(i, k)] * y[k];
            }
            y[i] = sum;
        }
        // Back substitution with U.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= self.lu[(i, k)] * x[k];
            }
            x[i] = sum / self.lu[(i, i)];
        }
        Ok(Vector::from_vec(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_matches_known_solution() {
        let a =
            Matrix::from_vec(3, 3, vec![2.0, 1.0, 1.0, 4.0, -6.0, 0.0, -2.0, 7.0, 2.0]).unwrap();
        let x_true = Vector::from_vec(vec![1.0, 2.0, -1.0]);
        let b = a.matvec(&x_true).unwrap();
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        for i in 0..3 {
            assert!((x[i] - x_true[i]).abs() < 1e-10);
        }
        assert!(lu.solve(&Vector::zeros(4)).is_err());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve(&Vector::from_vec(vec![3.0, 5.0])).unwrap();
        assert!((x[0] - 5.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_singular_and_non_square() {
        let singular = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        assert!(matches!(
            Lu::new(&singular),
            Err(LinalgError::Singular { .. })
        ));
        assert!(matches!(
            Lu::new(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }
}
