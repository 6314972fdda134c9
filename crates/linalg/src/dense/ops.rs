//! Free-standing helpers on dense containers that do not belong to a single
//! type: column statistics (used for feature standardisation) and small
//! conveniences shared by the trainers.

use crate::dense::matrix::Matrix;
use crate::dense::vector::{axpy_slices, Vector};
use crate::error::{LinalgError, Result};

/// Per-column means of a matrix.
pub fn column_means(x: &Matrix) -> Vector {
    let (n, m) = x.shape();
    let mut means = vec![0.0; m];
    for i in 0..n {
        // axpy with α = 1.0 multiplies exactly, so the accumulation bits
        // match the plain loop on every SIMD level.
        axpy_slices(&mut means, 1.0, x.row(i));
    }
    if n > 0 {
        for v in &mut means {
            *v /= n as f64;
        }
    }
    Vector::from_vec(means)
}

/// Per-column population standard deviations of a matrix.
pub fn column_stds(x: &Matrix, means: &Vector) -> Result<Vector> {
    let (n, m) = x.shape();
    if means.len() != m {
        return Err(LinalgError::ShapeMismatch {
            op: "column_stds",
            left: (n, m),
            right: (means.len(), 1),
        });
    }
    let mut vars = vec![0.0; m];
    for i in 0..n {
        let row = x.row(i);
        for j in 0..m {
            let d = row[j] - means[j];
            vars[j] += d * d;
        }
    }
    if n > 0 {
        for v in &mut vars {
            *v = (*v / n as f64).sqrt();
        }
    }
    Ok(Vector::from_vec(vars))
}

/// Computes `sum_i coeffs[i] * vectors[i]`.
///
/// # Errors
/// Returns [`LinalgError::InvalidArgument`] if the slices have different
/// lengths or are empty, and [`LinalgError::ShapeMismatch`] if the vectors
/// have inconsistent lengths.
pub fn linear_combination(coeffs: &[f64], vectors: &[Vector]) -> Result<Vector> {
    if coeffs.len() != vectors.len() || vectors.is_empty() {
        return Err(LinalgError::InvalidArgument(format!(
            "linear_combination requires equally many non-zero coefficients ({}) and vectors ({})",
            coeffs.len(),
            vectors.len()
        )));
    }
    let mut out = Vector::zeros(vectors[0].len());
    for (c, v) in coeffs.iter().zip(vectors.iter()) {
        out.axpy(*c, v)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_statistics() {
        let x = Matrix::from_vec(2, 2, vec![1.0, 10.0, 3.0, 20.0]).unwrap();
        let means = column_means(&x);
        assert_eq!(means.as_slice(), &[2.0, 15.0]);
        let stds = column_stds(&x, &means).unwrap();
        assert!((stds[0] - 1.0).abs() < 1e-12);
        assert!((stds[1] - 5.0).abs() < 1e-12);
        assert!(column_stds(&x, &Vector::zeros(3)).is_err());
    }

    #[test]
    fn empty_matrix_statistics() {
        let x = Matrix::zeros(0, 2);
        assert_eq!(column_means(&x).as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn linear_combination_basics() {
        let a = Vector::from_vec(vec![1.0, 0.0]);
        let b = Vector::from_vec(vec![0.0, 1.0]);
        let c = linear_combination(&[2.0, 3.0], &[a, b]).unwrap();
        assert_eq!(c.as_slice(), &[2.0, 3.0]);
        assert!(linear_combination(&[1.0], &[]).is_err());
    }
}
