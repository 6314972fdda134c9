//! Dense `f64` vectors.
//!
//! [`Vector`] is a thin, owned wrapper over `Vec<f64>` that adds the handful
//! of numerical operations the PrIU update rules need (axpy, dot products,
//! norms, elementwise combinators) while still dereferencing to a slice so it
//! interoperates with plain `&[f64]` APIs.

use std::ops::{Add, AddAssign, Deref, DerefMut, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use crate::error::{LinalgError, Result};

/// A dense column vector of `f64` values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a vector from raw data.
    pub fn from_vec(data: Vec<f64>) -> Self {
        Self { data }
    }

    /// Creates a vector of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        Self {
            data: vec![0.0; len],
        }
    }

    /// Creates a vector of `len` ones.
    pub fn ones(len: usize) -> Self {
        Self {
            data: vec![1.0; len],
        }
    }

    /// Creates a vector filled with `value`.
    pub fn filled(len: usize, value: f64) -> Self {
        Self {
            data: vec![value; len],
        }
    }

    /// Creates a vector by evaluating `f` at every index.
    pub fn from_fn(len: usize, f: impl FnMut(usize) -> f64) -> Self {
        Self {
            data: (0..len).map(f).collect(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has zero entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector and returns the underlying storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Appends the entries of `other` (the label-append building block of
    /// the delta engines' addition path).
    pub fn extend_from_slice(&mut self, other: &[f64]) {
        self.data.extend_from_slice(other);
    }

    /// Dot product `self · other`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if the lengths differ.
    pub fn dot(&self, other: &Vector) -> Result<f64> {
        if self.len() != other.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "Vector::dot",
                left: (self.len(), 1),
                right: (other.len(), 1),
            });
        }
        Ok(dot_slices(&self.data, &other.data))
    }

    /// Euclidean (L2) norm.
    pub fn norm2(&self) -> f64 {
        dot_slices(&self.data, &self.data).sqrt()
    }

    /// Squared Euclidean norm.
    pub fn norm2_squared(&self) -> f64 {
        dot_slices(&self.data, &self.data)
    }

    /// Infinity norm (maximum absolute value); 0 for an empty vector.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, x| acc.max(x.abs()))
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all entries; 0 for an empty vector.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// In-place scaling by a scalar.
    pub fn scale_mut(&mut self, alpha: f64) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Returns a new vector scaled by `alpha`.
    pub fn scaled(&self, alpha: f64) -> Vector {
        let mut out = self.clone();
        out.scale_mut(alpha);
        out
    }

    /// In-place `self += alpha * other` (BLAS `axpy`). Accepts any slice;
    /// `&Vector` arguments coerce.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if lengths differ.
    pub fn axpy(&mut self, alpha: f64, other: &[f64]) -> Result<()> {
        if self.len() != other.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "Vector::axpy",
                left: (self.len(), 1),
                right: (other.len(), 1),
            });
        }
        axpy_slices(&mut self.data, alpha, other);
        Ok(())
    }

    /// Fused in-place `self = alpha * self + beta * other` — the mb-SGD
    /// parameter step `w ← (1-ηλ) w + η·g` as one pass over memory.
    /// Bitwise identical to [`Vector::scale_mut`] followed by
    /// [`Vector::axpy`] on every SIMD level (see
    /// [`crate::simd::scale_add`]).
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if lengths differ.
    pub fn scale_add(&mut self, alpha: f64, beta: f64, other: &[f64]) -> Result<()> {
        if self.len() != other.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "Vector::scale_add",
                left: (self.len(), 1),
                right: (other.len(), 1),
            });
        }
        scale_add_slices(&mut self.data, alpha, beta, other);
        Ok(())
    }

    /// Elementwise application of `f`, producing a new vector.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Vector {
        Vector::from_vec(self.data.iter().map(|&x| f(x)).collect())
    }

    /// Elementwise in-place application of `f`.
    pub fn map_mut(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise product (Hadamard), producing a new vector.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if lengths differ.
    pub fn hadamard(&self, other: &Vector) -> Result<Vector> {
        if self.len() != other.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "Vector::hadamard",
                left: (self.len(), 1),
                right: (other.len(), 1),
            });
        }
        Ok(Vector::from_vec(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a * b)
                .collect(),
        ))
    }

    /// Index of the maximum entry (first one in case of ties).
    ///
    /// Returns `None` for an empty vector.
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0;
        for i in 1..self.data.len() {
            if self.data[i] > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Returns `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Concatenates several vectors into one (the `vec([w1, ..., wq])`
    /// flattening used for multinomial logistic regression parameters).
    pub fn concat(parts: &[Vector]) -> Vector {
        let mut data = Vec::with_capacity(parts.iter().map(Vector::len).sum());
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Vector::from_vec(data)
    }

    /// Splits the vector into `q` equally sized chunks.
    ///
    /// # Errors
    /// Returns [`LinalgError::InvalidArgument`] if the length is not a
    /// multiple of `q` or `q == 0`.
    pub fn split(&self, q: usize) -> Result<Vec<Vector>> {
        if q == 0 || !self.len().is_multiple_of(q) {
            return Err(LinalgError::InvalidArgument(format!(
                "cannot split a vector of length {} into {} equal chunks",
                self.len(),
                q
            )));
        }
        let chunk = self.len() / q;
        Ok(self
            .data
            .chunks(chunk)
            .map(|c| Vector::from_vec(c.to_vec()))
            .collect())
    }
}

/// `out += alpha * src` over equal-length slices, dispatched through the
/// [`crate::simd`] microkernel layer (element-wise, so vector width never
/// changes bits; the Avx2 level fuses each element's multiply-add).
///
/// # Panics
/// Panics if the lengths differ (checked in every build — the SIMD paths
/// write through raw pointers, so the bound is load-bearing).
pub fn axpy_slices(out: &mut [f64], alpha: f64, src: &[f64]) {
    crate::simd::axpy(out, alpha, src);
}

/// `out = alpha * out + beta * src` over equal-length slices — the fused
/// GD step, dispatched through [`crate::simd::scale_add`]. On every SIMD
/// level this is bitwise identical to `scale` by `alpha` followed by
/// [`axpy_slices`] with `beta`, so fusing the two passes is purely a
/// memory-traffic optimisation.
///
/// # Panics
/// Panics if the lengths differ (checked in every build — the SIMD paths
/// write through raw pointers, so the bound is load-bearing).
pub fn scale_add_slices(out: &mut [f64], alpha: f64, beta: f64, src: &[f64]) {
    crate::simd::scale_add(out, alpha, beta, src);
}

/// Dot product of two equal-length slices (caller guarantees lengths
/// match), dispatched through [`crate::simd::dot`] — the canonical 4-wide
/// accumulator lanes shared by the scalar and AVX2 paths.
pub(crate) fn dot_slices(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    crate::simd::dot(a, b)
}

impl Deref for Vector {
    type Target = [f64];
    fn deref(&self) -> &Self::Target {
        &self.data
    }
}

impl DerefMut for Vector {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.data
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, index: usize) -> &Self::Output {
        &self.data[index]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, index: usize) -> &mut Self::Output {
        &mut self.data[index]
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector::from_vec(data)
    }
}

impl From<&[f64]> for Vector {
    fn from(data: &[f64]) -> Self {
        Vector::from_vec(data.to_vec())
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Vector::from_vec(iter.into_iter().collect())
    }
}

impl Add<&Vector> for &Vector {
    type Output = Vector;
    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector addition length mismatch");
        Vector::from_vec(
            self.data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        )
    }
}

impl Sub<&Vector> for &Vector {
    type Output = Vector;
    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector subtraction length mismatch");
        Vector::from_vec(
            self.data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        )
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "vector += length mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "vector -= length mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, rhs: f64) -> Vector {
        self.scaled(rhs)
    }
}

impl Neg for &Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_len() {
        let v = Vector::zeros(4);
        assert_eq!(v.len(), 4);
        assert!(v.iter().all(|&x| x == 0.0));
        let o = Vector::ones(3);
        assert_eq!(o.sum(), 3.0);
        let f = Vector::from_fn(5, |i| i as f64);
        assert_eq!(f.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
        assert!(!f.is_empty());
        assert!(Vector::zeros(0).is_empty());
    }

    #[test]
    fn dot_and_norms() {
        let a = Vector::from_vec(vec![1.0, 2.0, 3.0]);
        let b = Vector::from_vec(vec![4.0, -5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 4.0 - 10.0 + 18.0);
        assert!((a.norm2() - 14.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(b.norm_inf(), 6.0);
        assert_eq!(a.norm2_squared(), 14.0);
    }

    #[test]
    fn dot_shape_mismatch() {
        let a = Vector::zeros(3);
        let b = Vector::zeros(4);
        assert!(matches!(a.dot(&b), Err(LinalgError::ShapeMismatch { .. })));
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Vector::from_vec(vec![1.0, 1.0]);
        let b = Vector::from_vec(vec![2.0, 3.0]);
        a.axpy(2.0, &b).unwrap();
        assert_eq!(a.as_slice(), &[5.0, 7.0]);
        a.scale_mut(0.5);
        assert_eq!(a.as_slice(), &[2.5, 3.5]);
        let c = a.scaled(2.0);
        assert_eq!(c.as_slice(), &[5.0, 7.0]);
    }

    #[test]
    fn operators() {
        let a = Vector::from_vec(vec![1.0, 2.0]);
        let b = Vector::from_vec(vec![3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 3.0).as_slice(), &[3.0, 6.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 7.0]);
        c -= &b;
        assert_eq!(c.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn map_hadamard_argmax() {
        let a = Vector::from_vec(vec![1.0, -2.0, 3.0]);
        assert_eq!(a.map(|x| x * x).as_slice(), &[1.0, 4.0, 9.0]);
        let h = a.hadamard(&Vector::from_vec(vec![2.0, 2.0, 2.0])).unwrap();
        assert_eq!(h.as_slice(), &[2.0, -4.0, 6.0]);
        assert_eq!(a.argmax(), Some(2));
        assert_eq!(Vector::zeros(0).argmax(), None);
        let mut m = a.clone();
        m.map_mut(f64::abs);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn concat_and_split() {
        let a = Vector::from_vec(vec![1.0, 2.0]);
        let b = Vector::from_vec(vec![3.0, 4.0]);
        let c = Vector::concat(&[a.clone(), b.clone()]);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        let parts = c.split(2).unwrap();
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
        assert!(c.split(3).is_err());
        assert!(c.split(0).is_err());
    }

    #[test]
    fn statistics() {
        let a = Vector::from_vec(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(Vector::zeros(0).mean(), 0.0);
        assert!(a.is_finite());
        let b = Vector::from_vec(vec![f64::NAN]);
        assert!(!b.is_finite());
    }

    #[test]
    fn scale_add_matches_scale_then_axpy_bitwise() {
        let src: Vec<f64> = (0..9).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut fused = Vector::from_fn(9, |i| (i as f64 * 0.7).cos());
        let mut pair = fused.clone();
        fused.scale_add(0.95, -0.125, &src).unwrap();
        pair.scale_mut(0.95);
        pair.axpy(-0.125, &src).unwrap();
        assert_eq!(fused, pair);
        assert!(fused.scale_add(1.0, 1.0, &[0.0; 3]).is_err());
    }

    #[test]
    fn dot_slices_unrolled_matches_naive() {
        let a: Vec<f64> = (0..13).map(|i| i as f64 * 0.5).collect();
        let b: Vec<f64> = (0..13).map(|i| (i as f64).sin()).collect();
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot_slices(&a, &b) - naive).abs() < 1e-12);
    }
}
