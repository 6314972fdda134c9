//! # priu-linalg
//!
//! Self-contained dense and sparse linear-algebra substrate for the PrIU
//! reproduction (Wu, Tannen, Davidson, SIGMOD 2020).
//!
//! The original paper runs its dense experiments on PyTorch and its sparse
//! experiments on SciPy. This crate provides the equivalent kernels in pure
//! Rust so that every method compared in the paper (PrIU, PrIU-opt, BaseL,
//! Closed-form, INFL) runs on exactly the same primitives:
//!
//! * [`Matrix`] / [`Vector`] — dense row-major storage with BLAS-like
//!   kernels (`gemv`, `gemm`, rank-k Gram updates, outer products, norms).
//! * [`sparse::CsrMatrix`] — compressed sparse rows with `spmv` /
//!   `transpose_spmv`, used for the RCV1-style sparse workloads (§5.3).
//! * [`decomposition`] — Cholesky, LU (partial pivoting), symmetric
//!   eigendecomposition (tridiagonalisation + QL), and randomized
//!   / exact truncated eigendecompositions of Gram forms. The truncated factorisations are the
//!   "SVD over the intermediate results" used by PrIU (§5.1, §5.3); the
//!   symmetric eigendecomposition plus the incremental eigenvalue update is
//!   what PrIU-opt builds on (§5.2, Eq. 17–18).
//! * [`stats`] — vector comparison metrics (L2 distance, cosine similarity,
//!   sign flips) used by the evaluation's model-comparison section (Q4).
//! * [`par`] — the performance layer: a deterministic, lazily-started
//!   persistent worker pool (`PRIU_THREADS`) behind the hot dense and
//!   sparse kernels, plus a coarse-grained [`par::run_tasks`] API for
//!   independent jobs (figure sweeps). Every kernel also has an
//!   allocation-free `_into` variant writing into caller-owned buffers,
//!   and all results are bitwise reproducible for any thread count.
//! * [`simd`] — the microkernel layer underneath everything above:
//!   runtime-dispatched AVX2+FMA implementations (`PRIU_SIMD`) of the
//!   shared inner loops with a portable fallback whose 4-wide accumulator
//!   lanes the SIMD paths reproduce exactly, so results are bitwise
//!   reproducible per SIMD level for any thread count.
//!
//! All numerics are `f64`. The crate is deliberately dependency-free apart
//! from the workspace's own `priu-rng` (random test matrices, randomized
//! range finder), so it builds in fully offline environments.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dense;
pub mod error;
pub mod par;
pub mod simd;
pub mod sparse;
pub mod stats;

pub mod decomposition {
    //! Matrix decompositions: Cholesky, LU, symmetric eigen, truncated
    //! eigen/SVD of Gram forms.
    pub use crate::dense::decomposition::*;
}

pub use dense::matrix::Matrix;
pub use dense::vector::{axpy_slices, scale_add_slices, Vector};
pub use error::{LinalgError, Result};
pub use sparse::csr::CsrMatrix;
