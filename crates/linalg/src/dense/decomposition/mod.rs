//! Matrix decompositions used by the PrIU reproduction.
//!
//! * [`cholesky`] — blocked right-looking SPD factorisation; used by the
//!   closed-form ridge baseline and the influence-function baseline
//!   (Hessian solves).
//! * [`lu`] — general square solves; INFL's fallback when its Hessian is
//!   not positive definite.
//! * [`tridiag`] — blocked Householder tridiagonalisation `A = Q T Qᵀ` and
//!   implicit-shift QL iteration; stage one and two of the symmetric
//!   eigensolver.
//! * [`eigen`] — symmetric eigendecomposition by two-stage tridiag + QL;
//!   the offline step of PrIU-opt (Eq. 17) and the basis for the
//!   incremental eigenvalue update (Eq. 18).
//! * [`eigen_update`] — exact rank-one updates `A ± x xᵀ` of an
//!   eigendecomposition by deflation and secular roots; how a successor
//!   carries the PrIU-opt eigenbasis across a small delta.
//! * [`truncated`] — exact and randomized truncated eigendecompositions of
//!   Gram forms `X^T diag(w) X`; the "SVD over the intermediate results"
//!   compression of §5.1 / §5.3. The randomized range finder
//!   orthonormalises its sample by modified Gram-Schmidt.
//!
//! Since the blocked rewrite, the two hot decompositions are chunked
//! through [`crate::par`] with shape-only chunk boundaries and expose
//! `_into` / `_with` entry points writing into caller-owned buffers
//! ([`cholesky_factor_into`] / [`cholesky_solve_into`],
//! [`eigen_into`] + [`EigenScratch`]) so the PrIU-opt
//! capture and closed-form baseline paths stay allocation-free once warm.
//! Every factorisation is bitwise reproducible for any `PRIU_THREADS`
//! (asserted by the `decomp_parity` torture suite).

pub mod cholesky;
pub mod eigen;
pub mod eigen_update;
pub mod lu;
pub mod tridiag;
pub mod truncated;

pub use cholesky::{
    cholesky_factor_into, cholesky_factor_scalar_into, cholesky_solve_into, Cholesky,
};
pub use eigen::{
    eigen_into, eigen_scalar_into, eigen_update_into, EigenScratch, EigenUpdateScratch,
    SymmetricEigen,
};
pub use lu::Lu;
pub use tridiag::{tridiag_factor_into, tridiag_factor_scalar_into, TridiagScratch};
pub use truncated::{GramFactor, TruncatedGram, TruncationMethod};
