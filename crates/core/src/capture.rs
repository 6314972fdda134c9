//! Provenance capture: the per-iteration intermediate results cached during
//! the training phase and consumed by the incremental-update phase.
//!
//! In provenance terms (§4.1), each cached object is the specialisation at
//! `1_prov` of a provenance-annotated expression whose annotated terms are
//! the per-sample contributions. Deletion propagation ("zeroing out" the
//! removed samples' tokens) then amounts to subtracting the removed samples'
//! contributions — which only needs the caches below plus the removed rows
//! themselves.

use std::sync::Arc;

use priu_data::dataset::DenseDataset;
use priu_data::minibatch::BatchSchedule;
use priu_linalg::decomposition::eigen::SymmetricEigen;
use priu_linalg::decomposition::{GramFactor, TruncatedGram, TruncationMethod};
use priu_linalg::{Matrix, Vector};

use crate::config::Compression;
use crate::error::{CoreError, Result};
use crate::model::Model;
use crate::trainer::sparse::SparseLogisticProvenance;

/// A cached Gram-form intermediate `Σ_i c_i x_i x_i^T`, either dense or in
/// the truncated `P Vᵀ` form of Eq. 14 / Eq. 20.
#[derive(Debug, Clone)]
pub enum GramCache {
    /// The dense `m x m` matrix.
    Dense(Matrix),
    /// The rank-`r` factorisation `P Vᵀ`, shared with the caches deflated
    /// from it.
    Truncated(Arc<TruncatedGram>),
    /// A truncated base minus an exact low-rank deflation: the operator
    /// `P Vᵀ − Σ_k c_k x_k x_kᵀ` with the removed samples' rows and
    /// coefficients kept in factored form. Produced by chained deletions
    /// ([`GramCache::deflate`]): in provenance terms, the removed samples'
    /// tokens have been zeroed out of the cached expression, which amounts to
    /// subtracting their contributions.
    Deflated {
        /// The original truncated cache, shared with the cache it was
        /// deflated from.
        base: Arc<TruncatedGram>,
        /// Rows of the deleted samples (`k × m`).
        rows: Matrix,
        /// The deleted samples' Gram coefficients (one per row).
        coefficients: Vec<f64>,
    },
}

impl GramCache {
    /// Builds a cache from batch rows and per-row coefficients according to
    /// the chosen compression strategy (`Auto` must be resolved beforehand).
    /// The inputs are borrowed; only the data the cache actually stores is
    /// copied.
    ///
    /// # Errors
    /// Propagates factorisation failures.
    pub fn build(rows: &Matrix, coefficients: &[f64], compression: Compression) -> Result<Self> {
        match compression.resolve(rows.ncols()) {
            Compression::None | Compression::Auto => {
                Ok(GramCache::Dense(rows.weighted_gram(Some(coefficients))))
            }
            Compression::Exact { rank } => {
                let factor = GramFactor::new(rows.clone(), coefficients.to_vec())?;
                Ok(GramCache::Truncated(Arc::new(
                    factor.truncate(rank, TruncationMethod::Exact)?,
                )))
            }
            Compression::Randomized { rank, oversample } => {
                let factor = GramFactor::new(rows.clone(), coefficients.to_vec())?;
                Ok(GramCache::Truncated(Arc::new(factor.truncate(
                    rank,
                    TruncationMethod::Randomized {
                        oversample,
                        // The seed only needs to differ between calls within a
                        // run for statistical robustness; determinism per
                        // (dim, batch) is preferable for reproducibility.
                        seed: 0x5EED ^ (rank as u64) << 32 ^ factor_dims_seed(&factor),
                    },
                )?)))
            }
        }
    }

    /// Applies the cached operator to a parameter vector in `O(m²)` (dense)
    /// or `O(r·m)` (truncated).
    ///
    /// # Errors
    /// Propagates shape mismatches.
    pub fn apply(&self, w: &Vector) -> Result<Vector> {
        let mut out = Vector::zeros(w.len());
        let mut s0 = Vec::new();
        let mut s1 = Vec::new();
        self.apply_into(w, out.as_mut_slice(), &mut s0, &mut s1)?;
        Ok(out)
    }

    /// Applies the cached operator into a caller-owned buffer, reusing the
    /// two scratch vectors across calls — the allocation-free variant of
    /// [`GramCache::apply`] driving the PrIU replay loops. Produces bitwise
    /// the same result as `apply`.
    ///
    /// # Errors
    /// Propagates shape mismatches.
    pub fn apply_into(
        &self,
        w: &[f64],
        out: &mut [f64],
        s0: &mut Vec<f64>,
        s1: &mut Vec<f64>,
    ) -> Result<()> {
        match self {
            GramCache::Dense(g) => Ok(g.matvec_into(w, out)?),
            GramCache::Truncated(t) => Ok(t.apply_into(w, out, s0)?),
            GramCache::Deflated {
                base,
                rows,
                coefficients,
            } => {
                if rows.ncols() != out.len() {
                    return Err(priu_linalg::LinalgError::ShapeMismatch {
                        op: "GramCache::apply_into(deflation)",
                        left: (rows.nrows(), rows.ncols()),
                        right: (out.len(), 1),
                    }
                    .into());
                }
                base.apply_into(w, out, s0)?;
                // rw = diag(c) (rows · w), then out -= rowsᵀ rw.
                s1.clear();
                s1.resize(rows.nrows(), 0.0);
                rows.matvec_into(w, s1)?;
                for (v, c) in s1.iter_mut().zip(coefficients.iter()) {
                    *v *= c;
                }
                s0.clear();
                s0.resize(rows.ncols(), 0.0);
                rows.transpose_matvec_into(s1, s0)?;
                priu_linalg::axpy_slices(out, -1.0, s0);
                Ok(())
            }
        }
    }

    /// Number of deflation-correction rows carried by the cache (0 for
    /// dense/truncated caches). Workspace sizing uses this to reserve the
    /// apply scratch before a timed update starts.
    pub fn deflation_rows(&self) -> usize {
        match self {
            GramCache::Deflated { rows, .. } => rows.nrows(),
            _ => 0,
        }
    }

    /// Number of `f64` values held by the cache (memory accounting, Q8).
    pub fn stored_values(&self) -> usize {
        match self {
            GramCache::Dense(g) => g.nrows() * g.ncols(),
            GramCache::Truncated(t) => t.stored_values(),
            GramCache::Deflated {
                base,
                rows,
                coefficients,
            } => base.stored_values() + rows.nrows() * rows.ncols() + coefficients.len(),
        }
    }

    /// Subtracts the contributions `Σ_k c_k x_k x_kᵀ` of deleted samples from
    /// the cached operator — the deletion-propagation step of a chained
    /// deletion. Dense caches are downdated in place (exactly); truncated
    /// caches keep the correction in factored form so later `apply` calls
    /// stay `O((r + k)·m)`, and share their truncated base with this cache
    /// instead of copying it.
    ///
    /// `rows` holds the deleted samples' feature rows and `coefficients`
    /// their per-sample Gram coefficients (all `1.0` for linear regression,
    /// the frozen `a` slopes for logistic regression).
    ///
    /// # Errors
    /// Propagates shape mismatches.
    pub fn deflate(&self, rows: Matrix, coefficients: Vec<f64>) -> Result<GramCache> {
        debug_assert_eq!(rows.nrows(), coefficients.len());
        match self {
            GramCache::Dense(g) => {
                let mut downdated = g.clone();
                downdated.axpy(-1.0, &rows.weighted_gram(Some(&coefficients)))?;
                Ok(GramCache::Dense(downdated))
            }
            GramCache::Truncated(t) => Ok(GramCache::Deflated {
                base: Arc::clone(t),
                rows,
                coefficients,
            }),
            GramCache::Deflated {
                base,
                rows: prior_rows,
                coefficients: prior_coefficients,
            } => {
                // Row-major storage: the new rows follow the prior ones.
                let total = prior_rows.nrows() + rows.nrows();
                let mut stacked = Vec::with_capacity(total * prior_rows.ncols());
                stacked.extend_from_slice(prior_rows.as_slice());
                stacked.extend_from_slice(rows.as_slice());
                let mut all_coefficients = Vec::with_capacity(total);
                all_coefficients.extend_from_slice(prior_coefficients);
                all_coefficients.extend_from_slice(&coefficients);
                Ok(GramCache::Deflated {
                    base: Arc::clone(base),
                    rows: Matrix::from_vec(total, prior_rows.ncols(), stacked)?,
                    coefficients: all_coefficients,
                })
            }
        }
    }
}

fn factor_dims_seed(factor: &GramFactor) -> u64 {
    (factor.batch_size() as u64) << 20 ^ factor.dim() as u64
}

/// Per-iteration cache for linear regression (Eq. 13/14): the batch Gram
/// matrix `Σ_{i∈B_t} x_i x_i^T` and moment vector `Σ_{i∈B_t} x_i y_i`.
#[derive(Debug, Clone)]
pub struct LinearIterationCache {
    /// Cached `Σ x_i x_i^T` (possibly truncated).
    pub gram: GramCache,
    /// Cached `Σ x_i y_i`.
    pub xy: Vector,
    /// Batch size `B^{(t)}`.
    pub batch_size: usize,
}

/// Per-iteration, per-class cache for (linearised) logistic regression
/// (Eq. 19/20): `C_t = Σ a_{i,(t)} x_i x_i^T`, `D_t = Σ b'_{i,(t)} x_i`, and
/// the per-sample coefficients needed to subtract removed contributions.
#[derive(Debug, Clone)]
pub struct ClassIterationCache {
    /// Cached `C_t` (possibly truncated). Coefficients are uniformly
    /// negative because the interpolated non-linearity is decreasing.
    pub gram: GramCache,
    /// Cached `D_t`.
    pub d: Vector,
    /// Per-batch-member `(a, b')` coefficients in batch order, where the
    /// sample's contribution to the update is `a·x xᵀ w + b'·x`.
    pub coefficients: Vec<(f64, f64)>,
}

/// Per-iteration cache for logistic regression across all classes.
#[derive(Debug, Clone)]
pub struct LogisticIterationCache {
    /// One cache per class (a single entry for binary logistic regression).
    pub classes: Vec<ClassIterationCache>,
    /// Batch size `B^{(t)}`.
    pub batch_size: usize,
}

/// The normal-equations view of a linear session: `M = XᵀX`, `N = XᵀY`
/// and the row count `n` over the rows the session currently covers. One
/// view feeds both the closed-form baseline (which solves with it) and
/// PrIU-opt (whose eigenbasis is refreshed from it), and chained updates
/// keep it exact with rank-k down/updates instead of rebuilding it.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalEquations {
    /// `XᵀX`.
    pub xtx: Matrix,
    /// `XᵀY`.
    pub xty: Vector,
    /// Number of rows `n` the view covers.
    pub n: usize,
}

impl NormalEquations {
    /// Builds the view from a regression dataset.
    ///
    /// # Errors
    /// Returns [`CoreError::LabelMismatch`] for non-regression datasets.
    pub fn build(dataset: &DenseDataset) -> Result<Self> {
        let y = continuous_labels(dataset)?;
        Ok(Self {
            xtx: dataset.x.gram(),
            xty: dataset.x.transpose_matvec(y)?,
            n: dataset.num_samples(),
        })
    }

    /// Folds a delta into the view — `M ← M − ΔXᵀΔX + AᵀA`,
    /// `N ← N − ΔXᵀΔY + AᵀY_A`, `n ← n − |Δ| + |A|` — in
    /// `O((|Δ| + |A|)·m²)`, independent of `n`. `removed` holds the removed
    /// rows with their labels, `added` the appended ones.
    ///
    /// # Errors
    /// Label mismatches, shape mismatches, or removing more rows than the
    /// view covers.
    pub fn apply_delta(
        &mut self,
        removed: &DenseDataset,
        added: Option<&DenseDataset>,
    ) -> Result<()> {
        if removed.num_samples() > self.n {
            return Err(CoreError::InvalidRemoval {
                index: self.n,
                num_samples: self.n,
            });
        }
        self.xtx.axpy(-1.0, &removed.x.gram())?;
        self.xty.axpy(
            -1.0,
            &removed.x.transpose_matvec(continuous_labels(removed)?)?,
        )?;
        self.n -= removed.num_samples();
        if let Some(added) = added {
            self.xtx.axpy(1.0, &added.x.gram())?;
            self.xty
                .axpy(1.0, &added.x.transpose_matvec(continuous_labels(added)?)?)?;
            self.n += added.num_samples();
        }
        Ok(())
    }
}

fn continuous_labels(dataset: &DenseDataset) -> Result<&Vector> {
    dataset
        .labels
        .as_continuous()
        .ok_or(CoreError::LabelMismatch {
            expected: "continuous labels for the normal equations",
        })
}

/// PrIU-opt capture for linear regression (§5.2): the eigendecomposition
/// `XᵀX = Q diag(c) Qᵀ` of the session's [`NormalEquations`], which
/// supply the moment vector `N = XᵀY` as well.
#[derive(Debug, Clone)]
pub struct LinearOptCapture {
    /// Eigendecomposition of the Gram matrix `XᵀX`.
    pub eigen: SymmetricEigen,
}

/// PrIU-opt capture for one class of a logistic model (§5.4): at iteration
/// `ts` the linearisation coefficients are frozen, a full-data `C*` / `D*` is
/// materialised, and `C*` is eigendecomposed offline.
#[derive(Debug, Clone)]
pub struct LogisticOptClassCapture {
    /// Eigendecomposition of the frozen full-data `C*`.
    pub eigen: SymmetricEigen,
    /// Frozen full-data `D*`.
    pub d_star: Vector,
    /// Frozen per-sample `(a, b')` coefficients for every training sample.
    pub coefficients: Vec<(f64, f64)>,
}

/// PrIU-opt capture for a logistic model.
#[derive(Debug, Clone)]
pub struct LogisticOptCapture {
    /// The iteration `ts` after which provenance capture stopped.
    pub switch_iteration: usize,
    /// The model parameters at iteration `ts` (needed to restart the scalar
    /// recursion in the eigenbasis).
    pub model_at_switch: Model,
    /// One capture per class.
    pub classes: Vec<LogisticOptClassCapture>,
}

/// Everything the training phase captures for a linear-regression model.
#[derive(Debug, Clone)]
pub struct LinearProvenance {
    /// The deterministic mini-batch schedule shared with the update phase.
    pub schedule: BatchSchedule,
    /// Learning rate `η`.
    pub learning_rate: f64,
    /// Regularisation rate `λ`.
    pub regularization: f64,
    /// Initial parameters `w^{(0)}`.
    pub initial_model: Model,
    /// Per-iteration caches (length `τ`), each shared with the sessions
    /// chained from this one until a delta touches its batch.
    pub iterations: Vec<Arc<LinearIterationCache>>,
    /// The normal-equations view (present whenever the PrIU-opt or the
    /// closed-form capture is on).
    pub normal: Option<NormalEquations>,
    /// PrIU-opt capture (present unless disabled in the config; implies
    /// `normal`).
    pub opt: Option<LinearOptCapture>,
}

/// Everything the training phase captures for a (binary or multinomial)
/// logistic-regression model.
#[derive(Debug, Clone)]
pub struct LogisticProvenance {
    /// The deterministic mini-batch schedule shared with the update phase.
    pub schedule: BatchSchedule,
    /// Learning rate `η`.
    pub learning_rate: f64,
    /// Regularisation rate `λ`.
    pub regularization: f64,
    /// Initial parameters `w^{(0)}`.
    pub initial_model: Model,
    /// Per-iteration caches (length `τ`), shared like
    /// [`LinearProvenance::iterations`].
    pub iterations: Vec<Arc<LogisticIterationCache>>,
    /// PrIU-opt capture (present unless disabled in the config).
    pub opt: Option<LogisticOptCapture>,
}

/// Memory accounting for captured provenance (Table 3 / Q8).
pub trait ProvenanceMemory {
    /// Total bytes of cached provenance information.
    fn provenance_bytes(&self) -> usize;
}

impl ProvenanceMemory for LinearProvenance {
    fn provenance_bytes(&self) -> usize {
        let per_iter: usize = self
            .iterations
            .iter()
            .map(|it| (it.gram.stored_values() + it.xy.len()) * 8)
            .sum();
        let normal = self
            .normal
            .as_ref()
            .map_or(0, |v| (v.xtx.nrows() * v.xtx.ncols() + v.xty.len()) * 8);
        let opt = self.opt.as_ref().map_or(0, |o| {
            (o.eigen.values.len() + o.eigen.vectors.nrows() * o.eigen.vectors.ncols()) * 8
        });
        per_iter + normal + opt
    }
}

impl ProvenanceMemory for LogisticProvenance {
    fn provenance_bytes(&self) -> usize {
        let per_iter: usize = self
            .iterations
            .iter()
            .map(|it| {
                it.classes
                    .iter()
                    .map(|c| (c.gram.stored_values() + c.d.len()) * 8 + c.coefficients.len() * 16)
                    .sum::<usize>()
            })
            .sum();
        let opt = self.opt.as_ref().map_or(0, |o| {
            o.classes
                .iter()
                .map(|c| {
                    (c.eigen.values.len()
                        + c.eigen.vectors.nrows() * c.eigen.vectors.ncols()
                        + c.d_star.len())
                        * 8
                        + c.coefficients.len() * 16
                })
                .sum::<usize>()
                + o.model_at_switch.num_parameters() * 8
        });
        per_iter + opt
    }
}

impl ProvenanceMemory for SparseLogisticProvenance {
    /// Coefficients only: the sparse path caches no Gram forms.
    fn provenance_bytes(&self) -> usize {
        self.coefficients.iter().map(|c| c.len() * 16).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use priu_data::catalog::Hyperparameters;

    fn rows() -> Matrix {
        Matrix::from_fn(6, 4, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0)
    }

    #[test]
    fn dense_cache_matches_weighted_gram() {
        let r = rows();
        let coeffs = vec![1.0; 6];
        let cache = GramCache::build(&r, &coeffs, Compression::None).unwrap();
        let w = Vector::from_fn(4, |i| i as f64 + 1.0);
        let expected = r.weighted_gram(Some(&coeffs)).matvec(&w).unwrap();
        let got = cache.apply(&w).unwrap();
        assert!((&got - &expected).norm2() < 1e-10);
        assert_eq!(cache.stored_values(), 16);
    }

    #[test]
    fn truncated_cache_approximates_dense_cache() {
        let r = rows();
        let coeffs = vec![-0.5; 6];
        let dense = GramCache::build(&r, &coeffs, Compression::None).unwrap();
        let exact = GramCache::build(&r, &coeffs, Compression::Exact { rank: 4 }).unwrap();
        let randomized = GramCache::build(
            &r,
            &coeffs,
            Compression::Randomized {
                rank: 4,
                oversample: 4,
            },
        )
        .unwrap();
        let w = Vector::ones(4);
        let d = dense.apply(&w).unwrap();
        assert!((&exact.apply(&w).unwrap() - &d).norm2() < 1e-8);
        assert!((&randomized.apply(&w).unwrap() - &d).norm2() < 1e-6);
        assert!(exact.stored_values() <= 2 * 4 * 4);
    }

    #[test]
    fn deflation_matches_rebuilding_from_the_survivors() {
        let r = rows();
        let coeffs = vec![-0.5; 6];
        let removed = [1usize, 4];
        let survivors = [0usize, 2, 3, 5];
        let w = Vector::from_fn(4, |i| i as f64 - 1.5);
        let expected = GramCache::build(
            &r.select_rows(&survivors),
            &vec![-0.5; survivors.len()],
            Compression::None,
        )
        .unwrap()
        .apply(&w)
        .unwrap();

        for compression in [Compression::None, Compression::Exact { rank: 4 }] {
            let full = GramCache::build(&r, &coeffs, compression).unwrap();
            let deflated = full
                .deflate(r.select_rows(&removed), vec![-0.5; removed.len()])
                .unwrap();
            let got = deflated.apply(&w).unwrap();
            assert!(
                (&got - &expected).norm2() < 1e-8,
                "deflation mismatch for {compression:?}"
            );
            assert!(deflated.stored_values() > 0);

            // Deflating twice composes (remove row 1, then row 4).
            let twice = full
                .deflate(r.select_rows(&[1]), vec![-0.5])
                .unwrap()
                .deflate(r.select_rows(&[4]), vec![-0.5])
                .unwrap();
            assert!((&twice.apply(&w).unwrap() - &expected).norm2() < 1e-8);

            // Every deflation shares the truncated factor it started from.
            if let GramCache::Truncated(base) = &full {
                for cache in [&deflated, &twice] {
                    let GramCache::Deflated { base: shared, .. } = cache else {
                        panic!("a truncated cache deflates in factored form");
                    };
                    assert!(Arc::ptr_eq(base, shared));
                }
            }
        }
    }

    #[test]
    fn auto_compression_resolves_against_feature_count() {
        // 4 features → Auto resolves to dense.
        let cache = GramCache::build(&rows(), &[1.0; 6], Compression::Auto).unwrap();
        assert!(matches!(cache, GramCache::Dense(_)));
    }

    #[test]
    fn provenance_memory_accounts_for_all_pieces() {
        let hyper = Hyperparameters {
            batch_size: 6,
            num_iterations: 2,
            learning_rate: 0.1,
            regularization: 0.01,
        };
        let schedule = BatchSchedule::new(6, hyper.batch_size, hyper.num_iterations, 0);
        let gram = GramCache::build(&rows(), &[1.0; 6], Compression::None).unwrap();
        let prov = LinearProvenance {
            schedule,
            learning_rate: hyper.learning_rate,
            regularization: hyper.regularization,
            initial_model: Model::zeros(crate::model::ModelKind::Linear, 4),
            iterations: vec![
                Arc::new(LinearIterationCache {
                    gram: gram.clone(),
                    xy: Vector::zeros(4),
                    batch_size: 6,
                }),
                Arc::new(LinearIterationCache {
                    gram,
                    xy: Vector::zeros(4),
                    batch_size: 6,
                }),
            ],
            normal: None,
            opt: None,
        };
        // 2 iterations × (16 gram values + 4 xy values) × 8 bytes.
        assert_eq!(prov.provenance_bytes(), 2 * (16 + 4) * 8);
    }
}
