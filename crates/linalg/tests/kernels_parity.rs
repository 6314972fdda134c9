//! Property suite for the performance layer: every `_into` kernel variant
//! must match its allocating counterpart bitwise, the unrolled/blocked
//! kernels must match straightforward reference implementations numerically,
//! and every kernel — dense and sparse CSR alike — must be **bitwise
//! identical** across thread counts (`PRIU_THREADS ∈ {1, 4}` pinned per
//! call via `par::with_threads`).
//!
//! Shapes are swept over a deterministic seed-per-case grid (the workspace
//! convention replacing proptest) including sizes small enough to stay on
//! the single-chunk inline path and large enough to exercise multi-chunk
//! parallel reductions on the persistent worker pool.

use priu_linalg::par;
use priu_linalg::simd;
use priu_linalg::sparse::CooBuilder;
use priu_linalg::{CsrMatrix, Matrix, Vector};
use priu_rng::Rng64;

/// The SIMD levels this host can execute; thread-count bitwise assertions
/// run under each (cross-level bits differ by FMA's removed roundings, so
/// the guarantee is per level).
fn simd_levels() -> Vec<simd::SimdLevel> {
    simd::available_levels()
}

/// (rows, cols) grid: single-chunk, boundary and multi-chunk shapes, with
/// non-multiples of the unroll width everywhere.
const SHAPES: [(usize, usize); 6] = [(1, 1), (7, 5), (64, 33), (257, 19), (600, 41), (1100, 103)];

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Rng64::from_seed(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.uniform(-2.0, 2.0))
}

fn random_vec(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng64::from_seed(seed);
    (0..len).map(|_| rng.uniform(-2.0, 2.0)).collect()
}

/// Naive reference kernels — no unrolling, no chunking.
mod reference {
    use priu_linalg::Matrix;

    pub fn matvec(a: &Matrix, x: &[f64]) -> Vec<f64> {
        (0..a.nrows())
            .map(|i| a.row(i).iter().zip(x).map(|(r, v)| r * v).sum())
            .collect()
    }

    pub fn transpose_matvec(a: &Matrix, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; a.ncols()];
        for (i, &xi) in x.iter().enumerate() {
            for (j, &v) in a.row(i).iter().enumerate() {
                out[j] += xi * v;
            }
        }
        out
    }

    pub fn weighted_gram(a: &Matrix, w: Option<&[f64]>) -> Matrix {
        let m = a.ncols();
        let mut out = Matrix::zeros(m, m);
        for i in 0..a.nrows() {
            let wi = w.map_or(1.0, |w| w[i]);
            let row = a.row(i);
            for p in 0..m {
                for q in 0..m {
                    out[(p, q)] += wi * row[p] * row[q];
                }
            }
        }
        out
    }

    /// The i-k-j kernel `Matrix::matmul_into` ran before its register
    /// blocking: one `simd::axpy` of row `k` of `b` per nonzero `a[i][k]`,
    /// into a zeroed output row. Its bits are the blocked kernel's contract
    /// on every SIMD level.
    pub fn matmul_ikj(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.nrows(), b.ncols());
        for i in 0..a.nrows() {
            for (k, &aik) in a.row(i).iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                priu_linalg::simd::axpy(out.row_mut(i), aik, b.row(k));
            }
        }
        out
    }

    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.nrows(), b.ncols());
        for i in 0..a.nrows() {
            for j in 0..b.ncols() {
                let mut acc = 0.0;
                for k in 0..a.ncols() {
                    acc += a[(i, k)] * b[(k, j)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    }
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .fold(0.0_f64, |acc, (x, y)| acc.max((x - y).abs()))
}

#[test]
fn into_variants_match_allocating_counterparts_bitwise() {
    for (case, &(n, m)) in SHAPES.iter().enumerate() {
        let seed = 0xA0 + case as u64;
        let a = random_matrix(n, m, seed);
        let x = random_vec(m, seed ^ 1);
        let t = random_vec(n, seed ^ 2);
        let w = random_vec(n, seed ^ 3);
        let b = random_matrix(m, (case % 3) + 1, seed ^ 4);

        let mut out_n = vec![0.0; n];
        a.matvec_into(&x, &mut out_n).unwrap();
        assert_eq!(out_n, a.matvec(&x).unwrap().into_vec(), "matvec {n}x{m}");

        let mut out_m = vec![0.0; m];
        a.transpose_matvec_into(&t, &mut out_m).unwrap();
        assert_eq!(
            out_m,
            a.transpose_matvec(&t).unwrap().into_vec(),
            "transpose_matvec {n}x{m}"
        );

        let mut gram = Matrix::zeros(0, 0);
        a.weighted_gram_into(Some(&w), &mut gram);
        assert_eq!(gram, a.weighted_gram(Some(&w)), "weighted_gram {n}x{m}");

        let mut prod = Matrix::zeros(0, 0);
        a.matmul_into(&b, &mut prod).unwrap();
        assert_eq!(prod, a.matmul(&b).unwrap(), "matmul {n}x{m}");
    }
}

#[test]
fn kernels_match_naive_references_numerically() {
    for (case, &(n, m)) in SHAPES.iter().enumerate() {
        let seed = 0xB0 + case as u64;
        let a = random_matrix(n, m, seed);
        let x = random_vec(m, seed ^ 1);
        let t = random_vec(n, seed ^ 2);
        let w = random_vec(n, seed ^ 3);
        let b = random_matrix(m, 8, seed ^ 4);
        // Chunked/unrolled summation reassociates, so compare with a
        // tolerance scaled to the reduction length.
        let tol = 1e-12 * (n.max(m) as f64);

        assert!(max_abs_diff(&a.matvec(&x).unwrap(), &reference::matvec(&a, &x)) < tol);
        assert!(
            max_abs_diff(
                &a.transpose_matvec(&t).unwrap(),
                &reference::transpose_matvec(&a, &t)
            ) < tol
        );
        let gram = a.weighted_gram(Some(&w));
        let gram_ref = reference::weighted_gram(&a, Some(&w));
        assert!(max_abs_diff(gram.as_slice(), gram_ref.as_slice()) < tol);
        let prod = a.matmul(&b).unwrap();
        let prod_ref = reference::matmul(&a, &b);
        assert!(max_abs_diff(prod.as_slice(), prod_ref.as_slice()) < tol);
    }
}

#[test]
fn results_are_bitwise_identical_across_thread_counts() {
    for level in simd_levels() {
        for (case, &(n, m)) in SHAPES.iter().enumerate() {
            let seed = 0xC0 + case as u64;
            let a = random_matrix(n, m, seed);
            let x = random_vec(m, seed ^ 1);
            let t = random_vec(n, seed ^ 2);
            let w = random_vec(n, seed ^ 3);
            let b = random_matrix(m, 16, seed ^ 4);

            let run = |threads| {
                simd::with_level(level, || {
                    par::with_threads(threads, || {
                        (
                            a.matvec(&x).unwrap(),
                            a.transpose_matvec(&t).unwrap(),
                            a.weighted_gram(Some(&w)),
                            a.matmul(&b).unwrap(),
                        )
                    })
                })
            };
            let serial = run(1);
            let parallel = run(4);
            // PartialEq on f64 containers is exact equality — the
            // determinism guarantee is bitwise, not approximate.
            assert_eq!(serial.0, parallel.0, "matvec {n}x{m} ({level})");
            assert_eq!(serial.1, parallel.1, "transpose_matvec {n}x{m} ({level})");
            assert_eq!(serial.2, parallel.2, "weighted_gram {n}x{m} ({level})");
            assert_eq!(serial.3, parallel.3, "matmul {n}x{m} ({level})");
        }
        // The square shape of the PrIU-opt eigenbasis update's `V·U`.
        let a = random_matrix(318, 318, 0xC8);
        let b = random_matrix(318, 318, 0xC9);
        let run = |threads| {
            simd::with_level(level, || {
                par::with_threads(threads, || a.matmul(&b).unwrap())
            })
        };
        assert_eq!(run(1), run(4), "matmul 318x318 ({level})");
    }
}

/// `A` with zeros (about a quarter of them `-0.0`) scattered over it, and
/// `B` with `±inf` / `NaN` in rows where some row of `A` holds a zero.
fn zero_riddled_operands(n: usize, k: usize, c: usize, seed: u64) -> (Matrix, Matrix) {
    let mut rng = Rng64::from_seed(seed);
    let mut a = random_matrix(n, k, seed ^ 1);
    let mut b = random_matrix(k, c, seed ^ 2);
    for i in 0..n {
        for kk in 0..k {
            match rng.index(8) {
                0 => a[(i, kk)] = 0.0,
                1 if rng.index(4) == 0 => a[(i, kk)] = -0.0,
                _ => {}
            }
        }
    }
    // Zero out one column of `A` entirely, so its row of `B` may hold
    // non-finite values without poisoning any product.
    let hidden = k / 2;
    for i in 0..n {
        a[(i, hidden)] = if i % 3 == 0 { -0.0 } else { 0.0 };
    }
    for j in 0..c {
        b[(hidden, j)] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][j % 3];
    }
    (a, b)
}

#[test]
fn matmul_matches_the_ikj_axpy_kernel_bitwise() {
    // Shapes whose rows, inner dimension and columns straddle the 6 × 8
    // register block (and one exact multiple), including the 318 square.
    let shapes = [
        (1, 1, 1),
        (3, 5, 7),
        (6, 8, 8),
        (5, 9, 13),
        (7, 3, 12),
        (13, 17, 21),
        (66, 31, 45),
        (259, 11, 30),
        (318, 318, 318),
    ];
    for level in simd_levels() {
        for (case, &(n, k, c)) in shapes.iter().enumerate() {
            let (a, b) = zero_riddled_operands(n, k, c, 0x6E0 + case as u64);
            let (blocked, reference) = simd::with_level(level, || {
                (a.matmul(&b).unwrap(), reference::matmul_ikj(&a, &b))
            });
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&blocked),
                bits(&reference),
                "matmul {n}x{k}x{c} ({level})"
            );
            assert!(
                blocked.as_slice().iter().all(|v| v.is_finite()),
                "zero-skip lost ({level})"
            );
        }
    }
}

#[test]
fn unweighted_gram_equals_weighted_gram_with_unit_weights() {
    let a = random_matrix(300, 21, 0xD0);
    let ones = vec![1.0; 300];
    assert_eq!(a.gram(), a.weighted_gram(Some(&ones)));
}

#[test]
fn truncated_apply_into_matches_apply() {
    use priu_linalg::decomposition::{GramFactor, TruncationMethod};
    let a = random_matrix(40, 12, 0xE0);
    let t = GramFactor::unweighted(a)
        .truncate(6, TruncationMethod::Exact)
        .unwrap();
    let w = Vector::from_vec(random_vec(12, 0xE1));
    let via_apply = t.apply(&w).unwrap();
    let mut out = vec![0.0; 12];
    let mut scratch = Vec::new();
    t.apply_into(&w, &mut out, &mut scratch).unwrap();
    assert_eq!(out, via_apply.into_vec());
}

/// Sparse `(rows, cols, nnz_per_row)` grid: single-chunk, boundary and
/// multi-chunk row counts at RCV1-ish per-row densities.
const SPARSE_SHAPES: [(usize, usize, usize); 4] =
    [(7, 5, 2), (300, 40, 6), (600, 90, 12), (1500, 200, 25)];

fn random_csr(rows: usize, cols: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix {
    let mut rng = Rng64::from_seed(seed);
    let mut builder = CooBuilder::new(rows, cols);
    for i in 0..rows {
        for _ in 0..nnz_per_row {
            // Duplicate (i, j) draws are summed by the builder, preserving
            // the sorted-strictly-increasing column invariant.
            let j = rng.index(cols);
            builder.push(i, j, rng.uniform(-2.0, 2.0)).unwrap();
        }
    }
    builder.build()
}

/// A deterministic pseudo-batch of row indices (with repeats) for the
/// replay kernels.
fn batch_rows(nrows: usize, len: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng64::from_seed(seed);
    (0..len).map(|_| rng.index(nrows)).collect()
}

#[test]
fn sparse_into_variants_match_allocating_counterparts_bitwise() {
    for (case, &(n, m, nnz)) in SPARSE_SHAPES.iter().enumerate() {
        let seed = 0x5A0 + case as u64;
        let a = random_csr(n, m, nnz, seed);
        let x = random_vec(m, seed ^ 1);
        let t = random_vec(n, seed ^ 2);

        let mut out_n = vec![0.0; n];
        a.spmv_into(&x, &mut out_n).unwrap();
        assert_eq!(out_n, a.spmv(&x).unwrap().into_vec(), "spmv {n}x{m}");

        let mut out_m = vec![0.0; m];
        a.transpose_spmv_into(&t, &mut out_m).unwrap();
        assert_eq!(
            out_m,
            a.transpose_spmv(&t).unwrap().into_vec(),
            "transpose_spmv {n}x{m}"
        );

        // The batch replay kernels against their per-row counterparts
        // (bitwise on the single-chunk path; the multi-chunk reduction uses
        // a different summation tree, checked numerically below).
        let rows = batch_rows(n, (n / 2).max(3), seed ^ 3);
        let mut dots = vec![0.0; rows.len()];
        a.rows_dot_into(&rows, &x, &mut dots).unwrap();
        for (k, &i) in rows.iter().enumerate() {
            assert_eq!(dots[k], a.row_dot(i, &x).unwrap(), "rows_dot {n}x{m}");
        }
    }
}

#[test]
fn sparse_kernels_match_dense_equivalents_numerically() {
    for (case, &(n, m, nnz)) in SPARSE_SHAPES.iter().enumerate() {
        let seed = 0x5B0 + case as u64;
        let a = random_csr(n, m, nnz, seed);
        let dense = a.to_dense();
        let x = random_vec(m, seed ^ 1);
        let t = random_vec(n, seed ^ 2);
        let tol = 1e-12 * (n.max(m) as f64);

        let spmv = a.spmv(&x).unwrap();
        let dense_mv = dense.matvec(&x).unwrap();
        assert!(max_abs_diff(&spmv, &dense_mv) < tol, "spmv {n}x{m}");

        let tspmv = a.transpose_spmv(&t).unwrap();
        let dense_tmv = dense.transpose_matvec(&t).unwrap();
        assert!(
            max_abs_diff(&tspmv, &dense_tmv) < tol,
            "transpose_spmv {n}x{m}"
        );

        // scatter_rows_into == Σ_k alphas[k] · row(rows[k]), via the dense
        // selected-rows transpose-matvec.
        let rows = batch_rows(n, n, seed ^ 3);
        let alphas = random_vec(rows.len(), seed ^ 4);
        let mut acc = vec![0.0; m];
        a.scatter_rows_into(&rows, &alphas, &mut acc).unwrap();
        let selected = dense.select_rows(&rows);
        let expected = selected.transpose_matvec(&alphas).unwrap();
        assert!(max_abs_diff(&acc, &expected) < tol, "scatter_rows {n}x{m}");
    }
}

#[test]
fn sparse_results_are_bitwise_identical_across_thread_counts() {
    for level in simd_levels() {
        for (case, &(n, m, nnz)) in SPARSE_SHAPES.iter().enumerate() {
            let seed = 0x5C0 + case as u64;
            let a = random_csr(n, m, nnz, seed);
            let x = random_vec(m, seed ^ 1);
            let t = random_vec(n, seed ^ 2);
            let rows = batch_rows(n, n, seed ^ 3);
            let alphas = random_vec(rows.len(), seed ^ 4);

            let run = |threads| {
                simd::with_level(level, || {
                    par::with_threads(threads, || {
                        let mut dots = vec![0.0; rows.len()];
                        a.rows_dot_into(&rows, &x, &mut dots).unwrap();
                        let mut acc = vec![0.0; m];
                        a.scatter_rows_into(&rows, &alphas, &mut acc).unwrap();
                        (
                            a.spmv(&x).unwrap(),
                            a.transpose_spmv(&t).unwrap(),
                            dots,
                            acc,
                        )
                    })
                })
            };
            let serial = run(1);
            let parallel = run(4);
            // PartialEq on f64 containers is exact equality — the
            // determinism guarantee is bitwise, not approximate.
            assert_eq!(serial.0, parallel.0, "spmv {n}x{m} ({level})");
            assert_eq!(serial.1, parallel.1, "transpose_spmv {n}x{m} ({level})");
            assert_eq!(serial.2, parallel.2, "rows_dot {n}x{m} ({level})");
            assert_eq!(serial.3, parallel.3, "scatter_rows {n}x{m} ({level})");
        }
    }
}

/// Builds a CSR matrix with a heavy-tailed row-length distribution: a few
/// huge rows (RCV1-style frequent-feature rows) among many short ones, so
/// the nnz-balanced chunk decomposition actually separates work by nnz.
fn skewed_csr(rows: usize, cols: usize, seed: u64) -> CsrMatrix {
    let mut rng = Rng64::from_seed(seed);
    let mut builder = CooBuilder::new(rows, cols);
    for i in 0..rows {
        // Rows 0, 97, 194, … carry ~cols/2 entries; the rest carry 3.
        let nnz = if i % 97 == 0 { cols / 2 } else { 3 };
        for _ in 0..nnz {
            let j = rng.index(cols);
            builder.push(i, j, rng.uniform(-2.0, 2.0)).unwrap();
        }
    }
    builder.build()
}

#[test]
fn skewed_row_lengths_stay_bitwise_identical_and_match_dense() {
    // The nnz-balanced chunking closes the ROADMAP skew item: boundaries
    // depend on row_ptr (shape), so results must stay bitwise identical
    // across thread counts on every SIMD level, and numerically equal to
    // the dense equivalents.
    let (n, m) = (1100, 600);
    let a = skewed_csr(n, m, 0x5E0);
    let dense = a.to_dense();
    let x = random_vec(m, 0x5E1);
    let t = random_vec(n, 0x5E2);
    let tol = 1e-12 * (n.max(m) as f64);

    for level in simd_levels() {
        let run = |threads: usize| {
            simd::with_level(level, || {
                par::with_threads(threads, || {
                    (a.spmv(&x).unwrap(), a.transpose_spmv(&t).unwrap())
                })
            })
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.0, parallel.0, "skewed spmv ({level})");
        assert_eq!(serial.1, parallel.1, "skewed transpose_spmv ({level})");

        let dense_mv = dense.matvec(&x).unwrap();
        let dense_tmv = dense.transpose_matvec(&t).unwrap();
        assert!(
            max_abs_diff(&serial.0, &dense_mv) < tol,
            "skewed spmv vs dense ({level})"
        );
        assert!(
            max_abs_diff(&serial.1, &dense_tmv) < tol,
            "skewed transpose_spmv vs dense ({level})"
        );
    }
}

#[test]
fn into_variants_report_shape_mismatches() {
    let a = random_matrix(6, 4, 0xF0);
    assert!(a.matvec_into(&[0.0; 3], &mut [0.0; 6]).is_err());
    assert!(a.matvec_into(&[0.0; 4], &mut [0.0; 5]).is_err());
    assert!(a.transpose_matvec_into(&[0.0; 5], &mut [0.0; 4]).is_err());
    assert!(a.transpose_matvec_into(&[0.0; 6], &mut [0.0; 3]).is_err());
    let mut out = Matrix::zeros(0, 0);
    assert!(a.matmul_into(&random_matrix(5, 2, 0xF1), &mut out).is_err());
}
