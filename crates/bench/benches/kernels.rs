//! Micro-benchmarks of the linear-algebra substrate kernels that dominate
//! PrIU's training and update phases: matrix-vector products, weighted Gram
//! accumulation, truncated eigendecompositions, the symmetric
//! eigendecomposition and sparse matrix-vector products.
//!
//! The `(n, m)` grid compares three variants per hot kernel so regressions
//! (and the speedup of this performance layer) stay visible:
//! * `scalar` — straightforward single-thread loops without unrolling or
//!   register blocking (the pre-performance-layer shape of the kernels);
//! * `unrolled` — the production kernel pinned to one thread
//!   (`par::with_threads(1)`): unrolled/register-blocked, `_into` buffers;
//! * `parallel4` — the production kernel pinned to four threads (only
//!   faster than `unrolled` when real cores exist; on a single-core host it
//!   measures the persistent pool's hand-off overhead instead).
//!
//! The `sparse_grid` group applies the same scheme to the CSR kernel family
//! (`spmv`, `transpose_spmv`, `scatter_rows`): `scalar` per-row loops vs the
//! chunked production kernels pinned to one (`parallel1`) and four
//! (`parallel4`) threads.
//!
//! The `decomp_grid` group covers the blocked decomposition layer driving
//! PrIU-opt's offline phase and the closed-form baseline: `scalar` is the
//! pre-blocking textbook implementation (left-looking Cholesky, sequential
//! row-cyclic Jacobi); `blocked1` / `blocked4` are the production blocked
//! kernels pinned to one and four threads.
//!
//! The `eigen_grid` group is the offline-phase shoot-out: the scalar
//! row-cyclic Jacobi solver vs the two-stage tridiag + QL pipeline at
//! 64–512.
//!
//! The `eigen_update` group prices the PrIU-opt successor's two routes at
//! m = 318: the exact `eigen_into`, one rank-one update, and the `matmul`
//! that dominates the update.
//!
//! The `rank1_add` group prices a warm addition at 2000×256: one row
//! appended to the closed-form normal equations by the rank-1 update
//! (`closed_form_delta`) against a capture rebuild over every row
//! (`capture_rebuild`), each with its solve. It panics unless the rank-1
//! path wins.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use priu_linalg::decomposition::eigen::SymmetricEigen;
use priu_linalg::decomposition::{
    cholesky_factor_into, EigenScratch, GramFactor, TruncationMethod,
};
use priu_linalg::par;
use priu_linalg::sparse::CooBuilder;
use priu_linalg::{CsrMatrix, Matrix, Vector};
use priu_rng::Rng64;

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Rng64::from_seed(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.uniform(-1.0, 1.0))
}

fn random_csr(rows: usize, cols: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix {
    let mut rng = Rng64::from_seed(seed);
    let mut builder = CooBuilder::new(rows, cols);
    for i in 0..rows {
        for _ in 0..nnz_per_row {
            let j = rng.index(cols);
            builder.push(i, j, rng.uniform(0.1, 1.0)).unwrap();
        }
    }
    builder.build()
}

/// Naive single-thread reference kernels (the pre-performance-layer
/// baselines).
mod scalar {
    use priu_linalg::{CsrMatrix, Matrix};

    pub fn matvec(a: &Matrix, x: &[f64], out: &mut [f64]) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = a.row(i).iter().zip(x).map(|(r, v)| r * v).sum();
        }
    }

    pub fn transpose_matvec(a: &Matrix, x: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (j, &v) in a.row(i).iter().enumerate() {
                out[j] += xi * v;
            }
        }
    }

    pub fn weighted_gram(a: &Matrix, w: &[f64], out: &mut Matrix) {
        let m = a.ncols();
        out.reshape_zeroed(m, m);
        for (i, &wi) in w.iter().enumerate() {
            let row = a.row(i);
            for p in 0..m {
                let vp = wi * row[p];
                let out_row = &mut out.as_mut_slice()[p * m..(p + 1) * m];
                for (q, &rq) in row.iter().enumerate().skip(p) {
                    out_row[q] += vp * rq;
                }
            }
        }
        for p in 0..m {
            for q in (p + 1)..m {
                out[(q, p)] = out[(p, q)];
            }
        }
    }

    pub fn spmv(a: &CsrMatrix, x: &[f64], out: &mut [f64]) {
        for (i, slot) in out.iter_mut().enumerate() {
            let (cols, vals) = a.row(i);
            *slot = cols.iter().zip(vals.iter()).map(|(&c, &v)| v * x[c]).sum();
        }
    }

    pub fn transpose_spmv(a: &CsrMatrix, x: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let (cols, vals) = a.row(i);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                out[c] += xi * v;
            }
        }
    }

    pub fn scatter_rows(a: &CsrMatrix, rows: &[usize], alphas: &[f64], acc: &mut [f64]) {
        acc.fill(0.0);
        for (k, &i) in rows.iter().enumerate() {
            let (cols, vals) = a.row(i);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                acc[c] += alphas[k] * v;
            }
        }
    }

    /// Textbook left-looking Cholesky (the pre-blocking decomposition).
    pub fn cholesky(a: &Matrix) -> Matrix {
        let n = a.nrows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        l
    }

    /// Sequential row-cyclic Jacobi sweep (the pre-blocking eigen path).
    pub fn jacobi_eigen(a: &Matrix) -> (Vec<f64>, Matrix) {
        let n = a.nrows();
        let scale = a.max_abs().max(1.0);
        let mut m = a.clone();
        let mut q = Matrix::identity(n);
        let tol = 1e-14 * scale;
        for _sweep in 0..100 {
            let mut off = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    off += m[(i, j)] * m[(i, j)];
                }
            }
            if off.sqrt() <= tol {
                break;
            }
            for p in 0..n {
                for r in (p + 1)..n {
                    let apr = m[(p, r)];
                    if apr.abs() <= tol * 1e-2 {
                        continue;
                    }
                    let theta = (m[(r, r)] - m[(p, p)]) / (2.0 * apr);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    for k in 0..n {
                        let (mkp, mkr) = (m[(k, p)], m[(k, r)]);
                        m[(k, p)] = c * mkp - s * mkr;
                        m[(k, r)] = s * mkp + c * mkr;
                    }
                    for k in 0..n {
                        let (mpk, mrk) = (m[(p, k)], m[(r, k)]);
                        m[(p, k)] = c * mpk - s * mrk;
                        m[(r, k)] = s * mpk + c * mrk;
                    }
                    for k in 0..n {
                        let (qkp, qkr) = (q[(k, p)], q[(k, r)]);
                        q[(k, p)] = c * qkp - s * qkr;
                        q[(k, r)] = s * qkp + c * qkr;
                    }
                }
            }
        }
        ((0..n).map(|i| m[(i, i)]).collect(), q)
    }
}

/// The `(n, m)` grid: the paper's batch shapes plus the ≥1000×100 sizes the
/// speedup acceptance gate watches.
const GRID: [(usize, usize); 4] = [(200, 54), (500, 188), (1000, 100), (2000, 256)];

fn bench_kernel_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_grid");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));

    for &(n, m) in &GRID {
        let a = random_matrix(n, m, 11);
        let x: Vec<f64> = (0..m).map(|i| (i as f64).sin()).collect();
        let t: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).cos()).collect();
        let w = vec![-0.2; n];
        let mut out_n = vec![0.0; n];
        let mut out_m = vec![0.0; m];
        let mut gram = Matrix::zeros(m, m);
        let shape = format!("{n}x{m}");

        group.bench_function(BenchmarkId::new("matvec_scalar", &shape), |b| {
            b.iter(|| scalar::matvec(&a, black_box(&x), &mut out_n))
        });
        group.bench_function(BenchmarkId::new("matvec_unrolled", &shape), |b| {
            b.iter(|| par::with_threads(1, || a.matvec_into(black_box(&x), &mut out_n).unwrap()))
        });
        group.bench_function(BenchmarkId::new("matvec_parallel4", &shape), |b| {
            b.iter(|| par::with_threads(4, || a.matvec_into(black_box(&x), &mut out_n).unwrap()))
        });

        group.bench_function(BenchmarkId::new("transpose_matvec_scalar", &shape), |b| {
            b.iter(|| scalar::transpose_matvec(&a, black_box(&t), &mut out_m))
        });
        group.bench_function(BenchmarkId::new("transpose_matvec_unrolled", &shape), |b| {
            b.iter(|| {
                par::with_threads(1, || {
                    a.transpose_matvec_into(black_box(&t), &mut out_m).unwrap()
                })
            })
        });
        group.bench_function(
            BenchmarkId::new("transpose_matvec_parallel4", &shape),
            |b| {
                b.iter(|| {
                    par::with_threads(4, || {
                        a.transpose_matvec_into(black_box(&t), &mut out_m).unwrap()
                    })
                })
            },
        );

        group.bench_function(BenchmarkId::new("weighted_gram_scalar", &shape), |b| {
            b.iter(|| scalar::weighted_gram(&a, black_box(&w), &mut gram))
        });
        group.bench_function(BenchmarkId::new("weighted_gram_unrolled", &shape), |b| {
            b.iter(|| par::with_threads(1, || a.weighted_gram_into(Some(black_box(&w)), &mut gram)))
        });
        group.bench_function(BenchmarkId::new("weighted_gram_parallel4", &shape), |b| {
            b.iter(|| par::with_threads(4, || a.weighted_gram_into(Some(black_box(&w)), &mut gram)))
        });
    }
    group.finish();
}

/// The sparse `(n, m, nnz_per_row)` grid: RCV1-like shapes from
/// single-chunk batch size up to multi-chunk full-data scans. `scalar` is
/// the pre-performance-layer per-row loop; `parallel1` is the production
/// chunked kernel pinned to one thread (chunk bookkeeping overhead only);
/// `parallel4` runs the same fixed decomposition on the persistent pool
/// (only faster than `parallel1` when real cores exist — on a single-core
/// host it measures pool hand-off latency, which the persistent pool keeps
/// far below the old per-call scoped-thread spawn).
const SPARSE_GRID: [(usize, usize, usize); 3] =
    [(1000, 2000, 30), (4000, 10_000, 50), (8000, 20_000, 80)];

fn bench_sparse_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_grid");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));

    for &(n, m, nnz) in &SPARSE_GRID {
        let a = random_csr(n, m, nnz, 21);
        let x: Vec<f64> = (0..m).map(|i| (i as f64).sin()).collect();
        let t: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).cos()).collect();
        let mut out_n = vec![0.0; n];
        let mut out_m = vec![0.0; m];
        let shape = format!("{n}x{m}nnz{nnz}");

        group.bench_function(BenchmarkId::new("spmv_scalar", &shape), |b| {
            b.iter(|| scalar::spmv(&a, black_box(&x), &mut out_n))
        });
        group.bench_function(BenchmarkId::new("spmv_parallel1", &shape), |b| {
            b.iter(|| par::with_threads(1, || a.spmv_into(black_box(&x), &mut out_n).unwrap()))
        });
        group.bench_function(BenchmarkId::new("spmv_parallel4", &shape), |b| {
            b.iter(|| par::with_threads(4, || a.spmv_into(black_box(&x), &mut out_n).unwrap()))
        });

        group.bench_function(BenchmarkId::new("transpose_spmv_scalar", &shape), |b| {
            b.iter(|| scalar::transpose_spmv(&a, black_box(&t), &mut out_m))
        });
        group.bench_function(BenchmarkId::new("transpose_spmv_parallel1", &shape), |b| {
            b.iter(|| {
                par::with_threads(1, || {
                    a.transpose_spmv_into(black_box(&t), &mut out_m).unwrap()
                })
            })
        });
        group.bench_function(BenchmarkId::new("transpose_spmv_parallel4", &shape), |b| {
            b.iter(|| {
                par::with_threads(4, || {
                    a.transpose_spmv_into(black_box(&t), &mut out_m).unwrap()
                })
            })
        });

        // The replay-loop scatter at a full-data batch (the sparse PrIU
        // gradient update).
        let rows: Vec<usize> = (0..n).collect();
        let alphas = vec![0.3; n];
        group.bench_function(BenchmarkId::new("scatter_rows_scalar", &shape), |b| {
            b.iter(|| scalar::scatter_rows(&a, black_box(&rows), &alphas, &mut out_m))
        });
        group.bench_function(BenchmarkId::new("scatter_rows_parallel1", &shape), |b| {
            b.iter(|| {
                par::with_threads(1, || {
                    out_m.fill(0.0);
                    a.scatter_rows_into(black_box(&rows), &alphas, &mut out_m)
                        .unwrap()
                })
            })
        });
        group.bench_function(BenchmarkId::new("scatter_rows_parallel4", &shape), |b| {
            b.iter(|| {
                par::with_threads(4, || {
                    out_m.fill(0.0);
                    a.scatter_rows_into(black_box(&rows), &alphas, &mut out_m)
                        .unwrap()
                })
            })
        });
    }
    group.finish();
}

/// SPD / symmetric sizes for the decomposition grid. Cholesky reaches the
/// 512×512 acceptance shape; the Jacobi eigen sizes stay smaller because a
/// single factorisation is Θ(n³) *per sweep*.
const CHOL_SIZES: [usize; 3] = [128, 256, 512];
const EIG_SIZES: [usize; 3] = [54, 96, 128];

fn bench_decomp_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("decomp_grid");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));

    for &n in &CHOL_SIZES {
        let b = random_matrix(n, n, 31);
        let mut a = b.gram();
        a.add_diagonal_mut(n as f64).unwrap();
        let mut l = Matrix::zeros(n, n);
        let shape = format!("{n}x{n}");

        group.bench_function(BenchmarkId::new("cholesky_scalar", &shape), |bench| {
            bench.iter(|| scalar::cholesky(black_box(&a)))
        });
        group.bench_function(BenchmarkId::new("cholesky_blocked1", &shape), |bench| {
            bench.iter(|| par::with_threads(1, || cholesky_factor_into(black_box(&a), &mut l)))
        });
        group.bench_function(BenchmarkId::new("cholesky_blocked4", &shape), |bench| {
            bench.iter(|| par::with_threads(4, || cholesky_factor_into(black_box(&a), &mut l)))
        });
    }

    for &n in &EIG_SIZES {
        let sym = random_matrix(n, n, 32).gram();
        let mut scratch = EigenScratch::default();
        let shape = format!("{n}x{n}");

        group.bench_function(BenchmarkId::new("eigen_scalar", &shape), |bench| {
            bench.iter(|| scalar::jacobi_eigen(black_box(&sym)))
        });
        group.bench_function(BenchmarkId::new("eigen_blocked1", &shape), |bench| {
            bench.iter(|| {
                par::with_threads(1, || {
                    SymmetricEigen::new_with(black_box(&sym), &mut scratch).unwrap()
                })
            })
        });
        group.bench_function(BenchmarkId::new("eigen_blocked4", &shape), |bench| {
            bench.iter(|| {
                par::with_threads(4, || {
                    SymmetricEigen::new_with(black_box(&sym), &mut scratch).unwrap()
                })
            })
        });
    }

    group.finish();
}

/// The offline-phase shoot-out: the scalar row-cyclic Jacobi solver vs the
/// tridiag + QL pipeline on the same symmetric inputs, up to the 512×512
/// acceptance shape (Jacobi is Θ(n³) *per sweep* there — that is the point).
const EIGEN_GRID_SIZES: [usize; 4] = [64, 128, 256, 512];

fn bench_eigen_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("eigen_grid");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(2));

    let mut scratch = EigenScratch::default();
    for &n in &EIGEN_GRID_SIZES {
        let sym = random_matrix(n, n, 34).gram();
        let shape = format!("{n}x{n}");

        group.bench_function(BenchmarkId::new("jacobi1", &shape), |bench| {
            bench.iter(|| scalar::jacobi_eigen(black_box(&sym)))
        });
        group.bench_function(BenchmarkId::new("tridiag_ql1", &shape), |bench| {
            bench.iter(|| {
                par::with_threads(1, || {
                    SymmetricEigen::new_with(black_box(&sym), &mut scratch).unwrap()
                })
            })
        });
        group.bench_function(BenchmarkId::new("tridiag_ql4", &shape), |bench| {
            bench.iter(|| {
                par::with_threads(4, || {
                    SymmetricEigen::new_with(black_box(&sym), &mut scratch).unwrap()
                })
            })
        });
    }
    group.finish();
}

/// The successor eigenbasis at the `clean-linear` shape: the 318×318 Gram
/// of a 2000×318 matrix with every fifth row scaled ×10. `eigen_into` is
/// the exact re-decomposition, `eigen_update_rank1` one rank-one downdate
/// of its pairs by a scaled row (what a single-row delete costs), and
/// `matmul` the update's dominant `V·U` product at that size.
fn bench_eigen_update(c: &mut Criterion) {
    use priu_linalg::decomposition::{eigen_into, eigen_update_into, EigenUpdateScratch};

    let mut group = c.benchmark_group("eigen_update");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(2));

    let mut rows = random_matrix(2000, 318, 35);
    for i in (0..2000).step_by(5) {
        for v in rows.row_mut(i) {
            *v *= 10.0;
        }
    }
    let gram = rows.gram();
    let mut scratch = EigenScratch::default();
    let eig = SymmetricEigen::new_with(&gram, &mut scratch).unwrap();
    let mut update = EigenUpdateScratch::default();
    let mut product = Matrix::zeros(0, 0);

    group.bench_function(BenchmarkId::new("eigen_into", "318"), |bench| {
        bench.iter(|| eigen_into(black_box(&gram), &mut scratch).unwrap())
    });
    group.bench_function(BenchmarkId::new("eigen_update_rank1", "318"), |bench| {
        bench.iter(|| {
            let values = eig.values.as_slice();
            eigen_update_into(
                values,
                &eig.vectors,
                black_box(rows.row(5)),
                -1.0,
                &mut update,
            )
            .unwrap()
        })
    });
    group.bench_function(BenchmarkId::new("matmul", "318"), |bench| {
        bench.iter(|| {
            eig.vectors
                .matmul_into(black_box(&eig.vectors), &mut product)
                .unwrap()
        })
    });
    group.finish();
}

/// The SIMD microkernel grid: every dot/axpy-class kernel at the
/// acceptance shapes, pinned to one thread, compared across `PRIU_SIMD`
/// levels — `portable` is the unrolled 4-lane scalar path, `avx2` the
/// explicit AVX2+FMA path (skipped when the host lacks the features).
/// Sparse rows compare the gather-dot and fused-scatter paths at an
/// RCV1-like shape.
const SIMD_GRID: [(usize, usize); 3] = [(500, 188), (1000, 100), (2000, 256)];

fn bench_simd_grid(c: &mut Criterion) {
    use priu_linalg::simd::{self, SimdLevel};

    let mut group = c.benchmark_group("simd_grid");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));

    let mut levels = vec![(SimdLevel::Portable, "portable")];
    if simd::avx2_supported() {
        levels.push((SimdLevel::Avx2, "avx2"));
    } else {
        eprintln!("simd_grid: AVX2+FMA unavailable, benching the portable level only");
    }

    for &(n, m) in &SIMD_GRID {
        let a = random_matrix(n, m, 41);
        let x: Vec<f64> = (0..m).map(|i| (i as f64).sin()).collect();
        let w = vec![-0.2; n];
        let flat_b: Vec<f64> = (0..n * m).map(|i| (i as f64 * 0.001).cos()).collect();
        let mut out_n = vec![0.0; n];
        let mut out_flat = vec![0.0; n * m];
        let mut gram = Matrix::zeros(m, m);
        let shape = format!("{n}x{m}");

        for &(level, name) in &levels {
            // The dot-class workload at this shape: one length-m row dot
            // per matrix row into its own output slot (the matvec inner
            // kernel without the 4-row fusion — exactly how row dots are
            // consumed in production). Not one giant flattened dot, which
            // no code path performs, and no serial accumulator across
            // rows, which would add a dependency real callers don't have.
            group.bench_function(BenchmarkId::new(format!("dot_{name}"), &shape), |b| {
                b.iter(|| {
                    simd::with_level(level, || {
                        for (i, slot) in out_n.iter_mut().enumerate() {
                            *slot = simd::dot(black_box(a.row(i)), black_box(&x));
                        }
                    })
                })
            });
            group.bench_function(BenchmarkId::new(format!("matvec_{name}"), &shape), |b| {
                b.iter(|| {
                    simd::with_level(level, || {
                        par::with_threads(1, || a.matvec_into(black_box(&x), &mut out_n).unwrap())
                    })
                })
            });
            group.bench_function(BenchmarkId::new(format!("axpy_{name}"), &shape), |b| {
                b.iter(|| {
                    simd::with_level(level, || {
                        priu_linalg::axpy_slices(&mut out_flat, 1.0001, black_box(&flat_b))
                    })
                })
            });
            group.bench_function(BenchmarkId::new(format!("scale_add_{name}"), &shape), |b| {
                b.iter(|| {
                    simd::with_level(level, || {
                        priu_linalg::scale_add_slices(
                            &mut out_flat,
                            0.9999,
                            0.0001,
                            black_box(&flat_b),
                        )
                    })
                })
            });
            group.bench_function(
                BenchmarkId::new(format!("weighted_gram_{name}"), &shape),
                |b| {
                    b.iter(|| {
                        simd::with_level(level, || {
                            par::with_threads(1, || {
                                a.weighted_gram_into(Some(black_box(&w)), &mut gram)
                            })
                        })
                    })
                },
            );
        }
    }

    // Sparse gather-dot / scatter at an RCV1-like shape.
    let (sn, sm, snnz) = (4000usize, 10_000usize, 50usize);
    let sp = random_csr(sn, sm, snnz, 43);
    let sx: Vec<f64> = (0..sm).map(|i| (i as f64).sin()).collect();
    let st: Vec<f64> = (0..sn).map(|i| (i as f64 * 0.1).cos()).collect();
    let mut s_out_n = vec![0.0; sn];
    let mut s_out_m = vec![0.0; sm];
    let sshape = format!("{sn}x{sm}nnz{snnz}");
    for &(level, name) in &levels {
        group.bench_function(BenchmarkId::new(format!("spmv_{name}"), &sshape), |b| {
            b.iter(|| {
                simd::with_level(level, || {
                    par::with_threads(1, || sp.spmv_into(black_box(&sx), &mut s_out_n).unwrap())
                })
            })
        });
        group.bench_function(
            BenchmarkId::new(format!("transpose_spmv_{name}"), &sshape),
            |b| {
                b.iter(|| {
                    simd::with_level(level, || {
                        par::with_threads(1, || {
                            sp.transpose_spmv_into(black_box(&st), &mut s_out_m)
                                .unwrap()
                        })
                    })
                })
            },
        );
    }
    group.finish();
}

/// Rank-1 addition against a capture rebuild: appending one row to a
/// 2000×256 closed-form capture through the rank-1 Gram update (+ factor
/// and solve) versus recomputing `XᵀX`/`XᵀY` over all 2001 rows (+ factor
/// and solve).
/// The ratio is what makes warm additions serveable online, so when both
/// rows ran the group panics unless the rank-1 path's best sample beats
/// the rebuild's.
fn bench_rank1_add(c: &mut Criterion) {
    use priu_core::baseline::closed_form::{
        closed_form_delta_with, closed_form_full, ClosedFormCapture,
    };
    use priu_core::Workspace;
    use priu_data::dataset::{DenseDataset, Labels};
    use priu_data::synthetic::regression::{generate_regression, RegressionConfig};

    const N: usize = 2000;
    const M: usize = 256;
    let data = generate_regression(&RegressionConfig {
        num_samples: N,
        num_features: M,
        noise_std: 0.1,
        seed: 0x8801,
        ..Default::default()
    });
    let capture = ClosedFormCapture::build(&data, 0.05).unwrap();
    let row: Vec<f64> = (0..M)
        .map(|i| ((i * 37 + 11) % 97) as f64 / 97.0 - 0.5)
        .collect();
    let added = DenseDataset::new(
        Matrix::from_vec(1, M, row).unwrap(),
        Labels::Continuous(Vector::from_vec(vec![0.75])),
    );
    let mut appended = data.clone();
    appended.append(&added).unwrap();
    let mut ws = Workspace::new();

    let mut group = c.benchmark_group("rank1_add");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));
    let shape = format!("{N}x{M}");
    let mut rank1_best = f64::INFINITY;
    group.bench_function(BenchmarkId::new("closed_form_delta", &shape), |b| {
        b.iter(|| {
            let t0 = Instant::now();
            let model = closed_form_delta_with(
                &data,
                &capture.normal,
                capture.regularization,
                &[],
                Some(&added),
                &mut ws,
            )
            .unwrap();
            rank1_best = rank1_best.min(t0.elapsed().as_secs_f64());
            model
        })
    });
    let mut rebuild_best = f64::INFINITY;
    group.bench_function(BenchmarkId::new("capture_rebuild", &shape), |b| {
        b.iter(|| {
            let t0 = Instant::now();
            let rebuilt = ClosedFormCapture::build(black_box(&appended), 0.05).unwrap();
            let model = closed_form_full(&rebuilt).unwrap();
            rebuild_best = rebuild_best.min(t0.elapsed().as_secs_f64());
            model
        })
    });
    group.finish();

    // A filter may have skipped either row; compare only when both ran.
    if rank1_best.is_finite() && rebuild_best.is_finite() {
        let speedup = rebuild_best / rank1_best;
        println!("rank1_add speedup (best rebuild / best rank-1): {speedup:.1}x");
        assert!(
            speedup > 1.0,
            "rank-1 addition ({rank1_best:e} s) is no faster than a capture rebuild \
             ({rebuild_best:e} s)"
        );
    }
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg_kernels");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(2));

    // Dense matvec at the batch sizes PrIU uses.
    for &(rows, cols) in &[(200usize, 54usize), (500, 188)] {
        let a = random_matrix(rows, cols, 1);
        let x = Vector::from_fn(cols, |i| (i as f64).sin());
        group.bench_with_input(
            BenchmarkId::new("matvec", format!("{rows}x{cols}")),
            &a,
            |b, a| b.iter(|| a.matvec(black_box(&x)).unwrap()),
        );
    }

    // Weighted Gram accumulation (the provenance-capture kernel).
    let batch = random_matrix(200, 54, 2);
    let weights = vec![-0.2; 200];
    group.bench_function("weighted_gram_200x54", |b| {
        b.iter(|| batch.weighted_gram(Some(black_box(&weights))))
    });

    // Truncated eigendecompositions of a Gram factor.
    let factor_rows = random_matrix(500, 188, 3);
    group.bench_function("truncated_exact_rank16_500x188", |b| {
        b.iter(|| {
            GramFactor::unweighted(factor_rows.clone())
                .truncate(16, TruncationMethod::Exact)
                .unwrap()
        })
    });
    group.bench_function("truncated_randomized_rank16_500x188", |b| {
        b.iter(|| {
            GramFactor::unweighted(factor_rows.clone())
                .truncate(
                    16,
                    TruncationMethod::Randomized {
                        oversample: 8,
                        seed: 3,
                    },
                )
                .unwrap()
        })
    });

    // Symmetric eigendecomposition (PrIU-opt offline step). The id predates
    // the tridiag + QL pipeline; it is kept so earlier runs stay comparable.
    let sym = {
        let base = random_matrix(54, 54, 4);
        base.gram()
    };
    group.bench_function("jacobi_eigen_54x54", |b| {
        b.iter(|| SymmetricEigen::new(black_box(&sym)).unwrap())
    });

    // Sparse matvec at RCV1-like density.
    let sparse = {
        let mut rng = Rng64::from_seed(5);
        let mut builder = CooBuilder::new(1000, 2000);
        for i in 0..1000 {
            for _ in 0..30 {
                let j = rng.index(2000);
                builder.push(i, j, rng.uniform(0.1, 1.0)).unwrap();
            }
        }
        builder.build()
    };
    let xs = Vector::from_fn(2000, |i| (i as f64 * 0.01).cos());
    group.bench_function("csr_spmv_1000x2000_nnz30", |b| {
        b.iter(|| sparse.spmv(black_box(&xs)).unwrap())
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_kernel_grid,
    bench_sparse_grid,
    bench_decomp_grid,
    bench_eigen_grid,
    bench_eigen_update,
    bench_simd_grid,
    bench_rank1_add,
    bench_kernels
);
criterion_main!(benches);
