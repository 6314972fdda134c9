//! Torture suite for the blocked decomposition layer: seeded-random
//! SPD / symmetric / rectangular grids up to 512×512 asserting
//!
//! * **reconstruction** — `L·Lᵀ ≈ A`, `Q·R ≈ A`, `V·Λ·Vᵀ ≈ A`;
//! * **orthogonality** — `QᵀQ ≈ I` (QR) and `VᵀV ≈ I` (eigen);
//! * **bitwise equality of the scalar, blocked and pool paths** — the
//!   plain-loop scalar references produce the *same bits* as the blocked
//!   kernels, under `PRIU_THREADS ∈ {1, 4}` pinned per call via
//!   `par::with_threads` (for the Jacobi fallback the scalar reference is an
//!   independent plain-loop reimplementation of the documented round-robin
//!   schedule — same tree, zero shared code with the chunked production
//!   path; the default tridiag + QL pipeline checks `eigen_scalar_into`
//!   against the pool path, and the Jacobi fallback numerically);
//! * **edge cases** — 1×1, panel/chunk-boundary sizes, ill-conditioned
//!   inputs (typed error or finite factor, never a NaN factor), and
//!   non-SPD rejection with the failing pivot index on every path.
//!
//! Sizes deliberately straddle the blocked-Cholesky panel width (64) and
//! the parallel chunk minima, so the suite exercises the inline
//! single-chunk path *and* the persistent-pool multi-chunk path of every
//! decomposition.

use priu_linalg::decomposition::{
    cholesky_factor_into, cholesky_factor_scalar_into, cholesky_solve_into, cholesky_update_into,
    cholesky_update_rank_k_into, cholesky_update_scalar_into, eigen_into, eigen_scalar_into,
    qr_factor_into, qr_factor_per_reflector_into, qr_factor_scalar_into, tridiag_factor_into,
    tridiag_factor_scalar_into, with_eigen_method, Cholesky, EigenMethod, EigenScratch, Qr,
    QrScratch, SymmetricEigen, TridiagScratch, QR_WY_MIN_COLS,
};
use priu_linalg::{par, simd, LinalgError, Matrix, Vector};
use priu_rng::Rng64;

/// The SIMD levels this host can execute — every bitwise assertion runs
/// under each, because the Avx2 level fuses multiply-adds (different bits,
/// same per-level guarantee).
fn simd_levels() -> Vec<simd::SimdLevel> {
    simd::available_levels()
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Rng64::from_seed(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.uniform(-1.0, 1.0))
}

/// A well-conditioned SPD matrix `BᵀB + n·I`.
fn random_spd(n: usize, seed: u64) -> Matrix {
    let b = random_matrix(n, n, seed);
    let mut a = b.gram();
    a.add_diagonal_mut(n as f64).unwrap();
    a
}

/// A random symmetric (indefinite) matrix `(B + Bᵀ) / 2`.
fn random_symmetric(n: usize, seed: u64) -> Matrix {
    let b = random_matrix(n, n, seed);
    Matrix::from_fn(n, n, |i, j| 0.5 * (b[(i, j)] + b[(j, i)]))
}

fn max_abs_diff(a: &Matrix, b: &Matrix) -> f64 {
    assert_eq!(a.shape(), b.shape());
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .fold(0.0_f64, |acc, (x, y)| acc.max((x - y).abs()))
}

// ---------------------------------------------------------------------------
// Cholesky
// ---------------------------------------------------------------------------

/// Sizes straddling the 64-column panel and the 128-row chunk minimum,
/// up to the 512×512 acceptance shape.
const SPD_SIZES: [usize; 9] = [1, 2, 63, 64, 65, 127, 129, 256, 512];

/// Independent textbook left-looking loop — validates that the exported
/// scalar reference *and* the blocked kernel realise the documented chain.
/// The single shared piece is the per-element `acc − a·b` op
/// ([`simd::fnma`]), which *is* the thing whose rounding the SIMD level
/// controls: mul-then-sub on the portable level, fused on the Avx2 level.
fn textbook_cholesky(a: &Matrix) -> Matrix {
    let n = a.nrows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum = simd::fnma(sum, l[(i, k)], l[(j, k)]);
            }
            if i == j {
                assert!(sum > 0.0, "textbook reference hit a non-SPD pivot");
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    l
}

#[test]
fn cholesky_scalar_blocked_and_pool_paths_are_bitwise_identical() {
    let mut blocked = Matrix::zeros(0, 0);
    let mut scalar = Matrix::zeros(0, 0);
    for level in simd_levels() {
        simd::with_level(level, || {
            for (case, &n) in SPD_SIZES.iter().enumerate() {
                let a = random_spd(n, 0x10 + case as u64);
                cholesky_factor_scalar_into(&a, &mut scalar).unwrap();
                assert_eq!(
                    scalar,
                    textbook_cholesky(&a),
                    "scalar vs textbook n={n} ({level})"
                );
                for threads in [1usize, 4] {
                    par::with_threads(threads, || cholesky_factor_into(&a, &mut blocked).unwrap());
                    assert_eq!(
                        blocked, scalar,
                        "blocked({threads} threads) vs scalar n={n} ({level})"
                    );
                }
                // The allocating wrapper rides the same kernel.
                assert_eq!(*Cholesky::new(&a).unwrap().factor(), scalar, "n={n}");
            }
        });
    }
}

#[test]
fn cholesky_reconstructs_and_solves() {
    let mut l = Matrix::zeros(0, 0);
    for (case, &n) in SPD_SIZES.iter().enumerate() {
        let a = random_spd(n, 0x30 + case as u64);
        cholesky_factor_into(&a, &mut l).unwrap();
        assert!(l.is_finite(), "n={n}");
        let rec = l.matmul(&l.transpose()).unwrap();
        let tol = 1e-11 * (n as f64) * a.max_abs();
        assert!(
            max_abs_diff(&rec, &a) < tol,
            "L·Lᵀ reconstruction n={n}: {} >= {tol}",
            max_abs_diff(&rec, &a)
        );

        // Solve round-trip through the in-place `_into` substitution.
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 0.1).collect();
        let b = a.matvec(&x_true).unwrap();
        let mut x = vec![0.0; n];
        cholesky_solve_into(&l, &b, &mut x).unwrap();
        let worst = x
            .iter()
            .zip(&x_true)
            .fold(0.0_f64, |acc, (got, want)| acc.max((got - want).abs()));
        assert!(worst < 1e-8 * (n as f64).max(1.0), "solve n={n}: {worst}");
    }
}

#[test]
fn cholesky_rejects_non_spd_with_pivot_index_on_every_path() {
    // Indefinite: definiteness is lost at pivot 2 (the leading 2×2 block is
    // fine, the third pivot is driven negative).
    let mut a = random_spd(5, 0x50);
    a[(2, 2)] = -100.0;
    for i in 0..5 {
        let v = 0.5 * (a[(2, i)] + a[(i, 2)]);
        a[(2, i)] = v;
        a[(i, 2)] = v;
    }
    a[(2, 2)] = -100.0;
    let mut l = Matrix::zeros(0, 0);
    for threads in [1usize, 4] {
        let blocked = par::with_threads(threads, || cholesky_factor_into(&a, &mut l));
        assert!(
            matches!(
                blocked,
                Err(LinalgError::NotPositiveDefinite { pivot: 2, .. })
            ),
            "blocked({threads}) must name pivot 2, got {blocked:?}"
        );
    }
    assert!(matches!(
        cholesky_factor_scalar_into(&a, &mut l),
        Err(LinalgError::NotPositiveDefinite { pivot: 2, .. })
    ));

    // Pivot index survives past the first panel (failure at index 70 > 64).
    let n = 80;
    let mut late = random_spd(n, 0x51);
    // Make row/column 70 a duplicate of row 3 with a strictly smaller
    // diagonal: the Schur complement at pivot 70 is forced below zero.
    for i in 0..n {
        let v = late[(3, i)];
        late[(70, i)] = v;
        late[(i, 70)] = v;
    }
    late[(70, 70)] = late[(3, 3)] - 1.0;
    let result = cholesky_factor_into(&late, &mut l);
    match result {
        Err(LinalgError::NotPositiveDefinite { pivot, .. }) => {
            assert_eq!(pivot, 70, "failure must name the duplicated pivot")
        }
        other => panic!("expected a typed non-SPD error, got {other:?}"),
    }
    let scalar = cholesky_factor_scalar_into(&late, &mut l);
    assert!(matches!(
        scalar,
        Err(LinalgError::NotPositiveDefinite { pivot: 70, .. })
    ));

    // NaN poisoning is reported as the typed error, never a NaN factor.
    let mut poisoned = random_spd(65, 0x52);
    poisoned[(64, 64)] = f64::NAN;
    assert!(matches!(
        cholesky_factor_into(&poisoned, &mut l),
        Err(LinalgError::NotPositiveDefinite { pivot: 64, .. })
    ));
}

#[test]
fn cholesky_survives_ill_conditioning_without_nans() {
    // BᵀB for a rank-deficient-ish B plus a tiny ridge: condition number
    // ~1e12. The factorisation must either succeed with a finite factor or
    // fail with the typed error — never return NaNs or panic.
    let n = 96;
    let thin = random_matrix(n, 3, 0x60);
    let mut a = thin.matmul(&thin.transpose()).unwrap(); // rank 3, PSD
    a.add_diagonal_mut(1e-10).unwrap();
    let mut l = Matrix::zeros(0, 0);
    match cholesky_factor_into(&a, &mut l) {
        Ok(()) => {
            assert!(l.is_finite());
            let rec = l.matmul(&l.transpose()).unwrap();
            assert!(max_abs_diff(&rec, &a) < 1e-8 * a.max_abs().max(1.0));
        }
        Err(LinalgError::NotPositiveDefinite { .. }) => {}
        Err(other) => panic!("unexpected error kind: {other:?}"),
    }
    // Whatever the outcome, scalar and blocked agree on it bitwise.
    let mut scalar = Matrix::zeros(0, 0);
    let blocked_result = cholesky_factor_into(&a, &mut l);
    let scalar_result = cholesky_factor_scalar_into(&a, &mut scalar);
    match (blocked_result, scalar_result) {
        (Ok(()), Ok(())) => assert_eq!(l, scalar),
        (Err(e1), Err(e2)) => assert_eq!(e1, e2),
        (b, s) => panic!("paths disagree: blocked {b:?} vs scalar {s:?}"),
    }
}

// ---------------------------------------------------------------------------
// QR
// ---------------------------------------------------------------------------

/// (rows, cols) straddling the column-chunk minimum (64) and the row-chunk
/// minimum (256), up to the 512-row acceptance shape.
const QR_SHAPES: [(usize, usize); 8] = [
    (1, 1),
    (7, 3),
    (64, 33),
    (129, 64),
    (257, 19),
    (300, 129),
    (512, 128),
    (512, 257),
];

#[test]
fn qr_scalar_blocked_and_pool_paths_are_bitwise_identical() {
    let mut scratch = QrScratch::default();
    let (mut qs, mut rs) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let (mut qb, mut rb) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    for level in simd_levels() {
        simd::with_level(level, || {
            for (case, &(n, m)) in QR_SHAPES.iter().enumerate() {
                let a = random_matrix(n, m, 0x70 + case as u64);
                qr_factor_scalar_into(&a, &mut qs, &mut rs, &mut scratch).unwrap();
                for threads in [1usize, 4] {
                    par::with_threads(threads, || {
                        qr_factor_into(&a, &mut qb, &mut rb, &mut scratch).unwrap()
                    });
                    assert_eq!(qb, qs, "Q blocked({threads}) vs scalar {n}x{m} ({level})");
                    assert_eq!(rb, rs, "R blocked({threads}) vs scalar {n}x{m} ({level})");
                }
                let qr = Qr::new(&a).unwrap();
                assert_eq!(*qr.q(), qs, "{n}x{m}");
                assert_eq!(*qr.r(), rs, "{n}x{m}");
            }
        });
    }
}

#[test]
fn qr_reconstructs_with_orthonormal_q_and_triangular_r() {
    let mut scratch = QrScratch::default();
    let (mut q, mut r) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    for (case, &(n, m)) in QR_SHAPES.iter().enumerate() {
        let a = random_matrix(n, m, 0x90 + case as u64);
        qr_factor_into(&a, &mut q, &mut r, &mut scratch).unwrap();
        let tol = 1e-12 * (n as f64);

        let rec = q.matmul(&r).unwrap();
        assert!(
            max_abs_diff(&rec, &a) < tol,
            "Q·R reconstruction {n}x{m}: {}",
            max_abs_diff(&rec, &a)
        );

        let qtq = q.transpose().matmul(&q).unwrap();
        assert!(
            max_abs_diff(&qtq, &Matrix::identity(m)) < tol,
            "QᵀQ orthogonality {n}x{m}"
        );

        for i in 0..m {
            for j in 0..i {
                assert!(r[(i, j)].abs() < 1e-12, "R lower triangle {n}x{m}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Eigen
// ---------------------------------------------------------------------------

/// Sizes straddling the 8-pair chunk minimum (multi-chunk from n = 32) —
/// kept ≤ 192 because every Jacobi factorisation is Θ(n³) *per sweep* and
/// the suite runs each case on three paths.
const EIGEN_SIZES: [usize; 7] = [1, 2, 5, 31, 33, 64, 192];

/// Independent plain-loop reimplementation of the documented round-robin
/// Jacobi tree (module docs of `priu_linalg::decomposition::eigen`): same
/// schedule, rotation formulas, thresholds and sort — zero shared code with
/// the chunked production path. Bitwise agreement here proves the chunk /
/// pool machinery never alters the computation tree.
fn reference_round_robin_eigen(a: &Matrix) -> (Vec<f64>, Matrix) {
    let n = a.nrows();
    let scale = a.max_abs().max(1.0);
    let tol = 1e-14 * scale;
    let skip_tol = tol * 1e-2;
    let mut m = Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
    let mut qt = Matrix::identity(n);
    let big_n = n + (n & 1);

    let off = |m: &Matrix| {
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m[(i, j)] * m[(i, j)];
            }
        }
        off.sqrt()
    };

    for _sweep in 0..100 {
        if off(&m) <= tol {
            break;
        }
        for t in 0..big_n.saturating_sub(1) {
            let last = big_n - 1;
            // Collect the round's rotations from the round-start matrix.
            let mut rots: Vec<(usize, usize, f64, f64)> = Vec::new();
            for k in 0..big_n / 2 {
                let (x, y) = if k == 0 {
                    (last, t % last)
                } else {
                    ((t + k) % last, (t + last - k) % last)
                };
                let (p, r) = (x.min(y), x.max(y));
                if r >= n {
                    continue;
                }
                let apr = m[(p, r)];
                if apr.abs() <= skip_tol {
                    continue;
                }
                let (app, arr) = (m[(p, p)], m[(r, r)]);
                let theta = (arr - app) / (2.0 * apr);
                let tan = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + tan * tan).sqrt();
                rots.push((p, r, c, tan * c));
            }
            // Row pass, column pass, accumulator pass — pairs disjoint.
            for &(p, r, c, s) in &rots {
                for k in 0..n {
                    let (x, y) = (m[(p, k)], m[(r, k)]);
                    m[(p, k)] = c * x - s * y;
                    m[(r, k)] = s * x + c * y;
                }
            }
            for &(p, r, c, s) in &rots {
                for k in 0..n {
                    let (x, y) = (m[(k, p)], m[(k, r)]);
                    m[(k, p)] = c * x - s * y;
                    m[(k, r)] = s * x + c * y;
                }
            }
            for &(p, r, c, s) in &rots {
                for k in 0..n {
                    let (x, y) = (qt[(p, k)], qt[(r, k)]);
                    qt[(p, k)] = c * x - s * y;
                    qt[(r, k)] = s * x + c * y;
                }
            }
        }
    }
    let diag: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_unstable_by(|&i, &j| diag[j].partial_cmp(&diag[i]).unwrap());
    let values: Vec<f64> = idx.iter().map(|&i| diag[i]).collect();
    let vectors = Matrix::from_fn(n, n, |i, j| qt[(idx[j], i)]);
    (values, vectors)
}

#[test]
fn eigen_scalar_blocked_and_pool_paths_are_bitwise_identical() {
    // The rotation microkernel is deliberately FMA-free, so the plain-loop
    // reference (computed once, outside any level override) must match the
    // production path bitwise on *every* SIMD level — eigenpairs are
    // level-invariant, not merely level-consistent. Pinned to the Jacobi
    // fallback: the reference reimplements the round-robin schedule, not the
    // (default) tridiag + QL pipeline, which has its own parity suite below.
    let mut scratch = EigenScratch::default();
    with_eigen_method(EigenMethod::Jacobi, || {
        for (case, &n) in EIGEN_SIZES.iter().enumerate() {
            let a = random_symmetric(n, 0xB0 + case as u64);
            let (ref_values, ref_vectors) = reference_round_robin_eigen(&a);
            for level in simd_levels() {
                simd::with_level(level, || {
                    for threads in [1usize, 4] {
                        let eig = par::with_threads(threads, || {
                            SymmetricEigen::new_with(&a, &mut scratch)
                        })
                        .unwrap();
                        assert_eq!(
                            eig.values.as_slice(),
                            &ref_values[..],
                            "eigenvalues blocked({threads}) vs scalar reference n={n} ({level})"
                        );
                        assert_eq!(
                            eig.vectors, ref_vectors,
                            "eigenvectors blocked({threads}) vs scalar reference n={n} ({level})"
                        );
                    }
                });
            }
        }
    });
}

#[test]
fn eigen_reconstructs_with_orthonormal_vectors() {
    // Includes a 256 case (pool path at scale) checked for the spectral
    // properties only — the O(n³)-per-sweep reference would dominate the
    // suite's runtime there.
    let mut scratch = EigenScratch::default();
    for (case, &n) in [5usize, 33, 64, 192, 256].iter().enumerate() {
        let a = random_symmetric(n, 0xD0 + case as u64);
        let serial = par::with_threads(1, || SymmetricEigen::new_with(&a, &mut scratch)).unwrap();
        let pooled = par::with_threads(4, || SymmetricEigen::new_with(&a, &mut scratch)).unwrap();
        assert_eq!(serial.values, pooled.values, "n={n}");
        assert_eq!(serial.vectors, pooled.vectors, "n={n}");

        let tol = 1e-10 * (n as f64).max(1.0);
        let rec = serial.reconstruct();
        assert!(
            max_abs_diff(&rec, &a) < tol,
            "V·Λ·Vᵀ reconstruction n={n}: {}",
            max_abs_diff(&rec, &a)
        );
        let vtv = serial.vectors.transpose().matmul(&serial.vectors).unwrap();
        assert!(
            max_abs_diff(&vtv, &Matrix::identity(n)) < tol,
            "VᵀV orthogonality n={n}"
        );
        // Eigenvalues are sorted descending.
        for w in serial.values.as_slice().windows(2) {
            assert!(w[0] >= w[1], "descending order n={n}");
        }
    }
}

#[test]
fn eigen_of_spd_gram_matches_cholesky_determinant() {
    // Cross-decomposition consistency on one mid-sized SPD matrix: the
    // product of eigenvalues equals det(A) computed from the Cholesky
    // factor (via log-determinants, which are robust at this scale).
    let a = random_spd(65, 0xE0);
    let eig = SymmetricEigen::new(&a).unwrap();
    let chol = Cholesky::new(&a).unwrap();
    let log_det_eig: f64 = eig.values.as_slice().iter().map(|v| v.ln()).sum();
    let log_det_chol = chol.log_determinant();
    assert!(
        (log_det_eig - log_det_chol).abs() < 1e-8 * log_det_chol.abs().max(1.0),
        "log-det: eigen {log_det_eig} vs cholesky {log_det_chol}"
    );
}

#[test]
fn decompositions_compose_under_nested_parallel_sections() {
    // A decomposition invoked from inside a `with_threads` override and a
    // second one nested behind it must still match the scalar references
    // bitwise (the pool runs nested kernels inline on worker threads).
    let a = random_spd(150, 0xF0);
    let sym = random_symmetric(40, 0xF1);
    let mut scalar = Matrix::zeros(0, 0);
    cholesky_factor_scalar_into(&a, &mut scalar).unwrap();
    let (ref_values, _) = reference_round_robin_eigen(&sym);
    par::with_threads(4, || {
        let mut l = Matrix::zeros(0, 0);
        cholesky_factor_into(&a, &mut l).unwrap();
        assert_eq!(l, scalar);
        let eig = with_eigen_method(EigenMethod::Jacobi, || SymmetricEigen::new(&sym)).unwrap();
        assert_eq!(eig.values.as_slice(), &ref_values[..]);
        // The default tridiag + QL pipeline nests the same way: inside the
        // override it still matches its own scalar reference bitwise.
        let mut pooled = EigenScratch::default();
        let mut reference = EigenScratch::default();
        eigen_into(&sym, &mut pooled).unwrap();
        eigen_scalar_into(&sym, &mut reference).unwrap();
        assert_eq!(pooled.values(), reference.values());
        assert_eq!(pooled.vectors(), reference.vectors());
    });
}

#[test]
fn solve_matches_eigen_inverse_application() {
    // Ax = b solved via Cholesky equals V Λ⁻¹ Vᵀ b within tolerance.
    let a = random_spd(48, 0xF8);
    let b: Vec<f64> = (0..48).map(|i| (i as f64 * 0.3).cos()).collect();
    let chol = Cholesky::new(&a).unwrap();
    let x_chol = chol.solve(&Vector::from_vec(b.clone())).unwrap();
    let eig = SymmetricEigen::new(&a).unwrap();
    let vt_b = eig.vectors.transpose_matvec(&b).unwrap();
    let scaled = Vector::from_fn(48, |i| vt_b[i] / eig.values[i]);
    let x_eig = eig.vectors.matvec(&scaled).unwrap();
    let worst = x_chol
        .as_slice()
        .iter()
        .zip(x_eig.as_slice())
        .fold(0.0_f64, |acc, (p, q)| acc.max((p - q).abs()));
    assert!(worst < 1e-9, "cholesky vs eigen solve: {worst}");
}

// ---------------------------------------------------------------------------
// Tridiagonalization + implicit-shift QL (the default eigen pipeline)
// ---------------------------------------------------------------------------

/// Symmetric sizes straddling every boundary the two-stage pipeline has:
/// the reflector row-chunk minimum, the rank-2 chunk minimum, the QL
/// column-chunk minimum (128), up to the 512×512 acceptance shape.
const TRI_SIZES: [usize; 12] = [1, 2, 3, 5, 31, 33, 64, 65, 127, 129, 256, 512];

fn tridiagonal_from(d: &[f64], e: &[f64]) -> Matrix {
    let n = d.len();
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            d[i]
        } else if i + 1 == j || j + 1 == i {
            e[i.min(j)]
        } else {
            0.0
        }
    })
}

#[test]
fn tridiag_scalar_blocked_and_pool_paths_are_bitwise_identical() {
    // Both paths share the per-row `simd::dot` / `fnma` microkernels, so the
    // bits agree *per SIMD level* (the Avx2 level fuses, the portable level
    // does not) — exactly the Cholesky / QR contract.
    let mut scratch = TridiagScratch::default();
    let (mut qs, mut qb) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let (mut ds, mut es) = (Vec::new(), Vec::new());
    let (mut db, mut eb) = (Vec::new(), Vec::new());
    for level in simd_levels() {
        simd::with_level(level, || {
            for (case, &n) in TRI_SIZES.iter().enumerate() {
                let a = random_symmetric(n, 0x100 + case as u64);
                tridiag_factor_scalar_into(&a, &mut qs, &mut ds, &mut es, &mut scratch).unwrap();
                for threads in [1usize, 4] {
                    par::with_threads(threads, || {
                        tridiag_factor_into(&a, &mut qb, &mut db, &mut eb, &mut scratch).unwrap()
                    });
                    assert_eq!(qb, qs, "Q blocked({threads}) vs scalar n={n} ({level})");
                    assert_eq!(db, ds, "d blocked({threads}) vs scalar n={n} ({level})");
                    assert_eq!(eb, es, "e blocked({threads}) vs scalar n={n} ({level})");
                }
            }
        });
    }
}

#[test]
fn tridiag_reconstructs_with_orthogonal_q() {
    let mut scratch = TridiagScratch::default();
    let mut q = Matrix::zeros(0, 0);
    let (mut d, mut e) = (Vec::new(), Vec::new());
    for (case, &n) in [1usize, 2, 5, 33, 65, 129, 256, 512].iter().enumerate() {
        let a = random_symmetric(n, 0x120 + case as u64);
        tridiag_factor_into(&a, &mut q, &mut d, &mut e, &mut scratch).unwrap();
        let t = tridiagonal_from(&d, &e);
        let rec = q.matmul(&t).unwrap().matmul(&q.transpose()).unwrap();
        let tol = 1e-12 * (n as f64).max(1.0);
        assert!(
            max_abs_diff(&rec, &a) < tol,
            "Q·T·Qᵀ reconstruction n={n}: {}",
            max_abs_diff(&rec, &a)
        );
        let qtq = q.transpose().matmul(&q).unwrap();
        assert!(
            max_abs_diff(&qtq, &Matrix::identity(n)) < tol,
            "QᵀQ orthogonality n={n}"
        );
    }
}

/// Runs `eigen_into` under `PRIU_THREADS ∈ {1, 4}` and asserts it is
/// bitwise `eigen_scalar_into` on the current SIMD level.
fn assert_eigen_matches_reference(a: &Matrix, what: &str) {
    let mut blocked = EigenScratch::default();
    let mut reference = EigenScratch::default();
    let level = simd::current_level();
    eigen_scalar_into(a, &mut reference).unwrap();
    for threads in [1usize, 4] {
        par::with_threads(threads, || eigen_into(a, &mut blocked).unwrap());
        assert_eq!(
            blocked.values(),
            reference.values(),
            "eigenvalues blocked({threads}) vs scalar: {what} ({level})"
        );
        assert_eq!(
            blocked.vectors(),
            reference.vectors(),
            "eigenvectors blocked({threads}) vs scalar: {what} ({level})"
        );
    }
}

#[test]
fn eigen_pipeline_scalar_blocked_and_pool_paths_are_bitwise_identical() {
    // `eigen_scalar_into` applies every reflector and every QL sweep as it
    // comes, sequentially; the production path records them and applies
    // each sequence in one column-chunked pass (64-column chunks, so one
    // chunk below n = 128; 16-column register blocks on the Avx2 level).
    // Sizes sit on both sides of both boundaries. Same per-element
    // operations, same bits.
    for level in simd_levels() {
        simd::with_level(level, || {
            for (case, &n) in [1usize, 2, 5, 15, 16, 17, 31, 33, 64, 65, 127, 128, 129, 256]
                .iter()
                .enumerate()
            {
                let a = random_symmetric(n, 0x140 + case as u64);
                assert_eigen_matches_reference(&a, &format!("n={n}"));
            }
        });
    }
}

#[test]
fn eigen_pipeline_is_bitwise_on_exact_zero_couplings_and_clusters() {
    // Block-diagonal input: a dense block with a clustered spectrum (a
    // repeated eigenvalue), an exactly diagonal block with repeated
    // entries, and a second dense block. The reduction meets sub-columns
    // that are already zero (skipped reflectors, exact-zero couplings), and
    // QL deflates on those zeros and inside the clusters.
    let mut qr_scratch = QrScratch::default();
    let (mut q, mut r) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    for (case, &n) in [40usize, 130].iter().enumerate() {
        let (b1, b2) = (n / 3, n / 4);
        let mut a = Matrix::zeros(n, n);
        let mut place = |a: &mut Matrix, at: usize, size: usize, seed: u64| {
            let m = random_matrix(size, size, seed);
            qr_factor_into(&m, &mut q, &mut r, &mut qr_scratch).unwrap();
            let spectrum: Vec<f64> = (0..size)
                .map(|i| {
                    if i < size / 2 {
                        3.0
                    } else {
                        i as f64 / size as f64
                    }
                })
                .collect();
            for i in 0..size {
                for j in 0..size {
                    let mut acc = 0.0;
                    for (k, &lambda) in spectrum.iter().enumerate() {
                        acc += q[(i, k)] * lambda * q[(j, k)];
                    }
                    a[(at + i, at + j)] = acc;
                }
            }
        };
        place(&mut a, 0, b1, 0x1A0 + case as u64);
        for i in b1..b1 + b2 {
            a[(i, i)] = if i % 2 == 0 { 3.0 } else { -1.0 };
        }
        place(&mut a, b1 + b2, n - b1 - b2, 0x1B0 + case as u64);
        let a = Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
        for level in simd_levels() {
            simd::with_level(level, || {
                assert_eigen_matches_reference(&a, &format!("block-diagonal n={n}"));
            });
        }
    }
}

#[test]
fn eigen_pipeline_agrees_with_jacobi_numerically() {
    // Different algorithms, different bits — but the same spectrum and the
    // same invariant subspaces. Eigenvalues compare elementwise (both sort
    // descending); eigenvectors compare through the reconstruction, which is
    // basis-independent.
    let mut pipeline = EigenScratch::default();
    for (case, &n) in [2usize, 5, 31, 64, 127, 192].iter().enumerate() {
        let a = random_symmetric(n, 0x160 + case as u64);
        eigen_into(&a, &mut pipeline).unwrap();
        let jacobi = with_eigen_method(EigenMethod::Jacobi, || SymmetricEigen::new(&a)).unwrap();
        let tol = 1e-10 * (n as f64).max(1.0);
        for (i, (got, want)) in pipeline
            .values()
            .iter()
            .zip(jacobi.values.as_slice())
            .enumerate()
        {
            assert!(
                (got - want).abs() < tol,
                "eigenvalue {i} n={n}: tridiag+QL {got} vs Jacobi {want}"
            );
        }
        let lambda = Matrix::from_fn(n, n, |i, j| if i == j { pipeline.values()[i] } else { 0.0 });
        let v = pipeline.vectors();
        let rec = v.matmul(&lambda).unwrap().matmul(&v.transpose()).unwrap();
        assert!(
            max_abs_diff(&rec, &a) < tol,
            "V·Λ·Vᵀ reconstruction n={n}: {}",
            max_abs_diff(&rec, &a)
        );
        let vtv = v.transpose().matmul(v).unwrap();
        assert!(
            max_abs_diff(&vtv, &Matrix::identity(n)) < tol,
            "VᵀV orthogonality n={n}"
        );
    }
}

#[test]
fn eigen_pipeline_resolves_clustered_eigenvalues() {
    // A = Q·D·Qᵀ with a heavily clustered spectrum (repeated eigenvalues
    // force the QL deflation logic down the degenerate branch, and panel
    // sizes 65/129 put the cluster across chunk boundaries). The recovered
    // spectrum must match D and the reconstruction must close even though
    // the eigenbasis inside a cluster is not unique.
    let mut scratch = EigenScratch::default();
    let mut qr_scratch = QrScratch::default();
    let (mut q, mut r) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    for (case, &n) in [65usize, 129].iter().enumerate() {
        // Exact-multiplicity spectrum: half at 4, a quarter at −2, rest spread.
        let spectrum: Vec<f64> = (0..n)
            .map(|i| {
                if i < n / 2 {
                    4.0
                } else if i < 3 * n / 4 {
                    -2.0
                } else {
                    (i as f64) / (n as f64)
                }
            })
            .collect();
        let m = random_matrix(n, n, 0x180 + case as u64);
        qr_factor_into(&m, &mut q, &mut r, &mut qr_scratch).unwrap();
        let d = Matrix::from_fn(n, n, |i, j| if i == j { spectrum[i] } else { 0.0 });
        let a = q.matmul(&d).unwrap().matmul(&q.transpose()).unwrap();

        eigen_into(&a, &mut scratch).unwrap();
        let mut want = spectrum.clone();
        want.sort_unstable_by(|x, y| y.partial_cmp(x).unwrap());
        let tol = 1e-10 * (n as f64);
        for (i, (got, want)) in scratch.values().iter().zip(&want).enumerate() {
            assert!(
                (got - want).abs() < tol,
                "clustered eigenvalue {i} n={n}: got {got}, want {want}"
            );
        }
        let v = scratch.vectors();
        let lambda = Matrix::from_fn(n, n, |i, j| if i == j { scratch.values()[i] } else { 0.0 });
        let rec = v.matmul(&lambda).unwrap().matmul(&v.transpose()).unwrap();
        assert!(
            max_abs_diff(&rec, &a) < tol,
            "clustered reconstruction n={n}: {}",
            max_abs_diff(&rec, &a)
        );
        let vtv = v.transpose().matmul(v).unwrap();
        assert!(
            max_abs_diff(&vtv, &Matrix::identity(n)) < tol,
            "clustered VᵀV orthogonality n={n}"
        );
    }
}

// ---------------------------------------------------------------------------
// Compact-WY vs per-reflector QR
// ---------------------------------------------------------------------------

/// Panel-boundary shapes around `QR_NB = 32` on top of the main grid.
const WY_EXTRA_SHAPES: [(usize, usize); 4] = [(32, 32), (33, 33), (64, 64), (96, 65)];

#[test]
fn compact_wy_qr_matches_per_reflector_numerically() {
    // The WY aggregation reassociates the trailing update (two pool matmuls
    // instead of m rank-1 applies), so the bits differ — but on a full-rank
    // input the thin Householder Q/R pair is unique given the sign
    // convention, so both drivers converge to the same factors numerically.
    // Random dense matrices are full column rank (rows ≥ cols throughout).
    let mut scratch = QrScratch::default();
    let (mut q_wy, mut r_wy) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let (mut q_pr, mut r_pr) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let (mut q_pr4, mut r_pr4) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let shapes = QR_SHAPES.iter().chain(WY_EXTRA_SHAPES.iter());
    for (case, &(n, m)) in shapes.enumerate() {
        let a = random_matrix(n, m, 0x1A0 + case as u64);
        qr_factor_into(&a, &mut q_wy, &mut r_wy, &mut scratch).unwrap();
        qr_factor_per_reflector_into(&a, &mut q_pr, &mut r_pr, &mut scratch).unwrap();
        let tol = 1e-11 * (n as f64).max(1.0);
        assert!(
            max_abs_diff(&q_wy, &q_pr) < tol,
            "Q compact-WY vs per-reflector {n}x{m}: {}",
            max_abs_diff(&q_wy, &q_pr)
        );
        assert!(
            max_abs_diff(&r_wy, &r_pr) < tol,
            "R compact-WY vs per-reflector {n}x{m}: {}",
            max_abs_diff(&r_wy, &r_pr)
        );
        // The surviving per-reflector driver keeps its own pool-invariance
        // guarantee: 1 thread and 4 threads produce identical bits.
        par::with_threads(4, || {
            qr_factor_per_reflector_into(&a, &mut q_pr4, &mut r_pr4, &mut scratch).unwrap()
        });
        let serial = par::with_threads(1, || {
            qr_factor_per_reflector_into(&a, &mut q_pr, &mut r_pr, &mut scratch)
        });
        serial.unwrap();
        assert_eq!(q_pr4, q_pr, "per-reflector pool invariance Q {n}x{m}");
        assert_eq!(r_pr4, r_pr, "per-reflector pool invariance R {n}x{m}");
    }
}

#[test]
#[allow(clippy::assertions_on_constants)]
fn qr_width_switch_pins_equivalence_at_the_wy_crossover() {
    // BENCH_7 bounds the crossover: per-reflector wins at 512×128 on one
    // CPU, compact-WY wins by 512×257 — the switch must sit between them.
    assert!(QR_WY_MIN_COLS > 128 && QR_WY_MIN_COLS <= 257);
    let mut scratch = QrScratch::default();
    let (mut q1, mut r1) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let (mut q2, mut r2) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));

    // One column below the switch the public entry point IS the
    // per-reflector driver — bitwise, not merely close.
    let narrow = random_matrix(320, QR_WY_MIN_COLS - 1, 0x1B0);
    qr_factor_into(&narrow, &mut q1, &mut r1, &mut scratch).unwrap();
    qr_factor_per_reflector_into(&narrow, &mut q2, &mut r2, &mut scratch).unwrap();
    assert_eq!(q1, q2, "below-crossover Q must be the per-reflector bits");
    assert_eq!(r1, r2, "below-crossover R must be the per-reflector bits");

    // At the switch compact-WY takes over: same reflector sequence through
    // a reassociated trailing tree, so the factors agree numerically across
    // the crossover.
    let wide = random_matrix(320, QR_WY_MIN_COLS, 0x1B1);
    qr_factor_into(&wide, &mut q1, &mut r1, &mut scratch).unwrap();
    qr_factor_per_reflector_into(&wide, &mut q2, &mut r2, &mut scratch).unwrap();
    let tol = 1e-11 * 320.0;
    assert!(max_abs_diff(&q1, &q2) < tol, "crossover Q drift");
    assert!(max_abs_diff(&r1, &r2) < tol, "crossover R drift");

    // The scalar == blocked == pool contract holds on both sides of the
    // boundary (the scalar reference switches drivers on the same width).
    let (mut qs, mut rs) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    for (case, m) in [QR_WY_MIN_COLS - 1, QR_WY_MIN_COLS].into_iter().enumerate() {
        let a = random_matrix(320, m, 0x1B2 + case as u64);
        qr_factor_scalar_into(&a, &mut qs, &mut rs, &mut scratch).unwrap();
        for threads in [1usize, 4] {
            par::with_threads(threads, || {
                qr_factor_into(&a, &mut q1, &mut r1, &mut scratch).unwrap()
            });
            assert_eq!(q1, qs, "Q blocked({threads}) vs scalar 320x{m}");
            assert_eq!(r1, rs, "R blocked({threads}) vs scalar 320x{m}");
        }
    }
}

// ---------------------------------------------------------------------------
// Rank-1 / rank-k Cholesky updates
// ---------------------------------------------------------------------------

#[test]
fn cholesky_update_scalar_and_kernel_paths_are_bitwise_identical() {
    // The update is FMA-free by construction (rotation element ops perform
    // the same three roundings on every level), so the kernel path must
    // match the plain-loop reference bitwise on every level × thread count.
    // (Across levels the update of a *given* factor is also bit-stable, but
    // the base factorisation is not — FMA — so that is not asserted here.)
    for level in simd_levels() {
        simd::with_level(level, || {
            for (case, &n) in SPD_SIZES.iter().enumerate() {
                let a = random_spd(n, 0x2C0 + case as u64);
                let mut base = Matrix::zeros(0, 0);
                cholesky_factor_into(&a, &mut base).unwrap();
                let x: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64 - 6.0) / 5.0).collect();

                let mut scalar = base.clone();
                let mut carry = x.clone();
                cholesky_update_scalar_into(&mut scalar, &mut carry).unwrap();

                let mut col = Vec::new();
                for threads in [1usize, 4] {
                    let mut kernel = base.clone();
                    let mut carry = x.clone();
                    par::with_threads(threads, || {
                        cholesky_update_into(&mut kernel, &mut carry, &mut col).unwrap()
                    });
                    assert_eq!(
                        kernel, scalar,
                        "update({threads}) vs scalar n={n} ({level})"
                    );
                }
            }
        });
    }
}

#[test]
fn cholesky_update_matches_refactorisation_and_inverts_downdate() {
    for (case, &n) in SPD_SIZES.iter().enumerate() {
        if n < 2 {
            continue;
        }
        let a = random_spd(n, 0x2D0 + case as u64);
        let mut l = Matrix::zeros(0, 0);
        cholesky_factor_into(&a, &mut l).unwrap();
        let x = Vector::from_fn(n, |i| ((i * 11 % 17) as f64 - 8.0) / 7.0);

        // update(L, x) == factor(A + x xᵀ), numerically.
        let mut carry = x.as_slice().to_vec();
        let mut col = Vec::new();
        cholesky_update_into(&mut l, &mut carry, &mut col).unwrap();
        let mut bumped = a.clone();
        bumped.rank_one_update(1.0, &x).unwrap();
        let mut fresh = Matrix::zeros(0, 0);
        cholesky_factor_into(&bumped, &mut fresh).unwrap();
        let tol = 1e-10 * (n as f64).max(1.0);
        let mut worst = 0.0f64;
        for i in 0..n {
            for j in 0..=i {
                worst = worst.max((l[(i, j)] - fresh[(i, j)]).abs());
            }
        }
        assert!(worst < tol, "update vs refactor n={n}: {worst}");

        // Round trip: updating the factor of A − x xᵀ recovers factor(A).
        // (The closed-form engine downdates the Gram matrix itself; the
        // factor-level inverse direction exercises the same identity.)
        let mut shrunk = a.clone();
        shrunk.rank_one_update(-1.0, &x).unwrap();
        let mut round = Matrix::zeros(0, 0);
        if cholesky_factor_into(&shrunk, &mut round).is_err() {
            continue; // x too large for this A: downdate not SPD, skip.
        }
        let mut carry = x.as_slice().to_vec();
        cholesky_update_into(&mut round, &mut carry, &mut col).unwrap();
        let mut orig = Matrix::zeros(0, 0);
        cholesky_factor_into(&a, &mut orig).unwrap();
        let mut worst = 0.0f64;
        for i in 0..n {
            for j in 0..=i {
                worst = worst.max((round[(i, j)] - orig[(i, j)]).abs());
            }
        }
        assert!(worst < tol, "update∘downdate round trip n={n}: {worst}");
    }
}

#[test]
fn cholesky_rank_k_update_matches_gram_growth() {
    let (n, k) = (96, 5);
    let a = random_spd(n, 0x2E0);
    let rows = random_matrix(k, n, 0x2E1);
    let mut l = Matrix::zeros(0, 0);
    cholesky_factor_into(&a, &mut l).unwrap();
    let (mut xbuf, mut col) = (Vec::new(), Vec::new());
    cholesky_update_rank_k_into(&mut l, &rows, &mut xbuf, &mut col).unwrap();

    let mut grown = a.clone();
    for r in 0..k {
        grown
            .rank_one_update(1.0, &Vector::from_vec(rows.row(r).to_vec()))
            .unwrap();
    }
    let mut fresh = Matrix::zeros(0, 0);
    cholesky_factor_into(&grown, &mut fresh).unwrap();
    let mut worst = 0.0f64;
    for i in 0..n {
        for j in 0..=i {
            worst = worst.max((l[(i, j)] - fresh[(i, j)]).abs());
        }
    }
    assert!(worst < 1e-9, "rank-k update vs refactor: {worst}");
}
