//! Rank-one eigen update suite: `eigen_update_into` (and the
//! `SymmetricEigen::rank_one_update_with` wrapper) against `eigen_into` of
//! the explicitly updated matrix.
//!
//! * seeded shapes `n ∈ {1, 2, 3, 17, 64, 318}` with `ρ = ±1`: eigenvalues
//!   within `1e-12·λ_max`, reconstruction within `1e-12·‖A‖`, and
//!   `‖VᵀV − I‖ ≤ 1e-12`;
//! * the deflation cases: repeated eigenvalues, exact zeros in `z = Vᵀx`,
//!   a rank-deficient Gram, a downdate to exact singularity;
//! * a 400-step chain of downdates, within `1e-10` of the exact pipeline;
//! * bitwise equality for one and four threads on every SIMD level;
//! * typed errors (never a panic) for non-finite or malformed input.
//!
//! Eigenvectors of close eigenvalues are not unique, so the checks compare
//! eigenvalues, the reconstruction `V·diag(λ)·Vᵀ` and orthonormality — all
//! basis-independent.

use priu_linalg::decomposition::{
    eigen_into, eigen_update_into, EigenScratch, EigenUpdateScratch, SymmetricEigen,
};
use priu_linalg::{par, simd, LinalgError, Matrix, Vector};
use priu_rng::Rng64;

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Rng64::from_seed(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.uniform(-1.0, 1.0))
}

fn exact(a: &Matrix) -> SymmetricEigen {
    let mut scratch = EigenScratch::default();
    eigen_into(a, &mut scratch).unwrap();
    SymmetricEigen {
        values: Vector::from_vec(scratch.values().to_vec()),
        vectors: scratch.vectors().clone(),
    }
}

/// `eig` updated by `rho·x xᵀ` on fresh scratch.
fn rank_one(eig: &SymmetricEigen, x: &[f64], rho: f64) -> priu_linalg::Result<SymmetricEigen> {
    eig.rank_one_update_with(x, rho, &mut EigenUpdateScratch::default())
}

/// The reference `a + ρ·x xᵀ`, formed entry by entry.
fn updated(a: &Matrix, x: &[f64], rho: f64) -> Matrix {
    let mut out = a.clone();
    for (i, &xi) in x.iter().enumerate() {
        let xi = rho * xi;
        if xi == 0.0 {
            continue;
        }
        for (j, &xj) in x.iter().enumerate() {
            out[(i, j)] += xi * xj;
        }
    }
    out
}

/// `(eigenvalue error / λ_max, ‖VΛVᵀ − A‖ / ‖A‖, ‖VᵀV − I‖)`, Frobenius
/// norms, against the exact decomposition of `a`.
fn errors(eig: &SymmetricEigen, a: &Matrix) -> (f64, f64, f64) {
    let n = a.nrows();
    let reference = exact(a);
    let scale = reference
        .values
        .iter()
        .fold(0.0_f64, |acc, v| acc.max(v.abs()))
        .max(f64::MIN_POSITIVE);
    let values = (0..n)
        .map(|i| (eig.values[i] - reference.values[i]).abs())
        .fold(0.0_f64, f64::max)
        / scale;
    let rebuilt = &eig.reconstruct() - a;
    let reconstruction = rebuilt.frobenius_norm() / a.frobenius_norm().max(f64::MIN_POSITIVE);
    let gram = eig.vectors.transpose().matmul(&eig.vectors).unwrap();
    let orthogonality = (&gram - &Matrix::identity(n)).frobenius_norm();
    (values, reconstruction, orthogonality)
}

fn assert_close(eig: &SymmetricEigen, a: &Matrix, bound: f64, what: &str) {
    let (values, reconstruction, orthogonality) = errors(eig, a);
    assert!(values <= bound, "{what}: eigenvalue error {values:e}");
    assert!(
        reconstruction <= bound,
        "{what}: reconstruction error {reconstruction:e}"
    );
    assert!(
        orthogonality <= bound,
        "{what}: orthogonality error {orthogonality:e}"
    );
    assert!(
        eig.values.as_slice().windows(2).all(|w| w[0] >= w[1]),
        "{what}: values not descending"
    );
}

#[test]
fn seeded_updates_and_downdates_match_the_exact_pipeline() {
    for (case, &n) in [1usize, 2, 3, 17, 64, 318].iter().enumerate() {
        let seed = 0x1E0 + case as u64;
        let rows = random_matrix(n + 5, n, seed);
        let a = rows.gram();
        let eig = exact(&a);
        let mut scratch = EigenUpdateScratch::default();
        // ρ = −1 removes a row of the Gram (so the result stays PSD),
        // ρ = +1 adds a fresh one.
        let removed = rows.row(n / 2).to_vec();
        let added = random_matrix(1, n, seed ^ 7).row(0).to_vec();
        for (x, rho) in [(&removed, -1.0), (&added, 1.0)] {
            let next = eig.rank_one_update_with(x, rho, &mut scratch).unwrap();
            assert_close(
                &next,
                &updated(&a, x, rho),
                1e-12,
                &format!("n={n} ρ={rho}"),
            );
        }
    }
}

#[test]
fn repeated_eigenvalues_deflate_by_rotation() {
    // A scaled identity: every pair of eigenvalues is equal, so all but
    // one component deflates through Givens rotations.
    let n = 17;
    let a = Matrix::from_diagonal(&[3.0; 17]);
    let eig = exact(&a);
    let x: Vec<f64> = random_matrix(1, n, 0x2E0)
        .row(0)
        .iter()
        .map(|v| 0.3 * v)
        .collect();
    for rho in [1.0, -1.0] {
        let next = rank_one(&eig, &x, rho).unwrap();
        assert_close(&next, &updated(&a, &x, rho), 1e-12, &format!("3·I ρ={rho}"));
    }
    // A cluster of three equal eigenvalues inside a spread spectrum.
    let a = Matrix::from_diagonal(&[9.0, 5.0, 5.0, 5.0, 2.0, 1.0]);
    let x = [0.5, 1.0, -2.0, 0.25, 0.1, 0.7];
    let next = rank_one(&exact(&a), &x, 1.0).unwrap();
    assert_close(&next, &updated(&a, &x, 1.0), 1e-12, "clustered diagonal");
    // Nearly repeated eigenvalues (gaps of 1e-9) too wide to deflate: the
    // roots crowd their poles, and only Löwner's recomputed û keeps the
    // vectors orthogonal.
    let a = Matrix::from_diagonal(&[3.0, 2.0 + 2e-9, 2.0 + 1e-9, 2.0, 1.0]);
    let x = [0.3, 0.5, -0.4, 0.6, 0.2];
    for rho in [1.0, -1.0] {
        let next = rank_one(&exact(&a), &x, rho).unwrap();
        assert_close(
            &next,
            &updated(&a, &x, rho),
            1e-12,
            &format!("near-cluster ρ={rho}"),
        );
    }
}

#[test]
fn exact_zeros_in_z_deflate_their_pairs() {
    // On a diagonal matrix z = x exactly, so x in the span of two
    // eigenvectors leaves every other pair untouched bit for bit.
    let a = Matrix::from_diagonal(&[8.0, 6.0, 5.0, 3.0, 2.0, 1.0, 0.5]);
    let eig = exact(&a);
    let mut x = [0.0; 7];
    x[1] = 1.5;
    x[4] = -0.75;
    for rho in [1.0, -1.0] {
        let next = rank_one(&eig, &x, rho).unwrap();
        assert_close(
            &next,
            &updated(&a, &x, rho),
            1e-12,
            &format!("span ρ={rho}"),
        );
        for untouched in [8.0, 5.0, 3.0, 1.0, 0.5] {
            assert!(
                next.values.as_slice().contains(&untouched),
                "deflated eigenvalue {untouched} changed (ρ={rho})"
            );
        }
    }
    // A general basis: x = 2·v₃ − v₇ gives z with rounding-level entries
    // everywhere else, which the tolerance deflates.
    let rows = random_matrix(30, 12, 0x3E0);
    let a = rows.gram();
    let eig = exact(&a);
    let x: Vec<f64> = (0..12)
        .map(|i| 2.0 * eig.vectors[(i, 3)] - eig.vectors[(i, 7)])
        .collect();
    let next = rank_one(&eig, &x, 1.0).unwrap();
    assert_close(
        &next,
        &updated(&a, &x, 1.0),
        1e-12,
        "span of two eigenvectors",
    );
}

#[test]
fn tolerances_follow_the_problem_scale() {
    // The same update at three scales: deflation and convergence are
    // relative, so the relative errors stay at working precision.
    let rows = random_matrix(20, 12, 0x4F0);
    for scale in [1e-12, 1.0, 1e12] {
        let a = rows.gram().scaled(scale * scale);
        let x: Vec<f64> = rows.row(3).iter().map(|v| v * scale).collect();
        for rho in [1.0, -1.0] {
            let next = rank_one(&exact(&a), &x, rho).unwrap();
            assert_close(
                &next,
                &updated(&a, &x, rho),
                1e-12,
                &format!("scale {scale:e} ρ={rho}"),
            );
        }
    }
}

#[test]
fn rank_deficient_grams_update_and_downdate() {
    // m > n: the Gram of 10 rows in 30 columns has a 20-dimensional null
    // space of (numerically) repeated zero eigenvalues.
    let rows = random_matrix(10, 30, 0x4E0);
    let a = rows.gram();
    let eig = exact(&a);
    let removed = rows.row(4).to_vec();
    let next = rank_one(&eig, &removed, -1.0).unwrap();
    assert_close(&next, &updated(&a, &removed, -1.0), 1e-12, "m > n downdate");
    let added = random_matrix(1, 30, 0x4E1).row(0).to_vec();
    let next = rank_one(&eig, &added, 1.0).unwrap();
    assert_close(&next, &updated(&a, &added, 1.0), 1e-12, "m > n update");
}

#[test]
fn downdates_to_exact_singularity() {
    // diag(4, 1, 9) − (2, 0, 0)(2, 0, 0)ᵀ = diag(0, 1, 9) exactly.
    let a = Matrix::from_diagonal(&[4.0, 1.0, 9.0]);
    let next = rank_one(&exact(&a), &[2.0, 0.0, 0.0], -1.0).unwrap();
    assert_eq!(next.values.as_slice(), &[9.0, 1.0, 0.0]);
    // A square full-rank X loses a row: XᵀX becomes singular.
    let rows = random_matrix(9, 9, 0x5E0);
    let a = rows.gram();
    let x = rows.row(2).to_vec();
    let next = rank_one(&exact(&a), &x, -1.0).unwrap();
    let target = updated(&a, &x, -1.0);
    assert_close(&next, &target, 1e-12, "square X minus a row");
    let smallest = next.values[8].abs();
    assert!(
        smallest <= 1e-12 * next.values[0],
        "null eigenvalue {smallest:e}"
    );
}

#[test]
fn chained_downdates_stay_within_drift_bounds() {
    // 400 single-row downdates of a 1200 × 24 Gram whose every third row
    // is scaled ×10, against the exact pipeline on the final matrix.
    let (n, m) = (1200, 24);
    let mut rows = random_matrix(n, m, 0x6E0);
    for i in (0..n).step_by(3) {
        for v in rows.row_mut(i) {
            *v *= 10.0;
        }
    }
    let mut a = rows.gram();
    let mut scratch = EigenUpdateScratch::default();
    let eig = exact(&a);
    let removed: Vec<usize> = (0..n).step_by(3).take(400).collect();
    for (step, &i) in removed.iter().enumerate() {
        let x = rows.row(i);
        if step == 0 {
            eigen_update_into(eig.values.as_slice(), &eig.vectors, x, -1.0, &mut scratch).unwrap();
        } else {
            scratch.update(x, -1.0).unwrap();
        }
        a = updated(&a, x, -1.0);
    }
    let chained = SymmetricEigen::from_update(&scratch);
    assert_close(&chained, &a, 1e-10, "400 chained downdates");
    assert!(scratch.probe_residual(&a).unwrap() <= 1e-12);
}

#[test]
fn updates_are_bitwise_identical_across_thread_counts() {
    let rows = random_matrix(600, 96, 0x7E0);
    let a = rows.gram();
    let eig = exact(&a);
    let x = rows.row(17).to_vec();
    let y = random_matrix(1, 96, 0x7E1).row(0).to_vec();
    for level in simd::available_levels() {
        let run = |threads| {
            simd::with_level(level, || {
                par::with_threads(threads, || {
                    let mut scratch = EigenUpdateScratch::default();
                    eigen_update_into(eig.values.as_slice(), &eig.vectors, &x, -1.0, &mut scratch)
                        .unwrap();
                    scratch.update(&y, 1.0).unwrap();
                    SymmetricEigen::from_update(&scratch)
                })
            })
        };
        let (one, four) = (run(1), run(4));
        let bits = |e: &SymmetricEigen| {
            e.values
                .iter()
                .chain(e.vectors.as_slice())
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&one), bits(&four), "{level}");
    }
}

#[test]
fn malformed_input_returns_typed_errors() {
    let a = random_matrix(8, 5, 0x8E0).gram();
    let eig = exact(&a);
    let mut x = vec![0.5; 5];
    for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        x[3] = poison;
        for rho in [1.0, -1.0] {
            assert!(matches!(
                rank_one(&eig, &x, rho),
                Err(LinalgError::InvalidArgument(_))
            ));
        }
    }
    assert!(matches!(
        rank_one(&eig, &[1.0; 5], f64::NAN),
        Err(LinalgError::InvalidArgument(_))
    ));
    assert!(matches!(
        rank_one(&eig, &[1.0; 4], 1.0),
        Err(LinalgError::ShapeMismatch { .. })
    ));
    let mut poisoned = eig.clone();
    poisoned.vectors[(2, 1)] = f64::NAN;
    assert!(matches!(
        rank_one(&poisoned, &[1.0; 5], 1.0),
        Err(LinalgError::InvalidArgument(_))
    ));
    let mut ascending = eig.clone();
    ascending.values = Vector::from_vec(eig.values.iter().rev().copied().collect());
    assert!(matches!(
        rank_one(&ascending, &[1.0; 5], 1.0),
        Err(LinalgError::InvalidArgument(_))
    ));
    // A zero row, a row too small to register and the empty problem leave
    // the pairs as they are.
    for x in [[0.0; 5], [1e-150; 5]] {
        let same = rank_one(&eig, &x, -1.0).unwrap();
        assert_eq!(same.values, eig.values);
        assert_eq!(same.vectors, eig.vectors);
    }
    let empty = rank_one(&exact(&Matrix::zeros(0, 0)), &[], 1.0).unwrap();
    assert_eq!(empty.values.len(), 0);
}

#[test]
fn probe_residual_flags_a_perturbed_basis() {
    let a = random_matrix(40, 16, 0x9E0).gram();
    let eig = exact(&a);
    let mut scratch = EigenUpdateScratch::default();
    let x = [0.0; 16];
    eigen_update_into(eig.values.as_slice(), &eig.vectors, &x, 1.0, &mut scratch).unwrap();
    assert!(scratch.probe_residual(&a).unwrap() <= 1e-14);
    let mut off = a.clone();
    off[(2, 5)] += 1e-6;
    off[(5, 2)] += 1e-6;
    assert!(scratch.probe_residual(&off).unwrap() > 1e-9);
    assert!(scratch.probe_residual(&Matrix::zeros(3, 3)).is_err());
}
