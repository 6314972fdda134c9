//! Property-based tests of the linear-algebra substrate: decomposition
//! invariants that must hold for arbitrary well-conditioned inputs.
//!
//! Inputs are drawn from the workspace's deterministic RNG (one seed per
//! case) rather than an external property-testing framework, so the suite
//! runs in fully offline builds while still sweeping many random instances.

use priu_linalg::decomposition::{Cholesky, GramFactor, Lu, SymmetricEigen, TruncationMethod};
use priu_linalg::{Matrix, Vector};
use priu_rng::Rng64;

const CASES: u64 = 48;

fn matrix(rng: &mut Rng64, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.uniform(-1.0, 1.0))
}

fn vector(rng: &mut Rng64, len: usize) -> Vector {
    Vector::from_fn(len, |_| rng.uniform(-1.0, 1.0))
}

#[test]
fn matvec_distributes_over_addition() {
    for case in 0..CASES {
        let mut rng = Rng64::from_seed_stream(0xA001, case);
        let a = matrix(&mut rng, 5, 4);
        let x = vector(&mut rng, 4);
        let y = vector(&mut rng, 4);
        let lhs = a.matvec(&(&x + &y)).unwrap();
        let rhs = &a.matvec(&x).unwrap() + &a.matvec(&y).unwrap();
        assert!((&lhs - &rhs).norm_inf() < 1e-12, "case {case}");
    }
}

#[test]
fn transpose_is_involutive_and_compatible_with_matvec() {
    for case in 0..CASES {
        let mut rng = Rng64::from_seed_stream(0xA002, case);
        let a = matrix(&mut rng, 4, 6);
        let x = vector(&mut rng, 4);
        assert_eq!(a.transpose().transpose(), a.clone());
        let via_transpose = a.transpose().matvec(&x).unwrap();
        let via_dedicated = a.transpose_matvec(&x).unwrap();
        assert!(
            (&via_transpose - &via_dedicated).norm_inf() < 1e-12,
            "case {case}"
        );
    }
}

#[test]
fn gram_matrices_are_symmetric_positive_semidefinite() {
    for case in 0..CASES {
        let mut rng = Rng64::from_seed_stream(0xA003, case);
        let a = matrix(&mut rng, 6, 3);
        let x = vector(&mut rng, 3);
        let g = a.gram();
        assert!(g.asymmetry().unwrap() < 1e-12);
        let quad = x.dot(&g.matvec(&x).unwrap()).unwrap();
        assert!(
            quad >= -1e-10,
            "quadratic form {quad} must be non-negative (case {case})"
        );
    }
}

#[test]
fn cholesky_solves_spd_systems() {
    for case in 0..CASES {
        let mut rng = Rng64::from_seed_stream(0xA004, case);
        let a = matrix(&mut rng, 5, 3);
        let x = vector(&mut rng, 3);
        // A = GᵀG + I is SPD for any G.
        let mut spd = a.gram();
        spd.add_diagonal_mut(1.0).unwrap();
        let b = spd.matvec(&x).unwrap();
        let solved = Cholesky::new(&spd).unwrap().solve(&b).unwrap();
        assert!((&solved - &x).norm_inf() < 1e-8, "case {case}");
    }
}

#[test]
fn lu_solves_diagonally_dominant_systems() {
    for case in 0..CASES {
        let mut rng = Rng64::from_seed_stream(0xA005, case);
        let a = matrix(&mut rng, 4, 4);
        let x = vector(&mut rng, 4);
        let mut dd = a.clone();
        dd.add_diagonal_mut(5.0).unwrap();
        let b = dd.matvec(&x).unwrap();
        let solved = Lu::new(&dd).unwrap().solve(&b).unwrap();
        assert!((&solved - &x).norm_inf() < 1e-8, "case {case}");
    }
}

#[test]
fn symmetric_eigen_reconstructs_gram_matrices() {
    for case in 0..CASES {
        let mut rng = Rng64::from_seed_stream(0xA007, case);
        let a = matrix(&mut rng, 5, 4);
        let g = a.gram();
        let eig = SymmetricEigen::new(&g).unwrap();
        assert!(
            (&eig.reconstruct() - &g).frobenius_norm() < 1e-8,
            "case {case}"
        );
        // Eigenvalues of a PSD matrix are non-negative and sorted descending.
        for i in 0..eig.values.len() {
            assert!(eig.values[i] >= -1e-9);
            if i + 1 < eig.values.len() {
                assert!(eig.values[i] >= eig.values[i + 1] - 1e-12);
            }
        }
    }
}

#[test]
fn full_rank_truncation_is_exact_and_apply_matches_dense() {
    for case in 0..CASES {
        let mut rng = Rng64::from_seed_stream(0xA008, case);
        let a = matrix(&mut rng, 6, 3);
        let x = vector(&mut rng, 3);
        let weight = rng.uniform(0.1, 2.0);
        let weights = vec![weight; 6];
        let factor = GramFactor::new(a, weights).unwrap();
        let truncated = factor.truncate(3, TruncationMethod::Exact).unwrap();
        let dense = factor.dense();
        assert!(
            (&truncated.dense() - &dense).frobenius_norm() < 1e-8,
            "case {case}"
        );
        let via_factor = factor.apply(&x).unwrap();
        let via_truncated = truncated.apply(&x).unwrap();
        assert!((&via_factor - &via_truncated).norm2() < 1e-8, "case {case}");
    }
}

#[test]
fn eigenvalue_downdate_is_exact_in_trace() {
    for case in 0..CASES {
        let mut rng = Rng64::from_seed_stream(0xA009, case);
        let a = matrix(&mut rng, 6, 3);
        let k = rng.index(6);
        // The trace of M - ΔXᵀΔX equals the sum of the downdated eigenvalues
        // (the diagonal approximation preserves the trace exactly).
        let g = a.gram();
        let eig = SymmetricEigen::new(&g).unwrap();
        let delta = a.select_rows(&[k]);
        let downdated = eig.downdated_eigenvalues(&delta).unwrap();
        let exact = &g - &delta.gram();
        let trace_exact: f64 = (0..3).map(|i| exact[(i, i)]).sum();
        assert!((downdated.sum() - trace_exact).abs() < 1e-9, "case {case}");
    }
}
