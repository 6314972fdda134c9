//! Property-based tests of the core invariants: for *arbitrary* removal
//! sets, PrIU's incrementally updated model must coincide (linear
//! regression) or near-coincide (logistic regression, Theorem 5) with the
//! model retrained on the surviving samples, and the interpolation error
//! must respect the Theorem 4 bound.
//!
//! A chained linear session must also keep its normal-equations view exact
//! and its PrIU-opt eigenbasis an eigendecomposition of that view: bitwise
//! the path its delta selects, and within working precision of a fresh
//! decomposition.
//!
//! Sessions are driven through the unified `DeletionEngine` API; removal
//! sets are drawn from the workspace's deterministic RNG (one seed per
//! case), so the suite runs in fully offline builds.

use std::sync::OnceLock;

use priu_core::baseline::closed_form::ClosedFormCapture;
use priu_core::engine::{DeletionEngine, Delta, DeltaRows, Method, Session, SessionBuilder};
use priu_core::interpolation::PiecewiseLinearSigmoid;
use priu_core::metrics::compare_models;
use priu_core::TrainerConfig;
use priu_data::catalog::Hyperparameters;
use priu_data::synthetic::classification::{generate_binary_classification, ClassificationConfig};
use priu_data::synthetic::regression::{generate_regression, RegressionConfig};
use priu_linalg::decomposition::{eigen_update_into, EigenUpdateScratch, SymmetricEigen};
use priu_rng::Rng64;

const N: usize = 160;

fn linear_fixture() -> &'static Session {
    static FIXTURE: OnceLock<Session> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let data = generate_regression(&RegressionConfig {
            num_samples: N,
            num_features: 5,
            noise_std: 0.1,
            seed: 1001,
            ..Default::default()
        });
        let config = TrainerConfig::from_hyper(Hyperparameters {
            batch_size: 32,
            num_iterations: 120,
            learning_rate: 0.05,
            regularization: 0.05,
        });
        SessionBuilder::dense(data, config)
            .seed(4)
            .opt_capture(false)
            .fit()
            .expect("training fixture")
    })
}

fn logistic_fixture() -> &'static Session {
    static FIXTURE: OnceLock<Session> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let data = generate_binary_classification(&ClassificationConfig {
            num_samples: N,
            num_features: 6,
            separation: 3.0,
            label_noise: 0.5,
            seed: 1002,
            ..Default::default()
        });
        let config = TrainerConfig::from_hyper(Hyperparameters {
            batch_size: 32,
            num_iterations: 120,
            learning_rate: 0.3,
            regularization: 0.02,
        });
        SessionBuilder::dense(data, config)
            .seed(5)
            .opt_capture(false)
            .fit()
            .expect("training fixture")
    })
}

/// An arbitrary removal set of up to a quarter of the samples (possibly with
/// duplicates and in arbitrary order, which the API must normalise).
fn removal_set(rng: &mut Rng64) -> Vec<usize> {
    let len = rng.index(N / 4);
    (0..len).map(|_| rng.index(N)).collect()
}

#[test]
fn priu_linear_matches_retraining_for_arbitrary_removals() {
    let session = linear_fixture();
    for case in 0..12 {
        let mut rng = Rng64::from_seed_stream(0xC001, case);
        let removed = removal_set(&mut rng);
        let updated = session.update(Method::Priu, &removed).unwrap();
        let retrained = session.update(Method::Retrain, &removed).unwrap();
        // For linear regression PrIU replays the exact update rule, so the
        // two results agree to floating-point accuracy.
        let cmp = compare_models(&retrained.model, &updated.model).unwrap();
        assert!(
            cmp.l2_distance < 1e-7,
            "case {case}: distance {}",
            cmp.l2_distance
        );
        assert!(updated.model.is_finite());
    }
}

#[test]
fn priu_logistic_stays_within_theorem5_distance_of_retraining() {
    let session = logistic_fixture();
    for case in 0..12 {
        let mut rng = Rng64::from_seed_stream(0xC002, case);
        let removed = removal_set(&mut rng);
        let updated = session.update(Method::Priu, &removed).unwrap();
        let retrained = session.update(Method::Retrain, &removed).unwrap();
        let cmp = compare_models(&retrained.model, &updated.model).unwrap();
        // Theorem 5: the gap grows with the removed fraction; for at most a
        // quarter of the samples the direction must stay essentially intact.
        assert!(
            cmp.cosine_similarity > 0.98,
            "case {case}: similarity {}",
            cmp.cosine_similarity
        );
        assert!(updated.model.is_finite());
    }
}

#[test]
fn removing_nothing_is_a_fixed_point() {
    // The empty removal leaves the linear model unchanged and the logistic
    // model within the linearisation tolerance.
    let linear = linear_fixture();
    let lin = linear.update(Method::Priu, &[]).unwrap();
    assert!(
        compare_models(linear.model(), &lin.model)
            .unwrap()
            .l2_distance
            < 1e-9
    );
    assert_eq!(lin.num_removed, 0);

    let logistic = logistic_fixture();
    let log = logistic.update(Method::Priu, &[]).unwrap();
    assert!(
        compare_models(logistic.model(), &log.model)
            .unwrap()
            .l2_distance
            < 1e-6
    );
}

#[test]
fn chained_apply_matches_one_shot_updates_for_arbitrary_splits() {
    // Splitting one removal set across two chained applies must agree with
    // the one-shot update on the whole set (linear: exactly).
    let session = linear_fixture();
    for case in 0..6 {
        let mut rng = Rng64::from_seed_stream(0xC003, case);
        let mut removed = removal_set(&mut rng);
        removed.sort_unstable();
        removed.dedup();
        if removed.len() < 2 {
            continue;
        }
        let (first, second) = removed.split_at(removed.len() / 2);
        let chained = session.apply(Method::Priu, first).unwrap();
        // Re-express the second half in survivor indices.
        let second_local: Vec<usize> = second
            .iter()
            .map(|&i| i - first.iter().filter(|&&r| r < i).count())
            .collect();
        let stepwise = chained.session.update(Method::Priu, &second_local).unwrap();
        let oneshot = session.update(Method::Priu, &removed).unwrap();
        let cmp = compare_models(&oneshot.model, &stepwise.model).unwrap();
        assert!(
            cmp.l2_distance < 1e-7,
            "case {case}: distance {}",
            cmp.l2_distance
        );
    }
}

/// `max |a − b| / max |b|` over two equal-length slices.
fn relative_max_error(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let scale = b.iter().fold(0.0_f64, |acc, x| acc.max(x.abs()));
    let diff = a
        .iter()
        .zip(b)
        .fold(0.0_f64, |acc, (x, y)| acc.max((x - y).abs()));
    diff / scale
}

#[test]
fn chained_priu_opt_applies_keep_the_normal_equations_exact() {
    // ~30 PrIU-opt applies mixing removals with appended rows. After every
    // apply the maintained view must equal the view rebuilt from the
    // successor's rows, and the successor's eigenpairs must be *bitwise*
    // the path the delta selects — the parent's pairs carried across one
    // exact rank-one update per added row, then one downdate per removed
    // row, for deltas of one to five rows; the eigendecomposition of the
    // maintained `XᵀX` otherwise — and agree with a fresh decomposition to
    // working precision. A basis carried forward approximately (Eq. 18's
    // diagonals) would fail the last check.
    const M: usize = 40;
    let lambda = 0.05;
    let data = generate_regression(&RegressionConfig {
        num_samples: 200,
        num_features: M,
        noise_std: 0.1,
        seed: 1003,
        ..Default::default()
    });
    let extra = generate_regression(&RegressionConfig {
        num_samples: 64,
        num_features: M,
        noise_std: 0.1,
        seed: 1004,
        ..Default::default()
    });
    let config = TrainerConfig::from_hyper(Hyperparameters {
        batch_size: 25,
        num_iterations: 16,
        learning_rate: 0.01,
        regularization: lambda,
    });
    let mut session = SessionBuilder::dense(data, config)
        .seed(6)
        .fit()
        .expect("chain fixture");
    let mut rng = Rng64::from_seed(0xC004);
    let mut next_extra = 0;
    for step in 0..30 {
        let n = session.num_samples();
        let removed: Vec<usize> = (0..step % 4).map(|_| rng.index(n)).collect();
        let added = (step % 3 != 0).then(|| {
            let rows: Vec<usize> = (next_extra..next_extra + 2).collect();
            next_extra += 2;
            DeltaRows::Dense(extra.select(&rows))
        });
        let delta = Delta { removed, added };
        let Session::Linear(parent) = &session else {
            panic!("a linear session stays linear");
        };
        let parent_eigen = parent
            .provenance()
            .opt
            .as_ref()
            .expect("opt capture")
            .eigen
            .clone();
        let mut removed_rows = delta.removed.clone();
        removed_rows.sort_unstable();
        removed_rows.dedup();
        let removed_rows = parent.dataset().x.select_rows(&removed_rows);
        let mut rows: Vec<(Vec<f64>, f64)> = Vec::new();
        if let Some(DeltaRows::Dense(added)) = &delta.added {
            rows.extend((0..added.num_samples()).map(|i| (added.x.row(i).to_vec(), 1.0)));
        }
        rows.extend((0..removed_rows.nrows()).map(|i| (removed_rows.row(i).to_vec(), -1.0)));
        session = session
            .apply_delta(Method::PriuOpt, &delta)
            .unwrap_or_else(|e| panic!("step {step}: {e}"))
            .session;

        let Session::Linear(engine) = &session else {
            panic!("a linear session stays linear");
        };
        let provenance = engine.provenance();
        let normal = provenance.normal.as_ref().expect("maintained view");
        let rebuilt = ClosedFormCapture::build(engine.dataset(), lambda)
            .unwrap()
            .normal;
        assert_eq!(normal.n, rebuilt.n, "step {step}: row count");
        let xtx_err = relative_max_error(normal.xtx.as_slice(), rebuilt.xtx.as_slice());
        let xty_err = relative_max_error(normal.xty.as_slice(), rebuilt.xty.as_slice());
        assert!(xtx_err < 1e-10, "step {step}: XᵀX relative error {xtx_err}");
        assert!(xty_err < 1e-10, "step {step}: XᵀY relative error {xty_err}");

        let eigen = &provenance.opt.as_ref().expect("opt capture").eigen;
        let fresh = SymmetricEigen::new(&normal.xtx).unwrap();
        let expected = if (1..=5).contains(&rows.len()) {
            let mut scratch = EigenUpdateScratch::default();
            let (first, rest) = rows.split_first().unwrap();
            let values = parent_eigen.values.as_slice();
            eigen_update_into(
                values,
                &parent_eigen.vectors,
                &first.0,
                first.1,
                &mut scratch,
            )
            .unwrap();
            for (x, rho) in rest {
                scratch.update(x, *rho).unwrap();
            }
            SymmetricEigen::from_update(&scratch)
        } else {
            fresh.clone()
        };
        assert_eq!(eigen.values, expected.values, "step {step}: eigenvalues");
        assert_eq!(eigen.vectors, expected.vectors, "step {step}: eigenvectors");
        let values_err = relative_max_error(eigen.values.as_slice(), fresh.values.as_slice());
        let rebuilt_err = relative_max_error(eigen.reconstruct().as_slice(), normal.xtx.as_slice());
        assert!(
            values_err < 1e-12,
            "step {step}: eigenvalue error {values_err}"
        );
        assert!(
            rebuilt_err < 1e-12,
            "step {step}: reconstruction error {rebuilt_err}"
        );
    }
}

#[test]
fn interpolation_error_respects_the_theorem4_bound() {
    let interp = PiecewiseLinearSigmoid::new(20.0, 4096);
    for case in 0..64 {
        let mut rng = Rng64::from_seed_stream(0xC004, case);
        let x = rng.uniform(-25.0, 25.0);
        let exact = PiecewiseLinearSigmoid::exact(x);
        let approx = interp.evaluate(x);
        if x.abs() <= 20.0 {
            assert!(
                (exact - approx).abs() <= interp.error_bound() * 1.01,
                "x = {x}"
            );
        } else {
            // Outside the range the interpolant is clamped to f(±20), which
            // is within 1e-8 of the true tail value.
            assert!((exact - approx).abs() < 1e-8, "x = {x}");
        }
        // Coefficients always reproduce the evaluation.
        let seg = interp.coefficients(x);
        assert!((seg.evaluate(x) - approx).abs() < 1e-15, "x = {x}");
    }
}

#[test]
fn sigmoid_and_f_coefficients_are_complementary() {
    let interp = PiecewiseLinearSigmoid::new(20.0, 2048);
    for case in 0..64 {
        let mut rng = Rng64::from_seed_stream(0xC005, case);
        let x = rng.uniform(-19.0, 19.0);
        let f = interp.coefficients(x);
        let s = interp.sigmoid_coefficients(x);
        assert!(
            (f.evaluate(x) + s.evaluate(x) - 1.0).abs() < 1e-12,
            "x = {x}"
        );
        assert!(f.slope <= 0.0);
        assert!(s.slope >= 0.0);
    }
}
