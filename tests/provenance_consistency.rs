//! Cross-crate consistency: the optimized PrIU path (cached contributions),
//! the provenance-annotated reference implementation (explicit token
//! zeroing-out), and retraining from scratch must all tell the same story.

use priu::core::reference::AnnotatedLinearGd;
use priu::core::{DeletionEngine, LinearEngine, Method, TrainerConfig};
use priu::data::catalog::Hyperparameters;
use priu::data::synthetic::regression::{generate_regression, RegressionConfig};
use priu::provenance::Valuation;

fn tiny_dataset() -> priu::data::dataset::DenseDataset {
    generate_regression(&RegressionConfig {
        num_samples: 24,
        num_features: 4,
        noise_std: 0.05,
        seed: 123,
        ..Default::default()
    })
}

/// Full-batch gradient descent expressed three ways: (a) the provenance-
/// annotated reference with zeroed-out tokens, (b) PrIU over a full-batch
/// schedule, (c) plain retraining over the survivors. All three must agree
/// to within floating-point noise for linear regression, where no
/// linearisation is involved.
#[test]
fn annotated_reference_priu_and_retraining_agree_on_full_batch_gd() {
    let data = tiny_dataset();
    let eta = 0.04;
    let lambda = 0.02;
    let iterations = 120;
    let removed = vec![2usize, 5, 13, 17];

    // (a) Annotated reference.
    let reference = AnnotatedLinearGd::build(&data, eta, lambda, iterations).unwrap();
    let annotated = reference.update_after_deletion(&removed).unwrap();

    // (b)/(c) PrIU and BaseL over a full-batch (GD) schedule.
    let config = TrainerConfig::from_hyper(Hyperparameters {
        batch_size: data.num_samples(),
        num_iterations: iterations,
        learning_rate: eta,
        regularization: lambda,
    })
    .with_opt_capture(false);
    let session = LinearEngine::fit(data.clone(), config).unwrap();
    let priu = session.update(Method::Priu, &removed).unwrap().model;
    let retrained = session.update(Method::Retrain, &removed).unwrap().model;

    let ab = (&annotated.flatten() - &priu.flatten()).norm_inf();
    let ac = (&annotated.flatten() - &retrained.flatten()).norm_inf();
    assert!(ab < 1e-9, "annotated vs PrIU differ by {ab}");
    assert!(ac < 1e-9, "annotated vs retrained differ by {ac}");
}

/// Deleting via a `Valuation` (token-level) and via sample indices must be
/// the same operation.
#[test]
fn valuation_deletion_equals_index_deletion() {
    let data = tiny_dataset();
    let reference = AnnotatedLinearGd::build(&data, 0.05, 0.01, 50).unwrap();
    let by_index = reference.update_after_deletion(&[1, 6]).unwrap();
    let valuation = Valuation::deleting([reference.tokens()[1], reference.tokens()[6]]);
    let by_valuation = reference.model_for_valuation(&valuation).unwrap();
    assert_eq!(by_index, by_valuation);
}

/// Deletions compose: removing R1 ∪ R2 in one go equals building the
/// valuation incrementally.
#[test]
fn deletions_compose_across_valuations() {
    let data = tiny_dataset();
    let reference = AnnotatedLinearGd::build(&data, 0.05, 0.01, 50).unwrap();
    let together = reference.update_after_deletion(&[0, 3, 9, 20]).unwrap();
    let mut valuation = Valuation::all_present();
    for &i in &[0usize, 3, 9, 20] {
        valuation.delete(reference.tokens()[i]);
    }
    let stepwise = reference.model_for_valuation(&valuation).unwrap();
    assert_eq!(together, stepwise);
}
