//! PrIU on linear sessions (Eq. 13/14), through the engine's replay.

mod tests {
    use crate::config::{Compression, TrainerConfig};
    use crate::engine::{DeletionEngine, Method, Session, SessionBuilder};
    use crate::error::CoreError;
    use crate::metrics::compare_models;
    use priu_data::catalog::Hyperparameters;
    use priu_data::dataset::DenseDataset;
    use priu_data::dirty::random_subsets;
    use priu_data::synthetic::regression::{generate_regression, RegressionConfig};

    fn dataset() -> DenseDataset {
        generate_regression(&RegressionConfig {
            num_samples: 500,
            num_features: 8,
            noise_std: 0.1,
            seed: 42,
            ..Default::default()
        })
    }

    fn config() -> TrainerConfig {
        TrainerConfig::from_hyper(Hyperparameters {
            batch_size: 50,
            num_iterations: 250,
            learning_rate: 0.05,
            regularization: 0.05,
        })
        .with_seed(9)
    }

    fn session(config: TrainerConfig) -> Session {
        SessionBuilder::dense(dataset(), config).fit().unwrap()
    }

    #[test]
    fn removing_nothing_reproduces_the_original_model() {
        let session = session(config());
        let updated = session.update(Method::Priu, &[]).unwrap().model;
        let cmp = compare_models(session.model(), &updated).unwrap();
        assert!(cmp.l2_distance < 1e-9, "distance {}", cmp.l2_distance);
    }

    #[test]
    fn matches_retraining_closely_for_small_deletions() {
        let session = session(config());
        let removed = random_subsets(session.num_samples(), 0.02, 1, 7)[0].clone();
        let updated = session.update(Method::Priu, &removed).unwrap().model;
        let retrained = session.update(Method::Retrain, &removed).unwrap().model;
        let cmp = compare_models(&retrained, &updated).unwrap();
        // PrIU for linear regression replays the exact update rule, so the
        // only error source is floating-point accumulation.
        assert!(cmp.l2_distance < 1e-8, "distance {}", cmp.l2_distance);
        assert!(cmp.cosine_similarity > 0.999999);
    }

    #[test]
    fn matches_retraining_for_large_deletions_with_truncated_capture() {
        let session = session(config().with_compression(Compression::Exact { rank: 8 }));
        let removed = random_subsets(session.num_samples(), 0.2, 1, 11)[0].clone();
        let updated = session.update(Method::Priu, &removed).unwrap().model;
        let retrained = session.update(Method::Retrain, &removed).unwrap().model;
        let cmp = compare_models(&retrained, &updated).unwrap();
        // Full-rank truncation (rank = m) is exact.
        assert!(cmp.l2_distance < 1e-8, "distance {}", cmp.l2_distance);
    }

    #[test]
    fn duplicate_and_unsorted_removals_are_normalised() {
        let session = session(config());
        let a = session.update(Method::Priu, &[10, 3, 10, 7]).unwrap();
        let b = session.update(Method::Priu, &[3, 7, 10]).unwrap();
        assert_eq!(a.model, b.model);
    }

    #[test]
    fn invalid_removals_are_rejected() {
        let session = session(config());
        assert!(matches!(
            session.update(Method::Priu, &[9999]),
            Err(CoreError::InvalidRemoval { .. })
        ));
    }
}
