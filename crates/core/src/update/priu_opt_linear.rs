//! PrIU-opt on linear sessions (§5.2, Eq. 15-18), through the engine.

mod tests {
    use crate::config::TrainerConfig;
    use crate::engine::{DeletionEngine, Method, Session, SessionBuilder};
    use crate::error::CoreError;
    use crate::metrics::{compare_models, mean_squared_error};
    use priu_data::catalog::Hyperparameters;
    use priu_data::dataset::DenseDataset;
    use priu_data::dirty::random_subsets;
    use priu_data::synthetic::regression::{generate_regression, RegressionConfig};

    fn dataset() -> DenseDataset {
        generate_regression(&RegressionConfig {
            num_samples: 600,
            num_features: 10,
            noise_std: 0.1,
            seed: 17,
            ..Default::default()
        })
    }

    fn config() -> TrainerConfig {
        TrainerConfig::from_hyper(Hyperparameters {
            batch_size: 60,
            num_iterations: 400,
            learning_rate: 0.05,
            regularization: 0.05,
        })
        .with_seed(2)
    }

    fn session(config: TrainerConfig) -> Session {
        SessionBuilder::dense(dataset(), config).fit().unwrap()
    }

    #[test]
    fn close_to_retraining_for_small_deletions() {
        let data = dataset();
        let session = session(config());
        let removed = random_subsets(data.num_samples(), 0.01, 1, 5)[0].clone();
        let updated = session.update(Method::PriuOpt, &removed).unwrap().model;
        let retrained = session.update(Method::Retrain, &removed).unwrap().model;
        let cmp = compare_models(&retrained, &updated).unwrap();
        assert!(
            cmp.cosine_similarity > 0.999,
            "similarity {}",
            cmp.cosine_similarity
        );
        // PrIU-opt swaps mb-SGD for its GD approximation, so the updated
        // parameters sit within the SGD noise ball around the retrained ones
        // rather than coinciding exactly (§5.2, "statistically the same").
        assert!(cmp.l2_distance < 0.2, "distance {}", cmp.l2_distance);
        // Predictive quality matches retraining (Q1/Q3).
        let kept: Vec<usize> = (0..data.num_samples())
            .filter(|i| !removed.contains(i))
            .collect();
        let remaining = data.select(&kept);
        let mse_updated = mean_squared_error(&updated, &remaining).unwrap();
        let mse_retrained = mean_squared_error(&retrained, &remaining).unwrap();
        assert!(
            mse_updated < 1.5 * mse_retrained + 0.01,
            "mse updated {mse_updated} vs retrained {mse_retrained}"
        );
    }

    #[test]
    fn removing_nothing_stays_close_to_the_original_model() {
        // PrIU-opt approximates mb-SGD by GD, so even the empty deletion is
        // only statistically identical (§5.2); the models must still be very
        // similar in direction and predictive quality.
        let session = session(config());
        let updated = session.update(Method::PriuOpt, &[]).unwrap().model;
        let cmp = compare_models(session.model(), &updated).unwrap();
        assert!(
            cmp.cosine_similarity > 0.999,
            "similarity {}",
            cmp.cosine_similarity
        );
    }

    #[test]
    fn missing_capture_is_reported() {
        let session = session(config().with_opt_capture(false));
        assert!(matches!(
            session.update(Method::PriuOpt, &[0]),
            Err(CoreError::UnsupportedMethod { .. })
        ));
    }

    #[test]
    fn removing_everything_is_rejected() {
        let session = session(config());
        let everything: Vec<usize> = (0..session.num_samples()).collect();
        assert!(session.update(Method::PriuOpt, &everything).is_err());
    }
}
