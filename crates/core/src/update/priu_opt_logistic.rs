//! PrIU-opt on logistic sessions (§5.4: the PrIU replay cut at the switch
//! iteration, then the frozen-coefficient eigenbasis recursion), through
//! the engine.

mod tests {
    use crate::config::TrainerConfig;
    use crate::engine::{DeletionEngine, Method, Session, SessionBuilder};
    use crate::error::CoreError;
    use crate::metrics::{classification_accuracy, compare_models};
    use priu_data::catalog::Hyperparameters;
    use priu_data::dataset::DenseDataset;
    use priu_data::dirty::random_subsets;
    use priu_data::synthetic::classification::{
        generate_binary_classification, generate_multiclass_classification, ClassificationConfig,
    };

    fn binary_data() -> DenseDataset {
        generate_binary_classification(&ClassificationConfig {
            num_samples: 800,
            num_features: 10,
            separation: 3.0,
            label_noise: 0.5,
            seed: 61,
            ..Default::default()
        })
    }

    fn config() -> TrainerConfig {
        TrainerConfig::from_hyper(Hyperparameters {
            batch_size: 80,
            num_iterations: 300,
            learning_rate: 0.3,
            regularization: 0.02,
        })
        .with_seed(12)
    }

    fn session(data: &DenseDataset, config: TrainerConfig) -> Session {
        SessionBuilder::dense(data.clone(), config).fit().unwrap()
    }

    #[test]
    fn close_to_retraining_for_small_deletions() {
        let data = binary_data();
        let session = session(&data, config());
        let removed = random_subsets(data.num_samples(), 0.01, 1, 2)[0].clone();
        let updated = session.update(Method::PriuOpt, &removed).unwrap().model;
        let retrained = session.update(Method::Retrain, &removed).unwrap().model;
        let cmp = compare_models(&retrained, &updated).unwrap();
        assert!(
            cmp.cosine_similarity > 0.995,
            "similarity {}",
            cmp.cosine_similarity
        );
        let acc_updated = classification_accuracy(&updated, &data).unwrap();
        let acc_retrained = classification_accuracy(&retrained, &data).unwrap();
        assert!((acc_updated - acc_retrained).abs() < 0.02);
    }

    #[test]
    fn multinomial_variant_matches_retraining_direction() {
        let data = generate_multiclass_classification(&ClassificationConfig {
            num_samples: 600,
            num_features: 8,
            num_classes: 3,
            separation: 3.0,
            label_noise: 0.5,
            seed: 62,
        });
        let session = session(&data, config());
        let removed = random_subsets(data.num_samples(), 0.02, 1, 9)[0].clone();
        let updated = session.update(Method::PriuOpt, &removed).unwrap().model;
        let retrained = session.update(Method::Retrain, &removed).unwrap().model;
        let cmp = compare_models(&retrained, &updated).unwrap();
        assert!(
            cmp.cosine_similarity > 0.99,
            "similarity {}",
            cmp.cosine_similarity
        );
    }

    #[test]
    fn missing_opt_capture_is_reported() {
        let session = session(&binary_data(), config().with_opt_capture(false));
        assert!(matches!(
            session.update(Method::PriuOpt, &[1]),
            Err(CoreError::UnsupportedMethod { .. })
        ));
    }

    #[test]
    fn agrees_with_plain_priu_when_deletions_are_small() {
        let data = binary_data();
        let session = session(&data, config());
        let removed = random_subsets(data.num_samples(), 0.005, 1, 13)[0].clone();
        let plain = session.update(Method::Priu, &removed).unwrap().model;
        let opt = session.update(Method::PriuOpt, &removed).unwrap().model;
        let cmp = compare_models(&plain, &opt).unwrap();
        assert!(
            cmp.cosine_similarity > 0.995,
            "similarity {}",
            cmp.cosine_similarity
        );
    }
}
