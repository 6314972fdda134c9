//! PrIU on binary and multinomial logistic sessions (Eq. 19/20), through
//! the engine's replay.

mod tests {
    use crate::config::{Compression, TrainerConfig};
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
            num_samples: 600,
            num_features: 10,
            separation: 3.0,
            label_noise: 0.5,
            seed: 51,
            ..Default::default()
        })
    }

    fn multi_data() -> DenseDataset {
        generate_multiclass_classification(&ClassificationConfig {
            num_samples: 700,
            num_features: 12,
            num_classes: 3,
            separation: 3.0,
            label_noise: 0.5,
            seed: 52,
        })
    }

    fn config() -> TrainerConfig {
        TrainerConfig::from_hyper(Hyperparameters {
            batch_size: 64,
            num_iterations: 250,
            learning_rate: 0.3,
            regularization: 0.01,
        })
        .with_seed(8)
    }

    fn session(data: &DenseDataset, config: TrainerConfig) -> Session {
        SessionBuilder::dense(data.clone(), config).fit().unwrap()
    }

    #[test]
    fn removing_nothing_reproduces_the_original_model_up_to_linearisation() {
        let session = session(&binary_data(), config());
        let updated = session.update(Method::Priu, &[]).unwrap().model;
        let cmp = compare_models(session.model(), &updated).unwrap();
        // Theorem 4: the only gap is the O((Δx)²) interpolation error.
        assert!(cmp.l2_distance < 1e-6, "distance {}", cmp.l2_distance);
    }

    #[test]
    fn binary_update_matches_retraining() {
        let data = binary_data();
        let session = session(&data, config());
        let removed = random_subsets(data.num_samples(), 0.05, 1, 3)[0].clone();
        let updated = session.update(Method::Priu, &removed).unwrap().model;
        let retrained = session.update(Method::Retrain, &removed).unwrap().model;
        let cmp = compare_models(&retrained, &updated).unwrap();
        assert!(
            cmp.cosine_similarity > 0.999,
            "similarity {}",
            cmp.cosine_similarity
        );
        // Validation accuracy is preserved (Q3).
        let acc_updated = classification_accuracy(&updated, &data).unwrap();
        let acc_retrained = classification_accuracy(&retrained, &data).unwrap();
        assert!((acc_updated - acc_retrained).abs() < 0.02);
    }

    #[test]
    fn multinomial_update_matches_retraining() {
        let data = multi_data();
        let session = session(&data, config());
        let removed = random_subsets(data.num_samples(), 0.05, 1, 4)[0].clone();
        let updated = session.update(Method::Priu, &removed).unwrap().model;
        let retrained = session.update(Method::Retrain, &removed).unwrap().model;
        let cmp = compare_models(&retrained, &updated).unwrap();
        assert!(
            cmp.cosine_similarity > 0.995,
            "similarity {}",
            cmp.cosine_similarity
        );
        assert_eq!(cmp.drift.sign_flips, 0);
    }

    #[test]
    fn truncated_capture_still_matches_retraining() {
        let data = binary_data();
        let cfg = config().with_compression(Compression::Randomized {
            rank: 10,
            oversample: 6,
        });
        let session = session(&data, cfg);
        let removed = random_subsets(data.num_samples(), 0.05, 1, 6)[0].clone();
        let updated = session.update(Method::Priu, &removed).unwrap().model;
        let retrained = session.update(Method::Retrain, &removed).unwrap().model;
        let cmp = compare_models(&retrained, &updated).unwrap();
        assert!(
            cmp.cosine_similarity > 0.99,
            "similarity {}",
            cmp.cosine_similarity
        );
    }

    #[test]
    fn invalid_removals_are_rejected() {
        let session = session(&binary_data(), config());
        assert!(matches!(
            session.update(Method::Priu, &[100_000]),
            Err(CoreError::InvalidRemoval { .. })
        ));
    }
}
