//! PrIU on sparse logistic sessions (§5.3: the linearised update rule,
//! Eq. 11), through the engine's replay.

mod tests {
    use crate::config::TrainerConfig;
    use crate::engine::{DeletionEngine, Method, Session, SessionBuilder};
    use crate::error::CoreError;
    use crate::metrics::{compare_models, sparse_classification_accuracy};
    use priu_data::catalog::Hyperparameters;
    use priu_data::dataset::SparseDataset;
    use priu_data::dirty::random_subsets;
    use priu_data::synthetic::sparse_text::{generate_sparse_binary, SparseConfig};

    fn data() -> SparseDataset {
        generate_sparse_binary(&SparseConfig {
            num_samples: 600,
            num_features: 500,
            nnz_per_row: 25,
            informative_fraction: 0.2,
            seed: 71,
        })
    }

    fn config() -> TrainerConfig {
        TrainerConfig::from_hyper(Hyperparameters {
            batch_size: 60,
            num_iterations: 250,
            learning_rate: 0.3,
            regularization: 1e-3,
        })
        .with_seed(6)
    }

    fn session(data: &SparseDataset) -> Session {
        SessionBuilder::sparse(data.clone(), config())
            .fit()
            .unwrap()
    }

    #[test]
    fn removing_nothing_reproduces_the_original_model_up_to_linearisation() {
        let session = session(&data());
        let updated = session.update(Method::Priu, &[]).unwrap().model;
        let cmp = compare_models(session.model(), &updated).unwrap();
        assert!(cmp.l2_distance < 1e-6, "distance {}", cmp.l2_distance);
    }

    #[test]
    fn matches_retraining_for_small_deletions() {
        let d = data();
        let session = session(&d);
        let removed = random_subsets(d.num_samples(), 0.05, 1, 3)[0].clone();
        let updated = session.update(Method::Priu, &removed).unwrap().model;
        let retrained = session.update(Method::Retrain, &removed).unwrap().model;
        let cmp = compare_models(&retrained, &updated).unwrap();
        assert!(
            cmp.cosine_similarity > 0.999,
            "similarity {}",
            cmp.cosine_similarity
        );
        let acc_updated = sparse_classification_accuracy(&updated, &d).unwrap();
        let acc_retrained = sparse_classification_accuracy(&retrained, &d).unwrap();
        assert!((acc_updated - acc_retrained).abs() < 0.02);
    }

    #[test]
    fn invalid_removals_are_rejected() {
        let session = session(&data());
        assert!(matches!(
            session.update(Method::Priu, &[10_000]),
            Err(CoreError::InvalidRemoval { .. })
        ));
    }
}
