//! Named dataset / hyperparameter configurations mirroring Table 1 and
//! Table 2 of the paper.
//!
//! The sample counts and iteration counts are scaled down from the paper so
//! the whole evaluation runs on a laptop-class machine (each spec below
//! records its scaled-down `n`; [`DatasetSpec::scaled`] shrinks it
//! further); feature counts, class counts, density and batch-size *ratios*
//! follow the paper. Learning rates are re-tuned for the standardised
//! synthetic analogues (the paper itself notes that its rates had to be
//! adapted to the dirty-data setting).

use crate::dataset::{DenseDataset, SparseDataset};
use crate::synthetic::classification::{
    generate_binary_classification, generate_multiclass_classification, ClassificationConfig,
};
use crate::synthetic::regression::{generate_regression, RegressionConfig};
use crate::synthetic::sparse_text::{generate_sparse_binary, SparseConfig};

/// Training hyperparameters (Table 2: mini-batch size, iteration count,
/// learning rate `η`, regularisation rate `λ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hyperparameters {
    /// Mini-batch size `B`.
    pub batch_size: usize,
    /// Number of mb-SGD iterations `τ`.
    pub num_iterations: usize,
    /// Learning rate `η` (constant across iterations, per Lemma 1).
    pub learning_rate: f64,
    /// L2 regularisation rate `λ`.
    pub regularization: f64,
}

/// What kind of synthetic generator backs a spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GeneratorKind {
    /// Dense linear-regression data (SGEMM stand-in).
    Regression {
        /// Extra uninformative features appended to the feature space
        /// (the "SGEMM (extended)" construction).
        extra_features: usize,
    },
    /// Dense binary classification (HIGGS stand-in).
    Binary,
    /// Dense multiclass classification (Covtype / Heartbeat / CIFAR-10
    /// stand-ins).
    Multiclass {
        /// Number of classes `q`.
        num_classes: usize,
    },
    /// Sparse binary classification (RCV1 stand-in).
    SparseBinary {
        /// Average non-zeros per row.
        nnz_per_row: usize,
    },
}

/// A named dataset + hyperparameter configuration (one row of Table 1 joined
/// with the matching row of Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Experiment name as used in the paper (e.g. "Cov (large 1)").
    pub name: String,
    /// Which generator to use.
    pub kind: GeneratorKind,
    /// Number of samples `n` (scaled-down analogue).
    pub num_samples: usize,
    /// Number of base features `m`.
    pub num_features: usize,
    /// Training hyperparameters.
    pub hyper: Hyperparameters,
    /// How many times to repeat-concatenate the base dataset (the paper's
    /// "(extended)" datasets for the repeated-deletion scenario).
    pub repeat_copies: usize,
    /// Generation seed.
    pub seed: u64,
}

/// A generated dataset: dense or sparse, depending on the spec.
#[derive(Debug, Clone)]
pub enum GeneratedDataset {
    /// A dense dataset.
    Dense(DenseDataset),
    /// A sparse dataset.
    Sparse(SparseDataset),
}

impl GeneratedDataset {
    /// The dense dataset, if this is one.
    pub fn as_dense(&self) -> Option<&DenseDataset> {
        match self {
            GeneratedDataset::Dense(d) => Some(d),
            GeneratedDataset::Sparse(_) => None,
        }
    }

    /// The sparse dataset, if this is one.
    pub fn as_sparse(&self) -> Option<&SparseDataset> {
        match self {
            GeneratedDataset::Sparse(d) => Some(d),
            GeneratedDataset::Dense(_) => None,
        }
    }

    /// Number of samples.
    pub fn num_samples(&self) -> usize {
        match self {
            GeneratedDataset::Dense(d) => d.num_samples(),
            GeneratedDataset::Sparse(d) => d.num_samples(),
        }
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        match self {
            GeneratedDataset::Dense(d) => d.num_features(),
            GeneratedDataset::Sparse(d) => d.num_features(),
        }
    }
}

impl DatasetSpec {
    /// Total number of model parameters (features × classes for multinomial
    /// models), the quantity the paper's Q7 analysis varies.
    pub fn num_parameters(&self) -> usize {
        match self.kind {
            GeneratorKind::Regression { extra_features } => self.num_features + extra_features,
            GeneratorKind::Binary | GeneratorKind::SparseBinary { .. } => self.num_features,
            GeneratorKind::Multiclass { num_classes } => self.num_features * num_classes,
        }
    }

    /// Number of classes (1 for regression, 2 for binary).
    pub fn num_classes(&self) -> usize {
        match self.kind {
            GeneratorKind::Regression { .. } => 1,
            GeneratorKind::Binary | GeneratorKind::SparseBinary { .. } => 2,
            GeneratorKind::Multiclass { num_classes } => num_classes,
        }
    }

    /// Whether the backing dataset is sparse.
    pub fn is_sparse(&self) -> bool {
        matches!(self.kind, GeneratorKind::SparseBinary { .. })
    }

    /// Returns a copy with the sample count and iteration count scaled by
    /// `factor` (rounded, minimum 1 / 10 respectively). Used by the criterion
    /// micro-benches, which need much smaller workloads than the reproduction
    /// harness.
    pub fn scaled(&self, factor: f64) -> DatasetSpec {
        let mut out = self.clone();
        out.num_samples = ((self.num_samples as f64 * factor).round() as usize).max(32);
        out.hyper.num_iterations =
            ((self.hyper.num_iterations as f64 * factor).round() as usize).max(10);
        out.hyper.batch_size = out.hyper.batch_size.min(out.num_samples);
        out
    }

    /// Generates the dataset (including repeat-concatenation for the
    /// "(extended)" variants).
    pub fn generate(&self) -> GeneratedDataset {
        match self.kind {
            GeneratorKind::Regression { extra_features } => {
                let base = generate_regression(&RegressionConfig {
                    num_samples: self.num_samples,
                    num_features: self.num_features,
                    noise_std: 0.5,
                    num_noise_features: extra_features,
                    seed: self.seed,
                });
                GeneratedDataset::Dense(base.repeat(self.repeat_copies.max(1)))
            }
            GeneratorKind::Binary => {
                let base = generate_binary_classification(&ClassificationConfig {
                    num_samples: self.num_samples,
                    num_features: self.num_features,
                    num_classes: 2,
                    separation: 2.0,
                    label_noise: 1.0,
                    seed: self.seed,
                });
                GeneratedDataset::Dense(base.repeat(self.repeat_copies.max(1)))
            }
            GeneratorKind::Multiclass { num_classes } => {
                let base = generate_multiclass_classification(&ClassificationConfig {
                    num_samples: self.num_samples,
                    num_features: self.num_features,
                    num_classes,
                    separation: 2.5,
                    label_noise: 1.0,
                    seed: self.seed,
                });
                GeneratedDataset::Dense(base.repeat(self.repeat_copies.max(1)))
            }
            GeneratorKind::SparseBinary { nnz_per_row } => {
                let base = generate_sparse_binary(&SparseConfig {
                    num_samples: self.num_samples,
                    num_features: self.num_features,
                    nnz_per_row,
                    informative_fraction: 0.05,
                    seed: self.seed,
                });
                GeneratedDataset::Sparse(base)
            }
        }
    }
}

/// The catalog of all experiment configurations used in §6.
#[derive(Debug, Clone, Default)]
pub struct DatasetCatalog;

impl DatasetCatalog {
    /// All specs, in the order they appear in the paper's tables.
    pub fn all() -> Vec<DatasetSpec> {
        vec![
            Self::sgemm_original(),
            Self::sgemm_extended(),
            Self::cov_small(),
            Self::cov_large1(),
            Self::cov_large2(),
            Self::higgs(),
            Self::heartbeat(),
            Self::rcv1(),
            Self::cifar10(),
            Self::cov_extended(),
            Self::higgs_extended(),
            Self::heartbeat_extended(),
        ]
    }

    /// Looks a spec up by its (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<DatasetSpec> {
        let needle = name.to_lowercase();
        Self::all()
            .into_iter()
            .find(|s| s.name.to_lowercase() == needle)
    }

    /// SGEMM (original): dense linear regression, 18 features.
    pub fn sgemm_original() -> DatasetSpec {
        DatasetSpec {
            name: "SGEMM (original)".to_string(),
            kind: GeneratorKind::Regression { extra_features: 0 },
            num_samples: 20_000,
            num_features: 18,
            hyper: Hyperparameters {
                batch_size: 200,
                num_iterations: 400,
                learning_rate: 5e-3,
                regularization: 0.1,
            },
            repeat_copies: 1,
            seed: 101,
        }
    }

    /// SGEMM (extended): the feature space padded with 300 random features.
    pub fn sgemm_extended() -> DatasetSpec {
        DatasetSpec {
            name: "SGEMM (extended)".to_string(),
            kind: GeneratorKind::Regression {
                extra_features: 300,
            },
            num_samples: 20_000,
            num_features: 18,
            hyper: Hyperparameters {
                batch_size: 200,
                num_iterations: 400,
                learning_rate: 5e-3,
                regularization: 0.1,
            },
            repeat_copies: 1,
            seed: 102,
        }
    }

    /// Cov (small): multinomial, small mini-batch, many iterations.
    pub fn cov_small() -> DatasetSpec {
        DatasetSpec {
            name: "Cov (small)".to_string(),
            kind: GeneratorKind::Multiclass { num_classes: 7 },
            num_samples: 50_000,
            num_features: 54,
            hyper: Hyperparameters {
                batch_size: 200,
                num_iterations: 1_000,
                learning_rate: 0.1,
                regularization: 1e-3,
            },
            repeat_copies: 1,
            seed: 103,
        }
    }

    /// Cov (large 1): multinomial, large mini-batch, few iterations.
    pub fn cov_large1() -> DatasetSpec {
        DatasetSpec {
            name: "Cov (large 1)".to_string(),
            kind: GeneratorKind::Multiclass { num_classes: 7 },
            num_samples: 50_000,
            num_features: 54,
            hyper: Hyperparameters {
                batch_size: 5_000,
                num_iterations: 200,
                learning_rate: 0.1,
                regularization: 1e-3,
            },
            repeat_copies: 1,
            seed: 103,
        }
    }

    /// Cov (large 2): like Cov (large 1) with 3x the iterations.
    pub fn cov_large2() -> DatasetSpec {
        DatasetSpec {
            name: "Cov (large 2)".to_string(),
            kind: GeneratorKind::Multiclass { num_classes: 7 },
            num_samples: 50_000,
            num_features: 54,
            hyper: Hyperparameters {
                batch_size: 5_000,
                num_iterations: 600,
                learning_rate: 0.1,
                regularization: 1e-3,
            },
            repeat_copies: 1,
            seed: 103,
        }
    }

    /// HIGGS: binary, 28 features, many samples.
    pub fn higgs() -> DatasetSpec {
        DatasetSpec {
            name: "HIGGS".to_string(),
            kind: GeneratorKind::Binary,
            num_samples: 100_000,
            num_features: 28,
            hyper: Hyperparameters {
                batch_size: 2_000,
                num_iterations: 500,
                learning_rate: 0.1,
                regularization: 0.01,
            },
            repeat_copies: 1,
            seed: 104,
        }
    }

    /// Heartbeat: multinomial, 188 features, 7 classes.
    pub fn heartbeat() -> DatasetSpec {
        DatasetSpec {
            name: "Heartbeat".to_string(),
            kind: GeneratorKind::Multiclass { num_classes: 7 },
            num_samples: 15_000,
            num_features: 188,
            hyper: Hyperparameters {
                batch_size: 500,
                num_iterations: 300,
                learning_rate: 0.1,
                regularization: 0.01,
            },
            repeat_copies: 1,
            seed: 105,
        }
    }

    /// RCV1: sparse binary, large feature space.
    pub fn rcv1() -> DatasetSpec {
        DatasetSpec {
            name: "RCV1".to_string(),
            kind: GeneratorKind::SparseBinary { nnz_per_row: 60 },
            num_samples: 8_000,
            num_features: 6_000,
            hyper: Hyperparameters {
                batch_size: 500,
                num_iterations: 300,
                learning_rate: 0.05,
                regularization: 1e-4,
            },
            repeat_copies: 1,
            seed: 106,
        }
    }

    /// cifar10: dense multinomial with a large feature space.
    pub fn cifar10() -> DatasetSpec {
        DatasetSpec {
            name: "cifar10".to_string(),
            kind: GeneratorKind::Multiclass { num_classes: 10 },
            num_samples: 10_000,
            num_features: 512,
            hyper: Hyperparameters {
                batch_size: 500,
                num_iterations: 100,
                learning_rate: 0.05,
                regularization: 0.01,
            },
            repeat_copies: 1,
            seed: 107,
        }
    }

    /// Cov (extended): repeat-concatenated Cov for repeated deletions.
    pub fn cov_extended() -> DatasetSpec {
        DatasetSpec {
            name: "Cov (extended)".to_string(),
            kind: GeneratorKind::Multiclass { num_classes: 7 },
            num_samples: 50_000,
            num_features: 54,
            hyper: Hyperparameters {
                batch_size: 1_000,
                num_iterations: 800,
                learning_rate: 0.1,
                regularization: 1e-3,
            },
            repeat_copies: 2,
            seed: 103,
        }
    }

    /// HIGGS (extended): repeat-concatenated HIGGS for repeated deletions.
    pub fn higgs_extended() -> DatasetSpec {
        DatasetSpec {
            name: "HIGGS (extended)".to_string(),
            kind: GeneratorKind::Binary,
            num_samples: 100_000,
            num_features: 28,
            hyper: Hyperparameters {
                batch_size: 2_000,
                num_iterations: 1_000,
                learning_rate: 0.1,
                regularization: 0.01,
            },
            repeat_copies: 2,
            seed: 104,
        }
    }

    /// Heartbeat (extended): repeat-concatenated Heartbeat.
    pub fn heartbeat_extended() -> DatasetSpec {
        DatasetSpec {
            name: "Heartbeat (extended)".to_string(),
            kind: GeneratorKind::Multiclass { num_classes: 7 },
            num_samples: 15_000,
            num_features: 188,
            hyper: Hyperparameters {
                batch_size: 500,
                num_iterations: 500,
                learning_rate: 0.1,
                regularization: 0.01,
            },
            repeat_copies: 2,
            seed: 105,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_contains_all_paper_configurations() {
        let all = DatasetCatalog::all();
        assert_eq!(all.len(), 12);
        let names: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"SGEMM (original)"));
        assert!(names.contains(&"Cov (large 2)"));
        assert!(names.contains(&"RCV1"));
        assert!(names.contains(&"HIGGS (extended)"));
    }

    #[test]
    fn lookup_by_name_is_case_insensitive() {
        assert!(DatasetCatalog::by_name("higgs").is_some());
        assert!(DatasetCatalog::by_name("CIFAR10").is_some());
        assert!(DatasetCatalog::by_name("nope").is_none());
    }

    #[test]
    fn parameter_counts_follow_task_structure() {
        assert_eq!(DatasetCatalog::sgemm_original().num_parameters(), 18);
        assert_eq!(DatasetCatalog::sgemm_extended().num_parameters(), 318);
        assert_eq!(DatasetCatalog::cov_small().num_parameters(), 54 * 7);
        assert_eq!(DatasetCatalog::higgs().num_parameters(), 28);
        assert_eq!(DatasetCatalog::cifar10().num_parameters(), 512 * 10);
        assert_eq!(DatasetCatalog::higgs().num_classes(), 2);
        assert_eq!(DatasetCatalog::sgemm_original().num_classes(), 1);
        assert!(DatasetCatalog::rcv1().is_sparse());
        assert!(!DatasetCatalog::higgs().is_sparse());
    }

    #[test]
    fn scaled_specs_shrink_samples_and_iterations() {
        let base = DatasetCatalog::cov_small();
        let small = base.scaled(0.1);
        assert_eq!(small.num_samples, 5_000);
        assert_eq!(small.hyper.num_iterations, 100);
        assert_eq!(small.hyper.batch_size, 200);
        // Scaling far down clamps to sane minima and batch <= n.
        let tiny = base.scaled(1e-6);
        assert!(tiny.num_samples >= 32);
        assert!(tiny.hyper.num_iterations >= 10);
        assert!(tiny.hyper.batch_size <= tiny.num_samples);
    }

    #[test]
    fn generation_produces_matching_shapes() {
        let spec = DatasetCatalog::cov_small().scaled(0.01);
        let d = spec.generate();
        assert_eq!(d.num_samples(), spec.num_samples);
        assert_eq!(d.num_features(), 54);
        assert!(d.as_dense().is_some());
        assert!(d.as_sparse().is_none());

        let mut sparse_spec = DatasetCatalog::rcv1();
        sparse_spec.num_samples = 100;
        sparse_spec.num_features = 200;
        let s = sparse_spec.generate();
        assert!(s.as_sparse().is_some());
        assert!(s.as_dense().is_none());
        assert_eq!(s.num_samples(), 100);
    }

    #[test]
    fn extended_specs_repeat_the_base_dataset() {
        let mut spec = DatasetCatalog::cov_extended();
        spec.num_samples = 100;
        spec.hyper.batch_size = 10;
        let d = spec.generate();
        assert_eq!(d.num_samples(), 200);
    }
}
