//! Experiment runners regenerating the paper's tables and figures.
//!
//! Every runner programs against the unified [`DeletionEngine`] API: a
//! session is fitted once through [`SessionBuilder`] (the model family
//! follows the dataset's labels) and each update method is addressed through
//! the [`Method`] registry — there is no per-task dispatch left in this
//! module. The repeated-deletion scenario (Figure 4) uses the chained
//! `apply` API: each removal hands a shrunk session to the next arrival.

use priu_core::engine::{DeletionEngine, Method, Session, SessionBuilder};
use priu_core::metrics::{classification_accuracy, compare_models, mean_squared_error};
use priu_core::model::Model;
use priu_core::{CoreError, TrainerConfig};
use priu_data::catalog::{DatasetCatalog, DatasetSpec, GeneratorKind};
use priu_data::dataset::{DenseDataset, SparseDataset, TaskKind};
use priu_data::dirty::{inject_dirty_samples, random_subsets};

use crate::report::{FigureRow, RepeatedRow, Table3Row, Table4Row};

/// Global options of a reproduction run.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentOptions {
    /// Scale factor applied to every spec's sample count and iteration count
    /// (1.0 = the `DatasetCatalog` defaults).
    pub scale: f64,
    /// Whether to run the INFL baseline where it is feasible.
    pub include_influence: bool,
    /// Rescaling factor used to corrupt dirty samples.
    pub dirty_rescale: f64,
    /// Seed for dirty-sample selection and subset sampling.
    pub seed: u64,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        Self {
            scale: 1.0,
            include_influence: true,
            dirty_rescale: 10.0,
            seed: 7,
        }
    }
}

impl ExperimentOptions {
    /// Applies the scale factor to a spec.
    pub fn apply(&self, spec: &DatasetSpec) -> DatasetSpec {
        if (self.scale - 1.0).abs() < f64::EPSILON {
            spec.clone()
        } else {
            spec.scaled(self.scale)
        }
    }
}

/// The deletion rates swept by the paper's figures (0.01% to 20%).
pub fn default_deletion_rates() -> Vec<f64> {
    vec![0.0001, 0.001, 0.01, 0.05, 0.1, 0.2]
}

/// Maximum flattened parameter count for which the INFL baseline is run in
/// the figure sweeps (its Hessian is `params x params`); Table 4 overrides
/// this for the datasets the paper reports.
const INFL_FIGURE_PARAM_LIMIT: usize = 450;

fn trainer_config(spec: &DatasetSpec, options: &ExperimentOptions) -> TrainerConfig {
    // PrIU-opt capture materialises an m x m eigendecomposition per class;
    // the paper only uses PrIU (not PrIU-opt) for the very large feature
    // spaces, so skip the capture there.
    let capture_opt = spec.num_features <= 256 && !spec.is_sparse();
    let mut config = TrainerConfig::from_hyper(spec.hyper)
        .with_seed(options.seed ^ 0xA11CE)
        .with_opt_capture(capture_opt);
    if matches!(spec.kind, GeneratorKind::Regression { .. }) {
        // For linear regression the dirty samples carry very high leverage
        // (their features are rescaled), so a fixed low truncation rank can
        // violate the Theorem-6 retained-mass assumption at large deletion
        // rates; dense caching keeps the PrIU replay exact and is cheap for
        // the SGEMM-sized feature spaces.
        config = config.with_compression(priu_core::Compression::None);
    }
    config
}

fn fit_dense(dataset: DenseDataset, spec: &DatasetSpec, options: &ExperimentOptions) -> Session {
    SessionBuilder::dense(dataset, trainer_config(spec, options))
        .fit()
        .expect("training the initial model failed")
}

fn fit_sparse(dataset: SparseDataset, spec: &DatasetSpec, options: &ExperimentOptions) -> Session {
    SessionBuilder::sparse(dataset, trainer_config(spec, options))
        .fit()
        .expect("training the sparse model failed")
}

/// The methods a figure sweep runs for a session: everything the session
/// supports, filtered by the spec-level gates the paper applies (PrIU-opt
/// only up to medium feature spaces, INFL only while its Hessian stays
/// tractable).
fn figure_methods(
    session: &Session,
    spec: &DatasetSpec,
    options: &ExperimentOptions,
) -> Vec<Method> {
    session
        .supported_methods()
        .into_iter()
        .filter(|&method| match method {
            Method::PriuOpt => spec.num_features <= 256,
            Method::Influence => {
                options.include_influence && spec.num_parameters() <= INFL_FIGURE_PARAM_LIMIT
            }
            _ => true,
        })
        .collect()
}

fn split_dense(spec: &DatasetSpec, options: &ExperimentOptions) -> (DenseDataset, DenseDataset) {
    let generated = spec.generate();
    let dense = generated
        .as_dense()
        .expect("dense experiment requires a dense spec")
        .clone();
    let split = dense.split(0.9, options.seed ^ 0x5517);
    (split.train, split.validation)
}

fn quality(model: &Model, validation: &DenseDataset) -> f64 {
    match validation.task() {
        TaskKind::Regression => mean_squared_error(model, validation).unwrap_or(f64::NAN),
        _ => classification_accuracy(model, validation).unwrap_or(f64::NAN),
    }
}

fn figure_row(
    dataset: &str,
    rate: f64,
    method: &str,
    seconds: f64,
    model: &Model,
    basel: &Model,
    validation: &DenseDataset,
) -> FigureRow {
    let cmp = compare_models(basel, model).expect("models share kind and size");
    FigureRow {
        dataset: dataset.to_string(),
        deletion_rate: rate,
        method: method.to_string(),
        update_seconds: seconds,
        quality: quality(model, validation),
        distance: cmp.l2_distance,
        similarity: cmp.cosine_similarity,
    }
}

/// One figure sweep: inject dirty samples at each deletion rate, fit a
/// session on the dirtied training set, then remove exactly the dirty
/// samples with every applicable method. Shared by Figures 1-3 — the
/// session's `supported_methods` replaces the per-task dispatch the runner
/// used to hand-roll.
///
/// The per-rate sweeps are fully independent (each fits its own session on
/// its own dirtied copy), so they fan out across the persistent worker
/// pool via [`priu_linalg::par::run_tasks`]; rows come back in rate order
/// regardless of execution order. With `PRIU_THREADS=1` (the
/// timing-fidelity configuration) the tasks run inline sequentially,
/// exactly as before; with more threads the sweep trades per-point timing
/// isolation for wall-clock throughput — the produced models are bitwise
/// unaffected either way, because every kernel's computation tree is
/// thread-independent.
fn figure_sweep(spec: &DatasetSpec, rates: &[f64], options: &ExperimentOptions) -> Vec<FigureRow> {
    let spec = options.apply(spec);
    let (train, validation) = split_dense(&spec, options);
    if priu_linalg::par::current_threads() > 1 && rates.len() > 1 {
        // Make the fidelity trade-off visible at runtime, not only in docs:
        // concurrently timed sweeps contend for cores and their kernels run
        // inline on pool workers, so per-point update times are throughput
        // numbers, not isolated latencies.
        eprintln!(
            "note: {} sweep fans {} rates across {} threads; per-point update times \
             contend — set PRIU_THREADS=1 for timing-fidelity figures",
            spec.name,
            rates.len(),
            priu_linalg::par::current_threads()
        );
    }
    let rate_tasks: Vec<_> = rates
        .iter()
        .map(|&rate| {
            let (train, validation, spec) = (&train, &validation, &spec);
            move || -> Vec<FigureRow> {
                let mut rows = Vec::new();
                let injection =
                    inject_dirty_samples(train, rate, options.dirty_rescale, options.seed);
                let session = fit_dense(injection.dirty_dataset.clone(), spec, options);
                let removed = &injection.dirty_indices;

                let basel = session
                    .update(Method::Retrain, removed)
                    .expect("BaseL retraining failed");
                for method in figure_methods(&session, spec, options) {
                    let outcome = if method == Method::Retrain {
                        basel.clone()
                    } else {
                        match session.update(method, removed) {
                            Ok(outcome) => outcome,
                            // PrIU-opt can hit a singular incremental
                            // eigenproblem at extreme deletion rates; the
                            // paper simply omits those points. Any other
                            // failure is a real regression.
                            Err(CoreError::Linalg(error)) if method == Method::PriuOpt => {
                                eprintln!(
                                    "skipping {method} on {} at rate {rate}: {error}",
                                    spec.name
                                );
                                continue;
                            }
                            Err(error) => panic!("{method} update failed: {error}"),
                        }
                    };
                    rows.push(figure_row(
                        &spec.name,
                        rate,
                        method.name(),
                        outcome.duration.as_secs_f64(),
                        &outcome.model,
                        &basel.model,
                        validation,
                    ));
                }
                rows
            }
        })
        .collect();
    priu_linalg::par::run_tasks(rate_tasks)
        .into_iter()
        .flatten()
        .collect()
}

/// Figure 1 (a/b): update time for linear regression on the SGEMM analogue,
/// sweeping the deletion rate; methods BaseL, PrIU, PrIU-opt, Closed-form and
/// (optionally) INFL.
pub fn fig1_linear(
    spec: &DatasetSpec,
    rates: &[f64],
    options: &ExperimentOptions,
) -> Vec<FigureRow> {
    figure_sweep(spec, rates, options)
}

/// Figures 2 and 3a/3b: update time for (binary or multinomial) logistic
/// regression on a dense dataset, sweeping the deletion rate.
pub fn fig2_and_3_logistic(
    spec: &DatasetSpec,
    rates: &[f64],
    options: &ExperimentOptions,
) -> Vec<FigureRow> {
    figure_sweep(spec, rates, options)
}

/// Figure 3c: the extremely large feature spaces — RCV1 (sparse) and cifar10
/// (dense) — at deletion rate 0.1%, PrIU vs BaseL only.
pub fn fig3c_large_feature_space(
    sparse_spec: &DatasetSpec,
    dense_spec: &DatasetSpec,
    options: &ExperimentOptions,
) -> Vec<FigureRow> {
    let rate = 0.001;
    let mut rows = Vec::new();

    // Sparse: RCV1 analogue.
    let sparse_spec = options.apply(sparse_spec);
    let sparse: SparseDataset = sparse_spec
        .generate()
        .as_sparse()
        .expect("RCV1 spec must be sparse")
        .clone();
    let removed = random_subsets(sparse.num_samples(), rate, 1, options.seed)[0].clone();
    let session = fit_sparse(sparse, &sparse_spec, options);
    let basel = session
        .update(Method::Retrain, &removed)
        .expect("BaseL retraining failed");
    let priu = session
        .update(Method::Priu, &removed)
        .expect("PrIU update failed");
    for outcome in [&basel, &priu] {
        let cmp = compare_models(&basel.model, &outcome.model).expect("same kind");
        rows.push(FigureRow {
            dataset: sparse_spec.name.clone(),
            deletion_rate: rate,
            method: outcome.method.name().to_string(),
            update_seconds: outcome.duration.as_secs_f64(),
            quality: priu_core::metrics::sparse_classification_accuracy(
                &outcome.model,
                session.sparse_dataset().expect("sparse session"),
            )
            .unwrap_or(f64::NAN),
            distance: cmp.l2_distance,
            similarity: cmp.cosine_similarity,
        });
    }

    // Dense: cifar10 analogue (PrIU with randomized compression, no opt).
    let dense_spec = options.apply(dense_spec);
    let (train, validation) = split_dense(&dense_spec, options);
    let injection = inject_dirty_samples(&train, rate, options.dirty_rescale, options.seed);
    let session = fit_dense(injection.dirty_dataset, &dense_spec, options);
    let removed = &injection.dirty_indices;
    let basel = session
        .update(Method::Retrain, removed)
        .expect("BaseL retraining failed");
    let priu = session
        .update(Method::Priu, removed)
        .expect("PrIU update failed");
    for outcome in [&basel, &priu] {
        rows.push(figure_row(
            &dense_spec.name,
            rate,
            outcome.method.name(),
            outcome.duration.as_secs_f64(),
            &outcome.model,
            &basel.model,
            &validation,
        ));
    }
    rows
}

/// Figure 4: repeatedly removing ten random subsets (0.1% each) from the
/// extended datasets — cumulative update time of PrIU / PrIU-opt vs
/// retraining each time.
///
/// This is the chained-deletion scenario: every removal is consumed with
/// [`DeletionEngine::apply`], handing a session over the survivors (with
/// provenance shrunk accordingly) to the next arrival, so each subset is
/// drawn from — and indexed against — the *current* training set. When the
/// logistic PrIU-opt capture is dropped by the first `apply`, the chain
/// falls back to plain PrIU, which `supported_methods` makes discoverable.
pub fn fig4_repeated(specs: &[DatasetSpec], options: &ExperimentOptions) -> Vec<RepeatedRow> {
    let num_subsets = 10usize;
    let mut rows = Vec::new();
    for spec in specs {
        let spec = options.apply(spec);
        let (train, _validation) = split_dense(&spec, options);
        let session = fit_dense(train, &spec, options);
        let use_opt = spec.num_features <= 256 && session.supports(Method::PriuOpt);

        // Returns the cumulative online time plus the distinct methods the
        // chain actually ran, in first-use order. A logistic chain that
        // starts with PrIU-opt drops that capture on the first apply and
        // falls back to plain PrIU, and its label must say so.
        let chain_total =
            |mut chained: Session, prefer_opt: bool, retrain: bool| -> (f64, String) {
                let mut total = 0.0;
                let mut used: Vec<&'static str> = Vec::new();
                for k in 0..num_subsets {
                    let subset = random_subsets(
                        chained.num_samples(),
                        0.001,
                        1,
                        options.seed ^ 0xF16 ^ k as u64,
                    )[0]
                    .clone();
                    let method = if retrain {
                        Method::Retrain
                    } else if prefer_opt && chained.supports(Method::PriuOpt) {
                        Method::PriuOpt
                    } else {
                        Method::Priu
                    };
                    if !used.contains(&method.name()) {
                        used.push(method.name());
                    }
                    let step = chained
                        .apply(method, &subset)
                        .expect("chained deletion failed");
                    total += step.outcome.duration.as_secs_f64();
                    chained = step.session;
                }
                (total, used.join("→"))
            };

        let (basel_total, basel_label) = chain_total(session.clone(), false, true);
        let (priu_total, priu_label) = chain_total(session, use_opt, false);

        rows.push(RepeatedRow {
            dataset: spec.name.clone(),
            method: basel_label,
            num_subsets,
            total_seconds: basel_total,
        });
        rows.push(RepeatedRow {
            dataset: spec.name.clone(),
            method: priu_label,
            num_subsets,
            total_seconds: priu_total,
        });
    }
    rows
}

/// Table 1: the dataset summary (name, features, classes, samples) of the
/// scaled analogues.
pub fn table1(options: &ExperimentOptions) -> Vec<(String, usize, usize, usize, bool)> {
    DatasetCatalog::all()
        .iter()
        .map(|spec| {
            let s = options.apply(spec);
            (
                s.name.clone(),
                s.num_parameters() / s.num_classes().max(1),
                s.num_classes(),
                s.num_samples * s.repeat_copies.max(1),
                s.is_sparse(),
            )
        })
        .collect()
}

/// Table 2: the hyperparameters of every configuration.
pub fn table2(options: &ExperimentOptions) -> Vec<(String, usize, usize, f64, f64)> {
    DatasetCatalog::all()
        .iter()
        .map(|spec| {
            let s = options.apply(spec);
            (
                s.name.clone(),
                s.hyper.batch_size,
                s.hyper.num_iterations,
                s.hyper.learning_rate,
                s.hyper.regularization,
            )
        })
        .collect()
}

/// Table 3: memory consumption of the captured provenance vs the baseline's
/// working set, per configuration.
pub fn table3_memory(specs: &[DatasetSpec], options: &ExperimentOptions) -> Vec<Table3Row> {
    let mut rows = Vec::new();
    for spec in specs {
        let spec = options.apply(spec);
        let mib = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
        let (basel_bytes, prov_bytes) = if spec.is_sparse() {
            let sparse = spec.generate().as_sparse().unwrap().clone();
            let basel = sparse.x.nnz() * 16 + sparse.num_samples() * 8;
            let session = fit_sparse(sparse, &spec, options);
            (basel, session.provenance_bytes())
        } else {
            let (train, _) = split_dense(&spec, options);
            let basel = train.num_samples() * (train.num_features() + 1) * 8;
            let session = fit_dense(train, &spec, options);
            (basel, session.provenance_bytes())
        };
        rows.push(Table3Row {
            dataset: spec.name.clone(),
            basel_mib: mib(basel_bytes),
            provenance_mib: mib(prov_bytes),
            ratio: prov_bytes as f64 / basel_bytes.max(1) as f64,
        });
    }
    rows
}

/// Table 4: validation quality, parameter distance and cosine similarity of
/// PrIU/PrIU-opt vs INFL against BaseL at deletion rate 0.2.
pub fn table4_accuracy(specs: &[DatasetSpec], options: &ExperimentOptions) -> Vec<Table4Row> {
    let rate = 0.2;
    let mut rows = Vec::new();
    for spec in specs {
        let spec = options.apply(spec);
        let (train, validation) = split_dense(&spec, options);
        let injection = inject_dirty_samples(&train, rate, options.dirty_rescale, options.seed);
        let removed = &injection.dirty_indices;

        let session = fit_dense(injection.dirty_dataset.clone(), &spec, options);
        let basel = session
            .update(Method::Retrain, removed)
            .expect("BaseL retraining failed")
            .model;
        // Prefer PrIU-opt where captured, falling back to plain PrIU — the
        // same preference the paper's table applies.
        let priu = session
            .update(Method::PriuOpt, removed)
            .or_else(|_| session.update(Method::Priu, removed))
            .expect("PrIU update failed")
            .model;
        let infl = (options.include_influence && session.supports(Method::Influence)).then(|| {
            session
                .update(Method::Influence, removed)
                .expect("INFL update failed")
                .model
        });

        let priu_cmp = compare_models(&basel, &priu).expect("same kind");
        let (infl_quality, infl_distance, infl_similarity) = match &infl {
            Some(model) => {
                let cmp = compare_models(&basel, model).expect("same kind");
                (
                    quality(model, &validation),
                    cmp.l2_distance,
                    cmp.cosine_similarity,
                )
            }
            None => (f64::NAN, f64::NAN, f64::NAN),
        };
        rows.push(Table4Row {
            dataset: spec.name.clone(),
            basel_quality: quality(&basel, &validation),
            priu_quality: quality(&priu, &validation),
            infl_quality,
            priu_distance: priu_cmp.l2_distance,
            infl_distance,
            priu_similarity: priu_cmp.cosine_similarity,
            infl_similarity,
            priu_sign_flips: priu_cmp.drift.sign_flips,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options() -> ExperimentOptions {
        ExperimentOptions {
            scale: 0.01,
            include_influence: true,
            dirty_rescale: 10.0,
            seed: 3,
        }
    }

    #[test]
    fn tables_1_and_2_cover_the_whole_catalog() {
        let options = ExperimentOptions::default();
        assert_eq!(table1(&options).len(), 12);
        assert_eq!(table2(&options).len(), 12);
    }

    #[test]
    fn fig1_produces_rows_for_every_method_and_rate() {
        let rows = fig1_linear(
            &DatasetCatalog::sgemm_original(),
            &[0.01, 0.1],
            &tiny_options(),
        );
        // 5 methods × 2 rates.
        assert_eq!(rows.len(), 10);
        let basel: Vec<&FigureRow> = rows.iter().filter(|r| r.method == "BaseL").collect();
        assert_eq!(basel.len(), 2);
        // PrIU stays very close to BaseL on linear regression.
        for row in rows.iter().filter(|r| r.method == "PrIU") {
            assert!(row.similarity > 0.99, "similarity {}", row.similarity);
        }
    }

    #[test]
    fn fig2_produces_rows_for_a_multinomial_dataset() {
        let rows = fig2_and_3_logistic(&DatasetCatalog::cov_small(), &[0.05], &tiny_options());
        let methods: Vec<&str> = rows.iter().map(|r| r.method.as_str()).collect();
        assert!(methods.contains(&"BaseL"));
        assert!(methods.contains(&"PrIU"));
        assert!(methods.contains(&"PrIU-opt"));
        assert!(methods.contains(&"INFL"));
        // The engine knows closed-form is linear-only; no row may claim it.
        assert!(!methods.contains(&"Closed-form"));
        for row in &rows {
            assert!(row.update_seconds >= 0.0);
            assert!(row.quality.is_finite());
        }
    }

    #[test]
    fn fig4_chains_ten_subsets_per_method() {
        let rows = fig4_repeated(&[DatasetCatalog::higgs_extended()], &tiny_options());
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.num_subsets, 10);
            assert!(row.total_seconds > 0.0);
        }
        assert_eq!(rows[0].method, "BaseL");
    }

    #[test]
    fn table3_reports_positive_memory() {
        let rows = table3_memory(&[DatasetCatalog::higgs()], &tiny_options());
        assert_eq!(rows.len(), 1);
        assert!(rows[0].provenance_mib > 0.0);
        assert!(rows[0].ratio > 0.0);
    }

    #[test]
    fn table4_compares_priu_and_infl() {
        let rows = table4_accuracy(&[DatasetCatalog::higgs()], &tiny_options());
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(row.priu_similarity > row.infl_similarity || row.infl_similarity.is_nan());
        assert!(row.priu_distance <= row.infl_distance || row.infl_distance.is_nan());
    }
}
