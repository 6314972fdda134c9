//! Golden delta chains for every engine family and method.
//!
//! Each family runs, for every method in the registry, a fixed three-step
//! `apply_delta` chain — removal only, then addition only, then a mixed
//! delta that also deletes rows the addition appended. Every step records
//!
//! * the `update_delta` and `apply_delta` outcome weights, as `f64` bits;
//! * a 64-bit FNV-1a digest of the successor's `to_snapshot_bytes()`
//!   without its trailing 8-byte training time (the only field that
//!   depends on the clock);
//!
//! or, where the session rejects the step (an unsupported method, a
//! capture the successor dropped), the error's `Debug` form. A chain that
//! fails a step keeps its current session for the next one. A fixed set of
//! invalid deltas per family pins the validation errors the same way.
//!
//! Everything runs under `simd::with_level(SimdLevel::Portable)`; the
//! kernels are bitwise reproducible across thread counts per SIMD level,
//! so the one fixture holds for every `PRIU_THREADS`. The committed test
//! only compares: `fixtures/engine_golden.txt` was written by running
//! [`render`] on the engine code that predates the shared delta pipeline.
//! Seven linear lines — every step-0 snapshot digest and PrIU-opt's step-1
//! model and digest — were re-captured when deltas of at most five rows
//! began carrying the PrIU-opt eigenbasis by rank-one updates (the 5-row
//! step 0 takes that path; its successor's eigenpairs differ from a fresh
//! decomposition in the last bits). The four linear `non-finite` lines
//! other than closed form's were re-captured when `apply_delta` split into
//! a fallible stage and an infallible finish: the appended GD steps now run
//! before the successor's capture refresh, so they fail first with
//! `Diverged`, as every other family's already did. The eight multinomial
//! BaseL model lines were re-captured when BaseL began running the
//! trainer's GD step, whose softmax normalises by the log-sum-exp instead
//! of dividing by the sum; the linear, binary and sparse BaseL lines kept
//! their bits.

use priu_core::{
    ChainedUpdate, DeletionEngine, Delta, DeltaRows, Method, Session, SessionBuilder, StagedDelta,
    TrainerConfig,
};
use priu_data::catalog::Hyperparameters;
use priu_data::dataset::{DenseDataset, Labels, SparseDataset};
use priu_data::synthetic::classification::{
    generate_binary_classification, generate_multiclass_classification, ClassificationConfig,
};
use priu_data::synthetic::regression::{generate_regression, RegressionConfig};
use priu_data::synthetic::sparse_text::{generate_sparse_binary, SparseConfig};
use priu_linalg::simd::{self, SimdLevel};
use priu_linalg::{CsrMatrix, Matrix, Vector};

const GOLDEN: &str = include_str!("fixtures/engine_golden.txt");

const N: usize = 120;
const ADDED: usize = 30;
const MIXED_ADDED: usize = 11;

fn hyper(learning_rate: f64) -> TrainerConfig {
    TrainerConfig::from_hyper(Hyperparameters {
        batch_size: 24,
        num_iterations: 40,
        learning_rate,
        regularization: 0.05,
    })
}

/// One engine family: how to fit it and how to draw rows for it.
struct Family {
    label: &'static str,
    fit: fn() -> Session,
    rows: fn(usize, u64) -> DeltaRows,
    /// Rows of the wrong label kind, wrong width and wrong storage.
    invalid: fn() -> Vec<(&'static str, DeltaRows)>,
}

fn regression(n: usize, m: usize, seed: u64) -> DenseDataset {
    generate_regression(&RegressionConfig {
        num_samples: n,
        num_features: m,
        noise_std: 0.1,
        seed,
        ..Default::default()
    })
}

fn binary(n: usize, m: usize, seed: u64) -> DenseDataset {
    generate_binary_classification(&ClassificationConfig {
        num_samples: n,
        num_features: m,
        separation: 3.0,
        label_noise: 0.5,
        seed,
        ..Default::default()
    })
}

fn multiclass(n: usize, seed: u64) -> DenseDataset {
    generate_multiclass_classification(&ClassificationConfig {
        num_samples: n,
        num_features: 5,
        num_classes: 4,
        separation: 3.0,
        label_noise: 0.5,
        seed,
    })
}

fn sparse_rows(n: usize, m: usize, seed: u64) -> SparseDataset {
    generate_sparse_binary(&SparseConfig {
        num_samples: n,
        num_features: m,
        nnz_per_row: 12,
        informative_fraction: 0.2,
        seed,
    })
}

fn sparse_stub(m: usize) -> DeltaRows {
    DeltaRows::Sparse(SparseDataset::new(
        CsrMatrix::from_dense(&Matrix::from_fn(2, m, |i, j| (i + j) as f64)),
        Labels::Binary(Vector::from_vec(vec![1.0, -1.0])),
    ))
}

fn families() -> Vec<Family> {
    vec![
        Family {
            label: "linear",
            fit: || {
                SessionBuilder::dense(regression(N, 5, 11), hyper(0.05))
                    .seed(4)
                    .opt_capture(true)
                    .closed_form_capture(true)
                    .fit()
                    .expect("linear fixture")
            },
            rows: |k, seed| DeltaRows::Dense(regression(k, 5, seed)),
            invalid: || {
                vec![
                    ("labels", DeltaRows::Dense(binary(3, 5, 91))),
                    ("width", DeltaRows::Dense(regression(3, 4, 92))),
                    ("storage", sparse_stub(5)),
                ]
            },
        },
        Family {
            label: "binary",
            fit: || {
                SessionBuilder::dense(binary(N, 6, 21), hyper(0.3))
                    .seed(5)
                    .opt_capture(true)
                    .fit()
                    .expect("binary fixture")
            },
            rows: |k, seed| DeltaRows::Dense(binary(k, 6, seed)),
            invalid: || {
                vec![
                    ("labels", DeltaRows::Dense(regression(3, 6, 93))),
                    ("width", DeltaRows::Dense(binary(3, 5, 94))),
                    ("storage", sparse_stub(6)),
                ]
            },
        },
        Family {
            label: "multinomial",
            fit: || {
                SessionBuilder::dense(multiclass(N, 31), hyper(0.3))
                    .seed(6)
                    .fit()
                    .expect("multinomial fixture")
            },
            rows: |k, seed| DeltaRows::Dense(multiclass(k, seed)),
            invalid: || {
                vec![
                    ("labels", DeltaRows::Dense(binary(3, 5, 95))),
                    ("width", DeltaRows::Dense(binary(3, 4, 96))),
                    ("storage", sparse_stub(5)),
                ]
            },
        },
        Family {
            label: "sparse",
            fit: || {
                SessionBuilder::sparse(sparse_rows(N, 300, 41), hyper(0.3))
                    .seed(7)
                    .fit()
                    .expect("sparse fixture")
            },
            rows: |k, seed| DeltaRows::Sparse(sparse_rows(k, 300, seed)),
            invalid: || {
                vec![
                    (
                        "labels",
                        DeltaRows::Sparse(SparseDataset::new(
                            CsrMatrix::from_dense(&Matrix::from_fn(2, 300, |i, j| {
                                ((i + j) % 7) as f64
                            })),
                            Labels::Continuous(Vector::from_vec(vec![0.5, -0.5])),
                        )),
                    ),
                    ("width", DeltaRows::Sparse(sparse_rows(3, 200, 97))),
                    ("storage", DeltaRows::Dense(binary(3, 300, 98))),
                ]
            },
        },
    ]
}

/// `rows` with one feature value replaced by NaN.
fn poisoned(rows: DeltaRows) -> DeltaRows {
    match rows {
        DeltaRows::Dense(mut rows) => {
            rows.x[(1, 2)] = f64::NAN;
            DeltaRows::Dense(rows)
        }
        DeltaRows::Sparse(rows) => {
            let mut x = rows.x.to_dense();
            x[(1, 2)] = f64::NAN;
            DeltaRows::Sparse(SparseDataset::new(CsrMatrix::from_dense(&x), rows.labels))
        }
    }
}

fn bits(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect::<Vec<_>>()
        .join(",")
}

/// FNV-1a over the snapshot bytes, training time excluded.
fn snapshot_digest(session: &Session) -> u64 {
    let bytes = session.to_snapshot_bytes();
    bytes[..bytes.len() - 8]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The three chain deltas for a session of `n` rows at step `step`.
fn chain_delta(family: &Family, step: usize, n: usize) -> Delta {
    match step {
        0 => Delta::removal(&[3, 17, 40, 41, 99]),
        1 => Delta::addition((family.rows)(ADDED, 61)),
        _ => Delta::mixed(
            &[0, 50, n - 2, n - 1, n - ADDED],
            (family.rows)(MIXED_ADDED, 62),
        ),
    }
}

/// Records one `update_delta` and one `apply_delta` of `delta`; returns the
/// successor when the apply succeeds.
fn record(
    lines: &mut Vec<String>,
    tag: &str,
    session: &Session,
    method: Method,
    delta: &Delta,
) -> Option<Session> {
    let update = match session.update_delta(method, delta) {
        Ok(outcome) => bits(&outcome.model.flatten()),
        Err(e) => format!("{e:?}"),
    };
    lines.push(format!("{tag} update={update}"));
    match session.apply_delta(method, delta) {
        Ok(chained) => {
            lines.push(format!(
                "{tag} apply={} snapshot={:016x}",
                bits(&chained.outcome.model.flatten()),
                snapshot_digest(&chained.session)
            ));
            Some(chained.session)
        }
        Err(e) => {
            lines.push(format!("{tag} apply={e:?}"));
            None
        }
    }
}

/// Every golden line, in order.
fn render() -> Vec<String> {
    simd::with_level(SimdLevel::Portable, || {
        let mut lines = Vec::new();
        for family in families() {
            let fresh = (family.fit)();
            for method in Method::ALL {
                let mut session = fresh.clone();
                for step in 0..3 {
                    let delta = chain_delta(&family, step, session.num_samples());
                    let tag = format!("{} {method} step{step}", family.label);
                    if let Some(next) = record(&mut lines, &tag, &session, method, &delta) {
                        session = next;
                    }
                }
                // The mixed delta on the fresh fit, where captures that a
                // successor drops (the logistic PrIU-opt one) meet added rows.
                let tag = format!("{} {method} fresh-mixed", family.label);
                record(
                    &mut lines,
                    &tag,
                    &fresh,
                    method,
                    &chain_delta(&family, 2, N),
                );
            }
            let mut rejects: Vec<(&str, Delta)> = (family.invalid)()
                .into_iter()
                .map(|(what, rows)| (what, Delta::addition(rows)))
                .collect();
            rejects.push(("out-of-range", Delta::removal(&[N])));
            rejects.push(("everything", Delta::removal(&(0..N).collect::<Vec<_>>())));
            for (what, delta) in rejects {
                let err = match fresh.apply_delta(Method::Priu, &delta) {
                    Ok(_) => "accepted".to_string(),
                    Err(e) => format!("{e:?}"),
                };
                lines.push(format!("{} reject {what}={err}", family.label));
            }
            // Non-finite added rows: which stage fails first is part of the
            // contract. Every error comes from staging, before the successor
            // is built: the update fails first (linear closed form's
            // factorisation), else the appended steps diverge.
            let poisoned = Delta::mixed(&[1], poisoned((family.rows)(5, 63)));
            for method in Method::ALL {
                let err = match fresh.apply_delta(method, &poisoned) {
                    Ok(_) => "accepted".to_string(),
                    Err(e) => format!("{e:?}"),
                };
                lines.push(format!("{} {method} non-finite={err}", family.label));
            }
        }
        lines
    })
}

#[test]
fn delta_chains_match_the_golden_bits() {
    let expected: Vec<&str> = GOLDEN.lines().collect();
    let actual = render();
    for (i, (want, got)) in expected.iter().zip(&actual).enumerate() {
        assert_eq!(got, want, "golden line {}", i + 1);
    }
    assert_eq!(actual.len(), expected.len(), "golden line count");
}

/// `apply_delta` is `stage_delta` followed by `finish`, one pipeline: on
/// every golden input the staged model, the finished successor's model and
/// `apply_delta`'s model are the same bits, the finished successor
/// serializes to `apply_delta`'s bytes, and every rejected delta is
/// rejected by staging with `apply_delta`'s error.
#[test]
fn staged_apply_matches_apply_delta() {
    fn check(tag: &str, session: &Session, method: Method, delta: &Delta) -> Option<Session> {
        let applied = session.apply_delta(method, delta);
        let staged = match (session.stage_delta(method, delta), &applied) {
            (Ok(staged), Ok(_)) => staged,
            (Err(staged), Err(applied)) => {
                assert_eq!(format!("{staged:?}"), format!("{applied:?}"), "{tag}");
                return None;
            }
            (staged, applied) => panic!(
                "{tag}: staging {} but apply_delta {}",
                if staged.is_ok() {
                    "succeeded"
                } else {
                    "failed"
                },
                if applied.is_ok() {
                    "succeeded"
                } else {
                    "failed"
                },
            ),
        };
        let applied = applied.unwrap();
        let staged_bits = bits(&staged.outcome().model.flatten());
        // Finishing is infallible: the staged delta becomes the successor,
        // with no `Result` to report a failure through.
        let finished: ChainedUpdate = StagedDelta::finish(staged);
        assert_eq!(
            staged_bits,
            bits(&finished.outcome.model.flatten()),
            "{tag}"
        );
        assert_eq!(
            staged_bits,
            bits(&finished.session.model().flatten()),
            "{tag}"
        );
        assert_eq!(staged_bits, bits(&applied.outcome.model.flatten()), "{tag}");
        assert!(
            finished.session.to_snapshot_bytes() == applied.session.to_snapshot_bytes(),
            "{tag}: finished successor differs from apply_delta's"
        );
        Some(finished.session)
    }

    simd::with_level(SimdLevel::Portable, || {
        for family in families() {
            let fresh = (family.fit)();
            for method in Method::ALL {
                let mut session = fresh.clone();
                for step in 0..3 {
                    let delta = chain_delta(&family, step, session.num_samples());
                    let tag = format!("{} {method} step{step}", family.label);
                    if let Some(next) = check(&tag, &session, method, &delta) {
                        session = next;
                    }
                }
                let tag = format!("{} {method} fresh-mixed", family.label);
                check(&tag, &fresh, method, &chain_delta(&family, 2, N));
                let tag = format!("{} {method} non-finite", family.label);
                let poisoned = Delta::mixed(&[1], poisoned((family.rows)(5, 63)));
                check(&tag, &fresh, method, &poisoned);
            }
            for (what, rows) in (family.invalid)() {
                let tag = format!("{} reject {what}", family.label);
                check(&tag, &fresh, Method::Priu, &Delta::addition(rows));
            }
            let everything = Delta::removal(&(0..N).collect::<Vec<_>>());
            for (what, delta) in [
                ("out-of-range", Delta::removal(&[N])),
                ("everything", everything),
            ] {
                let tag = format!("{} reject {what}", family.label);
                check(&tag, &fresh, Method::Priu, &delta);
            }
        }
    });
}
