//! Bit-exact snapshot round-trips for every engine family.
//!
//! The durability layer persists sessions with
//! `Session::to_snapshot_bytes` / `from_snapshot_bytes`; a recovered
//! server is only bitwise-identical to the pre-crash one if that
//! round-trip is the identity on every engine family and capture kind.
//! Each case checks three levels:
//!
//! 1. **Bytes**: re-encoding the decoded session reproduces the exact
//!    blob (the codec has one canonical form).
//! 2. **Model bits**: every weight survives as the same `f64::to_bits`
//!    pattern (NaN payloads and signed zeros included, by construction of
//!    the bit-level codec).
//! 3. **Behaviour**: applying the same delta to the original and the
//!    decoded session yields bitwise-identical successors on every
//!    `PRIU_THREADS` × `PRIU_SIMD` grid leg — the restored provenance
//!    replays exactly, not just approximately.
//!
//! Post-delta sessions are round-tripped too: a successor session carries
//! the capture kinds that only exist after a deletion (deflated Gram
//! caches, restricted explicit-batch schedules), which a fresh fit never
//! exercises.

use priu_core::snapshot::{put_model, put_trainer_config, Codec, SnapshotWriter};
use priu_core::{
    Compression, CoreError, DeletionEngine, Delta, DeltaRows, Method, Model, ModelKind, Session,
    SessionBuilder, TrainerConfig,
};
use priu_data::catalog::Hyperparameters;
use priu_data::synthetic::classification::{
    generate_binary_classification, generate_multiclass_classification, ClassificationConfig,
};
use priu_data::synthetic::regression::{generate_regression, RegressionConfig};
use priu_data::synthetic::sparse_text::{generate_sparse_binary, SparseConfig};
use priu_linalg::par;
use priu_linalg::simd::{self, SimdLevel};

const N: usize = 120;

fn hyper() -> Hyperparameters {
    Hyperparameters {
        batch_size: 24,
        num_iterations: 40,
        learning_rate: 0.05,
        regularization: 0.05,
    }
}

fn linear(compression: Compression, opt: bool, seed: u64) -> Session {
    let data = generate_regression(&RegressionConfig {
        num_samples: N,
        num_features: 5,
        noise_std: 0.1,
        seed,
        ..Default::default()
    });
    SessionBuilder::dense(data, TrainerConfig::from_hyper(hyper()))
        .seed(4)
        .compression(compression)
        .opt_capture(opt)
        .fit()
        .expect("linear fixture")
}

fn logistic(seed: u64) -> Session {
    let data = generate_binary_classification(&ClassificationConfig {
        num_samples: N,
        num_features: 6,
        separation: 3.0,
        label_noise: 0.5,
        seed,
        ..Default::default()
    });
    let config = TrainerConfig::from_hyper(Hyperparameters {
        learning_rate: 0.3,
        ..hyper()
    });
    SessionBuilder::dense(data, config)
        .seed(5)
        .fit()
        .expect("logistic fixture")
}

fn multinomial(seed: u64) -> Session {
    let data = generate_multiclass_classification(&ClassificationConfig {
        num_samples: N,
        num_features: 5,
        num_classes: 4,
        separation: 3.0,
        label_noise: 0.5,
        seed,
    });
    let config = TrainerConfig::from_hyper(Hyperparameters {
        learning_rate: 0.3,
        ..hyper()
    });
    SessionBuilder::dense(data, config)
        .seed(6)
        .fit()
        .expect("multinomial fixture")
}

fn sparse(seed: u64) -> Session {
    let data = generate_sparse_binary(&SparseConfig {
        num_samples: N,
        num_features: 300,
        nnz_per_row: 12,
        informative_fraction: 0.2,
        seed,
    });
    let config = TrainerConfig::from_hyper(Hyperparameters {
        learning_rate: 0.3,
        ..hyper()
    });
    SessionBuilder::sparse(data, config)
        .seed(7)
        .fit()
        .expect("sparse fixture")
}

/// Every fixture the durability layer must round-trip, labelled, with a
/// method its family supports for the behavioural check.
fn fixtures() -> Vec<(&'static str, Session, Method)> {
    vec![
        (
            "linear-exact-opt",
            linear(Compression::Exact { rank: 4 }, true, 21),
            Method::PriuOpt,
        ),
        (
            "linear-exact",
            linear(Compression::Exact { rank: 4 }, false, 22),
            Method::Priu,
        ),
        (
            "linear-randomized",
            linear(
                Compression::Randomized {
                    rank: 4,
                    oversample: 2,
                },
                false,
                23,
            ),
            Method::Priu,
        ),
        (
            "linear-none",
            linear(Compression::None, false, 24),
            Method::Retrain,
        ),
        ("logistic", logistic(31), Method::Priu),
        ("multinomial", multinomial(41), Method::Priu),
        ("sparse-logistic", sparse(51), Method::Priu),
    ]
}

fn model_bits(session: &Session) -> Vec<u64> {
    session
        .model()
        .flatten()
        .iter()
        .map(|w| w.to_bits())
        .collect()
}

/// The CI determinism grid: apply-thread counts × available SIMD levels.
fn legs() -> Vec<(usize, SimdLevel)> {
    let mut legs = Vec::new();
    for threads in [1usize, 4] {
        for level in simd::available_levels() {
            legs.push((threads, level));
        }
    }
    legs
}

fn pinned<R>(threads: usize, level: SimdLevel, f: impl FnOnce() -> R) -> R {
    par::with_threads(threads, || simd::with_level(level, f))
}

/// Round-trips one session and checks bytes, bits, and replay behaviour.
fn assert_roundtrip(label: &str, session: &Session, method: Method) {
    let bytes = session.to_snapshot_bytes();
    let restored = Session::from_snapshot_bytes(&bytes)
        .unwrap_or_else(|e| panic!("{label}: decode failed: {e}"));
    assert_eq!(
        restored.to_snapshot_bytes(),
        bytes,
        "{label}: re-encode changed the blob"
    );
    assert_eq!(
        model_bits(&restored),
        model_bits(session),
        "{label}: model bits drifted"
    );
    assert_eq!(restored.num_samples(), session.num_samples());

    // Behaviour: the same delta replays bitwise-identically on every grid
    // leg. Remove a mid-stride set; skip legs the method can't run on.
    let removed: Vec<usize> = (0..session.num_samples()).step_by(7).take(8).collect();
    for (threads, level) in legs() {
        let a = pinned(threads, level, || session.apply(method, &removed))
            .unwrap_or_else(|e| panic!("{label}: original apply failed: {e}"));
        let b = pinned(threads, level, || restored.apply(method, &removed))
            .unwrap_or_else(|e| panic!("{label}: restored apply failed: {e}"));
        assert_eq!(
            model_bits(&a.session),
            model_bits(&b.session),
            "{label}: divergent replay on leg ({threads}, {level:?})"
        );
        assert_eq!(
            a.session.to_snapshot_bytes(),
            b.session.to_snapshot_bytes(),
            "{label}: divergent successor state on leg ({threads}, {level:?})"
        );
    }
}

#[test]
fn every_family_round_trips_bitwise() {
    for (label, session, method) in fixtures() {
        assert_roundtrip(label, &session, method);
    }
}

#[test]
fn post_delta_successors_round_trip_bitwise() {
    // A successor session carries deletion-only capture kinds: deflated
    // Gram caches, restricted (explicit-batch) schedules, appended
    // coefficient lists. Chain one mixed delta, then round-trip.
    for (label, session, method) in fixtures() {
        let removed: Vec<usize> = vec![2, 3, 17, 40];
        let added = match &session {
            // The server adds dense rows only; the engine takes sparse ones.
            Session::SparseLogistic(_) => {
                Some(DeltaRows::Sparse(generate_sparse_binary(&SparseConfig {
                    num_samples: 3,
                    num_features: 300,
                    nnz_per_row: 12,
                    informative_fraction: 0.2,
                    seed: 52,
                })))
            }
            _ => {
                let width = session.model().num_features();
                let k = 3;
                let features: Vec<f64> = (0..k * width).map(|i| (i as f64 * 0.37).sin()).collect();
                let labels: Vec<f64> = match session.task() {
                    priu_core::TaskKind::Regression => vec![0.3, -0.7, 1.1],
                    priu_core::TaskKind::BinaryClassification => vec![1.0, -1.0, 1.0],
                    priu_core::TaskKind::MulticlassClassification { .. } => vec![0.0, 2.0, 1.0],
                };
                let x = priu_linalg::Matrix::from_vec(k, width, features).unwrap();
                let labels = match session.task() {
                    priu_core::TaskKind::Regression => priu_data::dataset::Labels::Continuous(
                        priu_linalg::Vector::from_vec(labels),
                    ),
                    priu_core::TaskKind::BinaryClassification => {
                        priu_data::dataset::Labels::Binary(priu_linalg::Vector::from_vec(labels))
                    }
                    priu_core::TaskKind::MulticlassClassification { num_classes } => {
                        priu_data::dataset::Labels::Multiclass {
                            classes: labels.into_iter().map(|l| l as u32).collect(),
                            num_classes,
                        }
                    }
                };
                Some(DeltaRows::Dense(priu_data::dataset::DenseDataset::new(
                    x, labels,
                )))
            }
        };
        let delta = Delta { removed, added };
        let successor = match session.apply_delta(method, &delta) {
            Ok(chained) => chained.session,
            // Families that can't run this method on a mixed delta are
            // covered by the fresh-fit test above.
            Err(_) => continue,
        };
        assert_roundtrip(&format!("{label}-successor"), &successor, method);
    }
}

/// A 100-row successor of `session`: the same width, labels kind and
/// trainer configuration over fewer rows.
fn shrunk(session: &Session) -> Session {
    let removed: Vec<usize> = (100..session.num_samples()).collect();
    session.apply(Method::Retrain, &removed).unwrap().session
}

/// The encoded length of a session's dataset, which its blob holds right
/// after the one-byte family tag.
fn dataset_len(session: &Session) -> usize {
    let mut w = SnapshotWriter::new();
    match (session.dense_dataset(), session.sparse_dataset()) {
        (Some(dense), _) => dense.put(&mut w),
        (_, Some(sparse)) => sparse.put(&mut w),
        _ => unreachable!("every session holds a dataset"),
    }
    w.into_bytes().len()
}

/// `host`'s blob with its dataset replaced by `guest`'s.
fn splice_dataset(guest: &Session, host: &Session) -> Vec<u8> {
    let (guest_bytes, host_bytes) = (guest.to_snapshot_bytes(), host.to_snapshot_bytes());
    let head = &guest_bytes[..1 + dataset_len(guest)];
    [head, &host_bytes[1 + dataset_len(host)..]].concat()
}

fn is_snapshot_error(decoded: &Result<Session, CoreError>) -> bool {
    matches!(decoded, Err(CoreError::Snapshot(_)))
}

#[test]
fn spliced_sessions_fail_at_decode_for_every_family() {
    let families = [
        (
            "linear",
            linear(Compression::Exact { rank: 4 }, true, 21),
            25,
        ),
        ("logistic", logistic(31), 32),
        ("multinomial", multinomial(41), 42),
        ("sparse-logistic", sparse(51), 52),
    ];
    for (label, session, other_seed) in families {
        // A dataset of another 120 rows fits the provenance: the splice
        // itself decodes.
        let other = match label {
            "linear" => linear(Compression::Exact { rank: 4 }, true, other_seed),
            "logistic" => logistic(other_seed),
            "multinomial" => multinomial(other_seed),
            _ => sparse(other_seed),
        };
        let same_rows = Session::from_snapshot_bytes(&splice_dataset(&other, &session));
        assert!(same_rows.is_ok(), "{label}: {:?}", same_rows.err());
        // 100 rows ahead of a 120-row session's provenance do not.
        let spliced = Session::from_snapshot_bytes(&splice_dataset(&shrunk(&session), &session));
        assert!(is_snapshot_error(&spliced), "{label}: {:?}", spliced.err());
    }
}

#[test]
fn a_model_with_too_few_weight_vectors_is_a_snapshot_error() {
    let session = multinomial(41);
    let bytes = session.to_snapshot_bytes();
    let Session::Logistic(engine) = &session else {
        unreachable!("a multinomial session is dense logistic");
    };
    // The model follows the dataset and the trainer configuration.
    let mut w = SnapshotWriter::new();
    put_trainer_config(&mut w, &TrainerConfig::from_hyper(hyper()));
    let model_at = 1 + dataset_len(&session) + w.into_bytes().len();
    let mut w = SnapshotWriter::new();
    put_model(&mut w, engine.model());
    let model_len = w.into_bytes().len();
    // Four classes, two weight vectors.
    let two = Model::new(
        ModelKind::MultinomialLogistic { num_classes: 2 },
        engine.model().weights()[..2].to_vec(),
    )
    .unwrap();
    let mut w = SnapshotWriter::new();
    put_model(&mut w, &two);
    let mut model = w.into_bytes();
    model[1..9].copy_from_slice(&4u64.to_le_bytes());
    let spliced = [&bytes[..model_at], &model, &bytes[model_at + model_len..]].concat();
    let decoded = Session::from_snapshot_bytes(&spliced);
    assert_eq!(
        decoded.err(),
        Some(CoreError::Snapshot(
            "snapshot truncated or corrupt: dense logistic: invalid configuration: \
             expected 4 weight vectors, got 2"
                .into()
        ))
    );
}

#[test]
fn the_first_linear_layout_tag_is_unknown() {
    let mut bytes = linear(Compression::Exact { rank: 4 }, true, 21).to_snapshot_bytes();
    bytes[0] = 1;
    assert_eq!(
        Session::from_snapshot_bytes(&bytes).err(),
        Some(CoreError::Snapshot("unknown session family tag 1".into()))
    );
}

/// The offsets the corruption sweep visits in a blob of `len` bytes:
/// every one of the first and last [`SWEEP_WINDOW`] bytes — the tag, the
/// dataset's shape and labels head; the extra captures, family state and
/// training time — and every [`SWEEP_STRIDE`]-th between. Each decode is
/// linear in the blob, so every offset of a 120 KB blob would cost minutes
/// in an unoptimised test build; [`small_fixtures`] are swept at every
/// offset instead.
fn sweep_offsets(len: usize) -> impl Iterator<Item = usize> {
    (0..len)
        .filter(move |&at| at < SWEEP_WINDOW || at + SWEEP_WINDOW >= len || at % SWEEP_STRIDE == 0)
}
const SWEEP_WINDOW: usize = 512;
const SWEEP_STRIDE: usize = 211;

/// Truncating `bytes` at each of `offsets` fails with a snapshot error,
/// and garbling the byte there either still decodes or fails with one;
/// neither panics.
fn assert_corruption_fails_typed(label: &str, bytes: &[u8], offsets: impl Iterator<Item = usize>) {
    for at in offsets {
        let decoded = Session::from_snapshot_bytes(&bytes[..at]);
        assert!(
            is_snapshot_error(&decoded),
            "{label}: truncation at {at}: {:?}",
            decoded.err()
        );
        let mut garbled = bytes.to_vec();
        garbled[at] ^= 0xA5;
        let decoded = std::panic::catch_unwind(|| Session::from_snapshot_bytes(&garbled))
            .unwrap_or_else(|_| panic!("{label}: garbling byte {at} panicked the decoder"));
        assert!(
            decoded.is_ok() || is_snapshot_error(&decoded),
            "{label}: garbling byte {at}: {:?}",
            decoded.err()
        );
    }
    // Trailing garbage is rejected, not silently ignored.
    let padded = [bytes, &[0]].concat();
    assert!(is_snapshot_error(&Session::from_snapshot_bytes(&padded)));
}

#[test]
fn corrupt_session_blobs_fail_typed_never_panic() {
    for (label, session, _) in fixtures() {
        let bytes = session.to_snapshot_bytes();
        assert_corruption_fails_typed(label, &bytes, sweep_offsets(bytes.len()));
    }
}

#[test]
fn corrupt_successor_blobs_fail_typed_never_panic() {
    // One successor per family: deflated caches, an explicit schedule.
    for (label, session, method) in fixtures() {
        if matches!(label, "linear-exact-opt" | "logistic" | "sparse-logistic") {
            let successor = session.apply(method, &[2, 3, 17, 40]).unwrap().session;
            let label = format!("{label}-successor");
            let bytes = successor.to_snapshot_bytes();
            assert_corruption_fails_typed(&label, &bytes, sweep_offsets(bytes.len()));
        }
    }
}

/// One session per family small enough (a few KB) to corrupt at every
/// byte: 48 rows, batch 12, 8 iterations, with a method it supports.
fn small_fixtures() -> Vec<(&'static str, Session, Method)> {
    const ROWS: usize = 48;
    let hyper = |learning_rate| Hyperparameters {
        batch_size: 12,
        num_iterations: 8,
        learning_rate,
        regularization: 0.05,
    };
    let regression = generate_regression(&RegressionConfig {
        num_samples: ROWS,
        num_features: 4,
        noise_std: 0.1,
        seed: 23,
        ..Default::default()
    });
    let classification = |num_classes, seed| ClassificationConfig {
        num_samples: ROWS,
        num_features: 3,
        num_classes,
        separation: 3.0,
        label_noise: 0.5,
        seed,
    };
    let binary = generate_binary_classification(&classification(2, 33));
    let multiclass = generate_multiclass_classification(&classification(3, 43));
    let sparse = generate_sparse_binary(&SparseConfig {
        num_samples: ROWS,
        num_features: 40,
        nnz_per_row: 4,
        informative_fraction: 0.2,
        seed: 53,
    });
    let linear = SessionBuilder::dense(regression, TrainerConfig::from_hyper(hyper(0.05)))
        .seed(3)
        .compression(Compression::Exact { rank: 4 })
        .opt_capture(true);
    let logistic = TrainerConfig::from_hyper(hyper(0.3));
    vec![
        ("small-linear", linear.fit().unwrap(), Method::PriuOpt),
        (
            "small-logistic",
            SessionBuilder::dense(binary, logistic)
                .seed(5)
                .fit()
                .unwrap(),
            Method::Priu,
        ),
        (
            "small-multinomial",
            SessionBuilder::dense(multiclass, logistic)
                .seed(6)
                .fit()
                .unwrap(),
            Method::Priu,
        ),
        (
            "small-sparse-logistic",
            SessionBuilder::sparse(sparse, logistic)
                .seed(7)
                .fit()
                .unwrap(),
            Method::Priu,
        ),
    ]
}

#[test]
fn small_blobs_fail_typed_at_every_byte() {
    // Each family's fresh session and one successor, every truncation and
    // every single-byte flip.
    for (label, session, method) in small_fixtures() {
        let successor = session.apply(method, &[5, 17]).unwrap().session;
        for (label, blob) in [
            (label.to_string(), session.to_snapshot_bytes()),
            (format!("{label}-successor"), successor.to_snapshot_bytes()),
        ] {
            assert_corruption_fails_typed(&label, &blob, 0..blob.len());
        }
    }
}
