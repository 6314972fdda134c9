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

use priu_core::{
    Compression, DeletionEngine, Delta, DeltaRows, Method, Session, SessionBuilder, TrainerConfig,
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
            Session::SparseLogistic(_) => None, // server adds are dense-only
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

#[test]
fn corrupt_session_blobs_fail_typed_never_panic() {
    let session = linear(Compression::Exact { rank: 4 }, true, 61);
    let bytes = session.to_snapshot_bytes();
    // Every truncation offset: typed error, no panic.
    for cut in 0..bytes.len().min(512) {
        assert!(
            Session::from_snapshot_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} decoded"
        );
    }
    // And truncations near the end, where the closed-form capture lives.
    for cut in bytes.len().saturating_sub(512)..bytes.len() {
        assert!(Session::from_snapshot_bytes(&bytes[..cut]).is_err());
    }
    // A bad family tag fails typed.
    let mut bad = bytes.clone();
    bad[0] = 99;
    assert!(Session::from_snapshot_bytes(&bad).is_err());
    // Trailing garbage is rejected, not silently ignored.
    let mut padded = bytes;
    padded.push(0);
    assert!(Session::from_snapshot_bytes(&padded).is_err());
}

// ---------------------------------------------------------------------------
// The first linear layout
// ---------------------------------------------------------------------------

/// Linear session blobs written by the first layout, in which the PrIU-opt
/// capture and the closed-form views each carried their own `XᵀY` (and the
/// views their own `XᵀX`). Both are one chained PrIU-opt apply (rows 5 and
/// 17 removed) on a 48×4 regression session (`generate_regression` seed 23,
/// noise 0.1; batch 12, 8 iterations, η 0.05, λ 0.05, trainer seed 3),
/// with and without the closed-form capture.
const V1_BOTH: &[u8] = include_bytes!("fixtures/linear_v1_both.bin");
const V1_OPT_ONLY: &[u8] = include_bytes!("fixtures/linear_v1_opt_only.bin");

/// Model bits the first layout's code produced for `update(method, &[1, 9])`
/// on the fixtures above, per SIMD level (any thread count).
fn v1_priu_opt_bits(level: SimdLevel) -> [u64; 4] {
    let third = match level {
        SimdLevel::Portable => 0xbf80c1c949a3f3c1,
        SimdLevel::Avx2 => 0xbf80c1c949a3f3c0,
    };
    [
        0x3fc79dce33fa63a3,
        0x3fd444d8b361bfa5,
        third,
        0xbf96914224c03c7d,
    ]
}
const V1_CLOSED_FORM_BITS: [u64; 4] = [
    0x3fceff33213381f7,
    0x3fe0a505540be6c1,
    0xbfa11422c0e65114,
    0x3f7ea8e126b1a652,
];

fn weight_bits(session: &Session, method: Method) -> Vec<u64> {
    session
        .update(method, &[1, 9])
        .unwrap_or_else(|e| panic!("{method:?} update: {e}"))
        .model
        .weight()
        .as_slice()
        .iter()
        .map(|w| w.to_bits())
        .collect()
}

#[test]
fn first_layout_linear_snapshots_decode_into_one_view() {
    for (label, bytes, closed_form) in [("both", V1_BOTH, true), ("opt-only", V1_OPT_ONLY, false)] {
        let session = Session::from_snapshot_bytes(bytes)
            .unwrap_or_else(|e| panic!("{label}: old layout failed to decode: {e}"));
        let Session::Linear(engine) = &session else {
            panic!("{label}: decoded a non-linear session");
        };
        let view = engine
            .provenance()
            .normal
            .as_ref()
            .unwrap_or_else(|| panic!("{label}: copies not folded into a view"));
        assert_eq!(view.n, engine.dataset().num_samples(), "{label}");
        assert_eq!(session.supports(Method::ClosedForm), closed_form, "{label}");

        // The folded view serves the same updates the old layout did: its
        // `XᵀY` is the one both copies held, bit for bit, and the
        // closed-form `XᵀX` is the stored one.
        for level in simd::available_levels() {
            simd::with_level(level, || {
                assert_eq!(
                    weight_bits(&session, Method::PriuOpt),
                    v1_priu_opt_bits(level),
                    "{label}: PrIU-opt ({level})"
                );
                if closed_form {
                    assert_eq!(
                        weight_bits(&session, Method::ClosedForm),
                        V1_CLOSED_FORM_BITS,
                        "{label}: closed-form ({level})"
                    );
                }
            });
        }

        // Re-encoding writes the current layout, which round-trips.
        let current = session.to_snapshot_bytes();
        assert_ne!(current[0], bytes[0], "{label}: layout tag not bumped");
        let again = Session::from_snapshot_bytes(&current).unwrap();
        assert_eq!(again.to_snapshot_bytes(), current, "{label}");

        // A chained apply keeps working from the folded view.
        let next = session.apply(Method::PriuOpt, &[0, 3]).unwrap().session;
        assert_eq!(next.num_samples(), session.num_samples() - 2, "{label}");
    }
}

#[test]
fn corrupt_first_layout_snapshots_fail_typed_never_panic() {
    for bytes in [V1_BOTH, V1_OPT_ONLY] {
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    Session::from_snapshot_bytes(&bytes[..cut]),
                    Err(priu_core::CoreError::Snapshot(_))
                ),
                "truncation at {cut} did not fail typed"
            );
        }
        // Garbling any single byte either still decodes or fails typed.
        for at in 0..bytes.len() {
            let mut garbled = bytes.to_vec();
            garbled[at] ^= 0xA5;
            let decoded = std::panic::catch_unwind(|| Session::from_snapshot_bytes(&garbled));
            assert!(decoded.is_ok(), "garbling byte {at} panicked the decoder");
        }
    }
}
