//! Concurrency + determinism torture for the deletion service.
//!
//! The invariants under test, each per `apply_threads` × SIMD-level leg
//! (the same {1, 4} × {off, avx2} grid CI pins via `PRIU_THREADS` /
//! `PRIU_SIMD`):
//!
//! 1. A coalesced batch is **bitwise** identical to one direct
//!    `DeletionEngine::apply` with the union removal set under the same
//!    pin — the server adds scheduling, not arithmetic.
//! 2. Coalesced deletion is **numerically** equivalent to applying the
//!    same requests sequentially (exactly equivalent in exact arithmetic
//!    for the closed-form path; FP rounding differs because the downdates
//!    associate differently).
//! 3. Predictions racing deletion batches observe a committed model —
//!    pre-batch or post-batch, never a torn intermediate — and epochs are
//!    monotone per observer.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use priu_core::{
    DeletionEngine, Delta, DeltaRows, Method, Model, ModelKind, Session, SessionBuilder,
    TrainerConfig,
};
use priu_data::catalog::Hyperparameters;
use priu_data::dataset::{DenseDataset, Labels};
use priu_data::synthetic::classification::{generate_binary_classification, ClassificationConfig};
use priu_data::synthetic::regression::{generate_regression, RegressionConfig};
use priu_linalg::par;
use priu_linalg::simd::{self, SimdLevel};
use priu_linalg::{Matrix, Vector};
use priu_server::{AddedRows, PlannerConfig, SchedulerConfig, Server, ServerConfig};

const N: usize = 200;

fn linear_session(seed: u64) -> Session {
    let data = generate_regression(&RegressionConfig {
        num_samples: N,
        num_features: 5,
        noise_std: 0.1,
        seed,
        ..Default::default()
    });
    let config = TrainerConfig::from_hyper(Hyperparameters {
        batch_size: 25,
        num_iterations: 60,
        learning_rate: 0.05,
        regularization: 0.05,
    });
    SessionBuilder::dense(data, config)
        .seed(4)
        .opt_capture(false)
        .fit()
        .expect("linear fixture")
}

fn logistic_session(seed: u64) -> Session {
    let data = generate_binary_classification(&ClassificationConfig {
        num_samples: N,
        num_features: 6,
        separation: 3.0,
        label_noise: 0.5,
        seed,
        ..Default::default()
    });
    let config = TrainerConfig::from_hyper(Hyperparameters {
        batch_size: 25,
        num_iterations: 60,
        learning_rate: 0.3,
        regularization: 0.02,
    });
    SessionBuilder::dense(data, config)
        .seed(5)
        .opt_capture(false)
        .fit()
        .expect("logistic fixture")
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

fn model_bits(model: &Model) -> Vec<u64> {
    model.flatten().iter().map(|w| w.to_bits()).collect()
}

fn pinned_apply(
    threads: usize,
    level: SimdLevel,
    session: &Session,
    method: Method,
    rows: &[usize],
) -> Session {
    par::with_threads(threads, || {
        simd::with_level(level, || session.apply(method, rows))
    })
    .expect("reference apply")
    .session
}

fn server_config(threads: usize, level: SimdLevel, force: Option<Method>) -> ServerConfig {
    ServerConfig {
        planner: PlannerConfig {
            // Batches form on flush only: the huge window keeps wall-clock
            // timing out of the test's batch boundaries.
            window: std::time::Duration::from_secs(3600),
            max_batch: 1 << 20,
        },
        scheduler: SchedulerConfig {
            force_method: force,
            retrain_drift: 2.0, // never force a retrain mid-test
            ..SchedulerConfig::default()
        },
        apply_threads: Some(threads),
        simd_level: Some(level),
        durability: None,
    }
}

#[test]
fn coalesced_batch_is_bitwise_one_union_apply_across_the_grid() {
    for (threads, level) in legs() {
        for (name, session, reference) in [
            ("lin", linear_session(0xA1), linear_session(0xA1)),
            ("log", logistic_session(0xB2), logistic_session(0xB2)),
        ] {
            let server = Server::start(server_config(threads, level, Some(Method::Priu)))
                .expect("start server");
            server.register_session(name, session).unwrap();

            // Three overlapping requests fold into the union {3, 10, 11, 42}.
            let t1 = server.delete(name, &[3]).unwrap();
            let t2 = server.delete(name, &[10, 11]).unwrap();
            let t3 = server.delete(name, &[42, 3]).unwrap();
            server.flush(name).unwrap();
            let r1 = t1.wait().unwrap();
            let r2 = t2.wait().unwrap();
            let r3 = t3.wait().unwrap();
            for reply in [&r1, &r2, &r3] {
                assert_eq!(reply.batch_rows, 4, "{name}@{threads}x{level:?}");
                assert_eq!(reply.method, Some(Method::Priu));
                assert_eq!(reply.epoch, 1);
                assert_eq!(reply.stale, 0);
            }
            assert_eq!((r1.requested, r1.applied), (1, 1));
            assert_eq!((r2.requested, r2.applied), (2, 2));
            assert_eq!((r3.requested, r3.applied), (2, 2));

            // Bitwise: the server committed exactly the model one direct
            // union apply produces under the same pin.
            let expected = pinned_apply(threads, level, &reference, Method::Priu, &[3, 10, 11, 42]);
            let (snapshot, epoch) = server.model_snapshot(name).unwrap();
            assert_eq!(epoch, 1);
            assert_eq!(
                model_bits(snapshot.model()),
                model_bits(expected.model()),
                "coalesced batch differs from union apply for {name} at \
                 threads={threads} level={level:?}"
            );

            // A second batch re-deleting id 3 is stale for that id and the
            // translation maps surviving stable ids to shifted rows.
            let t4 = server.delete(name, &[3, 7]).unwrap();
            server.flush(name).unwrap();
            let r4 = t4.wait().unwrap();
            assert_eq!((r4.requested, r4.applied, r4.stale), (2, 1, 1));
            assert_eq!(r4.batch_rows, 1);
            assert_eq!(r4.epoch, 2);
            // Stable id 7 sits at row 6 after {3} dropped out below it.
            let expected2 = pinned_apply(threads, level, &expected, Method::Priu, &[6]);
            let (snapshot2, _) = server.model_snapshot(name).unwrap();
            assert_eq!(
                model_bits(snapshot2.model()),
                model_bits(expected2.model()),
                "stable-id translation broke for {name}"
            );

            // An all-stale batch commits nothing and touches no state.
            let t5 = server.delete(name, &[3, 42]).unwrap();
            server.flush(name).unwrap();
            let r5 = t5.wait().unwrap();
            assert_eq!((r5.applied, r5.stale, r5.batch_rows), (0, 2, 0));
            assert_eq!(r5.method, None);
            assert_eq!(server.model_snapshot(name).unwrap().1, 2, "no epoch bump");
            server.shutdown();
        }
    }
}

/// Deterministic appended rows for the mixed-batch tests: xorshift
/// features, labels following the task (`±1` when `binary`).
fn fresh_rows(count: usize, width: usize, seed: u64, binary: bool) -> AddedRows {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let features: Vec<f64> = (0..count * width).map(|_| next()).collect();
    let labels: Vec<f64> = (0..count)
        .map(|i| {
            if binary {
                if (seed + i as u64).is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                }
            } else {
                features[i * width..(i + 1) * width].iter().sum::<f64>() * 0.5
            }
        })
        .collect();
    AddedRows {
        num_features: width,
        features,
        labels,
    }
}

/// The dense block a list of `AddedRows` folds into, in admission order.
fn concat_rows(blocks: &[&AddedRows], binary: bool) -> DenseDataset {
    let width = blocks[0].num_features;
    let mut features = Vec::new();
    let mut labels = Vec::new();
    for block in blocks {
        features.extend_from_slice(&block.features);
        labels.extend_from_slice(&block.labels);
    }
    let x = Matrix::from_vec(labels.len(), width, features).expect("added block");
    let labels = if binary {
        Labels::Binary(Vector::from_vec(labels))
    } else {
        Labels::Continuous(Vector::from_vec(labels))
    };
    DenseDataset::new(x, labels)
}

fn pinned_apply_delta(
    threads: usize,
    level: SimdLevel,
    session: &Session,
    method: Method,
    delta: &Delta,
) -> Session {
    par::with_threads(threads, || {
        simd::with_level(level, || session.apply_delta(method, delta))
    })
    .expect("reference apply_delta")
    .session
}

#[test]
fn coalesced_mixed_batch_is_bitwise_one_union_apply_delta_across_the_grid() {
    for (threads, level) in legs() {
        for (name, session, reference, binary) in [
            ("lin", linear_session(0xA7), linear_session(0xA7), false),
            ("log", logistic_session(0xB8), logistic_session(0xB8), true),
        ] {
            let width = session.model().num_features();
            let server = Server::start(server_config(threads, level, Some(Method::Priu)))
                .expect("start server");
            server.register_session(name, session).unwrap();

            // One coalesced batch mixing all three request kinds: deletes
            // {3, 10, 11}, 8 appended rows across two blocks, and a tick
            // whose retention (197 pre-batch survivors + 8 added against
            // keep_last = 203) expires the two oldest rows {0, 1}.
            let block_a = fresh_rows(5, width, 0x11, binary);
            let block_b = fresh_rows(3, width, 0x22, binary);
            let keep = (N - 3 + 8 - 2) as u64;
            let t1 = server.delete(name, &[3]).unwrap();
            let t2 = server.add(name, block_a.clone()).unwrap();
            let t3 = server.delete(name, &[10, 11]).unwrap();
            let t4 = server.tick(name, Some(block_b.clone()), keep).unwrap();
            server.flush(name).unwrap();
            let replies = [
                t1.wait().unwrap(),
                t2.wait().unwrap(),
                t3.wait().unwrap(),
                t4.wait().unwrap(),
            ];
            for reply in &replies {
                assert_eq!(
                    reply.batch_rows, 5,
                    "{name}@{threads}x{level:?}: 3 deleted + 2 expired"
                );
                assert_eq!(reply.expired, 2);
                assert_eq!(reply.method, Some(Method::Priu));
                assert_eq!(reply.epoch, 1);
                assert_eq!(reply.stale, 0);
            }
            assert_eq!((replies[0].applied, replies[0].added), (1, 0));
            assert_eq!((replies[1].applied, replies[1].added), (0, 5));
            assert_eq!((replies[2].applied, replies[2].added), (2, 0));
            assert_eq!((replies[3].applied, replies[3].added), (0, 3));

            // Bitwise: the server committed exactly the model ONE direct
            // `apply_delta` with the union delta produces under the same
            // pin — expired rows ride the same removal set, additions fold
            // in admission order.
            let delta = Delta {
                removed: vec![0, 1, 3, 10, 11],
                added: Some(DeltaRows::Dense(concat_rows(&[&block_a, &block_b], binary))),
            };
            let expected = pinned_apply_delta(threads, level, &reference, Method::Priu, &delta);
            let (snapshot, epoch) = server.model_snapshot(name).unwrap();
            assert_eq!(epoch, 1);
            assert_eq!(snapshot.num_samples(), N - 5 + 8);
            assert_eq!(
                model_bits(snapshot.model()),
                model_bits(expected.model()),
                "mixed batch differs from one union apply_delta for {name} \
                 at threads={threads} level={level:?}"
            );

            // Appended rows got fresh stable ids N..N+8: deleting the
            // first appended row lands on survivor row N-5 (five rows
            // dropped out below it), while a retired id is stale.
            let t5 = server.delete(name, &[N as u64, 0]).unwrap();
            server.flush(name).unwrap();
            let r5 = t5.wait().unwrap();
            assert_eq!((r5.requested, r5.applied, r5.stale), (2, 1, 1));
            assert_eq!(r5.epoch, 2);
            let expected2 = pinned_apply(threads, level, &expected, Method::Priu, &[N - 5]);
            let (snapshot2, _) = server.model_snapshot(name).unwrap();
            assert_eq!(
                model_bits(snapshot2.model()),
                model_bits(expected2.model()),
                "stable ids of appended rows broke for {name}"
            );
            server.shutdown();
        }
    }
}

/// Client-side mirror of the planner's batch semantics: the union of
/// deletes lands first, then retention expires the oldest pre-batch
/// survivors (clamped to leave one), then additions take fresh ids.
struct Mirror {
    live: Vec<u64>,
    next_id: u64,
}

impl Mirror {
    fn new(n: usize) -> Self {
        Self {
            live: (0..n as u64).collect(),
            next_id: n as u64,
        }
    }

    fn apply(&mut self, deleted: &[u64], added: usize, keep_last: Option<u64>) {
        self.live.retain(|id| !deleted.contains(id));
        if let Some(keep) = keep_last {
            let over = (self.live.len() + added).saturating_sub(keep as usize);
            let expire = over.min(self.live.len().saturating_sub(1));
            self.live.drain(..expire);
        }
        for _ in 0..added {
            self.live.push(self.next_id);
            self.next_id += 1;
        }
    }
}

#[test]
fn randomized_interleaved_stream_tracks_retrain_from_scratch() {
    // A randomized interleaved stream of deletions, additions, and window
    // ticks applied incrementally (PrIU) must stay numerically close to a
    // server that refits offline on every batch — the paper's accuracy
    // claim carried to the serving layer. Both servers see the identical
    // stream, so any divergence is the update arithmetic itself.
    let (threads, level) = (1, simd::available_levels()[0]);
    for (name, binary, seed) in [("lin", false, 0xC301u64), ("log", true, 0xC302u64)] {
        let incremental =
            Server::start(server_config(threads, level, Some(Method::Priu))).expect("start server");
        let refit = Server::start(server_config(threads, level, Some(Method::Retrain)))
            .expect("start server");
        incremental
            .register_session(
                name,
                if binary {
                    logistic_session(0xEE)
                } else {
                    linear_session(0xEE)
                },
            )
            .unwrap();
        refit
            .register_session(
                name,
                if binary {
                    logistic_session(0xEE)
                } else {
                    linear_session(0xEE)
                },
            )
            .unwrap();
        let width = if binary { 6 } else { 5 };

        let mut state = seed;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut mirror = Mirror::new(N);
        for wave in 0..8u64 {
            // Three random live deletions + a 2-row addition; every third
            // wave also shrinks the window by a few rows.
            let deleted: Vec<u64> = (0..3)
                .map(|_| mirror.live[rng() as usize % mirror.live.len()])
                .collect();
            let block = fresh_rows(2, width, seed ^ wave, binary);
            let keep = (wave % 3 == 2).then(|| mirror.live.len() as u64 - 3);
            let mut tickets = Vec::new();
            for server in [&incremental, &refit] {
                tickets.push(server.delete(name, &deleted).unwrap());
                tickets.push(server.add(name, block.clone()).unwrap());
                if let Some(keep) = keep {
                    tickets.push(server.tick(name, None, keep).unwrap());
                }
                server.flush(name).unwrap();
            }
            for ticket in tickets {
                ticket.wait().unwrap();
            }
            let distinct: std::collections::BTreeSet<u64> = deleted.iter().copied().collect();
            let distinct: Vec<u64> = distinct.into_iter().collect();
            mirror.apply(&distinct, block.num_rows(), keep);
        }

        let (priu_model, _) = incremental.model_snapshot(name).unwrap();
        let (refit_model, _) = refit.model_snapshot(name).unwrap();
        assert_eq!(priu_model.num_samples(), mirror.live.len());
        assert_eq!(refit_model.num_samples(), mirror.live.len());
        let cmp = priu_core::compare_models(refit_model.model(), priu_model.model()).unwrap();
        assert!(
            cmp.cosine_similarity > 0.99,
            "{name}: incremental stream drifted from per-batch refit: \
             similarity {} (l2 {})",
            cmp.cosine_similarity,
            cmp.l2_distance
        );
        incremental.shutdown();
        refit.shutdown();
    }
}

#[test]
fn coalesced_and_sequential_deletion_agree_numerically() {
    let (threads, level) = (1, simd::available_levels()[0]);
    let config = || server_config(threads, level, Some(Method::ClosedForm));
    let batched = Server::start(config()).expect("start server");
    let one_by_one = Server::start(config()).expect("start server");
    batched.register_session("s", linear_session(0xC3)).unwrap();
    one_by_one
        .register_session("s", linear_session(0xC3))
        .unwrap();

    // Per wave, the batched server folds one single-id request per id
    // into one batch; the sequential one flushes and waits for each
    // request on its own.
    let waves: [&[u64]; 3] = [&[5, 17], &[29], &[17, 88, 120]];
    for ids in waves {
        let tickets: Vec<_> = ids
            .iter()
            .map(|&id| batched.delete("s", &[id]).unwrap())
            .collect();
        batched.flush("s").unwrap();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        for &id in ids {
            let ticket = one_by_one.delete("s", &[id]).unwrap();
            one_by_one.flush("s").unwrap();
            ticket.wait().unwrap();
        }
    }
    assert_eq!(batched.stats("s").unwrap().epoch, 3, "one batch per wave");
    assert_eq!(
        one_by_one.stats("s").unwrap().epoch,
        5,
        "one batch per live id"
    );
    let (mb, _) = batched.model_snapshot("s").unwrap();
    let (ms, _) = one_by_one.model_snapshot("s").unwrap();
    assert_eq!(mb.num_samples(), ms.num_samples());
    assert_eq!(mb.num_samples(), N - 5, "5 distinct rows (17 repeats)");
    let diff: f64 = mb
        .model()
        .flatten()
        .iter()
        .zip(ms.model().flatten().iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(
        diff < 1e-8,
        "closed-form batched vs sequential drifted: max |Δw| = {diff:e}"
    );
    batched.shutdown();
    one_by_one.shutdown();
}

/// Expected per-epoch predictions, mirroring the server's predict rules.
fn expected_prediction(model: &Model, probe: &[f64]) -> (u64, Option<u64>) {
    match model.kind() {
        ModelKind::Linear => (model.predict_linear(probe).to_bits(), None),
        ModelKind::BinaryLogistic => (
            model.decision_value(probe).to_bits(),
            Some(model.predict_class(probe) as u64),
        ),
        ModelKind::MultinomialLogistic { .. } => {
            let class = model.predict_class(probe);
            (model.logits(probe)[class].to_bits(), Some(class as u64))
        }
    }
}

#[test]
fn predictions_race_deletion_batches_without_tearing() {
    const WAVES: usize = 5;
    // Per-wave deletion schedule: disjoint stable ids so every wave removes
    // exactly 6 live rows; shared across the four sessions.
    let wave_ids = |w: usize| -> [Vec<u64>; 3] {
        let base = (w as u64) * 6;
        [
            vec![base, base + 1],
            vec![base + 2, base + 3],
            vec![base + 4, base + 5, base], // overlap inside the wave
        ]
    };

    for (threads, level) in legs() {
        let sessions: Vec<(String, Session)> = vec![
            ("lin-a".into(), linear_session(0xD0)),
            ("lin-b".into(), linear_session(0xD1)),
            ("log-a".into(), logistic_session(0xD2)),
            ("log-b".into(), logistic_session(0xD3)),
        ];
        let references: Vec<Session> = vec![
            linear_session(0xD0),
            linear_session(0xD1),
            logistic_session(0xD2),
            logistic_session(0xD3),
        ];

        // Reference chain: for each session, the model expected at every
        // epoch (epoch w = after wave w-1), built by direct pinned applies
        // of each wave's union.
        let probe_for = |session: &Session| -> Vec<f64> {
            (0..session.model().num_features())
                .map(|i| 0.25 * (i as f64 + 1.0))
                .collect()
        };
        let mut expected: Vec<HashMap<u64, (u64, Option<u64>)>> = Vec::new();
        let mut finals: Vec<Vec<u64>> = Vec::new();
        for reference in references {
            let probe = probe_for(&reference);
            let mut ids: Vec<u64> = (0..N as u64).collect();
            let mut by_epoch = HashMap::new();
            by_epoch.insert(0u64, expected_prediction(reference.model(), &probe));
            let mut current = reference;
            for w in 0..WAVES {
                let union: std::collections::BTreeSet<u64> =
                    wave_ids(w).iter().flatten().copied().collect();
                let rows: Vec<usize> = union
                    .iter()
                    .filter_map(|id| ids.binary_search(id).ok())
                    .collect();
                current = pinned_apply(threads, level, &current, Method::Priu, &rows);
                ids.retain(|id| !union.contains(id));
                by_epoch.insert(w as u64 + 1, expected_prediction(current.model(), &probe));
            }
            expected.push(by_epoch);
            finals.push(model_bits(current.model()));
        }

        let server = Arc::new(
            Server::start(server_config(threads, level, Some(Method::Priu))).expect("start server"),
        );
        for (name, session) in sessions {
            server.register_session(&name, session).unwrap();
        }
        let names = ["lin-a", "lin-b", "log-a", "log-b"];

        // Four deleter threads (one per session) drive the waves while
        // eight predict threads hammer the snapshots.
        let done = Arc::new(AtomicBool::new(false));
        let predictors: Vec<_> = (0..8)
            .map(|p| {
                let server = Arc::clone(&server);
                let done = Arc::clone(&done);
                let name = names[p % names.len()];
                std::thread::spawn(move || {
                    let features = server.model_snapshot(name).unwrap().0;
                    let probe: Vec<f64> = (0..features.model().num_features())
                        .map(|i| 0.25 * (i as f64 + 1.0))
                        .collect();
                    let mut observed: Vec<(u64, u64, Option<u64>)> = Vec::new();
                    let mut last_epoch = 0;
                    while !done.load(Ordering::Acquire) {
                        let prediction = server.predict(name, &probe).unwrap();
                        assert!(
                            prediction.epoch >= last_epoch,
                            "epochs must be monotone per observer"
                        );
                        last_epoch = prediction.epoch;
                        observed.push((
                            prediction.epoch,
                            prediction.value.to_bits(),
                            prediction.class.map(|c| c as u64),
                        ));
                    }
                    (name, observed)
                })
            })
            .collect();

        let deleters: Vec<_> = names
            .iter()
            .map(|&name| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    for w in 0..WAVES {
                        let tickets: Vec<_> = wave_ids(w)
                            .iter()
                            .map(|ids| server.delete(name, ids).unwrap())
                            .collect();
                        server.flush(name).unwrap();
                        for ticket in tickets {
                            let reply = ticket.wait().unwrap();
                            assert_eq!(reply.epoch, w as u64 + 1, "{name} wave {w}");
                            assert_eq!(reply.batch_rows, 6, "{name} wave {w}");
                            assert_eq!(reply.method, Some(Method::Priu));
                        }
                    }
                })
            })
            .collect();
        for deleter in deleters {
            deleter.join().expect("deleter panicked");
        }
        done.store(true, Ordering::Release);

        // Every observed prediction must exactly match the committed model
        // of its epoch — a torn read could match no epoch.
        for predictor in predictors {
            let (name, observed) = predictor.join().expect("predictor panicked");
            let session_ix = names.iter().position(|&n| n == name).unwrap();
            for (epoch, value_bits, class) in observed {
                let (expected_bits, expected_class) = expected[session_ix]
                    .get(&epoch)
                    .unwrap_or_else(|| panic!("{name}: impossible epoch {epoch}"));
                assert_eq!(
                    (value_bits, class),
                    (*expected_bits, *expected_class),
                    "{name}@epoch {epoch}: prediction does not match any \
                     committed model (threads={threads} level={level:?})"
                );
            }
        }

        // Final models are bitwise the reference chain's.
        for (session_ix, &name) in names.iter().enumerate() {
            let (snapshot, epoch) = server.model_snapshot(name).unwrap();
            assert_eq!(epoch, WAVES as u64);
            assert_eq!(
                model_bits(snapshot.model()),
                finals[session_ix],
                "{name}: final model differs from the reference chain"
            );
            let stats = server.stats(name).unwrap();
            assert_eq!(stats.num_samples, N - WAVES * 6);
            assert_eq!(stats.pending, 0);
            let priu_decides: u64 = stats
                .decisions
                .iter()
                .find(|(m, _)| *m == Method::Priu)
                .unwrap()
                .1;
            assert_eq!(priu_decides, WAVES as u64);
        }
        server.shutdown();
    }
}

#[test]
fn admission_errors_and_shutdown_are_typed() {
    use priu_server::ServerError;
    let server = Server::start(ServerConfig::default()).expect("start server");
    server.register_session("s", linear_session(0xE4)).unwrap();
    assert!(matches!(
        server.register_session("s", linear_session(0xE5)),
        Err(ServerError::SessionExists(_))
    ));
    assert!(matches!(
        server.predict("nope", &[0.0; 5]),
        Err(ServerError::UnknownSession(_))
    ));
    assert!(matches!(
        server.predict("s", &[0.0; 3]),
        Err(ServerError::FeatureMismatch {
            expected: 5,
            got: 3
        })
    ));
    assert!(matches!(
        server.delete("nope", &[1]),
        Err(ServerError::UnknownSession(_))
    ));

    // Shutdown drains pending work (tickets resolve), then rejects new
    // deletions; predictions keep working on the frozen snapshot. Repeat
    // shutdowns are no-ops.
    let ticket = server.delete("s", &[0, 1]).unwrap();
    server.shutdown();
    let reply = ticket.wait().expect("pending batch must drain on shutdown");
    assert_eq!(reply.applied, 2);
    assert!(matches!(
        server.delete("s", &[2]),
        Err(ServerError::ShuttingDown)
    ));
    server.predict("s", &[0.0; 5]).unwrap();
    server.shutdown();
    server.shutdown();
}
