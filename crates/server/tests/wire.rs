//! End-to-end wire test: a client speaking the length-prefixed protocol
//! over the in-memory duplex transport against a live server.

use std::collections::HashMap;
use std::io::Write;

use priu_core::{compare_models, DeletionEngine, Method, TrainerConfig};
use priu_core::{Session, SessionBuilder};
use priu_data::catalog::Hyperparameters;
use priu_data::synthetic::regression::{generate_regression, RegressionConfig};
use priu_server::{
    decode_response, duplex, encode_request, read_frame, write_frame, PlannerConfig, Request,
    RequestEnvelope, Response, SchedulerConfig, Server, ServerConfig,
};

fn session() -> Session {
    let data = generate_regression(&RegressionConfig {
        num_samples: 120,
        num_features: 4,
        noise_std: 0.1,
        seed: 0xF00D,
        ..Default::default()
    });
    let config = TrainerConfig::from_hyper(Hyperparameters {
        batch_size: 30,
        num_iterations: 40,
        learning_rate: 0.05,
        regularization: 0.05,
    });
    SessionBuilder::dense(data, config)
        .seed(9)
        .opt_capture(false)
        .fit()
        .unwrap()
}

#[test]
fn a_full_client_conversation_over_the_duplex_transport() {
    let server = Server::start(ServerConfig {
        planner: PlannerConfig {
            window: std::time::Duration::from_secs(3600), // flush-driven
            ..PlannerConfig::default()
        },
        scheduler: SchedulerConfig {
            force_method: Some(Method::Priu),
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("start server");
    server.register_session("m", session()).unwrap();

    let ((mut client_w, mut client_r), (server_w, server_r)) = duplex();
    let connection = server.serve_connection(server_r, server_w);

    let mut send = |id: u64, request: Request| {
        let payload = encode_request(&RequestEnvelope { id, request });
        write_frame(&mut client_w, &payload).unwrap();
    };
    let probe = vec![0.25, 0.5, 0.75, 1.0];

    // Predict, then delete twice (answered later, out of order), then
    // flush and predict again — all pipelined on one connection.
    send(
        1,
        Request::Predict {
            session: "m".into(),
            features: probe.clone(),
        },
    );
    send(
        2,
        Request::Delete {
            session: "m".into(),
            ids: vec![3, 4],
        },
    );
    send(
        3,
        Request::Delete {
            session: "m".into(),
            ids: vec![4, 9],
        },
    );
    send(
        4,
        Request::Stats {
            session: "m".into(),
        },
    );
    send(
        5,
        Request::Flush {
            session: "m".into(),
        },
    );
    send(
        6,
        Request::Predict {
            session: "nope".into(),
            features: probe.clone(),
        },
    );

    let mut responses: HashMap<u64, Response> = HashMap::new();
    while responses.len() < 6 {
        let payload = read_frame(&mut client_r).unwrap().expect("open stream");
        let envelope = decode_response(&payload).unwrap();
        responses.insert(envelope.id, envelope.response);
    }

    match &responses[&1] {
        Response::Predicted { class, epoch, .. } => {
            assert_eq!(*class, None);
            assert_eq!(*epoch, 0, "predict before the flush sees epoch 0");
        }
        other => panic!("want Predicted, got {other:?}"),
    }
    for id in [2u64, 3] {
        match &responses[&id] {
            Response::Deleted {
                batch_rows,
                method,
                epoch,
                ..
            } => {
                assert_eq!(*batch_rows, 3, "union {{3,4,9}}");
                assert_eq!(*method, Some(Method::Priu));
                assert_eq!(*epoch, 1);
            }
            other => panic!("want Deleted, got {other:?}"),
        }
    }
    assert!(matches!(&responses[&4], Response::Stats { .. }));
    assert!(matches!(&responses[&5], Response::Flushed));
    match &responses[&6] {
        Response::Error { message } => assert!(message.contains("unknown session")),
        other => panic!("want Error, got {other:?}"),
    }

    // The post-flush model answers follow-up predicts at epoch 1 with the
    // same value the typed API computes.
    send(
        7,
        Request::Predict {
            session: "m".into(),
            features: probe.clone(),
        },
    );
    let payload = read_frame(&mut client_r).unwrap().unwrap();
    let envelope = decode_response(&payload).unwrap();
    match envelope.response {
        Response::Predicted { value, epoch, .. } => {
            assert_eq!(envelope.id, 7);
            assert_eq!(epoch, 1);
            let typed = server.predict("m", &probe).unwrap();
            assert_eq!(value.to_bits(), typed.value.to_bits());
        }
        other => panic!("want Predicted, got {other:?}"),
    }

    // Closing the client write half ends the connection cleanly.
    drop(client_w);
    connection.join();
    server.shutdown();
}

/// Hyperparameters for the interleaved-stream fixture: long enough to
/// converge near the ridge optimum, so a from-scratch fit on the final
/// survivors (whose batch schedule necessarily differs) lands on the
/// same model and the comparison isolates the update arithmetic.
fn stream_hyper() -> Hyperparameters {
    Hyperparameters {
        batch_size: 30,
        num_iterations: 400,
        learning_rate: 0.05,
        regularization: 0.05,
    }
}

#[test]
fn a_wire_driven_interleaved_stream_matches_a_fresh_fit_on_the_survivors() {
    let server = Server::start(ServerConfig {
        planner: PlannerConfig {
            window: std::time::Duration::from_secs(3600), // flush-driven
            ..PlannerConfig::default()
        },
        scheduler: SchedulerConfig {
            force_method: Some(Method::Priu),
            retrain_drift: 2.0, // never force a retrain mid-stream
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("start server");
    // One 150-row pool from a single generative model: the session starts
    // on rows 0..120 and the stream appends rows 120..132 two at a time,
    // so stable id == pool row throughout (ids are never reused).
    let pool = generate_regression(&RegressionConfig {
        num_samples: 150,
        num_features: 4,
        noise_std: 0.1,
        seed: 0xF00D,
        ..Default::default()
    });
    let initial: Vec<usize> = (0..120).collect();
    let fixture = SessionBuilder::dense(
        pool.select(&initial),
        TrainerConfig::from_hyper(stream_hyper()),
    )
    .seed(9)
    .opt_capture(false)
    .fit()
    .unwrap();
    server.register_session("m", fixture).unwrap();

    let ((mut client_w, mut client_r), (server_w, server_r)) = duplex();
    let connection = server.serve_connection(server_r, server_w);
    let mut send = |id: u64, request: Request| {
        let payload = encode_request(&RequestEnvelope { id, request });
        write_frame(&mut client_w, &payload).unwrap();
    };
    let recv_wave = |client_r: &mut _, ids: &[u64]| -> HashMap<u64, Response> {
        let mut responses = HashMap::new();
        while responses.len() < ids.len() {
            let payload = read_frame(client_r).unwrap().expect("open stream");
            let envelope = decode_response(&payload).unwrap();
            assert!(ids.contains(&envelope.id), "unexpected id {}", envelope.id);
            responses.insert(envelope.id, envelope.response);
        }
        responses
    };

    // Client-side mirror of the live stable-id set.
    let mut live: Vec<u64> = (0..120).collect();
    let mut next_id = 120u64;
    let mut state = 0x5EED_u64;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };

    // Six waves, each one coalesced batch: two random live deletions, a
    // two-row addition, and (every other wave) a window tick that shrinks
    // retention by three rows.
    for wave in 0..6u64 {
        let a = rng() as usize % live.len();
        let b = (a + 1 + rng() as usize % (live.len() - 1)) % live.len();
        let deleted = [live[a], live[b]];
        let first_row = 120 + 2 * wave as usize;
        let features: Vec<f64> = pool
            .x
            .row(first_row)
            .iter()
            .chain(pool.x.row(first_row + 1))
            .copied()
            .collect();
        let labels: Vec<f64> =
            pool.labels.as_continuous().unwrap().as_slice()[first_row..first_row + 2].to_vec();
        let ticking = wave % 2 == 1;
        let keep = live.len() as u64 - 3;

        let base = 10 * wave;
        send(
            base + 1,
            Request::Delete {
                session: "m".into(),
                ids: deleted.to_vec(),
            },
        );
        send(
            base + 2,
            Request::Add {
                session: "m".into(),
                num_features: 4,
                features: features.clone(),
                labels: labels.clone(),
            },
        );
        let mut wave_ids = vec![base + 1, base + 2, base + 4];
        if ticking {
            send(
                base + 3,
                Request::Tick {
                    session: "m".into(),
                    num_features: 4,
                    features: vec![],
                    labels: vec![],
                    keep_last: keep,
                },
            );
            wave_ids.push(base + 3);
        }
        send(
            base + 4,
            Request::Flush {
                session: "m".into(),
            },
        );
        let responses = recv_wave(&mut client_r, &wave_ids);

        // Shape of the wave's replies: deletions answer `Deleted`, adds
        // and ticks answer `Applied`; expiry is batch-level.
        let expired = if ticking { 3 } else { 0 };
        match &responses[&(base + 1)] {
            Response::Deleted {
                applied,
                batch_rows,
                epoch,
                ..
            } => {
                assert_eq!(*applied, 2, "wave {wave}");
                assert_eq!(*batch_rows, 2 + expired);
                assert_eq!(*epoch, wave + 1);
            }
            other => panic!("want Deleted, got {other:?}"),
        }
        match &responses[&(base + 2)] {
            Response::Applied {
                added,
                expired: batch_expired,
                batch_rows,
                method,
                epoch,
                ..
            } => {
                assert_eq!(*added, 2, "wave {wave}");
                assert_eq!(*batch_expired, expired);
                assert_eq!(*batch_rows, 2 + expired);
                assert_eq!(*method, Some(Method::Priu));
                assert_eq!(*epoch, wave + 1);
            }
            other => panic!("want Applied, got {other:?}"),
        }
        if ticking {
            match &responses[&(base + 3)] {
                Response::Applied { added, expired, .. } => {
                    assert_eq!((*added, *expired), (0, 3), "wave {wave}");
                }
                other => panic!("want Applied, got {other:?}"),
            }
        }

        // Mirror the batch: deletes land first, then retention expires the
        // oldest survivors, then the additions take fresh stable ids.
        live.retain(|id| !deleted.contains(id));
        if ticking {
            live.drain(..3);
        }
        for _ in 0..2 {
            live.push(next_id);
            next_id += 1;
        }
    }

    // The stream settles on 111 survivors: 120 − 12 deleted − 9 expired
    // + 12 added.
    send(
        100,
        Request::Stats {
            session: "m".into(),
        },
    );
    let payload = read_frame(&mut client_r).unwrap().unwrap();
    let envelope = decode_response(&payload).unwrap();
    match envelope.response {
        Response::Stats {
            num_samples, epoch, ..
        } => {
            assert_eq!(num_samples, live.len() as u64);
            assert_eq!(num_samples, 111);
            assert_eq!(epoch, 6);
        }
        other => panic!("want Stats, got {other:?}"),
    }

    // Numerical acceptance: the wire-driven incrementally-updated model
    // agrees with a fresh from-scratch fit on the final survivor rows.
    let survivors: Vec<usize> = live.iter().map(|&id| id as usize).collect();
    let fresh = SessionBuilder::dense(
        pool.select(&survivors),
        TrainerConfig::from_hyper(stream_hyper()),
    )
    .seed(9)
    .opt_capture(false)
    .fit()
    .unwrap();
    let (snapshot, _) = server.model_snapshot("m").unwrap();
    let cmp = compare_models(fresh.model(), snapshot.model()).unwrap();
    assert!(
        cmp.cosine_similarity > 0.99,
        "wire stream drifted from the from-scratch fit: similarity {} (l2 {})",
        cmp.cosine_similarity,
        cmp.l2_distance
    );

    drop(client_w);
    connection.join();
    server.shutdown();
}

#[test]
fn undecodable_bytes_get_one_error_frame_and_a_hangup() {
    let server = Server::start(ServerConfig::default()).expect("start server");
    let ((mut client_w, mut client_r), (server_w, server_r)) = duplex();
    let connection = server.serve_connection(server_r, server_w);

    // A frame whose payload is garbage (bad tag after the id).
    let mut payload = 99u64.to_le_bytes().to_vec();
    payload.push(0xEE);
    write_frame(&mut client_w, &payload).unwrap();
    // And then bytes that are not even a complete frame.
    client_w.write_all(&1000u32.to_le_bytes()).unwrap();
    client_w.write_all(b"nope").unwrap();
    drop(client_w);

    let frame = read_frame(&mut client_r).unwrap().expect("error frame");
    let envelope = decode_response(&frame).unwrap();
    assert_eq!(envelope.id, 0, "protocol errors are not correlatable");
    match envelope.response {
        Response::Error { message } => assert!(message.contains("unknown message tag")),
        other => panic!("want Error, got {other:?}"),
    }
    assert!(
        read_frame(&mut client_r).unwrap().is_none(),
        "server hangs up after a protocol error"
    );
    connection.join();
    server.shutdown();
}

/// Non-finite values never get past admission on the wire: a NaN or
/// infinite add, tick or predict answers `Error` and nothing commits.
#[test]
fn non_finite_wire_requests_answer_errors() {
    let server = Server::start(ServerConfig::default()).expect("start server");
    server.register_session("m", session()).unwrap();
    let ((mut client_w, mut client_r), (server_w, server_r)) = duplex();
    let connection = server.serve_connection(server_r, server_w);

    let requests = [
        Request::Add {
            session: "m".into(),
            num_features: 4,
            features: vec![0.5, f64::NAN, 0.25, 1.0],
            labels: vec![0.3],
        },
        Request::Add {
            session: "m".into(),
            num_features: 4,
            features: vec![0.5, 0.75, 0.25, 1.0],
            labels: vec![f64::INFINITY],
        },
        Request::Tick {
            session: "m".into(),
            num_features: 4,
            features: vec![f64::NEG_INFINITY, 0.75, 0.25, 1.0],
            labels: vec![0.3],
            keep_last: 10,
        },
        Request::Predict {
            session: "m".into(),
            features: vec![0.5, 0.75, f64::NAN, 1.0],
        },
    ];
    let count = requests.len();
    for (id, request) in requests.into_iter().enumerate() {
        let payload = encode_request(&RequestEnvelope {
            id: id as u64,
            request,
        });
        write_frame(&mut client_w, &payload).unwrap();
    }
    for _ in 0..count {
        let payload = read_frame(&mut client_r).unwrap().expect("open stream");
        match decode_response(&payload).unwrap().response {
            Response::Error { message } => assert!(message.contains("not finite"), "{message}"),
            other => panic!("want Error, got {other:?}"),
        }
    }
    drop(client_w);
    connection.join();
    assert_eq!(server.stats("m").unwrap().epoch, 0, "nothing committed");
    assert_eq!(server.stats("m").unwrap().pending, 0, "nothing admitted");
    server.shutdown();
}
