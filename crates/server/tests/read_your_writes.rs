//! Read-your-writes across the ack-before-successor window.
//!
//! The applier acknowledges a batch once its WAL record is durable and its
//! model is published to predicts, and only then builds the successor
//! session (carried caches, the PrIU-opt eigenbasis update, the dataset).
//! On a session whose successor build takes milliseconds, every check
//! below runs right after a ticket resolves, inside that window:
//!
//! * `predict` reports the ack's epoch and the reference chain's model;
//! * `stats` and `model_snapshot` never report an epoch below the ack, and
//!   the snapshot's model is the reference chain's, bit for bit.
//!
//! The reference chain is a direct `apply_delta` per acknowledged batch,
//! with the method the server reported, under the same `PRIU_THREADS` ×
//! `PRIU_SIMD` pin (this binary inherits both from the environment).

use priu_core::{DeletionEngine, Delta, Method, Session, SessionBuilder, TrainerConfig};
use priu_data::catalog::Hyperparameters;
use priu_data::synthetic::regression::{generate_regression, RegressionConfig};
use priu_server::{Server, ServerConfig};

const N: usize = 600;
const M: usize = 128;
const DELETES: usize = 12;

/// 600 × 128 with the PrIU-opt capture: a single-row successor runs a
/// rank-one update of a 128 × 128 eigenbasis after the ack.
fn session() -> Session {
    let data = generate_regression(&RegressionConfig {
        num_samples: N,
        num_features: M,
        noise_std: 0.1,
        seed: 18,
        ..Default::default()
    });
    let config = TrainerConfig::from_hyper(Hyperparameters {
        batch_size: 100,
        num_iterations: 30,
        learning_rate: 0.002,
        regularization: 0.01,
    });
    SessionBuilder::dense(data, config)
        .seed(3)
        .opt_capture(true)
        .fit()
        .expect("linear fixture")
}

fn bits(session: &Session) -> Vec<u64> {
    session
        .model()
        .flatten()
        .iter()
        .map(|w| w.to_bits())
        .collect()
}

#[test]
fn acked_deletes_are_visible_to_every_reader() {
    let server = Server::start(ServerConfig::default()).expect("server");
    let mut reference = session();
    server
        .register_session("ryw", reference.clone())
        .expect("register");
    let features: Vec<f64> = (0..M).map(|j| ((j % 7) as f64 - 3.0) / 4.0).collect();
    let mut ids: Vec<u64> = (0..N as u64).collect();
    let mut methods = Vec::new();

    for k in 0..DELETES {
        let id = (k * 37 + 5) as u64;
        let reply = server
            .delete("ryw", &[id])
            .expect("admit")
            .wait()
            .expect("ack");
        let method = reply.method.expect("a live row was deleted");
        let row = ids.binary_search(&id).expect("id still live");
        ids.remove(row);
        reference = reference
            .apply_delta(method, &Delta::removal(&[row]))
            .expect("reference apply")
            .session;
        methods.push(method);

        let predicted = server.predict("ryw", &features).expect("predict");
        assert_eq!(predicted.epoch, reply.epoch, "delete {k}: predict epoch");
        assert_eq!(
            predicted.value.to_bits(),
            reference.model().predict_linear(&features).to_bits(),
            "delete {k}: predict did not serve the acked model"
        );
        // Whichever reader goes first meets the pending commit; alternate.
        let check_stats = || {
            let stats = server.stats("ryw").expect("stats");
            assert!(
                stats.epoch >= reply.epoch,
                "delete {k}: stats trail the ack"
            );
            assert_eq!(stats.num_samples, ids.len(), "delete {k}: stats torn");
        };
        let check_snapshot = || {
            let (snapshot, epoch) = server.model_snapshot("ryw").expect("snapshot");
            assert!(epoch >= reply.epoch, "delete {k}: snapshot trails the ack");
            assert_eq!(epoch, k as u64 + 1);
            assert_eq!(
                bits(&snapshot),
                bits(&reference),
                "delete {k}: snapshot model"
            );
        };
        if k % 2 == 0 {
            check_stats();
            check_snapshot();
        } else {
            check_snapshot();
            check_stats();
        }
    }
    assert!(
        methods.contains(&Method::PriuOpt),
        "no batch took PrIU-opt: {methods:?}"
    );
    server.shutdown();
}
