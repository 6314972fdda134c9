//! Group commit + WAL checkpoint behavior under load.
//!
//! Three contracts on top of the crash suite in `recovery.rs`:
//!
//! 1. **The durable commit path is invisible**: a durable server applying
//!    a burst of adds, a retention tick and stale deletes one batch at a
//!    time lands bitwise on the state a non-durable server reaches
//!    applying the same batches — and a restart reproduces it again.
//! 2. **Group commit amortizes fsyncs**: one applier pass over a burst
//!    spread across sessions shares one fsync across their WAL frames
//!    instead of paying one per batch.
//! 3. **Checkpoints bound the log**: with aggressive compaction the WAL
//!    file plateaus while the cumulative appended byte count keeps
//!    growing — the log never outlives its snapshot coverage.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use priu_core::{DeletionEngine, Method, Session, SessionBuilder, TrainerConfig};
use priu_data::catalog::Hyperparameters;
use priu_data::synthetic::regression::{generate_regression, RegressionConfig};
use priu_server::{
    AddedRows, DeleteTicket, DurabilityConfig, PlannerConfig, SchedulerConfig, Server,
    ServerConfig, WAL_FILE,
};

const NAME: &str = "ckpt/lin";
const N: usize = 200;
const WIDTH: usize = 5;

fn fixture() -> Session {
    let data = generate_regression(&RegressionConfig {
        num_samples: N,
        num_features: WIDTH,
        noise_std: 0.1,
        seed: 0xC1,
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

/// Batches form on flush only (an hour-long window) and the method is
/// pinned, so neither batch boundaries nor the scheduler depend on timing.
fn config(durability: Option<DurabilityConfig>) -> ServerConfig {
    ServerConfig {
        planner: PlannerConfig {
            window: Duration::from_secs(3600),
            max_batch: 1 << 20,
        },
        scheduler: SchedulerConfig {
            force_method: Some(Method::Priu),
            retrain_drift: 2.0,
            ..SchedulerConfig::default()
        },
        apply_threads: None,
        simd_level: None,
        durability,
    }
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("priu-checkpoint-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn model_bits(server: &Server) -> (Vec<u64>, u64) {
    let (session, epoch) = server.model_snapshot(NAME).expect("session present");
    (
        session
            .model()
            .flatten()
            .iter()
            .map(|w| w.to_bits())
            .collect(),
        epoch,
    )
}

fn added(rows: usize, salt: usize) -> AddedRows {
    let mut features = Vec::with_capacity(rows * WIDTH);
    for r in 0..rows {
        for c in 0..WIDTH {
            features.push(((salt * 31 + r * 7 + c) as f64 * 0.37).sin());
        }
    }
    let labels = (0..rows)
        .map(|r| ((salt * 5 + r) as f64 * 0.23).cos())
        .collect();
    AddedRows {
        num_features: WIDTH,
        features,
        labels,
    }
}

/// The burst script both servers in the bitwise test replay: single-row
/// deletes, appended rows, a retention tick whose expiry bites, and
/// deliberately stale deletes that become no-op batches. Every request is
/// flushed and waited for on its own, so each one is one batch.
fn replay_burst(server: &Server) {
    let run = |ticket: DeleteTicket| {
        server.flush(NAME).expect("flush");
        ticket.wait().expect("ack")
    };
    for id in 0..40u64 {
        run(server.delete(NAME, &[id]).expect("delete"));
    }
    run(server.add(NAME, added(3, 1)).expect("add"));
    for id in 40..80u64 {
        run(server.delete(NAME, &[id]).expect("delete"));
    }
    // 123 live rows + 2 appended, keep 100: expires the oldest 25.
    let tick = run(server.tick(NAME, Some(added(2, 2)), 100).expect("tick"));
    assert_eq!(tick.expired, 25);
    // The tick's expiry retired the oldest surviving ids: these deletes
    // are stale, so their batches change nothing and bump no epoch.
    for id in 80..85u64 {
        let reply = run(server.delete(NAME, &[id]).expect("stale delete"));
        assert_eq!((reply.stale, reply.method), (1, None));
    }
    for id in 110..130u64 {
        run(server.delete(NAME, &[id]).expect("delete"));
    }
}

/// The durable commit path is invisible: the WAL-backed run, the
/// in-memory reference run, and a post-restart recovery all land on
/// identical model bits and epochs.
#[test]
fn chained_group_commit_matches_sequential_application_bitwise() {
    let reference = Server::start(config(None)).expect("reference server");
    reference
        .register_session(NAME, fixture())
        .expect("register");
    replay_burst(&reference);
    let (want_bits, want_epoch) = model_bits(&reference);
    assert_eq!(
        want_epoch, 102,
        "one epoch per batch that changed the model"
    );
    reference.shutdown();

    let dir = tempdir("bitwise");
    let durable = Server::start(config(Some(DurabilityConfig::new(&dir)))).expect("durable server");
    durable.register_session(NAME, fixture()).expect("register");
    replay_burst(&durable);
    let (bits, epoch) = model_bits(&durable);
    assert_eq!(epoch, want_epoch, "durability changed the commit count");
    assert_eq!(bits, want_bits, "the durable run diverged bitwise");
    let before = durable
        .model_snapshot(NAME)
        .expect("session")
        .0
        .to_snapshot_bytes();
    durable.shutdown();

    let recovered = Server::start(config(Some(DurabilityConfig::new(&dir)))).expect("recovery");
    let (bits, epoch) = model_bits(&recovered);
    assert_eq!(epoch, want_epoch);
    assert_eq!(bits, want_bits, "recovery diverged");
    assert_eq!(
        recovered
            .model_snapshot(NAME)
            .expect("session")
            .0
            .to_snapshot_bytes(),
        before,
        "restart changed the serialized session"
    );
    recovered.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Group commit's whole point: a burst of durable deletes over several
/// sessions, flushed under one planner lock (the shutdown drain), goes
/// out in one applier pass whose frames share one fsync — so the fsync
/// count stays strictly below the frame count and a group held more than
/// one frame.
#[test]
fn group_commit_amortizes_fsyncs_across_a_burst() {
    const SESSIONS: u64 = 6;
    let dir = tempdir("amortize");
    let server = Server::start(config(Some(DurabilityConfig::new(&dir)))).expect("durable server");
    let names: Vec<String> = (0..SESSIONS).map(|s| format!("{NAME}{s}")).collect();
    for name in &names {
        server.register_session(name, fixture()).expect("register");
    }
    // Nothing is ready before the drain: the window is an hour long.
    let tickets: Vec<DeleteTicket> = (0..25u64)
        .flat_map(|id| names.iter().map(move |name| (name, id)))
        .map(|(name, id)| server.delete(name, &[id]).expect("delete"))
        .collect();
    server.shutdown();
    for ticket in tickets {
        assert_eq!(ticket.wait().expect("ack").applied, 1);
    }
    let stats = server.durability_stats().expect("durable server has stats");
    assert_eq!(stats.frames, SESSIONS, "one WAL frame per session's batch");
    assert!(
        stats.fsyncs < stats.frames,
        "no fsync was shared: {} fsyncs for {} frames",
        stats.fsyncs,
        stats.frames
    );
    assert!(
        stats.max_group >= 2,
        "no group ever held more than one frame"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// With aggressive compaction the on-disk log plateaus: after every
/// phase the file holds at most a phase's worth of frames, while the
/// cumulative appended bytes keep growing and ≥3 checkpoints fire.
#[test]
fn checkpoints_bound_the_wal_across_a_long_stream() {
    let dir = tempdir("bounded");
    let mut durability = DurabilityConfig::new(&dir);
    durability.snapshot_every = 2;
    durability.checkpoint_bytes = 1; // compaction after every snapshot
    let server = Server::start(config(Some(durability.clone()))).expect("durable server");
    server.register_session(NAME, fixture()).expect("register");

    let wal_path = dir.join(WAL_FILE);
    let mut phase_end_sizes = Vec::new();
    let mut wave = 0usize;
    for _phase in 0..3 {
        for _ in 0..8 {
            let base = (wave * 3) as u64;
            let del = server
                .delete(NAME, &[base, base + 1, base + 2])
                .expect("delete");
            let add = server.add(NAME, added(2, 100 + wave)).expect("add");
            server.flush(NAME).expect("flush");
            del.wait().expect("delete ack");
            add.wait().expect("add ack");
            wave += 1;
        }
        // Barrier: every queued snapshot lands and its compaction runs.
        server.drain_durability();
        phase_end_sizes.push(fs::metadata(&wal_path).expect("wal exists").len());
    }
    let stats = server.durability_stats().expect("stats");
    assert!(
        stats.checkpoints >= 3,
        "expected ≥3 checkpoints, got {}",
        stats.checkpoints
    );
    // Plateau: the file never holds more than about one phase of frames,
    // even though three phases' worth of bytes were appended in total.
    let one_phase = stats.bytes / 3;
    for (phase, &size) in phase_end_sizes.iter().enumerate() {
        assert!(
            size <= one_phase,
            "phase {phase}: WAL is {size} bytes, more than one phase's {one_phase}"
        );
    }
    let (want_bits, want_epoch) = model_bits(&server);
    server.shutdown();

    // A checkpoint-headed log + snapshots recover bitwise like any other.
    let recovered = Server::start(config(Some(durability))).expect("recovery");
    let (bits, epoch) = model_bits(&recovered);
    assert_eq!(epoch, want_epoch);
    assert_eq!(bits, want_bits, "recovery from a compacted log diverged");
    recovered.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
