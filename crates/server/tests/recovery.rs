//! Crash-recovery torture for the durability layer.
//!
//! The contract under test: a change is acknowledged only after its WAL
//! record is fsync'd, and a restarted server recovers **bitwise** the
//! committed prefix of the delta stream — never a torn intermediate,
//! never a lost acknowledged batch — under the same `PRIU_THREADS` ×
//! `PRIU_SIMD` pin (this binary inherits both from the environment, so
//! the CI grid pins parent, child, and recovery identically).
//!
//! Three attack surfaces:
//!
//! 1. **Process crashes** at every [`fail_point`] on the commit,
//!    snapshot, and recovery paths: the suite re-execs itself
//!    (`crash_child` below) with `PRIU_FAILPOINT` armed, lets the child
//!    `abort()` mid-commit, then recovers the store and checks the
//!    surviving state against a reference chain of all committed
//!    prefixes. The child journals every acknowledged wave to an fsync'd
//!    ack journal, so the parent knows exactly which waves the durability
//!    contract covers: recovered state must be ≥ the acked prefix and at
//!    most one un-acked batch ahead.
//! 2. **Media corruption**: the WAL truncated at seeded random offsets
//!    and bit-flipped mid-file, snapshots torn (stray `.tmp`) and
//!    corrupted. Recovery must degrade to an older committed prefix with
//!    a typed report — no panics, no partial states.
//! 3. **Crashes during recovery itself**: redo is read-only until the
//!    next commit, so a crash mid-redo must leave the store recoverable.
//!
//! Every wave of the 6-wave stream mixes the request kinds the WAL must
//! reproduce exactly: overlapping deletes that coalesce, dense row adds,
//! and retention ticks whose expiry resolution is recorded (not
//! re-derived) so redo cannot diverge.

use std::collections::HashMap;
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::OnceLock;
use std::time::Duration;

use priu_core::{DeletionEngine, Delta, Method, Session, SessionBuilder, TrainerConfig};
use priu_data::catalog::Hyperparameters;
use priu_data::synthetic::classification::{generate_binary_classification, ClassificationConfig};
use priu_data::synthetic::regression::{generate_regression, RegressionConfig};
use priu_server::{
    scan_wal, AddedRows, DeleteTicket, DurabilityConfig, GroupCommitConfig, GroupWal,
    PlannerConfig, SchedulerConfig, Server, ServerConfig, ServerError, WalRecord, FAILPOINT_ENV,
    WAL_FILE,
};

const N: usize = 200;
const WAVES: usize = 6;

struct Spec {
    name: &'static str,
    width: usize,
    binary: bool,
}

const SPECS: [Spec; 2] = [
    // Slashes in the names exercise the hex snapshot-filename encoding.
    Spec {
        name: "crash/lin",
        width: 5,
        binary: false,
    },
    Spec {
        name: "crash/log",
        width: 6,
        binary: true,
    },
];

fn fixture(spec: &Spec) -> Session {
    if spec.binary {
        let data = generate_binary_classification(&ClassificationConfig {
            num_samples: N,
            num_features: spec.width,
            separation: 3.0,
            label_noise: 0.5,
            seed: 0xD2,
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
    } else {
        let data = generate_regression(&RegressionConfig {
            num_samples: N,
            num_features: spec.width,
            noise_std: 0.1,
            seed: 0xD1,
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
}

fn config(durability: Option<DurabilityConfig>) -> ServerConfig {
    ServerConfig {
        planner: PlannerConfig {
            // Batches form on flush only, so wave boundaries are exact.
            window: Duration::from_secs(3600),
            max_batch: 1 << 20,
        },
        scheduler: SchedulerConfig {
            force_method: Some(Method::Priu),
            retrain_drift: 2.0,
            ..SchedulerConfig::default()
        },
        // Inherit the ambient PRIU_THREADS / PRIU_SIMD pin: the spawned
        // child and the recovering parent then run the same leg.
        apply_threads: None,
        simd_level: None,
        durability,
    }
}

/// Durable config with the default group commit and checkpoint
/// threshold, overridable through the same env vars the crash children
/// inherit (`PRIU_CRASH_MAX_GROUP`, `PRIU_CRASH_CKPT_BYTES`) so a parent
/// can steer the child's grouping and compaction without new plumbing.
fn durable(dir: &Path, snapshot_every: u64) -> ServerConfig {
    let mut durability = DurabilityConfig::new(dir);
    durability.snapshot_every = snapshot_every;
    if let Some(max_group) = std::env::var("PRIU_CRASH_MAX_GROUP")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        durability.group.max_group = max_group;
    }
    if let Some(bytes) = std::env::var("PRIU_CRASH_CKPT_BYTES")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        durability.checkpoint_bytes = bytes;
    }
    config(Some(durability))
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("priu-recovery-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Deterministic dense rows for wave `wave`: same call sites in the
/// child, the reference run, and redo must see identical values.
fn added(spec: &Spec, count: usize, wave: usize) -> AddedRows {
    let mut features = Vec::with_capacity(count * spec.width);
    for r in 0..count {
        for c in 0..spec.width {
            features.push(((wave * 31 + r * 7 + c) as f64 * 0.37).sin());
        }
    }
    let labels = (0..count)
        .map(|r| {
            if spec.binary {
                if (wave + r).is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                }
            } else {
                ((wave * 5 + r) as f64 * 0.23).cos()
            }
        })
        .collect();
    AddedRows {
        num_features: spec.width,
        features,
        labels,
    }
}

/// Issues wave `w`'s requests for one session and flushes them into a
/// single coalesced batch. Every wave is non-empty, so each one bumps
/// the epoch by exactly one and changes the model bits — state index
/// `w + 1` in the reference chain is unambiguous.
fn drive_wave(server: &Server, spec: &Spec, w: usize) -> Vec<DeleteTicket> {
    let name = spec.name;
    let mut tickets = Vec::new();
    match w {
        0 => {
            // Overlapping deletes coalesce to the union {3, 10, 11, 42}.
            tickets.push(server.delete(name, &[3]).expect("delete"));
            tickets.push(server.delete(name, &[10, 11]).expect("delete"));
            tickets.push(server.delete(name, &[42, 3]).expect("delete"));
        }
        1 => tickets.push(server.add(name, added(spec, 5, w)).expect("add")),
        2 => {
            tickets.push(server.delete(name, &[20, 21]).expect("delete"));
            tickets.push(server.add(name, added(spec, 4, w)).expect("add"));
        }
        // Retention tick: expiry of the 6 oldest live rows is resolved
        // against live state and must be *recorded* in the WAL, not
        // re-derived on redo.
        3 => tickets.push(
            server
                .tick(name, Some(added(spec, 2, w)), 199)
                .expect("tick"),
        ),
        4 => tickets.push(server.delete(name, &[150, 151]).expect("delete")),
        5 => {
            tickets.push(server.add(name, added(spec, 3, w)).expect("add"));
            tickets.push(server.delete(name, &[60]).expect("delete"));
        }
        _ => unreachable!("wave script has {WAVES} waves"),
    }
    server.flush(name).expect("flush");
    tickets
}

fn snapshot_bytes(server: &Server, name: &str) -> Vec<u8> {
    server
        .model_snapshot(name)
        .expect("session present")
        .0
        .to_snapshot_bytes()
}

/// Weight bits of a committed model: the durability contract's unit of
/// comparison. (Full serialized snapshots also carry the *measured*
/// training wall-clock of the original fit, so independently fitted
/// reference fixtures can never byte-match — model bits are the
/// deterministic part. Byte-exact round-trips are asserted separately
/// where both sides share one fit.)
fn model_bits(server: &Server, name: &str) -> (Vec<u64>, u64) {
    let (session, epoch) = server.model_snapshot(name).expect("session present");
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

/// The committed-prefix chain: model bits after registration (index 0)
/// and after each wave (index `w + 1`), computed once on a non-durable
/// server under the ambient pin. Recovery must land **exactly** on one
/// of these states — anything else is a torn or diverged model.
fn reference_states() -> &'static HashMap<String, Vec<Vec<u64>>> {
    static REF: OnceLock<HashMap<String, Vec<Vec<u64>>>> = OnceLock::new();
    REF.get_or_init(|| {
        let server = Server::start(config(None)).expect("reference server");
        let mut states: HashMap<String, Vec<Vec<u64>>> = HashMap::new();
        for spec in &SPECS {
            server
                .register_session(spec.name, fixture(spec))
                .expect("register");
            states.insert(
                spec.name.to_string(),
                vec![model_bits(&server, spec.name).0],
            );
        }
        for w in 0..WAVES {
            let mut waves = Vec::new();
            for spec in &SPECS {
                waves.push((spec.name, drive_wave(&server, spec, w)));
            }
            for (name, tickets) in waves {
                for ticket in tickets {
                    ticket.wait().expect("reference wave");
                }
                states
                    .get_mut(name)
                    .expect("known session")
                    .push(model_bits(&server, name).0);
            }
        }
        server.shutdown();
        states
    })
}

/// Re-exec this test binary running only `crash_child`.
fn child_cmd() -> Command {
    let exe = std::env::current_exe().expect("current exe");
    let mut cmd = Command::new(exe);
    cmd.args(["--exact", "crash_child", "--nocapture"]);
    // The abort banners are expected; keep the parent's output clean.
    cmd.stdout(Stdio::null()).stderr(Stdio::null());
    cmd
}

/// Parses the child's ack journal: session name → waves fully
/// acknowledged (a count, so state index `acked` is the durable floor).
fn read_acked(dir: &Path) -> HashMap<String, usize> {
    let mut acked = HashMap::new();
    let Ok(text) = fs::read_to_string(dir.join("ack.journal")) else {
        return acked;
    };
    for line in text.lines() {
        let Some((name, wave)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(wave) = wave.parse::<usize>() else {
            continue;
        };
        let entry = acked.entry(name.to_string()).or_insert(0usize);
        *entry = (*entry).max(wave + 1);
    }
    acked
}

/// Core durability assertion: every recovered session sits bitwise on
/// the committed-prefix chain, at least as far as its acked floor and at
/// most one un-acked batch past it.
fn assert_recovered_prefix(point: &str, server: &Server, acked: &HashMap<String, usize>) {
    for spec in &SPECS {
        let states = &reference_states()[spec.name];
        let floor = acked.get(spec.name).copied().unwrap_or(0);
        match server.model_snapshot(spec.name) {
            Ok((session, epoch)) => {
                let bits: Vec<u64> = session
                    .model()
                    .flatten()
                    .iter()
                    .map(|w| w.to_bits())
                    .collect();
                let pos = states.iter().position(|s| *s == bits).unwrap_or_else(|| {
                    panic!(
                        "{point}: {} recovered to a state that matches no \
                             committed prefix (torn or diverged)",
                        spec.name
                    )
                });
                assert_eq!(
                    epoch as usize, pos,
                    "{point}: {} epoch disagrees with its recovered state",
                    spec.name
                );
                assert!(
                    pos >= floor,
                    "{point}: {} lost an acknowledged wave (recovered {pos}, acked {floor})",
                    spec.name
                );
                assert!(
                    pos <= floor + 1,
                    "{point}: {} recovered past the ack boundary (recovered {pos}, acked {floor})",
                    spec.name
                );
            }
            // A session may only be missing if its registration itself
            // was never acknowledged (crash during the baseline
            // snapshot) — so nothing about it can have been acked.
            Err(_) => assert_eq!(
                floor, 0,
                "{point}: session {} was acknowledged but is gone",
                spec.name
            ),
        }
    }
}

/// Child-process driver. A no-op unless spawned by a parent test with
/// one of the role env vars set; `PRIU_FAILPOINT` (set by the parent)
/// then aborts the process at the armed instant.
#[test]
fn crash_child() {
    if let Some(dir) = std::env::var_os("PRIU_CRASH_RECOVER_DIR") {
        // Recovery role: just start (= recover) and exit.
        let server = Server::start(durable(Path::new(&dir), 2)).expect("recovery in child");
        server.shutdown();
        return;
    }
    let Some(dir) = std::env::var_os("PRIU_CRASH_RUN_DIR") else {
        return;
    };
    let dir = PathBuf::from(dir);
    let snapshot_every = std::env::var("PRIU_CRASH_SNAP_EVERY")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let server = Server::start(durable(&dir, snapshot_every)).expect("child server");
    for spec in &SPECS {
        server
            .register_session(spec.name, fixture(spec))
            .expect("child register");
    }
    let mut journal = OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("ack.journal"))
        .expect("open ack journal");
    for w in 0..WAVES {
        let mut waves = Vec::new();
        for spec in &SPECS {
            waves.push((spec.name, drive_wave(&server, spec, w)));
        }
        for (name, tickets) in waves {
            if tickets.into_iter().all(|t| t.wait().is_ok()) {
                // The journal line is the "application observed the ack"
                // record; fsync'd so the parent can trust it survived.
                writeln!(journal, "{name} {w}").expect("journal write");
                journal.sync_data().expect("journal fsync");
            }
        }
    }
    server.shutdown();
}

/// Tentpole: kill the server at every commit-path and snapshot-path fail
/// point mid-stream; recovery must land bitwise on the acked prefix.
/// The `:N` suffixes spread the crashes across different waves and
/// sessions (each wave applies two batches, one per session; snapshot
/// writes 1–2 are the registration baselines).
#[test]
fn crash_at_every_fail_point_recovers_the_acked_prefix() {
    let points = [
        "wal-after-append",         // wave 0, lin: record in page cache, not fsync'd
        "wal-before-fsync:2",       // wave 0, log: record written, fsync pending
        "wal-after-fsync:4",        // wave 1, log: durable but not applied
        "apply-before-commit:5",    // wave 2, lin: acked, successor built but not committed
        "before-ack:7",             // wave 3, lin: published to predicts but never acked
        "snapshot-mid-write:3",     // wave 1, lin: torn periodic snapshot tmp
        "snapshot-before-rename:3", // complete tmp, never renamed
        "snapshot-after-rename:4",  // wave 1, log: renamed, dir fsync pending
        "group-leader-sync:3",      // a pass fsync pending, frames appended
        "snapshot-handoff:2",       // wave 1, log: committed, snapshot job never enqueued
        "after-ack:6",              // wave 2, log: acked, successor never committed
    ];
    for point in points {
        let dir = tempdir(&format!("crash-{}", point.replace(':', "-")));
        let status = child_cmd()
            .env("PRIU_CRASH_RUN_DIR", &dir)
            .env(FAILPOINT_ENV, point)
            .status()
            .expect("spawn crash child");
        assert!(!status.success(), "fail point {point} never fired");
        let acked = read_acked(&dir);
        let server = Server::start(durable(&dir, 2))
            .unwrap_or_else(|e| panic!("{point}: recovery failed: {e}"));
        assert_recovered_prefix(point, &server, &acked);
        server.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Kill the server mid-checkpoint. The child checkpoints aggressively
/// (`PRIU_CRASH_CKPT_BYTES=1`: compaction after every periodic
/// snapshot), so the first periodic snapshot triggers a rewrite and the
/// armed point fires during it. A crash before the rename must leave the
/// pre-checkpoint log serving (the torn `.tmp` is ignored); a crash
/// after it must leave the complete rewritten log — either way recovery
/// pairs whatever log survives with the durable snapshots and lands
/// bitwise on the acked floor.
#[test]
fn crash_during_checkpoint_recovers_the_acked_prefix() {
    let points = [
        "checkpoint-mid-rewrite",   // torn tmp beside the untouched old log
        "checkpoint-before-rename", // complete tmp, never renamed
        "checkpoint-after-rename",  // new log in place, dir fsync pending
    ];
    for point in points {
        let dir = tempdir(&format!("ckpt-{point}"));
        let status = child_cmd()
            .env("PRIU_CRASH_RUN_DIR", &dir)
            .env("PRIU_CRASH_CKPT_BYTES", "1")
            .env(FAILPOINT_ENV, point)
            .status()
            .expect("spawn crash child");
        assert!(!status.success(), "fail point {point} never fired");
        let acked = read_acked(&dir);
        // Recover with compaction effectively off (the default 1 MiB
        // threshold), so the assertion sees exactly what the crash left.
        let server = Server::start(durable(&dir, 2))
            .unwrap_or_else(|e| panic!("{point}: recovery failed: {e}"));
        assert_recovered_prefix(point, &server, &acked);
        server.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A crash *during* recovery redo must leave the store recoverable: redo
/// mutates nothing on disk, so a second recovery sees the same WAL and
/// snapshots and completes.
#[test]
fn crash_during_recovery_is_itself_recoverable() {
    let dir = tempdir("mid-redo");
    // Clean run with snapshots effectively disabled (baselines only), so
    // recovery has the full 12-record WAL suffix to redo.
    let clean = child_cmd()
        .env("PRIU_CRASH_RUN_DIR", &dir)
        .env("PRIU_CRASH_SNAP_EVERY", "1000000")
        .status()
        .expect("spawn clean child");
    assert!(clean.success(), "clean child run failed");
    let acked = read_acked(&dir);
    for spec in &SPECS {
        assert_eq!(acked[spec.name], WAVES, "clean run acked every wave");
    }
    let crashed = child_cmd()
        .env("PRIU_CRASH_RECOVER_DIR", &dir)
        .env(FAILPOINT_ENV, "recovery-mid-redo:3")
        .status()
        .expect("spawn recovering child");
    assert!(!crashed.success(), "recovery fail point never fired");

    let server = Server::start(durable(&dir, 2)).expect("second recovery");
    assert_recovered_prefix("recovery-mid-redo", &server, &acked);
    let report = server.recovery_report().expect("durable server reports");
    assert_eq!(report.wal_records, (WAVES * SPECS.len()) as u64);
    assert!(report.wal_tail.is_none());
    assert_eq!(report.orphan_records, 0);
    assert!(report.snapshot_skips.is_empty());
    for session in &report.sessions {
        assert_eq!(session.snapshot_epoch, 0, "recovered from the baseline");
        assert_eq!(session.redone, WAVES as u64);
        assert!(session.skipped.is_empty());
        assert_eq!(session.final_epoch, WAVES as u64);
    }
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Clean shutdown + restart is bitwise lossless, reports a clean WAL,
/// and the recovered server keeps accepting (and persisting) deltas.
#[test]
fn clean_restart_recovers_bitwise_and_accepts_new_deltas() {
    let dir = tempdir("clean-restart");
    let server = Server::start(durable(&dir, 2)).expect("first start");
    for spec in &SPECS {
        server
            .register_session(spec.name, fixture(spec))
            .expect("register");
    }
    for w in 0..WAVES {
        let mut waves = Vec::new();
        for spec in &SPECS {
            waves.push(drive_wave(&server, spec, w));
        }
        for tickets in waves {
            for ticket in tickets {
                ticket.wait().expect("wave");
            }
        }
    }
    let before: HashMap<&str, Vec<u8>> = SPECS
        .iter()
        .map(|s| (s.name, snapshot_bytes(&server, s.name)))
        .collect();
    server.shutdown();

    // Restart: the epoch-6 snapshots cover the whole WAL, so redo is
    // empty, and state is byte-identical to the pre-shutdown capture.
    let server = Server::start(durable(&dir, 2)).expect("restart");
    let report = server.recovery_report().expect("report").clone();
    assert_eq!(report.wal_records, (WAVES * SPECS.len()) as u64);
    assert!(report.wal_tail.is_none());
    assert_eq!(report.orphan_records, 0);
    assert!(report.snapshot_skips.is_empty());
    for session in &report.sessions {
        assert_eq!(session.snapshot_epoch, WAVES as u64);
        assert_eq!(session.redone, 0, "snapshot covered the full WAL");
        assert_eq!(session.final_epoch, WAVES as u64);
    }
    for spec in &SPECS {
        let (session, epoch) = server.model_snapshot(spec.name).expect("recovered");
        assert_eq!(epoch, WAVES as u64);
        assert_eq!(
            session.to_snapshot_bytes(),
            before[spec.name],
            "{}: restart changed the model",
            spec.name
        );
    }

    // The recovered server is live: a new delete commits at epoch 7 and
    // survives a further restart via WAL redo (7 is odd, no snapshot).
    let ticket = server
        .delete("crash/lin", &[100])
        .expect("post-recovery delete");
    server.flush("crash/lin").expect("flush");
    ticket.wait().expect("post-recovery ack");
    let (after, epoch) = server
        .model_snapshot("crash/lin")
        .expect("post-recovery model");
    assert_eq!(epoch, WAVES as u64 + 1);
    let after = after.to_snapshot_bytes();
    server.shutdown();

    let server = Server::start(durable(&dir, 2)).expect("third start");
    let report = server.recovery_report().expect("report");
    let lin = report
        .sessions
        .iter()
        .find(|s| s.session == "crash/lin")
        .expect("lin recovered");
    assert_eq!(lin.snapshot_epoch, WAVES as u64);
    assert_eq!(
        lin.redone, 1,
        "the post-recovery delete was redone from the WAL"
    );
    let (session, epoch) = server.model_snapshot("crash/lin").expect("recovered");
    assert_eq!(epoch, WAVES as u64 + 1);
    assert_eq!(session.to_snapshot_bytes(), after);
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Runs the full stream durably with snapshots disabled past the
/// baselines, so every recovered state is pure WAL replay. Returns the
/// store directory.
fn durable_run_baselines_only(tag: &str) -> PathBuf {
    let dir = tempdir(tag);
    let server = Server::start(durable(&dir, 1_000_000)).expect("durable run");
    for spec in &SPECS {
        server
            .register_session(spec.name, fixture(spec))
            .expect("register");
    }
    for w in 0..WAVES {
        let mut waves = Vec::new();
        for spec in &SPECS {
            waves.push(drive_wave(&server, spec, w));
        }
        for tickets in waves {
            for ticket in tickets {
                ticket.wait().expect("wave");
            }
        }
    }
    server.shutdown();
    dir
}

/// Truncate the WAL at seeded random byte offsets (plus the empty and
/// full cuts): recovery must always land on a committed prefix, report a
/// torn tail exactly when the cut is mid-frame, and never panic. Longer
/// surviving prefixes recover monotonically further states.
#[test]
fn truncated_wal_tail_recovers_a_committed_prefix_at_every_cut() {
    let dir = durable_run_baselines_only("wal-truncate");
    let wal_path = dir.join(WAL_FILE);
    let pristine = fs::read(&wal_path).expect("read WAL");

    let mut cuts = vec![0usize, pristine.len()];
    let mut state = 0x9E37_79B9_7F4A_7C15u64; // fixed seed: reproducible cuts
    for _ in 0..14 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        cuts.push((state % pristine.len() as u64) as usize);
    }
    cuts.sort_unstable();
    cuts.dedup();

    let mut prev: HashMap<&str, usize> = HashMap::new();
    for cut in cuts {
        fs::write(&wal_path, &pristine[..cut]).expect("truncate WAL");
        let scan = scan_wal(&wal_path).expect("scan never errors on torn logs");
        assert!(scan.valid_bytes as usize <= cut);
        let mid_frame = scan.valid_bytes as usize != cut;

        let server = Server::start(durable(&dir, 1_000_000))
            .unwrap_or_else(|e| panic!("cut {cut}: recovery failed: {e}"));
        let report = server.recovery_report().expect("report");
        assert_eq!(
            report.wal_tail.is_some(),
            mid_frame,
            "cut {cut}: torn tail misreported"
        );
        for spec in &SPECS {
            // Baseline snapshots exist regardless of the WAL, so the
            // sessions themselves can never be lost.
            let (bits, epoch) = model_bits(&server, spec.name);
            let states = &reference_states()[spec.name];
            let pos = states
                .iter()
                .position(|s| *s == bits)
                .unwrap_or_else(|| panic!("cut {cut}: {} is not a committed prefix", spec.name));
            assert_eq!(epoch as usize, pos, "cut {cut}: {} epoch drift", spec.name);
            let floor = prev.insert(spec.name, pos).unwrap_or(0);
            assert!(
                pos >= floor,
                "cut {cut}: {} recovered less than a shorter prefix did",
                spec.name
            );
        }
        server.shutdown();
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A flipped bit mid-WAL: the checksum catches it, recovery keeps the
/// clean prefix, reports the tail, and discards the poisoned suffix.
#[test]
fn flipped_wal_byte_is_detected_and_the_prefix_recovered() {
    let dir = durable_run_baselines_only("wal-bitflip");
    let wal_path = dir.join(WAL_FILE);
    let pristine = fs::read(&wal_path).expect("read WAL");
    let flip_at = pristine.len() * 2 / 3;
    let mut poisoned = pristine.clone();
    poisoned[flip_at] ^= 0x40;
    fs::write(&wal_path, &poisoned).expect("write poisoned WAL");

    let server = Server::start(durable(&dir, 1_000_000)).expect("recovery");
    let report = server.recovery_report().expect("report");
    assert!(
        report.wal_tail.is_some(),
        "bit flip went undetected: {report:?}"
    );
    assert!(report.wal_records < (WAVES * SPECS.len()) as u64);
    for spec in &SPECS {
        let (bits, epoch) = model_bits(&server, spec.name);
        let states = &reference_states()[spec.name];
        let pos = states
            .iter()
            .position(|s| *s == bits)
            .unwrap_or_else(|| panic!("{}: not a committed prefix", spec.name));
        assert_eq!(epoch as usize, pos);
        assert!(
            pos < WAVES + 1,
            "{}: poisoned suffix was replayed",
            spec.name
        );
    }
    server.shutdown();
    // Reopen truncated the WAL back to its valid prefix.
    assert!(fs::metadata(&wal_path).expect("WAL exists").len() <= flip_at as u64);
    let _ = fs::remove_dir_all(&dir);
}

fn hex(name: &str) -> String {
    name.bytes().map(|b| format!("{b:02x}")).collect()
}

/// Torn snapshot temp files are ignored; a corrupted newest snapshot
/// falls back to the previous epoch and the WAL redoes the difference —
/// the final state is still the full committed stream, bitwise.
#[test]
fn torn_and_corrupt_snapshots_fall_back_to_older_epochs() {
    let dir = tempdir("snap-corrupt");
    let server = Server::start(durable(&dir, 2)).expect("durable run");
    for spec in &SPECS {
        server
            .register_session(spec.name, fixture(spec))
            .expect("register");
    }
    for w in 0..WAVES {
        let mut waves = Vec::new();
        for spec in &SPECS {
            waves.push(drive_wave(&server, spec, w));
        }
        for tickets in waves {
            for ticket in tickets {
                ticket.wait().expect("wave");
            }
        }
    }
    let before: HashMap<&str, Vec<u8>> = SPECS
        .iter()
        .map(|s| (s.name, snapshot_bytes(&server, s.name)))
        .collect();
    server.shutdown();

    // A torn temp file from a crashed snapshot write: must be ignored.
    let snapdir = dir.join("snapshots");
    fs::write(
        snapdir.join("deadbeef-00000000000000000099.snap.tmp"),
        b"torn",
    )
    .expect("torn tmp");

    // Corrupt crash/lin's newest snapshot (epoch 6): one flipped byte.
    let lin_hex = hex("crash/lin");
    let newest = fs::read_dir(&snapdir)
        .expect("snapshot dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|f| f.to_str())
                .is_some_and(|f| f.starts_with(&lin_hex) && f.ends_with(".snap"))
        })
        .max()
        .expect("lin snapshots exist");
    let mut bytes = fs::read(&newest).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&newest, &bytes).expect("corrupt snapshot");

    let server = Server::start(durable(&dir, 2)).expect("recovery");
    let report = server.recovery_report().expect("report");
    assert_eq!(report.snapshot_skips.len(), 1, "{report:?}");
    let lin = report
        .sessions
        .iter()
        .find(|s| s.session == "crash/lin")
        .expect("lin recovered");
    // Fell back from the corrupt epoch-6 snapshot to epoch 4; the two
    // missing waves were redone from the WAL.
    assert_eq!(lin.snapshot_epoch, 4);
    assert_eq!(lin.redone, 2);
    assert!(lin.skipped.is_empty());
    for spec in &SPECS {
        let (session, epoch) = server.model_snapshot(spec.name).expect("session");
        assert_eq!(epoch, WAVES as u64);
        assert_eq!(
            session.to_snapshot_bytes(),
            before[spec.name],
            "{}: fallback recovery diverged",
            spec.name
        );
    }
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Poison never reaches the log: a non-finite add or tick fails at
/// admission with a typed error, appends no WAL frame, bumps no epoch,
/// and a restart serves exactly the pre-add model.
#[test]
fn non_finite_adds_are_rejected_before_the_wal() {
    let dir = tempdir("non-finite");
    let spec = &SPECS[0];
    let server = Server::start(durable(&dir, 2)).expect("durable server");
    server
        .register_session(spec.name, fixture(spec))
        .expect("register");
    for ticket in drive_wave(&server, spec, 0) {
        ticket.wait().expect("wave 0");
    }
    let frames = server.durability_stats().expect("durable").frames;
    let (bits, epoch) = model_bits(&server, spec.name);

    let clean = added(spec, 3, 1);
    let mut nan_feature = clean.clone();
    nan_feature.features[4] = f64::NAN;
    let mut inf_label = clean.clone();
    inf_label.labels[2] = f64::INFINITY;
    for rows in [nan_feature.clone(), inf_label] {
        assert!(matches!(
            server.add(spec.name, rows),
            Err(ServerError::InvalidRows(_))
        ));
    }
    assert!(matches!(
        server.tick(spec.name, Some(nan_feature), 10),
        Err(ServerError::InvalidRows(_))
    ));
    assert!(matches!(
        server.predict(spec.name, &[f64::NAN; 5]),
        Err(ServerError::InvalidRows(_))
    ));
    server.flush(spec.name).expect("flush");
    assert_eq!(server.durability_stats().expect("durable").frames, frames);
    assert_eq!(model_bits(&server, spec.name), (bits.clone(), epoch));
    server.shutdown();

    let restarted = Server::start(durable(&dir, 2)).expect("restart");
    assert_eq!(model_bits(&restarted, spec.name), (bits, epoch));
    restarted.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Logs from earlier versions can hold same-session chains, whose later
/// records were resolved against an earlier record of the same pass and
/// name it in `prev_lsn`. A hand-written log holds a record whose redo
/// fails (an id the session never had), a record chained onto it, and an
/// unchained record: redo skips the first for its id, skips the second
/// for the chain alone, and redoes the third onto the baseline.
#[test]
fn redo_skips_records_chained_onto_a_skipped_record() {
    let dir = tempdir("chained-skip");
    let spec = &SPECS[0];
    let server = Server::start(durable(&dir, 1_000_000)).expect("durable server");
    server
        .register_session(spec.name, fixture(spec))
        .expect("register");
    server.shutdown();

    let (log, _) =
        GroupWal::open(&dir.join(WAL_FILE), GroupCommitConfig::default()).expect("open WAL");
    let record = |prev_lsn, removed_ids: Vec<u64>| WalRecord {
        lsn: 0,
        prev_lsn,
        session: spec.name.to_string(),
        method: Method::Priu,
        removed_ids,
        keep_last: None,
        added: None,
    };
    let mut failing = record(None, vec![N as u64 + 50]);
    log.append(&mut failing).expect("append");
    // Valid on its own: only the chain makes redo skip it.
    let mut chained = record(Some(failing.lsn), vec![1]);
    log.append(&mut chained).expect("append");
    let mut unchained = record(None, vec![2, 3]);
    log.append_sync(&mut unchained).expect("append");
    drop(log);

    let restarted = Server::start(durable(&dir, 1_000_000)).expect("restart");
    let report = restarted.recovery_report().expect("report");
    let session = &report.sessions[0];
    assert_eq!(session.redone, 1, "only the unchained record is redone");
    assert_eq!(session.skipped.len(), 2);
    assert_eq!(session.skipped[0].0, failing.lsn);
    assert!(
        session.skipped[0].1.contains("not in the recovered id map"),
        "{:?}",
        session.skipped[0]
    );
    assert_eq!(
        session.skipped[1],
        (
            chained.lsn,
            format!("chained onto skipped record {}", failing.lsn)
        )
    );
    assert_eq!(session.final_epoch, 1);

    let expected = fixture(spec)
        .apply_delta(Method::Priu, &Delta::removal(&[2, 3]))
        .expect("direct apply")
        .session;
    let want: Vec<u64> = expected
        .model()
        .flatten()
        .iter()
        .map(|w| w.to_bits())
        .collect();
    assert_eq!(model_bits(&restarted, spec.name), (want, 1));
    restarted.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
