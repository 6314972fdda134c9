//! Layer probes for the traced run: each times public calls of one layer
//! (engine, linalg, snapshot codec, WAL) from outside, on the state the run
//! left behind.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use priu_core::{DeletionEngine, Delta, DeltaRows, Method, Session};
use priu_data::dataset::DenseDataset;
use priu_linalg::decomposition::SymmetricEigen;
use priu_server::{GroupCommitConfig, GroupWal, WalRecord, WalStats};

use crate::analysis::Batch;
use crate::stats::{median, percentile_of};
use crate::workload::SessionSpec;
use crate::Metric;

const MIB: f64 = 1024.0 * 1024.0;
/// Repetitions of sub-millisecond and multi-millisecond probes.
const FAST_REPS: usize = 5;
const SLOW_REPS: usize = 3;
/// WAL append + fsync pairs timed on the scratch log.
const WAL_REPS: usize = 100;
/// Distinct batch shapes probed for `scheduler.reported_over_apply`.
const MAX_BATCH_SHAPES: usize = 6;

/// Median wall time of `reps` calls of `f`, in ms. The result of each call
/// is dropped outside the timed interval.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let out = std::hint::black_box(f());
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            drop(out);
            ms
        })
        .collect();
    median(&samples)
}

/// `k` distinct row indices spread evenly over `0..n`.
fn spread(n: usize, k: usize) -> Vec<usize> {
    let k = k.clamp(1, n.saturating_sub(1).max(1));
    (0..k).map(|i| i * n / k).collect()
}

fn expect_ok<T, E: std::fmt::Display>(what: &str, r: Result<T, E>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("probe {what} failed: {e}"),
    }
}

/// The scheduler's most-used incremental method, if the session still
/// supports it; otherwise the first supported of PrIU-opt, PrIU,
/// closed-form.
fn main_method(session: &Session, decisions: &BTreeMap<Method, u64>) -> Method {
    let supported = session.supported_methods();
    decisions
        .iter()
        .filter(|(m, &c)| c > 0 && **m != Method::Retrain && supported.contains(m))
        .max_by_key(|(m, &c)| (c, std::cmp::Reverse(**m)))
        .map(|(m, _)| *m)
        .or_else(|| {
            [Method::PriuOpt, Method::Priu, Method::ClosedForm]
                .into_iter()
                .find(|m| supported.contains(m))
        })
        .unwrap_or(Method::Retrain)
}

/// Rows appended by an add probe: the first `k` held-out rows, or the
/// session's own first rows when the workload holds none out.
fn added_rows(spec: &SessionSpec, session: &Session, k: usize) -> DenseDataset {
    let source = spec
        .holdout
        .as_ref()
        .or(session.dense_dataset())
        .expect("dense sessions");
    source.select(&(0..k.min(source.num_samples())).collect::<Vec<_>>())
}

/// Engine, linalg and snapshot probes on `session` (a served snapshot of
/// `spec`), plus `scheduler.reported_over_apply` from the run's batches.
pub fn engine(
    spec: &SessionSpec,
    session: &Session,
    batches: &[Batch],
    decisions: &BTreeMap<Method, u64>,
) -> Vec<Metric> {
    let method = main_method(session, decisions);
    let n = session.num_samples();
    let one = spread(n, 1);
    let mut removed: Vec<f64> = batches.iter().map(|b| b.removed as f64).collect();
    removed.retain(|&r| r > 0.0);
    let median_batch = if removed.is_empty() {
        1
    } else {
        median(&removed).round() as usize
    };
    let many = spread(n, median_batch);

    let update_ms = time_ms(FAST_REPS, || {
        expect_ok("update", session.update(method, &one))
    });
    let apply_ms = time_ms(SLOW_REPS, || {
        expect_ok("apply", session.apply(method, &one))
    });
    let apply_batch_ms = time_ms(SLOW_REPS, || {
        expect_ok("batch apply", session.apply(method, &many))
    });
    let one_row = Delta::addition(DeltaRows::Dense(added_rows(spec, session, 1)));
    let add_ms = time_ms(FAST_REPS, || {
        expect_ok("add", session.update_delta(method, &one_row))
    });
    let retrain_ms = time_ms(SLOW_REPS, || {
        expect_ok("retrain", session.update(Method::Retrain, &one))
    });

    // Reported engine seconds against a probed apply of the same shape:
    // the most frequent (method, removed, added) batch shapes, one apply
    // each, summed over every batch of those shapes.
    let mut shapes: BTreeMap<(Method, u64, u64), (usize, f64)> = BTreeMap::new();
    for b in batches {
        let entry = shapes.entry((b.method, b.removed, b.added)).or_default();
        entry.0 += 1;
        entry.1 += b.seconds;
    }
    let mut ranked: Vec<_> = shapes.into_iter().collect();
    ranked.sort_by_key(|(key, (count, _))| (std::cmp::Reverse(*count), *key));
    let (mut reported_s, mut probed_s) = (0.0, 0.0);
    for ((m, rem, add), (count, seconds)) in ranked.into_iter().take(MAX_BATCH_SHAPES) {
        if !session.supports(m) || rem as usize >= n {
            continue;
        }
        let removal = if rem == 0 {
            Vec::new()
        } else {
            spread(n, rem as usize)
        };
        let delta = Delta {
            removed: removal,
            added: (add > 0).then(|| DeltaRows::Dense(added_rows(spec, session, add as usize))),
        };
        let ms = time_ms(1, || {
            expect_ok("shape apply", session.apply_delta(m, &delta))
        });
        reported_s += seconds;
        probed_s += count as f64 * ms / 1e3;
    }
    let reported_over_apply = if probed_s > 0.0 {
        reported_s / probed_s
    } else {
        f64::NAN
    };

    let data = session.dense_dataset().expect("dense sessions");
    let mut spd = data.x.gram();
    expect_ok("gram", spd.add_diagonal_mut(1.0));
    let eigen_ms = time_ms(FAST_REPS, || expect_ok("eigen", SymmetricEigen::new(&spd)));

    let bytes = session.to_snapshot_bytes();
    let encode_ms = time_ms(SLOW_REPS, || session.to_snapshot_bytes());
    let decode_ms = time_ms(SLOW_REPS, || {
        expect_ok("snapshot decode", Session::from_snapshot_bytes(&bytes))
    });

    vec![
        Metric::new(
            "scheduler.reported_over_apply",
            "ratio",
            reported_over_apply,
        ),
        Metric::new("engine.update_ms", "ms", update_ms),
        Metric::new("engine.apply_ms", "ms", apply_ms),
        Metric::new("engine.successor_ms", "ms", apply_ms - update_ms),
        Metric::new("engine.apply_batch_ms", "ms", apply_batch_ms),
        Metric::new("engine.add_ms", "ms", add_ms),
        Metric::new("engine.retrain_ms", "ms", retrain_ms),
        Metric::new("engine.speedup_vs_retrain", "ratio", retrain_ms / update_ms),
        Metric::new(
            "engine.provenance_mib",
            "MiB",
            session.provenance_bytes() as f64 / MIB,
        ),
        Metric::new("linalg.eigen_ms", "ms", eigen_ms),
        Metric::new("snapshot.encode_ms", "ms", encode_ms),
        Metric::new("snapshot.decode_ms", "ms", decode_ms),
        Metric::new("snapshot.mib", "MiB", bytes.len() as f64 / MIB),
    ]
}

/// `GroupWal::append` and `sync_through` timed on a scratch log in `dir`
/// (the store's filesystem), with frames of the run's mean frame size.
///
/// # Errors
/// I/O failures on the scratch log.
pub fn wal(dir: &Path, session: &str, run: WalStats) -> Result<Vec<Metric>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let (log, _) = GroupWal::open(&dir.join("probe.wal"), GroupCommitConfig::default())
        .map_err(|e| e.to_string())?;
    let mut record = WalRecord {
        lsn: 0,
        prev_lsn: None,
        session: session.to_string(),
        method: Method::Priu,
        removed_ids: Vec::new(),
        keep_last: None,
        added: None,
    };
    log.append_sync(&mut record).map_err(|e| e.to_string())?;
    let base_bytes = log.stats().bytes;
    let mean_bytes = run.bytes.checked_div(run.frames).unwrap_or(base_bytes);
    let ids = mean_bytes.saturating_sub(base_bytes) / 8;
    record.removed_ids = (0..ids).collect();
    let (mut append_us, mut fsync_us) = (Vec::new(), Vec::new());
    for _ in 0..WAL_REPS {
        let t0 = Instant::now();
        let seq = log.append(&mut record).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        log.sync_through(seq).map_err(|e| e.to_string())?;
        append_us.push((t1 - t0).as_secs_f64() * 1e6);
        fsync_us.push(t1.elapsed().as_secs_f64() * 1e6);
    }
    drop(log);
    let _ = std::fs::remove_dir_all(dir);
    Ok(vec![
        Metric::new("wal.append_us", "us", percentile_of(&append_us, 50.0)),
        Metric::new("wal.fsync_us", "us", percentile_of(&fsync_us, 50.0)),
    ])
}
