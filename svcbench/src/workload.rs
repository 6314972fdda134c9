//! The three workloads: which sessions a run registers, and the open-loop
//! schedule of writes and predicts it sends. Everything here is a pure
//! function of `(workload, seed, seconds, size)`; the server only ever sees
//! the generated rows and ids.

use priu_core::TrainerConfig;
use priu_data::catalog::{DatasetCatalog, GeneratorKind, Hyperparameters};
use priu_data::dataset::{DenseDataset, Labels};
use priu_data::dirty::inject_dirty_samples;
use priu_data::rng::seeded_rng;
use priu_data::synthetic::regression::{generate_regression, RegressionConfig};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["clean-linear", "fanout-small", "window-multinomial"];

/// Wire predicts per second, spread round-robin over the sessions and
/// interleaved with the writes.
pub const PREDICT_RATE: f64 = 1000.0;

/// Session sizes: `Full` is the benchmark; `Tiny` shrinks every session so
/// the benchmark's own tests finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    /// The `--size` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// One session the run fits and registers.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    pub name: String,
    pub data: DenseDataset,
    pub config: TrainerConfig,
    /// Whether to materialise the PrIU-opt capture.
    pub opt_capture: bool,
    /// The fixed feature vector predicts (wire and in-process) ask about.
    pub probe: Vec<f64>,
    /// Rows the session's ticks append, cycled in order (empty when the
    /// workload never adds).
    pub holdout: Option<DenseDataset>,
}

/// A write the schedule sends.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    /// Delete one row by stable id.
    Delete { id: u64 },
    /// Append holdout row `row` and retain the last `keep_last` rows.
    Tick { row: usize, keep_last: u64 },
}

/// What one scheduled request does.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Write(WriteOp),
    Predict,
}

/// One scheduled request: due `due_ns` after the schedule starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    pub due_ns: u64,
    pub session: usize,
    pub op: Op,
}

/// A whole run's inputs.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: &'static str,
    pub sessions: Vec<SessionSpec>,
    /// Requests sorted by due time; the index is the correlation id.
    pub items: Vec<Item>,
    /// Writes per second across all sessions.
    pub write_rate: f64,
    /// How late (p95, ms) the sender may run before the run is invalid.
    pub lag_limit_ms: f64,
    /// Rounds an untraced run makes: each sets the server up afresh and
    /// sends the whole schedule, and the run pools their samples.
    pub rounds: usize,
}

impl Plan {
    /// Number of scheduled writes.
    pub fn num_writes(&self) -> usize {
        self.items
            .iter()
            .filter(|item| matches!(item.op, Op::Write(_)))
            .count()
    }
}

/// A splitmix64 step: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds the plan for `workload`.
///
/// # Errors
/// An unknown workload name.
pub fn plan(workload: &str, seed: u64, seconds: f64, size: Size) -> Result<Plan, String> {
    match workload {
        "clean-linear" => Ok(clean_linear(seed, seconds, size)),
        "fanout-small" => Ok(fanout_small(seed, seconds, size)),
        "window-multinomial" => Ok(window_multinomial(seed, seconds, size)),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// `clean-linear`: one 2000×318 linear session (SGEMM extended ×0.1,
/// PrIU-opt and closed-form captures) whose dirty rows are deleted one per
/// request at 40/s in seeded order.
fn clean_linear(seed: u64, seconds: f64, size: Size) -> Plan {
    const RATE: f64 = 40.0;
    // A fifth of the rows are dirty, so a 10 s run has 400 distinct
    // deletions and drift stays below the 25% forced-retrain threshold.
    const DIRTY_RATE: f64 = 0.2;
    let mut spec = DatasetCatalog::sgemm_extended();
    if size == Size::Tiny {
        spec.kind = GeneratorKind::Regression { extra_features: 30 };
    }
    let mut spec = spec.scaled(match size {
        Size::Full => 0.1,
        Size::Tiny => 0.02,
    });
    spec.seed = mix(seed, 1);
    let clean = spec
        .generate()
        .as_dense()
        .expect("regression is dense")
        .clone();
    let injection = inject_dirty_samples(&clean, DIRTY_RATE, 10.0, mix(seed, 2));
    let mut dirty = injection.dirty_indices;
    seeded_rng(mix(seed, 3), 0).shuffle(&mut dirty);
    let data = injection.dirty_dataset;
    let probe = data.x.row(0).to_vec();
    let config = TrainerConfig::from_hyper(spec.hyper).with_seed(mix(seed, 4));
    let sessions = vec![SessionSpec {
        name: "sgemm".to_string(),
        data,
        config,
        opt_capture: true,
        probe,
        holdout: None,
    }];
    let writes = dirty
        .into_iter()
        .map(|id| (0, WriteOp::Delete { id: id as u64 }))
        .collect();
    schedule("clean-linear", sessions, writes, RATE, seconds, 50.0, 5)
}

/// `fanout-small`: sixteen 1000×6 linear sessions (loadgen's toy generator
/// and hyperparameters, no opt capture) taking single-row deletes
/// round-robin at 800/s, up to 24% of each session so no drift retrain
/// fires.
fn fanout_small(seed: u64, seconds: f64, size: Size) -> Plan {
    const RATE: f64 = 800.0;
    const DELETE_SHARE: f64 = 0.24;
    let (num_sessions, rows) = match size {
        Size::Full => (16, 1000),
        Size::Tiny => (4, 200),
    };
    let hyper = Hyperparameters {
        batch_size: 25,
        num_iterations: 40,
        learning_rate: 0.05,
        regularization: 0.05,
    };
    let budget = (rows as f64 * DELETE_SHARE).floor() as usize;
    let mut sessions = Vec::with_capacity(num_sessions);
    let mut orders = Vec::with_capacity(num_sessions);
    for s in 0..num_sessions {
        let data = generate_regression(&RegressionConfig {
            num_samples: rows,
            num_features: 6,
            noise_std: 0.1,
            seed: mix(seed, 100 + s as u64),
            ..Default::default()
        });
        let probe = data.x.row(0).to_vec();
        sessions.push(SessionSpec {
            name: format!("toy{s:02}"),
            data,
            config: TrainerConfig::from_hyper(hyper).with_seed(11),
            opt_capture: false,
            probe,
            holdout: None,
        });
        let mut order: Vec<u64> = (0..rows as u64).collect();
        seeded_rng(mix(seed, 200 + s as u64), 0).shuffle(&mut order);
        order.truncate(budget);
        orders.push(order);
    }
    let writes = (0..budget)
        .flat_map(|k| (0..num_sessions).map(move |s| (s, k)))
        .map(|(s, k)| (s, WriteOp::Delete { id: orders[s][k] }))
        .collect();
    schedule("fanout-small", sessions, writes, RATE, seconds, 20.0, 5)
}

/// `window-multinomial`: two 5000×54, 7-class sessions (Cov small ×0.1)
/// under a sliding window at 60 writes/s in total, 420 writes per round.
/// Each session cycles
/// tick, tick, delete: a tick appends one held-out row of the same
/// generator with `keep_last` = the initial size, the delete removes a
/// mid-window row.
fn window_multinomial(seed: u64, seconds: f64, size: Size) -> Plan {
    const RATE: f64 = 60.0;
    const SESSIONS: usize = 2;
    const HOLDOUT: usize = 1500;
    let base = DatasetCatalog::cov_small().scaled(match size {
        Size::Full => 0.1,
        Size::Tiny => 0.01,
    });
    let n0 = base.num_samples;
    let mut sessions = Vec::with_capacity(SESSIONS);
    let mut mid_ids = Vec::with_capacity(SESSIONS);
    for s in 0..SESSIONS {
        let mut spec = base.clone();
        spec.seed = mix(seed, 300 + s as u64);
        spec.num_samples = n0 + HOLDOUT;
        let all = spec
            .generate()
            .as_dense()
            .expect("multiclass is dense")
            .clone();
        let data = all.select(&(0..n0).collect::<Vec<_>>());
        let holdout = all.select(&(n0..n0 + HOLDOUT).collect::<Vec<_>>());
        let probe = holdout.x.row(0).to_vec();
        sessions.push(SessionSpec {
            name: format!("cov{s}"),
            data,
            config: TrainerConfig::from_hyper(spec.hyper).with_seed(mix(seed, 400 + s as u64)),
            opt_capture: true,
            probe,
            holdout: Some(holdout),
        });
        // Mid-window ids: retention expires the lowest ids first, about one
        // per cycle, so the middle half stays live for any run length the
        // drift budget allows.
        let mut ids: Vec<u64> = (n0 as u64 / 4..3 * n0 as u64 / 4).collect();
        seeded_rng(mix(seed, 500 + s as u64), 0).shuffle(&mut ids);
        mid_ids.push(ids);
    }
    // 70 cycles of tick, tick, delete on both sessions: 420 writes, 7 s at
    // 60/s. A session loses at most two rows per cycle (one expiry, one
    // delete), far below the 25% drift that forces a retrain. Longer runs
    // mostly grow the background snapshot backlog the run must drain before
    // its restart check.
    let cycles = 70.min((n0 as f64 * 0.24 / 2.0).floor() as usize);
    let writes = (0..cycles)
        .flat_map(|c| (0..3).flat_map(move |step| (0..SESSIONS).map(move |s| (c, step, s))))
        .map(|(c, step, s)| {
            let op = if step < 2 {
                WriteOp::Tick {
                    row: (2 * c + step) % HOLDOUT,
                    keep_last: n0 as u64,
                }
            } else {
                WriteOp::Delete { id: mid_ids[s][c] }
            };
            (s, op)
        })
        .collect();
    schedule(
        "window-multinomial",
        sessions,
        writes,
        RATE,
        seconds,
        50.0,
        1,
    )
}

/// Lays `writes` (in order, capped to what `seconds` holds at `rate`) and
/// round-robin predicts at [`PREDICT_RATE`] over the same span onto one
/// due-time-sorted schedule.
fn schedule(
    workload: &'static str,
    sessions: Vec<SessionSpec>,
    writes: Vec<(usize, WriteOp)>,
    rate: f64,
    seconds: f64,
    lag_limit_ms: f64,
    rounds: usize,
) -> Plan {
    let num_writes = ((seconds * rate).floor() as usize).clamp(1, writes.len());
    let span_s = num_writes as f64 / rate;
    let mut items: Vec<Item> = writes
        .into_iter()
        .take(num_writes)
        .enumerate()
        .map(|(k, (session, op))| Item {
            due_ns: (k as f64 / rate * 1e9) as u64,
            session,
            op: Op::Write(op),
        })
        .collect();
    let num_predicts = (span_s * PREDICT_RATE).floor() as usize;
    items.extend((0..num_predicts).map(|j| Item {
        due_ns: ((j as f64 + 0.5) / PREDICT_RATE * 1e9) as u64,
        session: j % sessions.len(),
        op: Op::Predict,
    }));
    items.sort_by_key(|item| item.due_ns);
    Plan {
        workload,
        sessions,
        items,
        write_rate: rate,
        lag_limit_ms,
        rounds,
    }
}

/// The label of held-out row `row` as the wire carries it (class index for
/// multiclass sessions, the value itself otherwise).
pub fn wire_label(labels: &Labels, row: usize) -> f64 {
    match labels {
        Labels::Continuous(v) | Labels::Binary(v) => v.as_slice()[row],
        Labels::Multiclass { classes, .. } => f64::from(classes[row]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_sorted() {
        for workload in WORKLOADS {
            let a = plan(workload, 7, 1.0, Size::Tiny).unwrap();
            let b = plan(workload, 7, 1.0, Size::Tiny).unwrap();
            assert_eq!(a.items, b.items, "{workload}");
            assert!(a.items.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
            assert!(a.num_writes() > 0 && a.items.len() > a.num_writes());
            let c = plan(workload, 8, 1.0, Size::Tiny).unwrap();
            assert_ne!(a.items, c.items, "{workload}: the seed must matter");
        }
    }

    #[test]
    fn full_runs_hold_at_least_400_writes_in_ten_seconds() {
        for workload in WORKLOADS {
            let plan = plan(workload, 1, 10.0, Size::Full).unwrap();
            assert!(
                plan.num_writes() >= 400,
                "{workload}: {}",
                plan.num_writes()
            );
        }
    }

    #[test]
    fn deletes_never_repeat_an_id() {
        for workload in WORKLOADS {
            let plan = plan(workload, 3, 10.0, Size::Full).unwrap();
            let mut seen = std::collections::HashSet::new();
            for item in &plan.items {
                if let Op::Write(WriteOp::Delete { id }) = item.op {
                    assert!(seen.insert((item.session, id)), "{workload}: {id}");
                }
            }
        }
    }
}
