//! # svcbench — the service benchmark
//!
//! Drives a durable `priu-server` with paper-shaped sessions over one
//! client connection on the in-memory `duplex()` transport, using the real
//! wire protocol, and reports end-to-end and per-layer metrics. The server
//! runs `ServerConfig::default()` plus `DurabilityConfig::new(<store>)`:
//! the benchmark adds no tuning of its own.
//!
//! ```text
//! svcbench --workload clean-linear|fanout-small|window-multinomial
//!          --seed N --seconds S --trace 0|1 [--size full|tiny] [--out-dir DIR]
//!          [--rounds N]
//! ```
//!
//! A round sets the server up (timed as `setup_s`), runs the open-loop
//! schedule once, checks the correctness gate and restarts the server on
//! its store. With `--trace 0` a run makes the workload's rounds, each in
//! its own process, and prints the median of each end-to-end metric over
//! them. With `--trace 1` it first starts an untraced run of the same
//! workload as a separate process (the difference between the two is the
//! tracing overhead), then makes one traced round, writes one span per
//! request and per batch, runs the layer probes and prints the per-layer
//! metrics. The last stdout line is
//! always `{"correct", "attempted", "failed", "metrics"}`; the full record
//! (host and store, generator, gate, counts) goes to
//! `<out-dir>/results/`. `bench_diff` compares two sets of such records.

pub mod analysis;
pub mod client;
pub mod gate;
pub mod host;
pub mod json;
pub mod probes;
pub mod stats;
pub mod workload;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Instant, SystemTime};

use priu_core::{Method, SessionBuilder};
use priu_server::{DurabilityConfig, Server, ServerConfig, WalStats};

use crate::analysis::{Analysis, Ledger};
use crate::json::Json;
use crate::stats::{median, percentile};
use crate::workload::{Plan, Size};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &str, value: f64) -> Self {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
        }
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Stores, span files and result records go under here.
    pub out_dir: PathBuf,
    /// Overrides the workload's round count (see [`workload::Plan::rounds`]).
    pub rounds: Option<usize>,
    /// The `svcbench` executable, which runs of several rounds start once
    /// per round, and traced runs once for their untraced reference.
    pub exe: Option<PathBuf>,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether the correctness gate passed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub gate_failures: Vec<String>,
    /// Per-session ledgers and the row counts the server reported.
    pub ledgers: Vec<Ledger>,
    pub observed: Vec<usize>,
}

impl Report {
    /// The contract line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn summary(&self) -> Json {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            let mut value = Json::obj();
            value.push("value", m.value).push("unit", m.unit.as_str());
            metrics.push(&m.name, value);
        }
        let mut out = Json::obj();
        out.push("correct", self.correct)
            .push("attempted", self.attempted)
            .push("failed", self.failed)
            .push("metrics", metrics);
        out
    }
}

/// Why a run produced no report.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The run could not be set up or carried out.
    Failed(String),
    /// The sender fell behind its schedule by more than the workload's
    /// limit, so the latencies do not describe the intended load.
    Invalid(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Failed(m) => write!(f, "run failed: {m}"),
            RunError::Invalid(m) => write!(f, "run invalid: {m}"),
        }
    }
}

impl From<String> for RunError {
    fn from(message: String) -> Self {
        RunError::Failed(message)
    }
}

impl From<&str> for RunError {
    fn from(message: &str) -> Self {
        RunError::Failed(message.to_string())
    }
}

fn server_config(store: &Path) -> ServerConfig {
    ServerConfig {
        durability: Some(DurabilityConfig::new(store)),
        ..ServerConfig::default()
    }
}

/// Starts a durable server on a fresh `store`, fits every session and
/// registers it (each registration writes its baseline snapshot). Returns
/// the server and the seconds that took; input generation is not timed.
fn setup(plan: &Plan, store: &Path) -> Result<(Server, f64), String> {
    let _ = fs::remove_dir_all(store);
    let inputs: Vec<_> = plan.sessions.iter().map(|s| s.data.clone()).collect();
    let t0 = Instant::now();
    let server = Server::start(server_config(store)).map_err(|e| format!("start: {e}"))?;
    for (spec, data) in plan.sessions.iter().zip(inputs) {
        let session = SessionBuilder::dense(data, spec.config)
            .opt_capture(spec.opt_capture)
            .fit()
            .map_err(|e| format!("{}: fit: {e}", spec.name))?;
        server
            .register_session(&spec.name, session)
            .map_err(|e| format!("{}: register: {e}", spec.name))?;
    }
    Ok((server, t0.elapsed().as_secs_f64()))
}

/// Runs one workload.
///
/// # Errors
/// [`RunError::Failed`] when the run cannot be set up or the server fails
/// outright; [`RunError::Invalid`] when the generator ran late.
pub fn run(opts: &Options) -> Result<Report, RunError> {
    let plan = workload::plan(&opts.workload, opts.seed, opts.seconds, opts.size)?;
    let tag = format!("{}-s{}-t{}", plan.workload, opts.seed, u8::from(opts.trace));
    let run_dir = opts
        .out_dir
        .join(format!("run-{tag}-p{}", std::process::id()));
    let _ = fs::remove_dir_all(&run_dir);
    fs::create_dir_all(&run_dir).map_err(|e| format!("creating {}: {e}", run_dir.display()))?;
    let result = run_in(opts, &plan, &tag, &run_dir);
    let _ = fs::remove_dir_all(&run_dir);
    result
}

/// Runs this workload untraced in a separate `svcbench` process and
/// returns its result line. `rounds` overrides the workload's round count.
fn run_child(opts: &Options, rounds: Option<usize>, out_dir: &Path) -> Result<Json, RunError> {
    let exe = opts
        .exe
        .as_ref()
        .ok_or("this run needs the svcbench executable to start its sub-runs")?;
    let mut command = Command::new(exe);
    command
        .arg("--workload")
        .arg(&opts.workload)
        .arg("--seed")
        .arg(opts.seed.to_string())
        .arg("--seconds")
        .arg(opts.seconds.to_string())
        .arg("--trace")
        .arg("0")
        .arg("--size")
        .arg(opts.size.name())
        .arg("--out-dir")
        .arg(out_dir)
        .stderr(Stdio::inherit());
    if let Some(rounds) = rounds {
        command.arg("--rounds").arg(rounds.to_string());
    }
    let output = command
        .output()
        .map_err(|e| format!("starting a sub-run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match Json::parse(stdout.lines().last().unwrap_or_default()) {
        Ok(summary) => Ok(summary),
        Err(_) if output.status.code() == Some(3) => {
            Err(RunError::Invalid("a sub-run's sender ran late".to_string()))
        }
        Err(_) => Err(RunError::Failed(format!(
            "a sub-run failed ({})",
            output.status
        ))),
    }
}

/// The full record a sub-run wrote under `out_dir` (host, generator lag,
/// gate, counts), or `null` if it wrote none.
fn child_record(out_dir: &Path) -> Json {
    fs::read_dir(out_dir.join("results"))
        .ok()
        .and_then(|mut entries| entries.next())
        .and_then(|entry| fs::read_to_string(entry.ok()?.path()).ok())
        .and_then(|text| Json::parse(&text).ok())
        .unwrap_or(Json::Null)
}

fn summary_metric(summary: &Json, name: &str) -> Option<f64> {
    summary.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// One set-up, schedule, gate and restart on a fresh store.
struct Round {
    setup_s: f64,
    pass: client::Pass,
    analysis: Analysis,
    /// `VmHWM` when the schedule ended.
    peak_rss_mib: f64,
    observed: Vec<usize>,
    batches_committed: u64,
    decisions: BTreeMap<Method, u64>,
    wal: WalStats,
    /// Seconds the background snapshot queue took to drain after the
    /// schedule: the snapshot layer's backlog.
    drain_s: f64,
    failures: Vec<String>,
    /// Cosine shortfalls the gate attributes to a known engine defect.
    defects: Vec<String>,
    cosines: Vec<f64>,
    /// Layer probes (traced rounds only).
    layer: Vec<Metric>,
    recovery_s: f64,
    redone: u64,
    store_bytes: u64,
    phases: Json,
}

fn round(plan: &Plan, store: &Path, run_dir: &Path, trace: bool) -> Result<Round, RunError> {
    let names: Vec<String> = plan.sessions.iter().map(|s| s.name.clone()).collect();
    let (server, setup_s) = setup(plan, store)?;
    let mut phases = Json::obj();
    let mut phase = Instant::now();
    let mut lap = |name: &str, phases: &mut Json| {
        phases.push(name, phase.elapsed().as_secs_f64());
        phase = Instant::now();
    };
    let pass = client::drive(&server, plan, trace);
    lap("schedule_s", &mut phases);
    let analysis = Analysis::new(plan, &pass);
    let peak_rss_mib = host::peak_rss_mib().unwrap_or(f64::NAN);

    let mut observed = Vec::with_capacity(names.len());
    let mut batches_committed = 0u64;
    let mut decisions: BTreeMap<Method, u64> = BTreeMap::new();
    for name in &names {
        let stats = server
            .stats(name)
            .map_err(|e| format!("{name}: stats: {e}"))?;
        observed.push(stats.num_samples);
        batches_committed += stats.epoch;
        for (method, count) in stats.decisions {
            *decisions.entry(method).or_default() += count;
        }
    }
    let t0 = Instant::now();
    server.drain_durability();
    let drain_s = t0.elapsed().as_secs_f64();
    let wal = server.durability_stats().unwrap_or_default();
    lap("drain_s", &mut phases);

    // Correctness gate, part 1: rows and model quality.
    let mut failures = gate::check_survivors(&names, &analysis.ledgers, &observed);
    // Each session's batch methods in commit order.
    let histories: Vec<Vec<Method>> = (0..names.len())
        .map(|s| {
            let mut batches: Vec<_> = analysis.batches.iter().filter(|b| b.session == s).collect();
            batches.sort_by_key(|b| b.epoch);
            batches.iter().map(|b| b.method).collect()
        })
        .collect();
    let last_methods: Vec<Option<Method>> = histories.iter().map(|h| h.last().copied()).collect();
    let cosines = gate::cosines(&server, plan, &last_methods)?;
    let (cosine_failures, defects) = gate::check_cosines(&names, &cosines, &histories);
    failures.extend(cosine_failures);
    for defect in &defects {
        eprintln!("svcbench: known defect: {defect}");
    }
    let before = gate::probe_predictions(&server, plan)?;
    lap("gate_s", &mut phases);

    let mut layer = Vec::new();
    if trace {
        let (session, _) = server
            .model_snapshot(&names[0])
            .map_err(|e| format!("{}: snapshot: {e}", names[0]))?;
        layer.extend(probes::engine(
            &plan.sessions[0],
            &session,
            &analysis.batches,
            &decisions,
        ));
        layer.extend(probes::wal(&run_dir.join("wal-probe"), &names[0], wal)?);
        lap("probes_s", &mut phases);
    }
    let store_bytes = dir_bytes(store);
    server.shutdown();
    drop(server);
    lap("shutdown_s", &mut phases);

    // Correctness gate, part 2: restart on the store.
    let t0 = Instant::now();
    let recovered = Server::start(server_config(store)).map_err(|e| format!("restart: {e}"))?;
    let recovery_s = t0.elapsed().as_secs_f64();
    let report = recovered
        .recovery_report()
        .ok_or_else(|| "restarted server has no recovery report".to_string())?;
    if report.sessions.len() != names.len() {
        failures.push(format!(
            "recovery brought back {} of {} sessions",
            report.sessions.len(),
            names.len()
        ));
    }
    let skipped: usize = report.sessions.iter().map(|s| s.skipped.len()).sum();
    if skipped > 0 {
        failures.push(format!("recovery skipped {skipped} WAL records"));
    }
    let redone: u64 = report.sessions.iter().map(|s| s.redone).sum();
    let after = gate::probe_predictions(&recovered, plan)?;
    failures.extend(gate::check_restart(plan, &before, &after));
    recovered.shutdown();
    drop(recovered);
    let _ = fs::remove_dir_all(store);
    lap("restart_s", &mut phases);

    Ok(Round {
        setup_s,
        pass,
        analysis,
        peak_rss_mib,
        observed,
        batches_committed,
        decisions,
        wal,
        drain_s,
        failures,
        defects,
        cosines,
        layer,
        recovery_s,
        redone,
        store_bytes,
        phases,
    })
}

/// The per-layer metrics of a traced round.
fn layer_metrics(round: Round, lag_p95_ms: f64, fsync_us: f64, reference_p50: f64) -> Vec<Metric> {
    let a = &round.analysis;
    let batches = a.batches.len().max(1) as f64;
    let requests: usize = a.batches.iter().map(|b| b.requests).sum();
    let removed: u64 = a.batches.iter().map(|b| b.removed).sum();
    let non_engine: Vec<f64> = a
        .batches
        .iter()
        .map(|b| b.first_latency_ms - b.seconds * 1e3)
        .collect();
    let rows_changed: u64 = a
        .ledgers
        .iter()
        .map(|l| l.applied + l.expired + l.added)
        .sum();
    let p50_inproc = percentile(&a.inproc_predict_us, 50.0);
    let wal = round.wal;
    let mut metrics = vec![
        Metric::new("protocol.encode_us", "us", percentile(&a.encode_us, 50.0)),
        Metric::new("protocol.decode_us", "us", percentile(&a.decode_us, 50.0)),
        Metric::new(
            "protocol.predict_overhead_us",
            "us",
            percentile(&a.predict_us, 50.0) - p50_inproc,
        ),
        Metric::new("registry.predict_us", "us", p50_inproc),
        Metric::new("planner.batches", "count", round.batches_committed as f64),
        Metric::new(
            "planner.requests_per_batch",
            "count",
            requests as f64 / batches,
        ),
        Metric::new("planner.rows_per_batch", "count", removed as f64 / batches),
        Metric::new("server.non_engine_ms", "ms", median(&non_engine)),
    ];
    for method in [
        Method::Retrain,
        Method::Priu,
        Method::PriuOpt,
        Method::ClosedForm,
    ] {
        metrics.push(Metric::new(
            &format!("scheduler.decisions.{}", method.name()),
            "count",
            round.decisions.get(&method).copied().unwrap_or(0) as f64,
        ));
    }
    metrics.extend(round.layer);
    metrics.extend([
        Metric::new("wal.fsyncs", "count", wal.fsyncs as f64),
        Metric::new("wal.frames", "count", wal.frames as f64),
        Metric::new(
            "wal.frames_per_fsync",
            "ratio",
            wal.frames as f64 / wal.fsyncs.max(1) as f64,
        ),
        Metric::new(
            "wal.bytes_per_row",
            "B",
            wal.bytes as f64 / rows_changed.max(1) as f64,
        ),
        Metric::new("wal.checkpoints", "count", wal.checkpoints as f64),
        Metric::new("snapshot.drain_s", "s", round.drain_s),
        Metric::new("recovery.s", "s", round.recovery_s),
        Metric::new("recovery.redone", "count", round.redone as f64),
        Metric::new(
            "recovery.ms_per_record",
            "ms",
            round.recovery_s * 1e3 / round.redone.max(1) as f64,
        ),
        Metric::new("client.write_p95_ms", "ms", percentile(&a.write_ms, 95.0)),
        Metric::new(
            "client.predict_p50_us",
            "us",
            percentile(&a.predict_us, 50.0),
        ),
        Metric::new(
            "client.predict_p95_us",
            "us",
            percentile(&a.predict_us, 95.0),
        ),
        Metric::new("client.gen_lag_p95_ms", "ms", lag_p95_ms),
        Metric::new("client.cpu_s", "s", round.pass.client_cpu_s),
        Metric::new(
            "client.trace_overhead_frac",
            "ratio",
            percentile(&a.write_ms, 50.0) / reference_p50 - 1.0,
        ),
        Metric::new("store.fsync_p50_us", "us", fsync_us),
    ]);
    metrics
}

fn run_in(opts: &Options, plan: &Plan, tag: &str, run_dir: &Path) -> Result<Report, RunError> {
    let rounds = opts.rounds.unwrap_or(plan.rounds);
    if !opts.trace && rounds > 1 {
        return run_rounds(opts, plan, tag, run_dir, rounds);
    }
    // The untraced reference for the tracing overhead runs first, on its
    // own, so the two processes never compete for the host.
    let reference_p50 = if opts.trace {
        let summary = run_child(opts, None, &run_dir.join("reference"))?;
        Some(summary_metric(&summary, "write_p50_ms").ok_or("reference without write_p50_ms")?)
    } else {
        None
    };
    let (host, fsync_us) = host::record(run_dir)?;

    let round = round(plan, &run_dir.join("store"), run_dir, opts.trace)?;
    let a = &round.analysis;

    // Generator honesty: a late sender means the intended load never ran.
    let lag_p95_ms = percentile(&a.gen_lag_ms, 95.0);
    if lag_p95_ms > plan.lag_limit_ms {
        return Err(RunError::Invalid(format!(
            "the sender ran late: p95 lag {lag_p95_ms:.3} ms exceeds the {} ms limit",
            plan.lag_limit_ms
        )));
    }

    let mut generator = Json::obj();
    generator
        .push("write_rate_per_s", plan.write_rate)
        .push("predict_rate_per_s", workload::PREDICT_RATE)
        .push("writes", plan.num_writes())
        .push("requests", plan.items.len())
        .push("gen_lag_p95_ms", lag_p95_ms)
        .push("gen_lag_limit_ms", plan.lag_limit_ms)
        .push("client_cpu_s", round.pass.client_cpu_s);
    let mut gate_json = Json::obj();
    gate_json
        .push("passed", round.failures.is_empty())
        .push(
            "failures",
            round
                .failures
                .iter()
                .map(|f| Json::from(f.as_str()))
                .collect::<Vec<_>>(),
        )
        .push(
            "cosines",
            round
                .cosines
                .iter()
                .map(|&c| Json::from(c))
                .collect::<Vec<_>>(),
        )
        .push("cosine_floor", gate::COSINE_FLOOR)
        .push(
            "known_defects",
            round
                .defects
                .iter()
                .map(|d| Json::from(d.as_str()))
                .collect::<Vec<_>>(),
        );
    let mut counts = round.phases.clone();
    counts
        .push("acked_writes", a.acked_writes)
        .push("write_samples", a.write_ms.len())
        .push("predict_samples", a.predict_us.len())
        .push("batches", a.batches.len())
        .push("wal_fsyncs", round.wal.fsyncs)
        .push("wal_frames", round.wal.frames)
        .push("snapshot_drain_s", round.drain_s)
        .push("store_bytes_at_end", round.store_bytes)
        .push("recovery_redone", round.redone);

    let report = Report {
        correct: round.failures.is_empty(),
        attempted: a.attempted,
        failed: a.failed,
        metrics: Vec::new(),
        gate_failures: round.failures.clone(),
        ledgers: a.ledgers.clone(),
        observed: round.observed.clone(),
    };
    let metrics = if let Some(reference_p50) = reference_p50 {
        let spans = a.span_lines(plan, &round.pass);
        let path = write_output(&opts.out_dir.join("spans"), tag, "jsonl", &spans.join("\n"))?;
        eprintln!(
            "svcbench: wrote {} spans to {}",
            spans.len(),
            path.display()
        );
        layer_metrics(round, lag_p95_ms, fsync_us, reference_p50)
    } else {
        vec![
            Metric::new("setup_s", "s", round.setup_s),
            Metric::new("write_p50_ms", "ms", percentile(&a.write_ms, 50.0)),
            Metric::new("write_goodput_per_s", "1/s", a.goodput_per_s),
            Metric::new(
                "ok_rate",
                "ratio",
                (a.attempted - a.failed) as f64 / a.attempted as f64,
            ),
            Metric::new(
                "model_cosine_min",
                "ratio",
                round.cosines.iter().copied().fold(f64::INFINITY, f64::min),
            ),
            Metric::new("peak_rss_mib", "MiB", round.peak_rss_mib),
        ]
    };
    let report = Report { metrics, ..report };

    let mut record = header(opts, plan, host);
    record
        .push("generator", generator)
        .push("gate", gate_json)
        .push("counts", counts)
        .push("result", report.summary());
    finish(opts, tag, report, record)
}

/// An untraced run of several rounds: each round is a full single-round
/// run in its own process, so the process-to-process variation of the
/// host averages out. Every metric is the median over rounds, except
/// `ok_rate` (pooled) and the counts (sums).
fn run_rounds(
    opts: &Options,
    plan: &Plan,
    tag: &str,
    run_dir: &Path,
    rounds: usize,
) -> Result<Report, RunError> {
    let (host, _) = host::record(run_dir)?;
    let mut parts = Vec::with_capacity(rounds);
    let mut records = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let dir = run_dir.join(format!("round-{r}"));
        parts.push(run_child(opts, Some(1), &dir)?);
        records.push(child_record(&dir));
    }
    let count = |key: &str| {
        parts
            .iter()
            .map(|s| s.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64)
            .sum::<u64>()
    };
    let (attempted, failed) = (count("attempted"), count("failed"));
    let names: Vec<(String, String)> = parts[0]
        .get("metrics")
        .and_then(Json::as_object)
        .unwrap_or_default()
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
            (name.clone(), unit.to_string())
        })
        .collect();
    let metrics = names
        .iter()
        .map(|(name, unit)| {
            let values: Vec<f64> = parts
                .iter()
                .filter_map(|s| summary_metric(s, name))
                .collect();
            let value = match name.as_str() {
                "ok_rate" => (attempted - failed) as f64 / attempted.max(1) as f64,
                _ => median(&values),
            };
            Metric::new(name, unit, value)
        })
        .collect();
    let failing: Vec<String> = parts
        .iter()
        .enumerate()
        .filter(|(_, s)| s.get("correct") != Some(&Json::Bool(true)))
        .map(|(r, _)| format!("round {r} failed the correctness gate"))
        .collect();
    let report = Report {
        correct: failing.is_empty(),
        attempted,
        failed,
        metrics,
        gate_failures: failing,
        ledgers: Vec::new(),
        observed: Vec::new(),
    };
    let mut record = header(opts, plan, host);
    record
        .push("rounds", records)
        .push("result", report.summary());
    finish(opts, tag, report, record)
}

/// The record fields every run starts with.
fn header(opts: &Options, plan: &Plan, host: Json) -> Json {
    let mut record = Json::obj();
    record
        .push("workload", plan.workload)
        .push("seed", opts.seed)
        .push("seconds", opts.seconds)
        .push("trace", opts.trace)
        .push("size", opts.size.name())
        .push("host", host);
    record
}

/// Writes the full record to `<out-dir>/results/`.
fn finish(opts: &Options, tag: &str, report: Report, record: Json) -> Result<Report, RunError> {
    let path = write_output(&opts.out_dir.join("results"), tag, "json", &record.render())?;
    eprintln!("svcbench: wrote {}", path.display());
    Ok(report)
}

/// Writes `text` to `<dir>/<tag>-<unix ms>.<ext>`.
fn write_output(dir: &Path, tag: &str, ext: &str, text: &str) -> Result<PathBuf, String> {
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let stamp = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let path = dir.join(format!("{tag}-{stamp}.{ext}"));
    fs::write(&path, format!("{text}\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// Total bytes of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}
