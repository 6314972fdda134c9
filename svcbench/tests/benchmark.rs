//! The benchmark's own tests: tiny-size runs of every workload emit every
//! metric `BENCHMARK.json` names, finite and with its unit; the correctness
//! gate trips on a wrong survivor count; the command's last stdout line is
//! the result contract.

use std::path::PathBuf;
use std::process::Command;

use svcbench::json::Json;
use svcbench::workload::{self, Size, WORKLOADS};
use svcbench::{gate, run, Options};

fn spec_metrics(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    spec.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn options(workload: &str, seed: u64, trace: bool) -> Options {
    Options {
        workload: workload.to_string(),
        seed,
        seconds: 1.0,
        trace,
        size: Size::Tiny,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("svcbench-tests"),
        rounds: None,
        exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_svcbench"))),
    }
}

fn assert_metrics(workload: &str, report: &svcbench::Report, expected: &[(String, String)]) {
    let got: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    assert_eq!(got, expected, "{workload}: metric names and units");
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
    }
}

#[test]
fn tiny_runs_emit_every_end_to_end_metric() {
    let expected = spec_metrics("end_to_end");
    for workload in WORKLOADS {
        let report = run(&options(workload, 5, false)).expect("tiny run");
        assert!(report.correct, "{workload}: {:?}", report.gate_failures);
        assert_eq!(report.failed, 0, "{workload}");
        assert_metrics(workload, &report, &expected);
    }
}

#[test]
fn traced_tiny_runs_emit_every_per_layer_metric() {
    let expected = spec_metrics("per_layer");
    for workload in WORKLOADS {
        let report = run(&options(workload, 6, true)).expect("traced tiny run");
        assert!(report.correct, "{workload}: {:?}", report.gate_failures);
        assert_metrics(workload, &report, &expected);
    }
}

#[test]
fn the_gate_trips_on_a_wrong_survivor_count() {
    let workload = "window-multinomial";
    let report = run(&options(workload, 7, false)).expect("tiny run");
    let names: Vec<String> = workload::plan(workload, 7, 1.0, Size::Tiny)
        .expect("plan")
        .sessions
        .into_iter()
        .map(|s| s.name)
        .collect();
    assert!(gate::check_survivors(&names, &report.ledgers, &report.observed).is_empty());
    // The ledger saw ticks expire rows and deletes remove them.
    assert!(report.ledgers.iter().all(|l| l.added > 0 && l.applied > 0));
    let mut wrong = report.ledgers.clone();
    wrong[0].registered += 1;
    let failures = gate::check_survivors(&names, &wrong, &report.observed);
    assert_eq!(failures.len(), 1, "{failures:?}");
}

#[test]
fn the_command_prints_the_result_contract_last() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("svcbench-cli");
    let output = Command::new(env!("CARGO_BIN_EXE_svcbench"))
        .args([
            "--workload",
            "fanout-small",
            "--seed",
            "8",
            "--seconds",
            "1",
        ])
        .args(["--trace", "0", "--size", "tiny", "--out-dir"])
        .arg(&out_dir)
        .output()
        .expect("svcbench runs");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    let last = Json::parse(stdout.lines().last().expect("a line")).expect("JSON");
    let keys: Vec<&str> = last
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct"), Some(&Json::Bool(true)));

    let bad = Command::new(env!("CARGO_BIN_EXE_svcbench"))
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .output()
        .expect("svcbench runs");
    assert!(!bad.status.success());
    assert!(bad.stdout.is_empty());
}
