//! `bench_diff` — compares two sets of `svcbench` result records.
//!
//! ```text
//! bench_diff [--spec BENCHMARK.json] <before> <after>
//! ```
//!
//! `<before>` and `<after>` are result-record files or directories of them
//! (`svcbench` writes one per run under `<out-dir>/results/`). Per workload,
//! every end-to-end metric gets each side's median and quartiles and a
//! verdict, following the choosing-metrics rules with the bounds
//! `BENCHMARK.json` fixes:
//!
//! * **improved** — at least ten pairs, the after side wins at least nine
//!   tenths of them (ties count for neither), and the medians differ by more
//!   than the before side's quartile spread;
//! * **worse** — the after median is worse than the before median by more
//!   than the metric's bound;
//! * **unresolved** — otherwise, when either side's quartile spread exceeds
//!   the bound and not every after run beats every before run;
//! * **unchanged** — otherwise.
//!
//! Runs pair up by seed where both sides ran the same seed, else in file
//! order. Per-layer metrics (from traced records) are listed beside, with
//! medians only and no verdict.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use svcbench::json::Json;
use svcbench::stats::quartiles;

struct Bound {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

/// `(seed, metric name → value)` of one run.
type Run = (u64, BTreeMap<String, f64>);

/// workload → (untraced runs, traced runs).
type Side = BTreeMap<String, (Vec<Run>, Vec<Run>)>;

fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_spec(path: &Path) -> Result<Vec<Bound>, String> {
    let spec = read_json(path)?;
    let entries = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?;
    entries
        .iter()
        .map(|e| {
            let field = |k: &str| {
                e.get(k)
                    .ok_or_else(|| format!("{}: end_to_end entry without {k}", path.display()))
            };
            Ok(Bound {
                name: field("name")?.as_str().unwrap_or_default().to_string(),
                unit: field("unit")?.as_str().unwrap_or_default().to_string(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().unwrap_or(0.0),
            })
        })
        .collect()
}

fn record_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if path.is_file() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("listing {}: {e}", path.display()))?
        .flatten()
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    Ok(files)
}

fn read_side(path: &Path) -> Result<Side, String> {
    let mut side = Side::new();
    for file in record_files(path)? {
        let record = read_json(&file)?;
        let (Some(workload), Some(metrics)) = (
            record.get("workload").and_then(Json::as_str),
            record
                .get("result")
                .and_then(|r| r.get("metrics"))
                .and_then(Json::as_object),
        ) else {
            return Err(format!("{}: not an svcbench result record", file.display()));
        };
        let seed = record.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let values = metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        let entry = side.entry(workload.to_string()).or_default();
        if record.get("trace") == Some(&Json::Bool(true)) {
            entry.1.push((seed, values));
        } else {
            entry.0.push((seed, values));
        }
    }
    Ok(side)
}

fn values(runs: &[Run], metric: &str) -> Vec<(u64, f64)> {
    runs.iter()
        .filter_map(|(seed, m)| m.get(metric).map(|&v| (*seed, v)))
        .collect()
}

/// Pairs by seed where both sides have it, the rest in order.
fn pairs(before: &[(u64, f64)], after: &[(u64, f64)]) -> Vec<(f64, f64)> {
    let mut used = vec![false; after.len()];
    let mut out = Vec::new();
    let mut leftover = Vec::new();
    for &(seed, a) in before {
        match (0..after.len()).find(|&j| !used[j] && after[j].0 == seed) {
            Some(j) => {
                used[j] = true;
                out.push((a, after[j].1));
            }
            None => leftover.push(a),
        }
    }
    let rest = after
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(&(_, b), _)| b);
    out.extend(leftover.into_iter().zip(rest));
    out
}

fn verdict(bound: &Bound, before: &[(u64, f64)], after: &[(u64, f64)]) -> &'static str {
    let a: Vec<f64> = before.iter().map(|p| p.1).collect();
    let b: Vec<f64> = after.iter().map(|p| p.1).collect();
    let (q1a, ma, q3a) = quartiles(&a);
    let (q1b, mb, q3b) = quartiles(&b);
    let better = |x: f64, y: f64| {
        if bound.higher_is_better {
            x > y
        } else {
            x < y
        }
    };
    let pairs = pairs(before, after);
    let wins = pairs.iter().filter(|(x, y)| better(*y, *x)).count();
    if pairs.len() >= 10 && wins * 10 >= pairs.len() * 9 && (mb - ma).abs() > q3a - q1a {
        return "improved";
    }
    let worse_share = if bound.higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    if worse_share > bound.bound {
        return "worse";
    }
    let spread = ((q3a - q1a) / ma.abs()).max((q3b - q1b) / mb.abs());
    let dominates = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if spread > bound.bound && !dominates {
        "unresolved"
    } else {
        "unchanged"
    }
}

fn main() -> ExitCode {
    let mut spec_path = PathBuf::from("BENCHMARK.json");
    let mut sides = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--spec" => match args.next() {
                Some(path) => spec_path = PathBuf::from(path),
                None => {
                    eprintln!("bench_diff: --spec needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: bench_diff [--spec BENCHMARK.json] <before> <after>");
                return ExitCode::SUCCESS;
            }
            path => sides.push(PathBuf::from(path)),
        }
    }
    let [before_path, after_path] = sides.as_slice() else {
        eprintln!("usage: bench_diff [--spec BENCHMARK.json] <before> <after>");
        return ExitCode::from(2);
    };
    let loaded = read_spec(&spec_path)
        .and_then(|spec| Ok((spec, read_side(before_path)?, read_side(after_path)?)));
    let (spec, before, after) = match loaded {
        Ok(loaded) => loaded,
        Err(message) => {
            eprintln!("bench_diff: {message}");
            return ExitCode::from(2);
        }
    };

    let mut any_worse = false;
    let empty = (Vec::new(), Vec::new());
    for (workload, (b_runs, b_traced)) in &before {
        let (a_runs, a_traced) = after.get(workload).unwrap_or(&empty);
        println!(
            "== {workload}: {} before / {} after untraced runs",
            b_runs.len(),
            a_runs.len()
        );
        println!(
            "  {:<22} {:>6} {:>32} {:>32}  verdict",
            "metric", "unit", "before q1 / median / q3", "after q1 / median / q3"
        );
        for bound in &spec {
            let (bv, av) = (values(b_runs, &bound.name), values(a_runs, &bound.name));
            if bv.is_empty() || av.is_empty() {
                continue;
            }
            let q = |v: &[(u64, f64)]| quartiles(&v.iter().map(|p| p.1).collect::<Vec<_>>());
            let ((q1b, mb, q3b), (q1a, ma, q3a)) = (q(&bv), q(&av));
            let verdict = verdict(bound, &bv, &av);
            any_worse |= verdict == "worse";
            println!(
                "  {:<22} {:>6} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4}  {verdict} (bound {})",
                bound.name, bound.unit, q1b, mb, q3b, q1a, ma, q3a, bound.bound
            );
        }
        let mut layer_names: Vec<&String> = b_traced
            .iter()
            .chain(a_traced)
            .flat_map(|(_, m)| m.keys())
            .collect();
        layer_names.sort();
        layer_names.dedup();
        if !layer_names.is_empty() {
            println!(
                "  per-layer medians ({} before / {} after traced runs; no verdict):",
                b_traced.len(),
                a_traced.len()
            );
            for name in layer_names {
                let med = |runs: &[Run]| {
                    let v: Vec<f64> = values(runs, name).iter().map(|p| p.1).collect();
                    quartiles(&v).1
                };
                println!(
                    "    {:<36} {:>14.4} {:>14.4}",
                    name,
                    med(b_traced),
                    med(a_traced)
                );
            }
        }
    }
    if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher: bool) -> Bound {
        Bound {
            name: "m".to_string(),
            unit: "ms".to_string(),
            higher_is_better: higher,
            bound: 0.1,
        }
    }

    fn runs(values: &[f64]) -> Vec<(u64, f64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    #[test]
    fn verdicts_follow_the_rules() {
        let base = runs(&[
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ]);
        let same = runs(&[
            100.1, 100.9, 99.2, 100.4, 99.6, 100.0, 100.3, 99.7, 100.0, 99.8,
        ]);
        let faster: Vec<(u64, f64)> = base.iter().map(|&(s, v)| (s, v * 0.8)).collect();
        let slower: Vec<(u64, f64)> = base.iter().map(|&(s, v)| (s, v * 1.2)).collect();
        assert_eq!(verdict(&bound(false), &base, &same), "unchanged");
        assert_eq!(verdict(&bound(false), &base, &faster), "improved");
        assert_eq!(verdict(&bound(false), &base, &slower), "worse");
        assert_eq!(verdict(&bound(true), &base, &faster), "worse");
        let noisy = runs(&[60.0, 140.0, 80.0, 120.0, 100.0]);
        assert_eq!(verdict(&bound(false), &noisy, &noisy), "unresolved");
    }
}
