//! `svcbench` — runs one workload of the service benchmark and prints its
//! metrics as the last line of stdout. See the library docs for the flags.

use std::path::PathBuf;
use std::process::ExitCode;

use svcbench::workload::{Size, WORKLOADS};
use svcbench::{run, Options, RunError};

const USAGE: &str = "svcbench --workload <clean-linear|fanout-small|window-multinomial> \
                     --seed <n> --seconds <s> --trace <0|1> [--size full|tiny] [--out-dir <dir>] [--rounds <n>]";

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut out_dir = PathBuf::from(".svcbench");
    let mut rounds = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload '{name}'"));
                }
                workload = Some(name);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("invalid seed '{v}'"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                let s = v
                    .parse::<f64>()
                    .map_err(|_| format!("invalid seconds '{v}'"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                });
            }
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    other => return Err(format!("--size takes full or tiny, got '{other}'")),
                };
            }
            "--out-dir" => out_dir = PathBuf::from(value()?),
            "--rounds" => {
                let v = value()?;
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => rounds = Some(n),
                    _ => return Err(format!("invalid rounds '{v}'")),
                }
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
        out_dir,
        rounds,
        exe: std::env::current_exe().ok(),
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("svcbench: {message}\nusage: {USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(report) => {
            for m in &report.metrics {
                eprintln!("svcbench: {:<34} {:>14.4} {}", m.name, m.value, m.unit);
            }
            for failure in &report.gate_failures {
                eprintln!("svcbench: gate: {failure}");
            }
            println!("{}", report.summary().render());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err @ RunError::Invalid(_)) => {
            eprintln!("svcbench: {err}");
            ExitCode::from(3)
        }
        Err(err) => {
            eprintln!("svcbench: {err}");
            ExitCode::from(2)
        }
    }
}
