//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`: end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`. A traced run
//! also writes its spans under `perfbench/traces/`. Exits 1 when an
//! output check fails, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::inputs::Scale;
use perfbench::{run, Config};

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::full(),
        trace_dir: Some(PathBuf::from("perfbench/traces")),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?.clone(),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cfg.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(report) => {
            for problem in &report.problems {
                eprintln!("perfbench: check failed: {problem}");
            }
            println!("{}", report.to_json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
