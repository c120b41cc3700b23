//! The RAS benchmark: continuous rounds of one workload in one process.
//!
//! ```text
//! ras-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ras-perfbench --steady <runs> --workload <name> --seed <first> --seconds <s>
//! ```
//!
//! A run prints its metrics by name and unit, then, as its last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. It
//! exits non-zero when a check or an operation failed. `--trace 1`
//! records spans around every layer call on alternate rounds, prints
//! per-layer metrics and a trace summary, and writes the trace to
//! `out/trace-<workload>-<seed>.tsv` in the benchmark's directory.
//! `--steady` runs one workload on consecutive seeds, one process at a
//! time, and prints each metric's median and quartile spread.

mod run;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use run::Outcome;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        steady: None,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--steady" => args.steady = Some(value.parse().map_err(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The result line: one JSON object, every value with all its digits.
fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// Reads back `(correct, metrics)` from a result line written by
/// [`result_json`].
fn parse_result(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let correct = line.contains("\"correct\": true");
    let (_, body) = line.split_once("\"metrics\": {")?;
    let mut metrics = Vec::new();
    for part in body.split("}, ").chain(std::iter::once("")) {
        let Some((name, rest)) = part.split_once("\": {\"value\": ") else {
            continue;
        };
        let name = name.trim_start_matches('"').to_string();
        let value = rest.split(',').next()?.parse().ok()?;
        metrics.push((name, value));
    }
    Some((correct, metrics))
}

fn trace_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}-{seed}.tsv"))
}

fn run_once(workload: &str, args: &Args) -> Result<ExitCode, String> {
    let out = run::run(workload, args.seed, args.seconds, args.trace)?;
    println!(
        "workload {workload} seed {} seconds {} trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &out.notes {
        println!("note: {note}");
    }
    for (name, value, unit) in &out.metrics {
        println!("{name:<32} {value:>18.6} {unit}");
    }
    println!(
        "fail_frac {} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for f in &out.failures {
        println!("CHECK FAILED: {f}");
    }
    if let Some(trace) = &out.trace {
        print!("{}", trace.summary());
        let path = trace_path(workload, args.seed);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, trace.to_tsv()));
        match written {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => return Err(format!("cannot write {}: {e}", path.display())),
        }
    }
    println!("{}", result_json(&out));
    Ok(if out.correct && out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs the workload `runs` times on consecutive seeds, each in its own
/// process, and prints every metric's median and quartile spread.
fn steady(workload: &str, runs: usize, args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut all_correct = true;
    for k in 0..runs as u64 {
        let seed = args.seed + k;
        let output = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let (correct, metrics) =
            parse_result(last).ok_or_else(|| format!("seed {seed}: no result line"))?;
        all_correct &= correct && output.status.success();
        let line: Vec<String> = metrics.iter().map(|(n, v)| format!("{n}={v}")).collect();
        println!(
            "seed {seed}: correct {correct}, {}; {}",
            output.status,
            line.join(" ")
        );
        for (name, value) in metrics {
            values.entry(name).or_default().push(value);
        }
    }
    println!(
        "{:<24} {:>14} {:>14} {:>14} {:>9}",
        "metric", "q1", "median", "q3", "spread"
    );
    for (name, v) in &values {
        let (q1, q2, q3) = stats::quartiles(v).expect("every run reports every metric");
        println!(
            "{name:<24} {q1:>14.6} {q2:>14.6} {q3:>14.6} {:>8.2}%",
            100.0 * (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE)
        );
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let result = parse_args(std::env::args().skip(1)).and_then(|args| {
        let workload = args.workload.clone().ok_or("--workload is required")?;
        match args.steady {
            Some(runs) => steady(&workload, runs, &args),
            None => run_once(&workload, &args),
        }
    });
    result.unwrap_or_else(|e| {
        eprintln!("ras-perfbench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let out = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                ("round_p50_s".into(), 0.012345678901, "s"),
                ("peak_rss_mb".into(), 512.5, "MiB"),
            ],
            ..Outcome::default()
        };
        let line = result_json(&out);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"round_p50_s\": {\"value\": 0.012345678901, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 512.5, \"unit\": \"MiB\"}}}"
        );
        let (correct, metrics) = parse_result(&line).unwrap();
        assert!(correct);
        assert_eq!(
            metrics,
            vec![
                ("round_p50_s".to_string(), 0.012345678901),
                ("peak_rss_mb".to_string(), 512.5)
            ]
        );
    }

    #[test]
    fn args_reject_bad_values() {
        let parse = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        let a = parse(&[
            "--workload",
            "place-churn",
            "--seed",
            "4",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("place-churn"));
        assert_eq!((a.seed, a.seconds, a.trace), (4, 2.0, true));
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--bogus", "1"]).is_err());
    }
}
