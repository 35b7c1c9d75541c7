//! `simbench`: the repository's benchmark. See `benchmark/README.md`.
//!
//! `simbench run --workload W --seed S --seconds T --trace 0|1` measures
//! one workload in this process and prints every metric by name, then one
//! JSON object as the last line of standard output. Without `--workload`
//! it runs all seven, one fresh process each (so `peak_rss_mb` is per
//! workload). `simbench check` runs the untraced set twice and fails
//! unless the two agree within each metric's bound.

mod kernels;
mod measure;
mod metrics;
mod probes;
mod report;
mod spans;
mod stats;
#[cfg(test)]
mod tests;
mod workloads;

use measure::{traced, untraced, MIN_PAIRS, MIN_REPS};
use metrics::END_TO_END;
use report::{out_dir, record, result_line};
use simt_trace::json::{self, Value};
use stats::ratio;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args { workload: None, seed: 1, seconds: 10.0, traced: false, out: None };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !workloads::NAMES.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}; one of {:?}", workloads::NAMES));
                }
                a.workload = Some(w.clone());
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Measure one workload in this process.
fn run_one(a: &Args, name: &str, start: Instant) -> Result<bool, String> {
    let o = if a.traced {
        traced(name, a.seed, a.seconds)?
    } else {
        untraced(name, a.seed, a.seconds, start)?
    };
    for e in &o.errors {
        eprintln!("simbench: failed operation: {e}");
    }
    if o.failed == 0 && o.timed_reps < if a.traced { MIN_PAIRS } else { MIN_REPS } {
        return Err(format!("{name}: only {} timed reps; refusing to report", o.timed_reps));
    }
    let mode = if a.traced { "traced" } else { "untraced" };
    println!("workload {name}  seed {}  {mode}  {} timed reps", a.seed, o.timed_reps);
    for m in &o.metrics {
        let row =
            format!("  {:<34} {:>16.6} {:<12} {:<6}", m.name, m.value, m.unit, m.better.name());
        match m.samples {
            Some(q) => {
                println!("{row} n={} min={:.6} max={:.6} iqr={:.6}", q.n, q.min, q.max, q.iqr)
            }
            None => println!("{row}"),
        }
    }
    println!("  {:<34} {:>16} of {}", "ops_failed", o.failed, o.attempted);

    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = a.out.clone().unwrap_or_else(|| dir.join(format!("{name}.{mode}.json")));
    std::fs::write(&path, record(a, name, &o)).map_err(|e| format!("{}: {e}", path.display()))?;
    if let Some(sp) = &o.spans {
        let path = dir.join(format!("spans.{name}.jsonl"));
        std::fs::write(&path, sp.to_jsonl(name)).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", result_line(&o));
    Ok(o.failed == 0)
}

/// Run one workload in a fresh process; returns what it printed and the
/// parsed result line.
fn spawn(a: &Args, name: &str) -> Result<(String, Value), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["run", "--workload", name, "--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string(), "--trace", if a.traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!("{name}: {}\n{text}", out.status));
    }
    let last = text.lines().last().ok_or_else(|| format!("{name}: no output"))?;
    let value = json::parse(last).map_err(|e| format!("{name}: {e}"))?;
    Ok((text, value))
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_num()
}

fn no_failures(result: &Value) -> bool {
    result.get("failed").and_then(Value::as_num) == Some(0.0)
}

/// Run every workload, one fresh process each.
fn run_all(a: &Args) -> Result<Vec<Value>, String> {
    workloads::NAMES
        .iter()
        .map(|name| {
            let (text, value) = spawn(a, name)?;
            print!("{text}");
            Ok(value)
        })
        .collect()
}

/// Two untraced sets of the same code must agree within each metric's
/// bound, and the exact metrics to the last digit.
fn check(a: &Args) -> Result<bool, String> {
    let sets = [run_all(a)?, run_all(a)?];
    let mut ok = true;
    println!(
        "\n{:<16} {:<24} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "first", "second", "change"
    );
    for (w, name) in workloads::NAMES.iter().enumerate() {
        for m in &END_TO_END {
            let get = |set: &[Value]| {
                metric(&set[w], m.name).ok_or_else(|| format!("{name}: no {}", m.name))
            };
            let (x, y) = (get(&sets[0])?, get(&sets[1])?);
            let change = ratio(y - x, x);
            let agree = if m.exact { x == y } else { change.abs() <= m.bound };
            ok &= agree;
            let limit =
                if m.exact { "exact".to_string() } else { format!("±{:.0}%", m.bound * 100.0) };
            let verdict = if agree { "ok" } else { "DISAGREE" };
            println!(
                "{name:<16} {:<24} {x:>16.6} {y:>16.6} {:>+8.2}%  {verdict} ({limit})",
                m.name,
                change * 100.0
            );
        }
        ok &= sets.iter().all(|set| no_failures(&set[w]));
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: simbench <run|check> [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--out FILE]";
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{usage}");
        return ExitCode::from(2);
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{usage}");
            return ExitCode::from(2);
        }
    };
    let done = match (command.as_str(), &args.workload) {
        ("run", Some(name)) => run_one(&args, name, start),
        ("run", None) => run_all(&args).map(|results| results.iter().all(no_failures)),
        ("check", None) if !args.traced => check(&args),
        _ => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::FAILURE
        }
    }
}
