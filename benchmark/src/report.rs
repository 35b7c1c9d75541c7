//! What a run prints and writes: the contract's result line and the full
//! record with host facts.

use crate::measure::{Outcome, SETUPS};
use crate::Args;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

fn host_fact(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.failed == 0,
        o.attempted,
        o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(s, "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit);
    }
    s.push_str("}}");
    s
}

/// The full record: host facts, rep counts and per-metric N/min/max/IQR.
pub fn record(a: &Args, name: &str, o: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let mut s = format!(
        "{{\n  \"workload\": \"{name}\", \"seed\": {}, \"traced\": {}, \"seconds\": {},\n  \
         \"host\": {{\"nproc\": {nproc}, \"rustc\": \"{}\", \"commit\": \"{}\"}},\n  \
         \"reps\": {{\"setups\": {}, \"timed\": {}}},\n  \
         \"ops_attempted\": {}, \"ops_failed\": {},\n  \"metrics\": {{\n",
        a.seed,
        a.traced,
        a.seconds,
        host_fact("rustc", &["--version"]),
        host_fact("git", &["-C", manifest_dir, "rev-parse", "--short", "HEAD"]),
        if a.traced { 1 } else { SETUPS },
        o.timed_reps,
        o.attempted,
        o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        let sep = if i + 1 == o.metrics.len() { "" } else { "," };
        let _ = write!(s, "    \"{}\": {{\"value\": {}, \"unit\": \"{}\"", m.name, m.value, m.unit);
        if let Some(q) = m.samples {
            let _ = write!(
                s,
                ", \"n\": {}, \"min\": {}, \"max\": {}, \"iqr\": {}",
                q.n, q.min, q.max, q.iqr
            );
        }
        let _ = writeln!(s, "}}{sep}");
    }
    s.push_str("  }\n}\n");
    s
}
