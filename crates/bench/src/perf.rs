//! The `repro perf` engine: wall-clock timing of the simulator itself.
//!
//! Where the experiment layer reports *simulated* metrics (cycles, DRAM
//! transactions), this module reports how long the **simulator** takes to
//! run each (benchmark × configuration) cell, and emits the result as
//! `BENCH_sim.json` so the repository's performance trajectory is tracked
//! from one PR to the next (see EXPERIMENTS.md for recorded runs).
//!
//! Timing is wall-clock (`std::time::Instant`) around each cell's
//! `NoclBench::run`. With `jobs > 1` the cells share cores, so per-cell
//! seconds are only comparable between runs at the same `--jobs` value;
//! `total_seconds` is always the end-to-end wall clock of the whole sweep.

use crate::{run_indexed, Config, Geometry};
use cheri_simt::trace::json::{self, Value};
use nocl::Gpu;
use nocl_suite::{NoclBench, Scale};
use std::time::Instant;

/// The tracked configurations, in report order: the five golden-stats
/// configurations (one per `repro trace` mode tag, NVO variants excluded).
pub const PERF_CONFIGS: &[(&str, Config)] = &[
    ("baseline", Config::Base { eighths: 3 }),
    ("naive", Config::CheriNaive),
    ("purecap", Config::CheriOpt),
    ("rust", Config::RustChecked),
    ("gpushield", Config::GpuShield),
];

/// One timed (benchmark × configuration) cell.
#[derive(Debug, Clone)]
pub struct PerfCell {
    /// Table-1 benchmark name.
    pub bench: &'static str,
    /// Configuration tag (see [`PERF_CONFIGS`]).
    pub config: &'static str,
    /// Wall-clock seconds spent simulating this cell.
    pub seconds: f64,
    /// Simulated cycles, for sanity ("did the work change?").
    pub cycles: u64,
    /// Simulated instructions issued.
    pub instrs: u64,
}

/// A full `repro perf` sweep: every cell plus the end-to-end wall clock.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// `"full"` (paper geometry) or `"quick"`.
    pub geometry: &'static str,
    /// Worker threads the sweep ran on.
    pub jobs: usize,
    /// Streaming multiprocessors per simulated device.
    pub sms: u32,
    /// Cells in (config-major, benchmark-minor) order.
    pub cells: Vec<PerfCell>,
    /// End-to-end wall clock of the whole sweep.
    pub total_seconds: f64,
}

/// Time `benches` under every [`PERF_CONFIGS`] entry, one fresh [`Gpu`]
/// per cell, fanned over `jobs` workers.
///
/// # Errors
///
/// Fails if any benchmark fails its launch or self-check, or panics (the
/// first failing cell in sweep order is reported).
pub fn perf_suite(
    benches: &[&'static dyn NoclBench],
    geometry: Geometry,
    jobs: usize,
    sms: u32,
) -> Result<PerfReport, String> {
    let scale = match geometry {
        Geometry::Full => Scale::Paper,
        Geometry::Small => Scale::Test,
    };
    let cells: Vec<(&'static str, Config, &'static dyn NoclBench)> = PERF_CONFIGS
        .iter()
        .flat_map(|&(tag, config)| benches.iter().map(move |&b| (tag, config, b)))
        .collect();
    let sweep_start = Instant::now();
    let results = run_indexed(jobs, cells.len(), |i| -> Result<PerfCell, String> {
        let (tag, config, b) = cells[i];
        let (cfg, mode) = config.instantiate(geometry);
        let mut gpu = Gpu::with_sms(cfg, mode, sms);
        let start = Instant::now();
        let stats = b.run(&mut gpu, scale).map_err(|e| e.to_string())?;
        Ok(PerfCell {
            bench: b.name(),
            config: tag,
            seconds: start.elapsed().as_secs_f64(),
            cycles: stats.cycles,
            instrs: stats.instrs,
        })
    });
    let total_seconds = sweep_start.elapsed().as_secs_f64();
    let mut out = Vec::with_capacity(cells.len());
    for ((tag, _, b), r) in cells.iter().zip(results) {
        match r {
            Ok(Ok(cell)) => out.push(cell),
            Ok(Err(e)) | Err(e) => return Err(format!("{} [{tag}]: {e}", b.name())),
        }
    }
    Ok(PerfReport {
        geometry: match geometry {
            Geometry::Full => "full",
            Geometry::Small => "quick",
        },
        jobs,
        sms,
        cells: out,
        total_seconds,
    })
}

/// Serialise a report as `BENCH_sim.json` (the schema
/// [`validate_perf_json`] checks).
pub fn perf_json(report: &PerfReport) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"geometry\": \"{}\",", report.geometry);
    let _ = writeln!(s, "  \"jobs\": {},", report.jobs);
    let _ = writeln!(s, "  \"sms\": {},", report.sms);
    let configs: Vec<String> = PERF_CONFIGS.iter().map(|(tag, _)| format!("\"{tag}\"")).collect();
    let _ = writeln!(s, "  \"configs\": [{}],", configs.join(", "));
    let mut benches: Vec<&str> = Vec::new();
    for c in &report.cells {
        if !benches.contains(&c.bench) {
            benches.push(c.bench);
        }
    }
    let bench_names: Vec<String> = benches.iter().map(|b| format!("\"{b}\"")).collect();
    let _ = writeln!(s, "  \"benchmarks\": [{}],", bench_names.join(", "));
    let _ = writeln!(s, "  \"cells\": [");
    for (i, c) in report.cells.iter().enumerate() {
        let comma = if i + 1 == report.cells.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"bench\": \"{}\", \"config\": \"{}\", \"seconds\": {:.6}, \
             \"cycles\": {}, \"instrs\": {}}}{comma}",
            c.bench, c.config, c.seconds, c.cycles, c.instrs
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"total_seconds\": {:.6}", report.total_seconds);
    let _ = write!(s, "}}");
    s
}

/// A human summary for stderr: per-config subtotal and the grand total.
pub fn perf_summary(report: &PerfReport) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for (tag, _) in PERF_CONFIGS {
        let (mut secs, mut n) = (0.0f64, 0usize);
        for c in report.cells.iter().filter(|c| c.config == *tag) {
            secs += c.seconds;
            n += 1;
        }
        let _ = writeln!(s, "{tag:<12} {n:>3} cell(s)   {secs:>8.3} s (cpu, summed)");
    }
    let _ = writeln!(
        s,
        "total        {:>3} cell(s)   {:>8.3} s (wall, {} worker(s))",
        report.cells.len(),
        report.total_seconds,
        report.jobs
    );
    s
}

/// Validate a `BENCH_sim.json` document against the schema [`perf_json`]
/// emits, using the workspace's dependency-free JSON parser. Returns
/// `(cells, total_seconds)` on success.
///
/// # Errors
///
/// Returns a description of the first schema violation.
pub fn validate_perf_json(input: &str) -> Result<(usize, f64), String> {
    let doc = json::parse(input).map_err(|e| format!("parse error: {e}"))?;
    let obj = doc.as_obj().ok_or("top level must be an object")?;
    let need_num = |key: &str| -> Result<f64, String> {
        obj.get(key)
            .and_then(Value::as_num)
            .ok_or_else(|| format!("missing or non-numeric field {key}"))
    };
    let geometry = obj
        .get("geometry")
        .and_then(Value::as_str)
        .ok_or("missing or non-string field geometry")?;
    if geometry != "full" && geometry != "quick" {
        return Err(format!("geometry must be full|quick, got {geometry}"));
    }
    need_num("jobs")?;
    need_num("sms")?;
    let str_list = |key: &str| -> Result<Vec<String>, String> {
        let arr = obj
            .get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("missing or non-array field {key}"))?;
        arr.iter()
            .map(|v| v.as_str().map(str::to_owned))
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| format!("{key} must contain only strings"))
    };
    let configs = str_list("configs")?;
    let benchmarks = str_list("benchmarks")?;
    let cells =
        obj.get("cells").and_then(Value::as_arr).ok_or("missing or non-array field cells")?;
    if cells.len() != configs.len() * benchmarks.len() {
        return Err(format!(
            "expected {} cells ({} configs x {} benchmarks), got {}",
            configs.len() * benchmarks.len(),
            configs.len(),
            benchmarks.len(),
            cells.len()
        ));
    }
    for (i, cell) in cells.iter().enumerate() {
        let c = cell.as_obj().ok_or_else(|| format!("cell {i} is not an object"))?;
        let bench = c
            .get("bench")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("cell {i}: missing bench"))?;
        if !benchmarks.iter().any(|b| b == bench) {
            return Err(format!("cell {i}: bench {bench} not in benchmarks list"));
        }
        let config = c
            .get("config")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("cell {i}: missing config"))?;
        if !configs.iter().any(|t| t == config) {
            return Err(format!("cell {i}: config {config} not in configs list"));
        }
        for key in ["seconds", "cycles", "instrs"] {
            let v = c
                .get(key)
                .and_then(Value::as_num)
                .ok_or_else(|| format!("cell {i}: missing or non-numeric {key}"))?;
            if v < 0.0 {
                return Err(format!("cell {i}: negative {key}"));
            }
        }
    }
    let total = need_num("total_seconds")?;
    if total < 0.0 {
        return Err("negative total_seconds".into());
    }
    Ok((cells.len(), total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve_benches;

    #[test]
    fn perf_round_trips_through_validation() {
        let benches = resolve_benches("vecadd").unwrap();
        let report = perf_suite(&benches, Geometry::Small, 1, 1).unwrap();
        assert_eq!(report.cells.len(), PERF_CONFIGS.len());
        assert!(report.cells.iter().all(|c| c.cycles > 0 && c.instrs > 0));
        let json = perf_json(&report);
        let (cells, total) = validate_perf_json(&json).unwrap();
        assert_eq!(cells, PERF_CONFIGS.len());
        assert!(total >= 0.0);
        assert!(!perf_summary(&report).is_empty());
    }

    #[test]
    fn validation_rejects_malformed_documents() {
        assert!(validate_perf_json("not json").is_err());
        assert!(validate_perf_json("{}").is_err());
        // Cell count must equal configs x benchmarks.
        let bad = r#"{"geometry":"quick","jobs":1,"sms":1,
            "configs":["baseline"],"benchmarks":["VecAdd"],
            "cells":[],"total_seconds":0.1}"#;
        assert!(validate_perf_json(bad).unwrap_err().contains("expected 1 cells"));
        // Unknown geometry.
        let bad = r#"{"geometry":"huge","jobs":1,"sms":1,"configs":[],
            "benchmarks":[],"cells":[],"total_seconds":0.0}"#;
        assert!(validate_perf_json(bad).unwrap_err().contains("geometry"));
    }
}
