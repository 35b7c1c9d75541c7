//! The two kinds of run: untraced (end-to-end metrics) and traced
//! (per-layer metrics, spans, tracing overhead).

use crate::metrics::{
    count_metrics, purecap_cycle_ratio, rep_totals, span_metrics, Better, RepTotals, END_TO_END,
    PER_LAYER,
};
use crate::probes;
use crate::spans::Spans;
use crate::stats::{median, ratio, summarize, Summary};
use crate::workloads::{self, CellRun, Config, Workload};
use cheri_simt::KernelStats;
use nocl::Gpu;
use nocl_suite::{catalog, Scale};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Fewest timed reps a reported median may rest on.
pub const MIN_REPS: usize = 5;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Fewest (untraced, traced) rep pairs in a traced run.
pub const MIN_PAIRS: usize = 3;

/// One metric as reported: the value, and the samples behind it if it is
/// a median over reps.
pub struct Reported {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
    pub samples: Option<Summary>,
}

pub struct Outcome {
    pub metrics: Vec<Reported>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub timed_reps: usize,
    pub spans: Option<Spans>,
}

impl Outcome {
    /// A run whose set-up had a failed operation: nothing to measure.
    fn aborted(attempted: u64, failed: u64, errors: Vec<String>, spans: Option<Spans>) -> Self {
        Outcome { metrics: vec![], attempted, failed, errors, timed_reps: 0, spans }
    }
}

fn stats_of(runs: Vec<CellRun>) -> Option<Vec<KernelStats>> {
    runs.into_iter().map(|r| r.result.ok()).collect()
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.unwrap_or(0.0) / 1024.0
}

/// The untraced run: `SETUPS` set-ups (each ends with warm-up rep 0), then
/// timed reps for `seconds` — never fewer than `MIN_REPS`.
pub fn untraced(name: &str, seed: u64, seconds: f64, start: Instant) -> Result<Outcome, String> {
    let mut sp = Spans::new(false);
    let mut errors = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut setup_s = Vec::new();
    let mut state: Option<(Workload, Vec<KernelStats>)> = None;
    for k in 0..SETUPS {
        // Free the previous set-up first, or the peak would count two.
        state = None;
        let t = if k == 0 { start } else { Instant::now() };
        let mut w = workloads::build(name, seed, &mut sp);
        let runs = w.rep(&mut sp);
        setup_s.push(t.elapsed().as_secs_f64());
        attempted += runs.len() as u64;
        failed += rep_totals(&w.cells, &runs, None, 0.0, &mut errors).failed;
        if let Some(stats) = stats_of(runs) {
            state = Some((w, stats));
        }
    }
    let Some((mut w, reference)) = state else {
        return Ok(Outcome::aborted(attempted, failed, errors, None));
    };

    let mut reps: Vec<RepTotals> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while reps.len() < MIN_REPS || Instant::now() < deadline {
        let t = Instant::now();
        let runs = w.rep(&mut sp);
        let wall = t.elapsed().as_secs_f64();
        reps.push(rep_totals(&w.cells, &runs, Some(&reference), wall, &mut errors));
    }
    attempted += (reps.len() * w.cells.len()) as u64;
    failed += reps.iter().map(|r| r.failed).sum::<u64>();

    let over_reps =
        |f: &dyn Fn(&RepTotals) -> f64| summarize(&reps.iter().map(f).collect::<Vec<_>>());
    let exact = |v: f64| (v, None);
    let sampled = |s: Summary| (s.median, Some(s));
    let values = [
        sampled(over_reps(&|r| r.wall_s)),
        sampled(over_reps(&|r| ratio(r.instrs[0] as f64, r.host_s[0]))),
        sampled(over_reps(&|r| ratio(r.instrs[1] as f64, r.host_s[1]))),
        sampled(over_reps(&|r| ratio((r.cycles[0] + r.cycles[1]) as f64, r.wall_s))),
        sampled(summarize(&setup_s)),
        exact(peak_rss_mib()),
        exact(reference.iter().map(|s| s.cycles).sum::<u64>() as f64),
        exact(reference.iter().map(|s| s.instrs).sum::<u64>() as f64),
        exact(purecap_cycle_ratio(&reference)),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (value, samples))| Reported {
            name: m.name,
            unit: m.unit,
            better: m.better,
            value,
            samples,
        })
        .collect();
    Ok(Outcome { metrics, attempted, failed, errors, timed_reps: reps.len(), spans: None })
}

/// The traced run: one set-up, then (untraced rep, traced rep) pairs for
/// `seconds` — the pairing gives the tracing overhead under the same
/// machine weather — then the micro-probes and the workload's extras.
pub fn traced(name: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut sp = Spans::new(true);
    let mut off = Spans::new(false);
    let mut errors = Vec::new();
    let (mut w, runs) = sp.span("setup", |sp| {
        let mut w = workloads::build(name, seed, sp);
        let runs = w.rep(sp);
        (w, runs)
    });
    let mut attempted = runs.len() as u64;
    let mut failed = rep_totals(&w.cells, &runs, None, 0.0, &mut errors).failed;
    let Some(reference) = stats_of(runs) else {
        return Ok(Outcome::aborted(attempted, failed, errors, Some(sp)));
    };

    let (mut plain_s, mut traced_s, mut rep_ids) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while rep_ids.len() < MIN_PAIRS || Instant::now() < deadline {
        for on in [false, true] {
            let rec = if on { &mut sp } else { &mut off };
            let id = rec.spans.len();
            let t = Instant::now();
            let runs = w.rep(rec);
            let wall = t.elapsed().as_secs_f64();
            failed += rep_totals(&w.cells, &runs, Some(&reference), wall, &mut errors).failed;
            attempted += runs.len() as u64;
            if on {
                rep_ids.push(id);
                traced_s.push(wall);
            } else {
                plain_s.push(wall);
            }
        }
    }

    let lanes = Config::Baseline.instantiate().0.lanes;
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|p| (p.name, 0.0)).collect();
    let probed = probes::run(seed, &mut sp);
    let extra = extras(name, seed, &w, &reference, &mut sp, &rep_ids)?;
    m.extend(count_metrics(&w.cells, &reference, lanes));
    m.extend(span_metrics(&w.cells, &reference, &sp, &rep_ids));
    m.extend(probed);
    m.extend(extra);
    m.insert("bench.span_overhead_ratio", ratio(median(&traced_s), median(&plain_s)));

    let metrics = PER_LAYER
        .iter()
        .map(|p| Reported {
            name: p.name,
            unit: p.unit,
            better: p.better,
            value: m[p.name],
            samples: None,
        })
        .collect();
    Ok(Outcome { metrics, attempted, failed, errors, timed_reps: rep_ids.len(), spans: Some(sp) })
}

/// Per-layer measurements that only one workload can make.
fn extras(
    name: &str,
    seed: u64,
    w: &Workload,
    reference: &[KernelStats],
    sp: &mut Spans,
    reps: &[usize],
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();
    match name {
        "suite_paper" => {
            // The comparator configurations the timed reps leave out.
            for (metric, config) in [
                ("suite.naive.ns_per_issue", repro::Config::CheriNaive),
                ("suite.rust.ns_per_issue", repro::Config::RustFull),
                ("suite.gpushield.ns_per_issue", repro::Config::GpuShield),
            ] {
                let (cfg, mode) = config.instantiate(repro::Geometry::Full);
                let t = Instant::now();
                let instrs = sp.span("suite.pass", |_| {
                    catalog().iter().try_fold(0u64, |acc, b| {
                        b.run(&mut Gpu::new(cfg, mode), Scale::Paper)
                            .map(|s| acc + s.instrs)
                            .map_err(|e| format!("{metric}: {}: {e}", b.name()))
                    })
                })?;
                out.push((metric, ratio(t.elapsed().as_secs_f64() * 1e9, instrs as f64)));
            }
            let heavy = |label: &str| {
                ["BitonicLa/", "MatMul/", "BitonicSm/"].iter().any(|p| label.starts_with(p))
            };
            let rep_s: f64 = reps.iter().map(|&r| sp.spans[r].secs()).sum();
            let heavy_s: f64 = sp
                .secs_per_root(reps, |s| s.name == "cell" && heavy(&sp.cells[s.cell]))
                .iter()
                .sum();
            out.push(("suite.heavy3_share", ratio(heavy_s, rep_s)));
            let pct = (purecap_cycle_ratio(reference) - 1.0) * 100.0;
            out.push(("suite.fig13_overhead_pct", pct));
            // The paper's Figure 13 geomean execution-time overhead.
            out.push(("suite.fig13_overhead_err_pp", (pct - 1.6).abs()));
            let (cfg, mode) = Config::Baseline.instantiate();
            let mut pass = |jobs| {
                let t = Instant::now();
                sp.span("bench.runner", |_| {
                    repro::run_suite_parallel_on(jobs, cfg, mode, Scale::Paper, 1)
                })
                .map(|_| t.elapsed().as_secs_f64())
                .map_err(|e| e.to_string())
            };
            let (one, two) = (pass(1)?, pass(2)?);
            out.push(("bench.runner_speedup_jobs2", ratio(one, two)));
        }
        "multi_sm" => {
            // The same cells on one SM: host time per issue, 4 SMs ÷ 1.
            let mut single = Workload { cells: workloads::multi_sm_cells(seed, 1, sp) };
            let runs = sp.span("sms1.pass", |sp| single.rep(sp));
            let secs: f64 = runs.iter().map(|r| r.secs).sum();
            let stats = stats_of(runs).ok_or("multi_sm cells failed at sms=1")?;
            let per_issue_1 = ratio(secs, stats.iter().map(|s| s.instrs).sum::<u64>() as f64);
            let rep_s: Vec<f64> = reps.iter().map(|&r| sp.spans[r].secs()).collect();
            let per_issue_4 =
                ratio(median(&rep_s), reference.iter().map(|s| s.instrs).sum::<u64>() as f64);
            out.push(("core.sms4_over_sms1", ratio(per_issue_4, per_issue_1)));
        }
        "trace_export" => {
            // The same cells without a sink.
            let plain: Vec<f64> = (0..MIN_PAIRS)
                .map(|_| {
                    w.cells.iter().try_fold(0.0, |acc, cell| {
                        let (cfg, mode) = cell.config.instantiate();
                        let mut gpu = Gpu::new(cfg, mode);
                        let t = Instant::now();
                        sp.span("suite.run", |_| workloads::matmul().run(&mut gpu, Scale::Paper))
                            .map(|_| acc + t.elapsed().as_secs_f64())
                            .map_err(|e| e.to_string())
                    })
                })
                .collect::<Result<_, String>>()?;
            let sunk = sp.secs_per_root(reps, |s| s.name == "trace.sink_run");
            out.push(("trace.vecsink_overhead_ratio", ratio(median(&sunk), median(&plain))));
        }
        _ => {}
    }
    Ok(out)
}
