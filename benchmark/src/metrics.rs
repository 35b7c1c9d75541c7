//! The metric tables (`BENCHMARK.json` lists the same names, checked by a
//! test) and the arithmetic that turns reps, statistics and spans into
//! metric values.

use crate::spans::Spans;
use crate::stats::{median, ratio};
use crate::workloads::{Cell, CellRun, Config};
use cheri_simt::KernelStats;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    /// Host-time bounds are set by this sandbox's machine weather (the
    /// README has the measured spreads). Simulated-time metrics are exact
    /// per seed; their bound only has to cover the spread *between* seeds,
    /// which the driver measures.
    pub bound: f64,
    /// Must two runs with the same seed agree to the last digit?
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd { name, unit, better, bound, exact }
}

pub const END_TO_END: [EndToEnd; 9] = [
    e2e("wall_s", "s", Lower, 0.25, false),
    e2e("baseline_issues_per_s", "issues/s", Higher, 0.25, false),
    e2e("purecap_issues_per_s", "issues/s", Higher, 0.25, false),
    e2e("cycles_per_s", "cycles/s", Higher, 0.25, false),
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("peak_rss_mb", "MiB", Lower, 0.10, false),
    e2e("sim_cycles", "cycles", Lower, 0.02, true),
    e2e("sim_instrs", "instrs", Lower, 0.02, true),
    e2e("purecap_cycle_ratio", "ratio", Lower, 0.02, true),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Layer = crate name. A metric a workload does not exercise reads 0.
pub const PER_LAYER: [PerLayer; 69] = [
    pl("kir.compile_us_per_kernel", "us", Lower),
    pl("kir.words_per_kernel", "words", Lower),
    pl("isa.decode_ns_per_word", "ns", Lower),
    pl("core.load_program_us", "us", Lower),
    pl("core.reset_us", "us", Lower),
    pl("core.run_s", "s", Lower),
    pl("core.ns_per_issue.baseline", "ns", Lower),
    pl("core.ns_per_issue.purecap", "ns", Lower),
    pl("core.ns_per_cycle", "ns", Lower),
    pl("core.cheri_host_tax", "ratio", Lower),
    pl("core.scalarised_share", "ratio", Higher),
    pl("core.sim_ipc", "instrs/cycle", Higher),
    pl("core.active_lane_share", "ratio", Higher),
    pl("core.stall.idle", "cycles", Lower),
    pl("core.stall.spill_fill", "cycles", Lower),
    pl("core.stall.csc_serialisation", "cycles", Lower),
    pl("core.stall.shared_vrf_conflict", "cycles", Lower),
    pl("core.stall.cap_multi_flit", "cycles", Lower),
    pl("core.sfu_requests", "count", Lower),
    pl("core.barriers", "count", Lower),
    pl("core.sms4_over_sms1", "ratio", Lower),
    pl("core.cross_sm_switches", "count", Lower),
    pl("core.cross_sm_wait_cycles", "cycles", Lower),
    pl("regfile.read_compact_ns", "ns", Lower),
    pl("regfile.write_compact_ns.uniform", "ns", Lower),
    pl("regfile.write_compact_ns.affine", "ns", Lower),
    pl("regfile.write_compact_ns.vector", "ns", Lower),
    pl("regfile.write_ns.vector_spill", "ns", Lower),
    pl("regfile.scalar_write_share", "ratio", Higher),
    pl("regfile.spills", "count", Lower),
    pl("regfile.fills", "count", Lower),
    pl("regfile.peak_vrf_resident", "count", Lower),
    pl("regfile.meta_scalar_write_share", "ratio", Higher),
    pl("mem.coalesce_ns.unit_stride", "ns", Lower),
    pl("mem.coalesce_ns.scattered", "ns", Lower),
    pl("mem.tagctl_ns.hit", "ns", Lower),
    pl("mem.tagctl_ns.miss", "ns", Lower),
    pl("mem.dram_access_ns", "ns", Lower),
    pl("mem.scratch_warp_cycles_ns", "ns", Lower),
    pl("mem.main_rw_ns", "ns", Lower),
    pl("mem.cap_rw_ns", "ns", Lower),
    pl("mem.dram_txns", "count", Lower),
    pl("mem.tag_txns", "count", Lower),
    pl("mem.tagcache_hit_rate", "ratio", Higher),
    pl("mem.dram_busy_share", "ratio", Lower),
    pl("mem.scratch_conflict_cycles", "cycles", Lower),
    pl("cap.from_mem_check_ns", "ns", Lower),
    pl("cap.set_bounds_ns", "ns", Lower),
    pl("cap.codec_roundtrip_ns", "ns", Lower),
    pl("nocl.gpu_new_us", "us", Lower),
    pl("nocl.alloc_from_mb_per_s", "MB/s", Higher),
    pl("nocl.read_mb_per_s", "MB/s", Higher),
    pl("nocl.launch_us_p50", "us", Lower),
    pl("nocl.launch_us_p99", "us", Lower),
    pl("suite.naive.ns_per_issue", "ns", Lower),
    pl("suite.rust.ns_per_issue", "ns", Lower),
    pl("suite.gpushield.ns_per_issue", "ns", Lower),
    pl("suite.heavy3_share", "ratio", Lower),
    pl("suite.fig13_overhead_pct", "%", Lower),
    pl("suite.fig13_overhead_err_pp", "pp", Lower),
    pl("trace.events_per_rep", "count", Lower),
    pl("trace.vecsink_overhead_ratio", "ratio", Lower),
    pl("trace.jsonl_mb_per_s", "MB/s", Higher),
    pl("trace.chrome_mb_per_s", "MB/s", Higher),
    pl("trace.validate_mb_per_s", "MB/s", Higher),
    pl("trace.bytes_per_event", "bytes", Lower),
    pl("bench.runner_speedup_jobs2", "ratio", Higher),
    pl("bench.span_overhead_ratio", "ratio", Lower),
    pl("bench.span_coverage", "ratio", Higher),
];

/// What one rep amounted to, by configuration (`[baseline, purecap]`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepTotals {
    pub wall_s: f64,
    pub host_s: [f64; 2],
    pub instrs: [u64; 2],
    pub cycles: [u64; 2],
    pub failed: u64,
}

/// Fold one rep's cell runs. A cell fails if it returned an error or if
/// its statistics differ from `reference` (the same cell in rep 0): the
/// simulator is deterministic, so simulated statistics must repeat.
pub fn rep_totals(
    cells: &[Cell],
    runs: &[CellRun],
    reference: Option<&[KernelStats]>,
    wall_s: f64,
    errors: &mut Vec<String>,
) -> RepTotals {
    let mut t = RepTotals { wall_s, ..RepTotals::default() };
    for (i, (cell, run)) in cells.iter().zip(runs).enumerate() {
        let c = cell.config as usize;
        t.host_s[c] += run.secs;
        match &run.result {
            Ok(stats) => {
                t.instrs[c] += stats.instrs;
                t.cycles[c] += stats.cycles;
                if reference.is_some_and(|r| r[i] != *stats) {
                    t.failed += 1;
                    errors.push(format!("{}: statistics differ from rep 0", cell.label));
                }
            }
            Err(e) => {
                t.failed += 1;
                errors.push(format!("{}: {e}", cell.label));
            }
        }
    }
    t
}

/// Geometric mean of purecap ÷ baseline cycles over `(baseline, purecap)`
/// cell pairs — on `suite_paper`, one plus Figure 13's overhead.
pub fn purecap_cycle_ratio(stats: &[KernelStats]) -> f64 {
    repro::geomean(stats.chunks_exact(2).map(|p| p[1].cycles as f64 / p[0].cycles as f64))
}

/// Spans that carry the simulator's run loop: `core.run` where the traced
/// driver can call `Device::run` itself, else the narrowest public call
/// around it.
const RUN_SPANS: [&str; 4] = ["core.run", "suite.run", "nocl.launch", "trace.sink_run"];

fn sum<T>(stats: &[T], f: impl Fn(&T) -> u64) -> f64 {
    stats.iter().map(|s| f(s) as f64).sum()
}

type Metrics = BTreeMap<&'static str, f64>;

fn of_config<'a>(cells: &[Cell], stats: &'a [KernelStats], c: Config) -> Vec<&'a KernelStats> {
    cells.iter().zip(stats).filter(|(cell, _)| cell.config == c).map(|(_, s)| s).collect()
}

/// The per-layer metrics that are exact counts: one rep's `KernelStats`,
/// summed over its cells.
pub fn count_metrics(cells: &[Cell], stats: &[KernelStats], lanes: u32) -> Metrics {
    let mut m = Metrics::new();
    let pure = of_config(cells, stats, Config::Purecap);
    let instrs = sum(stats, |s| s.instrs);
    let cycles = sum(stats, |s| s.cycles);
    m.insert("core.scalarised_share", ratio(sum(stats, |s| s.scalarised_issues), instrs));
    m.insert("core.sim_ipc", ratio(instrs, cycles));
    m.insert(
        "core.active_lane_share",
        ratio(sum(stats, |s| s.thread_instrs), instrs * lanes as f64),
    );
    m.insert("core.stall.idle", sum(stats, |s| s.stalls.idle));
    m.insert("core.stall.spill_fill", sum(stats, |s| s.stalls.spill_fill));
    m.insert("core.stall.csc_serialisation", sum(stats, |s| s.stalls.csc_serialisation));
    m.insert("core.stall.shared_vrf_conflict", sum(stats, |s| s.stalls.shared_vrf_conflict));
    m.insert("core.stall.cap_multi_flit", sum(stats, |s| s.stalls.cap_multi_flit));
    m.insert("core.sfu_requests", sum(stats, |s| s.sfu_requests));
    m.insert("core.barriers", sum(stats, |s| s.barriers));
    m.insert("core.cross_sm_switches", sum(stats, |s| s.dram.cross_sm_switches));
    m.insert("core.cross_sm_wait_cycles", sum(stats, |s| s.dram.cross_sm_wait_cycles));
    let data_writes = sum(stats, |s| s.data_rf.scalar_writes + s.data_rf.vector_writes);
    m.insert(
        "regfile.scalar_write_share",
        ratio(sum(stats, |s| s.data_rf.scalar_writes), data_writes),
    );
    m.insert("regfile.spills", sum(stats, |s| s.data_rf.spills + s.meta_rf.spills));
    m.insert("regfile.fills", sum(stats, |s| s.data_rf.fills + s.meta_rf.fills));
    m.insert(
        "regfile.peak_vrf_resident",
        stats.iter().map(|s| s.peak_data_vrf_resident + s.peak_meta_vrf_resident).max().unwrap_or(0)
            as f64,
    );
    let meta_writes = sum(&pure, |s| s.meta_rf.scalar_writes + s.meta_rf.vector_writes);
    m.insert(
        "regfile.meta_scalar_write_share",
        ratio(sum(&pure, |s| s.meta_rf.scalar_writes), meta_writes),
    );
    m.insert(
        "mem.dram_txns",
        sum(stats, |s| {
            s.dram.read_transactions + s.dram.write_transactions + s.dram.tag_transactions
        }),
    );
    m.insert("mem.tag_txns", sum(stats, |s| s.dram.tag_transactions));
    let lookups = sum(&pure, |s| s.tag_cache.hits + s.tag_cache.misses);
    m.insert("mem.tagcache_hit_rate", ratio(sum(&pure, |s| s.tag_cache.hits), lookups));
    m.insert("mem.dram_busy_share", ratio(sum(stats, |s| s.dram.busy_cycles), cycles));
    m.insert("mem.scratch_conflict_cycles", sum(stats, |s| s.scratch.conflict_cycles));
    m
}

/// The per-layer metrics that are host times, from the spans: the run
/// loop and the attributed share of the traced reps `reps` (ids of their
/// `rep` spans), the `nocl` calls wherever they happened, and the trace
/// layer's exporters.
pub fn span_metrics(cells: &[Cell], stats: &[KernelStats], sp: &Spans, reps: &[usize]) -> Metrics {
    let mut m = Metrics::new();
    let rep_of = sp.root_of(reps);
    let config_of =
        |cell: usize| cells.iter().find(|c| c.label == sp.cells[cell]).map(|c| c.config);
    let own = sp.self_times();
    // Per traced rep: run-loop seconds by configuration, and seconds
    // attributed to a layer span rather than to the benchmark's own glue.
    let mut run_s = vec![[0.0f64; 2]; reps.len()];
    let mut attributed = vec![0.0f64; reps.len()];
    for (id, s) in sp.spans.iter().enumerate() {
        let Some(r) = rep_of[id] else { continue };
        if RUN_SPANS.contains(&s.name) {
            if let Some(c) = config_of(s.cell) {
                run_s[r][c as usize] += s.secs();
            }
        }
        if s.name != "rep" && s.name != "cell" {
            attributed[r] += own[id];
        }
    }
    if !reps.is_empty() {
        let per_rep =
            |f: &dyn Fn(usize) -> f64| median(&(0..reps.len()).map(f).collect::<Vec<_>>());
        let instrs = |c: Config| sum(&of_config(cells, stats, c), |s| s.instrs);
        let cycles = sum(stats, |s| s.cycles);
        let base = per_rep(&|r| ratio(run_s[r][0] * 1e9, instrs(Config::Baseline)));
        let cap = per_rep(&|r| ratio(run_s[r][1] * 1e9, instrs(Config::Purecap)));
        m.insert("core.run_s", per_rep(&|r| run_s[r][0] + run_s[r][1]));
        m.insert("core.ns_per_issue.baseline", base);
        m.insert("core.ns_per_issue.purecap", cap);
        m.insert(
            "core.ns_per_cycle",
            per_rep(&|r| ratio((run_s[r][0] + run_s[r][1]) * 1e9, cycles)),
        );
        m.insert("core.cheri_host_tax", ratio(cap, base));
        m.insert(
            "bench.span_coverage",
            per_rep(&|r| ratio(attributed[r], sp.spans[reps[r]].secs())),
        );
    }

    // `(work, seconds)` of the spans called `name`: anywhere, or only
    // inside the traced reps.
    let totals = |name: &str, in_reps: bool| -> (f64, f64) {
        sp.spans
            .iter()
            .zip(&rep_of)
            .filter(|(s, rep)| s.name == name && (rep.is_some() || !in_reps))
            .fold((0.0, 0.0), |(w, t), (s, _)| (w + s.work as f64, t + s.secs()))
    };
    let mb_per_s = |(bytes, secs): (f64, f64)| ratio(bytes, secs * 1e6);
    let micros = |name: &str| -> Vec<f64> {
        let mut v: Vec<f64> =
            sp.spans.iter().filter(|s| s.name == name).map(|s| s.secs() * 1e6).collect();
        v.sort_by(f64::total_cmp);
        v
    };

    // The nocl layer at its real call sites, set-up included.
    let gpu_news = micros("nocl.gpu_new");
    if !gpu_news.is_empty() {
        m.insert("nocl.gpu_new_us", median(&gpu_news));
    }
    m.insert("nocl.alloc_from_mb_per_s", mb_per_s(totals("nocl.alloc_from", false)));
    m.insert("nocl.read_mb_per_s", mb_per_s(totals("nocl.read", false)));
    // Launch latency is reported where launches are the workload: a p99
    // needs ten samples beyond it.
    let launches = micros("nocl.launch");
    if launches.len() >= 1_000 {
        m.insert("nocl.launch_us_p50", median(&launches));
        m.insert("nocl.launch_us_p99", launches[launches.len() * 99 / 100]);
    }

    // The trace layer (spans only `trace_export` records).
    let (events, _) = totals("trace.sink_run", true);
    let jsonl = totals("trace.to_jsonl", true);
    m.insert("trace.events_per_rep", ratio(events, reps.len() as f64));
    m.insert("trace.jsonl_mb_per_s", mb_per_s(jsonl));
    m.insert("trace.chrome_mb_per_s", mb_per_s(totals("trace.to_chrome", true)));
    m.insert("trace.validate_mb_per_s", mb_per_s(totals("trace.validate", true)));
    m.insert("trace.bytes_per_event", ratio(jsonl.0, events));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        for u in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(
                u.len() <= 16
                    && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn cycle_ratio_is_a_geomean_over_pairs() {
        let s = |cycles| KernelStats { cycles, ..KernelStats::default() };
        let r = purecap_cycle_ratio(&[s(100), s(200), s(100), s(50)]);
        assert!((r - 1.0).abs() < 1e-12);
        assert!((purecap_cycle_ratio(&[s(100), s(103)]) - 1.03).abs() < 1e-12);
    }
}
