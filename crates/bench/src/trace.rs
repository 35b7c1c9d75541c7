//! The `repro trace` engine: run suite benchmarks with the structured event
//! sink attached, reconcile the event stream against the run's performance
//! counters, and export the result.
//!
//! Tracing composes with the parallel runner: cells fan out over
//! [`run_indexed`] and reduce in cell-index order, so the exported file is
//! byte-identical for every `--jobs` value (asserted by
//! `crates/bench/tests/trace.rs`).

use crate::{run_indexed, Config, Geometry};
use cheri_simt::trace::export::{to_chrome, to_jsonl, TraceCell};
use cheri_simt::trace::{StallCause, TraceEvent, VecSink};
use cheri_simt::KernelStats;
use nocl::Gpu;
use nocl_suite::{catalog, NoclBench, Scale};

/// Export format for `repro trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Chrome trace-event JSON, viewable in Perfetto or `chrome://tracing`.
    Chrome,
    /// One JSON object per line (`jq`-friendly).
    Jsonl,
}

impl std::str::FromStr for TraceFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "chrome" => Ok(TraceFormat::Chrome),
            "jsonl" => Ok(TraceFormat::Jsonl),
            other => Err(format!("unknown trace format {other} (chrome|jsonl)")),
        }
    }
}

/// One traced benchmark run: the label the exporters use, the full event
/// stream (all launches of a multi-launch benchmark, delimited by `launch`
/// markers), and the accumulated statistics the stream reconciles against.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// `"<bench> [<mode>]"`.
    pub label: String,
    /// Every event of every launch, in emission order.
    pub events: Vec<TraceEvent>,
    /// Statistics accumulated over the same launches.
    pub stats: KernelStats,
}

/// Map a `repro trace` mode name to the experiment configuration it traces.
///
/// # Errors
///
/// Fails on an unknown mode name.
pub fn trace_config(mode_name: &str) -> Result<Config, String> {
    match mode_name {
        "baseline" => Ok(Config::Base { eighths: 3 }),
        "naive" => Ok(Config::CheriNaive),
        "purecap" => Ok(Config::CheriOpt),
        "rust" => Ok(Config::RustChecked),
        "rustfull" => Ok(Config::RustFull),
        "gpushield" => Ok(Config::GpuShield),
        other => {
            Err(format!("unknown mode {other} (baseline|naive|purecap|rust|rustfull|gpushield)"))
        }
    }
}

/// The mode tag used in cell labels, the inverse of [`trace_config`].
fn mode_tag(config: Config) -> &'static str {
    match config {
        Config::BaseUncompressed | Config::Base { .. } => "baseline",
        Config::CheriNaive => "naive",
        Config::CheriOpt | Config::CheriOptNoNvo => "purecap",
        Config::RustChecked => "rust",
        Config::RustFull => "rustfull",
        Config::GpuShield => "gpushield",
    }
}

/// Resolve a benchmark name case-insensitively; `all` selects the whole
/// suite in Table-1 order.
///
/// # Errors
///
/// Fails on an unknown benchmark name.
pub fn resolve_benches(name: &str) -> Result<Vec<&'static dyn NoclBench>, String> {
    if name.eq_ignore_ascii_case("all") {
        return Ok(catalog().to_vec());
    }
    catalog()
        .iter()
        .find(|b| b.name().eq_ignore_ascii_case(name))
        .map(|&b| vec![b])
        .ok_or_else(|| format!("unknown benchmark {name} (or 'all')"))
}

/// Run `benches` under `config`, each cell on a fresh [`Gpu`] with a
/// [`VecSink`] attached, fanned over `jobs` workers. Every cell's event
/// stream is [reconciled](reconcile) against its `KernelStats` before being
/// accepted, so a trace this function returns is always exact.
///
/// # Errors
///
/// Fails if a benchmark fails its self-check or its event stream disagrees
/// with its counters (the first failing cell in suite order is reported).
pub fn trace_suite(
    benches: &[&'static dyn NoclBench],
    config: Config,
    geometry: Geometry,
    jobs: usize,
) -> Result<Vec<TracedRun>, String> {
    trace_suite_on(benches, config, geometry, jobs, 1)
}

/// [`trace_suite`] on a device of `sms` streaming multiprocessors. Each SM
/// gets its own [`VecSink`], and each SM becomes its own exported cell
/// (labelled `"<bench> [<mode>] · sm<k>"` — one Perfetto process per SM),
/// so cross-SM interleaving is visible on separate tracks. The
/// *concatenation* of the per-SM streams is reconciled against the
/// combined device statistics (per-SM statistics cannot reconcile alone:
/// the DRAM and tag-cache counters live in the device memory system), and each
/// per-SM cell carries those combined statistics. With `sms == 1` this is
/// exactly [`trace_suite`], byte-identical labels included.
///
/// # Errors
///
/// Fails if a benchmark fails its self-check or the combined event stream
/// disagrees with the device counters (first failing cell in suite order).
pub fn trace_suite_on(
    benches: &[&'static dyn NoclBench],
    config: Config,
    geometry: Geometry,
    jobs: usize,
    sms: u32,
) -> Result<Vec<TracedRun>, String> {
    let (cfg, mode) = config.instantiate(geometry);
    let scale = match geometry {
        Geometry::Full => Scale::Paper,
        Geometry::Small => Scale::Test,
    };
    let tag = mode_tag(config);
    let results = run_indexed(jobs, benches.len(), |i| -> Result<Vec<TracedRun>, String> {
        let b = benches[i];
        let mut gpu = Gpu::with_sms(cfg, mode, sms);
        for k in 0..sms as usize {
            gpu.device_mut().sm_mut(k).set_sink(Box::new(VecSink::new()));
        }
        let stats = b.run(&mut gpu, scale).map_err(|e| e.to_string())?;
        let per_sm: Vec<Vec<TraceEvent>> = (0..sms as usize)
            .map(|k| {
                let sink = gpu.device_mut().sm_mut(k).take_sink().expect("sink survives the run");
                sink.as_any()
                    .downcast_ref::<VecSink>()
                    .expect("attached a VecSink")
                    .events()
                    .to_vec()
            })
            .collect();
        let all: Vec<TraceEvent> = per_sm.iter().flatten().copied().collect();
        reconcile(&all, &stats).map_err(|e| format!("trace/stats mismatch: {e}"))?;
        if sms == 1 {
            let events = per_sm.into_iter().next().expect("one SM");
            return Ok(vec![TracedRun { label: format!("{} [{tag}]", b.name()), events, stats }]);
        }
        Ok(per_sm
            .into_iter()
            .enumerate()
            .map(|(k, events)| TracedRun {
                label: format!("{} [{tag}] · sm{k}", b.name()),
                events,
                stats: stats.clone(),
            })
            .collect())
    });
    let mut out = Vec::with_capacity(benches.len() * sms as usize);
    for (b, r) in benches.iter().zip(results) {
        match r {
            Ok(Ok(cells)) => out.extend(cells),
            Ok(Err(e)) | Err(e) => return Err(format!("{}: {e}", b.name())),
        }
    }
    Ok(out)
}

/// Check every reconciliation invariant between an event stream and the
/// statistics of the run that produced it — the contract documented in
/// `docs/TRACING.md`: issue events count `instrs`, their mask popcounts sum
/// to `thread_instrs`, per-cause stall cycles sum to the `StallBreakdown`
/// fields, and memory events sum to the DRAM/tag-cache/scratchpad counters.
///
/// # Errors
///
/// Returns the first violated invariant as `"name: events say X, counters
/// say Y"`.
pub fn reconcile(events: &[TraceEvent], stats: &KernelStats) -> Result<(), String> {
    let check = |name: &str, got: u64, want: u64| {
        if got == want {
            Ok(())
        } else {
            Err(format!("{name}: events say {got}, counters say {want}"))
        }
    };
    let (mut issues, mut threads, mut arrivals, mut sfu) = (0u64, 0u64, 0u64, 0u64);
    let mut scalarised = 0u64;
    let (mut tag_lookups, mut tag_hits, mut tag_writebacks) = (0u64, 0u64, 0u64);
    let (mut dram_reads, mut dram_writes, mut dram_tags) = (0u64, 0u64, 0u64);
    let (mut scratch_accesses, mut scratch_conflicts, mut stack_hits) = (0u64, 0u64, 0u64);
    let (mut csc, mut vrf, mut spill, mut flit, mut idle) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut traps, mut faulting_lanes, mut suppressed) = (0u64, 0u64, 0u64);
    for e in events {
        match *e {
            TraceEvent::Issue { mask, class, .. } => {
                issues += 1;
                threads += u64::from(mask.count_ones());
                scalarised += u64::from(class == cheri_simt::trace::IssueClass::Scalarised);
            }
            TraceEvent::Barrier { release: false, .. } => arrivals += 1,
            TraceEvent::Sfu { .. } => sfu += 1,
            TraceEvent::TagCache { hit, writeback, .. } => {
                tag_lookups += 1;
                tag_hits += u64::from(hit);
                tag_writebacks += u64::from(writeback);
            }
            TraceEvent::Dram { reads, writes, tag_txns, .. } => {
                dram_reads += u64::from(reads);
                dram_writes += u64::from(writes);
                dram_tags += u64::from(tag_txns);
            }
            TraceEvent::Mem { space, conflict_cycles, .. } => match space {
                cheri_simt::trace::MemSpace::Scratch => {
                    scratch_accesses += 1;
                    scratch_conflicts += u64::from(conflict_cycles);
                }
                cheri_simt::trace::MemSpace::StackCache => stack_hits += 1,
                cheri_simt::trace::MemSpace::Dram => {}
            },
            TraceEvent::Stall { cause, cycles, .. } => match cause {
                StallCause::CscSerialisation => csc += cycles,
                StallCause::SharedVrfConflict => vrf += cycles,
                StallCause::SpillFill => spill += cycles,
                StallCause::CapMultiFlit => flit += cycles,
                StallCause::Idle => idle += cycles,
            },
            TraceEvent::Trap { mask, suppressed: s, .. } => {
                traps += 1;
                faulting_lanes += u64::from(mask.count_ones());
                suppressed += u64::from(s);
            }
            TraceEvent::Launch { .. }
            | TraceEvent::RfTransition { .. }
            | TraceEvent::Barrier { release: true, .. } => {}
        }
    }
    check("issue events vs instrs", issues, stats.instrs)?;
    check("issue mask popcounts vs thread_instrs", threads, stats.thread_instrs)?;
    check("scalarised issue events vs scalarised_issues", scalarised, stats.scalarised_issues)?;
    check("barrier arrivals vs barriers", arrivals, stats.barriers)?;
    check("sfu events vs sfu_requests", sfu, stats.sfu_requests)?;
    check(
        "tag lookups vs hits+misses",
        tag_lookups,
        stats.tag_cache.hits + stats.tag_cache.misses,
    )?;
    check("tag hit events vs hits", tag_hits, stats.tag_cache.hits)?;
    check("tag writeback events vs writebacks", tag_writebacks, stats.tag_cache.writebacks)?;
    check("dram read txns", dram_reads, stats.dram.read_transactions)?;
    check("dram write txns", dram_writes, stats.dram.write_transactions)?;
    check("dram tag txns", dram_tags, stats.dram.tag_transactions)?;
    check("scratch accesses", scratch_accesses, stats.scratch.accesses)?;
    check("scratch conflict cycles", scratch_conflicts, stats.scratch.conflict_cycles)?;
    check("stack-cache hits", stack_hits, stats.stack_cache_hits)?;
    check("csc_serialisation stall cycles", csc, stats.stalls.csc_serialisation)?;
    check("shared_vrf_conflict stall cycles", vrf, stats.stalls.shared_vrf_conflict)?;
    check("spill_fill stall cycles", spill, stats.stalls.spill_fill)?;
    check("cap_multi_flit stall cycles", flit, stats.stalls.cap_multi_flit)?;
    check("idle stall cycles", idle, stats.stalls.idle)?;
    check("trap events vs faults.traps", traps, stats.faults.traps)?;
    check(
        "trap lane popcounts vs faults.faulting_lanes",
        faulting_lanes,
        stats.faults.faulting_lanes,
    )?;
    check("suppressed trap events vs faults.suppressed", suppressed, stats.faults.suppressed)?;
    Ok(())
}

/// Serialise traced cells in suite order. The output is a pure function of
/// the cells, so it is byte-identical for every worker count.
pub fn export_runs(runs: &[TracedRun], format: TraceFormat) -> String {
    let cells: Vec<TraceCell> =
        runs.iter().map(|r| TraceCell { label: &r.label, events: &r.events }).collect();
    match format {
        TraceFormat::Chrome => to_chrome(&cells),
        TraceFormat::Jsonl => to_jsonl(&cells),
    }
}

/// One summary line per traced cell, for `repro trace`'s stderr progress.
pub fn trace_summary(runs: &[TracedRun]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for r in runs {
        let launches = r.events.iter().filter(|e| matches!(e, TraceEvent::Launch { .. })).count();
        let _ = writeln!(
            s,
            "{:<24} {:>9} events, {:>2} launch(es), {:>9} instrs, {:>9} cycles",
            r.label,
            r.events.len(),
            launches,
            r.stats.instrs,
            r.stats.cycles
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_simt::trace::validate::validate_auto;

    #[test]
    fn mode_names_round_trip() {
        for name in ["baseline", "naive", "purecap", "rust", "rustfull", "gpushield"] {
            let config = trace_config(name).unwrap();
            assert_eq!(mode_tag(config), name, "{name}");
        }
        assert!(trace_config("bogus").is_err());
        assert!("chrome".parse::<TraceFormat>().is_ok());
        assert!("csv".parse::<TraceFormat>().is_err());
    }

    #[test]
    fn resolves_case_insensitively() {
        assert_eq!(resolve_benches("vecadd").unwrap().len(), 1);
        assert_eq!(resolve_benches("VecAdd").unwrap().len(), 1);
        assert_eq!(resolve_benches("all").unwrap().len(), 14);
        assert!(resolve_benches("nope").is_err());
    }

    #[test]
    fn traced_vecadd_reconciles_and_validates() {
        let benches = resolve_benches("vecadd").unwrap();
        let runs =
            trace_suite(&benches, trace_config("purecap").unwrap(), Geometry::Small, 1).unwrap();
        assert_eq!(runs.len(), 1);
        assert!(runs[0].stats.instrs > 0);
        // `trace_suite` reconciled already; both exports must validate.
        let (fmt, s) = validate_auto(&export_runs(&runs, TraceFormat::Chrome)).unwrap();
        assert_eq!(fmt, "chrome");
        assert!(s.events > 0);
        let (fmt, _) = validate_auto(&export_runs(&runs, TraceFormat::Jsonl)).unwrap();
        assert_eq!(fmt, "jsonl");
    }
}
