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
use cheri_simt::trace::{TraceEvent, VecSink};
use cheri_simt::KernelStats;
use nocl::Gpu;
use nocl_suite::{catalog, NoclBench};

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
        Config::Base { .. } => "baseline",
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

/// Run `benches` under `config` on devices of `sms` streaming
/// multiprocessors, each cell on a fresh [`Gpu`] with a [`VecSink`] per SM,
/// fanned over `jobs` workers. Every cell's event stream is
/// [reconciled](KernelStats::reconcile) against its `KernelStats` before
/// being accepted, so a trace this function returns is always exact.
///
/// With `sms == 1` a cell is labelled `"<bench> [<mode>]"`. With more SMs
/// each SM becomes its own exported cell (labelled
/// `"<bench> [<mode>] · sm<k>"` — one Perfetto process per SM), so cross-SM
/// interleaving is visible on separate tracks. The *concatenation* of the
/// per-SM streams is reconciled against the combined device statistics
/// (per-SM statistics cannot reconcile alone: the DRAM and tag-cache
/// counters live in the device memory system), and each per-SM cell carries
/// those combined statistics.
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
    let scale = geometry.scale();
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
        stats.reconcile(&all).map_err(|e| format!("trace/stats mismatch: {e}"))?;
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
            trace_suite_on(&benches, trace_config("purecap").unwrap(), Geometry::Small, 1, 1)
                .unwrap();
        assert_eq!(runs.len(), 1);
        assert!(runs[0].stats.instrs > 0);
        // `trace_suite_on` reconciled already; both exports must validate.
        let (fmt, s) = validate_auto(&export_runs(&runs, TraceFormat::Chrome)).unwrap();
        assert_eq!(fmt, "chrome");
        assert!(s.events > 0);
        let (fmt, _) = validate_auto(&export_runs(&runs, TraceFormat::Jsonl)).unwrap();
        assert_eq!(fmt, "jsonl");
    }
}
