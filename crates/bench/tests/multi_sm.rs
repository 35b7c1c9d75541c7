//! Multi-SM smoke tests (ISSUE 3 acceptance): at `--sms 2` and `--sms 4`
//! every suite benchmark still passes its self-check, a multi-block
//! benchmark is no slower than on a single SM, and the shared DRAM /
//! tag-cache contention counters actually move. That they are zero at
//! `--sms 1` is recorded in every `tests/golden/suite_stats.txt` record
//! (`xsm=0,0,0,0`).

use cheri_simt::KernelStats;
use nocl_suite::Scale;
use repro::{
    default_jobs, resolve_benches, run_suite_parallel_on, trace_suite_on, write_runs, Config,
    Geometry, TraceFormat,
};

fn suite_at(config: Config, sms: u32) -> Vec<(&'static str, KernelStats)> {
    let (cfg, mode) = config.instantiate(Geometry::Small);
    run_suite_parallel_on(default_jobs(), cfg, mode, Scale::Test, sms)
        .unwrap_or_else(|e| panic!("suite failed at sms={sms}: {e}"))
}

fn cycles_of(results: &[(&'static str, KernelStats)], name: &str) -> u64 {
    results.iter().find(|(n, _)| *n == name).map(|(_, s)| s.cycles).unwrap()
}

#[test]
fn two_sms_pass_self_checks_and_contend() {
    let one = suite_at(Config::Base { eighths: 3 }, 1);
    let two = suite_at(Config::Base { eighths: 3 }, 2);
    assert_eq!(two.len(), 14, "whole suite ran");
    // VecAdd launches a multi-block grid: splitting it over two SMs must
    // not make the device slower than one SM running everything.
    assert!(
        cycles_of(&two, "VecAdd") <= cycles_of(&one, "VecAdd"),
        "2-SM VecAdd ({}) slower than 1-SM ({})",
        cycles_of(&two, "VecAdd"),
        cycles_of(&one, "VecAdd")
    );
    // Both SMs drive the one DRAM channel, so ownership switches happen.
    let vecadd = two.iter().find(|(n, _)| *n == "VecAdd").map(|(_, s)| s).unwrap();
    assert!(vecadd.dram.cross_sm_switches > 0, "shared channel saw both SMs");
}

#[test]
fn multi_sm_trace_reconciles_with_one_process_per_sm() {
    use cheri_simt::trace::validate::validate_auto;

    let benches = resolve_benches("vecadd").unwrap();
    // `trace_suite_on` reconciles the per-SM streams, taken together,
    // against the combined device statistics before returning.
    let runs = trace_suite_on(&benches, Config::CheriOpt, Geometry::Small, 1, 2).unwrap();
    assert_eq!(runs.len(), 2, "one traced cell per SM");
    assert!(runs[0].label.ends_with("· sm0"), "{}", runs[0].label);
    assert!(runs[1].label.ends_with("· sm1"), "{}", runs[1].label);
    assert!(runs.iter().all(|r| !r.events.is_empty()), "both SMs emitted events");
    let mut chrome = Vec::new();
    write_runs(&mut chrome, &runs, TraceFormat::Chrome).unwrap();
    let (fmt, s) = validate_auto(std::str::from_utf8(&chrome).unwrap()).unwrap();
    assert_eq!(fmt, "chrome");
    assert_eq!(s.processes, 2, "one Perfetto process per SM");
}

#[test]
fn four_sms_purecap_passes_and_contends_for_tags() {
    let four = suite_at(Config::CheriOpt, 4);
    assert_eq!(four.len(), 14, "whole suite ran");
    // Pure-capability kernels hit the tag controller on every DRAM access;
    // with four SMs behind one tag cache, ownership must change hands on
    // at least one multi-block kernel.
    let switches: u64 = four.iter().map(|(_, s)| s.tag_cache.cross_sm_switches).sum();
    assert!(switches > 0, "tag cache never changed hands across 4 SMs");
    let dram_switches: u64 = four.iter().map(|(_, s)| s.dram.cross_sm_switches).sum();
    assert!(dram_switches > 0, "DRAM channel never changed hands across 4 SMs");
}
