//! Golden-stats regression gate for the pipeline/Device refactor.
//!
//! The refactor's hard invariant is that a single-SM device is *the same
//! machine* as the pre-refactor monolithic `Sm`: with `--sms 1`, every suite
//! benchmark must produce bit-identical `KernelStats`. The table
//! `tests/golden/suite_stats.txt` was recorded from the pre-refactor model
//! (commit `087d925`) at the quick geometry across five representative
//! configurations; this test re-runs the full suite and compares field by
//! field.
//!
//! The fingerprint covers every `KernelStats` field that existed before the
//! refactor (floats are compared by exact bit pattern). Fields added *by*
//! the refactor (cross-SM contention counters) are deliberately excluded:
//! they did not exist when the goldens were recorded, and the companion
//! assertions in `multi_sm.rs` pin them to zero at `sms = 1`.
//!
//! A second table, `tests/golden/device_stats.txt`, pins the *device*
//! statistics at `sms = 2` and `sms = 4` (contention counters included),
//! recorded at commit `71df492` — the last with `Device`'s swap-install run
//! loop — before that loop was replaced by the borrowed-`MemSystem` one.
//!
//! Both go through the shared checker of `tests/golden/mod.rs`, whose own
//! rendering is pinned here, once, by `checker_names_what_moved`.

#[path = "../../../tests/golden/mod.rs"]
mod golden;

use cheri_simt::KernelStats;
use nocl_suite::Scale;
use repro::{default_jobs, run_suite_parallel_on, Config, Geometry};

/// Render the pre-refactor field set of one run as a stable one-line string.
fn fingerprint(s: &KernelStats) -> String {
    fingerprint_with(s, |avg| format!("{:016x}", avg.to_bits()))
}

/// [`fingerprint`] with the two residency averages rendered by `avg`.
fn fingerprint_with(s: &KernelStats, avg: impl Fn(f64) -> String) -> String {
    let hist: Vec<String> = s.cheri_histogram.iter().map(|(k, v)| format!("{k}:{v}")).collect();
    format!(
        "cyc={} ins={} tins={} hist=[{}] \
         stall={},{},{},{},{} dram={},{},{},{} tag={},{},{} scr={},{} \
         drf={},{},{},{},{} mrf={},{},{},{},{} \
         avgd={} avgm={} pkd={} pkm={} capu={} capm={:#x} \
         sfu={} bar={} stk={}",
        s.cycles,
        s.instrs,
        s.thread_instrs,
        hist.join(","),
        s.stalls.csc_serialisation,
        s.stalls.shared_vrf_conflict,
        s.stalls.spill_fill,
        s.stalls.cap_multi_flit,
        s.stalls.idle,
        s.dram.read_transactions,
        s.dram.write_transactions,
        s.dram.tag_transactions,
        s.dram.busy_cycles,
        s.tag_cache.hits,
        s.tag_cache.misses,
        s.tag_cache.writebacks,
        s.scratch.accesses,
        s.scratch.conflict_cycles,
        s.data_rf.spills,
        s.data_rf.fills,
        s.data_rf.scalar_writes,
        s.data_rf.vector_writes,
        s.data_rf.peak_resident,
        s.meta_rf.spills,
        s.meta_rf.fills,
        s.meta_rf.scalar_writes,
        s.meta_rf.vector_writes,
        s.meta_rf.peak_resident,
        avg(s.avg_data_vrf_resident),
        avg(s.avg_meta_vrf_resident),
        s.peak_data_vrf_resident,
        s.peak_meta_vrf_resident,
        s.cap_regs_used,
        s.cap_regs_mask,
        s.sfu_requests,
        s.barriers,
        s.stack_cache_hits,
    )
}

const CONFIGS: &[(&str, Config)] = &[
    ("Base3", Config::Base { eighths: 3 }),
    ("CheriNaive", Config::CheriNaive),
    ("CheriOpt", Config::CheriOpt),
    ("RustChecked", Config::RustChecked),
    ("GpuShield", Config::GpuShield),
];

/// The 70 fingerprints predate every host-side fast path (scalarised
/// execute, the program ROM, `Device::run`'s lookahead) and `Device`
/// itself, so they are the independent oracle for all of them.
#[test]
fn suite_stats_match_pre_refactor_golden() {
    let mut got = Vec::new();
    for (tag, config) in CONFIGS {
        let (cfg, mode) = config.instantiate(Geometry::Small);
        let results = run_suite_parallel_on(default_jobs(), cfg, mode, Scale::Test, 1)
            .unwrap_or_else(|e| panic!("suite failed under {tag}: {e}"));
        got.extend(results.iter().map(|(bench, s)| format!("{tag} {bench} | {}", fingerprint(s))));
    }
    golden::check("suite_stats", include_str!("../../../tests/golden/suite_stats.txt"), &got);
}

/// The multi-SM fingerprint: the single-SM field set plus the counters that
/// only move at `sms > 1` (cross-SM contention) and `scalarised_issues`.
/// The residency averages are rendered to 9 significant digits, not as bit
/// patterns: a device average is a quotient of sums over SMs, and the
/// table must survive a change in how many times that quotient rounds.
fn multi_sm_fingerprint(s: &KernelStats) -> String {
    format!(
        "{} xsm={},{},{},{} scal={}",
        fingerprint_with(s, |avg| format!("{avg:.8e}")),
        s.dram.cross_sm_switches,
        s.dram.cross_sm_wait_cycles,
        s.tag_cache.cross_sm_switches,
        s.tag_cache.cross_sm_conflict_evictions,
        s.scalarised_issues,
    )
}

const MULTI_SM_CONFIGS: &[(&str, Config)] =
    &[("Base3", Config::Base { eighths: 3 }), ("CheriOpt", Config::CheriOpt)];

/// Device statistics at `sms = 2` and `sms = 4` (deterministic min-cycle
/// arbitration over one shared memory system) match the table recorded at
/// commit `71df492`, the last with the swap-install `Device::run`.
#[test]
fn multi_sm_stats_match_recorded_golden() {
    let mut got = Vec::new();
    for (tag, config) in MULTI_SM_CONFIGS {
        let (cfg, mode) = config.instantiate(Geometry::Small);
        for sms in [2, 4] {
            let results = run_suite_parallel_on(default_jobs(), cfg, mode, Scale::Test, sms)
                .unwrap_or_else(|e| panic!("suite failed under {tag} at sms={sms}: {e}"));
            got.extend(results.iter().map(|(bench, s)| {
                format!("{tag} {bench} (sms={sms}) | {}", multi_sm_fingerprint(s))
            }));
        }
    }
    golden::check("device_stats", include_str!("../../../tests/golden/device_stats.txt"), &got);
}

/// The checker's report: a moved integer field with its signed delta, a
/// moved positional token, missing and extra labels, the count, and a
/// reordering that moves no field.
#[test]
fn checker_names_what_moved() {
    let (a, b, c) = ("a | cyc=10 fnv=0x01 2:mem:unmapped@00002000", "b | cyc=5", "c | cyc=7");
    let want = format!("{a}\n{b}\n{c}\n");
    let diff =
        |got: &[&str]| golden::diff(&want, &got.iter().map(|r| r.to_string()).collect::<Vec<_>>());
    assert_eq!(diff(&[a, b, c]), None);
    assert_eq!(
        diff(&["a | cyc=7 fnv=0x02 2:cheri:tag", b, "d | cyc=7"]).as_deref(),
        Some(
            "  - missing: c\n  + extra: d\n  ~ a\n      cyc: 10 → 7 (-3)\n      \
             fnv: 0x01 → 0x02\n      [0]: 2:mem:unmapped@00002000 → 2:cheri:tag\n"
        )
    );
    assert_eq!(
        diff(&[a, b]).as_deref(),
        Some("  3 records recorded, 2 produced\n  - missing: c\n")
    );
    assert_eq!(diff(&[b, a, c]).as_deref(), Some("  order: record 1 is `b`, recorded `a`\n"));
}
