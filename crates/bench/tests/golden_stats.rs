//! Golden-stats regression gate for the pipeline/Device refactor.
//!
//! A single-SM device is *the same machine* as the pre-refactor monolithic
//! `Sm`: with `--sms 1`, every suite benchmark must produce bit-identical
//! `KernelStats`. `tests/golden/suite_stats.txt` was recorded from the
//! pre-refactor model (commit `087d925`) at the quick geometry across five
//! configurations; `tests/golden/device_stats.txt` pins the *device*
//! statistics at `sms = 2` and `4`, recorded at commit `71df492`, the last
//! with `Device`'s swap-install run loop.
//!
//! The fingerprint renders every counter of `cheri_simt::COUNTERS` in key
//! order; every counter is an integer, so a record is exact at any SM
//! count. Keys the recording lacked (`xsm`, `scal`, `flt`) were appended
//! later as added keys only, the multi-launch BitonicLa device records'
//! `xsm` group moved when `KernelStats::accumulate` began summing the
//! cross-SM counters, and the two VRF-residency averages (`avgd`, `avgm`)
//! were removed with their counters; every `sms = 1` record carries
//! `xsm=0,0,0,0`. Each `sms = 1` run also satisfies the cycle identity:
//! every cycle issues or stalls for one cause.
//!
//! Both tables go through the shared checker of `tests/golden/mod.rs`,
//! whose own rendering is pinned here, once, by `checker_names_what_moved`.

#[path = "../../../tests/golden/mod.rs"]
mod golden;

use cheri_simt::{KernelStats, COUNTERS, FINGERPRINT_KEYS};
use nocl_suite::Scale;
use repro::{default_jobs, run_suite_parallel_on, Config, Geometry};

/// Render every declared counter of one run as a stable one-line string,
/// one `key=value,…` group per fingerprint key.
fn fingerprint(s: &KernelStats) -> String {
    let group = |key| {
        COUNTERS.iter().filter(|c| c.key == key).map(|c| c.value(s).to_string()).collect::<Vec<_>>()
    };
    FINGERPRINT_KEYS
        .iter()
        .map(|&key| format!("{key}={}", group(key).join(",")))
        .collect::<Vec<_>>()
        .join(" ")
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
/// itself, so they are the independent oracle for all of them. Each run's
/// cycles are its issues plus its stall cycles by cause, checked here in
/// release builds too, where `Sm::finalise`'s debug assertion is off.
#[test]
fn suite_stats_match_pre_refactor_golden() {
    let mut got = Vec::new();
    for (tag, config) in CONFIGS {
        let (cfg, mode) = config.instantiate(Geometry::Small);
        let results = run_suite_parallel_on(default_jobs(), cfg, mode, Scale::Test, 1)
            .unwrap_or_else(|e| panic!("suite failed under {tag}: {e}"));
        for (bench, s) in &results {
            let st = &s.stalls;
            let causes = st.csc_serialisation
                + st.shared_vrf_conflict
                + st.spill_fill
                + st.cap_multi_flit
                + st.idle;
            assert_eq!(s.cycles, s.instrs + causes, "{tag} {bench}: a cycle with no cause");
            got.push(format!("{tag} {bench} | {}", fingerprint(s)));
        }
    }
    golden::check("suite_stats", include_str!("../../../tests/golden/suite_stats.txt"), &got);
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
            got.extend(
                results
                    .iter()
                    .map(|(bench, s)| format!("{tag} {bench} (sms={sms}) | {}", fingerprint(s))),
            );
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
