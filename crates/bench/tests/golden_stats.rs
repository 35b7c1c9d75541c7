//! Golden-stats regression gate for the pipeline/Device refactor.
//!
//! The refactor's hard invariant is that a single-SM device is *the same
//! machine* as the pre-refactor monolithic `Sm`: with `--sms 1`, every suite
//! benchmark must produce bit-identical `KernelStats`. The constants below
//! were recorded from the pre-refactor model (commit `087d925`) at the quick
//! geometry across five representative configurations; this test re-runs the
//! full suite and compares field by field.
//!
//! The fingerprint covers every `KernelStats` field that existed before the
//! refactor (floats are compared by exact bit pattern). Fields added *by*
//! the refactor (cross-SM contention counters) are deliberately excluded:
//! they did not exist when the goldens were recorded, and the companion
//! assertions in `multi_sm.rs` pin them to zero at `sms = 1`.
//!
//! A second table pins the *device* statistics at `sms = 2` and `sms = 4`
//! (contention counters included), recorded at commit `71df492` — the last
//! with `Device`'s swap-install run loop — before that loop was replaced
//! by the borrowed-`MemSystem` one.

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

/// One-off harvest helper: prints the golden table in source form.
/// Run with `cargo test -p repro --test golden_stats -- --ignored --nocapture`.
#[test]
#[ignore = "harvest helper, not a regression test"]
fn print_golden() {
    for (tag, config) in CONFIGS {
        let (cfg, mode) = config.instantiate(Geometry::Small);
        let results = run_suite_parallel_on(default_jobs(), cfg, mode, Scale::Test, 1).unwrap();
        for (bench, stats) in &results {
            println!("    (\"{tag}\", \"{bench}\", \"{}\"),", fingerprint(stats));
        }
    }
}

/// The 70 fingerprints predate every host-side fast path (scalarised
/// execute, the program ROM, `Device::run`'s lookahead) and `Device`
/// itself, so they are the independent oracle for all of them.
#[test]
fn suite_stats_match_pre_refactor_golden() {
    assert!(!GOLDEN.is_empty(), "golden table not recorded");
    let mut idx = 0usize;
    for (tag, config) in CONFIGS {
        let (cfg, mode) = config.instantiate(Geometry::Small);
        let results = run_suite_parallel_on(default_jobs(), cfg, mode, Scale::Test, 1)
            .unwrap_or_else(|e| panic!("suite failed under {tag}: {e}"));
        assert_eq!(results.len(), 14, "{tag}: suite size");
        for (bench, stats) in &results {
            let (want_tag, want_bench, want_fp) = GOLDEN[idx];
            assert_eq!((*tag, *bench), (want_tag, want_bench), "golden table order");
            assert_eq!(
                fingerprint(stats),
                want_fp,
                "{tag}/{bench}: KernelStats diverged from the pre-refactor model"
            );
            idx += 1;
        }
    }
    assert_eq!(idx, GOLDEN.len(), "golden table covered");
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

/// Every `(config, sms, benchmark, fingerprint)` of the multi-SM table, in
/// table order.
fn multi_sm_fingerprints() -> Vec<(&'static str, u32, &'static str, String)> {
    let mut out = Vec::new();
    for (tag, config) in MULTI_SM_CONFIGS {
        let (cfg, mode) = config.instantiate(Geometry::Small);
        for sms in [2, 4] {
            let results = run_suite_parallel_on(default_jobs(), cfg, mode, Scale::Test, sms)
                .unwrap_or_else(|e| panic!("suite failed under {tag} at sms={sms}: {e}"));
            assert_eq!(results.len(), 14, "{tag} sms={sms}: suite size");
            out.extend(results.iter().map(|(b, s)| (*tag, sms, *b, multi_sm_fingerprint(s))));
        }
    }
    out
}

/// One-off harvest helper for [`GOLDEN_MULTI_SM`].
#[test]
#[ignore = "harvest helper, not a regression test"]
fn print_multi_sm_golden() {
    for (tag, sms, bench, fp) in multi_sm_fingerprints() {
        println!("    (\"{tag}\", {sms}, \"{bench}\", \"{fp}\"),");
    }
}

/// Device statistics at `sms = 2` and `sms = 4` (deterministic min-cycle
/// arbitration over one shared memory system) match the table recorded at
/// commit `71df492`, the last with the swap-install `Device::run`.
#[test]
fn multi_sm_stats_match_recorded_golden() {
    let got = multi_sm_fingerprints();
    assert_eq!(got.len(), GOLDEN_MULTI_SM.len(), "multi-SM golden table covered");
    for ((tag, sms, bench, fp), want) in got.iter().zip(GOLDEN_MULTI_SM) {
        assert_eq!(
            (*tag, *sms, *bench, fp.as_str()),
            *want,
            "{tag}/{bench} at sms={sms}: device statistics diverged"
        );
    }
}

/// `(config, sms, benchmark, multi-SM fingerprint)` recorded at `71df492`.
#[rustfmt::skip]
const GOLDEN_MULTI_SM: &[(&str, u32, &str, &str)] = &[
    ("Base3", 2, "VecAdd", "cyc=11984 ins=5212 tins=41696 hist=[] stall=0,0,0,0,17712 dram=596,250,0,1692 tag=0,0,0 scr=0,0 drf=0,0,2936,750,17 mrf=0,0,0,0,0 avgd=8.04834996e0 avgm=0.00000000e0 pkd=17 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0 xsm=658,254,0,0 scal=3570"),
    ("Base3", 2, "Histogram", "cyc=17013 ins=5600 tins=44800 hist=[] stall=0,0,0,0,12592 dram=592,32,0,1248 tag=0,0,0 scr=576,785 drf=0,0,2208,1568,20 mrf=0,0,0,0,0 avgd=1.35162500e1 avgm=0.00000000e0 pkd=20 pkm=0 capu=0 capm=0x0 sfu=0 bar=24 stk=0 xsm=80,184,0,0 scal=2704"),
    ("Base3", 2, "Reduce", "cyc=19601 ins=18696 tins=143136 hist=[] stall=0,0,0,0,20301 dram=455,32,0,974 tag=0,0,0 scr=1248,0 drf=0,0,7148,2222,20 mrf=0,0,0,0,0 avgd=1.22688810e1 avgm=0.00000000e0 pkd=20 pkm=0 capu=0 capm=0x0 sfu=0 bar=2048 stk=0 xsm=204,392,0,0 scal=11075"),
    ("Base3", 2, "Scan", "cyc=4727 ins=6040 tins=47136 hist=[] stall=0,0,0,0,3398 dram=96,32,0,256 tag=0,0,0 scr=636,0 drf=0,0,3871,777,27 mrf=0,0,0,0,0 avgd=7.73741722e0 avgm=0.00000000e0 pkd=27 pkm=0 capu=0 capm=0x0 sfu=0 bar=256 stk=0 xsm=87,274,0,0 scal=4364"),
    ("Base3", 2, "Transpose", "cyc=7070 ins=5456 tins=43648 hist=[] stall=0,0,0,0,8668 dram=208,128,0,672 tag=0,0,0 scr=256,0 drf=0,0,4144,512,24 mrf=0,0,0,0,0 avgd=9.32221408e0 avgm=0.00000000e0 pkd=24 pkm=0 capu=0 capm=0x0 sfu=0 bar=256 stk=0 xsm=127,274,0,0 scal=4176"),
    ("Base3", 2, "MatVecMul", "cyc=22554 ins=5368 tins=42944 hist=[] stall=0,0,0,0,18707 dram=3568,8,0,7152 tag=0,0,0 scr=0,0 drf=0,0,1824,2688,48 mrf=0,0,0,0,0 avgd=3.29083458e1 avgm=0.00000000e0 pkd=48 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0 xsm=112,184,0,0 scal=2496"),
    ("Base3", 2, "MatMul", "cyc=8982 ins=11696 tins=93568 hist=[] stall=0,0,0,0,6247 dram=224,32,0,512 tag=0,0,0 scr=1152,0 drf=0,0,8368,1664,24 mrf=0,0,0,0,0 avgd=1.17435021e1 avgm=0.00000000e0 pkd=24 pkm=0 capu=0 capm=0x0 sfu=0 bar=160 stk=0 xsm=153,341,0,0 scal=8992"),
    ("Base3", 2, "BitonicSm", "cyc=28405 ins=51666 tins=296664 hist=[] stall=0,0,0,0,5077 dram=128,64,0,384 tag=0,0,0 scr=5766,0 drf=0,0,14055,23493,64 mrf=0,0,0,0,0 avgd=4.30145744e1 avgm=0.00000000e0 pkd=64 pkm=0 capu=0 capm=0x0 sfu=0 bar=960 stk=0 xsm=96,202,0,0 scal=15220"),
    ("Base3", 2, "BitonicLa", "cyc=430214 ins=207666 tins=1309038 hist=[] stall=0,0,0,0,625966 dram=15776,8966,0,49484 tag=0,0,0 scr=0,0 drf=0,0,75078,74374,64 mrf=0,0,0,0,0 avgd=3.16564982e1 avgm=0.00000000e0 pkd=64 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0 xsm=446,282,0,0 scal=78070"),
    ("Base3", 2, "SPMV", "cyc=18335 ins=5822 tins=27886 hist=[] stall=0,0,0,0,30781 dram=3131,32,0,6326 tag=0,0,0 scr=0,0 drf=0,0,672,4204,72 mrf=0,0,0,0,0 avgd=6.31611130e1 avgm=0.00000000e0 pkd=72 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0 xsm=1016,1804,0,0 scal=969"),
    ("Base3", 2, "BlkStencil", "cyc=2723 ins=1404 tins=11012 hist=[] stall=0,0,0,0,4018 dram=120,32,0,304 tag=0,0,0 scr=128,0 drf=0,0,872,236,30 mrf=0,0,0,0,0 avgd=8.72364672e0 avgm=0.00000000e0 pkd=30 pkm=0 capu=0 capm=0x0 sfu=0 bar=64 stk=0 xsm=93,244,0,0 scal=864"),
    ("Base3", 2, "StrStencil", "cyc=15526 ins=6696 tins=53568 hist=[] stall=0,0,0,0,22847 dram=1080,250,0,2660 tag=0,0,0 scr=0,0 drf=0,0,3920,1250,17 mrf=0,0,0,0,0 avgd=9.55704898e0 avgm=0.00000000e0 pkd=17 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0 xsm=576,295,0,0 scal=4570"),
    ("Base3", 2, "VecGCD", "cyc=6248 ins=6454 tins=41667 hist=[] stall=0,0,0,0,5952 dram=224,64,0,576 tag=0,0,0 scr=0,0 drf=0,0,1029,2965,24 mrf=0,0,0,0,0 avgd=1.81547877e1 avgm=0.00000000e0 pkd=24 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0 xsm=186,199,0,0 scal=2030"),
    ("Base3", 2, "MotionEst", "cyc=279612 ins=29328 tins=231015 hist=[] stall=0,0,0,0,251815 dram=10572,514,0,22172 tag=0,0,0 scr=0,0 drf=0,0,4038,21908,32 mrf=0,0,0,0,0 avgd=3.12401459e1 avgm=0.00000000e0 pkd=32 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0 xsm=112,184,0,0 scal=6330"),
    ("Base3", 4, "VecAdd", "cyc=6951 ins=5436 tins=43488 hist=[] stall=0,0,0,0,20384 dram=692,250,0,1884 tag=0,0,0 scr=0,0 drf=0,0,3128,750,17 mrf=0,0,0,0,0 avgd=7.51894776e0 avgm=0.00000000e0 pkd=17 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0 xsm=828,944,0,0 scal=3650"),
    ("Base3", 4, "Histogram", "cyc=17021 ins=5936 tins=47488 hist=[] stall=0,0,0,0,14652 dram=672,32,0,1408 tag=0,0,0 scr=576,785 drf=0,0,2512,1568,20 mrf=0,0,0,0,0 avgd=1.27511792e1 avgm=0.00000000e0 pkd=20 pkm=0 capu=0 capm=0x0 sfu=0 bar=24 stk=0 xsm=160,880,0,0 scal=2912"),
    ("Base3", 4, "Reduce", "cyc=10393 ins=19032 tins=145824 hist=[] stall=0,0,0,0,22258 dram=535,32,0,1134 tag=0,0,0 scr=1248,0 drf=0,0,7452,2222,20 mrf=0,0,0,0,0 avgd=1.20366225e1 avgm=0.00000000e0 pkd=20 pkm=0 capu=0 capm=0x0 sfu=0 bar=2048 stk=0 xsm=329,1523,0,0 scal=11283"),
    ("Base3", 4, "Scan", "cyc=2887 ins=6360 tins=49696 hist=[] stall=0,0,0,0,5108 dram=160,32,0,384 tag=0,0,0 scr=636,0 drf=0,0,4160,776,27 mrf=0,0,0,0,0 avgd=7.37924528e0 avgm=0.00000000e0 pkd=27 pkm=0 capu=0 capm=0x0 sfu=0 bar=256 stk=0 xsm=176,1347,0,0 scal=4572"),
    ("Base3", 4, "Transpose", "cyc=4146 ins=5792 tins=46336 hist=[] stall=0,0,0,0,10696 dram=288,128,0,832 tag=0,0,0 scr=256,0 drf=0,0,4448,512,24 mrf=0,0,0,0,0 avgd=8.58356354e0 avgm=0.00000000e0 pkd=24 pkm=0 capu=0 capm=0x0 sfu=0 bar=256 stk=0 xsm=239,1447,0,0 scal=4384"),
    ("Base3", 4, "MatVecMul", "cyc=22530 ins=5608 tins=44864 hist=[] stall=0,0,0,0,21575 dram=3680,8,0,7376 tag=0,0,0 scr=0,0 drf=0,0,2032,2688,48 mrf=0,0,0,0,0 avgd=3.15522468e1 avgm=0.00000000e0 pkd=48 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0 xsm=224,880,0,0 scal=2576"),
    ("Base3", 4, "MatMul", "cyc=5179 ins=12064 tins=96512 hist=[] stall=0,0,0,0,8552 dram=320,32,0,704 tag=0,0,0 scr=1152,0 drf=0,0,8704,1664,24 mrf=0,0,0,0,0 avgd=1.13561008e1 avgm=0.00000000e0 pkd=24 pkm=0 capu=0 capm=0x0 sfu=0 bar=160 stk=0 xsm=292,1416,0,0 scal=9216"),
    ("Base3", 4, "BitonicSm", "cyc=14689 ins=51986 tins=299224 hist=[] stall=0,0,0,0,6648 dram=192,64,0,512 tag=0,0,0 scr=5766,0 drf=0,0,14343,23493,64 mrf=0,0,0,0,0 avgd=4.25284307e1 avgm=0.00000000e0 pkd=64 pkm=0 capu=0 capm=0x0 sfu=0 bar=960 stk=0 xsm=213,1069,0,0 scal=15428"),
    ("Base3", 4, "BitonicLa", "cyc=259769 ins=219986 tins=1407598 hist=[] stall=0,0,0,0,767651 dram=21056,8966,0,60044 tag=0,0,0 scr=0,0 drf=0,0,85638,74374,64 mrf=0,0,0,0,0 avgd=2.84659886e1 avgm=0.00000000e0 pkd=64 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0 xsm=645,1002,0,0 scal=82470"),
    ("Base3", 4, "SPMV", "cyc=10515 ins=6078 tins=29934 hist=[] stall=0,0,0,0,35728 dram=3259,32,0,6582 tag=0,0,0 scr=0,0 drf=0,0,896,4204,72 mrf=0,0,0,0,0 avgd=5.88224745e1 avgm=0.00000000e0 pkd=72 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0 xsm=1375,15552,0,0 scal=1049"),
    ("Base3", 4, "BlkStencil", "cyc=1892 ins=1724 tins=13572 hist=[] stall=0,0,0,0,5762 dram=184,32,0,432 tag=0,0,0 scr=128,0 drf=0,0,1160,236,30 mrf=0,0,0,0,0 avgd=6.98839907e0 avgm=0.00000000e0 pkd=30 pkm=0 capu=0 capm=0x0 sfu=0 bar=64 stk=0 xsm=174,1172,0,0 scal=1072"),
    ("Base3", 4, "StrStencil", "cyc=8653 ins=6904 tins=55232 hist=[] stall=0,0,0,0,24680 dram=1160,250,0,2820 tag=0,0,0 scr=0,0 drf=0,0,4096,1250,17 mrf=0,0,0,0,0 avgd=9.36790267e0 avgm=0.00000000e0 pkd=17 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0 xsm=1086,1715,0,0 scal=4650"),
    ("Base3", 4, "VecGCD", "cyc=3864 ins=6678 tins=43459 hist=[] stall=0,0,0,0,8633 dram=320,64,0,768 tag=0,0,0 scr=0,0 drf=0,0,1221,2965,24 mrf=0,0,0,0,0 avgd=1.81587302e1 avgm=0.00000000e0 pkd=24 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0 xsm=364,910,0,0 scal=2110"),
    ("Base3", 4, "MotionEst", "cyc=279608 ins=29616 tins=233319 hist=[] stall=0,0,0,0,254654 dram=10684,514,0,22396 tag=0,0,0 scr=0,0 drf=0,0,4262,21940,32 mrf=0,0,0,0,0 avgd=3.09524581e1 avgm=0.00000000e0 pkd=32 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0 xsm=224,880,0,0 scal=6442"),
    ("CheriOpt", 2, "VecAdd", "cyc=12003 ins=5212 tins=41696 hist=[CIncOffset:750,CJAL:498,CLC:48,CLW:548,CSW:250,CSpecialRW:16] stall=0,0,0,48,17719 dram=596,250,13,1718 tag=833,13,0 scr=0,0 drf=0,0,2936,750,17 mrf=0,0,3686,0,0 avgd=7.93610898e0 avgm=0.00000000e0 pkd=17 pkm=0 capu=6 capm=0xa8000700 sfu=0 bar=0 stk=0 xsm=600,273,600,0 scal=2820"),
    ("CheriOpt", 2, "Histogram", "cyc=17028 ins=5616 tins=44928 hist=[CAMO:512,CIncOffset:1136,CIncOffsetImm:16,CJAL:584,CLBU:512,CLC:32,CLW:80,CSW:64,CSetBoundsImm:16,CSpecialRW:32] stall=0,0,0,32,12581 dram=592,32,4,1256 tag=620,4,0 scr=576,785 drf=0,0,2224,1568,24 mrf=0,0,3792,0,0 avgd=1.86969373e1 avgm=0.00000000e0 pkd=24 pkm=0 capu=6 capm=0x70000700 sfu=16 bar=24 stk=0 xsm=80,214,80,0 scal=2112"),
    ("CheriOpt", 2, "Reduce", "cyc=19607 ins=18712 tins=143264 hist=[CAMO:32,CIncOffset:1607,CIncOffsetImm:16,CJAL:2167,CLC:32,CLW:1095,CSW:576,CSetBoundsImm:16,CSpecialRW:32] stall=0,0,0,32,20265 dram=455,32,7,988 tag=480,7,0 scr=1248,0 drf=0,0,7260,2126,22 mrf=0,0,9386,0,0 avgd=1.52423578e1 avgm=0.00000000e0 pkd=22 pkm=0 capu=6 capm=0xe0000700 sfu=16 bar=2048 stk=0 xsm=212,439,212,0 scal=9788"),
    ("CheriOpt", 2, "Scan", "cyc=4736 ins=6056 tins=47264 hist=[CIncOffset:716,CIncOffsetImm:16,CJAL:388,CLC:32,CLW:464,CSW:268,CSetBoundsImm:16,CSpecialRW:32] stall=0,0,0,32,3368 dram=96,32,2,260 tag=126,2,0 scr=636,0 drf=0,0,3884,780,28 mrf=0,0,4664,0,0 avgd=8.49570674e0 avgm=0.00000000e0 pkd=28 pkm=0 capu=6 capm=0xb0000380 sfu=16 bar=256 stk=0 xsm=91,325,91,0 scal=3740"),
    ("CheriOpt", 2, "Transpose", "cyc=7089 ins=5472 tins=43776 hist=[CIncOffset:528,CIncOffsetImm:16,CJAL:128,CLC:32,CLW:304,CSW:256,CSetBoundsImm:16,CSpecialRW:32] stall=0,0,0,32,8658 dram=208,128,5,682 tag=331,5,0 scr=256,0 drf=0,0,4160,512,24 mrf=0,0,4672,0,0 avgd=1.19638158e1 avgm=0.00000000e0 pkd=24 pkm=0 capu=6 capm=0x38000700 sfu=16 bar=256 stk=0 xsm=129,361,129,0 scal=3808"),
    ("CheriOpt", 2, "MatVecMul", "cyc=22566 ins=5368 tins=42944 hist=[CIncOffset:776,CJAL:400,CLC:48,CLW:832,CSW:8,CSpecialRW:16] stall=0,0,0,48,18673 dram=3568,8,8,7168 tag=3568,8,0 scr=0,0 drf=0,0,1824,2688,48 mrf=0,0,4512,0,0 avgd=3.68651267e1 avgm=0.00000000e0 pkd=48 pkm=0 capu=7 capm=0x78000e00 sfu=0 bar=0 stk=0 xsm=112,214,112,0 scal=2488"),
    ("CheriOpt", 2, "MatMul", "cyc=8997 ins=11728 tins=93824 hist=[CIncOffset:1328,CIncOffsetImm:32,CJAL:608,CLC:48,CLW:1200,CSW:160,CSetBoundsImm:32,CSpecialRW:32] stall=0,0,0,48,6197 dram=224,32,3,518 tag=253,3,0 scr=1152,0 drf=0,0,8400,1664,24 mrf=0,0,10064,0,0 avgd=1.23023533e1 avgm=0.00000000e0 pkd=24 pkm=0 capu=10 capm=0xbc001f00 sfu=32 bar=160 stk=0 xsm=157,357,157,0 scal=8224"),
    ("CheriOpt", 2, "BitonicSm", "cyc=28416 ins=51682 tins=296792 hist=[CIncOffset:5910,CIncOffsetImm:16,CJAL:2944,CLC:32,CLW:3104,CSW:2822,CSetBoundsImm:16,CSpecialRW:32] stall=0,0,0,32,5052 dram=128,64,3,390 tag=189,3,0 scr=5766,0 drf=0,0,14424,23140,72 mrf=0,0,37564,0,0 avgd=4.88668202e1 avgm=0.00000000e0 pkd=72 pkm=0 capu=6 capm=0xa8000380 sfu=16 bar=960 stk=0 xsm=104,244,104,0 scal=14190"),
    ("CheriOpt", 2, "BitonicLa", "cyc=430120 ins=207666 tins=1309038 hist=[CIncOffset:19462,CJAL:14080,CLC:880,CLW:14896,CSW:8966,CSpecialRW:880] stall=0,0,0,880,625235 dram=15776,8966,165,49814 tag=24577,165,0 scr=0,0 drf=0,0,75965,73487,72 mrf=0,0,149452,0,0 avgd=3.56449843e1 avgm=0.00000000e0 pkd=72 pkm=0 capu=3 capm=0x60000400 sfu=0 bar=0 stk=0 xsm=412,297,412,0 scal=73380"),
    ("CheriOpt", 2, "SPMV", "cyc=18350 ins=5822 tins=27886 hist=[CIncOffset:1131,CJAL:409,CLC:80,CLW:1147,CSW:32,CSpecialRW:16] stall=0,0,0,80,30758 dram=3131,32,8,6342 tag=3155,8,0 scr=0,0 drf=0,0,672,4204,88 mrf=0,0,4876,0,0 avgd=7.77794572e1 avgm=0.00000000e0 pkd=88 pkm=0 capu=11 capm=0xf3001f00 sfu=0 bar=0 stk=0 xsm=1004,1863,1004,0 scal=873"),
    ("CheriOpt", 2, "BlkStencil", "cyc=2734 ins=1420 tins=11140 hist=[CIncOffset:216,CIncOffsetImm:16,CJAL:40,CLC:32,CLW:160,CSW:64,CSetBoundsImm:16,CSpecialRW:32] stall=0,8,0,32,3982 dram=120,32,3,310 tag=149,3,0 scr=128,0 drf=0,0,888,236,32 mrf=0,0,1112,12,2 avgd=1.04577465e1 avgm=1.10845070e0 pkd=32 pkm=2 capu=8 capm=0xb0001b80 sfu=16 bar=64 stk=0 xsm=95,274,95,0 scal=696"),
    ("CheriOpt", 2, "StrStencil", "cyc=15527 ins=6696 tins=53568 hist=[CIncOffset:1000,CJAL:498,CLC:32,CLW:798,CSW:250,CSpecialRW:16] stall=0,0,0,32,22810 dram=1080,250,9,2678 tag=1321,9,0 scr=0,0 drf=0,0,3920,1250,17 mrf=0,0,5170,0,0 avgd=9.58542413e0 avgm=0.00000000e0 pkd=17 pkm=0 capu=5 capm=0xb0000300 sfu=0 bar=0 stk=0 xsm=614,373,614,0 scal=3570"),
    ("CheriOpt", 2, "VecGCD", "cyc=6226 ins=6454 tins=41667 hist=[CIncOffset:192,CJAL:1118,CLC:48,CLW:176,CSW:64,CSpecialRW:16] stall=0,0,0,48,5903 dram=224,64,4,584 tag=284,4,0 scr=0,0 drf=0,0,1029,2965,24 mrf=0,0,3994,0,0 avgd=1.82933065e1 avgm=0.00000000e0 pkd=24 pkm=0 capu=6 capm=0xe0000700 sfu=0 bar=0 stk=0 xsm=200,229,200,0 scal=1838"),
    ("CheriOpt", 2, "MotionEst", "cyc=279621 ins=29360 tins=231271 hist=[CIncOffset:1602,CJAL:1094,CLBU:1600,CLC:48,CLW:934,CSW:66,CSetAddr:16,CSpecialRW:32] stall=0,0,0,48,251762 dram=10572,514,18,22208 tag=11068,18,0 scr=0,0 drf=0,0,4054,21924,40 mrf=0,0,25978,0,0 avgd=3.90972411e1 avgm=0.00000000e0 pkd=40 pkm=0 capu=7 capm=0x34000e04 sfu=0 bar=0 stk=0 xsm=112,214,112,0 scal=6344"),
    ("CheriOpt", 4, "VecAdd", "cyc=6962 ins=5436 tins=43488 hist=[CIncOffset:750,CJAL:498,CLC:96,CLW:596,CSW:250,CSpecialRW:32] stall=0,0,0,96,20332 dram=692,250,13,1910 tag=929,13,0 scr=0,0 drf=0,0,3128,750,17 mrf=0,0,3878,0,0 avgd=7.53826343e0 avgm=0.00000000e0 pkd=17 pkm=0 capu=6 capm=0xa8000700 sfu=0 bar=0 stk=0 xsm=840,1282,840,0 scal=2900"),
    ("CheriOpt", 4, "Histogram", "cyc=17036 ins=5968 tins=47744 hist=[CAMO:512,CIncOffset:1152,CIncOffsetImm:32,CJAL:584,CLBU:512,CLC:64,CLW:128,CSW:64,CSetBoundsImm:32,CSpecialRW:64] stall=0,0,0,64,14646 dram=672,32,4,1416 tag=700,4,0 scr=576,785 drf=0,0,2544,1568,24 mrf=0,0,4112,0,0 avgd=1.75941689e1 avgm=0.00000000e0 pkd=24 pkm=0 capu=6 capm=0x70000700 sfu=32 bar=24 stk=0 xsm=160,942,160,0 scal=2336"),
    ("CheriOpt", 4, "Reduce", "cyc=10383 ins=19064 tins=146080 hist=[CAMO:32,CIncOffset:1623,CIncOffsetImm:32,CJAL:2167,CLC:64,CLW:1143,CSW:576,CSetBoundsImm:32,CSpecialRW:64] stall=0,0,0,64,22136 dram=535,32,7,1148 tag=560,7,0 scr=1248,0 drf=0,0,7580,2126,22 mrf=0,0,9706,0,0 avgd=1.48818191e1 avgm=0.00000000e0 pkd=22 pkm=0 capu=6 capm=0xe0000700 sfu=32 bar=2048 stk=0 xsm=355,1742,355,0 scal=10012"),
    ("CheriOpt", 4, "Scan", "cyc=2897 ins=6392 tins=49952 hist=[CIncOffset:732,CIncOffsetImm:32,CJAL:388,CLC:64,CLW:496,CSW:268,CSetBoundsImm:32,CSpecialRW:64] stall=0,0,0,64,5060 dram=160,32,2,388 tag=190,2,0 scr=636,0 drf=0,0,4188,780,28 mrf=0,0,4968,0,0 avgd=7.98185232e0 avgm=0.00000000e0 pkd=28 pkm=0 capu=6 capm=0xb0000380 sfu=32 bar=256 stk=0 xsm=184,1632,184,0 scal=3964"),
    ("CheriOpt", 4, "Transpose", "cyc=4159 ins=5824 tins=46592 hist=[CIncOffset:544,CIncOffsetImm:32,CJAL:128,CLC:64,CLW:352,CSW:256,CSetBoundsImm:32,CSpecialRW:64] stall=0,0,0,64,10652 dram=288,128,5,842 tag=411,5,0 scr=256,0 drf=0,0,4480,512,24 mrf=0,0,4992,0,0 avgd=1.09306319e1 avgm=0.00000000e0 pkd=24 pkm=0 capu=6 capm=0x38000700 sfu=32 bar=256 stk=0 xsm=237,1570,237,0 scal=4032"),
    ("CheriOpt", 4, "MatVecMul", "cyc=22540 ins=5608 tins=44864 hist=[CIncOffset:776,CJAL:400,CLC:96,CLW:896,CSW:8,CSpecialRW:32] stall=0,0,0,96,21495 dram=3680,8,8,7392 tag=3680,8,0 scr=0,0 drf=0,0,2032,2688,48 mrf=0,0,4720,0,0 avgd=3.53396933e1 avgm=0.00000000e0 pkd=48 pkm=0 capu=7 capm=0x78000e00 sfu=0 bar=0 stk=0 xsm=224,942,224,0 scal=2568"),
    ("CheriOpt", 4, "MatMul", "cyc=5204 ins=12128 tins=97024 hist=[CIncOffset:1344,CIncOffsetImm:64,CJAL:608,CLC:96,CLW:1248,CSW:160,CSetBoundsImm:64,CSpecialRW:64] stall=0,0,0,96,8498 dram=320,32,3,710 tag=349,3,0 scr=1152,0 drf=0,0,8768,1664,24 mrf=0,0,10432,0,0 avgd=1.18682388e1 avgm=0.00000000e0 pkd=24 pkm=0 capu=10 capm=0xbc001f00 sfu=64 bar=160 stk=0 xsm=302,1677,302,0 scal=8480"),
    ("CheriOpt", 4, "BitonicSm", "cyc=14697 ins=52018 tins=299480 hist=[CIncOffset:5926,CIncOffsetImm:32,CJAL:2944,CLC:64,CLW:3136,CSW:2822,CSetBoundsImm:32,CSpecialRW:64] stall=0,0,0,64,6596 dram=192,64,3,518 tag=253,3,0 scr=5766,0 drf=0,0,14852,23016,72 mrf=0,0,37868,0,0 avgd=4.77477412e1 avgm=0.00000000e0 pkd=72 pkm=0 capu=6 capm=0xa8000380 sfu=32 bar=960 stk=0 xsm=211,1128,211,0 scal=14414"),
    ("CheriOpt", 4, "BitonicLa", "cyc=260204 ins=219986 tins=1407598 hist=[CIncOffset:19462,CJAL:14080,CLC:1760,CLW:19296,CSW:8966,CSpecialRW:1760] stall=0,0,0,1760,767210 dram=21056,8966,165,60374 tag=29857,165,0 scr=0,0 drf=0,0,86525,73487,72 mrf=0,0,160012,0,0 avgd=3.19487401e1 avgm=0.00000000e0 pkd=72 pkm=0 capu=3 capm=0x60000400 sfu=0 bar=0 stk=0 xsm=653,1093,653,0 scal=77780"),
    ("CheriOpt", 4, "SPMV", "cyc=10531 ins=6078 tins=29934 hist=[CIncOffset:1131,CJAL:409,CLC:160,CLW:1195,CSW:32,CSpecialRW:32] stall=0,0,0,160,35632 dram=3259,32,8,6598 tag=3283,8,0 scr=0,0 drf=0,0,896,4204,88 mrf=0,0,5100,0,0 avgd=7.19531096e1 avgm=0.00000000e0 pkd=88 pkm=0 capu=11 capm=0xf3001f00 sfu=0 bar=0 stk=0 xsm=1375,16048,1375,0 scal=953"),
    ("CheriOpt", 4, "BlkStencil", "cyc=1911 ins=1756 tins=13828 hist=[CIncOffset:232,CIncOffsetImm:32,CJAL:40,CLC:64,CLW:192,CSW:64,CSetBoundsImm:32,CSpecialRW:64] stall=0,8,0,64,5730 dram=184,32,3,438 tag=213,3,0 scr=128,0 drf=0,0,1192,236,30 mrf=0,0,1420,8,2 avgd=6.84738041e0 avgm=5.58086560e-1 pkd=30 pkm=2 capu=8 capm=0xb0001b80 sfu=32 bar=64 stk=0 xsm=179,1502,179,0 scal=920"),
    ("CheriOpt", 4, "StrStencil", "cyc=8664 ins=6904 tins=55232 hist=[CIncOffset:1000,CJAL:498,CLC:64,CLW:846,CSW:250,CSpecialRW:32] stall=0,0,0,64,24726 dram=1160,250,9,2838 tag=1401,9,0 scr=0,0 drf=0,0,4096,1250,17 mrf=0,0,5346,0,0 avgd=9.29504635e0 avgm=0.00000000e0 pkd=17 pkm=0 capu=5 capm=0xb0000300 sfu=0 bar=0 stk=0 xsm=1045,2105,1045,0 scal=3650"),
    ("CheriOpt", 4, "VecGCD", "cyc=3870 ins=6678 tins=43459 hist=[CIncOffset:192,CJAL:1118,CLC:96,CLW:224,CSW:64,CSpecialRW:32] stall=0,0,0,96,8578 dram=320,64,4,776 tag=380,4,0 scr=0,0 drf=0,0,1221,2965,24 mrf=0,0,4186,0,0 avgd=1.81744534e1 avgm=0.00000000e0 pkd=24 pkm=0 capu=6 capm=0xe0000700 sfu=0 bar=0 stk=0 xsm=364,1108,364,0 scal=1918"),
    ("CheriOpt", 4, "MotionEst", "cyc=279613 ins=29680 tins=233831 hist=[CIncOffset:1602,CJAL:1094,CLBU:1600,CLC:96,CLW:998,CSW:66,CSetAddr:32,CSpecialRW:64] stall=0,0,0,96,254511 dram=10684,514,18,22432 tag=11180,18,0 scr=0,0 drf=0,0,4294,21972,40 mrf=0,0,26266,0,0 avgd=3.87125000e1 avgm=0.00000000e0 pkd=40 pkm=0 capu=7 capm=0x34000e04 sfu=0 bar=0 stk=0 xsm=224,942,224,0 scal=6472"),
];

/// `(config, benchmark, fingerprint)` recorded from the pre-refactor model.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, &str)] = &[
    ("Base3", "VecAdd", "cyc=21468 ins=5100 tins=40800 hist=[] stall=0,0,0,0,16368 dram=548,250,0,1596 tag=0,0,0 scr=0,0 drf=0,0,2840,750,17 mrf=0,0,0,0,0 avgd=40207fb2e6194c80 avgm=0000000000000000 pkd=17 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("Base3", "Histogram", "cyc=16975 ins=5408 tins=43264 hist=[] stall=0,0,0,0,11567 dram=552,32,0,1168 tag=0,0,0 scr=576,785 drf=0,0,2032,1568,20 mrf=0,0,0,0,0 avgd=402bfe030792ef56 avgm=0000000000000000 pkd=20 pkm=0 capu=0 capm=0x0 sfu=0 bar=24 stk=0"),
    ("Base3", "Reduce", "cyc=37822 ins=18504 tins=141600 hist=[] stall=0,0,0,0,19318 dram=415,32,0,894 tag=0,0,0 scr=1248,0 drf=0,0,6972,2222,20 mrf=0,0,0,0,0 avgd=4028d274a7c9fd1f avgm=0000000000000000 pkd=20 pkm=0 capu=0 capm=0x0 sfu=0 bar=2048 stk=0"),
    ("Base3", "Scan", "cyc=8412 ins=5856 tins=45664 hist=[] stall=0,0,0,0,2556 dram=64,32,0,192 tag=0,0,0 scr=636,0 drf=0,0,3702,778,27 mrf=0,0,0,0,0 avgd=401ff4fbcda3ac11 avgm=0000000000000000 pkd=27 pkm=0 capu=0 capm=0x0 sfu=0 bar=256 stk=0"),
    ("Base3", "Transpose", "cyc=12934 ins=5264 tins=42112 hist=[] stall=0,0,0,0,7670 dram=168,128,0,592 tag=0,0,0 scr=256,0 drf=0,0,3968,512,24 mrf=0,0,0,0,0 avgd=40238f770d3a5bd1 avgm=0000000000000000 pkd=24 pkm=0 capu=0 capm=0x0 sfu=0 bar=256 stk=0"),
    ("Base3", "MatVecMul", "cyc=22577 ins=5248 tins=41984 hist=[] stall=0,0,0,0,17329 dram=3512,8,0,7040 tag=0,0,0 scr=0,0 drf=0,0,1720,2688,48 mrf=0,0,0,0,0 avgd=4040d08f9c18f9c2 avgm=0000000000000000 pkd=48 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("Base3", "MatMul", "cyc=16573 ins=11488 tins=91904 hist=[] stall=0,0,0,0,5085 dram=176,32,0,416 tag=0,0,0 scr=1152,0 drf=0,0,8176,1664,24 mrf=0,0,0,0,0 avgd=4027f542514adfe9 avgm=0000000000000000 pkd=24 pkm=0 capu=0 capm=0x0 sfu=0 bar=160 stk=0"),
    ("Base3", "BitonicSm", "cyc=55771 ins=51482 tins=295192 hist=[] stall=0,0,0,0,4289 dram=96,64,0,320 tag=0,0,0 scr=5766,0 drf=0,0,13887,23493,64 mrf=0,0,0,0,0 avgd=4045a457a326c1ac avgm=0000000000000000 pkd=64 pkm=0 capu=0 capm=0x0 sfu=0 bar=960 stk=0"),
    ("Base3", "BitonicLa", "cyc=750470 ins=201506 tins=1259758 hist=[] stall=0,0,0,0,548964 dram=13136,8966,0,44204 tag=0,0,0 scr=0,0 drf=0,0,69798,74374,64 mrf=0,0,0,0,0 avgd=40413a3665f558d1 avgm=0000000000000000 pkd=64 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("Base3", "SPMV", "cyc=34254 ins=5694 tins=26862 hist=[] stall=0,0,0,0,28560 dram=3067,32,0,6198 tag=0,0,0 scr=0,0 drf=0,0,560,4204,72 mrf=0,0,0,0,0 avgd=40506517780aca51 avgm=0000000000000000 pkd=72 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("Base3", "BlkStencil", "cyc=4390 ins=1220 tins=9540 hist=[] stall=0,0,0,0,3170 dram=88,32,0,240 tag=0,0,0 scr=128,0 drf=0,0,704,236,30 mrf=0,0,0,0,0 avgd=40247806b6fa1fe5 avgm=0000000000000000 pkd=30 pkm=0 capu=0 capm=0x0 sfu=0 bar=64 stk=0"),
    ("Base3", "StrStencil", "cyc=28454 ins=6592 tins=52736 hist=[] stall=0,0,0,0,21862 dram=1040,250,0,2580 tag=0,0,0 scr=0,0 drf=0,0,3832,1250,17 mrf=0,0,0,0,0 avgd=4023d965e7254814 avgm=0000000000000000 pkd=17 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("Base3", "VecGCD", "cyc=10684 ins=6342 tins=40771 hist=[] stall=0,0,0,0,4342 dram=176,64,0,480 tag=0,0,0 scr=0,0 drf=0,0,933,2965,24 mrf=0,0,0,0,0 avgd=40314de7f12537a0 avgm=0000000000000000 pkd=24 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("Base3", "MotionEst", "cyc=279633 ins=29184 tins=229863 hist=[] stall=0,0,0,0,250449 dram=10516,514,0,22060 tag=0,0,0 scr=0,0 drf=0,0,3926,21892,32 mrf=0,0,0,0,0 avgd=403f62f9435e50d8 avgm=0000000000000000 pkd=32 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("CheriNaive", "VecAdd", "cyc=21588 ins=5100 tins=40800 hist=[CIncOffset:750,CJAL:498,CLC:24,CLW:524,CSW:250,CSpecialRW:8] stall=0,0,0,24,16464 dram=548,250,13,1622 tag=785,13,0 scr=0,0 drf=0,0,2840,750,17 mrf=0,0,3590,0,0 avgd=4020334ce68019b3 avgm=0000000000000000 pkd=17 pkm=0 capu=6 capm=0xa8000700 sfu=0 bar=0 stk=0"),
    ("CheriNaive", "Histogram", "cyc=16990 ins=5416 tins=43328 hist=[CAMO:512,CIncOffset:1128,CIncOffsetImm:8,CJAL:584,CLBU:512,CLC:16,CLW:56,CSW:64,CSetBoundsImm:8,CSpecialRW:16] stall=0,0,0,16,11558 dram=552,32,4,1176 tag=580,4,0 scr=576,785 drf=0,0,2040,1568,24 mrf=0,0,3608,0,0 avgd=4033632abaccf385 avgm=0000000000000000 pkd=24 pkm=0 capu=6 capm=0x70000700 sfu=0 bar=24 stk=0"),
    ("CheriNaive", "Reduce", "cyc=37843 ins=18512 tins=141664 hist=[CAMO:32,CIncOffset:1599,CIncOffsetImm:8,CJAL:2167,CLC:16,CLW:1071,CSW:576,CSetBoundsImm:8,CSpecialRW:16] stall=0,0,0,16,19315 dram=415,32,7,908 tag=440,7,0 scr=1248,0 drf=0,0,7076,2126,22 mrf=0,0,9202,0,0 avgd=402eea74623d82c4 avgm=0000000000000000 pkd=22 pkm=0 capu=6 capm=0xe0000700 sfu=0 bar=2048 stk=0"),
    ("CheriNaive", "Scan", "cyc=8422 ins=5864 tins=45728 hist=[CIncOffset:708,CIncOffsetImm:8,CJAL:388,CLC:16,CLW:448,CSW:268,CSetBoundsImm:8,CSpecialRW:16] stall=0,0,0,16,2542 dram=64,32,2,196 tag=94,2,0 scr=636,0 drf=0,0,3707,781,28 mrf=0,0,4488,0,0 avgd=4021ad3a531f154e avgm=0000000000000000 pkd=28 pkm=0 capu=6 capm=0xb0000380 sfu=0 bar=256 stk=0"),
    ("CheriNaive", "Transpose", "cyc=12950 ins=5272 tins=42176 hist=[CIncOffset:520,CIncOffsetImm:8,CJAL:128,CLC:16,CLW:280,CSW:256,CSetBoundsImm:8,CSpecialRW:16] stall=0,0,0,16,7662 dram=168,128,5,602 tag=291,5,0 scr=256,0 drf=0,0,3976,512,24 mrf=0,0,4488,0,0 avgd=40293901f13cfd48 avgm=0000000000000000 pkd=24 pkm=0 capu=6 capm=0x38000700 sfu=0 bar=256 stk=0"),
    ("CheriNaive", "MatVecMul", "cyc=22591 ins=5248 tins=41984 hist=[CIncOffset:776,CJAL:400,CLC:24,CLW:800,CSW:8,CSpecialRW:8] stall=0,0,0,24,17319 dram=3512,8,8,7056 tag=3512,8,0 scr=0,0 drf=0,0,1720,2688,48 mrf=0,0,4408,0,0 avgd=4042d69c18f9c190 avgm=0000000000000000 pkd=48 pkm=0 capu=7 capm=0x78000e00 sfu=0 bar=0 stk=0"),
    ("CheriNaive", "MatMul", "cyc=16594 ins=11504 tins=92032 hist=[CIncOffset:1320,CIncOffsetImm:16,CJAL:608,CLC:24,CLW:1176,CSW:160,CSetBoundsImm:16,CSpecialRW:16] stall=0,0,0,24,5066 dram=176,32,3,422 tag=205,3,0 scr=1152,0 drf=0,0,8192,1664,24 mrf=0,0,9856,0,0 avgd=4029205b2618ec6b avgm=0000000000000000 pkd=24 pkm=0 capu=10 capm=0xbc001f00 sfu=0 bar=160 stk=0"),
    ("CheriNaive", "BitonicSm", "cyc=55782 ins=51490 tins=295256 hist=[CIncOffset:5902,CIncOffsetImm:8,CJAL:2944,CLC:16,CLW:3088,CSW:2822,CSetBoundsImm:8,CSpecialRW:16] stall=0,0,0,16,4276 dram=96,64,3,326 tag=157,3,0 scr=5766,0 drf=0,0,14186,23202,72 mrf=0,0,37388,0,0 avgd=4048ba64eda766de avgm=0000000000000000 pkd=72 pkm=0 capu=6 capm=0xa8000380 sfu=0 bar=960 stk=0"),
    ("CheriNaive", "BitonicLa", "cyc=750414 ins=201506 tins=1259758 hist=[CIncOffset:19462,CJAL:14080,CLC:440,CLW:12696,CSW:8966,CSpecialRW:440] stall=0,0,0,440,548468 dram=13136,8966,165,44534 tag=21937,165,0 scr=0,0 drf=0,0,70685,73487,72 mrf=0,0,123852,20320,16 avgd=4043757e3ed37ed9 avgm=402071ba1e097bea pkd=72 pkm=16 capu=3 capm=0x60000400 sfu=0 bar=0 stk=0"),
    ("CheriNaive", "SPMV", "cyc=34241 ins=5694 tins=26862 hist=[CIncOffset:1131,CJAL:409,CLC:40,CLW:1123,CSW:32,CSpecialRW:8] stall=0,0,0,40,28507 dram=3067,32,8,6214 tag=3091,8,0 scr=0,0 drf=0,0,560,4204,88 mrf=0,0,4242,522,20 avgd=40543ecc1dda69ed avgm=4018bb924c6e6bb9 pkd=88 pkm=20 capu=11 capm=0xf3001f00 sfu=0 bar=0 stk=0"),
    ("CheriNaive", "BlkStencil", "cyc=4403 ins=1228 tins=9604 hist=[CIncOffset:208,CIncOffsetImm:8,CJAL:40,CLC:16,CLW:144,CSW:64,CSetBoundsImm:8,CSpecialRW:16] stall=0,0,0,16,3159 dram=88,32,3,246 tag=117,3,0 scr=128,0 drf=0,0,712,236,32 mrf=0,0,932,16,2 avgd=402aaaf1d2f87ec0 avgm=3ff93633b3488c17 pkd=32 pkm=2 capu=8 capm=0xb0001b80 sfu=0 bar=64 stk=0"),
    ("CheriNaive", "StrStencil", "cyc=28331 ins=6592 tins=52736 hist=[CIncOffset:1000,CJAL:498,CLC:16,CLW:774,CSW:250,CSpecialRW:8] stall=0,0,0,16,21723 dram=1040,250,9,2598 tag=1281,9,0 scr=0,0 drf=0,0,3832,1250,18 mrf=0,0,5082,0,0 avgd=4023d7ec1dd3431b avgm=0000000000000000 pkd=18 pkm=0 capu=5 capm=0xb0000300 sfu=0 bar=0 stk=0"),
    ("CheriNaive", "VecGCD", "cyc=10722 ins=6342 tins=40771 hist=[CIncOffset:192,CJAL:1118,CLC:24,CLW:152,CSW:64,CSpecialRW:8] stall=0,0,0,24,4356 dram=176,64,4,488 tag=236,4,0 scr=0,0 drf=0,0,933,2965,24 mrf=0,0,3898,0,0 avgd=40318d521aa43548 avgm=0000000000000000 pkd=24 pkm=0 capu=6 capm=0xe0000700 sfu=0 bar=0 stk=0"),
    ("CheriNaive", "MotionEst", "cyc=279651 ins=29200 tins=229991 hist=[CIncOffset:1602,CJAL:1094,CLBU:1600,CLC:24,CLW:902,CSW:66,CSetAddr:8,CSpecialRW:16] stall=0,0,0,24,250427 dram=10516,514,18,22096 tag=11012,18,0 scr=0,0 drf=0,0,3934,21900,40 mrf=0,0,25834,0,0 avgd=4043a54a7c4861a1 avgm=0000000000000000 pkd=40 pkm=0 capu=7 capm=0x34000e04 sfu=0 bar=0 stk=0"),
    ("CheriOpt", "VecAdd", "cyc=21588 ins=5100 tins=40800 hist=[CIncOffset:750,CJAL:498,CLC:24,CLW:524,CSW:250,CSpecialRW:8] stall=0,0,0,24,16464 dram=548,250,13,1622 tag=785,13,0 scr=0,0 drf=0,0,2840,750,17 mrf=0,0,3590,0,0 avgd=4020334ce68019b3 avgm=0000000000000000 pkd=17 pkm=0 capu=6 capm=0xa8000700 sfu=0 bar=0 stk=0"),
    ("CheriOpt", "Histogram", "cyc=16990 ins=5416 tins=43328 hist=[CAMO:512,CIncOffset:1128,CIncOffsetImm:8,CJAL:584,CLBU:512,CLC:16,CLW:56,CSW:64,CSetBoundsImm:8,CSpecialRW:16] stall=0,0,0,16,11558 dram=552,32,4,1176 tag=580,4,0 scr=576,785 drf=0,0,2040,1568,24 mrf=0,0,3608,0,0 avgd=4033632abaccf385 avgm=0000000000000000 pkd=24 pkm=0 capu=6 capm=0x70000700 sfu=8 bar=24 stk=0"),
    ("CheriOpt", "Reduce", "cyc=37829 ins=18512 tins=141664 hist=[CAMO:32,CIncOffset:1599,CIncOffsetImm:8,CJAL:2167,CLC:16,CLW:1071,CSW:576,CSetBoundsImm:8,CSpecialRW:16] stall=0,0,0,16,19301 dram=415,32,7,908 tag=440,7,0 scr=1248,0 drf=0,0,7076,2126,22 mrf=0,0,9202,0,0 avgd=402eed232e3e6557 avgm=0000000000000000 pkd=22 pkm=0 capu=6 capm=0xe0000700 sfu=8 bar=2048 stk=0"),
    ("CheriOpt", "Scan", "cyc=8420 ins=5864 tins=45728 hist=[CIncOffset:708,CIncOffsetImm:8,CJAL:388,CLC:16,CLW:448,CSW:268,CSetBoundsImm:8,CSpecialRW:16] stall=0,0,0,16,2540 dram=64,32,2,196 tag=94,2,0 scr=636,0 drf=0,0,3707,781,28 mrf=0,0,4488,0,0 avgd=4021b13e840430e5 avgm=0000000000000000 pkd=28 pkm=0 capu=6 capm=0xb0000380 sfu=8 bar=256 stk=0"),
    ("CheriOpt", "Transpose", "cyc=12941 ins=5272 tins=42176 hist=[CIncOffset:520,CIncOffsetImm:8,CJAL:128,CLC:16,CLW:280,CSW:256,CSetBoundsImm:8,CSpecialRW:16] stall=0,0,0,16,7653 dram=168,128,5,602 tag=291,5,0 scr=256,0 drf=0,0,3976,512,24 mrf=0,0,4488,0,0 avgd=40293dab5069a9c3 avgm=0000000000000000 pkd=24 pkm=0 capu=6 capm=0x38000700 sfu=8 bar=256 stk=0"),
    ("CheriOpt", "MatVecMul", "cyc=22591 ins=5248 tins=41984 hist=[CIncOffset:776,CJAL:400,CLC:24,CLW:800,CSW:8,CSpecialRW:8] stall=0,0,0,24,17319 dram=3512,8,8,7056 tag=3512,8,0 scr=0,0 drf=0,0,1720,2688,48 mrf=0,0,4408,0,0 avgd=4042d69c18f9c190 avgm=0000000000000000 pkd=48 pkm=0 capu=7 capm=0x78000e00 sfu=0 bar=0 stk=0"),
    ("CheriOpt", "MatMul", "cyc=16581 ins=11504 tins=92032 hist=[CIncOffset:1320,CIncOffsetImm:16,CJAL:608,CLC:24,CLW:1176,CSW:160,CSetBoundsImm:16,CSpecialRW:16] stall=0,0,0,24,5053 dram=176,32,3,422 tag=205,3,0 scr=1152,0 drf=0,0,8192,1664,24 mrf=0,0,9856,0,0 avgd=402923122896f719 avgm=0000000000000000 pkd=24 pkm=0 capu=10 capm=0xbc001f00 sfu=16 bar=160 stk=0"),
    ("CheriOpt", "BitonicSm", "cyc=55773 ins=51490 tins=295256 hist=[CIncOffset:5902,CIncOffsetImm:8,CJAL:2944,CLC:16,CLW:3088,CSW:2822,CSetBoundsImm:8,CSpecialRW:16] stall=0,0,0,16,4267 dram=96,64,3,326 tag=157,3,0 scr=5766,0 drf=0,0,14186,23202,72 mrf=0,0,37388,0,0 avgd=4048ba7fa82d6c38 avgm=0000000000000000 pkd=72 pkm=0 capu=6 capm=0xa8000380 sfu=8 bar=960 stk=0"),
    ("CheriOpt", "BitonicLa", "cyc=750414 ins=201506 tins=1259758 hist=[CIncOffset:19462,CJAL:14080,CLC:440,CLW:12696,CSW:8966,CSpecialRW:440] stall=0,0,0,440,548468 dram=13136,8966,165,44534 tag=21937,165,0 scr=0,0 drf=0,0,70685,73487,72 mrf=0,0,144172,0,0 avgd=4043757e3ed37ed9 avgm=0000000000000000 pkd=72 pkm=0 capu=3 capm=0x60000400 sfu=0 bar=0 stk=0"),
    ("CheriOpt", "SPMV", "cyc=34241 ins=5694 tins=26862 hist=[CIncOffset:1131,CJAL:409,CLC:40,CLW:1123,CSW:32,CSpecialRW:8] stall=0,0,0,40,28507 dram=3067,32,8,6214 tag=3091,8,0 scr=0,0 drf=0,0,560,4204,88 mrf=0,0,4764,0,0 avgd=40543ecc1dda69ed avgm=0000000000000000 pkd=88 pkm=0 capu=11 capm=0xf3001f00 sfu=0 bar=0 stk=0"),
    ("CheriOpt", "BlkStencil", "cyc=4405 ins=1228 tins=9604 hist=[CIncOffset:208,CIncOffsetImm:8,CJAL:40,CLC:16,CLW:144,CSW:64,CSetBoundsImm:8,CSpecialRW:16] stall=0,8,0,16,3153 dram=88,32,3,246 tag=117,3,0 scr=128,0 drf=0,0,712,236,32 mrf=0,0,934,14,2 avgd=402abe1faff2a871 avgm=3ff860bac9cc4cb7 pkd=32 pkm=2 capu=8 capm=0xb0001b80 sfu=8 bar=64 stk=0"),
    ("CheriOpt", "StrStencil", "cyc=28331 ins=6592 tins=52736 hist=[CIncOffset:1000,CJAL:498,CLC:16,CLW:774,CSW:250,CSpecialRW:8] stall=0,0,0,16,21723 dram=1040,250,9,2598 tag=1281,9,0 scr=0,0 drf=0,0,3832,1250,18 mrf=0,0,5082,0,0 avgd=4023d7ec1dd3431b avgm=0000000000000000 pkd=18 pkm=0 capu=5 capm=0xb0000300 sfu=0 bar=0 stk=0"),
    ("CheriOpt", "VecGCD", "cyc=10722 ins=6342 tins=40771 hist=[CIncOffset:192,CJAL:1118,CLC:24,CLW:152,CSW:64,CSpecialRW:8] stall=0,0,0,24,4356 dram=176,64,4,488 tag=236,4,0 scr=0,0 drf=0,0,933,2965,24 mrf=0,0,3898,0,0 avgd=40318d521aa43548 avgm=0000000000000000 pkd=24 pkm=0 capu=6 capm=0xe0000700 sfu=0 bar=0 stk=0"),
    ("CheriOpt", "MotionEst", "cyc=279651 ins=29200 tins=229991 hist=[CIncOffset:1602,CJAL:1094,CLBU:1600,CLC:24,CLW:902,CSW:66,CSetAddr:8,CSpecialRW:16] stall=0,0,0,24,250427 dram=10516,514,18,22096 tag=11012,18,0 scr=0,0 drf=0,0,3934,21900,40 mrf=0,0,25834,0,0 avgd=4043a54a7c4861a1 avgm=0000000000000000 pkd=40 pkm=0 capu=7 capm=0x34000e04 sfu=0 bar=0 stk=0"),
    ("RustChecked", "VecAdd", "cyc=22435 ins=6624 tins=52992 hist=[] stall=0,0,0,0,15811 dram=572,250,0,1644 tag=0,0,0 scr=0,0 drf=0,0,3614,750,18 mrf=0,0,0,0,0 avgd=4027bae6076b981e avgm=0000000000000000 pkd=18 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("RustChecked", "Histogram", "cyc=18035 ins=7664 tins=61312 hist=[] stall=0,0,0,0,10371 dram=568,32,0,1200 tag=0,0,0 scr=576,785 drf=0,0,3168,1568,14 mrf=0,0,0,0,0 avgd=401c8b7d98513c64 avgm=0000000000000000 pkd=14 pkm=0 capu=0 capm=0x0 sfu=0 bar=24 stk=0"),
    ("RustChecked", "Reduce", "cyc=41533 ins=21830 tins=164048 hist=[] stall=0,0,0,0,19703 dram=431,32,0,926 tag=0,0,0 scr=1248,0 drf=0,0,8195,2702,22 mrf=0,0,0,0,0 avgd=402e3a4277f18d67 avgm=0000000000000000 pkd=22 pkm=0 capu=0 capm=0x0 sfu=0 bar=2048 stk=0"),
    ("RustChecked", "Scan", "cyc=10213 ins=7272 tins=56552 hist=[] stall=0,0,0,0,2941 dram=80,32,0,224 tag=0,0,0 scr=636,0 drf=0,0,4336,860,27 mrf=0,0,0,0,0 avgd=40212ec012063221 avgm=0000000000000000 pkd=27 pkm=0 capu=0 capm=0x0 sfu=0 bar=256 stk=0"),
    ("RustChecked", "Transpose", "cyc=14361 ins=6304 tins=50432 hist=[] stall=0,0,0,0,8057 dram=184,128,0,624 tag=0,0,0 scr=256,0 drf=0,0,4496,512,16 mrf=0,0,0,0,0 avgd=4021eacd51de3694 avgm=0000000000000000 pkd=16 pkm=0 capu=0 capm=0x0 sfu=0 bar=256 stk=0"),
    ("RustChecked", "MatVecMul", "cyc=23394 ins=6824 tins=54592 hist=[] stall=0,0,0,0,16570 dram=3536,8,0,7088 tag=0,0,0 scr=0,0 drf=0,0,2520,2688,40 mrf=0,0,0,0,0 avgd=403e5858d5aef7e6 avgm=0000000000000000 pkd=40 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("RustChecked", "MatMul", "cyc=19779 ins=14136 tins=113088 hist=[] stall=0,0,0,0,5643 dram=200,32,0,464 tag=0,0,0 scr=1152,0 drf=0,0,9512,1664,24 mrf=0,0,0,0,0 avgd=402670adda9f138f avgm=0000000000000000 pkd=24 pkm=0 capu=0 capm=0x0 sfu=0 bar=160 stk=0"),
    ("RustChecked", "BitonicSm", "cyc=68015 ins=63286 tins=342568 hist=[] stall=0,0,0,0,4729 dram=112,64,0,352 tag=0,0,0 scr=5766,0 drf=0,0,15064,28226,64 mrf=0,0,0,0,0 avgd=4045b2c3abc3a58d avgm=0000000000000000 pkd=64 pkm=0 capu=0 capm=0x0 sfu=0 bar=960 stk=0"),
    ("RustChecked", "BitonicLa", "cyc=771550 ins=240870 tins=1431970 hist=[] stall=0,0,0,0,530680 dram=13576,8966,0,45084 tag=0,0,0 scr=0,0 drf=0,0,74911,89163,64 mrf=0,0,0,0,0 avgd=4041643b51532e1e avgm=0000000000000000 pkd=64 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("RustChecked", "SPMV", "cyc=35950 ins=7996 tins=37268 hist=[] stall=0,0,0,0,27954 dram=3107,32,0,6278 tag=0,0,0 scr=0,0 drf=0,0,789,5146,64 mrf=0,0,0,0,0 avgd=404d59054028fb01 avgm=0000000000000000 pkd=64 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("RustChecked", "BlkStencil", "cyc=5371 ins=1884 tins=14780 hist=[] stall=0,0,0,0,3487 dram=104,32,0,272 tag=0,0,0 scr=128,0 drf=0,0,1144,268,28 mrf=0,0,0,0,0 avgd=402846ee104e447c avgm=0000000000000000 pkd=28 pkm=0 capu=0 capm=0x0 sfu=0 bar=64 stk=0"),
    ("RustChecked", "StrStencil", "cyc=29026 ins=8608 tins=68864 hist=[] stall=0,0,0,0,20418 dram=1056,250,0,2612 tag=0,0,0 scr=0,0 drf=0,0,4848,1250,17 mrf=0,0,0,0,0 avgd=4029f2611214efd2 avgm=0000000000000000 pkd=17 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("RustChecked", "VecGCD", "cyc=11479 ins=6750 tins=44035 hist=[] stall=0,0,0,0,4729 dram=200,64,0,528 tag=0,0,0 scr=0,0 drf=0,0,1149,2965,24 mrf=0,0,0,0,0 avgd=4030fb5f7f5af245 avgm=0000000000000000 pkd=24 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("RustChecked", "MotionEst", "cyc=575347 ins=35106 tins=277239 hist=[] stall=0,0,0,0,540241 dram=31596,1106,0,65404 tag=0,0,0 scr=0,0 drf=0,0,7372,22692,30 mrf=0,0,0,0,0 avgd=403cadd6b9e48d5a avgm=0000000000000000 pkd=30 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("GpuShield", "VecAdd", "cyc=21468 ins=5100 tins=40800 hist=[] stall=0,0,0,0,16368 dram=548,250,0,1596 tag=0,0,0 scr=0,0 drf=0,0,2840,750,17 mrf=0,0,0,0,0 avgd=40207fb2e6194c80 avgm=0000000000000000 pkd=17 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("GpuShield", "Histogram", "cyc=16975 ins=5408 tins=43264 hist=[] stall=0,0,0,0,11567 dram=552,32,0,1168 tag=0,0,0 scr=576,785 drf=0,0,2032,1568,20 mrf=0,0,0,0,0 avgd=402bfe030792ef56 avgm=0000000000000000 pkd=20 pkm=0 capu=0 capm=0x0 sfu=0 bar=24 stk=0"),
    ("GpuShield", "Reduce", "cyc=37822 ins=18504 tins=141600 hist=[] stall=0,0,0,0,19318 dram=415,32,0,894 tag=0,0,0 scr=1248,0 drf=0,0,6972,2222,20 mrf=0,0,0,0,0 avgd=4028d274a7c9fd1f avgm=0000000000000000 pkd=20 pkm=0 capu=0 capm=0x0 sfu=0 bar=2048 stk=0"),
    ("GpuShield", "Scan", "cyc=8412 ins=5856 tins=45664 hist=[] stall=0,0,0,0,2556 dram=64,32,0,192 tag=0,0,0 scr=636,0 drf=0,0,3702,778,27 mrf=0,0,0,0,0 avgd=401ff4fbcda3ac11 avgm=0000000000000000 pkd=27 pkm=0 capu=0 capm=0x0 sfu=0 bar=256 stk=0"),
    ("GpuShield", "Transpose", "cyc=12934 ins=5264 tins=42112 hist=[] stall=0,0,0,0,7670 dram=168,128,0,592 tag=0,0,0 scr=256,0 drf=0,0,3968,512,24 mrf=0,0,0,0,0 avgd=40238f770d3a5bd1 avgm=0000000000000000 pkd=24 pkm=0 capu=0 capm=0x0 sfu=0 bar=256 stk=0"),
    ("GpuShield", "MatVecMul", "cyc=22577 ins=5248 tins=41984 hist=[] stall=0,0,0,0,17329 dram=3512,8,0,7040 tag=0,0,0 scr=0,0 drf=0,0,1720,2688,48 mrf=0,0,0,0,0 avgd=4040d08f9c18f9c2 avgm=0000000000000000 pkd=48 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("GpuShield", "MatMul", "cyc=16573 ins=11488 tins=91904 hist=[] stall=0,0,0,0,5085 dram=176,32,0,416 tag=0,0,0 scr=1152,0 drf=0,0,8176,1664,24 mrf=0,0,0,0,0 avgd=4027f542514adfe9 avgm=0000000000000000 pkd=24 pkm=0 capu=0 capm=0x0 sfu=0 bar=160 stk=0"),
    ("GpuShield", "BitonicSm", "cyc=55771 ins=51482 tins=295192 hist=[] stall=0,0,0,0,4289 dram=96,64,0,320 tag=0,0,0 scr=5766,0 drf=0,0,13887,23493,64 mrf=0,0,0,0,0 avgd=4045a457a326c1ac avgm=0000000000000000 pkd=64 pkm=0 capu=0 capm=0x0 sfu=0 bar=960 stk=0"),
    ("GpuShield", "BitonicLa", "cyc=750470 ins=201506 tins=1259758 hist=[] stall=0,0,0,0,548964 dram=13136,8966,0,44204 tag=0,0,0 scr=0,0 drf=0,0,69798,74374,64 mrf=0,0,0,0,0 avgd=40413a3665f558d1 avgm=0000000000000000 pkd=64 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("GpuShield", "SPMV", "cyc=34254 ins=5694 tins=26862 hist=[] stall=0,0,0,0,28560 dram=3067,32,0,6198 tag=0,0,0 scr=0,0 drf=0,0,560,4204,72 mrf=0,0,0,0,0 avgd=40506517780aca51 avgm=0000000000000000 pkd=72 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("GpuShield", "BlkStencil", "cyc=4390 ins=1220 tins=9540 hist=[] stall=0,0,0,0,3170 dram=88,32,0,240 tag=0,0,0 scr=128,0 drf=0,0,704,236,30 mrf=0,0,0,0,0 avgd=40247806b6fa1fe5 avgm=0000000000000000 pkd=30 pkm=0 capu=0 capm=0x0 sfu=0 bar=64 stk=0"),
    ("GpuShield", "StrStencil", "cyc=28454 ins=6592 tins=52736 hist=[] stall=0,0,0,0,21862 dram=1040,250,0,2580 tag=0,0,0 scr=0,0 drf=0,0,3832,1250,17 mrf=0,0,0,0,0 avgd=4023d965e7254814 avgm=0000000000000000 pkd=17 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("GpuShield", "VecGCD", "cyc=10684 ins=6342 tins=40771 hist=[] stall=0,0,0,0,4342 dram=176,64,0,480 tag=0,0,0 scr=0,0 drf=0,0,933,2965,24 mrf=0,0,0,0,0 avgd=40314de7f12537a0 avgm=0000000000000000 pkd=24 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
    ("GpuShield", "MotionEst", "cyc=279633 ins=29184 tins=229863 hist=[] stall=0,0,0,0,250449 dram=10516,514,0,22060 tag=0,0,0 scr=0,0 drf=0,0,3926,21892,32 mrf=0,0,0,0,0 avgd=403f62f9435e50d8 avgm=0000000000000000 pkd=32 pkm=0 capu=0 capm=0x0 sfu=0 bar=0 stk=0"),
];
