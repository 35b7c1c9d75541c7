//! The §4.3 forecast, realised: with compiler support limiting which
//! registers may hold capabilities, the metadata SRF can cover only those
//! registers, halving the register-file storage overhead from 14% to 7%
//! with no run-time cost.

use cheri_simt::{CheriMode, CheriOpts, SmConfig};
use nocl::{Gpu, LaunchError};
use nocl_kir::{CompileError, Mode};
use nocl_suite::{catalog, BenchError, Scale};
use simt_regfile::{RegFileStorage, RfConfig};

const LIMIT: u32 = 16;

fn gpu(limit: Option<u32>) -> Gpu {
    let g = Gpu::new(SmConfig::small(CheriMode::On(CheriOpts::optimised())), Mode::PureCap);
    match limit {
        Some(l) => g.with_cap_reg_limit(l),
        None => g,
    }
}

/// The whole suite still passes with the limit, and — the property the
/// halved SRF needs — no register at or above the limit ever holds a
/// capability.
#[test]
fn suite_respects_the_limit() {
    let mut g = gpu(Some(LIMIT));
    for b in catalog() {
        let stats =
            b.run(&mut g, Scale::Test).unwrap_or_else(|e| panic!("{} capped: {e}", b.name()));
        assert_eq!(
            stats.cap_regs_mask & !((1u32 << LIMIT) - 1),
            0,
            "{}: a register >= {LIMIT} held a capability (mask {:#010x})",
            b.name(),
            stats.cap_regs_mask
        );
    }
}

/// Without the limit, at least one benchmark does use a high register for a
/// capability (so the test above is not vacuous).
#[test]
fn unlimited_compilation_uses_high_registers() {
    let mut g = gpu(None);
    let mut any_high = false;
    for b in catalog() {
        let stats = b.run(&mut g, Scale::Test).unwrap();
        any_high |= stats.cap_regs_mask & !((1u32 << LIMIT) - 1) != 0;
    }
    assert!(any_high, "expected some benchmark to place capabilities above register 15");
}

/// The limit costs essentially nothing at run time (the paper: "without
/// impacting run-time performance").
#[test]
fn limit_is_performance_neutral() {
    let vecadd = catalog()[0];
    let base = vecadd.run(&mut gpu(None), Scale::Test).unwrap();
    let capped = vecadd.run(&mut gpu(Some(LIMIT)), Scale::Test).unwrap();
    let ratio = capped.cycles as f64 / base.cycles as f64;
    assert!((0.98..1.02).contains(&ratio), "ratio {ratio}");
}

/// The storage claim itself: a 16-entry metadata SRF costs ~7% of the
/// compressed baseline register file (vs ~14% for the full 32 entries).
#[test]
fn halved_metadata_srf_is_seven_percent() {
    let baseline = RegFileStorage::for_config(&RfConfig::data(64, 32, 768)).kilobits();
    let full = RegFileStorage::for_config(&RfConfig::meta(64, 32, 0, true));
    let halved = RegFileStorage::for_config(&RfConfig::meta(64, 32, 0, true).with_arch_regs(LIMIT));
    let full_ovhd = full.srf_bits as f64 / 1024.0 / baseline;
    let halved_ovhd = halved.srf_bits as f64 / 1024.0 / baseline;
    assert!((full_ovhd - 0.14).abs() < 0.01, "full {full_ovhd:.3}");
    assert!((halved_ovhd - 0.07).abs() < 0.01, "halved {halved_ovhd:.3}");
}

/// A limit that leaves too few registers — for pointers (0 and 3) or for
/// everything else (32 and 33) — fails every suite kernel's launch with a
/// typed register-pressure error.
#[test]
fn unusable_limits_are_register_pressure() {
    for limit in [0, 3, 32, 33] {
        let mut g = gpu(Some(limit));
        for b in catalog() {
            match b.run(&mut g, Scale::Test) {
                Err(BenchError::Launch(LaunchError::Compile(CompileError::RegisterPressure(
                    _,
                )))) => {}
                other => {
                    panic!("limit {limit}, {}: expected register pressure, got {other:?}", b.name())
                }
            }
        }
    }
}
