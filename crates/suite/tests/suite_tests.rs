//! The whole suite must pass its self-checks in every compilation mode —
//! the model's equivalent of the artifact's `test.sh` ("All tests passed").

use cheri_simt::{CheriMode, CheriOpts, SmConfig};
use nocl::Gpu;
use nocl_kir::Mode;
use nocl_suite::{catalog, Scale};

fn config_for(mode: Mode, opts: CheriOpts) -> SmConfig {
    SmConfig::small(if mode.needs_cheri() { CheriMode::On(opts) } else { CheriMode::Off })
}

fn run_all(mode: Mode, opts: CheriOpts) {
    let mut gpu = Gpu::new(config_for(mode, opts), mode);
    for b in catalog() {
        let stats =
            b.run(&mut gpu, Scale::Test).unwrap_or_else(|e| panic!("{} [{mode:?}]: {e}", b.name()));
        assert!(stats.instrs > 0, "{}", b.name());
        assert!(stats.cycles > 0, "{}", b.name());
    }
}

#[test]
fn suite_baseline() {
    run_all(Mode::Baseline, CheriOpts::optimised());
}

#[test]
fn suite_purecap_optimised() {
    run_all(Mode::PureCap, CheriOpts::optimised());
}

#[test]
fn suite_purecap_naive() {
    run_all(Mode::PureCap, CheriOpts::naive());
}

#[test]
fn suite_rust_checked() {
    run_all(Mode::RustChecked, CheriOpts::optimised());
}

#[test]
fn suite_rust_full() {
    run_all(Mode::RustFull, CheriOpts::optimised());
}

#[test]
fn catalog_matches_table1() {
    let names: Vec<_> = catalog().iter().map(|b| b.name()).collect();
    assert_eq!(
        names,
        [
            "VecAdd",
            "Histogram",
            "Reduce",
            "Scan",
            "Transpose",
            "MatVecMul",
            "MatMul",
            "BitonicSm",
            "BitonicLa",
            "SPMV",
            "BlkStencil",
            "StrStencil",
            "VecGCD",
            "MotionEst",
        ]
    );
    for b in catalog() {
        assert!(!b.description().is_empty());
        assert!(!b.origin().is_empty());
    }
}

#[test]
fn blkstencil_diverges_metadata_but_nvo_keeps_the_rest_scalar() {
    // The paper's Section 4.3 observation: only BlkStencil occupies the VRF
    // with capability metadata; every other benchmark compresses fully
    // under NVO.
    let mut gpu = Gpu::new(config_for(Mode::PureCap, CheriOpts::optimised()), Mode::PureCap);
    for b in catalog() {
        let stats = b.run(&mut gpu, Scale::Test).unwrap();
        if b.name() == "BlkStencil" {
            assert!(
                stats.peak_meta_vrf_resident > 0,
                "BlkStencil's pointer select must diverge metadata"
            );
        } else {
            assert_eq!(
                stats.peak_meta_vrf_resident,
                0,
                "{} should keep metadata fully compressed",
                b.name()
            );
        }
    }
}

/// `SmConfig::stack_cache` (the §4.4 compressed stack cache) is reachable
/// from the suite: MotionEst's compiled kernel spills integer variables to
/// per-thread stack slots. With the cache on, those warp-uniform/affine
/// stack accesses are absorbed, the output still passes its check, and the
/// kernel takes fewer cycles.
#[test]
fn stack_cache_absorbs_motionest_spills() {
    let bench = catalog().iter().find(|b| b.name() == "MotionEst").expect("MotionEst");
    for mode in [Mode::Baseline, Mode::RustChecked] {
        let run = |stack_cache| {
            let cfg = SmConfig { stack_cache, ..config_for(mode, CheriOpts::optimised()) };
            bench
                .run(&mut Gpu::new(cfg, mode), Scale::Test)
                .unwrap_or_else(|e| panic!("[{mode:?}] {e}"))
        };
        let (off, on) = (run(false), run(true));
        assert_eq!(off.stack_cache_hits, 0, "[{mode:?}]");
        assert!(on.stack_cache_hits > 0, "[{mode:?}] no stack-cache hits");
        assert!(on.cycles < off.cycles, "[{mode:?}] {} cycles on, {} off", on.cycles, off.cycles);
    }
}
