//! The bulk array combinators, verified against host folds in every
//! compilation mode (Section 5.1's safe-by-construction programming model).

use cheri_simt::{CheriMode, CheriOpts, SmConfig};
use nocl::Gpu;
use nocl_kir::{Expr, Mode};

const MODES: [Mode; 5] =
    [Mode::Baseline, Mode::PureCap, Mode::RustChecked, Mode::RustFull, Mode::GpuShield];

fn gpu_for(mode: Mode) -> Gpu {
    let cheri =
        if mode.needs_cheri() { CheriMode::On(CheriOpts::optimised()) } else { CheriMode::Off };
    Gpu::new(SmConfig::small(cheri), mode)
}

#[test]
fn iota_fill_map_zip() {
    for mode in MODES {
        let mut gpu = gpu_for(mode);
        let xs = gpu.iota(300).unwrap();
        assert_eq!(gpu.read(&xs)[299], 299, "{mode:?}");

        let ones = gpu.fill(300, 1u32).unwrap();
        assert!(gpu.read(&ones).iter().all(|&v| v == 1), "{mode:?}");

        let tripled = gpu.map("triple", &xs, |x| x * Expr::u32(3)).unwrap();
        assert_eq!(gpu.read(&tripled)[100], 300, "{mode:?}");

        let summed = gpu.zip_map("addone", &tripled, &ones, |a, b| a + b).unwrap();
        assert_eq!(gpu.read(&summed)[100], 301, "{mode:?}");
    }
}

#[test]
fn reduce_sum_min_max() {
    for mode in MODES {
        let mut gpu = gpu_for(mode);
        let data: Vec<i32> = (0..500).map(|v| (v * 7919) % 1000 - 500).collect();
        let buf = gpu.alloc_from(&data);
        let sum = gpu.reduce("sum", &buf, 0i32, |a, b| a + b).unwrap();
        assert_eq!(sum, data.iter().sum::<i32>(), "{mode:?}");
        let min = gpu.reduce("min", &buf, i32::MAX, |a, b| a.min(b)).unwrap();
        assert_eq!(min, *data.iter().min().unwrap(), "{mode:?}");
        let max = gpu.reduce("max", &buf, i32::MIN, |a, b| a.max(b)).unwrap();
        assert_eq!(max, *data.iter().max().unwrap(), "{mode:?}");
    }
}

#[test]
fn float_reduce() {
    let mut gpu = gpu_for(Mode::PureCap);
    let data: Vec<f32> = (0..256).map(|v| v as f32 / 16.0).collect();
    let buf = gpu.alloc_from(&data);
    let sum = gpu.reduce("fsum", &buf, 0.0f32, |a, b| a + b).unwrap();
    let want: f32 = data.iter().sum();
    assert!((sum - want).abs() < 1e-2, "{sum} vs {want}");
}

#[test]
fn multi_block_scan() {
    for mode in MODES {
        let mut gpu = gpu_for(mode);
        // Length chosen to span several blocks with a ragged tail.
        let data: Vec<u32> = (0..533).map(|v| (v * 31) % 97).collect();
        let buf = gpu.alloc_from(&data);
        let scanned = gpu.scan("psum", &buf, 0u32, |a, b| a + b).unwrap();
        let got = gpu.read(&scanned);
        let mut acc = 0u32;
        for (i, &x) in data.iter().enumerate() {
            acc += x;
            assert_eq!(got[i], acc, "{mode:?} at {i}");
        }
    }
}

#[test]
fn scan_with_non_commutative_shape_is_left_folded() {
    // max is associative and idempotent: a running maximum is a good probe
    // that the scan really is a prefix operation, not a permutation.
    let mut gpu = gpu_for(Mode::PureCap);
    let data: Vec<u32> = vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3];
    let buf = gpu.alloc_from(&data);
    let scanned = gpu.scan("pmax", &buf, 0u32, |a, b| a.max(b)).unwrap();
    let got = gpu.read(&scanned);
    let mut m = 0;
    for (i, &x) in data.iter().enumerate() {
        m = m.max(x);
        assert_eq!(got[i], m, "at {i}");
    }
}

#[test]
fn combinator_pipeline_composes() {
    // dot(xs, ys) as zip_map + reduce, the classic two-liner.
    let mut gpu = gpu_for(Mode::PureCap);
    let xs: Vec<i32> = (0..200).map(|v| v % 13 - 6).collect();
    let ys: Vec<i32> = (0..200).map(|v| v % 7 - 3).collect();
    let dx = gpu.alloc_from(&xs);
    let dy = gpu.alloc_from(&ys);
    let prod = gpu.zip_map("mul", &dx, &dy, |a, b| a * b).unwrap();
    let dot = gpu.reduce("dotsum", &prod, 0i32, |a, b| a + b).unwrap();
    let want: i32 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
    assert_eq!(dot, want);
}

#[test]
fn zip_map_length_mismatch_is_rejected() {
    let mut gpu = gpu_for(Mode::Baseline);
    let a = gpu.alloc::<u32>(10);
    let b = gpu.alloc::<u32>(11);
    assert!(gpu.zip_map("bad", &a, &b, |x, y| x + y).is_err());
}

#[test]
fn same_name_different_kernels_do_not_share_a_compiled_program() {
    for mode in MODES {
        let mut gpu = gpu_for(mode);
        let xs = gpu.alloc_from(&[1u32, 2, 3, 4]);
        let doubled = gpu.map("f", &xs, |x| x * Expr::u32(2)).unwrap();
        assert_eq!(gpu.read(&doubled), [2, 4, 6, 8], "{mode:?}");
        let shifted = gpu.map("f", &xs, |x| x + Expr::u32(100)).unwrap();
        assert_eq!(gpu.read(&shifted), [101, 102, 103, 104], "{mode:?}");
        let sum = gpu.reduce("s", &xs, 0u32, |a, b| a + b).unwrap();
        assert_eq!(sum, 10, "{mode:?}");
        let product = gpu.reduce("s", &xs, 1u32, |a, b| a * b).unwrap();
        assert_eq!(product, 24, "{mode:?}");
    }
}
