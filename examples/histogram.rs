//! The paper's Figure 3 — the NoCL histogram kernel — run in all four
//! compilation modes with a per-mode cost report.
//!
//! ```text
//! cargo run --release --example histogram
//! ```

use cheri_simt::{CheriMode, CheriOpts, SmConfig};
use nocl::{Gpu, Launch};
use nocl_kir::{Elem, Expr, Kernel, KernelBuilder, Mode};

/// Figure 3: shared-memory bins, barriers between the phases, `atomicAdd`.
fn histogram_kernel() -> Kernel {
    let mut k = KernelBuilder::new("histogram");
    let len = k.param_u32("len");
    let input = k.param_ptr("in", Elem::U8);
    let out = k.param_ptr("out", Elem::I32);
    let bins = k.shared("bins", Elem::I32, 256);
    let i = k.var_u32("i");
    // Initialise bins
    k.for_(i.clone(), k.thread_idx(), Expr::u32(256), k.block_dim(), |k| {
        k.store(&bins, i.clone(), Expr::i32(0));
    });
    k.barrier();
    // Update bins
    k.for_(i.clone(), k.thread_idx(), len, k.block_dim(), |k| {
        k.atomic_add(&bins, input.at(i.clone()), Expr::i32(1));
    });
    k.barrier();
    // Write bins to global memory
    k.for_(i.clone(), k.thread_idx(), Expr::u32(256), k.block_dim(), |k| {
        k.store(&out, i.clone(), bins.at(i.clone()));
    });
    k.finish()
}

fn main() {
    let n = 65_536u32;
    let input: Vec<u8> = (0..n).map(|i| (i * 37 % 251) as u8).collect();
    let mut expect = vec![0i32; 256];
    for &b in &input {
        expect[b as usize] += 1;
    }

    println!("{:<14} {:>12} {:>10} {:>8} {:>10}", "mode", "cycles", "instrs", "IPC", "barriers");
    let mut baseline_cycles = None;
    for (name, cheri, mode) in [
        ("baseline", CheriMode::Off, Mode::Baseline),
        ("cheri-opt", CheriMode::On(CheriOpts::optimised()), Mode::PureCap),
        ("rust-checked", CheriMode::Off, Mode::RustChecked),
        ("rust-full", CheriMode::Off, Mode::RustFull),
    ] {
        let mut gpu = Gpu::new(SmConfig::with_geometry(16, 32, cheri), mode);
        let d_in = gpu.alloc_from(&input);
        let d_out = gpu.alloc::<i32>(256);
        // One block spanning the whole SM, as in the paper.
        let bd = gpu.device().config().threads();
        let stats = gpu
            .launch(
                &histogram_kernel(),
                Launch::new(1, bd),
                &[n.into(), (&d_in).into(), (&d_out).into()],
            )
            .expect("launch");
        assert_eq!(gpu.read(&d_out), expect, "{name}: wrong histogram");
        let base = *baseline_cycles.get_or_insert(stats.cycles);
        println!(
            "{:<14} {:>12} {:>10} {:>8.2} {:>10}   ({:+.1}% vs baseline)",
            name,
            stats.cycles,
            stats.instrs,
            stats.ipc(),
            stats.barriers,
            (stats.cycles as f64 / base as f64 - 1.0) * 100.0
        );
    }
    println!("\nall four modes produced the correct 256-bin histogram");
}
