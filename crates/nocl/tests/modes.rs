//! End-to-end tests: kernels compiled in all four modes must agree with the
//! host reference, and the safety modes must catch what they promise.

use cheri_simt::{CheriMode, CheriOpts, RunError, SmConfig, TrapCause};
use nocl::{Arg, Gpu, Launch, LaunchError};
use nocl_kir::{Elem, Expr, Kernel, KernelBuilder, Mode};

fn gpu_for(mode: Mode) -> Gpu {
    let cheri =
        if mode.needs_cheri() { CheriMode::On(CheriOpts::optimised()) } else { CheriMode::Off };
    Gpu::new(SmConfig::small(cheri), mode)
}

const ALL_MODES: [Mode; 4] = [Mode::Baseline, Mode::PureCap, Mode::RustChecked, Mode::RustFull];

fn vecadd_kernel() -> Kernel {
    let mut k = KernelBuilder::new("vecadd");
    let len = k.param_u32("len");
    let a = k.param_ptr("a", Elem::I32);
    let b = k.param_ptr("b", Elem::I32);
    let c = k.param_ptr("c", Elem::I32);
    let i = k.var_u32("i");
    k.for_(i.clone(), k.global_id(), len, k.global_threads(), |k| {
        k.store(&c, i.clone(), a.at(i.clone()) + b.at(i.clone()));
    });
    k.finish()
}

#[test]
fn vecadd_agrees_across_modes() {
    let n = 500u32;
    let xs: Vec<i32> = (0..n as i32).collect();
    let ys: Vec<i32> = (0..n as i32).map(|v| v * 3 + 1).collect();
    let want: Vec<i32> = xs.iter().zip(&ys).map(|(x, y)| x + y).collect();
    for mode in ALL_MODES {
        let mut gpu = gpu_for(mode);
        let a = gpu.alloc_from(&xs);
        let b = gpu.alloc_from(&ys);
        let c = gpu.alloc::<i32>(n);
        gpu.launch(
            &vecadd_kernel(),
            Launch::new(4, 16),
            &[n.into(), (&a).into(), (&b).into(), (&c).into()],
        )
        .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        assert_eq!(gpu.read(&c), want, "{mode:?}");
    }
}

#[test]
fn shared_memory_reduction_all_modes() {
    // Block-level tree reduction over shared memory, then atomicAdd of the
    // block's partial sum into out[0].
    let mut k = KernelBuilder::new("reduce_test");
    let len = k.param_u32("len");
    let input = k.param_ptr("in", Elem::I32);
    let out = k.param_ptr("out", Elem::I32);
    let tile = k.shared("tile", Elem::I32, 16); // blockDim = 16
    let i = k.var_u32("i");
    let acc = k.var_i32("acc");
    k.assign(&acc, Expr::i32(0));
    k.for_(i.clone(), k.global_id(), len, k.global_threads(), |k| {
        k.assign(&acc, acc.clone() + input.at(i.clone()));
    });
    k.store(&tile, k.thread_idx(), acc.clone());
    k.barrier();
    let s = k.var_u32("s");
    k.assign(&s, Expr::u32(8));
    k.while_(s.clone().gt(Expr::u32(0)), |k| {
        k.if_(k.thread_idx().lt(s.clone()), |k| {
            k.store(
                &tile,
                k.thread_idx(),
                tile.at(k.thread_idx()) + tile.at(k.thread_idx() + s.clone()),
            );
        });
        k.barrier();
        k.assign(&s, s.clone() >> Expr::u32(1));
    });
    k.if_(k.thread_idx().eq_(Expr::u32(0)), |k| {
        k.atomic_add(&out, Expr::u32(0), tile.at(Expr::u32(0)));
    });
    let kernel = k.finish();

    let n = 300u32;
    let xs: Vec<i32> = (0..n as i32).map(|v| v % 17 - 5).collect();
    let want: i32 = xs.iter().sum();
    for mode in ALL_MODES {
        let mut gpu = gpu_for(mode);
        let a = gpu.alloc_from(&xs);
        let o = gpu.alloc_from(&[0i32]);
        gpu.launch(&kernel, Launch::new(3, 16), &[n.into(), (&a).into(), (&o).into()])
            .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        assert_eq!(gpu.read(&o)[0], want, "{mode:?}");
    }
}

#[test]
fn pointer_select_blkstencil_pattern() {
    // The BlkStencil-style pattern: a pointer-typed local selected between a
    // global and a shared buffer — the source of capability-metadata
    // divergence in Section 4.3.
    let mut k = KernelBuilder::new("ptrsel");
    let g = k.param_ptr("g", Elem::I32);
    let out = k.param_ptr("out", Elem::I32);
    let sh = k.shared("sh", Elem::I32, 16);
    let p = k.var_ptr("p", Elem::I32);
    k.store(&sh, k.thread_idx(), (k.thread_idx() * Expr::u32(2)).as_i32());
    k.barrier();
    // Even threads read global, odd threads read shared.
    k.if_else(
        (k.thread_idx() & Expr::u32(1)).eq_(Expr::u32(0)),
        |k| {
            let g = g.clone();
            k.assign(&p, g.offset(k.thread_idx()));
        },
        |k| {
            let sh = sh.clone();
            k.assign(&p, sh.offset(k.thread_idx()));
        },
    );
    k.store(&out, k.thread_idx(), p.at(Expr::u32(0)));
    let kernel = k.finish();

    for mode in ALL_MODES {
        let mut gpu = gpu_for(mode);
        let gbuf: Vec<i32> = (0..16).map(|v| 1000 + v).collect();
        let g = gpu.alloc_from(&gbuf);
        let o = gpu.alloc::<i32>(16);
        gpu.launch(&kernel, Launch::new(1, 16), &[(&g).into(), (&o).into()])
            .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        let got = gpu.read(&o);
        for (t, &g) in got.iter().enumerate().take(16) {
            let want = if t % 2 == 0 { 1000 + t as i32 } else { 2 * t as i32 };
            assert_eq!(g, want, "{mode:?} thread {t}");
        }
    }
}

#[test]
fn float_kernel_all_modes() {
    // out[i] = sqrt(a[i]) * 2.0 + 1.0 (exercises SFU + float path).
    let mut k = KernelBuilder::new("fkern");
    let len = k.param_u32("len");
    let a = k.param_ptr("a", Elem::F32);
    let out = k.param_ptr("out", Elem::F32);
    let i = k.var_u32("i");
    k.for_(i.clone(), k.global_id(), len, k.global_threads(), |k| {
        k.store(&out, i.clone(), a.at(i.clone()).sqrt() * Expr::f32(2.0) + Expr::f32(1.0));
    });
    let kernel = k.finish();
    let xs: Vec<f32> = (0..100).map(|v| v as f32).collect();
    for mode in ALL_MODES {
        let mut gpu = gpu_for(mode);
        let a = gpu.alloc_from(&xs);
        let o = gpu.alloc::<f32>(100);
        gpu.launch(&kernel, Launch::new(2, 32), &[100u32.into(), (&a).into(), (&o).into()])
            .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        let got = gpu.read(&o);
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(got[i], x.sqrt() * 2.0 + 1.0, "{mode:?} [{i}]");
        }
    }
}

/// A kernel with a deliberate off-by-`extra` overrun of its output buffer.
fn overrun_kernel() -> Kernel {
    let mut k = KernelBuilder::new("overrun");
    let len = k.param_u32("len");
    let out = k.param_ptr("out", Elem::I32);
    let i = k.var_u32("i");
    // Writes indices [gid, len + 64) instead of [gid, len).
    k.for_(i.clone(), k.global_id(), len + Expr::u32(64), k.global_threads(), |k| {
        k.store(&out, i.clone(), Expr::i32(1));
    });
    k.finish()
}

#[test]
fn overrun_is_silent_in_baseline_but_caught_by_cheri_and_rust() {
    let n = 128u32;
    // Baseline: the overrun silently clobbers the *next* allocation.
    let mut gpu = gpu_for(Mode::Baseline);
    let out = gpu.alloc::<i32>(n);
    let victim = gpu.alloc_from(&vec![7i32; 64]);
    gpu.launch(&overrun_kernel(), Launch::new(2, 32), &[n.into(), (&out).into()]).unwrap();
    assert!(gpu.read(&victim).contains(&1), "baseline corrupts the neighbour");

    // PureCap: hardware bounds violation.
    let mut gpu = gpu_for(Mode::PureCap);
    let out = gpu.alloc::<i32>(n);
    match gpu.launch(&overrun_kernel(), Launch::new(2, 32), &[n.into(), (&out).into()]) {
        Err(LaunchError::Run(RunError::Trap(t))) => {
            assert!(matches!(t.cause, TrapCause::Cheri(_)), "{t}");
        }
        other => panic!("CHERI must trap: {other:?}"),
    }

    // RustChecked: software bounds check panics (ebreak).
    let mut gpu = gpu_for(Mode::RustChecked);
    let out = gpu.alloc::<i32>(n);
    match gpu.launch(&overrun_kernel(), Launch::new(2, 32), &[n.into(), (&out).into()]) {
        Err(LaunchError::Run(RunError::Trap(t))) => {
            assert!(matches!(t.cause, TrapCause::Environment), "{t}");
        }
        other => panic!("Rust bounds check must fire: {other:?}"),
    }
}

#[test]
fn rust_checking_costs_instructions() {
    let n = 512u32;
    let xs: Vec<i32> = (0..n as i32).collect();
    let mut counts = Vec::new();
    for mode in [Mode::Baseline, Mode::RustChecked, Mode::RustFull] {
        let mut gpu = gpu_for(mode);
        let a = gpu.alloc_from(&xs);
        let b = gpu.alloc_from(&xs);
        let c = gpu.alloc::<i32>(n);
        let stats = gpu
            .launch(
                &vecadd_kernel(),
                Launch::new(4, 16),
                &[n.into(), (&a).into(), (&b).into(), (&c).into()],
            )
            .unwrap();
        counts.push(stats.instrs);
    }
    assert!(counts[1] > counts[0], "bounds checks add instructions: {counts:?}");
    assert!(counts[2] > counts[1], "RustFull adds more: {counts:?}");
}

#[test]
fn purecap_kernels_report_cheri_histogram() {
    let n = 256u32;
    let xs: Vec<i32> = (0..n as i32).collect();
    let mut gpu = gpu_for(Mode::PureCap);
    let a = gpu.alloc_from(&xs);
    let b = gpu.alloc_from(&xs);
    let c = gpu.alloc::<i32>(n);
    let stats = gpu
        .launch(
            &vecadd_kernel(),
            Launch::new(4, 16),
            &[n.into(), (&a).into(), (&b).into(), (&c).into()],
        )
        .unwrap();
    assert!(stats.cheri_histogram.contains_key("CLW"));
    assert!(stats.cheri_histogram.contains_key("CSW"));
    assert!(stats.cheri_histogram.contains_key("CLC"), "argument capabilities via CLC");
    assert!(stats.cheri_histogram.contains_key("CIncOffset"));
    // Uniform argument capabilities: metadata fully compressed.
    assert_eq!(stats.peak_meta_vrf_resident, 0);
}

#[test]
fn launch_validation() {
    let mut gpu = gpu_for(Mode::Baseline);
    let kernel = vecadd_kernel();
    // Wrong argument count.
    match gpu.launch(&kernel, Launch::new(1, 16), &[Arg::Scalar(1)]) {
        Err(LaunchError::Config(_)) => {}
        other => panic!("{other:?}"),
    }
    // Block does not tile warps (SM has 8 lanes).
    let a = gpu.alloc::<i32>(4);
    match gpu.launch(
        &kernel,
        Launch::new(1, 12),
        &[4u32.into(), (&a).into(), (&a).into(), (&a).into()],
    ) {
        Err(LaunchError::Config(_)) => {}
        other => panic!("{other:?}"),
    }
    // Scalar passed where a buffer is expected.
    match gpu.launch(
        &kernel,
        Launch::new(1, 16),
        &[4u32.into(), Arg::Scalar(0), (&a).into(), (&a).into()],
    ) {
        Err(LaunchError::Config(_)) => {}
        other => panic!("{other:?}"),
    }
}

/// A block that tiles the warps but not the SM (3 warps of the small SM's
/// 8) is a configuration error, not a panic.
#[test]
fn block_must_tile_the_sm() {
    let mut gpu = gpu_for(Mode::Baseline);
    let a = gpu.alloc::<i32>(24);
    let args = [24u32.into(), (&a).into(), (&a).into(), (&a).into()];
    match gpu.launch(&vecadd_kernel(), Launch::new(1, 24), &args) {
        Err(LaunchError::Config(msg)) => assert!(msg.contains("tile the SM"), "{msg}"),
        other => panic!("{other:?}"),
    }
}

/// An allocation whose byte size wraps 32 bits does not alias the heap.
#[test]
#[should_panic(expected = "device heap exhausted")]
fn oversized_alloc_exhausts_the_heap() {
    let mut gpu = gpu_for(Mode::Baseline);
    gpu.alloc::<i32>(0x4000_0001);
}

#[test]
fn byte_and_half_buffers() {
    // Histogram-style byte loads: out[i] = in[i] (u8 -> i32 widening).
    let mut k = KernelBuilder::new("widen");
    let len = k.param_u32("len");
    let input = k.param_ptr("in", Elem::U8);
    let out = k.param_ptr("out", Elem::I32);
    let i = k.var_u32("i");
    k.for_(i.clone(), k.global_id(), len, k.global_threads(), |k| {
        k.store(&out, i.clone(), input.at(i.clone()).as_i32());
    });
    let kernel = k.finish();
    let xs: Vec<u8> = (0..=255).collect();
    for mode in ALL_MODES {
        let mut gpu = gpu_for(mode);
        let a = gpu.alloc_from(&xs);
        let o = gpu.alloc::<i32>(256);
        gpu.launch(&kernel, Launch::new(4, 16), &[256u32.into(), (&a).into(), (&o).into()])
            .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        let got = gpu.read(&o);
        assert!(got.iter().enumerate().all(|(i, &v)| v == i as i32), "{mode:?}");
    }
}
