//! Workspace-level security tests: the protection properties the paper's
//! threat model promises (Section 4.2), demonstrated through the public
//! runtime API.

use cheri_simt::{CheriMode, CheriOpts, RunError, SmConfig, TrapCause};
use nocl::{Gpu, Launch, LaunchError};
use nocl_kir::{Elem, Expr, Kernel, KernelBuilder, Mode};

fn cheri_gpu() -> Gpu {
    Gpu::new(SmConfig::small(CheriMode::On(CheriOpts::optimised())), Mode::PureCap)
}

fn expect_cheri_trap(r: Result<cheri_simt::KernelStats, LaunchError>) -> TrapCause {
    match r {
        Err(LaunchError::Run(RunError::Trap(t))) => {
            assert!(matches!(t.cause, TrapCause::Cheri(_)), "not a CHERI trap: {t}");
            t.cause
        }
        other => panic!("expected CHERI trap, got {other:?}"),
    }
}

/// Spatial safety: out-of-bounds reads and writes trap, at both ends.
#[test]
fn out_of_bounds_accesses_trap() {
    for probe in [-1i32, 64, 1_000_000] {
        let mut k = KernelBuilder::new(&format!("oob{probe}"));
        let buf = k.param_ptr("buf", Elem::I32);
        k.if_(k.global_id().eq_(Expr::u32(0)), |k| {
            k.store(&buf, Expr::i32(probe).as_u32(), Expr::i32(1));
        });
        let kernel = k.finish();
        let mut gpu = cheri_gpu();
        let b = gpu.alloc::<i32>(64);
        expect_cheri_trap(gpu.launch(&kernel, Launch::new(1, 8), &[(&b).into()]));
    }
}

/// Referential integrity: data written as integers never becomes a
/// dereferenceable capability, even if it is bit-for-bit identical to one.
#[test]
fn capabilities_cannot_be_forged_from_data() {
    // The kernel copies a capability byte-by-byte through integer loads and
    // stores, then tries to use the copy. The tag cannot follow.
    let mut k = KernelBuilder::new("forge");
    let buf = k.param_ptr("buf", Elem::U32); // 4 words: [cap lo, cap hi, copy lo, copy hi]
    k.if_(k.global_id().eq_(Expr::u32(0)), |k| {
        k.store(&buf, Expr::u32(2), buf.at(Expr::u32(0)));
        k.store(&buf, Expr::u32(3), buf.at(Expr::u32(1)));
    });
    let kernel = k.finish();
    let mut gpu = cheri_gpu();
    let b = gpu.alloc::<u32>(4);
    // Host seeds a genuine capability into words 0-1.
    let target = cheri_cap::CapPipe::almighty().set_addr(b.addr()).set_bounds(16).0;
    gpu.device_mut().memory_mut().write_cap(b.addr(), target.to_mem()).unwrap();
    assert!(gpu.device().memory().read_cap(b.addr()).unwrap().tag());
    gpu.launch(&kernel, Launch::new(1, 8), &[(&b).into()]).expect("copy runs");
    // The copy has identical bits but no tag.
    let copy = gpu.device().memory().read_cap(b.addr() + 8).unwrap();
    assert!(!copy.tag(), "tag must not survive an integer copy");
}

/// Monotonicity: a kernel cannot widen the bounds of a capability it was
/// given.
#[test]
fn bounds_cannot_be_widened() {
    let mut k = KernelBuilder::new("widen");
    let buf = k.param_ptr("buf", Elem::I32);
    let p = k.var_ptr("p", Elem::I32);
    k.if_(k.global_id().eq_(Expr::u32(0)), |k| {
        // Walk past the end and dereference: the bounds went along with the
        // derived pointer, so this traps even through pointer arithmetic.
        let buf2 = buf.clone();
        k.assign(&p, buf2.offset(Expr::u32(100)));
        k.store(&buf, Expr::u32(0), p.at(Expr::u32(0)));
    });
    let kernel = k.finish();
    let mut gpu = cheri_gpu();
    let b = gpu.alloc::<i32>(64);
    expect_cheri_trap(gpu.launch(&kernel, Launch::new(1, 8), &[(&b).into()]));
}

/// Isolation between kernel arguments: the capability for one buffer grants
/// nothing over another, even though both live in the same DRAM.
#[test]
fn buffers_are_isolated() {
    let mut k = KernelBuilder::new("cross");
    let a = k.param_ptr("a", Elem::I32);
    let b = k.param_ptr("b", Elem::I32);
    k.if_(k.global_id().eq_(Expr::u32(0)), |k| {
        // Positive probe: in-bounds works.
        k.store(&a, Expr::u32(0), Expr::i32(1));
        // Escape attempt: index far enough past `a` to land inside `b`.
        k.store(&a, Expr::u32(64), b.at(Expr::u32(0)));
    });
    let kernel = k.finish();
    let mut gpu = cheri_gpu();
    let ba = gpu.alloc::<i32>(16);
    let bb = gpu.alloc_from(&[7i32; 16]);
    expect_cheri_trap(gpu.launch(&kernel, Launch::new(1, 8), &[(&ba).into(), (&bb).into()]));
}

/// The stack is protected too: runaway stack indexing cannot reach the heap
/// (the stack capability covers only the stack arena).
#[test]
fn stack_capability_confines_stack_accesses() {
    // Force stack usage with many variables, then (ab)use one spilled
    // variable normally — the positive case must still work.
    let mut k = KernelBuilder::new("stacky");
    let out = k.param_ptr("out", Elem::I32);
    let vars: Vec<_> = (0..24).map(|i| k.var_i32(&format!("v{i}"))).collect();
    for (i, v) in vars.iter().enumerate() {
        k.assign(v, Expr::i32(i as i32));
    }
    let acc = k.var_i32("acc");
    k.assign(&acc, Expr::i32(0));
    for v in &vars {
        k.assign(&acc, acc.clone() + v.clone());
    }
    k.if_(k.global_id().eq_(Expr::u32(0)), |kb| {
        kb.store(&out, Expr::u32(0), acc.clone());
    });
    let kernel = k.finish();
    let mut gpu = cheri_gpu();
    let b = gpu.alloc::<i32>(4);
    gpu.launch(&kernel, Launch::new(1, 8), &[(&b).into()]).expect("spilling kernel runs");
    assert_eq!(gpu.read(&b)[0], (0..24).sum::<i32>());
}

/// The same overrun kernel in the three safety postures: silent corruption
/// (baseline), CHERI trap, Rust panic — Figure 1 writ large.
#[test]
fn figure1_three_postures() {
    fn overrun() -> Kernel {
        let mut k = KernelBuilder::new("overrun3");
        let buf = k.param_ptr("buf", Elem::I32);
        k.if_(k.global_id().eq_(Expr::u32(0)), |k| {
            // Index 16: one 64-byte allocation granule past the end of an
            // 8-element buffer - inside the neighbouring allocation.
            k.store(&buf, Expr::u32(16), Expr::i32(0x41));
        });
        k.finish()
    }
    // Baseline: silently corrupts the neighbour allocation.
    let mut gpu = Gpu::new(SmConfig::small(CheriMode::Off), Mode::Baseline);
    let a = gpu.alloc::<i32>(8);
    let neighbour = gpu.alloc_from(&[0i32; 16]);
    gpu.launch(&overrun(), Launch::new(1, 8), &[(&a).into()]).expect("baseline is oblivious");
    assert!(gpu.read(&neighbour).contains(&0x41));

    // CHERI: trap.
    let mut gpu = cheri_gpu();
    let a = gpu.alloc::<i32>(8);
    expect_cheri_trap(gpu.launch(&overrun(), Launch::new(1, 8), &[(&a).into()]));

    // Rust: panic.
    let mut gpu = Gpu::new(SmConfig::small(CheriMode::Off), Mode::RustChecked);
    let a = gpu.alloc::<i32>(8);
    match gpu.launch(&overrun(), Launch::new(1, 8), &[(&a).into()]) {
        Err(LaunchError::Run(RunError::Trap(t))) => {
            assert!(matches!(t.cause, TrapCause::Environment))
        }
        other => panic!("{other:?}"),
    }
}
