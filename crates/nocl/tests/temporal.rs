//! Temporal safety via revocation sweeps — the future-work direction the
//! paper motivates: because tags make capabilities precisely
//! distinguishable from data, the host can revoke every dangling reference
//! into a freed buffer, turning use-after-free into a deterministic trap.

use cheri_simt::{CheriMode, CheriOpts, RunError, SmConfig, TrapCause};
use nocl::{Gpu, Launch};
use nocl_kir::{Elem, Expr, Kernel, KernelBuilder, Mode};

fn cheri_cfg() -> SmConfig {
    SmConfig::small(CheriMode::On(CheriOpts::optimised()))
}

fn cheri_gpu() -> Gpu {
    Gpu::new(cheri_cfg(), Mode::PureCap)
}

/// Dereference the first argument: used before and after revocation.
fn use_kernel() -> Kernel {
    let mut k = KernelBuilder::new("use_after");
    let data = k.param_ptr("data", Elem::I32);
    let out = k.param_ptr("out", Elem::I32);
    k.if_(k.global_id().eq_(Expr::u32(0)), |k| {
        k.store(&out, Expr::u32(0), data.at(Expr::u32(0)));
    });
    k.finish()
}

/// Host-level sweep: capabilities stored in device memory lose their tags
/// when their referent is freed — in the one DRAM every SM shares, however
/// many SMs the device has.
#[test]
fn revocation_clears_stashed_capabilities() {
    for sms in [1, 2] {
        let mut gpu = Gpu::with_sms(cheri_cfg(), Mode::PureCap, sms);
        let data = gpu.alloc_from(&[42i32; 16]);
        let table = gpu.alloc::<i32>(16); // 64 bytes of pointer-table space

        // Host (or a kernel via CSC) stores two capabilities into the
        // table: one pointing into `data`, one pointing elsewhere.
        let cap_data = cheri_cap::CapPipe::almighty().set_addr(data.addr()).set_bounds(64).0;
        let cap_other = cheri_cap::CapPipe::almighty().set_addr(table.addr()).set_bounds(64).0;
        let mem = gpu.device_mut().memory_mut();
        mem.write_cap(table.addr(), cap_data.to_mem()).unwrap();
        mem.write_cap(table.addr() + 8, cap_other.to_mem()).unwrap();
        assert!(mem.read_cap(table.addr()).unwrap().tag());
        assert!(mem.read_cap(table.addr() + 8).unwrap().tag());

        // Free `data`: the sweep revokes exactly the capability into it.
        let revoked = gpu.free(data);
        assert_eq!(revoked, 1, "sms={sms}");
        let mem = gpu.device().memory();
        assert!(!mem.read_cap(table.addr()).unwrap().tag(), "sms={sms}: dangling cap revoked");
        assert!(mem.read_cap(table.addr() + 8).unwrap().tag(), "sms={sms}: live cap untouched");
    }
}

/// End to end: a kernel that dereferences a revoked argument traps with a
/// tag violation — use-after-free caught deterministically.
#[test]
fn use_after_free_traps() {
    let mut gpu = cheri_gpu();
    let data = gpu.alloc_from(&[7i32; 16]);
    let out = gpu.alloc::<i32>(4);

    // Before the free: the access works.
    gpu.launch(&use_kernel(), Launch::new(1, 8), &[(&data).into(), (&out).into()])
        .expect("live buffer reads fine");
    assert_eq!(gpu.read(&out)[0], 7);

    // Free `data`, then marshal the same (now dangling) buffer again: the
    // argument capability the runtime writes is fresh, so emulate the
    // dangling reference by reusing the *previous* argument block: revoke
    // sweeps the argument block too, clearing the stale capability's tag.
    let launch = Launch::new(1, 8);
    let kernel = use_kernel();
    // Write args once (creates tagged caps in the arg block), then revoke,
    // then run the same program without re-marshalling.
    gpu.launch(&kernel, launch, &[(&data).into(), (&out).into()]).unwrap();
    let revoked = gpu.free(data);
    assert!(revoked >= 1, "the argument block held a capability into data");
    // Re-run the resident program against the swept argument block.
    gpu.device_mut().reset();
    match gpu.device_mut().run(1_000_000) {
        Err(RunError::Trap(t)) => {
            assert_eq!(t.cause, TrapCause::Cheri(cheri_cap::CapException::TagViolation));
        }
        other => panic!("use-after-free must trap, got {other:?}"),
    }
}

/// The sweep respects bounds precision: freeing one buffer does not revoke
/// capabilities to its neighbours.
#[test]
fn revocation_is_precise() {
    let mut gpu = cheri_gpu();
    let a = gpu.alloc::<i32>(16);
    let b = gpu.alloc::<i32>(16);
    let table = gpu.alloc::<i32>(16);
    // Each buffer holds 16 four-byte elements.
    let cap = |buf: &nocl::Buffer<i32>| {
        cheri_cap::CapPipe::almighty().set_addr(buf.addr()).set_bounds(64).0.to_mem()
    };
    gpu.device_mut().memory_mut().write_cap(table.addr(), cap(&a)).unwrap();
    gpu.device_mut().memory_mut().write_cap(table.addr() + 8, cap(&b)).unwrap();
    assert_eq!(gpu.free(a), 1);
    assert!(gpu.device().memory().read_cap(table.addr() + 8).unwrap().tag(), "b's cap survives");
    assert_eq!(gpu.free(b), 1);
}

/// The sweep is a no-op in baseline mode: there are no tags to revoke.
#[test]
fn revocation_is_noop_without_cheri() {
    let mut gpu = Gpu::new(SmConfig::small(CheriMode::Off), Mode::Baseline);
    let data = gpu.alloc_from(&[1i32; 16]);
    assert_eq!(gpu.free(data), 0);
}
