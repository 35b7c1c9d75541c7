//! The paper's Figure 1, live: a buffer overread that leaks a neighbouring
//! secret on an unprotected GPU, trapped deterministically by CHERI, and
//! panicked by the Rust port's software bounds check.
//!
//! ```text
//! cargo run --release --example overflow_demo
//! ```

use cheri_simt::trace::{RingSink, TraceEvent};
use cheri_simt::{CheriMode, CheriOpts, RunError, SmConfig, TrapCause};
use nocl::{Gpu, Launch, LaunchError};
use nocl_kir::{Elem, Expr, Kernel, KernelBuilder, Mode};

/// `out[0] = data[1]` — but `data` has exactly one element. The element
/// after it in device memory belongs to someone else.
fn overread_kernel() -> Kernel {
    let mut kb = KernelBuilder::new("overread");
    let data = kb.param_ptr("data", Elem::I32);
    let out = kb.param_ptr("out", Elem::I32);
    kb.if_(kb.global_id().eq_(Expr::u32(0)), |k| {
        k.store(&out, Expr::u32(0), data.at(Expr::u32(1))); // ptr[1]: overread
    });
    kb.finish()
}

fn main() {
    const SECRET: i32 = 0xC0DE;

    // Figure 1's locals `data` and `secret` are adjacent words; emulate
    // that layout by placing the secret in the word right after `data`.
    fn plant_secret(gpu: &mut Gpu, data_addr: u32) {
        gpu.device_mut().memory_mut().write(data_addr + 4, SECRET as u32, 4).unwrap();
    }

    // --- Baseline: no protection ---------------------------------------
    let mut gpu = Gpu::new(SmConfig::small(CheriMode::Off), Mode::Baseline);
    let data = gpu.alloc_from(&[0xDA1A]); // int data = 0xda1a;
    let out = gpu.alloc_from(&[0i32]);
    plant_secret(&mut gpu, data.addr()); // int secret = 0xc0de;
    gpu.launch(&overread_kernel(), Launch::new(1, 8), &[(&data).into(), (&out).into()])
        .expect("baseline runs without complaint");
    let leaked = gpu.read(&out)[0];
    println!("baseline GPU:   overread silently returns {leaked:#x} (the secret!)");
    assert_eq!(leaked, SECRET);

    // --- CHERI: deterministic hardware trap ----------------------------
    let mut gpu = Gpu::new(SmConfig::small(CheriMode::On(CheriOpts::optimised())), Mode::PureCap);
    let data = gpu.alloc_from(&[0xDA1A]);
    let out = gpu.alloc_from(&[0i32]);
    plant_secret(&mut gpu, data.addr());
    // Keep the last few events in a bounded ring: on a trap, the tail of
    // the issue stream shows how the kernel got there.
    gpu.sm_mut().set_sink(Box::new(RingSink::new(16)));
    match gpu.launch(&overread_kernel(), Launch::new(1, 8), &[(&data).into(), (&out).into()]) {
        Err(LaunchError::Run(RunError::Trap(t))) => {
            assert!(matches!(t.cause, TrapCause::Cheri(_)));
            println!("CHERI GPU:      {t}");
            println!("                instruction trace leading to the trap:");
            let sink = gpu.sm_mut().take_sink().expect("sink was attached");
            let ring = sink.as_any().downcast_ref::<RingSink>().expect("RingSink");
            for e in ring.events() {
                if let TraceEvent::Issue { cycle, warp, pc, mnemonic, .. } = e {
                    println!("                  [{cycle:>8}] w{warp:02} {pc:08x}: {mnemonic}");
                }
            }
        }
        other => panic!("expected a CHERI trap, got {other:?}"),
    }

    // --- Rust port: software bounds check ------------------------------
    let mut gpu = Gpu::new(SmConfig::small(CheriMode::Off), Mode::RustChecked);
    let data = gpu.alloc_from(&[0xDA1A]);
    let out = gpu.alloc_from(&[0i32]);
    match gpu.launch(&overread_kernel(), Launch::new(1, 8), &[(&data).into(), (&out).into()]) {
        Err(LaunchError::Run(RunError::Trap(t))) => {
            assert!(matches!(t.cause, TrapCause::Environment));
            println!("Rust port:      panic at pc {:#x} (index out of bounds)", t.pc);
        }
        other => panic!("expected a bounds-check panic, got {other:?}"),
    }

    println!("\nSame kernel, three worlds: leak / trap / panic.");
}
