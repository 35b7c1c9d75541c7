//! Temporal safety beyond the paper's evaluation: `Gpu::free` runs a
//! Cornucopia-style revocation sweep, so a dangling capability dies with
//! its buffer and the next dereference traps deterministically.
//!
//! ```text
//! cargo run --release --example use_after_free
//! ```

use cheri_simt::{CheriMode, CheriOpts, RunError, SmConfig, TrapCause};
use nocl::{Gpu, Launch};
use nocl_kir::{Elem, Expr, KernelBuilder, Mode};

fn main() {
    let mut gpu = Gpu::new(SmConfig::small(CheriMode::On(CheriOpts::optimised())), Mode::PureCap);

    // out[0] = data[0]
    let mut kb = KernelBuilder::new("reader");
    let data = kb.param_ptr("data", Elem::I32);
    let out = kb.param_ptr("out", Elem::I32);
    kb.if_(kb.global_id().eq_(Expr::u32(0)), |k| {
        k.store(&out, Expr::u32(0), data.at(Expr::u32(0)));
    });
    let kernel = kb.finish();

    let buf = gpu.alloc_from(&[1234i32; 16]);
    let out = gpu.alloc::<i32>(4);

    // While the buffer is live, the kernel reads it fine.
    gpu.launch(&kernel, Launch::new(1, 8), &[(&buf).into(), (&out).into()]).expect("live read");
    println!("live buffer:  kernel read {}", gpu.read(&out)[0]);

    // Free the buffer: the revocation sweep finds every capability in
    // device memory pointing into it (here: the one in the kernel argument
    // block) and clears its tag.
    let revoked = gpu.free(buf);
    println!(
        "free(buf):    revocation sweep cleared {revoked} dangling capabilit{}",
        if revoked == 1 { "y" } else { "ies" }
    );

    // Re-running the resident kernel against the swept argument block is a
    // use-after-free — and a deterministic tag-violation trap.
    gpu.device_mut().reset();
    match gpu.device_mut().run(1_000_000) {
        Err(RunError::Trap(t)) => {
            assert_eq!(t.cause, TrapCause::Cheri(cheri_cap::CapException::TagViolation));
            println!("after free:   {t}");
        }
        other => panic!("use-after-free must trap, got {other:?}"),
    }
    println!("\nuse-after-free is impossible to exploit: the capability is dead.");
}
