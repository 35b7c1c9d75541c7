//! StrStencil: stripe-based 1D stencil reading directly from global memory.

use crate::util::*;
use crate::{BenchError, NoclBench, Scale};
use cheri_simt::KernelStats;
use nocl::{Gpu, Launch};
use nocl_kir::{Elem, Expr, Kernel, KernelBuilder};

/// Three-point stencil without shared staging: each thread strides over the
/// array, reading its three neighbours from global memory (the coalescing
/// unit merges the overlap).
pub(super) struct StrStencil;

pub(crate) fn kernel() -> Kernel {
    let mut k = KernelBuilder::new("StrStencil");
    let n = k.param_u32("n");
    let input = k.param_ptr("in", Elem::I32); // n + 2 elements
    let out = k.param_ptr("out", Elem::I32);
    let i = k.var_u32("i");
    k.for_(i.clone(), k.global_id(), n, k.global_threads(), |k| {
        let s = input.at(i.clone())
            + input.at(i.clone() + Expr::u32(1))
            + input.at(i.clone() + Expr::u32(2));
        k.store(&out, i.clone(), s);
    });
    k.finish()
}

impl NoclBench for StrStencil {
    fn name(&self) -> &'static str {
        "StrStencil"
    }

    fn description(&self) -> &'static str {
        "Stripe-based stencil computation"
    }

    fn origin(&self) -> &'static str {
        "In house"
    }

    fn example_kernel(&self) -> nocl_kir::Kernel {
        kernel()
    }

    fn run(&self, gpu: &mut Gpu, scale: Scale) -> Result<KernelStats, BenchError> {
        let n: u32 = match scale {
            Scale::Test => 2_000,
            Scale::Paper => 65_536,
        };
        let xs = rand_i32s(0x57E2, n as usize + 2);
        let want: Vec<i32> = (0..n as usize).map(|i| xs[i] + xs[i + 1] + xs[i + 2]).collect();

        let input = gpu.alloc_from(&xs);
        let out = gpu.alloc::<i32>(n);
        let bd = block_dim(gpu, 256);
        let grid = (n / bd).clamp(1, 32);
        let stats = gpu.launch(
            &kernel(),
            Launch::new(grid, bd),
            &[n.into(), (&input).into(), (&out).into()],
        )?;
        check_eq("StrStencil", &gpu.read(&out), &want)?;
        Ok(stats)
    }
}
