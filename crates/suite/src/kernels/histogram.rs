//! Histogram: 256-bin histogram of a byte array using a single thread block
//! (Figure 3 of the paper).

use crate::util::*;
use crate::{BenchError, NoclBench, Scale};
use cheri_simt::KernelStats;
use nocl::{Gpu, Launch};
use nocl_kir::{Elem, Expr, Kernel, KernelBuilder};

/// The paper's Figure-3 kernel: zero the shared bins, accumulate with
/// `atomicAdd`, copy the bins to global memory — with `__syncthreads`
/// between the phases.
pub(super) struct Histogram;

pub(crate) fn kernel() -> Kernel {
    let mut k = KernelBuilder::new("Histogram");
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

impl NoclBench for Histogram {
    fn name(&self) -> &'static str {
        "Histogram"
    }

    fn description(&self) -> &'static str {
        "256-bin histogram calculation"
    }

    fn origin(&self) -> &'static str {
        "CUDA code samples"
    }

    fn example_kernel(&self) -> nocl_kir::Kernel {
        kernel()
    }

    fn run(&self, gpu: &mut Gpu, scale: Scale) -> Result<KernelStats, BenchError> {
        let n: u32 = match scale {
            Scale::Test => 4_096,
            Scale::Paper => 65_536,
        };
        let xs = rand_u8s(0x0157, n as usize);
        let mut want = vec![0i32; 256];
        for &x in &xs {
            want[x as usize] += 1;
        }

        let input = gpu.alloc_from(&xs);
        let out = gpu.alloc::<i32>(256);
        // A single thread block spanning the whole SM, as in the paper.
        let bd = gpu.device().config().threads();
        let stats =
            gpu.launch(&kernel(), Launch::new(1, bd), &[n.into(), (&input).into(), (&out).into()])?;
        check_eq("Histogram", &gpu.read(&out), &want)?;
        Ok(stats)
    }
}
