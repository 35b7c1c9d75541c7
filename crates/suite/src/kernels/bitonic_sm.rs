//! BitonicSm: bitonic sort of small arrays, one segment per block, entirely
//! in shared memory.

use crate::util::*;
use crate::{BenchError, NoclBench, Scale};
use cheri_simt::KernelStats;
use nocl::{Gpu, Launch};
use nocl_kir::{Elem, Expr, Kernel, KernelBuilder};

/// Each block sorts a `2×blockDim` segment of `u32` keys ascending; every
/// thread handles two compare-exchange elements per step.
pub(super) struct BitonicSm;

pub(crate) fn kernel(bd: u32) -> Kernel {
    let seg = 2 * bd;
    let mut k = KernelBuilder::new(&format!("BitonicSm{bd}"));
    let input = k.param_ptr("in", Elem::U32);
    let out = k.param_ptr("out", Elem::U32);
    let sh = k.shared("keys", Elem::U32, seg);
    let base = k.var_u32("base");
    k.assign(&base, k.block_idx() * Expr::u32(seg));
    k.store(&sh, k.thread_idx(), input.at(base.clone() + k.thread_idx()));
    k.store(
        &sh,
        k.thread_idx() + Expr::u32(bd),
        input.at(base.clone() + k.thread_idx() + Expr::u32(bd)),
    );
    k.barrier();
    let kk = k.var_u32("k");
    let j = k.var_u32("j");
    let i = k.var_u32("i");
    let ixj = k.var_u32("ixj");
    let va = k.var_u32("va");
    let vb = k.var_u32("vb");
    k.assign(&kk, Expr::u32(2));
    k.while_(kk.clone().le(Expr::u32(seg)), |k| {
        k.assign(&j, kk.clone() >> Expr::u32(1));
        k.while_(j.clone().gt(Expr::u32(0)), |k| {
            // Each thread visits elements threadIdx and threadIdx + bd.
            k.for_(i.clone(), k.thread_idx(), Expr::u32(seg), Expr::u32(bd), |k| {
                k.assign(&ixj, i.clone() ^ j.clone());
                k.if_(ixj.clone().gt(i.clone()), |k| {
                    k.assign(&va, sh.at(i.clone()));
                    k.assign(&vb, sh.at(ixj.clone()));
                    // Ascending when (i & k) == 0.
                    let dir_up = (i.clone() & kk.clone()).eq_(Expr::u32(0));
                    let out_of_order = va.clone().gt(vb.clone()).eq_(dir_up);
                    k.if_(out_of_order & va.clone().ne_(vb.clone()), |k| {
                        k.store(&sh, i.clone(), vb.clone());
                        k.store(&sh, ixj.clone(), va.clone());
                    });
                });
            });
            k.barrier();
            k.assign(&j, j.clone() >> Expr::u32(1));
        });
        k.assign(&kk, kk.clone() << Expr::u32(1));
    });
    k.store(&out, base.clone() + k.thread_idx(), sh.at(k.thread_idx()));
    k.store(&out, base + k.thread_idx() + Expr::u32(bd), sh.at(k.thread_idx() + Expr::u32(bd)));
    k.finish()
}

impl NoclBench for BitonicSm {
    fn name(&self) -> &'static str {
        "BitonicSm"
    }

    fn description(&self) -> &'static str {
        "Bitonic sorter (small arrays)"
    }

    fn origin(&self) -> &'static str {
        "NVIDIA OpenCL SDK"
    }

    fn example_kernel(&self) -> nocl_kir::Kernel {
        kernel(128)
    }

    fn run(&self, gpu: &mut Gpu, scale: Scale) -> Result<KernelStats, BenchError> {
        let bd = block_dim(gpu, 128);
        let seg = 2 * bd;
        let grid: u32 = match scale {
            Scale::Test => 4,
            Scale::Paper => 16,
        };
        let n = grid * seg;
        let xs = rand_u32s(0xB170, n as usize);
        let mut want = xs.clone();
        for s in want.chunks_mut(seg as usize) {
            s.sort_unstable();
        }

        let input = gpu.alloc_from(&xs);
        let out = gpu.alloc::<u32>(n);
        let stats =
            gpu.launch(&kernel(bd), Launch::new(grid, bd), &[(&input).into(), (&out).into()])?;
        check_eq("BitonicSm", &gpu.read(&out), &want)?;
        Ok(stats)
    }
}
