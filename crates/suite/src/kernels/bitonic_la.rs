//! BitonicLa: bitonic sort of a large array in global memory, one kernel
//! launch per (k, j) phase (the host drives the phase loop, as global
//! synchronisation between blocks is impossible).

use crate::util::*;
use crate::{BenchError, NoclBench, Scale};
use cheri_simt::KernelStats;
use nocl::{Gpu, Launch};
use nocl_kir::{Elem, Expr, Kernel, KernelBuilder};

/// One compare-exchange phase over the whole array, grid-stride.
pub(super) struct BitonicLa;

pub(crate) fn kernel() -> Kernel {
    let mut k = KernelBuilder::new("BitonicLa");
    let n = k.param_u32("n");
    let kk = k.param_u32("k");
    let j = k.param_u32("j");
    let data = k.param_ptr("data", Elem::U32);
    let i = k.var_u32("i");
    let ixj = k.var_u32("ixj");
    let va = k.var_u32("va");
    let vb = k.var_u32("vb");
    k.for_(i.clone(), k.global_id(), n, k.global_threads(), |k| {
        k.assign(&ixj, i.clone() ^ j.clone());
        k.if_(ixj.clone().gt(i.clone()), |k| {
            k.assign(&va, data.at(i.clone()));
            k.assign(&vb, data.at(ixj.clone()));
            let dir_up = (i.clone() & kk.clone()).eq_(Expr::u32(0));
            let out_of_order = va.clone().gt(vb.clone()).eq_(dir_up);
            k.if_(out_of_order & va.clone().ne_(vb.clone()), |k| {
                k.store(&data, i.clone(), vb.clone());
                k.store(&data, ixj.clone(), va.clone());
            });
        });
    });
    k.finish()
}

impl NoclBench for BitonicLa {
    fn name(&self) -> &'static str {
        "BitonicLa"
    }

    fn description(&self) -> &'static str {
        "Bitonic sorter (large arrays)"
    }

    fn origin(&self) -> &'static str {
        "NVIDIA OpenCL SDK"
    }

    fn example_kernel(&self) -> nocl_kir::Kernel {
        kernel()
    }

    fn run(&self, gpu: &mut Gpu, scale: Scale) -> Result<KernelStats, BenchError> {
        let n: u32 = match scale {
            Scale::Test => 1_024,
            Scale::Paper => 16_384,
        };
        let xs = rand_u32s(0xB171, n as usize);
        let mut want = xs.clone();
        want.sort_unstable();

        let data = gpu.alloc_from(&xs);
        let bd = block_dim(gpu, 256);
        let grid = (n / bd).clamp(1, 16);
        let kern = kernel();
        let mut total: Option<KernelStats> = None;
        let mut kk = 2u32;
        while kk <= n {
            let mut j = kk >> 1;
            while j > 0 {
                let stats = gpu.launch(
                    &kern,
                    Launch::new(grid, bd),
                    &[n.into(), kk.into(), j.into(), (&data).into()],
                )?;
                match &mut total {
                    Some(t) => t.accumulate(&stats),
                    None => total = Some(stats),
                }
                j >>= 1;
            }
            kk <<= 1;
        }
        check_eq("BitonicLa", &gpu.read(&data), &want)?;
        Ok(total.expect("at least one phase"))
    }
}
