//! Reduce: vector summation with a shared-memory tree per block.

use crate::util::*;
use crate::{BenchError, NoclBench, Scale};
use cheri_simt::KernelStats;
use nocl::{Gpu, Launch};
use nocl_kir::{Elem, Expr, Kernel, KernelBuilder};

/// Grid-stride accumulation, block tree reduction in shared memory, then
/// one `atomicAdd` of the block partial into the result.
pub(super) struct Reduce;

pub(crate) fn kernel(bd: u32) -> Kernel {
    let mut k = KernelBuilder::new(&format!("Reduce{bd}"));
    let len = k.param_u32("len");
    let input = k.param_ptr("in", Elem::I32);
    let out = k.param_ptr("out", Elem::I32);
    let tile = k.shared("tile", Elem::I32, bd);
    let i = k.var_u32("i");
    let acc = k.var_i32("acc");
    k.assign(&acc, Expr::i32(0));
    k.for_(i.clone(), k.global_id(), len, k.global_threads(), |k| {
        k.assign(&acc, acc.clone() + input.at(i.clone()));
    });
    k.store(&tile, k.thread_idx(), acc.clone());
    k.barrier();
    let s = k.var_u32("s");
    k.assign(&s, Expr::u32(bd / 2));
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
    k.finish()
}

impl NoclBench for Reduce {
    fn name(&self) -> &'static str {
        "Reduce"
    }

    fn description(&self) -> &'static str {
        "Vector summation"
    }

    fn origin(&self) -> &'static str {
        "CUDA code samples"
    }

    fn example_kernel(&self) -> nocl_kir::Kernel {
        kernel(256)
    }

    fn run(&self, gpu: &mut Gpu, scale: Scale) -> Result<KernelStats, BenchError> {
        let n: u32 = match scale {
            Scale::Test => 3_000,
            Scale::Paper => 65_536,
        };
        let xs = rand_i32s(0x5ED0, n as usize);
        let want: i32 = xs.iter().sum();

        let input = gpu.alloc_from(&xs);
        let out = gpu.alloc_from(&[0i32]);
        let bd = block_dim(gpu, 256);
        let grid = (n / bd).clamp(1, 32);
        let stats = gpu.launch(
            &kernel(bd),
            Launch::new(grid, bd),
            &[n.into(), (&input).into(), (&out).into()],
        )?;
        check_eq("Reduce", &gpu.read(&out), &[want])?;
        Ok(stats)
    }
}
