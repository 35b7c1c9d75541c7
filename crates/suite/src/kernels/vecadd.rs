//! VecAdd: element-wise vector addition (NVIDIA OpenCL SDK).

use crate::util::*;
use crate::{BenchError, NoclBench, Scale};
use cheri_simt::KernelStats;
use nocl::{Gpu, Launch};
use nocl_kir::{Elem, Kernel, KernelBuilder};

/// `c[i] = a[i] + b[i]` with a grid-stride loop.
pub(super) struct VecAdd;

pub(crate) fn kernel() -> Kernel {
    let mut k = KernelBuilder::new("VecAdd");
    let len = k.param_u32("len");
    let a = k.param_ptr("a", Elem::F32);
    let b = k.param_ptr("b", Elem::F32);
    let c = k.param_ptr("c", Elem::F32);
    let i = k.var_u32("i");
    k.for_(i.clone(), k.global_id(), len, k.global_threads(), |k| {
        k.store(&c, i.clone(), a.at(i.clone()) + b.at(i.clone()));
    });
    k.finish()
}

impl NoclBench for VecAdd {
    fn name(&self) -> &'static str {
        "VecAdd"
    }

    fn description(&self) -> &'static str {
        "Vector addition"
    }

    fn origin(&self) -> &'static str {
        "NVIDIA OpenCL SDK"
    }

    fn example_kernel(&self) -> nocl_kir::Kernel {
        kernel()
    }

    fn run(&self, gpu: &mut Gpu, scale: Scale) -> Result<KernelStats, BenchError> {
        let n: u32 = match scale {
            Scale::Test => 2_000,
            Scale::Paper => 65_536,
        };
        let xs = rand_f32s(0xADD0, n as usize);
        let ys = rand_f32s(0xADD1, n as usize);
        let want: Vec<f32> = xs.iter().zip(&ys).map(|(x, y)| x + y).collect();

        let a = gpu.alloc_from(&xs);
        let b = gpu.alloc_from(&ys);
        let c = gpu.alloc::<f32>(n);
        let bd = block_dim(gpu, 256);
        let grid = (n / bd).clamp(1, 64);
        let stats = gpu.launch(
            &kernel(),
            Launch::new(grid, bd),
            &[n.into(), (&a).into(), (&b).into(), (&c).into()],
        )?;
        check_eq("VecAdd", &gpu.read(&c), &want)?;
        Ok(stats)
    }
}
