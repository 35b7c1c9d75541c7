//! MatVecMul: dense matrix × vector product, one row per thread.

use crate::util::*;
use crate::{BenchError, NoclBench, Scale};
use cheri_simt::KernelStats;
use nocl::{Gpu, Launch};
use nocl_kir::{Elem, Expr, Kernel, KernelBuilder};

/// `y[r] = Σ_c A[r][c] * x[c]`, rows distributed grid-stride.
pub(super) struct MatVecMul;

pub(crate) fn kernel() -> Kernel {
    let mut k = KernelBuilder::new("MatVecMul");
    let rows = k.param_u32("rows");
    let cols = k.param_u32("cols");
    let a = k.param_ptr("a", Elem::F32);
    let x = k.param_ptr("x", Elem::F32);
    let y = k.param_ptr("y", Elem::F32);
    let r = k.var_u32("r");
    let c = k.var_u32("c");
    let acc = k.var_f32("acc");
    k.for_(r.clone(), k.global_id(), rows, k.global_threads(), |k| {
        k.assign(&acc, Expr::f32(0.0));
        k.for_(c.clone(), Expr::u32(0), cols.clone(), Expr::u32(1), |k| {
            k.assign(
                &acc,
                acc.clone() + a.at(r.clone() * cols.clone() + c.clone()) * x.at(c.clone()),
            );
        });
        k.store(&y, r.clone(), acc.clone());
    });
    k.finish()
}

impl NoclBench for MatVecMul {
    fn name(&self) -> &'static str {
        "MatVecMul"
    }

    fn description(&self) -> &'static str {
        "Matrix x vector multiplication"
    }

    fn origin(&self) -> &'static str {
        "NVIDIA OpenCL SDK"
    }

    fn example_kernel(&self) -> nocl_kir::Kernel {
        kernel()
    }

    fn run(&self, gpu: &mut Gpu, scale: Scale) -> Result<KernelStats, BenchError> {
        let (rows, cols): (u32, u32) = match scale {
            Scale::Test => (64, 48),
            Scale::Paper => (256, 256),
        };
        let a = rand_f32s(0x3A7, (rows * cols) as usize);
        let x = rand_f32s(0x3A8, cols as usize);
        let want: Vec<f32> = (0..rows as usize)
            .map(|r| (0..cols as usize).map(|c| a[r * cols as usize + c] * x[c]).sum())
            .collect();

        let da = gpu.alloc_from(&a);
        let dx = gpu.alloc_from(&x);
        let dy = gpu.alloc::<f32>(rows);
        let bd = block_dim(gpu, 64);
        let grid = (rows / bd).clamp(1, 32);
        let stats = gpu.launch(
            &kernel(),
            Launch::new(grid, bd),
            &[rows.into(), cols.into(), (&da).into(), (&dx).into(), (&dy).into()],
        )?;
        check_close("MatVecMul", &gpu.read(&dy), &want, 1e-4)?;
        Ok(stats)
    }
}
