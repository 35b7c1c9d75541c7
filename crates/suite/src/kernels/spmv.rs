//! SPMV: sparse matrix × vector product in CSR form (Bell & Garland),
//! scalar kernel — one row per thread.

use crate::util::*;
use crate::{BenchError, NoclBench, Scale};
use cheri_simt::KernelStats;
use nocl::{Gpu, Launch};
use nocl_kir::{Elem, Kernel, KernelBuilder};

/// `y[r] = Σ_{e in row r} val[e] * x[col[e]]` over a CSR matrix; irregular
/// row lengths exercise control-flow divergence and gather accesses.
pub(super) struct Spmv;

pub(crate) fn kernel() -> Kernel {
    let mut k = KernelBuilder::new("SPMV");
    let rows = k.param_u32("rows");
    let rowptr = k.param_ptr("rowptr", Elem::U32);
    let col = k.param_ptr("col", Elem::U32);
    let val = k.param_ptr("val", Elem::F32);
    let x = k.param_ptr("x", Elem::F32);
    let y = k.param_ptr("y", Elem::F32);
    let r = k.var_u32("r");
    let e = k.var_u32("e");
    let end = k.var_u32("end");
    let acc = k.var_f32("acc");
    k.for_(r.clone(), k.global_id(), rows, k.global_threads(), |k| {
        k.assign(&acc, nocl_kir::Expr::f32(0.0));
        k.assign(&e, rowptr.at(r.clone()));
        k.assign(&end, rowptr.at(r.clone() + nocl_kir::Expr::u32(1)));
        k.while_(e.clone().lt(end.clone()), |k| {
            k.assign(&acc, acc.clone() + val.at(e.clone()) * x.at(col.at(e.clone())));
            k.assign(&e, e.clone() + nocl_kir::Expr::u32(1));
        });
        k.store(&y, r.clone(), acc.clone());
    });
    k.finish()
}

/// A random CSR matrix with row lengths in `0..=max_row`.
pub(crate) fn random_csr(
    seed: u64,
    rows: u32,
    cols: u32,
    max_row: u32,
) -> (Vec<u32>, Vec<u32>, Vec<f32>) {
    let mut r = rng(seed);
    let mut rowptr = Vec::with_capacity(rows as usize + 1);
    let mut col = Vec::new();
    let mut val = Vec::new();
    rowptr.push(0u32);
    for _ in 0..rows {
        let len = r.range_u32(0, max_row + 1);
        for _ in 0..len {
            col.push(r.range_u32(0, cols));
            val.push(r.range_f32(-2.0, 2.0));
        }
        rowptr.push(col.len() as u32);
    }
    (rowptr, col, val)
}

impl NoclBench for Spmv {
    fn name(&self) -> &'static str {
        "SPMV"
    }

    fn description(&self) -> &'static str {
        "Sparse matrix x vector multiplication"
    }

    fn origin(&self) -> &'static str {
        "Bell & Garland (NVIDIA)"
    }

    fn example_kernel(&self) -> nocl_kir::Kernel {
        kernel()
    }

    fn run(&self, gpu: &mut Gpu, scale: Scale) -> Result<KernelStats, BenchError> {
        let (rows, cols): (u32, u32) = match scale {
            Scale::Test => (256, 128),
            Scale::Paper => (4_096, 1_024),
        };
        let (rowptr, col, val) = random_csr(0x59A7, rows, cols, 12);
        let x = rand_f32s(0x59A8, cols as usize);
        let want: Vec<f32> = (0..rows as usize)
            .map(|r| {
                (rowptr[r]..rowptr[r + 1])
                    .map(|e| val[e as usize] * x[col[e as usize] as usize])
                    .sum()
            })
            .collect();

        let d_rowptr = gpu.alloc_from(&rowptr);
        let d_col = gpu.alloc_from(&col);
        let d_val = gpu.alloc_from(&val);
        let d_x = gpu.alloc_from(&x);
        let d_y = gpu.alloc::<f32>(rows);
        let bd = block_dim(gpu, 64);
        let grid = (rows / bd).clamp(1, 32);
        let stats = gpu.launch(
            &kernel(),
            Launch::new(grid, bd),
            &[
                rows.into(),
                (&d_rowptr).into(),
                (&d_col).into(),
                (&d_val).into(),
                (&d_x).into(),
                (&d_y).into(),
            ],
        )?;
        check_close("SPMV", &gpu.read(&d_y), &want, 1e-4)?;
        Ok(stats)
    }
}
