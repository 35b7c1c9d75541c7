//! MatMul: tiled dense matrix multiplication through shared memory.

use crate::util::*;
use crate::{BenchError, NoclBench, Scale};
use cheri_simt::KernelStats;
use nocl::{Gpu, Launch};
use nocl_kir::{Elem, Expr, Kernel, KernelBuilder};

/// Each block computes a `T×T` output tile; A- and B-tiles are staged
/// through two shared arrays with barriers around the inner product.
pub(super) struct MatMul;

pub(crate) fn kernel(tile: u32) -> Kernel {
    let t = tile;
    let log_t = t.trailing_zeros();
    let mut k = KernelBuilder::new(&format!("MatMul{t}"));
    let n = k.param_u32("n"); // square matrices, n % t == 0
    let a = k.param_ptr("a", Elem::F32);
    let b = k.param_ptr("b", Elem::F32);
    let c = k.param_ptr("c", Elem::F32);
    let at = k.shared("atile", Elem::F32, t * t);
    let bt = k.shared("btile", Elem::F32, t * t);
    let tx = k.var_u32("tx");
    let ty = k.var_u32("ty");
    let bx = k.var_u32("bx");
    let by = k.var_u32("by");
    let acc = k.var_f32("acc");
    let kt = k.var_u32("kt");
    let kk = k.var_u32("kk");
    k.assign(&tx, k.thread_idx() & Expr::u32(t - 1));
    k.assign(&ty, k.thread_idx() >> Expr::u32(log_t));
    let tpr = n.clone() / Expr::u32(t);
    k.assign(&bx, k.block_idx() % tpr.clone());
    k.assign(&by, k.block_idx() / tpr);
    k.assign(&acc, Expr::f32(0.0));
    let row = by.clone() * Expr::u32(t) + ty.clone();
    let col = bx.clone() * Expr::u32(t) + tx.clone();
    k.for_(kt.clone(), Expr::u32(0), n.clone() / Expr::u32(t), Expr::u32(1), |k| {
        let ka = kt.clone() * Expr::u32(t) + tx.clone();
        let kb = kt.clone() * Expr::u32(t) + ty.clone();
        k.store(&at, ty.clone() * Expr::u32(t) + tx.clone(), a.at(row.clone() * n.clone() + ka));
        k.store(&bt, ty.clone() * Expr::u32(t) + tx.clone(), b.at(kb * n.clone() + col.clone()));
        k.barrier();
        k.for_(kk.clone(), Expr::u32(0), Expr::u32(t), Expr::u32(1), |k| {
            k.assign(
                &acc,
                acc.clone()
                    + at.at(ty.clone() * Expr::u32(t) + kk.clone())
                        * bt.at(kk.clone() * Expr::u32(t) + tx.clone()),
            );
        });
        k.barrier();
    });
    k.store(&c, row * n + col, acc.clone());
    k.finish()
}

impl NoclBench for MatMul {
    fn name(&self) -> &'static str {
        "MatMul"
    }

    fn description(&self) -> &'static str {
        "Matrix x matrix multiplication"
    }

    fn origin(&self) -> &'static str {
        "CUDA code samples"
    }

    fn example_kernel(&self) -> nocl_kir::Kernel {
        kernel(16)
    }

    fn run(&self, gpu: &mut Gpu, scale: Scale) -> Result<KernelStats, BenchError> {
        let bd = block_dim(gpu, 256);
        let tile = 1u32 << (bd.trailing_zeros() / 2);
        let bd = tile * tile;
        let n: u32 = match scale {
            Scale::Test => 2 * tile,
            Scale::Paper => 96,
        };
        assert!(n.is_multiple_of(tile));
        let a = rand_f32s(0x3A73, (n * n) as usize);
        let b = rand_f32s(0x3A74, (n * n) as usize);
        let nn = n as usize;
        let mut want = vec![0f32; nn * nn];
        for r in 0..nn {
            for kx in 0..nn {
                let av = a[r * nn + kx];
                for cx in 0..nn {
                    want[r * nn + cx] += av * b[kx * nn + cx];
                }
            }
        }

        let da = gpu.alloc_from(&a);
        let db = gpu.alloc_from(&b);
        let dc = gpu.alloc::<f32>(n * n);
        let grid = (n / tile) * (n / tile);
        let stats = gpu.launch(
            &kernel(tile),
            Launch::new(grid, bd),
            &[n.into(), (&da).into(), (&db).into(), (&dc).into()],
        )?;
        check_close("MatMul", &gpu.read(&dc), &want, 1e-3)?;
        Ok(stats)
    }
}
