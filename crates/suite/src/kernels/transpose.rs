//! Transpose: tiled matrix transpose through padded shared memory.

use crate::util::*;
use crate::{BenchError, NoclBench, Scale};
use cheri_simt::KernelStats;
use nocl::{Gpu, Launch};
use nocl_kir::{Elem, Expr, Kernel, KernelBuilder};

/// Classic tiled transpose: a `T×T` tile is staged through shared memory
/// (padded to `T×(T+1)` to dodge bank conflicts) so both the load and the
/// store are coalesced. The 2D block/tile indices are derived from the 1D
/// launch geometry.
pub(super) struct Transpose;

pub(crate) fn kernel(tile: u32) -> Kernel {
    let t = tile;
    let mut k = KernelBuilder::new(&format!("Transpose{t}"));
    let n = k.param_u32("n"); // matrix is n x n, n % t == 0
    let input = k.param_ptr("in", Elem::F32);
    let out = k.param_ptr("out", Elem::F32);
    let sh = k.shared("tile", Elem::F32, t * (t + 1));
    let tx = k.var_u32("tx");
    let ty = k.var_u32("ty");
    let bx = k.var_u32("bx");
    let by = k.var_u32("by");
    let tpr = k.var_u32("tpr"); // tiles per row
    k.assign(&tx, k.thread_idx() & Expr::u32(t - 1));
    k.assign(&ty, k.thread_idx() >> Expr::u32(t.trailing_zeros()));
    k.assign(&tpr, n.clone() / Expr::u32(t));
    k.assign(&bx, k.block_idx() % tpr.clone());
    k.assign(&by, k.block_idx() / tpr.clone());
    // Load in[y][x] into tile[ty][tx].
    let x = bx.clone() * Expr::u32(t) + tx.clone();
    let y = by.clone() * Expr::u32(t) + ty.clone();
    k.store(
        &sh,
        ty.clone() * Expr::u32(t + 1) + tx.clone(),
        input.at(y.clone() * n.clone() + x.clone()),
    );
    k.barrier();
    // Store tile[tx][ty] to out[y'][x'] with swapped block indices.
    let x2 = by * Expr::u32(t) + tx.clone();
    let y2 = bx * Expr::u32(t) + ty.clone();
    k.store(&out, y2 * n + x2, sh.at(tx * Expr::u32(t + 1) + ty));
    k.finish()
}

impl NoclBench for Transpose {
    fn name(&self) -> &'static str {
        "Transpose"
    }

    fn description(&self) -> &'static str {
        "Matrix transpose"
    }

    fn origin(&self) -> &'static str {
        "CUDA code samples"
    }

    fn example_kernel(&self) -> nocl_kir::Kernel {
        kernel(16)
    }

    fn run(&self, gpu: &mut Gpu, scale: Scale) -> Result<KernelStats, BenchError> {
        let bd = block_dim(gpu, 256);
        let tile = 1u32 << (bd.trailing_zeros() / 2); // tile^2 == bd
        let bd = tile * tile;
        let n: u32 = match scale {
            Scale::Test => 4 * tile,
            Scale::Paper => 128,
        };
        assert!(n.is_multiple_of(tile));
        let xs = rand_f32s(0x7235, (n * n) as usize);
        let mut want = vec![0f32; (n * n) as usize];
        for r in 0..n as usize {
            for c in 0..n as usize {
                want[c * n as usize + r] = xs[r * n as usize + c];
            }
        }

        let input = gpu.alloc_from(&xs);
        let out = gpu.alloc::<f32>(n * n);
        let grid = (n / tile) * (n / tile);
        let stats = gpu.launch(
            &kernel(tile),
            Launch::new(grid, bd),
            &[n.into(), (&input).into(), (&out).into()],
        )?;
        check_eq("Transpose", &gpu.read(&out), &want)?;
        Ok(stats)
    }
}
