//! BlkStencil: block-based 1D stencil through a shared tile, with the
//! pointer-select halo pattern that the paper identifies as the source of
//! capability-metadata divergence (Section 4.3).

use crate::util::*;
use crate::{BenchError, NoclBench, Scale};
use cheri_simt::KernelStats;
use nocl::{Gpu, Launch};
use nocl_kir::{Elem, Expr, Kernel, KernelBuilder};

/// Three-point stencil: each block stages its segment in shared memory;
/// edge threads read their halo neighbour through a pointer that was
/// *selected* between a global and a shared buffer — the compiler transform
/// the paper observed ("control-flow divergence into pointer-value
/// divergence").
pub(super) struct BlkStencil;

pub(crate) fn kernel(bd: u32) -> Kernel {
    let mut k = KernelBuilder::new(&format!("BlkStencil{bd}"));
    // `input` has n + 2 elements (global halo); `out` has n.
    let input = k.param_ptr("in", Elem::I32);
    let out = k.param_ptr("out", Elem::I32);
    let tile = k.shared("tile", Elem::I32, bd);
    let g = k.var_u32("g");
    let p = k.var_ptr("p", Elem::I32);
    let q = k.var_ptr("q", Elem::I32);
    k.assign(&g, k.global_id());
    k.store(&tile, k.thread_idx(), input.at(g.clone() + Expr::u32(1)));
    k.barrier();
    // Left neighbour: shared for interior threads, global for thread 0.
    k.if_else(
        k.thread_idx().eq_(Expr::u32(0)),
        |k| {
            let input = input.clone();
            k.assign(&p, input.offset(g.clone()));
        },
        |k| {
            let tile = tile.clone();
            k.assign(&p, tile.offset(k.thread_idx() - Expr::u32(1)));
        },
    );
    // Right neighbour: shared for interior threads, global for the last.
    k.if_else(
        k.thread_idx().eq_(Expr::u32(bd - 1)),
        |k| {
            let input = input.clone();
            k.assign(&q, input.offset(g.clone() + Expr::u32(2)));
        },
        |k| {
            let tile = tile.clone();
            k.assign(&q, tile.offset(k.thread_idx() + Expr::u32(1)));
        },
    );
    let centre = tile.at(k.thread_idx());
    k.store(&out, g.clone(), p.at(Expr::u32(0)) + centre + q.at(Expr::u32(0)));
    k.finish()
}

impl NoclBench for BlkStencil {
    fn name(&self) -> &'static str {
        "BlkStencil"
    }

    fn description(&self) -> &'static str {
        "Block-based stencil computation"
    }

    fn origin(&self) -> &'static str {
        "In house"
    }

    fn example_kernel(&self) -> nocl_kir::Kernel {
        kernel(256)
    }

    fn run(&self, gpu: &mut Gpu, scale: Scale) -> Result<KernelStats, BenchError> {
        let bd = block_dim(gpu, 256);
        let grid: u32 = match scale {
            Scale::Test => 4,
            Scale::Paper => 64,
        };
        let n = grid * bd;
        let xs = rand_i32s(0xB57E, n as usize + 2);
        let want: Vec<i32> = (0..n as usize).map(|i| xs[i] + xs[i + 1] + xs[i + 2]).collect();

        let input = gpu.alloc_from(&xs);
        let out = gpu.alloc::<i32>(n);
        let stats =
            gpu.launch(&kernel(bd), Launch::new(grid, bd), &[(&input).into(), (&out).into()])?;
        check_eq("BlkStencil", &gpu.read(&out), &want)?;
        Ok(stats)
    }
}
