//! Scan: per-block inclusive prefix sum (Hillis–Steele, GPU Gems 3).

use crate::util::*;
use crate::{BenchError, NoclBench, Scale};
use cheri_simt::KernelStats;
use nocl::{Gpu, Launch};
use nocl_kir::{Elem, Expr, Kernel, KernelBuilder};

/// Each block scans its own `blockDim`-element segment using a
/// double-buffered shared array.
pub(super) struct Scan;

pub(crate) fn kernel(bd: u32) -> Kernel {
    let mut k = KernelBuilder::new(&format!("Scan{bd}"));
    let input = k.param_ptr("in", Elem::U32);
    let out = k.param_ptr("out", Elem::U32);
    let buf = k.shared("buf", Elem::U32, 2 * bd);
    let gid = k.var_u32("gid");
    k.assign(&gid, k.global_id());
    let pin = k.var_u32("pin");
    let pout = k.var_u32("pout");
    k.assign(&pout, Expr::u32(0));
    k.store(&buf, k.thread_idx(), input.at(gid.clone()));
    k.barrier();
    let d = k.var_u32("d");
    k.assign(&d, Expr::u32(1));
    k.while_(d.clone().lt(Expr::u32(bd)), |k| {
        k.assign(&pin, pout.clone());
        k.assign(&pout, pout.clone() ^ Expr::u32(1));
        let src = pin.clone() * Expr::u32(bd) + k.thread_idx();
        let dst = pout.clone() * Expr::u32(bd) + k.thread_idx();
        k.if_else(
            k.thread_idx().ge(d.clone()),
            |k| {
                let v = buf.at(src.clone())
                    + buf.at(pin.clone() * Expr::u32(bd) + k.thread_idx() - d.clone());
                k.store(&buf, dst.clone(), v);
            },
            |k| {
                k.store(&buf, dst.clone(), buf.at(src.clone()));
            },
        );
        k.barrier();
        k.assign(&d, d.clone() << Expr::u32(1));
    });
    k.store(&out, gid, buf.at(pout * Expr::u32(bd) + k.thread_idx()));
    k.finish()
}

impl NoclBench for Scan {
    fn name(&self) -> &'static str {
        "Scan"
    }

    fn description(&self) -> &'static str {
        "Parallel prefix sum"
    }

    fn origin(&self) -> &'static str {
        "GPU Gems 3"
    }

    fn example_kernel(&self) -> nocl_kir::Kernel {
        kernel(256)
    }

    fn run(&self, gpu: &mut Gpu, scale: Scale) -> Result<KernelStats, BenchError> {
        let bd = block_dim(gpu, 256);
        let grid: u32 = match scale {
            Scale::Test => 4,
            Scale::Paper => 32,
        };
        let n = grid * bd;
        let xs = rand_u32s(0x5CA7, n as usize).iter().map(|v| v % 100).collect::<Vec<_>>();
        // Reference: segment-wise inclusive scan.
        let mut want = vec![0u32; n as usize];
        for seg in 0..grid as usize {
            let mut acc = 0u32;
            for i in 0..bd as usize {
                acc += xs[seg * bd as usize + i];
                want[seg * bd as usize + i] = acc;
            }
        }

        let input = gpu.alloc_from(&xs);
        let out = gpu.alloc::<u32>(n);
        let stats =
            gpu.launch(&kernel(bd), Launch::new(grid, bd), &[(&input).into(), (&out).into()])?;
        check_eq("Scan", &gpu.read(&out), &want)?;
        Ok(stats)
    }
}
