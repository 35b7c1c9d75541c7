//! MotionEst: block-matching motion estimation — for every 4×4 block of the
//! current frame, exhaustively search a ±R window in the (padded) reference
//! frame for the offset minimising the sum of absolute differences.

use crate::util::*;
use crate::{BenchError, NoclBench, Scale};
use cheri_simt::KernelStats;
use nocl::{Gpu, Launch};
use nocl_kir::{Elem, Expr, Kernel, KernelBuilder};

const B: u32 = 4; // block size
const R: i32 = 2; // search radius

/// One thread per 4×4 block; output is `best_sad * 256 + (dx+R)*16 + (dy+R)`.
pub(super) struct MotionEst;

pub(crate) fn kernel() -> Kernel {
    let mut k = KernelBuilder::new("MotionEst");
    let w = k.param_u32("w"); // frame width, multiple of B
    let nblocks = k.param_u32("nblocks"); // (w/B) * (h/B)
    let cur = k.param_ptr("cur", Elem::U8); // w x h
    let refp = k.param_ptr("ref", Elem::U8); // (w+2R) x (h+2R), padded
    let out = k.param_ptr("out", Elem::U32);
    let blk = k.var_u32("blk");
    let bx = k.var_u32("bx");
    let by = k.var_u32("by");
    let dx = k.var_i32("dx");
    let dy = k.var_i32("dy");
    let px = k.var_u32("px");
    let py = k.var_u32("py");
    let sad = k.var_u32("sad");
    let best = k.var_u32("best");
    let diff = k.var_i32("diff");
    let xx = k.var_u32("xx");
    let yy = k.var_u32("yy");
    let rxv = k.var_u32("rxv");
    let ryv = k.var_u32("ryv");
    let rw = w.clone() + Expr::u32(2 * R as u32); // padded width
    k.for_(blk.clone(), k.global_id(), nblocks, k.global_threads(), |k| {
        let bpr = w.clone() / Expr::u32(B); // blocks per row
        k.assign(&bx, blk.clone() % bpr.clone());
        k.assign(&by, blk.clone() / bpr);
        k.assign(&best, Expr::u32(u32::MAX));
        k.for_(dy.clone(), Expr::i32(-R), Expr::i32(R + 1), Expr::i32(1), |k| {
            k.for_(dx.clone(), Expr::i32(-R), Expr::i32(R + 1), Expr::i32(1), |k| {
                k.assign(&sad, Expr::u32(0));
                k.for_(py.clone(), Expr::u32(0), Expr::u32(B), Expr::u32(1), |k| {
                    k.for_(px.clone(), Expr::u32(0), Expr::u32(B), Expr::u32(1), |k| {
                        k.assign(&xx, bx.clone() * Expr::u32(B) + px.clone());
                        k.assign(&yy, by.clone() * Expr::u32(B) + py.clone());
                        k.assign(
                            &rxv,
                            ((xx.clone() + Expr::u32(R as u32)).as_i32() + dx.clone()).as_u32(),
                        );
                        k.assign(
                            &ryv,
                            ((yy.clone() + Expr::u32(R as u32)).as_i32() + dy.clone()).as_u32(),
                        );
                        let c = cur.at(yy.clone() * w.clone() + xx.clone()).as_i32();
                        let r = refp.at(ryv.clone() * rw.clone() + rxv.clone()).as_i32();
                        k.assign(&diff, c - r);
                        k.if_(diff.clone().lt(Expr::i32(0)), |k| {
                            k.assign(&diff, Expr::i32(0) - diff.clone());
                        });
                        k.assign(&sad, sad.clone() + diff.clone().as_u32());
                    });
                });
                // Encode (sad, dx, dy) so the minimum carries its offset.
                let code = sad.clone() * Expr::u32(256)
                    + (dx.clone() + Expr::i32(R)).as_u32() * Expr::u32(16)
                    + (dy.clone() + Expr::i32(R)).as_u32();
                k.assign(&best, best.clone().min(code));
            });
        });
        k.store(&out, blk.clone(), best.clone());
    });
    k.finish()
}

fn reference(w: usize, h: usize, cur: &[u8], refp: &[u8]) -> Vec<u32> {
    let rw = w + 2 * R as usize;
    let bpr = w / B as usize;
    let nblocks = bpr * (h / B as usize);
    (0..nblocks)
        .map(|blk| {
            let (bx, by) = (blk % bpr, blk / bpr);
            let mut best = u32::MAX;
            for dy in -R..=R {
                for dx in -R..=R {
                    let mut sad = 0u32;
                    for py in 0..B as usize {
                        for px in 0..B as usize {
                            let x = bx * B as usize + px;
                            let y = by * B as usize + py;
                            let c = cur[y * w + x] as i32;
                            let rx = (x as i32 + R + dx) as usize;
                            let ry = (y as i32 + R + dy) as usize;
                            let r = refp[ry * rw + rx] as i32;
                            sad += (c - r).unsigned_abs();
                        }
                    }
                    let code = sad * 256 + ((dx + R) as u32) * 16 + (dy + R) as u32;
                    best = best.min(code);
                }
            }
            best
        })
        .collect()
}

impl NoclBench for MotionEst {
    fn name(&self) -> &'static str {
        "MotionEst"
    }

    fn description(&self) -> &'static str {
        "Motion estimation"
    }

    fn origin(&self) -> &'static str {
        "In house"
    }

    fn example_kernel(&self) -> nocl_kir::Kernel {
        kernel()
    }

    fn run(&self, gpu: &mut Gpu, scale: Scale) -> Result<KernelStats, BenchError> {
        let (w, h): (usize, usize) = match scale {
            Scale::Test => (16, 16),
            Scale::Paper => (64, 48),
        };
        let rw = w + 2 * R as usize;
        let rh = h + 2 * R as usize;
        let cur = rand_u8s(0x40E5, w * h);
        let refp = rand_u8s(0x40E6, rw * rh);
        let nblocks = (w / B as usize) * (h / B as usize);
        let want = reference(w, h, &cur, &refp);

        let d_cur = gpu.alloc_from(&cur);
        let d_ref = gpu.alloc_from(&refp);
        let d_out = gpu.alloc::<u32>(nblocks as u32);
        let bd = block_dim(gpu, 64);
        let grid = (nblocks as u32 / bd).clamp(1, 16);
        let stats = gpu.launch(
            &kernel(),
            Launch::new(grid, bd),
            &[
                (w as u32).into(),
                (nblocks as u32).into(),
                (&d_cur).into(),
                (&d_ref).into(),
                (&d_out).into(),
            ],
        )?;
        check_eq("MotionEst", &gpu.read(&d_out), &want)?;
        Ok(stats)
    }
}
