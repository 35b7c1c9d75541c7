//! Data op class: the integer ALU (`OP-IMM`/`OP`), the M extension and the
//! Zfinx FP ops — `rd = f(rs1, src2)` on data registers — plus the
//! operand-free splats (`LUI`, `AUIPC`, `CSRRS`, `CSpecialRW`).
//!
//! Each instruction's meaning is one lane function from [`crate::exec`],
//! picked once per issue and applied by a generic driver in one of two
//! ways: lane-wise it is evaluated per active lane over the loaned
//! [`LaneBufs`], warp-wide over compact operands ([`linear2`]: once when
//! both are uniform, from two lane samples when one is affine), which are
//! free SRF peeks. Which way runs is the issue classifier's verdict (see
//! [`super::classify`]); the post-effects — divider latency, the SFU
//! round-trip of `FDIV`/`FSQRT`, which charges per *active lane* — are the
//! same on both. A splat has one form, a [`Splat`], and commits it through
//! [`Sm::writeback_compact`] whichever driver the issue runs on.
//!
//! CSR reads are virtualised for multi-SM devices: `MHARTID` is offset by
//! the SM's hart base (its placement, fixed by [`crate::Device::new`]) and
//! `SIMT_NUM_THREADS` reads the device-wide thread count, so an unmodified
//! grid-stride kernel distributes its blocks across every SM of a
//! [`crate::Device`].

use super::scalar::linear2;
use super::{active_lanes, Costs};
use crate::config::DIV_LATENCY;
use crate::exec;
use crate::rom::{DataFn, DataOp, Post, SplatOp, SplatSrc, Src2};
use crate::sm::{LaneBufs, Sm};
use crate::warp::Selection;
use cheri_cap::CapPipe;
use simt_isa::{csr, scr, Reg};
use simt_regfile::OperandVec;

/// A warp-invariant (or hart-affine) result: the data value in compact
/// form plus, for capability results, the uniform metadata.
pub(crate) struct Splat {
    pub(crate) val: OperandVec,
    pub(crate) meta: Option<u64>,
}

impl Splat {
    /// A uniform capability result.
    pub(crate) fn cap(cap: CapPipe) -> Self {
        let (m, d) = Sm::cap_parts(cap);
        Splat { val: OperandVec::Uniform(d), meta: Some(m) }
    }

    /// A uniform integer result.
    pub(crate) fn int(v: u32) -> Self {
        Splat { val: OperandVec::Uniform(v as u64), meta: None }
    }
}

impl Sm {
    /// Execute one data op (always writes `rd`, never traps): bind the lane
    /// function, run the driver the classifier chose.
    pub(crate) fn exec_data(
        &mut self,
        w: u32,
        sel: &Selection,
        d: &DataOp,
        fast: bool,
        costs: &mut Costs,
    ) {
        match d.f {
            DataFn::Alu(op) => self.apply_data(w, sel, d, fast, costs, |a, b| exec::alu(op, a, b)),
            DataFn::MulDiv(op) => {
                self.apply_data(w, sel, d, fast, costs, |a, b| exec::muldiv(op, a, b));
            }
            DataFn::Fp(op) => self.apply_data(w, sel, d, fast, costs, |a, b| exec::fp(op, a, b)),
            DataFn::FSqrt => self.apply_data(w, sel, d, fast, costs, |a, _| exec::fsqrt(a)),
            DataFn::FCmp(op) => {
                self.apply_data(w, sel, d, fast, costs, |a, b| exec::fcmp(op, a, b))
            }
            DataFn::FCvtWS { signed } => {
                self.apply_data(w, sel, d, fast, costs, |a, _| exec::fcvt_ws(a, signed));
            }
            DataFn::FCvtSW { signed } => {
                self.apply_data(w, sel, d, fast, costs, |a, _| exec::fcvt_sw(a, signed));
            }
        }
    }

    /// The generic data-op driver. Warp-wide (only for issues the classifier
    /// proved scalarisable) it evaluates `f` over compact operands; lane-wise
    /// it evaluates `f` per active lane over the loaned scratch — `a`/`b` are
    /// fully overwritten by `read_data`, `r` is written per active lane and
    /// committed under the mask. The two are bit-identical where both apply.
    fn apply_data(
        &mut self,
        w: u32,
        sel: &Selection,
        d: &DataOp,
        fast: bool,
        costs: &mut Costs,
        f: impl Fn(u32, u32) -> u32,
    ) {
        if fast {
            let a = self.peek_data(w, d.rs1);
            let b = match d.src2 {
                Src2::Reg(rs2) => self.peek_data(w, rs2),
                Src2::Imm(imm) => OperandVec::Uniform(imm as u64),
            };
            let res = linear2(f, &a, &b);
            self.post_effect(w, sel, d.post);
            self.writeback_compact(w, d.rd, &res, None, sel.mask, costs);
            return;
        }
        self.with_bufs(|sm, bufs| {
            let lanes = sm.cfg.lanes as usize;
            let LaneBufs { a, b, r, .. } = bufs;
            sm.read_data(w, d.rs1, a, costs);
            match d.src2 {
                Src2::Reg(rs2) => {
                    sm.read_data(w, rs2, b, costs);
                    for i in active_lanes(sel.mask, lanes) {
                        r[i] = f(a[i] as u32, b[i] as u32) as u64;
                    }
                }
                Src2::Imm(imm) => {
                    for i in active_lanes(sel.mask, lanes) {
                        r[i] = f(a[i] as u32, imm) as u64;
                    }
                }
            }
            sm.post_effect(w, sel, d.post);
            sm.writeback(w, d.rd, &r[..], None, sel.mask, costs);
        });
    }

    // Out of line: `apply_data` has one instance per data function and
    // driver, and inlining this into each grows `exec_data` by a third.
    #[inline(never)]
    fn post_effect(&mut self, w: u32, sel: &Selection, post: Post) {
        match post {
            Post::None => {}
            Post::Divider => {
                self.warps[w as usize].ready_at = self.cycle + DIV_LATENCY as u64;
            }
            Post::Sfu => self.sfu_suspend(w, sel),
        }
    }

    /// Execute one splat (always writes `rd`, never traps, scalarises under
    /// any mask).
    pub(crate) fn exec_splat(&mut self, w: u32, sel: &Selection, s: &SplatOp, costs: &mut Costs) {
        let splat = match s.src {
            SplatSrc::Imm(imm) => Splat::int(imm),
            SplatSrc::PcRel(imm) => {
                let target = sel.pc.wrapping_add(imm);
                if self.cheri() {
                    Splat::cap(Self::cap_of(sel.pcc_meta, sel.pc as u64).set_addr(target))
                } else {
                    Splat::int(target)
                }
            }
            SplatSrc::Csr(c) => {
                let val = match c {
                    // Hart ids advance by one per lane.
                    csr::MHARTID => OperandVec::Affine {
                        base: (self.hart_base + w * self.cfg.lanes) as u64,
                        stride: 1,
                    },
                    csr::SIMT_NUM_WARPS => OperandVec::Uniform(self.cfg.warps as u64),
                    csr::SIMT_LOG_LANES => {
                        OperandVec::Uniform(self.cfg.lanes.trailing_zeros() as u64)
                    }
                    csr::SIMT_NUM_THREADS => OperandVec::Uniform(self.device_threads as u64),
                    _ => OperandVec::Uniform(0),
                };
                Splat { val, meta: None }
            }
            // The live PCC or a special capability register.
            SplatSrc::Scr(scr::PCC) => Splat::cap(Self::cap_of(sel.pcc_meta, sel.pc as u64)),
            SplatSrc::Scr(s) => Splat::cap(CapPipe::from_mem(self.scrs[s as usize])),
        };
        self.writeback_splat(w, s.rd, &splat, sel.mask, costs);
    }

    /// Commit a [`Splat`] compactly, on either driver: `write_compact` is
    /// bit-identical to writing the expanded lanes.
    pub(crate) fn writeback_splat(
        &mut self,
        w: u32,
        rd: Reg,
        splat: &Splat,
        mask: u64,
        costs: &mut Costs,
    ) {
        self.writeback_compact(w, rd, &splat.val, splat.meta, mask, costs);
    }
}
