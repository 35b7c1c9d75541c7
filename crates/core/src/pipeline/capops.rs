//! Capability op class: unary capability queries/moves and capability
//! arithmetic (the pointer-shaped ops of Section 3), with the SFU offload
//! of the cold bounds ops (Section 3.3).
//!
//! Each op's meaning is one lane function ([`cap_lane`]) from the operand
//! capability and the scalar operand to the result, applied in one of two
//! ways: per active lane over the loaned [`LaneBufs`], or once per warp
//! when the whole capability operand (data *and* metadata) and the scalar
//! are warp-uniform. Either way an op that reads the operand capability
//! takes it from a [`CapMemo`], so lanes sharing a metadata word share one
//! decode.
//! `CSetBoundsExact` is check-then-commit on both, as in the memory stage.

use super::operands::CapMemo;
use super::scalar::expect_uniform;
use super::{active_lanes, Costs};
use crate::rom::{CapFn, CapOp, Src2};
use crate::sm::{LaneBufs, Sm};
use crate::trap::{LaneFault, Trap, TrapCause};
use crate::warp::Selection;
use cheri_cap::{bounds, CapException, CapPipe, Perms};
use simt_isa::UnaryCapOp;
use simt_regfile::{OperandVec, NULL_META};

/// One lane of a capability op, `(metadata, data)` of the result out (the
/// metadata is dropped unless the op writes a capability).
#[derive(Clone, Copy)]
enum CapLane {
    /// From the operand capability `cs1` and the scalar operand.
    Cap(fn(CapPipe, u32) -> (u64, u64)),
    /// From the raw `(metadata, data)` of `cs1` alone, building no
    /// capability: `CMove`, `CRRL` and `CRAM`.
    Raw(fn(u64, u64) -> (u64, u64)),
}

impl CapLane {
    /// Apply to one lane's operands `(m, d)` and `b`, taking the operand
    /// capability (if any) from `caps`.
    #[inline]
    fn apply(self, caps: &mut CapMemo, m: u64, d: u64, b: u32) -> (u64, u64) {
        match self {
            CapLane::Cap(f) => f(caps.get(m, d), b),
            CapLane::Raw(f) => f(m, d),
        }
    }
}

/// The lane function of `f`.
fn cap_lane(f: CapFn) -> CapLane {
    use CapLane::{Cap, Raw};
    fn int(v: u64) -> (u64, u64) {
        (NULL_META, v)
    }
    fn parts(cap: CapPipe) -> (u64, u64) {
        Sm::cap_parts(cap)
    }
    match f {
        CapFn::Unary(op) => match op {
            UnaryCapOp::GetTag => Cap(|c, _| int(c.tag() as u64)),
            UnaryCapOp::GetPerm => Cap(|c, _| int(c.perms().bits() as u64)),
            UnaryCapOp::GetBase => Cap(|c, _| int(c.base() as u64)),
            UnaryCapOp::GetLen => Cap(|c, _| int(c.length().min(u32::MAX as u64))),
            UnaryCapOp::GetType => Cap(|c, _| int(c.otype() as u64)),
            UnaryCapOp::GetSealed => Cap(|c, _| int(c.is_sealed() as u64)),
            UnaryCapOp::GetFlags => Cap(|c, _| int(c.flag() as u64)),
            UnaryCapOp::GetAddr => Cap(|c, _| int(c.addr() as u64)),
            UnaryCapOp::Crrl => {
                Raw(|_, d| int(bounds::representable_length(d as u32).min(u32::MAX as u64)))
            }
            UnaryCapOp::Cram => {
                Raw(|_, d| int(bounds::representable_alignment_mask(d as u32) as u64))
            }
            UnaryCapOp::ClearTag => Cap(|c, _| parts(c.clear_tag())),
            UnaryCapOp::Move => Raw(|m, d| (m, d)),
            UnaryCapOp::SealEntry => Cap(|c, _| parts(c.seal_entry())),
        },
        CapFn::AndPerm => Cap(|c, b| parts(c.and_perm(Perms::from_bits(b as u16)))),
        CapFn::SetFlags => Cap(|c, b| parts(c.set_flags(b & 1 == 1))),
        CapFn::SetAddr => Cap(|c, b| parts(c.set_addr(b))),
        CapFn::IncOffset => Cap(|c, b| parts(c.inc_offset(b))),
        CapFn::SetBounds => Cap(|c, b| parts(c.set_bounds(b).0)),
        CapFn::SetBoundsExact => Cap(|c, b| parts(c.set_bounds_exact(b))),
    }
}

/// Does `CSetBoundsExact` trap on this lane? A tagged, unsealed source with
/// an unrepresentable bounds request raises `InexactBounds`.
fn inexact_bounds(cap: CapPipe, len: u32) -> bool {
    let (_, exact) = cap.set_bounds(len);
    cap.tag() && !cap.is_sealed() && !exact
}

const INEXACT: TrapCause = TrapCause::Cheri(CapException::InexactBounds);

impl Sm {
    /// Execute one capability op (always writes `rd`). Warp-wide, one
    /// capability computation stands for every lane, and a uniform source
    /// means one representability verdict does too; lane-wise, `a`/`am`/`b`
    /// of the loaned scratch are fully overwritten by the operand reads (`b`
    /// filled with the immediate where there is no register), `r`/`rm` are
    /// written for each active lane and committed under the mask, and `rm`
    /// is read only for capability results.
    ///
    /// # Errors
    ///
    /// `CSetBoundsExact` traps with `InexactBounds` when a tagged, unsealed
    /// source capability is given an unrepresentable bounds request; no lane
    /// commits on a trap.
    pub(crate) fn exec_cap(
        &mut self,
        w: u32,
        sel: &Selection,
        c: &CapOp,
        fast: bool,
        costs: &mut Costs,
    ) -> Result<(), Box<Trap>> {
        let f = cap_lane(c.f);
        let mask = sel.mask;
        let mut caps = CapMemo::default();
        if fast {
            let d = expect_uniform(&self.peek_data(w, c.cs1));
            let m = expect_uniform(&self.peek_meta(w, c.cs1));
            let b = match c.src2 {
                Src2::Reg(rs2) => expect_uniform(&self.peek_data(w, rs2)) as u32,
                Src2::Imm(imm) => imm,
            };
            if c.f == CapFn::SetBoundsExact && inexact_bounds(caps.get(m, d), b) {
                return Err(Trap::warp_wide(w, mask, sel.pc, INEXACT).into());
            }
            let (rm, r) = f.apply(&mut caps, m, d, b);
            if c.sfu {
                self.cap_sfu_suspend(w, sel);
            }
            let meta = c.cap_result.then_some(rm);
            self.writeback_compact(w, c.rd, &OperandVec::Uniform(r), meta, mask, costs);
            return Ok(());
        }
        self.with_bufs(|sm, bufs| {
            let lanes = sm.cfg.lanes as usize;
            let LaneBufs { a, am, b, r, rm, .. } = bufs;
            sm.read_cap_operand(w, c.cs1, a, am, costs);
            match c.src2 {
                Src2::Reg(rs2) => {
                    sm.read_data(w, rs2, b, costs);
                }
                Src2::Imm(imm) => b[..lanes].fill(imm as u64),
            }
            if c.f == CapFn::SetBoundsExact {
                // Check phase: no lane commits if any lane faults.
                let faults = active_lanes(mask, lanes)
                    .filter(|&i| inexact_bounds(caps.get(am[i], a[i]), b[i] as u32))
                    .map(|i| LaneFault { lane: i as u32, cause: INEXACT })
                    .collect();
                if let Some(t) = Trap::from_lane_faults(w, sel.pc, faults) {
                    return Err(t.into());
                }
            }
            for i in active_lanes(mask, lanes) {
                (rm[i], r[i]) = f.apply(&mut caps, am[i], a[i], b[i] as u32);
            }
            if c.sfu {
                sm.cap_sfu_suspend(w, sel);
            }
            sm.writeback(w, c.rd, &r[..], c.cap_result.then_some(&rm[..]), mask, costs);
            Ok(())
        })
    }
}
