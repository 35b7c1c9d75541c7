//! Control-flow op class: `JAL`, `JALR` and conditional branches.
//!
//! Under CHERI, `JAL`/`JALR` become `CJAL`/`CJALR`: the link register is a
//! sealed (sentry) capability and the jump target is fetch-checked against
//! the unsealed target capability, per lane. Warp-invariant flow resolves
//! one target per warp — `JAL` (the target is an immediate), non-CHERI
//! `JALR` with a uniform base, and branches whose operands are uniform so
//! the whole warp takes one direction, reading those operands as free SRF
//! peeks; otherwise the same target function runs per active lane. The
//! link is one [`Splat`], committed compactly on every path (`JAL`,
//! `JALR` and `CJALR`, warp-wide or lane-wise).

use super::data::Splat;
use super::operands::CapMemo;
use super::scalar::expect_uniform;
use super::{active_lanes, Costs};
use crate::exec;
use crate::rom::{BranchOp, JalOp, JalrOp};
use crate::sm::{LaneBufs, Sm};
use crate::trap::{LaneFault, Trap, TrapCause};
use crate::warp::{Selection, ThreadStatus};

impl Sm {
    /// What `JAL`/`JALR` write to `rd`: the sequential PC — under CHERI as
    /// a sentry capability derived from the PCC.
    fn link(&self, sel: &Selection) -> Splat {
        let seq = sel.pc.wrapping_add(4);
        if self.cheri() {
            Splat::cap(Self::cap_of(sel.pcc_meta, sel.pc as u64).set_addr(seq).seal_entry())
        } else {
            Splat::int(seq)
        }
    }

    /// `JAL`: scalarises under any mask, cannot trap.
    pub(crate) fn exec_jal(&mut self, w: u32, sel: &Selection, j: &JalOp, costs: &mut Costs) {
        let link = self.link(sel);
        self.writeback_splat(w, j.rd, &link, sel.mask, costs);
        self.advance_uniform(w, sel, sel.pc.wrapping_add(j.off), ThreadStatus::Active);
    }

    /// Conditional branch (never traps).
    pub(crate) fn exec_branch(
        &mut self,
        w: u32,
        sel: &Selection,
        br: &BranchOp,
        fast: bool,
        costs: &mut Costs,
    ) {
        let (seq, target) = (sel.pc.wrapping_add(4), sel.pc.wrapping_add(br.off));
        let next = |x: u64, y: u64| {
            if exec::branch_taken(br.cond, x as u32, y as u32) {
                target
            } else {
                seq
            }
        };
        if fast {
            let x = expect_uniform(&self.peek_data(w, br.rs1));
            let y = expect_uniform(&self.peek_data(w, br.rs2));
            self.advance_uniform(w, sel, next(x, y), ThreadStatus::Active);
        } else {
            // Scratch staleness audit: `a`/`b` are fully overwritten by the
            // reads; `pcs` is written for every lane `advance` reads.
            self.with_bufs(|sm, bufs| {
                let LaneBufs { a, b, pcs, .. } = bufs;
                sm.read_data(w, br.rs1, a, costs);
                sm.read_data(w, br.rs2, b, costs);
                for i in active_lanes(sel.mask, sm.cfg.lanes as usize) {
                    pcs[i] = next(a[i], b[i]);
                }
                sm.warps[w as usize].advance(sel.mask, sel.pc, pcs);
            });
        }
    }

    /// `JALR`.
    ///
    /// # Errors
    ///
    /// CHERI `JALR` traps when the target capability fails the fetch check.
    pub(crate) fn exec_jalr(
        &mut self,
        w: u32,
        sel: &Selection,
        j: &JalrOp,
        fast: bool,
        costs: &mut Costs,
    ) -> Result<(), Box<Trap>> {
        let next = |base: u64| (base as u32).wrapping_add(j.off) & !1;
        if self.cheri() {
            // Statically never scalarised: it installs a per-lane PCC.
            self.with_bufs(|sm, bufs| sm.exec_cjalr(bufs, w, sel, j, costs))?;
        } else if fast {
            let base = expect_uniform(&self.peek_data(w, j.rs1));
            self.advance_uniform(w, sel, next(base), ThreadStatus::Active);
        } else {
            self.with_bufs(|sm, bufs| {
                sm.read_data(w, j.rs1, &mut bufs.a, costs);
                for i in active_lanes(sel.mask, sm.cfg.lanes as usize) {
                    bufs.pcs[i] = next(bufs.a[i]);
                }
                sm.warps[w as usize].advance(sel.mask, sel.pc, &bufs.pcs);
            });
        }
        // Every form writes the link the same way, after reading `rs1`.
        let link = self.link(sel);
        self.writeback_splat(w, j.rd, &link, sel.mask, costs);
        Ok(())
    }

    /// `CJALR`'s check and PC commit, lane-wise (the caller writes the
    /// link). Scratch staleness audit: `a`/`am` are fully overwritten by the
    /// operand read; `metas` (the spare `bm` scratch) and `pcs` are written
    /// for every active lane that survives the check phase before any lane
    /// reads them back.
    fn exec_cjalr(
        &mut self,
        bufs: &mut LaneBufs,
        w: u32,
        sel: &Selection,
        j: &JalrOp,
        costs: &mut Costs,
    ) -> Result<(), Box<Trap>> {
        let lanes = self.cfg.lanes as usize;
        let LaneBufs { a, am, bm: metas, pcs, .. } = bufs;
        self.read_cap_operand(w, j.rs1, a, am, costs);
        // Check phase: fetch-check every active lane's target before
        // installing any lane's PCC metadata, so a trap leaves the whole
        // warp's PCC state untouched.
        let mut faults: Vec<LaneFault> = Vec::new();
        let mut caps = CapMemo::default();
        for i in active_lanes(sel.mask, lanes) {
            let cap = caps.get(am[i], a[i]);
            let target = cap.addr().wrapping_add(j.off) & !1;
            let cap = cap.unseal_sentry();
            if let Err(e) = cap.check_fetch(target) {
                faults.push(LaneFault { lane: i as u32, cause: TrapCause::Cheri(e) });
                continue;
            }
            (metas[i], _) = Self::cap_parts(cap);
            pcs[i] = target;
        }
        if let Some(t) = Trap::from_lane_faults(w, sel.pc, faults) {
            return Err(t.into());
        }
        for i in active_lanes(sel.mask, lanes) {
            self.warps[w as usize].set_pcc_meta(i, metas[i]);
        }
        self.warps[w as usize].advance(sel.mask, sel.pc, pcs);
        Ok(())
    }
}
