//! Writeback stage: register-file writes and PC/status commit.
//!
//! Every result leaves an op through one of two entry points: [`Sm::writeback`]
//! for lane vectors (the lane-wise driver and the memory stage) and
//! [`Sm::writeback_compact`] for compact results (the warp-wide driver and
//! every splat). Both share one commit, which skips `x0`, writes the
//! metadata file exactly when CHERI is on, emits the `rf_transition` trace
//! event and charges spill/fill costs. The stage also commits the selected
//! threads' PCs and status changes, as lane-mask operations on the warp's
//! `(pc, mask)` groups.

use super::Costs;
use crate::sm::Sm;
use crate::warp::{Selection, ThreadStatus};
use simt_isa::Reg;
use simt_regfile::{CompressedRegFile, OperandVec, WriteInfo, NULL_META};
use simt_trace::{RfKind, TraceEvent};

impl Sm {
    /// Commit a result to `rd`: `data` writes the data register file and,
    /// under CHERI, `meta` the metadata one. Inlined into both entry points
    /// so each binds its own writes.
    #[inline(always)]
    fn commit(
        &mut self,
        w: u32,
        rd: Reg,
        costs: &mut Costs,
        data: impl FnOnce(&mut CompressedRegFile, u32) -> WriteInfo,
        meta: impl FnOnce(&mut CompressedRegFile, u32) -> WriteInfo,
    ) {
        if rd.is_zero() {
            return;
        }
        let reg = rd.index() as u32;
        let (sink, cycle, cfg) = (&mut self.sink, self.cycle, &self.cfg);
        let mut account = |rf, info: WriteInfo| {
            if let (Some(to_vector), Some(sink)) = (info.transition, sink.as_deref_mut()) {
                sink.emit(TraceEvent::RfTransition { cycle, warp: w, rf, reg, to_vector });
            }
            costs.add_spill_fill(cfg, info.fills, info.spills);
        };
        account(RfKind::Data, data(&mut self.data_rf, reg));
        if let Some(rf) = self.meta_rf.as_mut() {
            account(RfKind::Meta, meta(rf, reg));
        }
    }

    /// The lane form: `r` under `mask`, with (under CHERI) the metadata `rm`
    /// of a capability result or null metadata for an integer one.
    pub(crate) fn writeback(
        &mut self,
        w: u32,
        rd: Reg,
        r: &[u64],
        rm: Option<&[u64]>,
        mask: u64,
        costs: &mut Costs,
    ) {
        self.commit(
            w,
            rd,
            costs,
            |rf, reg| rf.write(w, reg, r, mask),
            |rf, reg| match rm {
                Some(rm) => rf.write(w, reg, rm, mask),
                // One compact write, without the compressor scan.
                None => rf.write_compact(w, reg, &OperandVec::Uniform(NULL_META), mask),
            },
        );
    }

    /// The compact form: `val` under `mask`, with (under CHERI) the uniform
    /// metadata `meta` of a capability result or null metadata for an
    /// integer one. Bit-identical to [`Sm::writeback`] over the expanded
    /// equivalents (`write_compact`'s contract).
    pub(crate) fn writeback_compact(
        &mut self,
        w: u32,
        rd: Reg,
        val: &OperandVec,
        meta: Option<u64>,
        mask: u64,
        costs: &mut Costs,
    ) {
        let meta = OperandVec::Uniform(meta.unwrap_or(NULL_META));
        self.commit(
            w,
            rd,
            costs,
            |rf, reg| rf.write_compact(w, reg, val, mask),
            |rf, reg| rf.write_compact(w, reg, &meta, mask),
        );
    }

    /// Commit every selected thread stepping to the same `next_pc` and
    /// ending in `status` (`Active` to stay runnable). A converged warp
    /// renames its one PC group; otherwise the selection moves as one mask.
    pub(crate) fn advance_uniform(
        &mut self,
        w: u32,
        sel: &Selection,
        next_pc: u32,
        status: ThreadStatus,
    ) {
        if status == ThreadStatus::AtBarrier {
            self.maybe_parked = true;
        }
        self.warps[w as usize].advance_uniform(sel.mask, sel.pc, next_pc, status);
    }
}
