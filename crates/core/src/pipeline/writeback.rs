//! Writeback stage: register-file writes and PC/status commit.
//!
//! Owns the data/metadata write paths (spill/fill costing, the
//! `rf_transition` trace event) and the final commit of the selected
//! threads' PCs and status changes, as lane-mask operations on the warp's
//! `(pc, mask)` groups.

use super::Costs;
use crate::sm::Sm;
use crate::warp::{Selection, ThreadStatus};
use simt_isa::Reg;
use simt_regfile::{OperandVec, WriteInfo, NULL_META};
use simt_trace::{RfKind, TraceEvent};

impl Sm {
    /// Account for one register-file write: emit its residency-class
    /// transition, if it made one, and charge its spill/fill cost.
    fn commit_write(&mut self, w: u32, rf: RfKind, rd: Reg, info: WriteInfo, costs: &mut Costs) {
        if let (Some(to_vector), Some(sink)) = (info.transition, self.sink.as_deref_mut()) {
            sink.emit(TraceEvent::RfTransition {
                cycle: self.cycle,
                warp: w,
                rf,
                reg: rd.index() as u32,
                to_vector,
            });
        }
        costs.add_write(self.cfg.timing.spill_cycles, self.cfg.lanes, info);
    }

    pub(crate) fn write_data(
        &mut self,
        w: u32,
        rd: Reg,
        vals: &[u64],
        mask: u64,
        costs: &mut Costs,
    ) {
        if rd.is_zero() {
            return;
        }
        let info = self.data_rf.write(w, rd.index() as u32, vals, mask);
        self.commit_write(w, RfKind::Data, rd, info, costs);
    }

    pub(crate) fn write_meta(
        &mut self,
        w: u32,
        rd: Reg,
        vals: &[u64],
        mask: u64,
        costs: &mut Costs,
    ) {
        if rd.is_zero() {
            return;
        }
        if let Some(rf) = self.meta_rf.as_mut() {
            let info = rf.write(w, rd.index() as u32, vals, mask);
            self.commit_write(w, RfKind::Meta, rd, info, costs);
        }
    }

    /// Null metadata for an integer result, as one compact uniform write
    /// (bit-identical to writing a null vector, without the compressor scan).
    pub(crate) fn write_meta_null(&mut self, w: u32, rd: Reg, mask: u64, costs: &mut Costs) {
        if self.cheri() {
            self.write_meta_compact(w, rd, &OperandVec::Uniform(NULL_META), mask, costs);
        }
    }

    /// The common result-commit tail of the lane-wise execute path: data
    /// write plus (under CHERI) the matching metadata — `rm` for
    /// capability results, null metadata otherwise.
    pub(crate) fn writeback(
        &mut self,
        w: u32,
        rd: Reg,
        r: &[u64],
        rm: Option<&[u64]>,
        mask: u64,
        costs: &mut Costs,
    ) {
        self.write_data(w, rd, r, mask, costs);
        if self.cheri() {
            match rm {
                Some(rm) => self.write_meta(w, rd, rm, mask, costs),
                None => self.write_meta_null(w, rd, mask, costs),
            }
        }
    }

    /// Compact data write: the counterpart of [`Sm::write_data`] accepting
    /// the result in register-file form (no recompression scan on the
    /// scalarised path).
    pub(crate) fn write_data_compact(
        &mut self,
        w: u32,
        rd: Reg,
        val: &OperandVec,
        mask: u64,
        costs: &mut Costs,
    ) {
        if rd.is_zero() {
            return;
        }
        let info = self.data_rf.write_compact(w, rd.index() as u32, val, mask);
        self.commit_write(w, RfKind::Data, rd, info, costs);
    }

    /// Compact metadata write (no-op without a metadata register file).
    pub(crate) fn write_meta_compact(
        &mut self,
        w: u32,
        rd: Reg,
        val: &OperandVec,
        mask: u64,
        costs: &mut Costs,
    ) {
        if rd.is_zero() {
            return;
        }
        if let Some(rf) = self.meta_rf.as_mut() {
            let info = rf.write_compact(w, rd.index() as u32, val, mask);
            self.commit_write(w, RfKind::Meta, rd, info, costs);
        }
    }

    /// The result-commit tail of the scalarised execute path: compact data
    /// write plus (under CHERI) the capability metadata (`meta` for
    /// capability results, null metadata otherwise). Bit-identical to
    /// [`Sm::writeback`] over the expanded equivalents.
    pub(crate) fn writeback_compact(
        &mut self,
        w: u32,
        rd: Reg,
        val: &OperandVec,
        meta: Option<&OperandVec>,
        mask: u64,
        costs: &mut Costs,
    ) {
        self.write_data_compact(w, rd, val, mask, costs);
        if self.cheri() {
            let null = OperandVec::Uniform(NULL_META);
            self.write_meta_compact(w, rd, meta.unwrap_or(&null), mask, costs);
        }
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
