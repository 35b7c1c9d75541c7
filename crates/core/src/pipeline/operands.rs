//! Operand-collection stage: register-file reads.
//!
//! Owns the data/metadata RF read paths (including the NVO scalar path
//! inside the compressed register file), the shared-VRF serialisation
//! penalty and its `shared_vrf_conflict` counter, and the
//! capability-marshalling helpers shared by every stage downstream
//! (including [`CapMemo`], the per-warp decode memo of the lane-wise
//! capability loops).

use super::Costs;
use crate::sm::Sm;
use cheri_cap::{CapMem, CapPipe};
use simt_isa::Reg;
use simt_regfile::{OperandVec, ReadInfo, MAX_LANES, NULL_META};
use simt_trace::StallCause;

impl Sm {
    pub(crate) fn cheri(&self) -> bool {
        self.opts.is_some()
    }

    pub(crate) fn read_data(
        &mut self,
        w: u32,
        reg: Reg,
        out: &mut [u64; MAX_LANES],
        costs: &mut Costs,
    ) -> ReadInfo {
        if reg.is_zero() {
            out[..self.cfg.lanes as usize].fill(0);
            return ReadInfo::default();
        }
        let info = self.data_rf.read(w, reg.index() as u32, out);
        costs.add_read(self.cfg.timing.spill_cycles, self.cfg.lanes, info);
        info
    }

    pub(crate) fn read_meta(
        &mut self,
        w: u32,
        reg: Reg,
        out: &mut [u64; MAX_LANES],
        costs: &mut Costs,
    ) -> ReadInfo {
        if reg.is_zero() {
            out[..self.cfg.lanes as usize].fill(NULL_META);
            return ReadInfo::default();
        }
        let lanes = self.cfg.lanes;
        let spill = self.cfg.timing.spill_cycles;
        match self.meta_rf.as_mut() {
            Some(rf) => {
                let info = rf.read(w, reg.index() as u32, out);
                costs.add_read(spill, lanes, info);
                info
            }
            None => {
                out[..lanes as usize].fill(NULL_META);
                ReadInfo::default()
            }
        }
    }

    /// Compact read of a data operand: the stored register-file form
    /// without lane expansion. Cost accounting matches [`Sm::read_data`]
    /// exactly (compact entries never spill or fill, so on the scalarised
    /// path this is free, as the lane-wise read of the same entry is).
    pub(crate) fn read_data_compact(&mut self, w: u32, reg: Reg, costs: &mut Costs) -> OperandVec {
        if reg.is_zero() {
            return OperandVec::Uniform(0);
        }
        let (v, info) = self.data_rf.read_compact(w, reg.index() as u32);
        costs.add_read(self.cfg.timing.spill_cycles, self.cfg.lanes, info);
        v
    }

    /// Compact read of a full capability operand (data + metadata), the
    /// counterpart of [`Sm::read_cap_operand`] including its shared-VRF
    /// serialisation penalty (which cannot fire for the compact entries the
    /// issue classifier admits, but the bookkeeping stays in one shape).
    pub(crate) fn read_cap_compact(
        &mut self,
        w: u32,
        reg: Reg,
        costs: &mut Costs,
    ) -> (OperandVec, OperandVec) {
        let lanes = self.cfg.lanes;
        let spill = self.cfg.timing.spill_cycles;
        let (d, di) = if reg.is_zero() {
            (OperandVec::Uniform(0), ReadInfo::default())
        } else {
            let (v, info) = self.data_rf.read_compact(w, reg.index() as u32);
            costs.add_read(spill, lanes, info);
            (v, info)
        };
        let (m, mi) = match self.meta_rf.as_mut() {
            Some(rf) if !reg.is_zero() => {
                let (v, info) = rf.read_compact(w, reg.index() as u32);
                costs.add_read(spill, lanes, info);
                (v, info)
            }
            _ => (OperandVec::Uniform(NULL_META), ReadInfo::default()),
        };
        if let Some(o) = self.opts {
            if o.shared_vrf && di.from_vrf && mi.from_vrf {
                costs.extra_cycles += 1;
                self.stats.stalls.shared_vrf_conflict += 1;
                self.emit_stall(w, StallCause::SharedVrfConflict, 1);
            }
        }
        (d, m)
    }

    /// Read a full capability operand: data (address) + metadata, with the
    /// shared-VRF serialisation penalty when both halves are uncompressed.
    pub(crate) fn read_cap_operand(
        &mut self,
        w: u32,
        reg: Reg,
        data: &mut [u64; MAX_LANES],
        meta: &mut [u64; MAX_LANES],
        costs: &mut Costs,
    ) {
        let d = self.read_data(w, reg, data, costs);
        let m = self.read_meta(w, reg, meta, costs);
        if let Some(o) = self.opts {
            if o.shared_vrf && d.from_vrf && m.from_vrf {
                costs.extra_cycles += 1;
                self.stats.stalls.shared_vrf_conflict += 1;
                self.emit_stall(w, StallCause::SharedVrfConflict, 1);
            }
        }
    }

    // ---- Capability marshalling ----

    #[inline]
    pub(crate) fn cap_of(meta: u64, addr: u64) -> CapPipe {
        CapPipe::from_mem(CapMem::from_parts(meta as u32, addr as u32, meta >> 32 & 1 == 1))
    }

    #[inline]
    pub(crate) fn cap_parts(cap: CapPipe) -> (u64, u64) {
        let m = cap.to_mem();
        (m.meta() as u64 | ((m.tag() as u64) << 32), m.addr() as u64)
    }
}

/// Where the memory check phase, the capability ops and `CJALR` get each
/// lane's [`CapPipe`]: a one-entry memo keyed on the metadata word (tag
/// included). On a hit the
/// previous lane's capability moves to this lane's address with
/// [`CapPipe::with_addr`] — two compares inside its representable region,
/// one decode outside it — so a warp with uniform metadata decodes once.
/// The result is exactly [`Sm::cap_of`] either way.
#[derive(Default)]
pub(crate) struct CapMemo(Option<(u64, CapPipe)>);

impl CapMemo {
    #[inline]
    pub(crate) fn get(&mut self, meta: u64, addr: u64) -> CapPipe {
        let cap = match self.0 {
            Some((m, last)) if m == meta => last.with_addr(addr as u32),
            _ => Sm::cap_of(meta, addr),
        };
        self.0 = Some((meta, cap));
        cap
    }
}
