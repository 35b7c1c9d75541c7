//! Operand-collection stage: register-file reads.
//!
//! Two read forms, one per execute driver. The lane-wise driver reads
//! whole vectors ([`Sm::read_data`], [`Sm::read_cap_operand`]); only these
//! reads can fill or spill a register or read the VRF, so they own the
//! spill/fill costs, the shared-VRF serialisation penalty and its
//! `shared_vrf_conflict` counter. The warp-wide driver only reads registers
//! its issue's scalarisation rule proved compact, and a compact SRF entry
//! never fills, spills or touches the VRF, so those reads are free peeks
//! ([`Sm::peek_data`], [`Sm::peek_meta`]). The module also holds the
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
        costs.add_spill_fill(&self.cfg, info.fills, info.spills);
        info
    }

    /// Read a full capability operand: data (address) + metadata (null
    /// without a metadata register file), with the shared-VRF serialisation
    /// penalty when both halves are uncompressed.
    pub(crate) fn read_cap_operand(
        &mut self,
        w: u32,
        reg: Reg,
        data: &mut [u64; MAX_LANES],
        meta: &mut [u64; MAX_LANES],
        costs: &mut Costs,
    ) {
        let d = self.read_data(w, reg, data, costs);
        let Some(rf) = self.meta_rf.as_mut().filter(|_| !reg.is_zero()) else {
            meta[..self.cfg.lanes as usize].fill(NULL_META);
            return;
        };
        let m = rf.read(w, reg.index() as u32, meta);
        costs.add_spill_fill(&self.cfg, m.fills, m.spills);
        if d.from_vrf && m.from_vrf && self.opts.is_some_and(|o| o.compress_meta) {
            costs.extra_cycles += 1;
            self.stats.stalls.shared_vrf_conflict += 1;
            self.emit_stall(w, StallCause::SharedVrfConflict, 1);
        }
    }

    /// A data operand the issue's scalarisation rule proved compact, in its
    /// stored form: an SRF peek, which fills, spills and costs nothing.
    pub(crate) fn peek_data(&mut self, w: u32, reg: Reg) -> OperandVec {
        if reg.is_zero() {
            return OperandVec::Uniform(0);
        }
        let (v, info) = self.data_rf.read_compact(w, reg.index() as u32);
        debug_assert_eq!(info, ReadInfo::default(), "peek of a non-compact {reg:?}");
        v
    }

    /// The metadata of a capability operand the rule proved uniform, as
    /// [`Sm::peek_data`] (null without a metadata register file).
    pub(crate) fn peek_meta(&mut self, w: u32, reg: Reg) -> OperandVec {
        match self.meta_rf.as_mut() {
            Some(rf) if !reg.is_zero() => {
                let (v, info) = rf.read_compact(w, reg.index() as u32);
                debug_assert_eq!(info, ReadInfo::default(), "peek of a non-compact {reg:?}");
                v
            }
            _ => OperandVec::Uniform(NULL_META),
        }
    }

    // ---- Capability marshalling ----

    #[inline]
    pub(crate) fn cap_of(meta: u64, addr: u64) -> CapPipe {
        CapPipe::from_mem(unpack_meta(meta, addr as u32))
    }

    #[inline]
    pub(crate) fn cap_parts(cap: CapPipe) -> (u64, u64) {
        let m = cap.to_mem();
        (pack_meta(m), m.addr() as u64)
    }
}

/// A capability's 33-bit metadata word, `meta | tag << 32`: the form the
/// metadata register file, the warps' PCC and `Sm::launch_pcc_meta` hold.
#[inline]
pub(crate) fn pack_meta(c: CapMem) -> u64 {
    c.meta() as u64 | (c.tag() as u64) << 32
}

/// The capability whose metadata word is `meta` (see [`pack_meta`]) at
/// address `addr`.
#[inline]
pub(crate) fn unpack_meta(meta: u64, addr: u32) -> CapMem {
    CapMem::from_parts(meta as u32, addr, meta >> 32 & 1 == 1)
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
