//! Execute stage: fetch check, issue classification and dispatch to the
//! op-class handlers.
//!
//! Owns instruction-issue accounting (`instrs`, `thread_instrs`,
//! `scalarised_issues`, the occupancy samples, the Issue trace event), the
//! per-warp PCC fetch check, the memory-class dispatch with its CSC
//! serialisation and capability multi-flit stalls, and the SFU suspension
//! helpers shared by the op-class handlers.
//!
//! Every issue is classified *before* execution (see [`super::classify`])
//! and the verdict routes it through [`Sm::execute`]: scalarised issues may
//! take the warp-wide fast path over compact operands (unless the host
//! disabled it with [`Sm::set_scalarise`]), per-lane issues always take the
//! lane-wise reference path. The handlers live in [`super::alu`],
//! [`super::flow`], [`super::sfu`] and [`super::capops`]; memory and
//! system ops are handled here because they are never scalarised.

use super::Costs;
use crate::config::TrapPolicy;
use crate::device::MemSystem;
use crate::rom::{pc_index, TrapPlan};
use crate::sm::Sm;
use crate::trap::{RunError, Trap, TrapCause};
use crate::warp::{Selection, ThreadStatus};
use simt_isa::{Instr, LoadWidth, Reg, SimtOp};
use simt_regfile::MAX_LANES;
use simt_trace::{IssueClass, StallCause, TraceEvent};

impl Sm {
    /// Select and issue one instruction for warp `w`, returning the
    /// selection that issued (the scheduler's block runner continues from
    /// it).
    ///
    /// # Errors
    ///
    /// Returns [`RunError::SchedulerInvariant`] — instead of aborting the
    /// process — if `w` has no selectable thread, plus everything
    /// [`Sm::issue_with`] can return.
    pub(crate) fn issue(&mut self, ms: &mut MemSystem, w: usize) -> Result<Selection, RunError> {
        let Some(sel) = self.warps[w].select() else {
            return Err(RunError::SchedulerInvariant { warp: w as u32, cycles: self.cycle });
        };
        self.issue_with(ms, w, sel)?;
        Ok(sel)
    }

    /// Issue one instruction for warp `w` under the given selection,
    /// applying the configured [`TrapPolicy`] to any trap the pipeline
    /// raises: `Abort` delivers it to the caller (ending the run),
    /// `MaskLanes` records it, disables the faulting lanes and keeps the
    /// warp running. Either way the trap is counted in
    /// [`crate::FaultStats`] and emitted as a `trap` trace event.
    pub(crate) fn issue_with(
        &mut self,
        ms: &mut MemSystem,
        w: usize,
        sel: Selection,
    ) -> Result<(), RunError> {
        match self.issue_inner(ms, w, sel) {
            Err(RunError::Trap(t)) => self.deliver_trap(t),
            other => other,
        }
    }

    fn deliver_trap(&mut self, t: Trap) -> Result<(), RunError> {
        let suppress = self.cfg.trap_policy == TrapPolicy::MaskLanes;
        self.stats.faults.traps += 1;
        self.stats.faults.faulting_lanes += t.lane_mask.count_ones() as u64;
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.emit(TraceEvent::Trap {
                cycle: self.cycle,
                warp: t.warp,
                pc: t.pc,
                mask: t.lane_mask,
                cause: t.cause.name(),
                suppressed: suppress,
            });
        }
        if !suppress {
            return Err(RunError::Trap(t));
        }
        // MaskLanes: permanently disable the faulting lanes; the surviving
        // lanes re-issue the instruction (each suppression removes at least
        // one active lane, so the warp always makes progress).
        self.stats.faults.suppressed += 1;
        let warp = &mut self.warps[t.warp as usize];
        for lane in 0..warp.lanes() as usize {
            if t.lane_mask >> lane & 1 == 1 {
                warp.set_status(lane, ThreadStatus::Faulted);
            }
        }
        self.suppressed.push(t);
        Ok(())
    }

    fn issue_inner(
        &mut self,
        ms: &mut MemSystem,
        w: usize,
        sel: Selection,
    ) -> Result<(), RunError> {
        let wid = u32::try_from(w).expect("warp index exceeds u32");

        // Fetch. The instruction-memory range check runs *first*, so a PC
        // outside the program traps as `fetch_oob` under every protection
        // scheme; the CHERI PCC check (one per warp, Section 3.3) then
        // covers in-range PCs reached on a non-launch PCC. See DESIGN.md
        // §3.3.4 for the ordering rationale.
        let idx = match pc_index(sel.pc) {
            Some(i) if i < self.rom.ops.len() => i,
            _ => {
                return Err(Trap::warp_wide(
                    wid,
                    sel.mask,
                    sel.pc,
                    TrapCause::FetchOutOfRange(sel.pc),
                )
                .into())
            }
        };
        if self.cheri()
            && !(self.pcc_fetch_ok
                && sel.pcc_meta == self.launch_pcc_meta
                && sel.pc.is_multiple_of(4))
        {
            let pcc = Self::cap_of(sel.pcc_meta, sel.pc as u64);
            if let Err(e) = pcc.check_fetch(sel.pc) {
                return Err(Trap::warp_wide(wid, sel.mask, sel.pc, TrapCause::Cheri(e)).into());
            }
        }
        // Decode + classify, both from the ROM: the cached static class
        // resolves through the dynamic register-class check. Classification
        // precedes execution so the event, the counter and the executed
        // path all report the same verdict.
        let Some(op) = self.rom.ops[idx] else {
            let cause = TrapCause::IllegalInstr(self.rom.words[idx]);
            return Err(Trap::warp_wide(wid, sel.mask, sel.pc, cause).into());
        };
        let (instr, plan) = (op.instr, op.plan);
        let class = self.resolve_issue_class(wid, &sel, instr, op.sclass);

        // Issue accounting.
        self.cycle += 1;
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.emit(TraceEvent::Issue {
                cycle: self.cycle,
                warp: wid,
                pc: sel.pc,
                mask: sel.mask,
                mnemonic: instr.mnemonic(),
                class,
            });
        }
        self.stats.instrs += 1;
        self.stats.thread_instrs += sel.mask.count_ones() as u64;
        if class == IssueClass::Scalarised {
            self.stats.scalarised_issues += 1;
        }
        self.samples += 1;
        self.sum_data_resident += self.data_rf.vrf_resident() as u64;
        if let Some(m) = &self.meta_rf {
            self.sum_meta_resident += m.vrf_resident() as u64;
        }

        let mut costs = Costs::default();
        let result = self.execute(ms, wid, &sel, instr, class, plan, &mut costs);

        // Apply accumulated costs.
        self.cycle += (costs.extra_cycles + costs.spill_cycles) as u64;
        self.stats.stalls.spill_fill += costs.spill_cycles as u64;
        self.emit_stall(wid, StallCause::SpillFill, costs.spill_cycles as u64);
        // Spill/fill traffic is rare; most issues skip the call.
        if costs.dram_reads + costs.dram_writes > 0 {
            self.dram_access(ms, wid, costs.dram_reads, costs.dram_writes, 0);
        }
        result
    }

    /// Execute `instr` for the selected threads of warp `w`, honouring the
    /// issue classifier's verdict: scalarised issues take the warp-wide
    /// compact path (when enabled), everything else the lane-wise one.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn execute(
        &mut self,
        ms: &mut MemSystem,
        w: u32,
        sel: &Selection,
        instr: Instr,
        class: IssueClass,
        plan: TrapPlan,
        costs: &mut Costs,
    ) -> Result<(), RunError> {
        let fast = self.scalarise && class == IssueClass::Scalarised;
        match instr {
            Instr::Lui { .. }
            | Instr::Auipc { .. }
            | Instr::OpImm { .. }
            | Instr::Op { .. }
            | Instr::MulDiv { .. }
            | Instr::Csrrs { .. } => {
                self.exec_alu_class(w, sel, instr, fast, costs);
                Ok(())
            }
            Instr::Jal { .. } | Instr::Jalr { .. } | Instr::Branch { .. } => {
                self.exec_flow_class(w, sel, instr, fast, costs)
            }
            Instr::FOp { .. }
            | Instr::FSqrt { .. }
            | Instr::FCmp { .. }
            | Instr::FCvtWS { .. }
            | Instr::FCvtSW { .. } => {
                self.exec_sfu_class(w, sel, instr, fast, costs);
                Ok(())
            }
            Instr::CapUnary { .. }
            | Instr::CAndPerm { .. }
            | Instr::CSetFlags { .. }
            | Instr::CSetAddr { .. }
            | Instr::CIncOffset { .. }
            | Instr::CIncOffsetImm { .. }
            | Instr::CSetBounds { .. }
            | Instr::CSetBoundsExact { .. }
            | Instr::CSetBoundsImm { .. }
            | Instr::CSpecialRw { .. } => self.exec_cap_class(w, sel, instr, fast, costs),
            Instr::Load { .. }
            | Instr::Store { .. }
            | Instr::Clc { .. }
            | Instr::Csc { .. }
            | Instr::Amo { .. } => self.exec_mem_class(ms, w, sel, instr, plan, costs),
            Instr::Fence | Instr::Ecall | Instr::Ebreak | Instr::Simt { .. } => {
                self.exec_sys_class(w, sel, instr)
            }
        }
    }

    /// Memory op class: loads, stores, capability-wide transfers and AMOs.
    /// Always per-lane (addresses diverge); the memory pipeline proper
    /// lives in [`super::memstage`].
    fn exec_mem_class(
        &mut self,
        ms: &mut MemSystem,
        w: u32,
        sel: &Selection,
        instr: Instr,
        plan: TrapPlan,
        costs: &mut Costs,
    ) -> Result<(), RunError> {
        let cheri = self.cheri();
        match instr {
            Instr::Load { w: lw, rd, rs1, off } => {
                if cheri {
                    self.stats.count_cheri(
                        match lw {
                            LoadWidth::B => "CLB",
                            LoadWidth::H => "CLH",
                            LoadWidth::W => "CLW",
                            LoadWidth::Bu => "CLBU",
                            LoadWidth::Hu => "CLHU",
                        },
                        1,
                    );
                }
                self.do_load_store(
                    ms,
                    w,
                    sel,
                    rs1,
                    Some(rd),
                    Reg::ZERO,
                    off,
                    lw.bytes(),
                    false,
                    false,
                    lw,
                    plan,
                    costs,
                )?;
            }
            Instr::Store { w: sw, rs2, rs1, off } => {
                if cheri {
                    self.stats.count_cheri(
                        match sw {
                            simt_isa::StoreWidth::B => "CSB",
                            simt_isa::StoreWidth::H => "CSH",
                            simt_isa::StoreWidth::W => "CSW",
                        },
                        1,
                    );
                }
                self.do_load_store(
                    ms,
                    w,
                    sel,
                    rs1,
                    None,
                    rs2,
                    off,
                    sw.bytes(),
                    true,
                    false,
                    LoadWidth::W,
                    plan,
                    costs,
                )?;
            }
            Instr::Clc { cd, cs1, off } => {
                self.stats.count_cheri("CLC", 1);
                self.cap_multi_flit_stall(w, costs);
                self.do_load_store(
                    ms,
                    w,
                    sel,
                    cs1,
                    Some(cd),
                    Reg::ZERO,
                    off,
                    8,
                    false,
                    true,
                    LoadWidth::W,
                    plan,
                    costs,
                )?;
            }
            Instr::Csc { cs2, cs1, off } => {
                self.stats.count_cheri("CSC", 1);
                self.cap_multi_flit_stall(w, costs);
                // Single-read-port metadata SRF: CSC needs cs1 and cs2
                // metadata, costing an extra operand-fetch cycle in the
                // optimised configuration (Section 3.2).
                if let Some(o) = self.opts {
                    if o.compress_meta {
                        costs.extra_cycles += 1;
                        self.stats.stalls.csc_serialisation += 1;
                        self.emit_stall(w, StallCause::CscSerialisation, 1);
                    }
                }
                self.do_load_store(
                    ms,
                    w,
                    sel,
                    cs1,
                    None,
                    cs2,
                    off,
                    8,
                    true,
                    true,
                    LoadWidth::W,
                    plan,
                    costs,
                )?;
            }
            Instr::Amo { op, rd, rs1, rs2 } => {
                if cheri {
                    self.stats.count_cheri("CAMO", 1);
                }
                let mut b = [0u64; MAX_LANES];
                self.read_data(w, rs2, &mut b, costs);
                self.do_amo(ms, w, sel, rs1, rd, op, &b, plan, costs)?;
            }
            _ => unreachable!("not a memory-class instruction"),
        }
        self.advance_uniform(w, sel, sel.pc.wrapping_add(4), None);
        Ok(())
    }

    /// The second flit of a capability-wide access (`CLC`/`CSC`) on the
    /// 32-bit datapath (Section 3.1).
    fn cap_multi_flit_stall(&mut self, w: u32, costs: &mut Costs) {
        self.stats.stalls.cap_multi_flit += self.cfg.timing.cap_access_extra as u64;
        self.emit_stall(w, StallCause::CapMultiFlit, self.cfg.timing.cap_access_extra as u64);
        costs.extra_cycles += self.cfg.timing.cap_access_extra;
    }

    /// System op class: fences, environment traps and SIMT control.
    fn exec_sys_class(&mut self, w: u32, sel: &Selection, instr: Instr) -> Result<(), RunError> {
        let status_change = match instr {
            Instr::Fence => None,
            Instr::Ecall | Instr::Ebreak => {
                return Err(Trap::warp_wide(w, sel.mask, sel.pc, TrapCause::Environment).into());
            }
            Instr::Simt { op: SimtOp::Terminate } => Some(ThreadStatus::Terminated),
            Instr::Simt { op: SimtOp::Barrier } => {
                self.stats.barriers += 1;
                if let Some(sink) = self.sink.as_deref_mut() {
                    sink.emit(TraceEvent::Barrier { cycle: self.cycle, warp: w, release: false });
                }
                Some(ThreadStatus::AtBarrier)
            }
            _ => unreachable!("not a system-class instruction"),
        };
        self.advance_uniform(w, sel, sel.pc.wrapping_add(4), status_change);
        Ok(())
    }

    pub(crate) fn sfu_suspend(&mut self, w: u32, sel: &Selection) {
        self.stats.sfu_requests += 1;
        let lat = self.cfg.timing.sfu_latency as u64 + sel.mask.count_ones() as u64;
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.emit(TraceEvent::Sfu {
                cycle: self.cycle,
                warp: w,
                lanes: sel.mask.count_ones(),
                latency: lat,
            });
        }
        self.warps[w as usize].ready_at = self.cycle + lat;
    }

    /// Capability slow-path ops: SFU round-trip when offloaded (optimised
    /// configuration), single-cycle per-lane logic otherwise.
    pub(crate) fn cap_sfu_suspend(&mut self, w: u32, sel: &Selection) {
        if self.opts.map(|o| o.sfu_cap_ops).unwrap_or(false) {
            self.sfu_suspend(w, sel);
        }
    }
}
