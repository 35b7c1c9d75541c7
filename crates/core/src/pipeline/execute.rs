//! Execute stage: fetch check, issue classification and dispatch to the
//! op-class handlers.
//!
//! Owns instruction-issue accounting (`instrs`, `thread_instrs`,
//! `scalarised_issues`, the `cheri_histogram` slots, the Issue trace
//! event), the per-warp PCC fetch check, the memory-class handler with its
//! CSC serialisation and capability multi-flit stalls, and the SFU
//! suspension helpers shared by the op-class handlers.
//!
//! An issue indexes the program ROM, evaluates the slot's pre-bound
//! scalarisation rule (see [`super::classify`]) and calls the handler of
//! the slot's resolved [`Op`]: scalarised issues run on the warp-wide
//! driver over compact operands (unless the host disabled it with
//! [`Sm::set_scalarise`]), per-lane issues on the lane-wise one. The
//! handlers live in [`super::data`], [`super::flow`] and [`super::capops`];
//! memory and system ops are handled here because they are never
//! scalarised.

use super::Costs;
use crate::config::{TrapPolicy, CAP_ACCESS_EXTRA, SFU_LATENCY};
use crate::device::MemSystem;
use crate::rom::{pc_index, Decoded, MemOp, Op, SysOp};
use crate::sm::Sm;
use crate::trap::{RunError, Trap, TrapCause};
use crate::warp::{Selection, ThreadStatus};
use simt_trace::{IssueClass, StallCause, TraceEvent};

impl Sm {
    /// Select and issue one instruction for warp `w`, applying the
    /// configured [`TrapPolicy`] to any trap the pipeline raises: `Abort`
    /// delivers it to the caller (ending the run), `MaskLanes` records it,
    /// disables the faulting lanes and keeps the warp running. Either way
    /// the trap is counted in [`crate::FaultStats`] and emitted as a `trap`
    /// trace event.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Trap`] under `Abort`, and
    /// [`RunError::SchedulerInvariant`] — instead of aborting the process —
    /// if `w` has no selectable thread.
    pub(crate) fn issue(&mut self, ms: &mut MemSystem, w: u32) -> Result<(), RunError> {
        let Some(sel) = self.warps[w as usize].select() else {
            return Err(RunError::SchedulerInvariant { warp: w, cycles: self.cycle });
        };
        match self.issue_inner(ms, w, &sel) {
            Ok(()) => Ok(()),
            Err(t) => self.deliver_trap(*t),
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
        self.warps[t.warp as usize].retire(t.lane_mask, ThreadStatus::Faulted);
        self.suppressed.push(t);
        Ok(())
    }

    fn issue_inner(
        &mut self,
        ms: &mut MemSystem,
        w: u32,
        sel: &Selection,
    ) -> Result<(), Box<Trap>> {
        // Fetch. The instruction-memory range check runs *first*, so a PC
        // outside the program traps as `fetch_oob` under every protection
        // scheme; the CHERI PCC check (one per warp, Section 3.3) then
        // covers in-range PCs reached on a non-launch PCC. See DESIGN.md
        // §3.3.4 for the ordering rationale.
        let idx = match pc_index(sel.pc) {
            Some(i) if i < self.rom.ops.len() => i,
            _ => {
                return Err(Trap::warp_wide(
                    w,
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
                return Err(Trap::warp_wide(w, sel.mask, sel.pc, TrapCause::Cheri(e)).into());
            }
        }
        // The slot says everything else: the resolved op, the rule that
        // classifies this issue, its mnemonic and histogram slot.
        // Classification precedes execution so the event, the counter and
        // the executed path all report the same verdict.
        let slot = self.rom.ops[idx];
        let op = match slot.op {
            Decoded::Op(op) => op,
            Decoded::Illegal(raw) => {
                let cause = TrapCause::IllegalInstr(raw);
                return Err(Trap::warp_wide(w, sel.mask, sel.pc, cause).into());
            }
        };
        if let Some(c) = slot.cheri {
            self.cheri_counts[c as usize] += 1;
        }
        let class = self.resolve_issue_class(w, sel, slot.rule);

        // Issue accounting.
        self.cycle += 1;
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.emit(TraceEvent::Issue {
                cycle: self.cycle,
                warp: w,
                pc: sel.pc,
                mask: sel.mask,
                mnemonic: slot.mnemonic,
                class,
            });
        }
        self.stats.instrs += 1;
        self.stats.thread_instrs += sel.mask.count_ones() as u64;
        if class == IssueClass::Scalarised {
            self.stats.scalarised_issues += 1;
        }

        let mut costs = Costs::default();
        let fast = self.scalarise && class == IssueClass::Scalarised;
        let result = self.execute(ms, w, sel, &op, fast, &mut costs);
        // Straight-line ops step every selected lane to the next word
        // unless they trapped; the rest commit their own PCs.
        if slot.straight && result.is_ok() {
            self.advance_uniform(w, sel, sel.pc.wrapping_add(4), ThreadStatus::Active);
        }

        // Apply accumulated costs.
        self.cycle += (costs.extra_cycles + costs.spill_cycles) as u64;
        self.stats.stalls.spill_fill += costs.spill_cycles as u64;
        self.emit_stall(w, StallCause::SpillFill, costs.spill_cycles as u64);
        // Spill/fill traffic is rare; most issues skip the call.
        if costs.dram_reads + costs.dram_writes > 0 {
            self.dram_access(ms, w, costs.dram_reads, costs.dram_writes, 0);
        }
        result
    }

    /// Execute `op` for the selected threads of warp `w`: `fast` issues run
    /// on the warp-wide driver, everything else on the lane-wise one
    /// (splats and `JAL` have one form and ignore it).
    /// Inlined into its one caller so the `Ok` of the handlers that cannot
    /// trap never takes a round trip through memory.
    #[inline(always)]
    pub(crate) fn execute(
        &mut self,
        ms: &mut MemSystem,
        w: u32,
        sel: &Selection,
        op: &Op,
        fast: bool,
        costs: &mut Costs,
    ) -> Result<(), Box<Trap>> {
        match op {
            Op::Data(d) => self.exec_data(w, sel, d, fast, costs),
            Op::Splat(s) => self.exec_splat(w, sel, s, costs),
            Op::Cap(c) => return self.exec_cap(w, sel, c, fast, costs),
            Op::Jal(j) => self.exec_jal(w, sel, j, costs),
            Op::Jalr(j) => return self.exec_jalr(w, sel, j, fast, costs),
            Op::Branch(b) => self.exec_branch(w, sel, b, fast, costs),
            Op::Mem(m) => return self.exec_mem(ms, w, sel, m, costs),
            Op::Sys(s) => return self.exec_sys(w, sel, *s),
        }
        Ok(())
    }

    /// Loads, stores, capability-wide transfers and atomics: the issue-time
    /// stalls of a capability access, then the memory pipeline proper in
    /// [`super::memstage`]. Memory issues are classified per-lane, but the
    /// stage checks and commits a warp once where its addresses allow.
    fn exec_mem(
        &mut self,
        ms: &mut MemSystem,
        w: u32,
        sel: &Selection,
        m: &MemOp,
        costs: &mut Costs,
    ) -> Result<(), Box<Trap>> {
        if m.kind.is_cap() {
            // The second flit of a capability-wide access on the 32-bit
            // datapath (Section 3.1).
            let extra = CAP_ACCESS_EXTRA;
            self.stats.stalls.cap_multi_flit += extra as u64;
            self.emit_stall(w, StallCause::CapMultiFlit, extra as u64);
            costs.extra_cycles += extra;
            // Single-read-port metadata SRF: CSC needs cs1 and cs2
            // metadata, costing an extra operand-fetch cycle in the
            // optimised configuration (Section 3.2).
            if m.kind.writes() && self.opts.is_some_and(|o| o.compress_meta) {
                costs.extra_cycles += 1;
                self.stats.stalls.csc_serialisation += 1;
                self.emit_stall(w, StallCause::CscSerialisation, 1);
            }
        }
        self.with_bufs(|sm, bufs| sm.do_mem(bufs, ms, w, sel, m, costs))
    }

    /// System op class: fences, environment traps and SIMT control.
    fn exec_sys(&mut self, w: u32, sel: &Selection, op: SysOp) -> Result<(), Box<Trap>> {
        let status = match op {
            SysOp::Fence => return Ok(()),
            SysOp::EnvTrap => {
                return Err(Trap::warp_wide(w, sel.mask, sel.pc, TrapCause::Environment).into());
            }
            SysOp::Terminate => ThreadStatus::Terminated,
            SysOp::Barrier => {
                self.stats.barriers += 1;
                if let Some(sink) = self.sink.as_deref_mut() {
                    sink.emit(TraceEvent::Barrier { cycle: self.cycle, warp: w, release: false });
                }
                ThreadStatus::AtBarrier
            }
        };
        self.advance_uniform(w, sel, sel.pc.wrapping_add(4), status);
        Ok(())
    }

    pub(crate) fn sfu_suspend(&mut self, w: u32, sel: &Selection) {
        self.stats.sfu_requests += 1;
        let lat = SFU_LATENCY as u64 + sel.mask.count_ones() as u64;
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
