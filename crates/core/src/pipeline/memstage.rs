//! Memory stage: coalescer → tag controller → DRAM, and the scratchpad.
//!
//! Owns the functional load/store/AMO paths, the per-lane effective-address
//! computation with CHERI/bounds-table checks, the compressed stack cache
//! filter (`stack_cache_hits`), coalescing, tag-cache lookups, DRAM and
//! scratchpad timing, and the atomic-conflict serialisation model.

use super::{active_lanes, Costs};
use crate::device::MemSystem;
use crate::exec;
use crate::rom::{AtomicOp, MemOp, TrapPlan};
use crate::sm::{LaneBufs, Sm};
use crate::trap::{LaneFault, Trap, TrapCause};
use crate::warp::Selection;
use cheri_cap::{AccessWidth, CapMem};
use simt_isa::LoadWidth;
use simt_mem::{map, LaneRequest, MemFault};
use simt_regfile::{MAX_LANES, NULL_META};
use simt_trace::{MemSpace, TraceEvent};

impl Sm {
    /// One warp-wide load or store (data or capability), check-then-commit,
    /// over the loaned scratch. Staleness audit:
    /// `addr`(/`addr_m` under CHERI) and `val`(/`val_m`, explicitly nulled
    /// for the non-CHERI capability-store corner) are fully overwritten by
    /// the operand reads before use; `eas` is written per active lane in
    /// the check phase; `results`/`results_m` are written per active lane
    /// in the commit phase and committed under the mask.
    pub(crate) fn do_load_store(
        &mut self,
        bufs: &mut LaneBufs,
        ms: &mut MemSystem,
        w: u32,
        sel: &Selection,
        op: &MemOp,
        costs: &mut Costs,
    ) -> Result<(), Box<Trap>> {
        let MemOp { addr: addr_reg, reg, off, bytes, store: is_store, cap: is_cap, sext, plan } =
            *op;
        let lanes = self.cfg.lanes as usize;
        let mask = sel.mask;
        let cheri = self.cheri();
        debug_assert_eq!(plan.has(TrapPlan::CHERI_ACCESS), cheri);
        let LaneBufs {
            a: addr,
            am: addr_m,
            b: val,
            bm: val_m,
            r: results,
            rm: results_m,
            eas,
            dram_reqs,
            scratch_reqs,
            ..
        } = bufs;
        if cheri {
            self.read_cap_operand(w, addr_reg, addr, addr_m, costs);
        } else {
            self.read_data(w, addr_reg, addr, costs);
        }
        if is_store {
            if is_cap && cheri {
                self.read_cap_operand(w, reg, val, val_m, costs);
            } else {
                self.read_data(w, reg, val, costs);
                if is_cap {
                    // Capability store without CHERI metadata: commit null
                    // metadata, exactly as the zero-initialised scratch did.
                    val_m[..lanes].fill(NULL_META);
                }
            }
        }

        // Check phase: effective address, routing, CHERI/bounds-table and
        // mapping checks for *every* active lane. Nothing commits unless
        // the whole warp is clean, so traps are warp-precise and carry the
        // full faulting-lane set. The pre-decoded trap plan skips probes
        // the op can never need (e.g. the alignment check of a byte
        // access); the probes it keeps behave exactly as before.
        let mut faults: Vec<LaneFault> = Vec::new();
        for i in active_lanes(mask, lanes) {
            let ea = (addr[i] as u32).wrapping_add(off);
            eas[i] = ea;
            let mut cause = None;
            if plan.has(TrapPlan::CHERI_ACCESS) {
                let cap = Self::cap_of(addr_m[i], addr[i]);
                cause = cap
                    .check_access(ea, AccessWidth::from_bytes(bytes), is_store, is_cap)
                    .err()
                    .map(TrapCause::Cheri);
            } else {
                if plan.has(TrapPlan::BOUNDS_TABLE) {
                    if let Some(t) = &self.bounds_table {
                        match t.translate(ea, bytes) {
                            Ok(real) => eas[i] = real,
                            Err(c) => cause = Some(c),
                        }
                    }
                }
                if plan.has(TrapPlan::ALIGNMENT) && cause.is_none() && eas[i] % bytes != 0 {
                    cause = Some(TrapCause::Mem(MemFault::Misaligned(eas[i])));
                }
            }
            // Mapping probe: read-side checks are identical to write-side
            // checks in both memories, so a validation-only probe catches
            // every mapping fault the commit phase could hit without
            // paying for the data assembly twice.
            if plan.has(TrapPlan::MAPPING) && cause.is_none() {
                cause = match (map::route(eas[i], self.cfg.dram_size), is_cap) {
                    (map::Region::Dram, false) => ms.mem.check(eas[i], bytes).err(),
                    (map::Region::Dram, true) => ms.mem.check_cap(eas[i]).err(),
                    (map::Region::Scratch, false) => self.scratch.check(eas[i], bytes).err(),
                    (map::Region::Scratch, true) => self.scratch.check_cap(eas[i]).err(),
                    _ => Some(MemFault::Unmapped(eas[i])),
                }
                .map(TrapCause::Mem);
            }
            if let Some(c) = cause {
                faults.push(LaneFault { lane: i as u32, cause: c });
            }
        }
        if let Some(t) = Trap::from_lane_faults(w, sel.pc, faults) {
            return Err(t.into());
        }

        // Commit phase: functional access + request collection. The check
        // phase vouched for every lane, so no access below can fault.
        dram_reqs.clear();
        scratch_reqs.clear();
        for i in active_lanes(mask, lanes) {
            let ea = eas[i];
            let region = map::route(ea, self.cfg.dram_size);
            let req = LaneRequest { addr: ea, bytes };
            let res: Result<(), MemFault> = (|| {
                match (region, is_store, is_cap) {
                    (map::Region::Dram, false, false) => {
                        dram_reqs.push(req);
                        results[i] = sign_extend(ms.mem.read(ea, bytes)?, sext) as u64;
                    }
                    (map::Region::Dram, true, false) => {
                        dram_reqs.push(req);
                        ms.mem.write(ea, val[i] as u32, bytes)?;
                    }
                    (map::Region::Dram, false, true) => {
                        dram_reqs.push(req);
                        let c = ms.mem.read_cap(ea)?;
                        results[i] = c.addr() as u64;
                        results_m[i] = c.meta() as u64 | ((c.tag() as u64) << 32);
                    }
                    (map::Region::Dram, true, true) => {
                        dram_reqs.push(req);
                        let c = CapMem::from_parts(
                            val_m[i] as u32,
                            val[i] as u32,
                            val_m[i] >> 32 & 1 == 1,
                        );
                        ms.mem.write_cap(ea, c)?;
                    }
                    (map::Region::Scratch, false, false) => {
                        scratch_reqs.push(req);
                        results[i] = sign_extend(self.scratch.read(ea, bytes)?, sext) as u64;
                    }
                    (map::Region::Scratch, true, false) => {
                        scratch_reqs.push(req);
                        self.scratch.write(ea, val[i] as u32, bytes)?;
                    }
                    (map::Region::Scratch, false, true) => {
                        scratch_reqs.push(req);
                        let c = self.scratch.read_cap(ea)?;
                        results[i] = c.addr() as u64;
                        results_m[i] = c.meta() as u64 | ((c.tag() as u64) << 32);
                    }
                    (map::Region::Scratch, true, true) => {
                        scratch_reqs.push(req);
                        let c = CapMem::from_parts(
                            val_m[i] as u32,
                            val[i] as u32,
                            val_m[i] >> 32 & 1 == 1,
                        );
                        self.scratch.write_cap(ea, c)?;
                    }
                    _ => return Err(MemFault::Unmapped(ea)),
                }
                Ok(())
            })();
            if let Err(f) = res {
                unreachable!("memory fault escaped the check phase: {f}");
            }
        }

        // Timing.
        self.charge_memory(ms, w, dram_reqs, scratch_reqs, is_store);

        // Writeback.
        if !is_store {
            self.write_data(w, reg, &results[..], mask, costs);
            if cheri {
                if is_cap {
                    self.write_meta(w, reg, &results_m[..], mask, costs);
                } else {
                    self.write_meta_null(w, reg, mask, costs);
                }
            }
        }
        Ok(())
    }

    /// One warp-wide atomic read-modify-write, check-then-commit, over the
    /// loaned scratch. Staleness audit: `operands`
    /// and `addr` (/`addr_m` under CHERI) are fully overwritten by the
    /// operand reads; `eas` is written per active lane in the check phase;
    /// `results` is written per active lane in the commit phase and
    /// committed under the mask.
    pub(crate) fn do_amo(
        &mut self,
        bufs: &mut LaneBufs,
        ms: &mut MemSystem,
        w: u32,
        sel: &Selection,
        op: &AtomicOp,
        costs: &mut Costs,
    ) -> Result<(), Box<Trap>> {
        let AtomicOp { addr: addr_reg, rd, src, op, plan } = *op;
        let lanes = self.cfg.lanes as usize;
        let mask = sel.mask;
        let cheri = self.cheri();
        debug_assert_eq!(plan.has(TrapPlan::CHERI_ACCESS), cheri);
        let LaneBufs {
            a: addr,
            am: addr_m,
            b: operands,
            r: results,
            eas,
            dram_reqs,
            scratch_reqs,
            ..
        } = bufs;
        self.read_data(w, src, operands, costs);
        if cheri {
            self.read_cap_operand(w, addr_reg, addr, addr_m, costs);
        } else {
            self.read_data(w, addr_reg, addr, costs);
        }
        // Check phase: an AMO both loads and stores, so every active lane
        // passes both CHERI checks plus the mapping probe before any lane's
        // read-modify-write commits.
        let mut faults: Vec<LaneFault> = Vec::new();
        for i in active_lanes(mask, lanes) {
            let mut ea = addr[i] as u32;
            let mut cause = None;
            if plan.has(TrapPlan::CHERI_ACCESS) {
                let cap = Self::cap_of(addr_m[i], addr[i]);
                cause = cap
                    .check_access(ea, AccessWidth::Word, false, false)
                    .and_then(|_| cap.check_access(ea, AccessWidth::Word, true, false))
                    .err()
                    .map(TrapCause::Cheri);
            } else if plan.has(TrapPlan::BOUNDS_TABLE) {
                if let Some(t) = &self.bounds_table {
                    match t.translate(ea, 4) {
                        Ok(real) => ea = real,
                        Err(c) => cause = Some(c),
                    }
                }
            }
            eas[i] = ea;
            if plan.has(TrapPlan::MAPPING) && cause.is_none() {
                cause = match map::route(ea, self.cfg.dram_size) {
                    map::Region::Dram => ms.mem.check(ea, 4).err(),
                    map::Region::Scratch => self.scratch.check(ea, 4).err(),
                    _ => Some(MemFault::Unmapped(ea)),
                }
                .map(TrapCause::Mem);
            }
            if let Some(c) = cause {
                faults.push(LaneFault { lane: i as u32, cause: c });
            }
        }
        if let Some(t) = Trap::from_lane_faults(w, sel.pc, faults) {
            return Err(t.into());
        }

        dram_reqs.clear();
        scratch_reqs.clear();
        // Commit phase. Lanes perform their RMW in lane order, which defines
        // the intra-warp atomicity order.
        for i in active_lanes(mask, lanes) {
            let ea = eas[i];
            let req = LaneRequest { addr: ea, bytes: 4 };
            let region = map::route(ea, self.cfg.dram_size);
            let res: Result<(), MemFault> = (|| {
                match region {
                    map::Region::Dram => {
                        dram_reqs.push(req);
                        let old = ms.mem.read(ea, 4)?;
                        ms.mem.write(ea, exec::amo(op, old, operands[i] as u32), 4)?;
                        results[i] = old as u64;
                    }
                    map::Region::Scratch => {
                        scratch_reqs.push(req);
                        let old = self.scratch.read(ea, 4)?;
                        self.scratch.write(ea, exec::amo(op, old, operands[i] as u32), 4)?;
                        results[i] = old as u64;
                    }
                    _ => return Err(MemFault::Unmapped(ea)),
                }
                Ok(())
            })();
            if let Err(f) = res {
                unreachable!("memory fault escaped the check phase: {f}");
            }
        }
        // An atomic is a read + write transaction per block.
        self.charge_memory(ms, w, dram_reqs, scratch_reqs, true);
        if !dram_reqs.is_empty() || !scratch_reqs.is_empty() {
            // Serialise conflicting atomics: lanes hitting the same word pay
            // one cycle each (approximating SIMTight's atomic unit). At most
            // one request per lane, so the addresses fit on the stack.
            let mut addrs = [0u32; MAX_LANES];
            let total = dram_reqs.len() + scratch_reqs.len();
            for (slot, r) in addrs.iter_mut().zip(dram_reqs.iter().chain(scratch_reqs.iter())) {
                *slot = r.addr;
            }
            let addrs = &mut addrs[..total];
            addrs.sort_unstable();
            let unique = 1 + addrs.windows(2).filter(|w| w[0] != w[1]).count();
            let conflicts = (total - unique) as u64;
            self.warps[w as usize].ready_at =
                self.warps[w as usize].ready_at.max(self.cycle + conflicts);
        }
        self.write_data(w, rd, &results[..], mask, costs);
        if cheri {
            self.write_meta_null(w, rd, mask, costs);
        }
        Ok(())
    }

    /// Charge the timing/traffic of one warp-wide memory access and suspend
    /// the warp until the data returns.
    pub(crate) fn charge_memory(
        &mut self,
        ms: &mut MemSystem,
        w: u32,
        dram_reqs: &[LaneRequest],
        scratch_reqs: &[LaneRequest],
        is_store: bool,
    ) {
        let mut done_at = self.cycle;
        // Compressed stack cache (Section 4.4 proof of concept): a
        // warp-uniform or affine access pattern — the shape of register
        // spill traffic — is served from a small compressed cache instead
        // of DRAM.
        let in_stack = |r: &LaneRequest| {
            self.stack_region.map(|(b, sz)| r.addr >= b && r.addr < b + sz).unwrap_or(false)
        };
        let dram_reqs: &[LaneRequest] = if self.cfg.stack_cache
            && dram_reqs.len() > 1
            && dram_reqs.iter().all(in_stack)
            && is_affine(dram_reqs)
        {
            self.stats.stack_cache_hits += 1;
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.emit(TraceEvent::Mem {
                    cycle: self.cycle,
                    warp: w,
                    space: MemSpace::StackCache,
                    is_store,
                    lanes: dram_reqs.len() as u32,
                    transactions: 0,
                    uniform: dram_reqs.iter().all(|r| r.addr == dram_reqs[0].addr),
                    conflict_cycles: 0,
                });
            }
            done_at = done_at.max(self.cycle + 2);
            &[]
        } else {
            dram_reqs
        };
        if !dram_reqs.is_empty() {
            let co = self.coalescer.coalesce(dram_reqs);
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.emit(TraceEvent::Mem {
                    cycle: self.cycle,
                    warp: w,
                    space: MemSpace::Dram,
                    is_store,
                    lanes: dram_reqs.len() as u32,
                    transactions: co.transactions,
                    uniform: co.uniform,
                    conflict_cycles: 0,
                });
            }
            // Tag controller: one lookup per unique 64-byte block. One
            // request per lane at most, so the block list fits on the stack.
            debug_assert!(dram_reqs.len() <= MAX_LANES);
            let mut blocks = [0u32; MAX_LANES];
            for (slot, r) in blocks.iter_mut().zip(dram_reqs) {
                *slot = r.addr / 64;
            }
            let blocks = &mut blocks[..dram_reqs.len().min(MAX_LANES)];
            blocks.sort_unstable();
            let mut tag_txns = 0;
            let mut prev = None;
            for &b in blocks.iter() {
                if prev == Some(b) {
                    continue;
                }
                prev = Some(b);
                let txns = ms.tags.on_access(b * 64, is_store);
                tag_txns += txns;
                // One event per lookup; a disabled controller looks nothing
                // up, so event counts reconcile with the tag-cache counters.
                if ms.tags.enabled() {
                    if let Some(sink) = self.sink.as_deref_mut() {
                        sink.emit(TraceEvent::TagCache {
                            cycle: self.cycle,
                            warp: w,
                            hit: txns == 0,
                            writeback: txns == 2,
                        });
                    }
                }
            }
            let (reads, writes) =
                if is_store { (0, co.transactions) } else { (co.transactions, 0) };
            done_at = done_at.max(self.dram_access(ms, w, reads, writes, tag_txns));
        }
        if !scratch_reqs.is_empty() {
            let cycles = self.scratch.warp_cycles(scratch_reqs);
            if let Some(sink) = self.sink.as_deref_mut() {
                let first = scratch_reqs[0];
                sink.emit(TraceEvent::Mem {
                    cycle: self.cycle,
                    warp: w,
                    space: MemSpace::Scratch,
                    is_store,
                    lanes: scratch_reqs.len() as u32,
                    transactions: 0,
                    uniform: scratch_reqs
                        .iter()
                        .all(|r| r.addr == first.addr && r.bytes == first.bytes),
                    conflict_cycles: cycles - 1,
                });
            }
            done_at = done_at.max(self.cycle + (self.cfg.timing.scratch_latency + cycles) as u64);
        }
        let warp = &mut self.warps[w as usize];
        warp.ready_at = warp.ready_at.max(done_at);
    }

    /// Issue one batch of DRAM transactions at the current cycle and return
    /// its completion cycle (queueing included). Emits one `dram` event per
    /// non-empty batch, so per-kind transaction sums over the events
    /// reconcile with the channel's counters.
    pub(crate) fn dram_access(
        &mut self,
        ms: &mut MemSystem,
        w: u32,
        reads: u32,
        writes: u32,
        tag_txns: u32,
    ) -> u64 {
        let done_at = ms.dram.access(self.cycle, reads, writes, tag_txns);
        if reads + writes + tag_txns > 0 {
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.emit(TraceEvent::Dram {
                    cycle: self.cycle,
                    warp: w,
                    reads,
                    writes,
                    tag_txns,
                    done_at,
                });
            }
        }
        done_at
    }
}

/// Do the lane addresses form a uniform or affine sequence?
pub(crate) fn is_affine(reqs: &[LaneRequest]) -> bool {
    if reqs.len() < 2 {
        return true;
    }
    let stride = reqs[1].addr.wrapping_sub(reqs[0].addr);
    reqs.windows(2).all(|w| w[1].addr.wrapping_sub(w[0].addr) == stride)
}

pub(crate) fn sign_extend(v: u32, lw: LoadWidth) -> u32 {
    match lw {
        LoadWidth::B => v as u8 as i8 as i32 as u32,
        LoadWidth::H => v as u16 as i16 as i32 as u32,
        _ => v,
    }
}
