//! Memory stage: coalescer → tag controller → DRAM, and the scratchpad.
//!
//! One pipeline in front of two tagged memories that differ only in timing:
//! [`Sm::do_mem`] is the functional path of every load, store, capability
//! transfer and atomic — per-lane effective addresses, the CHERI /
//! bounds-table / alignment / mapping checks, then the commit against
//! whichever store the address routes to. The rest of the module charges
//! the access: the compressed stack cache filter (`stack_cache_hits`),
//! coalescing, tag-cache lookups, DRAM and scratchpad timing, and the
//! atomic-conflict serialisation model.

use super::operands::CapMemo;
use super::{active_lanes, Costs};
use crate::device::MemSystem;
use crate::exec;
use crate::rom::{MemKind, MemOp};
use crate::sm::{LaneBufs, Sm};
use crate::trap::{LaneFault, Trap, TrapCause};
use crate::warp::Selection;
use cheri_cap::CapMem;
use simt_isa::LoadWidth;
use simt_mem::{map, LaneRequest, MainMemory, MemFault};
use simt_regfile::{MAX_LANES, NULL_META};
use simt_trace::{MemSpace, TraceEvent};

impl Sm {
    /// One warp-wide memory access, check-then-commit, over the loaned
    /// scratch: `a` (/`am` under CHERI) is the address operand, `b` (/`bm`)
    /// the value of a store or AMO, `r` (/`rm`) the result. Staleness audit:
    /// `a`/`am` and, for kinds that write memory, `b` (/`bm`, explicitly
    /// nulled for the non-CHERI capability-store corner) are fully
    /// overwritten by the operand reads before use; `eas` is written per
    /// active lane in the check phase; `r`/`rm` are written per active lane
    /// in the commit phase and committed under the mask.
    pub(crate) fn do_mem(
        &mut self,
        bufs: &mut LaneBufs,
        ms: &mut MemSystem,
        w: u32,
        sel: &Selection,
        op: &MemOp,
        costs: &mut Costs,
    ) -> Result<(), Box<Trap>> {
        let MemOp { addr: addr_reg, reg, src, off, width, kind } = *op;
        let bytes = width.bytes();
        let lanes = self.cfg.lanes as usize;
        let dram_size = self.cfg.dram_size;
        let mask = sel.mask;
        let cheri = self.cheri();
        let (is_cap, amo) = (kind.is_cap(), matches!(kind, MemKind::Amo(_)));
        let LaneBufs { a, am, b, bm, r, rm, eas, dram_reqs, scratch_reqs, .. } = bufs;
        // Operand reads, in each kind's own order (a read can fill and
        // spill, so the order is architecturally visible): an AMO reads its
        // operand before the address, a store after it.
        if amo {
            self.read_data(w, src, b, costs);
        }
        if cheri {
            self.read_cap_operand(w, addr_reg, a, am, costs);
        } else {
            self.read_data(w, addr_reg, a, costs);
        }
        if kind.writes() && !amo {
            if is_cap && cheri {
                self.read_cap_operand(w, src, b, bm, costs);
            } else {
                self.read_data(w, src, b, costs);
                if is_cap {
                    // Capability store without CHERI metadata: commit null
                    // metadata, exactly as the zero-initialised scratch did.
                    bm[..lanes].fill(NULL_META);
                }
            }
        }

        // Check phase: effective address, CHERI/bounds-table, alignment and
        // mapping checks for *every* active lane. Nothing commits unless
        // the whole warp is clean, so traps are warp-precise and carry the
        // full faulting-lane set.
        let mut faults: Vec<LaneFault> = Vec::new();
        let mut caps = CapMemo::default();
        for i in active_lanes(mask, lanes) {
            let ea = (a[i] as u32).wrapping_add(off);
            eas[i] = ea;
            let mut cause = None;
            if cheri {
                let cap = caps.get(am[i], a[i]);
                let check = |store| cap.check_access(ea, width, store, is_cap);
                // An AMO both loads and stores: it passes both checks.
                let ok = if amo {
                    check(false).and_then(|()| check(true))
                } else {
                    check(kind.writes())
                };
                cause = ok.err().map(TrapCause::Cheri);
            } else {
                if let Some(t) = &self.bounds_table {
                    match t.translate(ea, bytes) {
                        Ok(real) => eas[i] = real,
                        Err(c) => cause = Some(c),
                    }
                }
                // AMOs carry no alignment probe of their own: the mapping
                // probe's word check reports misalignment, mapping first.
                if bytes > 1 && !amo && cause.is_none() && eas[i] % bytes != 0 {
                    cause = Some(TrapCause::Mem(MemFault::Misaligned(eas[i])));
                }
            }
            // Mapping probe against the store the address routes to:
            // read-side checks are identical to write-side checks, so a
            // validation-only probe catches every fault the commit phase
            // could hit without paying for the data assembly twice.
            if cause.is_none() {
                let ea = eas[i];
                let probe =
                    |m: &MainMemory| if is_cap { m.check_cap(ea) } else { m.check(ea, bytes) };
                cause = match map::route(ea, dram_size) {
                    map::Region::Dram => probe(&ms.mem).err(),
                    map::Region::Scratch => probe(&self.scratch).err(),
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

        // Commit phase: functional access + request collection, in lane
        // order (which defines the intra-warp atomicity order). The check
        // phase vouched for every lane, so no access below can fault.
        dram_reqs.clear();
        scratch_reqs.clear();
        for i in active_lanes(mask, lanes) {
            let ea = eas[i];
            let res: Result<(), MemFault> = (|| {
                let (store, reqs): (&mut MainMemory, _) = match map::route(ea, dram_size) {
                    map::Region::Dram => (&mut ms.mem, &mut *dram_reqs),
                    map::Region::Scratch => (&mut self.scratch, &mut *scratch_reqs),
                    _ => return Err(MemFault::Unmapped(ea)),
                };
                reqs.push(LaneRequest { addr: ea, bytes });
                match kind {
                    MemKind::Load(lw) => r[i] = sign_extend(store.read(ea, bytes)?, lw) as u64,
                    MemKind::Store => store.write(ea, b[i] as u32, bytes)?,
                    MemKind::LoadCap => {
                        let c = store.read_cap(ea)?;
                        r[i] = c.addr() as u64;
                        rm[i] = c.meta() as u64 | ((c.tag() as u64) << 32);
                    }
                    MemKind::StoreCap => {
                        let tag = bm[i] >> 32 & 1 == 1;
                        store.write_cap(ea, CapMem::from_parts(bm[i] as u32, b[i] as u32, tag))?;
                    }
                    MemKind::Amo(f) => {
                        let old = store.read(ea, bytes)?;
                        store.write(ea, exec::amo(f, old, b[i] as u32), bytes)?;
                        r[i] = old as u64;
                    }
                }
                Ok(())
            })();
            if let Err(f) = res {
                unreachable!("memory fault escaped the check phase: {f}");
            }
        }

        // Timing: an atomic is a read + write transaction per block, and
        // conflicting lanes serialise.
        self.charge_memory(ms, w, dram_reqs, scratch_reqs, kind.writes());
        if amo {
            self.serialise_atomics(w, dram_reqs, scratch_reqs);
        }
        if kind.has_dest() {
            let meta = (kind == MemKind::LoadCap).then_some(&rm[..]);
            self.writeback(w, reg, &r[..], meta, mask, costs);
        }
        Ok(())
    }

    /// Serialise conflicting atomics: lanes hitting the same word pay one
    /// cycle each (approximating SIMTight's atomic unit).
    fn serialise_atomics(
        &mut self,
        w: u32,
        dram_reqs: &[LaneRequest],
        scratch_reqs: &[LaneRequest],
    ) {
        let mut buf = [0u32; MAX_LANES];
        let addrs = sorted(&mut buf, dram_reqs.iter().chain(scratch_reqs).map(|r| r.addr));
        let repeats = addrs.windows(2).filter(|w| w[0] == w[1]).count() as u64;
        let warp = &mut self.warps[w as usize];
        warp.ready_at = warp.ready_at.max(self.cycle + repeats);
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
        let cycle = self.cycle;
        let mut done_at = cycle;
        // The `mem` event of one warp-wide access (no DRAM transactions and
        // no bank conflicts unless stated).
        let mem_event = |space, reqs: &[LaneRequest], transactions, uniform, conflict_cycles| {
            let lanes = reqs.len() as u32;
            TraceEvent::Mem {
                cycle,
                warp: w,
                space,
                is_store,
                lanes,
                transactions,
                uniform,
                conflict_cycles,
            }
        };
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
                let uniform = dram_reqs.iter().all(|r| r.addr == dram_reqs[0].addr);
                sink.emit(mem_event(MemSpace::StackCache, dram_reqs, 0, uniform, 0));
            }
            done_at = done_at.max(cycle + 2);
            &[]
        } else {
            dram_reqs
        };
        if !dram_reqs.is_empty() {
            let co = self.coalescer.coalesce(dram_reqs);
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.emit(mem_event(MemSpace::Dram, dram_reqs, co.transactions, co.uniform, 0));
            }
            // Tag controller: one lookup per unique 64-byte block.
            let mut buf = [0u32; MAX_LANES];
            let blocks = sorted(&mut buf, dram_reqs.iter().map(|r| r.addr / 64));
            let mut tag_txns = 0;
            for (k, &b) in blocks.iter().enumerate() {
                if k > 0 && blocks[k - 1] == b {
                    continue;
                }
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
                let uniform =
                    scratch_reqs.iter().all(|r| r.addr == first.addr && r.bytes == first.bytes);
                sink.emit(mem_event(MemSpace::Scratch, scratch_reqs, 0, uniform, cycles - 1));
            }
            done_at = done_at.max(cycle + (self.cfg.timing.scratch_latency + cycles) as u64);
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

/// One value per request of a warp-wide access, sorted. At most one request
/// per lane, so they fit on the stack.
fn sorted(buf: &mut [u32; MAX_LANES], vals: impl Iterator<Item = u32>) -> &[u32] {
    let mut n = 0;
    for (slot, v) in buf.iter_mut().zip(vals) {
        *slot = v;
        n += 1;
    }
    buf[..n].sort_unstable();
    &buf[..n]
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
