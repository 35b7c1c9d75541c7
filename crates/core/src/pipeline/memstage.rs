//! Memory stage: coalescer → tag controller → DRAM, and the scratchpad.
//!
//! One pipeline in front of two tagged memories that differ only in timing:
//! [`Sm::do_mem`] is the functional path of every load, store, capability
//! transfer and atomic — per-lane effective addresses, the CHERI /
//! bounds-table / alignment / mapping checks (once per warp when the two
//! ends of its address span vouch for every lane, lane by lane otherwise),
//! then the commit against whichever store the address routes to. The rest
//! of the module charges the access: the compressed stack cache filter
//! (`stack_cache_hits`), coalescing, tag-cache lookups, DRAM and scratchpad
//! timing, and the atomic-conflict serialisation model.

use super::operands::CapMemo;
use super::{active_lanes, Costs};
use crate::config::SCRATCH_LATENCY;
use crate::device::MemSystem;
use crate::exec;
use crate::rom::{MemKind, MemOp};
use crate::sm::{LaneBufs, Sm};
use crate::trap::{LaneFault, Trap, TrapCause};
use crate::warp::Selection;
use cheri_cap::CapMem;
use simt_isa::LoadWidth;
use simt_mem::{coalesce_blocks, map, LaneRequest, MainMemory, MemFault, TRANSACTION_BYTES};
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
        let MemOp { addr: addr_reg, reg, src, width, kind, .. } = *op;
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

        // Check phase. Nothing commits unless the whole warp is clean, so
        // traps are warp-precise and carry the full faulting-lane set. A
        // warp the ends of its address span vouch for skips the per-lane
        // checks and routes once; any other warp checks every active lane.
        let route = self.check_warp(ms, a, am, eas, mask, op);
        if route.is_none() {
            let faults = self.check_lanes(ms, a, am, eas, mask, op);
            if let Some(t) = Trap::from_lane_faults(w, sel.pc, faults) {
                return Err(t.into());
            }
        }

        // Commit phase: functional access + request collection, in lane
        // order (which defines the intra-warp atomicity order). The check
        // phase vouched for every lane, so no access below can fault.
        dram_reqs.clear();
        scratch_reqs.clear();
        for i in active_lanes(mask, lanes) {
            let ea = eas[i];
            let res: Result<(), MemFault> = (|| {
                let region = route.unwrap_or_else(|| map::route(ea, dram_size));
                let (store, reqs): (&mut MainMemory, _) = match region {
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

    /// The warp-wide check: `Some(region)` when every active lane's access
    /// is clean and routes to `region`, decided from the two ends of the
    /// warp's address span; `None` when [`Sm::check_lanes`] must decide.
    /// Writes each active lane's effective address to `eas`.
    ///
    /// One pass collects the address span `a_lo..=a_hi`, the
    /// effective-address span `e_lo..=e_hi`, the OR of the effective
    /// addresses and whether the metadata is uniform. Every per-lane
    /// predicate is then an interval test or a low-bits test, so testing
    /// it at the two ends decides it for every lane between them:
    ///
    /// * under CHERI, uniform metadata decoded at `a_lo` whose
    ///   representable region contains `a_hi` gives every lane the same
    ///   bounds (the region law), and the tag, seal and permission checks
    ///   read only the metadata, so `check_access` at `e_lo` and `e_hi`
    ///   (both checks for an AMO) is the check of every lane;
    /// * an OR aligned to the access width means every address is aligned;
    /// * DRAM and the scratchpad are intervals of the memory map, and so is
    ///   each memory's mapped range once no unmapped window is injected.
    ///
    /// A GPUShield bounds table translates each lane on its own, so it
    /// always takes the per-lane path. That path is the only producer of
    /// [`LaneFault`]s, so trap attribution cannot depend on this check.
    fn check_warp(
        &self,
        ms: &MemSystem,
        a: &[u64; MAX_LANES],
        am: &[u64; MAX_LANES],
        eas: &mut [u32; MAX_LANES],
        mask: u64,
        op: &MemOp,
    ) -> Option<map::Region> {
        if self.bounds_table.is_some() {
            return None;
        }
        let MemOp { off, width, kind, .. } = *op;
        let bytes = width.bytes();
        let (mut a_lo, mut a_hi, mut e_lo, mut e_hi) = (u32::MAX, 0, u32::MAX, 0);
        let (mut e_or, mut m_or, mut m_and) = (0, 0, u64::MAX);
        for i in active_lanes(mask, self.cfg.lanes as usize) {
            let addr = a[i] as u32;
            let ea = addr.wrapping_add(off);
            eas[i] = ea;
            (a_lo, a_hi) = (a_lo.min(addr), a_hi.max(addr));
            (e_lo, e_hi, e_or) = (e_lo.min(ea), e_hi.max(ea), e_or | ea);
            (m_or, m_and) = (m_or | am[i], m_and & am[i]);
        }
        // Capability transfers are 8 bytes wide, so this is also their
        // 8-byte alignment.
        if e_or & (bytes - 1) != 0 {
            return None;
        }
        let is_cap = kind.is_cap();
        if self.cheri() {
            // All active metadata words are equal exactly when their OR
            // equals their AND.
            if m_or != m_and {
                return None;
            }
            let cap = Self::cap_of(m_or, u64::from(a_lo));
            if !cap.region().contains(a_hi) {
                return None;
            }
            let check = |ea, store| cap.check_access(ea, width, store, is_cap).is_ok();
            let ok = |ea| match kind {
                MemKind::Amo(_) => check(ea, false) && check(ea, true),
                _ => check(ea, kind.writes()),
            };
            if !(ok(e_lo) && ok(e_hi)) {
                return None;
            }
        }
        let region = map::route(e_lo, self.cfg.dram_size);
        if map::route(e_hi, self.cfg.dram_size) != region {
            return None;
        }
        let mem: &MainMemory = match region {
            map::Region::Dram => &ms.mem,
            map::Region::Scratch => &self.scratch,
            _ => return None,
        };
        let probe = |ea| if is_cap { mem.check_cap(ea) } else { mem.check(ea, bytes) }.is_ok();
        (!mem.has_unmapped_windows() && probe(e_lo) && probe(e_hi)).then_some(region)
    }

    /// The per-lane check phase: effective address, CHERI/bounds-table,
    /// alignment and mapping checks for *every* active lane, writing each
    /// lane's (translated) effective address to `eas`. Returns one
    /// [`LaneFault`] per faulting lane, in lane order.
    fn check_lanes(
        &self,
        ms: &MemSystem,
        a: &[u64; MAX_LANES],
        am: &[u64; MAX_LANES],
        eas: &mut [u32; MAX_LANES],
        mask: u64,
        op: &MemOp,
    ) -> Vec<LaneFault> {
        let MemOp { off, width, kind, .. } = *op;
        let bytes = width.bytes();
        let (is_cap, amo) = (kind.is_cap(), matches!(kind, MemKind::Amo(_)));
        let mut faults = Vec::new();
        let mut caps = CapMemo::default();
        for i in active_lanes(mask, self.cfg.lanes as usize) {
            let ea = (a[i] as u32).wrapping_add(off);
            eas[i] = ea;
            let mut cause = None;
            if self.cheri() {
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
                if !amo && cause.is_none() && eas[i] & (bytes - 1) != 0 {
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
                cause = match map::route(ea, self.cfg.dram_size) {
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
        faults
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
            let mut blocks = [0u32; MAX_LANES];
            let co = coalesce_blocks(dram_reqs, &mut blocks);
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.emit(mem_event(MemSpace::Dram, dram_reqs, co.transactions, co.uniform, 0));
            }
            // Tag controller: one lookup per distinct 64-byte block, in
            // ascending order.
            let mut tag_txns = 0;
            for run in blocks[..dram_reqs.len()].chunk_by(|x, y| x == y) {
                let txns = ms.tags.on_access(run[0] * TRANSACTION_BYTES, is_store);
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
            done_at = done_at.max(cycle + (SCRATCH_LATENCY + cycles) as u64);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CheriMode, CheriOpts, SmConfig};
    use crate::shield::BoundsTable;
    use cheri_cap::{AccessWidth, CapPipe, Perms};
    use sim_prng::Prng;
    use simt_isa::{AmoOp, Reg};

    const LANES: u32 = 32;
    const DRAM_SIZE: u32 = 1 << 20;
    const DRAWS: usize = 200_000;

    /// The five schemes as the SM sees them: `(name, mode, bounds table)`.
    fn schemes() -> [(&'static str, CheriMode, bool); 5] {
        [
            ("baseline", CheriMode::Off, false),
            ("rust", CheriMode::Off, false),
            ("gpushield", CheriMode::Off, true),
            ("cheri", CheriMode::On(CheriOpts::naive()), false),
            ("cheri-opt", CheriMode::On(CheriOpts::optimised()), false),
        ]
    }

    fn mem_ops() -> Vec<(MemKind, AccessWidth)> {
        vec![
            (MemKind::Load(LoadWidth::B), AccessWidth::Byte),
            (MemKind::Load(LoadWidth::Hu), AccessWidth::Half),
            (MemKind::Load(LoadWidth::W), AccessWidth::Word),
            (MemKind::Store, AccessWidth::Byte),
            (MemKind::Store, AccessWidth::Half),
            (MemKind::Store, AccessWidth::Word),
            (MemKind::LoadCap, AccessWidth::Cap),
            (MemKind::StoreCap, AccessWidth::Cap),
            (MemKind::Amo(AmoOp::Add), AccessWidth::Word),
        ]
    }

    /// An address in (or just outside) one of the four targets: DRAM, the
    /// scratchpad, the instruction memory, or nowhere.
    fn target(r: &mut Prng) -> u32 {
        let dram = (map::DRAM_BASE, DRAM_SIZE);
        let scratch = (map::SCRATCH_BASE, map::SCRATCH_SIZE);
        let (base, size) = *r.choose(&[
            dram,
            dram,
            dram,
            scratch,
            scratch,
            scratch,
            (map::TCIM_BASE, map::TCIM_SIZE),
            (0x2000, 0x1000),
        ]);
        match r.range_u32(0, 4) {
            0 => base.wrapping_add(r.range_u32(0, 256)).wrapping_sub(128),
            1 => (base + size).wrapping_add(r.range_u32(0, 256)).wrapping_sub(128),
            _ => base + r.range_u32(0, size),
        }
    }

    /// A capability over an object at `obj`: usually a tagged data
    /// capability, sometimes one that fails on its own (untagged, sealed,
    /// short of a permission).
    fn capability(r: &mut Prng, obj: u32) -> CapPipe {
        let any = r.range_u32(1, 1 << 20);
        let len = *r.choose(&[8, 64, 256, 0x1000, 0x1000, 1 << 16, 1 << 16, any]);
        let cap = CapPipe::almighty().and_perm(Perms::data()).set_addr(obj).set_bounds(len).0;
        match r.range_u32(0, 16) {
            0 => cap.clear_tag(),
            1 => cap.seal_entry(),
            2 => cap.and_perm(Perms::from_bits(r.next_u32() as u16)),
            _ => cap,
        }
    }

    /// Oracle for the warp-wide check: over seeded warps of every target,
    /// address shape, mask, metadata shape and scheme, with and without
    /// injected windows, a *clean* verdict means the per-lane check phase
    /// records no fault, computes the same effective addresses, and routes
    /// every active lane to the verdict's memory.
    #[test]
    fn a_clean_warp_has_no_faulting_lane() {
        let mut r = Prng::seed_from_u64(0x5EED_C0DE);
        let mut rigs: Vec<(Sm, MemSystem)> = schemes()
            .iter()
            .map(|&(_, mode, table)| {
                let mut cfg = SmConfig::with_geometry(1, LANES, mode);
                cfg.dram_size = DRAM_SIZE;
                let mut sm = Sm::new(cfg, 0, cfg.threads());
                if table {
                    sm.bounds_table =
                        Some(BoundsTable::new(vec![(map::DRAM_BASE + 0x1000, 0x1000)]));
                }
                (sm, MemSystem::new(&cfg))
            })
            .collect();
        let ops = mem_ops();
        let (mut a, mut am) = ([0u64; MAX_LANES], [0u64; MAX_LANES]);
        let (mut eas, mut lane_eas) = ([0u32; MAX_LANES], [0u32; MAX_LANES]);
        let mut clean = [0usize; 5];
        for draw in 0..DRAWS {
            let s = draw % rigs.len();
            let (sm, ms) = &mut rigs[s];
            let (kind, width) = *r.choose(&ops);
            let obj = target(&mut r);
            let cap = capability(&mut r, obj);
            let region = cap.region();
            let span = r.range_u32(0, 512);
            // Where the lane addresses start: the object, its top, either
            // edge of its representable region, or anywhere.
            let mut base = match r.range_u32(0, 6) {
                0 | 1 => cap.addr(),
                2 => (cap.top() as u32).wrapping_sub(r.range_u32(0, 64)),
                3 => region.lo.wrapping_sub(r.range_u32(0, span + 1)),
                4 => region.last.wrapping_sub(r.range_u32(0, span + 1)),
                _ => target(&mut r),
            };
            if r.range_u32(0, 4) > 0 {
                base &= !7;
            }
            let stride = *r.choose(&[0u32, 1, 2, 4, 8, 16, 4u32.wrapping_neg(), 64, 256]);
            let scattered = r.next_bool();
            for (i, lane) in a.iter_mut().enumerate().take(LANES as usize) {
                *lane = u64::from(if scattered {
                    base.wrapping_add(r.range_u32(0, span + 1) & !7)
                } else {
                    base.wrapping_add(stride.wrapping_mul(i as u32))
                });
            }
            // Sometimes one lane, anywhere in the warp, is misaligned.
            if r.chance(1, 4) {
                a[r.range_usize(0, LANES as usize)] += u64::from(r.range_u32(1, 8));
            }
            let mask = match r.range_u32(0, 4) {
                0 | 1 => sm.full_mask,
                2 => r.next_u64() & sm.full_mask,
                _ => 1 << r.range_u32(0, LANES),
            };
            let active: Vec<usize> = active_lanes(mask, LANES as usize).collect();
            let a_lo = active.iter().map(|&i| a[i] as u32).min().unwrap_or(0);
            let off = match r.range_u32(0, 4) {
                0 => 0,
                1 => *r.choose(&[4, 8, 0x100, 4u32.wrapping_neg(), 0x100u32.wrapping_neg()]),
                // Land the lowest lane's access inside the object.
                2 => cap.base().wrapping_add(r.range_u32(0, 64)).wrapping_sub(a_lo) & !7,
                _ => r.range_u32(0, 64),
            };
            // Uniform metadata, or a mix of the capability, its untagged
            // twin, another object's capability and null.
            let meta = Sm::cap_parts(cap).0;
            let obj = target(&mut r);
            let other = Sm::cap_parts(capability(&mut r, obj)).0;
            let uniform = r.range_u32(0, 4) > 0;
            for m in am.iter_mut().take(LANES as usize) {
                *m = if uniform {
                    meta
                } else {
                    *r.choose(&[meta, meta & !(1 << 32), other, NULL_META])
                };
            }
            // An injected window over some active lane's access.
            if !active.is_empty() && r.chance(1, 4) {
                let at = (a[*r.choose(&active)] as u32).wrapping_add(off) & !3;
                let len = r.range_u32(1, 9);
                ms.mem.inject_unmap_window(at, len);
                sm.scratch.inject_unmap_window(at, len);
            }
            let op = MemOp { addr: Reg::A0, reg: Reg::A1, src: Reg::A2, off, width, kind };
            if let Some(route) = sm.check_warp(ms, &a, &am, &mut eas, mask, &op) {
                clean[s] += 1;
                let faults = sm.check_lanes(ms, &a, &am, &mut lane_eas, mask, &op);
                let label = format!("draw {draw} ({}, {kind:?}, mask {mask:#x})", schemes()[s].0);
                assert_eq!(faults, [], "{label}: a clean warp faulted");
                for &i in &active {
                    assert_eq!(eas[i], lane_eas[i], "{label}: lane {i} address");
                    assert_eq!(map::route(eas[i], DRAM_SIZE), route, "{label}: lane {i} route");
                }
            }
            ms.mem.clear_unmapped_windows();
            sm.scratch.clear_unmapped_windows();
        }
        // The oracle has teeth only if clean verdicts are common wherever
        // the warp-wide check may give them: at least 1 draw in 25.
        for ((name, _, table), n) in schemes().into_iter().zip(clean) {
            if table {
                assert_eq!(n, 0, "{name}: a bounds table always takes the per-lane path");
            } else {
                assert!(n * 25 >= DRAWS / 5, "{name}: only {n} clean verdicts");
            }
        }
    }
}
