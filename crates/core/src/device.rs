//! The device layer: N streaming multiprocessors sharing one memory
//! system.
//!
//! A [`Device`] owns `sms` copies of [`Sm`] plus the one [`MemSystem`]
//! behind them (functional DRAM, the DRAM channel timing model, and the
//! tag controller). Each SM keeps its own scratchpad, coalescing unit and
//! register files, exactly like SIMTight's per-core local resources; the
//! memory system is lent to whichever SM is stepping.
//!
//! There is one run loop for every SM count. A single-SM device is the
//! degenerate case — one SM always wins the arbitration, nothing contends —
//! and the golden-stats regression test in `crates/bench` pins its
//! statistics to the pre-`Device` model for the whole benchmark suite.
//! Beyond hart placement (below), no SM behaves differently for the SM
//! count. The device's statistics merge the SMs' under each counter's
//! declared SM rule ([`crate::COUNTERS`]).
//!
//! `Device` is the only public way to set up a launch: [`Device::new`]
//! fixes each SM's hart placement, and [`Device::load_program`],
//! [`Device::set_scr`], [`Device::set_stack_region`],
//! [`Device::set_block_warps`] and [`Device::set_bounds_table`] apply the
//! program, special capability registers, stack arena, block size and
//! GPUShield bounds table to every SM alike.
//!
//! # Arbitration model
//!
//! The device interleaves the SMs at instruction granularity: the next
//! scheduler step over the memory system always belongs to the
//! *not-yet-finished SM with the smallest `(local cycle, index)`*. The DRAM
//! channel's `free_at` horizon and the tag cache's line state therefore
//! carry across SMs, which is what creates contention: an SM whose
//! transactions queue behind another SM's pays real cycles, visible in
//! `DramStats::cross_sm_wait_cycles` and the tag cache's cross-SM conflict
//! evictions. Because the pick is deterministic (lowest SM index wins
//! ties), a multi-SM run is exactly reproducible.
//!
//! The run loop does not re-arbitrate after every step. A step changes no
//! other SM's clock, so once SM `k` wins, the minimum key over the other
//! live SMs — the runner-up — is fixed. [`Device::run`] computes it once
//! and steps `k` until `k`'s key passes it (or `k` finishes or fails):
//! exactly the steps per-step arbitration would have given `k` in a row.
//! With one SM there is no runner-up and the SM steps to completion.
//! DESIGN.md §3.3.1 has the full argument.
//!
//! # Work distribution
//!
//! The block dispatcher is the existing grid-stride loop in every kernel's
//! prologue: the device gives SM `k` the hart-id base `k × threads_per_sm`
//! and tells every SM the *device-wide* thread count, so `blockIdx =
//! hartid / blockDim` partitions the grid across SMs with no kernel or
//! compiler changes. Barriers stay SM-local (a thread block never spans
//! SMs).

use crate::config::SmConfig;
use crate::counters::KernelStats;
use crate::pipeline::StepOutcome;
use crate::sm::Sm;
use crate::trap::RunError;
use cheri_cap::CapMem;
use simt_mem::{map, Dram, DramConfig, MainMemory, TagController};

/// The memory system behind the SMs' coalescing units: functional DRAM
/// contents, the DRAM channel timing model, and the tag controller. Owned
/// by the [`Device`] and borrowed by [`Sm::step`] for one scheduler step at
/// a time.
#[derive(Debug)]
pub(crate) struct MemSystem {
    pub(crate) mem: MainMemory,
    pub(crate) dram: Dram,
    pub(crate) tags: TagController,
}

impl MemSystem {
    pub(crate) fn new(cfg: &SmConfig) -> Self {
        MemSystem {
            mem: MainMemory::new(map::DRAM_BASE, cfg.dram_size),
            dram: Dram::new(DramConfig::default()),
            tags: TagController::new(cfg.tag_cache, cfg.cheri.enabled()),
        }
    }

    /// The counters the memory system itself keeps, every other one zero.
    pub(crate) fn stats(&self) -> KernelStats {
        KernelStats {
            dram: self.dram.stats(),
            tag_cache: self.tags.stats(),
            ..KernelStats::default()
        }
    }
}

/// A GPU device: N SMs arbitrating for one memory system. See the module
/// documentation for the arbitration model.
#[derive(Debug)]
pub struct Device {
    sms: Vec<Sm>,
    mem_system: MemSystem,
    /// Per-SM end-of-run statistics from the last completed run.
    sm_stats: Vec<Option<KernelStats>>,
    /// Combined device statistics from the last completed run.
    stats: KernelStats,
}

impl Device {
    /// Build a device of `sms` identical SMs sharing DRAM and the tag
    /// controller; the SMs split the grid via their hart-id placement.
    ///
    /// # Panics
    ///
    /// Panics if `sms == 0`.
    pub fn new(cfg: SmConfig, sms: u32) -> Self {
        assert!(sms >= 1, "a device needs at least one SM");
        let threads = cfg.threads();
        Device {
            sms: (0..sms).map(|k| Sm::new(cfg, k * threads, sms * threads)).collect(),
            mem_system: MemSystem::new(&cfg),
            sm_stats: vec![None; sms as usize],
            stats: KernelStats::default(),
        }
    }

    /// Number of SMs.
    pub fn num_sms(&self) -> u32 {
        self.sms.len() as u32
    }

    /// The (per-SM) configuration.
    pub fn config(&self) -> &SmConfig {
        self.sms[0].config()
    }

    /// SM `k` (panics if out of range).
    pub fn sm(&self, k: usize) -> &Sm {
        &self.sms[k]
    }

    /// Mutable SM `k` (panics if out of range): per-SM knobs such as the
    /// event sink. Device memory is reached through [`Device::memory`].
    pub fn sm_mut(&mut self, k: usize) -> &mut Sm {
        &mut self.sms[k]
    }

    /// The device's functional DRAM (host-side access for buffer setup and
    /// readback).
    pub fn memory(&self) -> &MainMemory {
        &self.mem_system.mem
    }

    /// Mutable device DRAM.
    pub fn memory_mut(&mut self) -> &mut MainMemory {
        &mut self.mem_system.mem
    }

    /// Load the kernel program into every SM's instruction memory.
    pub fn load_program(&mut self, words: &[u32]) {
        for sm in &mut self.sms {
            sm.load_program(words);
        }
    }

    /// Set a special capability register on every SM.
    pub fn set_scr(&mut self, index: u8, cap: CapMem) {
        for sm in &mut self.sms {
            sm.set_scr(index, cap);
        }
    }

    /// Tell every SM where the (device-wide) stack arena lives.
    pub fn set_stack_region(&mut self, base: u32, size: u32) {
        for sm in &mut self.sms {
            sm.set_stack_region(base, size);
        }
    }

    /// Set the warps-per-block barrier grouping on every SM.
    pub fn set_block_warps(&mut self, warps: u32) {
        for sm in &mut self.sms {
            sm.set_block_warps(warps);
        }
    }

    /// Install (or clear) a GPUShield bounds table on every SM.
    pub fn set_bounds_table(&mut self, table: Option<crate::shield::BoundsTable>) {
        for sm in &mut self.sms {
            sm.set_bounds_table(table.clone());
        }
    }

    /// Reset every SM and the memory system's statistics for a fresh launch
    /// (memory contents are preserved).
    pub fn reset(&mut self) {
        for sm in &mut self.sms {
            sm.reset();
        }
        self.mem_system.dram.reset_stats();
        self.mem_system.tags.reset();
        self.sm_stats = vec![None; self.sms.len()];
        self.stats = KernelStats::default();
    }

    /// Run every SM to completion and return the combined device
    /// statistics. `max_cycles` bounds each SM's *local* clock.
    ///
    /// # Errors
    ///
    /// The first SM to trap, dead-lock or time out aborts the whole run
    /// with its error (deterministic, because the arbitration is):
    /// [`RunError::Trap`] on a thread fault, [`RunError::Timeout`] if the
    /// watchdog expires, and [`RunError::Deadlock`] when only
    /// barrier-blocked warps remain. A trapped device stays queryable:
    /// every SM that ran — including the trapped one — has its partial
    /// statistics snapshotted, so [`Device::sm_stats`] and
    /// [`Device::stats`] report the state at the moment of the fault
    /// instead of panicking.
    pub fn run(&mut self, max_cycles: u64) -> Result<KernelStats, RunError> {
        let mut live: Vec<usize> = (0..self.sms.len()).collect();
        let mut result = Ok(());
        // Deterministic arbitration: the live SM with the smallest
        // `(cycle, index)` steps next, and keeps stepping until its key
        // passes the runner-up's (see the module docs).
        while let Some(&k) = live.iter().min_by_key(|&&k| (self.sms[k].cycle(), k)) {
            let runner_up =
                live.iter().filter(|&&j| j != k).map(|&j| (self.sms[j].cycle(), j)).min();
            self.mem_system.dram.set_accessor(k as u32);
            self.mem_system.tags.set_accessor(k as u32);
            let outcome = loop {
                match self.sms[k].step(&mut self.mem_system, max_cycles) {
                    Ok(StepOutcome::Progress)
                        if runner_up.is_none_or(|r| (self.sms[k].cycle(), k) < r) => {}
                    other => break other,
                }
            };
            match outcome {
                Ok(StepOutcome::Progress) => {}
                Ok(StepOutcome::Done) => {
                    // The per-SM snapshot reads the memory system's
                    // counters as they stand at this SM's completion.
                    self.sm_stats[k] = Some(self.sms[k].finalise(&self.mem_system));
                    live.retain(|&x| x != k);
                }
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        // An aborted run snapshots the partial counters of every SM still
        // running (the failed one included) so the device stays queryable.
        for k in live {
            self.sm_stats[k] = Some(self.sms[k].finalise(&self.mem_system));
        }
        let snapshots: Vec<_> = self.sm_stats.iter().flatten().collect();
        self.stats = KernelStats::combine(&snapshots, &self.mem_system.stats());
        result.map(|()| self.stats.clone())
    }

    /// Per-SM statistics of the last completed run (`None` before any run).
    /// On a multi-SM device the `dram`/`tag_cache` sub-structs are
    /// snapshots of the *shared* memory system at that SM's completion time
    /// — use the combined device statistics for end-of-run totals.
    pub fn sm_stats(&self, k: usize) -> Option<&KernelStats> {
        self.sm_stats[k].as_ref()
    }

    /// Combined statistics of the last completed run.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CheriMode;
    use simt_isa::{csr, AluOp, Instr, Reg, SimtOp, StoreWidth};

    /// Each thread stores its *global* hart id; both SMs' stores land in
    /// the shared DRAM, and the combined stats sum the two pipelines.
    #[test]
    fn two_sms_share_memory_and_split_harts() {
        let cfg = SmConfig::small(CheriMode::Off);
        let threads = cfg.threads();
        let mut dev = Device::new(cfg, 2);
        let prog: Vec<u32> = [
            Instr::Csrrs { rd: Reg::A0, csr: csr::MHARTID, rs1: Reg::ZERO },
            Instr::OpImm { op: AluOp::Sll, rd: Reg::A1, rs1: Reg::A0, imm: 2 },
            Instr::Lui { rd: Reg::A2, imm: map::DRAM_BASE },
            Instr::Op { op: AluOp::Add, rd: Reg::A1, rs1: Reg::A1, rs2: Reg::A2 },
            Instr::Store { w: StoreWidth::W, rs2: Reg::A0, rs1: Reg::A1, off: 0 },
            Instr::Simt { op: SimtOp::Terminate },
        ]
        .iter()
        .map(|i| i.encode())
        .collect();
        dev.load_program(&prog);
        dev.reset();
        let stats = dev.run(100_000).expect("device run");
        for hart in 0..(2 * threads) {
            assert_eq!(
                dev.memory().read(map::DRAM_BASE + hart * 4, 4).unwrap(),
                hart,
                "hart {hart} stored its global id"
            );
        }
        // Both SMs issued the same program: combined instrs are double one
        // SM's, and the device clock is the slowest SM, not the sum.
        let s0 = dev.sm_stats(0).unwrap();
        let s1 = dev.sm_stats(1).unwrap();
        assert_eq!(stats.instrs, s0.instrs + s1.instrs);
        assert_eq!(stats.cycles, s0.cycles.max(s1.cycles));
        assert!(stats.dram.write_transactions > 0);
    }

    /// One SM of a two-SM device traps (its harts take the faulting
    /// branch); the device reports the trap *and* stays queryable — both
    /// SMs have statistics snapshots and the combined stats are populated.
    #[test]
    fn trapped_device_stays_queryable() {
        use simt_isa::{BranchCond, LoadWidth};
        let cfg = SmConfig::small(CheriMode::Off);
        let threads = cfg.threads();
        let mut dev = Device::new(cfg, 2);
        let prog: Vec<u32> = [
            Instr::Csrrs { rd: Reg::A0, csr: csr::MHARTID, rs1: Reg::ZERO },
            Instr::OpImm { op: AluOp::Add, rd: Reg::A1, rs1: Reg::ZERO, imm: threads as i32 },
            // Harts on SM 1 (global id >= threads) take the branch into an
            // unmapped load; harts on SM 0 terminate cleanly.
            Instr::Branch { cond: BranchCond::Geu, rs1: Reg::A0, rs2: Reg::A1, off: 8 },
            Instr::Simt { op: SimtOp::Terminate },
            Instr::Load { w: LoadWidth::W, rd: Reg::A2, rs1: Reg::ZERO, off: 0 },
            Instr::Simt { op: SimtOp::Terminate },
        ]
        .iter()
        .map(|i| i.encode())
        .collect();
        dev.load_program(&prog);
        dev.reset();
        let err = dev.run(100_000).expect_err("SM 1 must trap");
        match &err {
            RunError::Trap(t) => assert!(t.lane_mask != 0, "trap names faulting lanes"),
            other => panic!("expected a trap, got {other:?}"),
        }
        // Both SMs are queryable after the trap: the trapped SM has a
        // partial snapshot and the clean SM has whatever it got to.
        let s0 = dev.sm_stats(0).expect("SM 0 snapshot");
        let s1 = dev.sm_stats(1).expect("SM 1 snapshot");
        assert!(s0.instrs > 0 && s1.instrs > 0);
        let combined = dev.stats();
        assert_eq!(combined.instrs, s0.instrs + s1.instrs);
        assert_eq!(combined.faults.traps, 1);
        assert!(combined.cycles > 0);
    }

    /// Under `MaskLanes`, SM 1's harts branch into an undecodable word: a
    /// fetch-stage trap, suppressed before the issue advances SM 1's clock,
    /// so SM 1 stays the arbitration minimum. Each SM's fault log, the clean
    /// harts' stores and the per-SM clocks and issue counts were recorded at
    /// commit `72d0b37`, which re-arbitrated after every step.
    #[test]
    fn suppressed_fetch_traps_keep_the_device_schedule() {
        use crate::config::TrapPolicy;
        use crate::trap::{Trap, TrapCause};
        use simt_isa::BranchCond;
        let mut cfg = SmConfig::small(CheriMode::Off);
        cfg.trap_policy = TrapPolicy::MaskLanes;
        let threads = cfg.threads();
        let mut dev = Device::new(cfg, 2);
        let illegal = 0xFFFF_FFFF;
        let mut prog: Vec<u32> = [
            Instr::Csrrs { rd: Reg::A0, csr: csr::MHARTID, rs1: Reg::ZERO },
            Instr::OpImm { op: AluOp::Add, rd: Reg::A1, rs1: Reg::ZERO, imm: threads as i32 },
            // SM 1's harts (global id >= threads) jump to the last word.
            Instr::Branch { cond: BranchCond::Geu, rs1: Reg::A0, rs2: Reg::A1, off: 24 },
            Instr::OpImm { op: AluOp::Sll, rd: Reg::A2, rs1: Reg::A0, imm: 2 },
            Instr::Lui { rd: Reg::A3, imm: map::DRAM_BASE },
            Instr::Op { op: AluOp::Add, rd: Reg::A2, rs1: Reg::A2, rs2: Reg::A3 },
            Instr::Store { w: StoreWidth::W, rs2: Reg::A0, rs1: Reg::A2, off: 0 },
            Instr::Simt { op: SimtOp::Terminate },
        ]
        .iter()
        .map(|i| i.encode())
        .collect();
        prog.push(illegal);
        let bad_pc = map::TCIM_BASE + 4 * 8;
        dev.load_program(&prog);
        dev.reset();
        dev.run(100_000).expect("MaskLanes runs to completion");

        assert!(dev.sm(0).suppressed_traps().is_empty(), "SM 0's harts are clean");
        let full = u64::MAX >> (64 - cfg.lanes);
        let want: Vec<Trap> = (0..cfg.warps)
            .map(|w| Trap::warp_wide(w, full, bad_pc, TrapCause::IllegalInstr(illegal)))
            .collect();
        assert_eq!(dev.sm(1).suppressed_traps(), want.as_slice());
        for hart in 0..(2 * threads) {
            let want = if hart < threads { hart } else { 0 };
            assert_eq!(dev.memory().read(map::DRAM_BASE + hart * 4, 4).unwrap(), want, "{hart}");
        }
        let per_sm: Vec<(u64, u64)> =
            (0..2).map(|k| dev.sm_stats(k).map(|s| (s.cycles, s.instrs)).unwrap()).collect();
        assert_eq!(per_sm, [(266, 64), (24, 24)]);
        assert_eq!(dev.stats().faults.suppressed, u64::from(cfg.warps));
    }

    /// With one SM there is nothing to combine: the device totals are that
    /// SM's own snapshot, field for field.
    #[test]
    fn single_sm_device_totals_equal_sm_snapshot() {
        use simt_isa::MulOp;
        let cfg = SmConfig::small(CheriMode::Off);
        let prog: Vec<u32> = [
            Instr::Csrrs { rd: Reg::A0, csr: csr::MHARTID, rs1: Reg::ZERO },
            // hartid² is neither uniform nor affine: it occupies the VRF,
            // so the residency peak is non-trivial.
            Instr::MulDiv { op: MulOp::Mul, rd: Reg::A3, rs1: Reg::A0, rs2: Reg::A0 },
            Instr::OpImm { op: AluOp::Sll, rd: Reg::A1, rs1: Reg::A0, imm: 2 },
            Instr::Lui { rd: Reg::A2, imm: map::DRAM_BASE },
            Instr::Op { op: AluOp::Add, rd: Reg::A1, rs1: Reg::A1, rs2: Reg::A2 },
            Instr::Store { w: StoreWidth::W, rs2: Reg::A3, rs1: Reg::A1, off: 0 },
            Instr::Simt { op: SimtOp::Terminate },
        ]
        .iter()
        .map(|i| i.encode())
        .collect();
        let mut dev = Device::new(cfg, 1);
        dev.load_program(&prog);
        dev.reset();
        let stats = dev.run(100_000).expect("device run");
        assert!(stats.peak_data_vrf_resident > 0, "the squares were VRF-resident");
        assert_eq!(Some(&stats), dev.sm_stats(0));
        assert_eq!(stats.dram.cross_sm_switches, 0);
    }
}
