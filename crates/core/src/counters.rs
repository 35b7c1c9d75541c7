//! Performance counters collected during a kernel run.
//!
//! These are the model's equivalent of SIMTight's hardware performance
//! counters, sized to regenerate Figures 6, 10, 11, 12 and 13. Every field
//! documents the **counters → figures contract**: which SIMTight counter it
//! models and which paper figure/table consumes it (the same table appears
//! in `EXPERIMENTS.md`, with the `repro` invocation that regenerates each
//! figure). The structured tracing layer (`simt-trace`) emits one event per
//! counter increment, so an exported trace reconciles *exactly* with these
//! aggregates — `crates/bench/src/trace.rs::reconcile` is the executable
//! form of that contract.

use simt_mem::{DramStats, ScratchStats, TagCacheStats};
use simt_regfile::RfStats;
use std::collections::BTreeMap;

/// Pipeline stall cycles by cause.
///
/// Attributes the cycle gap between `cycles` and `instrs` to the CHERI
/// mechanisms of Section 3, explaining *where* the Figure 13 slowdown comes
/// from. SIMTight exposes the same information as pipeline-suspension
/// counters; the field names here are also the stable `cause` names used by
/// `simt_trace::StallCause`, and per-cause cycle sums over a trace's
/// `stall` events reconcile exactly with these fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Extra operand-fetch cycles for `CSC` (single-read-port metadata SRF).
    /// Models SIMTight's capability-store serialisation suspension; part of
    /// the Figure 13 cycle overhead attributed to Section 3.1's compressed
    /// metadata register file.
    pub csc_serialisation: u64,
    /// Serialised data+metadata reads against the shared VRF. Models the
    /// shared-VRF port-conflict suspension of Section 3.2; part of the
    /// Figure 13 cycle overhead.
    pub shared_vrf_conflict: u64,
    /// Register spill/fill handling cycles. Models SIMTight's dynamic
    /// register-spill suspension (Section 2.3's scalarising register file);
    /// feeds the Table 2 cycle-overhead column and Figure 13.
    pub spill_fill: u64,
    /// Second flits of capability-wide accesses (`CLC`/`CSC`). Models the
    /// extra occupancy of 64-bit capability transfers on a 32-bit datapath
    /// (Section 3.1); part of the Figure 13 cycle overhead.
    pub cap_multi_flit: u64,
    /// Cycles with no warp ready to issue (memory/SFU latency not hidden).
    /// Models SIMTight's null-issue (pipeline-bubble) counter; the residual
    /// term when decomposing Figure 13 slowdowns.
    pub idle: u64,
}

/// Trap and fault counters (the trap-precision subsystem).
///
/// `traps` counts warp-precise trap deliveries; `faulting_lanes` sums the
/// popcount of each trap's faulting-lane mask (a single trap can attribute
/// many lanes); `suppressed` counts traps absorbed by
/// `TrapPolicy::MaskLanes` (their lanes disabled, the warp kept running).
/// Under the default `Abort` policy a kernel either finishes with all three
/// zero or aborts on its first trap, so these counters never perturb the
/// golden-stats fingerprints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Warp-precise traps raised (delivered or suppressed).
    pub traps: u64,
    /// Total faulting lanes across all traps.
    pub faulting_lanes: u64,
    /// Traps suppressed under `TrapPolicy::MaskLanes`.
    pub suppressed: u64,
}

/// Statistics of one kernel run.
///
/// `PartialEq` (not `Eq` — two fields are time-averaged `f64`s) lets the
/// parallel-runner determinism tests compare whole suites structurally.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelStats {
    /// Total cycles from launch to the last warp's termination. Models
    /// SIMTight's cycle counter (CSR `mcycle`); the numerator of every
    /// runtime-overhead figure — Table 2, Figures 13 and 14 all compare
    /// per-configuration `cycles` ratios.
    pub cycles: u64,
    /// Warp-instructions issued. Models SIMTight's instruction-retire
    /// counter (CSR `minstret`) at warp granularity; with `cycles` it gives
    /// the IPC used in the Figure 13 discussion. Equals the number of
    /// `issue` events in a structured trace.
    pub instrs: u64,
    /// Thread-instructions executed (warp-instructions × active lanes).
    /// Models SIMTight's SIMT-convergence counter pair (instructions ×
    /// active-thread count), quantifying divergence; equals the sum of
    /// `issue`-event active-mask popcounts in a trace.
    pub thread_instrs: u64,
    /// Executed CHERI instructions by mnemonic — the histogram behind
    /// **Figure 6** (CHERI instruction execution frequency). Standard
    /// encodings executed in capability mode count under their CHERI name
    /// (`lw` → `CLW`, `jal` → `CJAL`, ...).
    pub cheri_histogram: BTreeMap<&'static str, u64>,
    /// Stall cycles by cause — the Figure 13 overhead decomposition; see
    /// [`StallBreakdown`] for the per-field contract.
    pub stalls: StallBreakdown,
    /// DRAM traffic. Models SIMTight's DRAM-access counters; total bytes
    /// feed **Figure 12** (DRAM bandwidth usage) and the Table 2
    /// memory-overhead column, and `tag_transactions` isolates the tag
    /// controller's share (Section 2.4).
    pub dram: DramStats,
    /// Tag-cache behaviour (hits/misses/writebacks). Models the tag
    /// controller's cache counters backing the Section 2.4 claim that a
    /// modest tag cache makes tag traffic "almost zero" (`repro tagsweep`).
    pub tag_cache: TagCacheStats,
    /// Scratchpad behaviour (accesses and bank-conflict serialisation
    /// cycles). Models SIMTight's shared-local-memory counters; background
    /// term of the Figure 13 cycle decomposition.
    pub scratch: ScratchStats,
    /// Data register file statistics (spills, fills, scalar/vector writes).
    /// Models the scalarising-register-file counters of Section 2.3;
    /// baseline term of **Figure 10** and Table 2.
    pub data_rf: RfStats,
    /// Metadata register file statistics (zeroed when CHERI is off). The
    /// Section 3.1 compressed capability-metadata file's counters; CHERI
    /// term of **Figure 10**.
    pub meta_rf: RfStats,
    /// Time-averaged number of data vectors resident in the VRF. Models
    /// SIMTight's vector-register residency counter (sampled per cycle);
    /// the "average" series of **Figure 10**'s left half.
    pub avg_data_vrf_resident: f64,
    /// Time-averaged number of metadata vectors resident in the VRF — the
    /// "average" series of **Figure 10**'s right half, and the quantity the
    /// null-value optimisation (Section 3.2) shrinks.
    pub avg_meta_vrf_resident: f64,
    /// Peak data vectors resident in the VRF. Sizes the VRF so dynamic
    /// spilling stays rare — the "peak" series of **Figure 10** (left).
    pub peak_data_vrf_resident: u32,
    /// Peak metadata vectors resident in the VRF — the "peak" series of
    /// **Figure 10** (right).
    pub peak_meta_vrf_resident: u32,
    /// Max architectural registers per thread that ever held a capability
    /// (**Figure 11**: capability registers in use).
    pub cap_regs_used: u32,
    /// Union bitmask of registers that ever held a capability (bit r =
    /// register r) — verifies the §4.3 capability-register-limit forecast.
    pub cap_regs_mask: u32,
    /// SFU requests served (FP div/sqrt and, when offloaded, cap ops).
    /// Models the shared-function-unit request counter of Section 3.3;
    /// supports the claim that offloading cold CHERI ops barely loads the
    /// SFU. Equals the number of `sfu` events in a trace.
    pub sfu_requests: u64,
    /// Warp-level barrier waits. Models SIMTight's barrier counter; equals
    /// the number of `barrier` arrival events in a trace.
    pub barriers: u64,
    /// Warp accesses absorbed by the compressed stack cache (zero unless
    /// the Section-4.4 proof-of-concept feature, `SmConfig::stack_cache`, is
    /// enabled; no shipped configuration or experiment enables it).
    pub stack_cache_hits: u64,
    /// Warp-instructions the execute stage ran once per warp over compact
    /// (uniform/affine) operands instead of lane by lane — the dynamic
    /// scalarisation rate of Section 2.3's scalarising register file,
    /// reported by `repro scalarise`. Equals the number of `issue` events
    /// whose `class` is `scalarised` in a structured trace; the remaining
    /// `instrs - scalarised_issues` issues carry `per_lane`. Timing-neutral:
    /// the fast path is bit-identical to the lane-wise one, so this counter
    /// never changes any other statistic.
    pub scalarised_issues: u64,
    /// Trap/fault counters — see [`FaultStats`]. All-zero on a clean run.
    pub faults: FaultStats,
}

impl KernelStats {
    /// Fraction of executed instructions that were CHERI instructions.
    pub fn cheri_fraction(&self) -> f64 {
        if self.instrs == 0 {
            0.0
        } else {
            self.cheri_histogram.values().sum::<u64>() as f64 / self.instrs as f64
        }
    }

    /// Instructions per cycle (warp-instruction throughput).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instrs as f64 / self.cycles as f64
        }
    }

    /// DRAM bytes moved per cycle (Figure 12's bandwidth usage).
    pub fn dram_bytes_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.dram.total_bytes() as f64 / self.cycles as f64
        }
    }

    /// Record one executed CHERI op.
    pub(crate) fn count_cheri(&mut self, mnemonic: &'static str, n: u64) {
        *self.cheri_histogram.entry(mnemonic).or_insert(0) += n;
    }

    /// Accumulate another run's statistics (for multi-launch benchmarks
    /// such as the global bitonic sorter's phase kernels). Cycle-weighted
    /// averages are re-derived; peaks take the maximum.
    pub fn accumulate(&mut self, other: &KernelStats) {
        let w_old = self.cycles as f64;
        let w_new = other.cycles as f64;
        let total = (w_old + w_new).max(1.0);
        self.avg_data_vrf_resident =
            (self.avg_data_vrf_resident * w_old + other.avg_data_vrf_resident * w_new) / total;
        self.avg_meta_vrf_resident =
            (self.avg_meta_vrf_resident * w_old + other.avg_meta_vrf_resident * w_new) / total;
        self.cycles += other.cycles;
        self.instrs += other.instrs;
        self.thread_instrs += other.thread_instrs;
        for (k, v) in &other.cheri_histogram {
            *self.cheri_histogram.entry(k).or_insert(0) += v;
        }
        self.stalls.csc_serialisation += other.stalls.csc_serialisation;
        self.stalls.shared_vrf_conflict += other.stalls.shared_vrf_conflict;
        self.stalls.spill_fill += other.stalls.spill_fill;
        self.stalls.cap_multi_flit += other.stalls.cap_multi_flit;
        self.stalls.idle += other.stalls.idle;
        self.dram.read_transactions += other.dram.read_transactions;
        self.dram.write_transactions += other.dram.write_transactions;
        self.dram.tag_transactions += other.dram.tag_transactions;
        self.dram.busy_cycles += other.dram.busy_cycles;
        self.tag_cache.hits += other.tag_cache.hits;
        self.tag_cache.misses += other.tag_cache.misses;
        self.tag_cache.writebacks += other.tag_cache.writebacks;
        self.scratch.accesses += other.scratch.accesses;
        self.scratch.conflict_cycles += other.scratch.conflict_cycles;
        self.data_rf.spills += other.data_rf.spills;
        self.data_rf.fills += other.data_rf.fills;
        self.data_rf.scalar_writes += other.data_rf.scalar_writes;
        self.data_rf.vector_writes += other.data_rf.vector_writes;
        self.data_rf.peak_resident = self.data_rf.peak_resident.max(other.data_rf.peak_resident);
        self.meta_rf.spills += other.meta_rf.spills;
        self.meta_rf.fills += other.meta_rf.fills;
        self.meta_rf.scalar_writes += other.meta_rf.scalar_writes;
        self.meta_rf.vector_writes += other.meta_rf.vector_writes;
        self.meta_rf.peak_resident = self.meta_rf.peak_resident.max(other.meta_rf.peak_resident);
        self.peak_data_vrf_resident = self.peak_data_vrf_resident.max(other.peak_data_vrf_resident);
        self.peak_meta_vrf_resident = self.peak_meta_vrf_resident.max(other.peak_meta_vrf_resident);
        self.cap_regs_used = self.cap_regs_used.max(other.cap_regs_used);
        self.cap_regs_mask |= other.cap_regs_mask;
        self.sfu_requests += other.sfu_requests;
        self.barriers += other.barriers;
        self.stack_cache_hits += other.stack_cache_hits;
        self.scalarised_issues += other.scalarised_issues;
        self.faults.traps += other.faults.traps;
        self.faults.faulting_lanes += other.faults.faulting_lanes;
        self.faults.suppressed += other.faults.suppressed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let mut s = KernelStats { cycles: 1000, instrs: 800, ..KernelStats::default() };
        s.count_cheri("CLW", 60);
        s.count_cheri("CIncOffsetImm", 20);
        assert!((s.cheri_fraction() - 0.1).abs() < 1e-12);
        assert!((s.ipc() - 0.8).abs() < 1e-12);
    }
}
