//! SM configuration, including the paper's three evaluation configurations.

use simt_mem::{map, DramConfig, TagCacheConfig};

/// How CHERI is provisioned in the SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheriMode {
    /// No CHERI: plain RV32 with integer addresses and no memory safety.
    Off,
    /// CHERI enabled, with the given cost-amelioration options.
    On(CheriOpts),
}

impl CheriMode {
    /// Is CHERI enabled at all?
    pub fn enabled(self) -> bool {
        matches!(self, CheriMode::On(_))
    }

    /// The options, if enabled.
    pub fn opts(self) -> Option<CheriOpts> {
        match self {
            CheriMode::Off => None,
            CheriMode::On(o) => Some(o),
        }
    }
}

/// The cost-amelioration techniques of Section 3, each independently
/// switchable for ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheriOpts {
    /// Compress the capability-metadata register file (detect uniform
    /// metadata vectors and store them in a metadata SRF). When off, the
    /// metadata register file stores full 33-bit vectors for every register
    /// (the naive "CHERI" configuration, 103% register-file overhead).
    pub compress_meta: bool,
    /// Share one VRF between the data and metadata register files; accessing
    /// a register whose data *and* metadata are both uncompressed costs an
    /// extra cycle (serialised read), and `CSC` pays an extra operand-fetch
    /// cycle against the single-read-port metadata SRF.
    pub shared_vrf: bool,
    /// Null-value optimisation in the metadata SRF.
    pub nvo: bool,
    /// Execute `CGetBase`, `CGetLen`, `CSetBounds[..]`, `CRRL` and `CRAM` in
    /// the shared function unit instead of per vector lane.
    pub sfu_cap_ops: bool,
    /// Static PC metadata restriction: PCC metadata is set per kernel launch
    /// and never changes, so active-thread selection compares integer PCs
    /// only.
    pub static_pcc: bool,
}

impl CheriOpts {
    /// The paper's unoptimised **CHERI** configuration.
    pub fn naive() -> Self {
        CheriOpts {
            compress_meta: false,
            shared_vrf: false,
            nvo: false,
            sfu_cap_ops: false,
            static_pcc: false,
        }
    }

    /// The paper's **CHERI (Optimised)** configuration.
    pub fn optimised() -> Self {
        CheriOpts {
            compress_meta: true,
            shared_vrf: true,
            nvo: true,
            sfu_cap_ops: true,
            static_pcc: true,
        }
    }
}

/// What the SM does when a warp traps.
///
/// Policies only affect *delivery*; detection is always warp-precise (the
/// memory stage checks every active lane before committing any of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrapPolicy {
    /// Abort the kernel on the first trap, reporting the full faulting-lane
    /// set. No lane of the faulting warp commits any architectural effect
    /// for the trapping instruction.
    #[default]
    Abort,
    /// Permanently disable the faulting lanes and keep the warp running.
    /// Each suppressed fault is recorded in the SM's fault log and counted
    /// in [`crate::FaultStats`]. Warp-wide faults (fetch, illegal
    /// instruction) disable the whole warp.
    MaskLanes,
}

/// Timing constants of the pipeline model, kept together for calibration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Scratchpad access latency (network + SRAM), excluding conflicts.
    pub scratch_latency: u32,
    /// Integer divide/remainder latency (iterative divider).
    pub div_latency: u32,
    /// Shared-function-unit fixed latency (pipeline depth), on top of the
    /// one-lane-per-cycle serialisation.
    pub sfu_latency: u32,
    /// Extra issue cycles for the second flit of a capability access.
    pub cap_access_extra: u32,
    /// Pipeline cycles consumed per register spill or fill.
    pub spill_cycles: u32,
}

impl Default for Timing {
    fn default() -> Self {
        Timing {
            scratch_latency: 4,
            div_latency: 16,
            sfu_latency: 12,
            cap_access_extra: 1,
            spill_cycles: 4,
        }
    }
}

/// Full SM configuration.
#[derive(Debug, Clone, Copy)]
pub struct SmConfig {
    /// Number of resident warps (64 in the evaluation).
    pub warps: u32,
    /// Threads per warp / vector lanes (32 in the evaluation).
    pub lanes: u32,
    /// VRF capacity as slots (the evaluation baseline uses 3/8 of the
    /// architectural register count — see [`SmConfig::vrf_slots_frac`]).
    pub vrf_slots: u32,
    /// CHERI provisioning.
    pub cheri: CheriMode,
    /// DRAM channel model.
    pub dram: DramConfig,
    /// DRAM size in bytes.
    pub dram_size: u32,
    /// Tag cache geometry.
    pub tag_cache: TagCacheConfig,
    /// Pipeline timing constants.
    pub timing: Timing,
    /// SIMTight's proof-of-concept *compressed stack cache* (Section 4.4):
    /// uniform/affine spill vectors are cached compactly instead of going
    /// to DRAM. Off by default, as in the paper's evaluated configurations.
    /// Kir's integer spill slots reach it: on, MotionEst's stack traffic is
    /// absorbed (at the quick geometry its Base3 run drops from 279,633 to
    /// 189,546 cycles).
    pub stack_cache: bool,
    /// What to do when a warp traps (default: abort the kernel).
    pub trap_policy: TrapPolicy,
}

impl SmConfig {
    /// A full-size SM as evaluated in the paper: 64 warps × 32 lanes with a
    /// 3/8-size VRF.
    pub fn full(cheri: CheriMode) -> Self {
        SmConfig::with_geometry(64, 32, cheri)
    }

    /// A small SM for fast unit tests.
    pub fn small(cheri: CheriMode) -> Self {
        SmConfig::with_geometry(8, 8, cheri)
    }

    /// Arbitrary geometry with the default 3/8 VRF.
    pub fn with_geometry(warps: u32, lanes: u32, cheri: CheriMode) -> Self {
        let total_regs = warps * 32;
        SmConfig {
            warps,
            lanes,
            vrf_slots: total_regs * 3 / 8,
            cheri,
            dram: DramConfig::default(),
            dram_size: map::DRAM_DEFAULT_SIZE,
            tag_cache: TagCacheConfig::default(),
            timing: Timing::default(),
            stack_cache: false,
            trap_policy: TrapPolicy::default(),
        }
    }

    /// Set the VRF size as a fraction (`num`/`den`) of the architectural
    /// vector register count, as in Table 2.
    pub fn vrf_slots_frac(mut self, num: u32, den: u32) -> Self {
        self.vrf_slots = self.warps * 32 * num / den;
        self
    }

    /// Threads in the SM.
    pub fn threads(&self) -> u32 {
        self.warps * self.lanes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configurations() {
        let base = SmConfig::full(CheriMode::Off);
        assert_eq!(base.threads(), 2048);
        assert_eq!(base.vrf_slots, 768);
        let opt = SmConfig::full(CheriMode::On(CheriOpts::optimised()));
        assert!(opt.cheri.enabled());
        assert!(opt.cheri.opts().unwrap().nvo);
        assert!(!CheriOpts::naive().compress_meta);
        let half = SmConfig::full(CheriMode::Off).vrf_slots_frac(1, 2);
        assert_eq!(half.vrf_slots, 1024);
    }
}
