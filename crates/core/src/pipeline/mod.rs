//! The SM pipeline, split by stage (Figure 2).
//!
//! Each submodule contributes one `impl Sm` block and owns the statistics
//! counters and trace events of its stage:
//!
//! * [`schedule`] — barrel scheduler: round-robin warp pick, active-thread
//!   selection, barrier release, idle accounting, deadlock detection.
//! * [`operands`] — operand collection: lane-wise data/metadata
//!   register-file reads with their spill/fill costs and the shared-VRF
//!   serialisation penalty, the free SRF peeks of the warp-wide driver,
//!   capability marshalling.
//! * [`classify`] — pre-execute issue classification: evaluates the ROM
//!   slot's scalarisation rule — scalarised (warp-wide over compact
//!   operands) versus per-lane — recorded on the issue event and
//!   `scalarised_issues`.
//! * [`execute`] — fetch check, issue accounting and the call into the
//!   handler of the slot's resolved op ([`crate::rom`]); owns the system
//!   class and the memory class's issue-time stalls.
//! * [`data`] / [`capops`] / [`flow`] — the op-class handlers. Each
//!   instruction's meaning is written once, as a lane function, and
//!   applied by one of two drivers: lane-wise over the loaned lane scratch
//!   (the differential reference, forced by `Sm::set_scalarise(false)`) or
//!   warp-wide over compact operands (see [`scalar`] for the compact
//!   arithmetic). Splats (`LUI`, `AUIPC`, CSR reads, links) have no lane
//!   form: both drivers commit them compactly.
//! * [`memstage`] — the memory stage: one check-then-commit path for every
//!   load, store, capability transfer and atomic against the tagged store
//!   its address routes to (checked once per warp where the address span
//!   allows; the commit trusts the check, and a uniform load reads its
//!   word once), then the timing: coalescer → tag controller → DRAM, the
//!   scratchpad's banks, the compressed stack cache filter.
//! * [`writeback`] — register writeback through two entry points, the lane
//!   form and the compact form (spill/fill costing, `rf_transition`), and
//!   PC/status commit.
//!
//! `Sm` itself (in [`crate::sm`]) keeps only the state and the host API;
//! the stages reach into its `pub(crate)` fields exactly as the monolithic
//! implementation did, so the cycle-level behaviour is unchanged.

pub(crate) mod capops;
pub(crate) mod classify;
pub(crate) mod data;
pub(crate) mod execute;
pub(crate) mod flow;
pub(crate) mod memstage;
pub(crate) mod operands;
pub(crate) mod scalar;
pub(crate) mod schedule;
pub(crate) mod writeback;

use crate::config::{SmConfig, SPILL_CYCLES};

/// What one scheduler step did (see [`schedule`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepOutcome {
    /// Every thread has terminated; the run is complete.
    Done,
    /// An instruction issued or time advanced to the next resume point.
    Progress,
}

/// The lanes of a selection mask, in ascending order.
#[inline]
pub(crate) fn active_lanes(mask: u64, lanes: usize) -> impl Iterator<Item = usize> {
    (0..lanes).filter(move |i| mask >> i & 1 == 1)
}

/// Costs accumulated while executing one instruction.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Costs {
    /// Stalls from CHERI mechanisms (CSC serialisation, shared-VRF
    /// conflicts, capability multi-flit accesses).
    pub(crate) extra_cycles: u32,
    /// Stalls from register spill/fill handling.
    pub(crate) spill_cycles: u32,
    pub(crate) dram_reads: u32,
    pub(crate) dram_writes: u32,
}

impl Costs {
    /// Charge the fills and spills one register-file read or write made:
    /// the configured spill latency each, plus one DRAM transfer of the
    /// vector apiece.
    pub(crate) fn add_spill_fill(&mut self, cfg: &SmConfig, fills: u32, spills: u32) {
        let txns = cfg.lanes.div_ceil(16); // lanes * 4 bytes / 64-byte blocks
        self.spill_cycles += (fills + spills) * SPILL_CYCLES;
        self.dram_reads += fills * txns;
        self.dram_writes += spills * txns;
    }
}
