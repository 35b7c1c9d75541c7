//! Traps and run failures.

use cheri_cap::CapException;
use core::fmt;
use simt_mem::MemFault;

/// Why a thread trapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapCause {
    /// A CHERI check failed (the whole point of the exercise).
    Cheri(CapException),
    /// The memory subsystem faulted (unmapped/misaligned).
    Mem(MemFault),
    /// An undecodable or unsupported instruction was fetched.
    IllegalInstr(u32),
    /// `ecall`/`ebreak` executed (unsupported in kernels).
    Environment,
    /// Instruction fetch left the program.
    FetchOutOfRange(u32),
    /// A GPUShield bounds-table check failed (comparator mode only).
    RegionBound(u32),
}

impl TrapCause {
    /// A stable machine-readable name for trace events and coverage tables
    /// (e.g. `cheri:tag`, `mem:unmapped`, `fetch_oob`).
    pub fn name(&self) -> &'static str {
        match self {
            TrapCause::Cheri(e) => match e {
                CapException::TagViolation => "cheri:tag",
                CapException::SealViolation => "cheri:seal",
                CapException::BoundsViolation => "cheri:bounds",
                CapException::PermitLoadViolation => "cheri:permit_load",
                CapException::PermitStoreViolation => "cheri:permit_store",
                CapException::PermitExecuteViolation => "cheri:permit_execute",
                CapException::PermitLoadCapViolation => "cheri:permit_load_cap",
                CapException::PermitStoreCapViolation => "cheri:permit_store_cap",
                CapException::AlignmentViolation => "cheri:alignment",
                CapException::InexactBounds => "cheri:inexact_bounds",
            },
            TrapCause::Mem(MemFault::Unmapped(_)) => "mem:unmapped",
            TrapCause::Mem(MemFault::Misaligned(_)) => "mem:misaligned",
            TrapCause::Mem(MemFault::BadWidth(_)) => "mem:bad_width",
            TrapCause::IllegalInstr(_) => "illegal_instr",
            TrapCause::Environment => "environment",
            TrapCause::FetchOutOfRange(_) => "fetch_oob",
            TrapCause::RegionBound(_) => "region_bound",
        }
    }
}

impl fmt::Display for TrapCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrapCause::Cheri(e) => write!(f, "CHERI fault: {e}"),
            TrapCause::Mem(e) => write!(f, "memory fault: {e}"),
            TrapCause::IllegalInstr(w) => write!(f, "illegal instruction {w:#010x}"),
            TrapCause::Environment => write!(f, "environment call"),
            TrapCause::FetchOutOfRange(pc) => write!(f, "fetch out of range at {pc:#010x}"),
            TrapCause::RegionBound(a) => write!(f, "bounds-table violation at {a:#010x}"),
        }
    }
}

/// One lane's fault within a warp-precise trap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneFault {
    /// Lane index within the warp.
    pub lane: u32,
    /// Why this lane faulted.
    pub cause: TrapCause,
}

/// A warp-precise trap.
///
/// The memory stage checks *every* active lane before committing any of
/// them, so a trap carries the full set of faulting lanes: `lane_mask` is
/// the bitmask of faulting lanes and `lane_causes` their individual causes.
/// `lane`/`cause` summarise the leader (lowest-numbered) faulting lane for
/// display and for call sites that only care about the first fault.
/// Warp-wide causes (fetch, illegal instruction, environment call) attribute
/// the whole active mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trap {
    /// Faulting warp.
    pub warp: u32,
    /// Leader (lowest-numbered) faulting lane within the warp.
    pub lane: u32,
    /// Program counter of the faulting instruction.
    pub pc: u32,
    /// Cause of the leader lane's fault.
    pub cause: TrapCause,
    /// Bitmask of all faulting lanes.
    pub lane_mask: u64,
    /// Per-lane causes, ordered by ascending lane index.
    pub lane_causes: Vec<LaneFault>,
}

impl Trap {
    /// A warp-wide trap: every lane in `mask` faulted for the same reason
    /// (fetch/decode-stage causes that precede per-lane execution).
    pub(crate) fn warp_wide(warp: u32, mask: u64, pc: u32, cause: TrapCause) -> Self {
        let lane = mask.trailing_zeros().min(63);
        Trap {
            warp,
            lane,
            pc,
            cause,
            lane_mask: mask,
            lane_causes: (0..64)
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| LaneFault { lane: i, cause })
                .collect(),
        }
    }

    /// Build a trap from the per-lane faults collected by a check phase.
    /// Returns `None` if no lane faulted. Faults must be in ascending lane
    /// order (the natural order of a lane loop).
    pub(crate) fn from_lane_faults(warp: u32, pc: u32, faults: Vec<LaneFault>) -> Option<Self> {
        let first = *faults.first()?;
        let mask = faults.iter().fold(0u64, |m, f| m | 1u64 << f.lane);
        Some(Trap {
            warp,
            lane: first.lane,
            pc,
            cause: first.cause,
            lane_mask: mask,
            lane_causes: faults,
        })
    }
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trap in warp {} lane {} at pc {:#010x}: {}",
            self.warp, self.lane, self.pc, self.cause
        )?;
        if self.lane_causes.len() > 1 {
            write!(
                f,
                " (+{} more faulting lane(s), mask {:#x})",
                self.lane_causes.len() - 1,
                self.lane_mask
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for Trap {}

/// Failure modes of a kernel run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A thread trapped.
    Trap(Trap),
    /// The watchdog expired (a runaway kernel).
    Timeout {
        /// Cycles simulated before giving up.
        cycles: u64,
    },
    /// Barrier deadlock: every live warp is parked at a barrier, but no
    /// block can release — e.g. a barrier reached by only part of a block
    /// whose other warps already terminated. Detected the moment progress
    /// becomes impossible, not when the watchdog expires.
    Deadlock {
        /// Cycles simulated when the deadlock was detected.
        cycles: u64,
        /// Warps parked at a barrier at that point.
        blocked_warps: u32,
    },
    /// The scheduler issued a warp with no selectable thread — an internal
    /// pipeline invariant violation, reported as a typed error instead of
    /// aborting the process.
    SchedulerInvariant {
        /// The warp the scheduler tried to issue.
        warp: u32,
        /// Cycles simulated when the violation was detected.
        cycles: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Trap(t) => t.fmt(f),
            RunError::Timeout { cycles } => write!(f, "watchdog timeout after {cycles} cycles"),
            RunError::Deadlock { cycles, blocked_warps } => write!(
                f,
                "barrier deadlock after {cycles} cycles ({blocked_warps} warp(s) parked at a barrier that can never release)"
            ),
            RunError::SchedulerInvariant { warp, cycles } => write!(
                f,
                "scheduler invariant violation: warp {warp} issued with no selectable thread at cycle {cycles}"
            ),
        }
    }
}

impl std::error::Error for RunError {}

impl From<Trap> for RunError {
    fn from(t: Trap) -> Self {
        RunError::Trap(t)
    }
}
