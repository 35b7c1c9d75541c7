//! The program ROM — the SM's only copy of the loaded kernel: the raw words
//! plus a one-time decode into dense micro-ops, so the hot interpreter loop
//! never re-derives per-issue facts that are static per instruction
//! (§3.3.4 of DESIGN.md).
//!
//! Each slot holds, for one instruction word:
//!
//! * the decoded [`Instr`] (`None` for undecodable words, which trap as
//!   `illegal_instr` carrying the raw word),
//! * the **static half of the scalarisation verdict**
//!   ([`StaticClass`]): instructions that scalarise under any mask and
//!   operand classes, instructions that never do, and the rest — for
//!   which only the dynamic register-compactness check runs at issue,
//! * a [`TrapPlan`] naming which memory-stage probes (CHERI access,
//!   bounds-table, alignment, mapping) the op can *ever* need, so the
//!   memory stage skips the others,
//! * whether the op is **straight-line** (always advances every selected
//!   lane to `pc + 4` with no status change), and
//! * whether the slot is a **basic-block leader** (index 0, the successor
//!   of any non-straight-line op or undecodable word, and the static
//!   target of every `JAL`/branch).
//!
//! The `straight`/`leader` bits drive the scheduler's basic-block runs: a
//! converged warp that is the only pickable warp retires a straight-line
//! run without re-entering the per-issue dispatcher (see
//! [`crate::pipeline::schedule`]). The ROM is a pure function of the
//! program words and the CHERI mode: nothing execution-dependent is cached.

use crate::pipeline::classify::{static_issue_class, StaticClass};
use simt_isa::Instr;
use simt_mem::map;

/// Which memory-stage trap probes an instruction can ever need, fixed at
/// decode time from the instruction and the CHERI mode. The dynamic parts
/// of each probe (is a bounds table installed? does the address fault?)
/// are still evaluated at execute time; the plan only licenses *skipping*
/// probes that are statically impossible for the op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TrapPlan(u8);

impl TrapPlan {
    /// Per-lane CHERI access check against the address capability.
    pub(crate) const CHERI_ACCESS: TrapPlan = TrapPlan(1);
    /// GPUShield bounds-table translation (comparator schemes only).
    pub(crate) const BOUNDS_TABLE: TrapPlan = TrapPlan(1 << 1);
    /// Natural-alignment check of the effective address.
    pub(crate) const ALIGNMENT: TrapPlan = TrapPlan(1 << 2);
    /// Address-map routing / mapping probe.
    pub(crate) const MAPPING: TrapPlan = TrapPlan(1 << 3);

    /// No probes (every non-memory instruction).
    pub(crate) const fn empty() -> Self {
        TrapPlan(0)
    }

    /// Does the plan include probe `f`?
    #[inline]
    pub(crate) fn has(self, f: TrapPlan) -> bool {
        self.0 & f.0 != 0
    }

    const fn with(self, f: TrapPlan) -> Self {
        TrapPlan(self.0 | f.0)
    }

    /// The trap-check plan of `instr` under the given CHERI mode. Memory
    /// ops under CHERI take the capability check plus the mapping probe;
    /// under the integer schemes they take the bounds-table and (for
    /// multi-byte widths) alignment checks plus the mapping probe. AMOs
    /// carry no separate alignment probe: the mapping probe's word read
    /// reports misalignment, exactly as the un-planned path did.
    fn for_instr(instr: Instr, cheri: bool) -> TrapPlan {
        let bytes = match instr {
            Instr::Load { w, .. } => w.bytes(),
            Instr::Store { w, .. } => w.bytes(),
            Instr::Clc { .. } | Instr::Csc { .. } => 8,
            Instr::Amo { .. } => 4,
            _ => return TrapPlan::empty(),
        };
        let plan = TrapPlan::empty().with(TrapPlan::MAPPING);
        if cheri {
            plan.with(TrapPlan::CHERI_ACCESS)
        } else {
            let plan = plan.with(TrapPlan::BOUNDS_TABLE);
            if bytes > 1 && !matches!(instr, Instr::Amo { .. }) {
                plan.with(TrapPlan::ALIGNMENT)
            } else {
                plan
            }
        }
    }
}

/// One pre-decoded program-ROM slot (see the module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct MicroOp {
    /// The decoded instruction.
    pub(crate) instr: Instr,
    /// The static half of the scalarisation verdict.
    pub(crate) sclass: StaticClass,
    /// Which memory-stage trap probes the op can ever need.
    pub(crate) plan: TrapPlan,
    /// Does the op always advance every selected lane to `pc + 4` with no
    /// status change? (Memory ops qualify: a trap abandons the issue
    /// before any commit, ending a block run through the suppression
    /// check rather than a status edit.)
    pub(crate) straight: bool,
    /// Is this slot a basic-block leader? A block run never *continues*
    /// into a leader; it may start on one.
    pub(crate) leader: bool,
}

/// Can `instr` do anything other than advance every selected lane to
/// `pc + 4` with no status change? Control flow rewrites PCs (and, under
/// CHERI, per-lane PCC metadata), SIMT ops edit thread status, and
/// `ecall`/`ebreak` always trap.
fn is_straight(instr: Instr) -> bool {
    !matches!(
        instr,
        Instr::Jal { .. }
            | Instr::Jalr { .. }
            | Instr::Branch { .. }
            | Instr::Simt { .. }
            | Instr::Ecall
            | Instr::Ebreak
    )
}

/// The loaded program: the instruction-memory words and one [`MicroOp`]
/// per word (`None` where the word is undecodable). Empty until a program
/// is loaded, so every PC traps as `fetch_oob`.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProgramRom {
    pub(crate) words: Vec<u32>,
    pub(crate) ops: Vec<Option<MicroOp>>,
}

impl ProgramRom {
    /// Pre-decode `words` under the given CHERI mode: decode every word,
    /// resolve the static classification and trap plan, then mark block
    /// leaders (index 0, successors of non-straight-line ops and of
    /// undecodable words, and in-range static `JAL`/branch targets).
    pub(crate) fn build(words: &[u32], cheri: bool) -> Self {
        let mut ops: Vec<Option<MicroOp>> = words
            .iter()
            .map(|&raw| {
                Instr::decode(raw).map(|instr| MicroOp {
                    instr,
                    sclass: static_issue_class(instr, cheri),
                    plan: TrapPlan::for_instr(instr, cheri),
                    straight: is_straight(instr),
                    leader: false,
                })
            })
            .collect();
        let n = ops.len();
        let mut leader = vec![false; n];
        if n > 0 {
            leader[0] = true;
        }
        for i in 0..n {
            let (straight, target_off) = match &ops[i] {
                Some(op) => (
                    op.straight,
                    match op.instr {
                        Instr::Jal { off, .. } | Instr::Branch { off, .. } => Some(off),
                        _ => None,
                    },
                ),
                None => (false, None),
            };
            if !straight && i + 1 < n {
                leader[i + 1] = true;
            }
            if let Some(off) = target_off {
                let pc = map::TCIM_BASE + (i as u32) * 4;
                let target = pc.wrapping_add(off as u32);
                if target >= map::TCIM_BASE && target.is_multiple_of(4) {
                    if let Some(ti) = pc_index(target) {
                        if ti < n {
                            leader[ti] = true;
                        }
                    }
                }
            }
        }
        for (op, l) in ops.iter_mut().zip(leader) {
            if let Some(op) = op {
                op.leader = l;
            }
        }
        ProgramRom { words: words.to_vec(), ops }
    }
}

/// The instruction-memory index of `pc`, or `None` when `pc` is below the
/// TCIM base. Checked conversion: the subtraction cannot wrap and the
/// widening cannot truncate (part of the issue-path narrowing-cast audit).
#[inline]
pub(crate) fn pc_index(pc: u32) -> Option<usize> {
    if pc < map::TCIM_BASE {
        return None;
    }
    usize::try_from((pc - map::TCIM_BASE) / 4).ok()
}
