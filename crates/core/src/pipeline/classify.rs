//! Issue classification: which execute driver an issue runs on.
//!
//! The classifier runs in the issue stage *before* execution, over nothing
//! but the ROM slot's pre-bound [`ScalarRule`], the active mask and the
//! register file's compact-form metadata
//! ([`simt_regfile::CompressedRegFile::class_of`] — a pure peek). Its
//! verdict is recorded on the `issue` trace event and in
//! [`crate::KernelStats::scalarised_issues`], and the execute stage obeys
//! the same verdict when picking between the warp-wide driver and the
//! lane-wise reference driver — so the counter, the event stream and the
//! executed path can never disagree.
//!
//! An issue is [`IssueClass::Scalarised`] when execute computes its result
//! once per warp from compact (uniform/affine) operands:
//!
//! * **splats** — `LUI`, `AUIPC`, `JAL`, `CSRRS` and `CSpecialRW` produce a
//!   warp-invariant (or hart-affine) result by construction, under any mask;
//! * **uniform control flow** — branches with uniform operands and
//!   non-CHERI `JALR` with a uniform base resolve one target per warp;
//! * **compute ops over compact operands** — ALU/mul/FP/capability ops
//!   whose result provably stays uniform/affine (see [`alu_scalarises`] and
//!   [`muldiv_scalarises`]), under a full mask so the result write needs no
//!   per-lane merge.
//!
//! Memory operations, AMOs, fences, traps, SIMT control and CHERI `JALR`
//! are inherently per-lane ([`IssueClass::PerLane`]).

use crate::sm::Sm;
use crate::warp::Selection;
use simt_isa::{AluOp, MulOp, Reg};
use simt_regfile::OperandClass;
use simt_trace::IssueClass;

/// Which linearity rule a [`ScalarRule::Linear`] op obeys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinearOp {
    /// [`alu_scalarises`].
    Alu(AluOp),
    /// [`muldiv_scalarises`].
    Mul(MulOp),
}

/// When an instruction scalarises, resolved per program-ROM slot at load
/// time ([`crate::rom::lower`]) and evaluated per issue by
/// [`Sm::resolve_issue_class`] with pure register-class peeks. Registers an
/// op does not have are `x0`, which reads as uniform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScalarRule {
    /// Scalarises under any mask and operand classes (warp-invariant
    /// splats).
    Always,
    /// Never scalarises (the memory pipeline, traps, SIMT control, and
    /// CHERI `JALR`).
    Never,
    /// Scalarises when `cap` is uniform as a full capability (data *and*
    /// metadata), both `data` registers are uniform, and — if `full` — the
    /// mask covers every lane.
    Uniform { cap: Reg, data: [Reg; 2], full: bool },
    /// Scalarises under a full mask when `op` is linear in the compact
    /// classes of `rs1` and `rs2`.
    Linear { op: LinearOp, rs1: Reg, rs2: Reg },
}

/// Does `op` over operand classes `a`/`b` have a warp-wide evaluation that
/// is exactly congruent (mod 2³²) to the lane-wise one?
///
/// Uniform∘uniform always does (one ALU evaluation). With an affine
/// operand, only the operations *linear* in each lane value qualify:
/// add/sub with any compact mix, and a constant left shift of an affine
/// value (a multiplication by 2^k). Everything else — comparisons,
/// bitwise logic, variable or right shifts — breaks affinity.
pub(crate) fn alu_scalarises(op: AluOp, a: OperandClass, b: OperandClass) -> bool {
    use OperandClass::{Uniform, Vector};
    match (a, b) {
        (Vector, _) | (_, Vector) => false,
        (Uniform, Uniform) => true,
        _ => matches!(op, AluOp::Add | AluOp::Sub) || (op == AluOp::Sll && b == Uniform),
    }
}

/// [`alu_scalarises`] for the M extension: uniform∘uniform always; a
/// multiply by a uniform factor keeps an affine operand affine; division
/// and remainder are not linear in anything.
pub(crate) fn muldiv_scalarises(op: MulOp, a: OperandClass, b: OperandClass) -> bool {
    use OperandClass::{Uniform, Vector};
    match (a, b) {
        (Vector, _) | (_, Vector) => false,
        (Uniform, Uniform) => true,
        _ => op == MulOp::Mul && (a == Uniform || b == Uniform),
    }
}

impl Sm {
    /// The compact-form class of a data register (`x0` reads as uniform 0).
    fn data_class(&self, w: u32, reg: Reg) -> OperandClass {
        if reg.is_zero() {
            OperandClass::Uniform
        } else {
            self.data_rf.class_of(w, reg.index() as u32)
        }
    }

    fn data_uniform(&self, w: u32, reg: Reg) -> bool {
        self.data_class(w, reg) == OperandClass::Uniform
    }

    /// Is a full capability operand (data *and* metadata) uniform across
    /// the warp? Without a metadata register file the metadata half is
    /// uniformly null.
    fn cap_uniform(&self, w: u32, reg: Reg) -> bool {
        self.data_uniform(w, reg)
            && match &self.meta_rf {
                Some(rf) => {
                    reg.is_zero() || rf.class_of(w, reg.index() as u32) == OperandClass::Uniform
                }
                None => true,
            }
    }

    /// Classify an issue (see the module docs for the criteria) by
    /// evaluating the ROM slot's pre-bound [`ScalarRule`]. Pure: no
    /// register-file or statistics state changes between this peek and the
    /// execution it governs.
    pub(crate) fn resolve_issue_class(
        &self,
        w: u32,
        sel: &Selection,
        rule: ScalarRule,
    ) -> IssueClass {
        let scalarised = match rule {
            ScalarRule::Always => true,
            ScalarRule::Never => false,
            ScalarRule::Uniform { cap, data, full } => {
                (!full || sel.mask == self.full_mask)
                    && self.cap_uniform(w, cap)
                    && self.data_uniform(w, data[0])
                    && self.data_uniform(w, data[1])
            }
            ScalarRule::Linear { op, rs1, rs2 } => {
                sel.mask == self.full_mask && {
                    let (a, b) = (self.data_class(w, rs1), self.data_class(w, rs2));
                    match op {
                        LinearOp::Alu(op) => alu_scalarises(op, a, b),
                        LinearOp::Mul(op) => muldiv_scalarises(op, a, b),
                    }
                }
            }
        };
        if scalarised {
            IssueClass::Scalarised
        } else {
            IssueClass::PerLane
        }
    }
}
