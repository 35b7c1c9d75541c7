//! Issue classification: which execution path a decoded instruction takes.
//!
//! The classifier runs in the issue stage *before* execution, over nothing
//! but the decoded instruction, the active mask and the register file's
//! compact-form metadata ([`simt_regfile::CompressedRegFile::class_of`] —
//! a pure peek). Its verdict is recorded on the `issue` trace event and in
//! [`crate::KernelStats::scalarised_issues`], and the execute stage obeys
//! the same verdict when picking between the warp-wide fast path and the
//! lane-wise reference path — so the counter, the event stream and the
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
use simt_isa::{AluOp, Instr, MulOp, Reg};
use simt_regfile::OperandClass;
use simt_trace::IssueClass;

/// The static half of the scalarisation verdict: what can be decided from
/// the instruction and the CHERI mode alone, cached per program-ROM slot
/// at load time ([`crate::rom`]). `Dynamic` ops still need the
/// per-issue register-class and mask checks of
/// [`Sm::dynamic_issue_class`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StaticClass {
    /// Scalarises under any mask and operand classes (warp-invariant
    /// splats).
    Always,
    /// Never scalarises (the memory pipeline, traps, SIMT control, and
    /// CHERI `JALR`).
    Never,
    /// Depends on the dynamic operand classes (and, for compute ops, a
    /// full mask).
    Dynamic,
}

/// Classify the static half of the scalarisation verdict (see
/// [`StaticClass`]).
pub(crate) fn static_issue_class(instr: Instr, cheri: bool) -> StaticClass {
    match instr {
        // Warp-invariant splats (CSRRS is uniform or hart-affine).
        Instr::Lui { .. }
        | Instr::Auipc { .. }
        | Instr::Jal { .. }
        | Instr::Csrrs { .. }
        | Instr::CSpecialRw { .. } => StaticClass::Always,
        // CHERI JALR stays per-lane: it unseals, checks and installs a
        // per-lane PCC. Non-CHERI JALR scalarises on a uniform base.
        Instr::Jalr { .. } => {
            if cheri {
                StaticClass::Never
            } else {
                StaticClass::Dynamic
            }
        }
        Instr::Branch { .. }
        | Instr::OpImm { .. }
        | Instr::Op { .. }
        | Instr::MulDiv { .. }
        | Instr::FOp { .. }
        | Instr::FSqrt { .. }
        | Instr::FCmp { .. }
        | Instr::FCvtWS { .. }
        | Instr::FCvtSW { .. }
        | Instr::CapUnary { .. }
        | Instr::CAndPerm { .. }
        | Instr::CSetFlags { .. }
        | Instr::CSetAddr { .. }
        | Instr::CIncOffset { .. }
        | Instr::CIncOffsetImm { .. }
        | Instr::CSetBounds { .. }
        | Instr::CSetBoundsExact { .. }
        | Instr::CSetBoundsImm { .. } => StaticClass::Dynamic,
        // Inherently per-lane: the memory pipeline, traps and SIMT
        // control.
        Instr::Load { .. }
        | Instr::Store { .. }
        | Instr::Clc { .. }
        | Instr::Csc { .. }
        | Instr::Amo { .. }
        | Instr::Fence
        | Instr::Ecall
        | Instr::Ebreak
        | Instr::Simt { .. } => StaticClass::Never,
    }
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
    pub(crate) fn data_class(&self, w: u32, reg: Reg) -> OperandClass {
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

    /// Classify an issue (see the module docs for the criteria) from the
    /// ROM slot's pre-computed [`StaticClass`]: only the `Dynamic` case
    /// runs the per-issue register-class and mask checks. Pure: no
    /// register-file or statistics state changes between this peek and the
    /// execution it governs.
    pub(crate) fn resolve_issue_class(
        &self,
        w: u32,
        sel: &Selection,
        instr: Instr,
        sclass: StaticClass,
    ) -> IssueClass {
        let scalarised = match sclass {
            StaticClass::Always => true,
            StaticClass::Never => false,
            StaticClass::Dynamic => self.dynamic_issue_class(w, sel, instr),
        };
        if scalarised {
            IssueClass::Scalarised
        } else {
            IssueClass::PerLane
        }
    }

    /// The dynamic half of the scalarisation verdict, for
    /// [`StaticClass::Dynamic`] instructions only.
    fn dynamic_issue_class(&self, w: u32, sel: &Selection, instr: Instr) -> bool {
        let full = sel.mask == u64::MAX >> (64 - self.cfg.lanes);
        match instr {
            // Uniform control flow (the CHERI JALR case is statically
            // `Never` and cannot reach here).
            Instr::Jalr { rs1, .. } => !self.cheri() && self.data_uniform(w, rs1),
            Instr::Branch { rs1, rs2, .. } => {
                self.data_uniform(w, rs1) && self.data_uniform(w, rs2)
            }
            // Compute over compact operands; a full mask keeps the result
            // write free of per-lane merging.
            Instr::OpImm { op, rs1, .. } => {
                full && alu_scalarises(op, self.data_class(w, rs1), OperandClass::Uniform)
            }
            Instr::Op { op, rs1, rs2, .. } => {
                full && alu_scalarises(op, self.data_class(w, rs1), self.data_class(w, rs2))
            }
            Instr::MulDiv { op, rs1, rs2, .. } => {
                full && muldiv_scalarises(op, self.data_class(w, rs1), self.data_class(w, rs2))
            }
            Instr::FOp { rs1, rs2, .. } | Instr::FCmp { rs1, rs2, .. } => {
                full && self.data_uniform(w, rs1) && self.data_uniform(w, rs2)
            }
            Instr::FSqrt { rs1, .. } | Instr::FCvtWS { rs1, .. } | Instr::FCvtSW { rs1, .. } => {
                full && self.data_uniform(w, rs1)
            }
            // Capability arithmetic on a uniform capability (and uniform
            // scalar operand, where one exists).
            Instr::CapUnary { cs1, .. } => full && self.cap_uniform(w, cs1),
            Instr::CAndPerm { cs1, rs2, .. }
            | Instr::CSetFlags { cs1, rs2, .. }
            | Instr::CSetAddr { cs1, rs2, .. }
            | Instr::CIncOffset { cs1, rs2, .. }
            | Instr::CSetBounds { cs1, rs2, .. }
            | Instr::CSetBoundsExact { cs1, rs2, .. } => {
                full && self.cap_uniform(w, cs1) && self.data_uniform(w, rs2)
            }
            Instr::CIncOffsetImm { cs1, .. } | Instr::CSetBoundsImm { cs1, .. } => {
                full && self.cap_uniform(w, cs1)
            }
            _ => unreachable!("statically classified instruction reached the dynamic check"),
        }
    }
}
