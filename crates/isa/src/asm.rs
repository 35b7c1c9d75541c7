//! A tiny two-pass assembler: emit [`Instr`]s with symbolic labels, then
//! resolve branch/jump offsets. Used by the NoCL kernel compiler and by
//! hand-written test programs.
//!
//! ```
//! use simt_isa::asm::Assembler;
//! use simt_isa::{AluOp, Instr, Reg};
//!
//! let mut a = Assembler::new();
//! let done = a.label();
//! a.push(Instr::OpImm { op: AluOp::Add, rd: Reg::A0, rs1: Reg::ZERO, imm: 3 });
//! let loop_top = a.here();
//! a.push(Instr::OpImm { op: AluOp::Add, rd: Reg::A0, rs1: Reg::A0, imm: -1 });
//! a.beqz(Reg::A0, done);
//! a.jump(loop_top);
//! a.bind(done);
//! a.terminate();
//! let words = a.assemble().unwrap();
//! assert_eq!(words.len(), 5);
//! ```

use crate::{BranchCond, Instr, Reg, SimtOp};
use core::fmt;

/// A forward-referenceable code label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Why [`Assembler::assemble`] could not resolve the branch or jump at
/// instruction index `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsmError {
    /// Its target label was never bound.
    UnboundLabel {
        /// Instruction index of the branch or jump.
        at: usize,
    },
    /// Its byte offset to the target does not fit the instruction.
    OutOfRange {
        /// Instruction index of the branch or jump.
        at: usize,
        /// The byte offset to the target.
        off: i64,
    },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnboundLabel { at } => write!(f, "instruction {at} targets an unbound label"),
            AsmError::OutOfRange { at, off } => {
                write!(f, "instruction {at} branches {off} bytes, out of its range")
            }
        }
    }
}

impl std::error::Error for AsmError {}

/// The assembler: a growing instruction list plus pending label fixups.
#[derive(Debug, Default)]
pub struct Assembler {
    instrs: Vec<Instr>,
    /// `(instruction index, target)` of every branch and jump.
    patches: Vec<(usize, Label)>,
    /// `labels[l] = Some(instruction index)` once bound.
    labels: Vec<Option<usize>>,
}

impl Assembler {
    /// An empty assembler.
    pub fn new() -> Self {
        Assembler::default()
    }

    /// Create an unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Create a label bound to the current position.
    pub fn here(&mut self) -> Label {
        let l = self.label();
        self.bind(l);
        l
    }

    /// Bind `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.instrs.len());
    }

    /// Current instruction count.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Is the program empty?
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Append an instruction verbatim.
    pub fn push(&mut self, i: Instr) {
        self.instrs.push(i);
    }

    /// Conditional branch to a label.
    pub fn branch(&mut self, cond: BranchCond, rs1: Reg, rs2: Reg, target: Label) {
        self.patches.push((self.instrs.len(), target));
        self.instrs.push(Instr::Branch { cond, rs1, rs2, off: 0 });
    }

    /// Branch if `rs` is zero.
    pub fn beqz(&mut self, rs: Reg, target: Label) {
        self.branch(BranchCond::Eq, rs, Reg::ZERO, target);
    }

    /// Branch if `rs` is non-zero.
    pub fn bnez(&mut self, rs: Reg, target: Label) {
        self.branch(BranchCond::Ne, rs, Reg::ZERO, target);
    }

    /// Unconditional jump to a label (`jal zero`).
    pub fn jump(&mut self, target: Label) {
        self.patches.push((self.instrs.len(), target));
        self.instrs.push(Instr::Jal { rd: Reg::ZERO, off: 0 });
    }

    /// Load a 32-bit constant with `lui`+`addi` (or just one of them when
    /// possible).
    pub fn li(&mut self, rd: Reg, value: u32) {
        let lo = (value << 20) as i32 >> 20; // sign-extended low 12 bits
        let hi = value.wrapping_sub(lo as u32);
        if hi != 0 {
            self.push(Instr::Lui { rd, imm: hi });
            if lo != 0 {
                self.push(Instr::OpImm { op: crate::AluOp::Add, rd, rs1: rd, imm: lo });
            }
        } else {
            self.push(Instr::OpImm { op: crate::AluOp::Add, rd, rs1: Reg::ZERO, imm: lo });
        }
    }

    /// The SIMT terminate instruction.
    pub fn terminate(&mut self) {
        self.push(Instr::Simt { op: SimtOp::Terminate });
    }

    /// The SIMT block-barrier instruction.
    pub fn barrier(&mut self) {
        self.push(Instr::Simt { op: SimtOp::Barrier });
    }

    /// Resolve labels and encode to instruction words.
    ///
    /// # Errors
    ///
    /// Fails if a branch or jump targets an unbound label, or a label
    /// beyond the reach of its offset field (±4 KiB for a branch, ±1 MiB
    /// for a jump).
    pub fn assemble(mut self) -> Result<Vec<u32>, AsmError> {
        for (at, label) in std::mem::take(&mut self.patches) {
            let t = self.labels[label.0].ok_or(AsmError::UnboundLabel { at })?;
            let off = (t as i64 - at as i64) * 4;
            let reach = match self.instrs[at] {
                Instr::Branch { .. } => -4096..=4094,
                _ => -(1 << 20)..=(1 << 20) - 1,
            };
            if !reach.contains(&off) {
                return Err(AsmError::OutOfRange { at, off });
            }
            if let Instr::Branch { off: o, .. } | Instr::Jal { off: o, .. } = &mut self.instrs[at] {
                *o = off as i32;
            }
        }
        Ok(self.instrs.iter().map(|i| i.encode()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AluOp;

    #[test]
    fn forward_and_backward_labels() {
        let mut a = Assembler::new();
        let end = a.label();
        let top = a.here();
        a.push(Instr::OpImm { op: AluOp::Add, rd: Reg::A0, rs1: Reg::A0, imm: 1 });
        a.beqz(Reg::A1, end);
        a.jump(top);
        a.bind(end);
        a.terminate();
        let words = a.assemble().unwrap();
        let decoded: Vec<Instr> = words.iter().map(|&w| Instr::decode(w).unwrap()).collect();
        assert_eq!(
            decoded[1],
            Instr::Branch { cond: BranchCond::Eq, rs1: Reg::A1, rs2: Reg::ZERO, off: 8 }
        );
        assert_eq!(decoded[2], Instr::Jal { rd: Reg::ZERO, off: -8 });
    }

    #[test]
    fn li_variants() {
        for v in [0u32, 1, 0x7FF, 0x800, 0xFFFF_FFFF, 0x8000_0000, 0x1234_5678] {
            let mut a = Assembler::new();
            a.li(Reg::A0, v);
            let words = a.assemble().unwrap();
            // Emulate the two instructions to verify the constant.
            let mut r = 0u32;
            for w in words {
                match Instr::decode(w).unwrap() {
                    Instr::Lui { imm, .. } => r = imm,
                    Instr::OpImm { imm, .. } => r = r.wrapping_add(imm as u32),
                    _ => unreachable!(),
                }
            }
            assert_eq!(r, v, "li {v:#x}");
        }
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut a = Assembler::new();
        a.terminate();
        let l = a.label();
        a.jump(l);
        assert_eq!(a.assemble(), Err(AsmError::UnboundLabel { at: 1 }));
    }

    #[test]
    fn out_of_range_branch_is_an_error() {
        let mut a = Assembler::new();
        let far = a.label();
        a.beqz(Reg::A0, far);
        for _ in 0..1024 {
            a.terminate();
        }
        a.bind(far);
        assert_eq!(a.assemble(), Err(AsmError::OutOfRange { at: 0, off: 4100 }));
    }
}
