//! Disassembly (`Display` for [`Instr`]).

use crate::csr;
use crate::instr::*;
use core::fmt;

impl Instr {
    /// Bare mnemonic of the instruction, without operands — the compact
    /// per-issue label used by the structured trace (`simt-trace`) and the
    /// per-mnemonic CHERI histogram.
    pub fn mnemonic(&self) -> &'static str {
        use Instr::*;
        match *self {
            Lui { .. } => "lui",
            Auipc { .. } => "auipcc",
            Jal { .. } => "cjal",
            Jalr { .. } => "cjalr",
            Branch { cond, .. } => cond.name(),
            Load { w, .. } => w.name(),
            Store { w, .. } => w.name(),
            OpImm { op, .. } => op.imm_name(),
            Op { op, .. } => op.name(),
            MulDiv { op, .. } => op.name(),
            Amo { op, .. } => op.name(),
            Fence => "fence",
            Ecall => "ecall",
            Ebreak => "ebreak",
            Csrrs { .. } => "csrrs",
            FOp { op, .. } => op.name(),
            FSqrt { .. } => "fsqrt.s",
            FCmp { op, .. } => op.name(),
            FCvtWS { signed: true, .. } => "fcvt.w.s",
            FCvtWS { signed: false, .. } => "fcvt.wu.s",
            FCvtSW { signed: true, .. } => "fcvt.s.w",
            FCvtSW { signed: false, .. } => "fcvt.s.wu",
            CapUnary { op, .. } => op.name(),
            CAndPerm { .. } => "candperm",
            CSetFlags { .. } => "csetflags",
            CSetAddr { .. } => "csetaddr",
            CIncOffset { .. } => "cincoffset",
            CIncOffsetImm { .. } => "cincoffsetimm",
            CSetBounds { .. } => "csetbounds",
            CSetBoundsExact { .. } => "csetboundsexact",
            CSetBoundsImm { .. } => "csetboundsimm",
            Clc { .. } => "clc",
            Csc { .. } => "csc",
            CSpecialRw { .. } => "cspecialrw",
            Simt { op } => op.name(),
        }
    }
}

/// The mnemonic, then the operands: one arm per operand syntax. The one
/// alias is `csrr <name>` for a read of a named CSR.
impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instr::*;
        let m = self.mnemonic();
        match *self {
            Fence | Ecall | Ebreak | Simt { .. } => f.write_str(m),
            Lui { rd, imm } | Auipc { rd, imm } => write!(f, "{m} {rd}, {:#x}", imm >> 12),
            Jal { rd, off } => write!(f, "{m} {rd}, {off}"),
            FSqrt { rd, rs1 }
            | FCvtWS { rd, rs1, .. }
            | FCvtSW { rd, rs1, .. }
            | CapUnary { rd, cs1: rs1, .. } => write!(f, "{m} {rd}, {rs1}"),
            Op { rd, rs1, rs2, .. }
            | MulDiv { rd, rs1, rs2, .. }
            | FOp { rd, rs1, rs2, .. }
            | FCmp { rd, rs1, rs2, .. }
            | CAndPerm { cd: rd, cs1: rs1, rs2 }
            | CSetFlags { cd: rd, cs1: rs1, rs2 }
            | CSetAddr { cd: rd, cs1: rs1, rs2 }
            | CIncOffset { cd: rd, cs1: rs1, rs2 }
            | CSetBounds { cd: rd, cs1: rs1, rs2 }
            | CSetBoundsExact { cd: rd, cs1: rs1, rs2 } => write!(f, "{m} {rd}, {rs1}, {rs2}"),
            Jalr { rd: a, rs1: b, off: imm }
            | Branch { rs1: a, rs2: b, off: imm, .. }
            | OpImm { rd: a, rs1: b, imm, .. }
            | CIncOffsetImm { cd: a, cs1: b, imm } => write!(f, "{m} {a}, {b}, {imm}"),
            CSetBoundsImm { cd, cs1, imm } => write!(f, "{m} {cd}, {cs1}, {imm}"),
            Load { rd: r, rs1: base, off, .. }
            | Store { rs2: r, rs1: base, off, .. }
            | Clc { cd: r, cs1: base, off }
            | Csc { cs2: r, cs1: base, off } => write!(f, "{m} {r}, {off}({base})"),
            Amo { rd, rs1, rs2, .. } => write!(f, "{m} {rd}, {rs2}, ({rs1})"),
            Csrrs { rd, csr: c, rs1 } => match csr::name(c) {
                Some(n) => write!(f, "csrr {rd}, {n}"),
                None => write!(f, "{m} {rd}, {c:#x}, {rs1}"),
            },
            CSpecialRw { cd, cs1, scr } => write!(f, "{m} {cd}, scr{scr}, {cs1}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reg;

    /// One instruction per row of every sub-op table (both forms of each
    /// ALU op), plus every instruction without a sub-op.
    fn every_op() -> Vec<Instr> {
        use Instr::*;
        let (rd, rs1, rs2, cd, cs1) = (Reg::A0, Reg::A1, Reg::A2, Reg::A3, Reg::A4);
        let mut all = vec![
            Lui { rd, imm: 0x1000 },
            Auipc { rd, imm: 0x2000 },
            Jal { rd, off: 8 },
            Jalr { rd, rs1, off: -4 },
            Fence,
            Ecall,
            Ebreak,
            Csrrs { rd, csr: crate::csr::MHARTID, rs1: Reg::ZERO },
            Csrrs { rd, csr: 0x123, rs1 },
            FSqrt { rd, rs1 },
            FCvtWS { rd, rs1, signed: true },
            FCvtWS { rd, rs1, signed: false },
            FCvtSW { rd, rs1, signed: true },
            FCvtSW { rd, rs1, signed: false },
            CAndPerm { cd, cs1, rs2 },
            CSetFlags { cd, cs1, rs2 },
            CSetAddr { cd, cs1, rs2 },
            CIncOffset { cd, cs1, rs2 },
            CIncOffsetImm { cd, cs1, imm: -16 },
            CSetBounds { cd, cs1, rs2 },
            CSetBoundsExact { cd, cs1, rs2 },
            CSetBoundsImm { cd, cs1, imm: 64 },
            Clc { cd, cs1, off: 8 },
            Csc { cs2: cd, cs1, off: -8 },
            CSpecialRw { cd, cs1: Reg::ZERO, scr: crate::scr::ARG },
        ];
        for &op in AluOp::ALL {
            all.push(Op { op, rd, rs1, rs2 });
            all.push(OpImm { op, rd, rs1, imm: 3 });
        }
        all.extend(MulOp::ALL.iter().map(|&op| MulDiv { op, rd, rs1, rs2 }));
        all.extend(BranchCond::ALL.iter().map(|&cond| Branch { cond, rs1, rs2, off: -8 }));
        all.extend(LoadWidth::ALL.iter().map(|&w| Load { w, rd, rs1, off: 4 }));
        all.extend(StoreWidth::ALL.iter().map(|&w| Store { w, rs2, rs1, off: 4 }));
        all.extend(AmoOp::ALL.iter().map(|&op| Amo { op, rd, rs1, rs2 }));
        all.extend(FpOp::ALL.iter().map(|&op| FOp { op, rd, rs1, rs2 }));
        all.extend(FcmpOp::ALL.iter().map(|&op| FCmp { op, rd, rs1, rs2 }));
        all.extend(UnaryCapOp::ALL.iter().map(|&op| CapUnary { op, rd, cs1 }));
        all.extend(SimtOp::ALL.iter().map(|&op| Simt { op }));
        all
    }

    /// `Display` begins with `mnemonic()` for every op (a named CSR read
    /// prints its `csrr` alias instead).
    #[test]
    fn mnemonics_match_display_heads() {
        for i in every_op() {
            let full = i.to_string();
            let head = full.split_whitespace().next().unwrap();
            let want = if head == "csrr" { "csrrs" } else { head };
            assert_eq!(i.mnemonic(), want, "mnemonic mismatch for '{full}'");
        }
    }

    /// Each table's `from_code` inverts its `code`, so no two rows of one
    /// table share a code.
    #[test]
    fn codes_roundtrip() {
        fn check<T: Copy + PartialEq + core::fmt::Debug, C>(
            all: &[T],
            code: fn(T) -> C,
            from_code: fn(C) -> Option<T>,
        ) {
            for &x in all {
                assert_eq!(from_code(code(x)), Some(x));
            }
        }
        check(AluOp::ALL, AluOp::code, AluOp::from_code);
        check(MulOp::ALL, MulOp::code, MulOp::from_code);
        check(BranchCond::ALL, BranchCond::code, BranchCond::from_code);
        check(LoadWidth::ALL, LoadWidth::code, LoadWidth::from_code);
        check(StoreWidth::ALL, StoreWidth::code, StoreWidth::from_code);
        check(AmoOp::ALL, AmoOp::code, AmoOp::from_code);
        check(FpOp::ALL, FpOp::code, FpOp::from_code);
        check(FcmpOp::ALL, FcmpOp::code, FcmpOp::from_code);
        check(UnaryCapOp::ALL, UnaryCapOp::code, UnaryCapOp::from_code);
        check(SimtOp::ALL, SimtOp::code, SimtOp::from_code);
    }

    #[test]
    fn representative_disassembly() {
        let i = Instr::Load { w: LoadWidth::W, rd: Reg::A0, rs1: Reg::SP, off: 8 };
        assert_eq!(i.to_string(), "lw a0, 8(sp)");
        let c = Instr::CSetBoundsImm { cd: Reg::A1, cs1: Reg::A0, imm: 64 };
        assert_eq!(c.to_string(), "csetboundsimm a1, a0, 64");
        let b = Instr::Simt { op: SimtOp::Barrier };
        assert_eq!(b.to_string(), "simt.barrier");
    }
}
