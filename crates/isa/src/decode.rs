//! Binary decoding from 32-bit instruction words.

use crate::encode::*;
use crate::instr::*;
use crate::Reg;

#[inline]
fn rd(w: u32) -> Reg {
    Reg::new(((w >> 7) & 0x1F) as u8)
}

#[inline]
fn rs1(w: u32) -> Reg {
    Reg::new(((w >> 15) & 0x1F) as u8)
}

#[inline]
fn rs2(w: u32) -> Reg {
    Reg::new(((w >> 20) & 0x1F) as u8)
}

#[inline]
fn funct3(w: u32) -> u32 {
    (w >> 12) & 0x7
}

#[inline]
fn funct7(w: u32) -> u32 {
    w >> 25
}

#[inline]
fn imm_i(w: u32) -> i32 {
    (w as i32) >> 20
}

#[inline]
fn imm_s(w: u32) -> i32 {
    (((w as i32) >> 25) << 5) | ((w >> 7) & 0x1F) as i32
}

#[inline]
fn imm_b(w: u32) -> i32 {
    let sign = (w as i32) >> 31; // bit 12 of the offset, sign-extended
    (sign << 12)
        | (((w >> 7) & 1) as i32) << 11
        | (((w >> 25) & 0x3F) as i32) << 5
        | (((w >> 8) & 0xF) as i32) << 1
}

#[inline]
fn imm_u(w: u32) -> u32 {
    w & 0xFFFF_F000
}

#[inline]
fn imm_j(w: u32) -> i32 {
    let sign = (w as i32) >> 31; // bit 20, sign-extended
    (sign << 20)
        | ((((w >> 12) & 0xFF) as i32) << 12)
        | ((((w >> 20) & 1) as i32) << 11)
        | ((((w >> 21) & 0x3FF) as i32) << 1)
}

impl Instr {
    /// Decode a 32-bit instruction word; `None` for unimplemented encodings.
    pub fn decode(w: u32) -> Option<Instr> {
        use Instr::*;
        let (rd, rs1, rs2) = (rd(w), rs1(w), rs2(w));
        Some(match w & 0x7F {
            OP_LUI => Lui { rd, imm: imm_u(w) },
            OP_AUIPC => Auipc { rd, imm: imm_u(w) },
            OP_JAL => Jal { rd, off: imm_j(w) },
            OP_JALR if funct3(w) == 0 => Jalr { rd, rs1, off: imm_i(w) },
            OP_BRANCH => {
                Branch { cond: BranchCond::from_code(funct3(w))?, rs1, rs2, off: imm_b(w) }
            }
            OP_LOAD => Load { w: LoadWidth::from_code(funct3(w))?, rd, rs1, off: imm_i(w) },
            OP_STORE => Store { w: StoreWidth::from_code(funct3(w))?, rs2, rs1, off: imm_s(w) },
            OP_OPIMM => {
                // funct7 tells srai from srli; every other op ignores it.
                let op = match AluOp::from_code((funct3(w), funct7(w))) {
                    Some(AluOp::Sra) => AluOp::Sra,
                    _ => AluOp::from_code((funct3(w), 0))?,
                };
                let imm = if op.is_shift() { ((w >> 20) & 0x1F) as i32 } else { imm_i(w) };
                OpImm { op, rd, rs1, imm }
            }
            OP_OP if funct7(w) == F7_MULDIV => {
                MulDiv { op: MulOp::from_code(funct3(w))?, rd, rs1, rs2 }
            }
            OP_OP => Op { op: AluOp::from_code((funct3(w), funct7(w)))?, rd, rs1, rs2 },
            // funct7's low two bits are aq/rl, which the model ignores.
            OP_AMO if funct3(w) == 2 => Amo { op: AmoOp::from_code(funct7(w) >> 2)?, rd, rs1, rs2 },
            OP_MISCMEM => Fence,
            OP_SYSTEM => match funct3(w) {
                0 if imm_i(w) == 0 => Ecall,
                0 if imm_i(w) == 1 => Ebreak,
                2 => Csrrs { rd, csr: ((w >> 20) & 0xFFF) as u16, rs1 },
                _ => return None,
            },
            OP_FP => match funct7(w) {
                fp_f7::SQRT => FSqrt { rd, rs1 },
                fp_f7::CMP => FCmp { op: FcmpOp::from_code(funct3(w))?, rd, rs1, rs2 },
                fp_f7::CVT_W_S => FCvtWS { rd, rs1, signed: (w >> 20) & 1 == 0 },
                fp_f7::CVT_S_W => FCvtSW { rd, rs1, signed: (w >> 20) & 1 == 0 },
                // funct3 is the rounding mode, except that any non-zero
                // value turns fmin into fmax.
                f7 => {
                    let op = FpOp::from_code((f7, funct3(w).min(1)))
                        .or_else(|| FpOp::from_code((f7, 0)))?;
                    FOp { op, rd, rs1, rs2 }
                }
            },
            OP_CHERI => match funct3(w) {
                cheri_f3::REG => match funct7(w) {
                    cheri_f7::UNARY => {
                        CapUnary { op: UnaryCapOp::from_code(rs2.field())?, rd, cs1: rs1 }
                    }
                    cheri_f7::AND_PERM => CAndPerm { cd: rd, cs1: rs1, rs2 },
                    cheri_f7::SET_FLAGS => CSetFlags { cd: rd, cs1: rs1, rs2 },
                    cheri_f7::SET_ADDR => CSetAddr { cd: rd, cs1: rs1, rs2 },
                    cheri_f7::INC_OFFSET => CIncOffset { cd: rd, cs1: rs1, rs2 },
                    cheri_f7::SET_BOUNDS => CSetBounds { cd: rd, cs1: rs1, rs2 },
                    cheri_f7::SET_BOUNDS_EXACT => CSetBoundsExact { cd: rd, cs1: rs1, rs2 },
                    cheri_f7::SPECIAL_RW => CSpecialRw { cd: rd, cs1: rs1, scr: rs2.field() as u8 },
                    _ => return None,
                },
                cheri_f3::SET_BOUNDS_IMM => {
                    CSetBoundsImm { cd: rd, cs1: rs1, imm: (w >> 20) & 0xFFF }
                }
                cheri_f3::INC_OFFSET_IMM => CIncOffsetImm { cd: rd, cs1: rs1, imm: imm_i(w) },
                cheri_f3::CLC => Clc { cd: rd, cs1: rs1, off: imm_i(w) },
                cheri_f3::CSC => Csc { cs2: rs2, cs1: rs1, off: imm_s(w) },
                _ => return None,
            },
            OP_CUSTOM0 if funct3(w) == 0 => Simt { op: SimtOp::from_code(imm_i(w))? },
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_reconstruction() {
        // Branch with a negative offset.
        let i = Instr::Branch { cond: BranchCond::Ne, rs1: Reg::A0, rs2: Reg::A1, off: -8 };
        assert_eq!(Instr::decode(i.encode()), Some(i));
        // Jump with a large positive offset.
        let j = Instr::Jal { rd: Reg::RA, off: 0xF_F77E };
        assert_eq!(Instr::decode(j.encode()), Some(j));
        // Store with a negative offset.
        let s = Instr::Store { w: StoreWidth::W, rs2: Reg::A2, rs1: Reg::SP, off: -4 };
        assert_eq!(Instr::decode(s.encode()), Some(s));
    }

    /// An R-type word from raw fields: `rd = a0`, `rs1 = a1` and the given
    /// `rs2` field, so a reserved field can hold any value.
    fn raw(opcode: u32, f3: u32, f7: u32, rs2: u32) -> u32 {
        (f7 << 25) | (rs2 << 20) | (11 << 15) | (f3 << 12) | (10 << 7) | opcode
    }

    /// The fields `decode` ignores or reads only in part: each word sets a
    /// reserved field to a value `encode` never writes, and still decodes
    /// to the instruction shown.
    #[test]
    fn reserved_fields_are_accepted() {
        let (a0, a1, a2) = (Reg::A0, Reg::A1, Reg::A2);
        let fop = |op| Instr::FOp { op, rd: a0, rs1: a1, rs2: a2 };
        let cases = [
            // fmax.s: any non-zero funct3 selects max.
            (raw(OP_FP, 3, 0x14, 12), fop(FpOp::Max)),
            (raw(OP_FP, 7, 0x14, 12), fop(FpOp::Max)),
            // The rounding mode (funct3) of fadd/fsub/fmul/fdiv.
            (raw(OP_FP, 7, 0x00, 12), fop(FpOp::Add)),
            (raw(OP_FP, 1, 0x0C, 12), fop(FpOp::Div)),
            // fsqrt.s: rounding mode and rs2.
            (raw(OP_FP, 2, 0x2C, 7), Instr::FSqrt { rd: a0, rs1: a1 }),
            // fcvt reads only bit 0 of rs2 (and ignores the rounding mode).
            (raw(OP_FP, 0, 0x60, 3), Instr::FCvtWS { rd: a0, rs1: a1, signed: false }),
            (raw(OP_FP, 5, 0x68, 2), Instr::FCvtSW { rd: a0, rs1: a1, signed: true }),
            // AMO aq/rl bits (funct7's low two bits).
            (raw(OP_AMO, 2, 0x03, 12), Instr::Amo { op: AmoOp::Add, rd: a0, rs1: a1, rs2: a2 }),
            (
                raw(OP_AMO, 2, (0x18 << 2) | 2, 12),
                Instr::Amo { op: AmoOp::Minu, rd: a0, rs1: a1, rs2: a2 },
            ),
            // Any MISC-MEM word is `fence`.
            (0xFFFF_FF8F, Instr::Fence),
            (raw(OP_MISCMEM, 1, 0, 0), Instr::Fence),
            // slli with any funct7; srli for every funct7 other than 0x20.
            (raw(OP_OPIMM, 1, 0x7F, 5), Instr::OpImm { op: AluOp::Sll, rd: a0, rs1: a1, imm: 5 }),
            (raw(OP_OPIMM, 1, 0x20, 3), Instr::OpImm { op: AluOp::Sll, rd: a0, rs1: a1, imm: 3 }),
            (raw(OP_OPIMM, 5, 0x01, 4), Instr::OpImm { op: AluOp::Srl, rd: a0, rs1: a1, imm: 4 }),
            (raw(OP_OPIMM, 5, 0x60, 9), Instr::OpImm { op: AluOp::Srl, rd: a0, rs1: a1, imm: 9 }),
            (raw(OP_OPIMM, 5, 0x20, 9), Instr::OpImm { op: AluOp::Sra, rd: a0, rs1: a1, imm: 9 }),
            // ecall/ebreak with any rd/rs1.
            (raw(OP_SYSTEM, 0, 0, 0), Instr::Ecall),
            (raw(OP_SYSTEM, 0, 0, 1), Instr::Ebreak),
            // SIMT control with any rd/rs1.
            (raw(OP_CUSTOM0, 0, 0, 1), Instr::Simt { op: SimtOp::Barrier }),
        ];
        for (word, want) in cases {
            assert_eq!(Instr::decode(word), Some(want), "{word:#010x}");
        }
    }

    #[test]
    fn junk_is_rejected() {
        assert_eq!(Instr::decode(0), None); // all zeros: illegal
        assert_eq!(Instr::decode(0xFFFF_FFFF), None);
    }
}
