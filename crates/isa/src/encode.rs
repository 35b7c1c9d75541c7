//! Binary encoding to 32-bit instruction words.
//!
//! The base ISA uses the standard RISC-V formats. The Xcheri extension lives
//! under major opcode `0x5B`; its sub-encodings are our own (documented on
//! [`Instr::encode`]) since the model is both producer and consumer.

use crate::instr::*;
use crate::Reg;

pub(crate) const OP_LUI: u32 = 0x37;
pub(crate) const OP_AUIPC: u32 = 0x17;
pub(crate) const OP_JAL: u32 = 0x6F;
pub(crate) const OP_JALR: u32 = 0x67;
pub(crate) const OP_BRANCH: u32 = 0x63;
pub(crate) const OP_LOAD: u32 = 0x03;
pub(crate) const OP_STORE: u32 = 0x23;
pub(crate) const OP_OPIMM: u32 = 0x13;
pub(crate) const OP_OP: u32 = 0x33;
pub(crate) const OP_AMO: u32 = 0x2F;
pub(crate) const OP_MISCMEM: u32 = 0x0F;
pub(crate) const OP_SYSTEM: u32 = 0x73;
pub(crate) const OP_FP: u32 = 0x53;
pub(crate) const OP_CHERI: u32 = 0x5B;
pub(crate) const OP_CUSTOM0: u32 = 0x0B;

/// CHERI funct3 minor opcodes under `0x5B`.
pub(crate) mod cheri_f3 {
    pub(crate) const REG: u32 = 0; // R-type capability ops
    pub(crate) const SET_BOUNDS_IMM: u32 = 1;
    pub(crate) const INC_OFFSET_IMM: u32 = 2;
    pub(crate) const CLC: u32 = 3;
    pub(crate) const CSC: u32 = 4;
}

/// CHERI funct7 codes for the R-type group.
pub(crate) mod cheri_f7 {
    pub(crate) const SET_BOUNDS: u32 = 0x01;
    pub(crate) const SET_BOUNDS_EXACT: u32 = 0x02;
    pub(crate) const SET_ADDR: u32 = 0x03;
    pub(crate) const INC_OFFSET: u32 = 0x04;
    pub(crate) const AND_PERM: u32 = 0x05;
    pub(crate) const SET_FLAGS: u32 = 0x06;
    pub(crate) const SPECIAL_RW: u32 = 0x08;
    pub(crate) const UNARY: u32 = 0x7F; // rs2 field selects the operation
}

/// funct7 of the M extension under `OP`.
pub(crate) const F7_MULDIV: u32 = 0x01;

/// funct7 codes under `OP-FP` outside [`FpOp`]'s own.
pub(crate) mod fp_f7 {
    pub(crate) const SQRT: u32 = 0x2C;
    pub(crate) const CMP: u32 = 0x50;
    pub(crate) const CVT_W_S: u32 = 0x60;
    pub(crate) const CVT_S_W: u32 = 0x68;
}

fn r_type(opcode: u32, funct3: u32, funct7: u32, rd: Reg, rs1: Reg, rs2f: u32) -> u32 {
    (funct7 << 25)
        | (rs2f << 20)
        | (rs1.field() << 15)
        | (funct3 << 12)
        | (rd.field() << 7)
        | opcode
}

fn i_type(opcode: u32, funct3: u32, rd: Reg, rs1: Reg, imm: i32) -> u32 {
    debug_assert!((-2048..=2047).contains(&imm), "I-type immediate out of range: {imm}");
    ((imm as u32 & 0xFFF) << 20) | (rs1.field() << 15) | (funct3 << 12) | (rd.field() << 7) | opcode
}

fn i_type_u(opcode: u32, funct3: u32, rd: Reg, rs1: Reg, imm: u32) -> u32 {
    debug_assert!(imm < 4096, "unsigned I-type immediate out of range: {imm}");
    (imm << 20) | (rs1.field() << 15) | (funct3 << 12) | (rd.field() << 7) | opcode
}

fn s_type(opcode: u32, funct3: u32, rs1: Reg, rs2: Reg, imm: i32) -> u32 {
    debug_assert!((-2048..=2047).contains(&imm), "S-type immediate out of range: {imm}");
    let imm = imm as u32 & 0xFFF;
    ((imm >> 5) << 25)
        | (rs2.field() << 20)
        | (rs1.field() << 15)
        | (funct3 << 12)
        | ((imm & 0x1F) << 7)
        | opcode
}

fn b_type(opcode: u32, funct3: u32, rs1: Reg, rs2: Reg, off: i32) -> u32 {
    debug_assert!(off % 2 == 0 && (-4096..=4094).contains(&off), "branch offset: {off}");
    let imm = off as u32 & 0x1FFF;
    (((imm >> 12) & 1) << 31)
        | (((imm >> 5) & 0x3F) << 25)
        | (rs2.field() << 20)
        | (rs1.field() << 15)
        | (funct3 << 12)
        | (((imm >> 1) & 0xF) << 8)
        | (((imm >> 11) & 1) << 7)
        | opcode
}

fn u_type(opcode: u32, rd: Reg, imm: u32) -> u32 {
    debug_assert!(imm & 0xFFF == 0, "U-type immediate has low bits: {imm:#x}");
    imm | (rd.field() << 7) | opcode
}

fn j_type(opcode: u32, rd: Reg, off: i32) -> u32 {
    debug_assert!(off % 2 == 0 && (-(1 << 20)..(1 << 20)).contains(&off), "jump offset: {off}");
    let imm = off as u32 & 0x1F_FFFF;
    (((imm >> 20) & 1) << 31)
        | (((imm >> 1) & 0x3FF) << 21)
        | (((imm >> 11) & 1) << 20)
        | (((imm >> 12) & 0xFF) << 12)
        | (rd.field() << 7)
        | opcode
}

impl Instr {
    /// Encode to a 32-bit instruction word.
    ///
    /// # Panics
    ///
    /// Panics on `OpImm { op: AluOp::Sub, .. }`, which has no encoding, in
    /// every build; and (in debug builds) if an immediate operand does not
    /// fit its encoding field: the code generator is responsible for range
    /// splitting.
    pub fn encode(self) -> u32 {
        use Instr::*;
        match self {
            Lui { rd, imm } => u_type(OP_LUI, rd, imm),
            Auipc { rd, imm } => u_type(OP_AUIPC, rd, imm),
            Jal { rd, off } => j_type(OP_JAL, rd, off),
            Jalr { rd, rs1, off } => i_type(OP_JALR, 0, rd, rs1, off),
            Branch { cond, rs1, rs2, off } => b_type(OP_BRANCH, cond.code(), rs1, rs2, off),
            Load { w, rd, rs1, off } => i_type(OP_LOAD, w.code(), rd, rs1, off),
            Store { w, rs2, rs1, off } => s_type(OP_STORE, w.code(), rs1, rs2, off),
            OpImm { op, rd, rs1, imm } => {
                assert!(op != AluOp::Sub, "subi does not exist");
                let (f3, f7) = op.code();
                let imm = if op.is_shift() { (imm & 0x1F) | (f7 << 5) as i32 } else { imm };
                i_type(OP_OPIMM, f3, rd, rs1, imm)
            }
            Op { op, rd, rs1, rs2 } => {
                let (f3, f7) = op.code();
                r_type(OP_OP, f3, f7, rd, rs1, rs2.field())
            }
            MulDiv { op, rd, rs1, rs2 } => {
                r_type(OP_OP, op.code(), F7_MULDIV, rd, rs1, rs2.field())
            }
            Amo { op, rd, rs1, rs2 } => r_type(OP_AMO, 2, op.code() << 2, rd, rs1, rs2.field()),
            Fence => i_type(OP_MISCMEM, 0, Reg::ZERO, Reg::ZERO, 0),
            Ecall => i_type(OP_SYSTEM, 0, Reg::ZERO, Reg::ZERO, 0),
            Ebreak => i_type(OP_SYSTEM, 0, Reg::ZERO, Reg::ZERO, 1),
            Csrrs { rd, csr, rs1 } => i_type_u(OP_SYSTEM, 2, rd, rs1, csr as u32),
            FOp { op, rd, rs1, rs2 } => {
                let (f7, f3) = op.code();
                r_type(OP_FP, f3, f7, rd, rs1, rs2.field())
            }
            FSqrt { rd, rs1 } => r_type(OP_FP, 0, fp_f7::SQRT, rd, rs1, 0),
            FCmp { op, rd, rs1, rs2 } => r_type(OP_FP, op.code(), fp_f7::CMP, rd, rs1, rs2.field()),
            FCvtWS { rd, rs1, signed } => r_type(OP_FP, 0, fp_f7::CVT_W_S, rd, rs1, !signed as u32),
            FCvtSW { rd, rs1, signed } => r_type(OP_FP, 0, fp_f7::CVT_S_W, rd, rs1, !signed as u32),

            CapUnary { op, rd, cs1 } => {
                r_type(OP_CHERI, cheri_f3::REG, cheri_f7::UNARY, rd, cs1, op.code())
            }
            CAndPerm { cd, cs1, rs2 } => {
                r_type(OP_CHERI, cheri_f3::REG, cheri_f7::AND_PERM, cd, cs1, rs2.field())
            }
            CSetFlags { cd, cs1, rs2 } => {
                r_type(OP_CHERI, cheri_f3::REG, cheri_f7::SET_FLAGS, cd, cs1, rs2.field())
            }
            CSetAddr { cd, cs1, rs2 } => {
                r_type(OP_CHERI, cheri_f3::REG, cheri_f7::SET_ADDR, cd, cs1, rs2.field())
            }
            CIncOffset { cd, cs1, rs2 } => {
                r_type(OP_CHERI, cheri_f3::REG, cheri_f7::INC_OFFSET, cd, cs1, rs2.field())
            }
            CIncOffsetImm { cd, cs1, imm } => {
                i_type(OP_CHERI, cheri_f3::INC_OFFSET_IMM, cd, cs1, imm)
            }
            CSetBounds { cd, cs1, rs2 } => {
                r_type(OP_CHERI, cheri_f3::REG, cheri_f7::SET_BOUNDS, cd, cs1, rs2.field())
            }
            CSetBoundsExact { cd, cs1, rs2 } => {
                r_type(OP_CHERI, cheri_f3::REG, cheri_f7::SET_BOUNDS_EXACT, cd, cs1, rs2.field())
            }
            CSetBoundsImm { cd, cs1, imm } => {
                i_type_u(OP_CHERI, cheri_f3::SET_BOUNDS_IMM, cd, cs1, imm)
            }
            Clc { cd, cs1, off } => i_type(OP_CHERI, cheri_f3::CLC, cd, cs1, off),
            Csc { cs2, cs1, off } => s_type(OP_CHERI, cheri_f3::CSC, cs1, cs2, off),
            CSpecialRw { cd, cs1, scr } => {
                r_type(OP_CHERI, cheri_f3::REG, cheri_f7::SPECIAL_RW, cd, cs1, scr as u32)
            }
            Simt { op } => i_type(OP_CUSTOM0, 0, Reg::ZERO, Reg::ZERO, op.code()),
        }
    }
}
