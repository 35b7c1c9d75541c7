//! The instruction enumeration.

use crate::Reg;
use cheri_cap::AccessWidth;

/// ALU operations shared by the register and immediate forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition (`add`/`addi`). In capability mode the result of address
    /// arithmetic flows through `setAddr` (Figure 8).
    Add,
    /// Subtraction (register form only).
    Sub,
    /// Logical left shift.
    Sll,
    /// Signed less-than.
    Slt,
    /// Unsigned less-than.
    Sltu,
    /// Bitwise exclusive-or.
    Xor,
    /// Logical right shift.
    Srl,
    /// Arithmetic right shift.
    Sra,
    /// Bitwise or.
    Or,
    /// Bitwise and.
    And,
}

/// M-extension multiply/divide operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulOp {
    /// Low 32 bits of the product.
    Mul,
    /// High 32 bits of signed × signed.
    Mulh,
    /// High 32 bits of signed × unsigned.
    Mulhsu,
    /// High 32 bits of unsigned × unsigned.
    Mulhu,
    /// Signed division.
    Div,
    /// Unsigned division.
    Divu,
    /// Signed remainder.
    Rem,
    /// Unsigned remainder.
    Remu,
}

/// Branch conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

/// Load widths (with zero/sign extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadWidth {
    /// Sign-extended byte.
    B,
    /// Sign-extended half-word.
    H,
    /// Word.
    W,
    /// Zero-extended byte.
    Bu,
    /// Zero-extended half-word.
    Hu,
}

impl LoadWidth {
    /// Width of the transfer.
    pub fn width(self) -> AccessWidth {
        match self {
            LoadWidth::B | LoadWidth::Bu => AccessWidth::Byte,
            LoadWidth::H | LoadWidth::Hu => AccessWidth::Half,
            LoadWidth::W => AccessWidth::Word,
        }
    }
}

/// Store widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreWidth {
    /// Byte.
    B,
    /// Half-word.
    H,
    /// Word.
    W,
}

impl StoreWidth {
    /// Width of the transfer.
    pub fn width(self) -> AccessWidth {
        match self {
            StoreWidth::B => AccessWidth::Byte,
            StoreWidth::H => AccessWidth::Half,
            StoreWidth::W => AccessWidth::Word,
        }
    }
}

/// A-extension atomic memory operations (word-sized).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AmoOp {
    /// Atomic swap.
    Swap,
    /// Atomic add.
    Add,
    /// Atomic xor.
    Xor,
    /// Atomic or.
    Or,
    /// Atomic and.
    And,
    /// Atomic signed minimum.
    Min,
    /// Atomic signed maximum.
    Max,
    /// Atomic unsigned minimum.
    Minu,
    /// Atomic unsigned maximum.
    Maxu,
}

/// Zfinx-style floating-point operations (operands in integer registers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpOp {
    /// `fadd.s`
    Add,
    /// `fsub.s`
    Sub,
    /// `fmul.s`
    Mul,
    /// `fdiv.s` — served by the shared-function unit in SIMTight.
    Div,
    /// `fmin.s`
    Min,
    /// `fmax.s`
    Max,
}

/// Floating-point comparisons writing 0/1 to an integer register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FcmpOp {
    /// `feq.s`
    Eq,
    /// `flt.s`
    Lt,
    /// `fle.s`
    Le,
}

/// Unary CHERI inspection/manipulation operations (single `cs1` operand).
///
/// These map one-to-one onto the left column of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryCapOp {
    /// `CGetTag rd, cs1`
    GetTag,
    /// `CClearTag cd, cs1`
    ClearTag,
    /// `CGetPerm rd, cs1`
    GetPerm,
    /// `CGetBase rd, cs1` — shared-function-unit op in the optimised design.
    GetBase,
    /// `CGetLen rd, cs1` — shared-function-unit op in the optimised design.
    GetLen,
    /// `CGetType rd, cs1`
    GetType,
    /// `CGetSealed rd, cs1`
    GetSealed,
    /// `CGetFlags rd, cs1`
    GetFlags,
    /// `CGetAddr rd, cs1`
    GetAddr,
    /// `CMove cd, cs1`
    Move,
    /// `CSealEntry cd, cs1`
    SealEntry,
    /// `CRRL rd, rs1` (representable rounded length) — SFU op.
    Crrl,
    /// `CRAM rd, rs1` (representable alignment mask) — SFU op.
    Cram,
}

/// Custom SIMT control operations (custom-0 opcode space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimtOp {
    /// The executing thread is finished with the kernel.
    Terminate,
    /// Block-level barrier (`__syncthreads`).
    Barrier,
}

/// A decoded instruction.
///
/// Standard RISC-V memory and jump encodings double as their CHERI
/// counterparts when the SM runs in capability mode: `Load`/`Store` become
/// `CL*`/`CS*` (address operand is a capability), `Jal`/`Jalr` become
/// `CJAL`/`CJALR` and `Auipc` becomes `AUIPCC`, exactly as in CHERI-RISC-V's
/// capability encoding mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // operand fields are conventional rd/rs1/rs2/imm
pub enum Instr {
    /// Load upper immediate.
    Lui { rd: Reg, imm: u32 },
    /// Add upper immediate to PC (AUIPCC under CHERI).
    Auipc { rd: Reg, imm: u32 },
    /// Jump and link (CJAL under CHERI).
    Jal { rd: Reg, off: i32 },
    /// Jump and link register (CJALR under CHERI; `cs1` is a capability).
    Jalr { rd: Reg, rs1: Reg, off: i32 },
    /// Conditional branch.
    Branch { cond: BranchCond, rs1: Reg, rs2: Reg, off: i32 },
    /// Load (`CL[BHW][U]` under CHERI).
    Load { w: LoadWidth, rd: Reg, rs1: Reg, off: i32 },
    /// Store (`CS[BHW]` under CHERI).
    Store { w: StoreWidth, rs2: Reg, rs1: Reg, off: i32 },
    /// ALU with immediate operand.
    OpImm { op: AluOp, rd: Reg, rs1: Reg, imm: i32 },
    /// ALU with register operands.
    Op { op: AluOp, rd: Reg, rs1: Reg, rs2: Reg },
    /// Multiply/divide.
    MulDiv { op: MulOp, rd: Reg, rs1: Reg, rs2: Reg },
    /// Word-sized atomic (address operand is a capability under CHERI).
    Amo { op: AmoOp, rd: Reg, rs1: Reg, rs2: Reg },
    /// Memory fence (a no-op in the single-SM model).
    Fence,
    /// Environment call — treated as a fatal trap.
    Ecall,
    /// Breakpoint — treated as a fatal trap.
    Ebreak,
    /// CSR read (`csrrs rd, csr, x0`); writes are not supported.
    Csrrs { rd: Reg, csr: u16, rs1: Reg },
    /// Floating-point arithmetic (Zfinx: integer registers).
    FOp { op: FpOp, rd: Reg, rs1: Reg, rs2: Reg },
    /// Floating-point square root — shared-function-unit op.
    FSqrt { rd: Reg, rs1: Reg },
    /// Floating-point comparison.
    FCmp { op: FcmpOp, rd: Reg, rs1: Reg, rs2: Reg },
    /// Convert float to signed (`signed=true`) / unsigned word.
    FCvtWS { rd: Reg, rs1: Reg, signed: bool },
    /// Convert signed/unsigned word to float.
    FCvtSW { rd: Reg, rs1: Reg, signed: bool },

    // --- CHERI (Figure 4) ---
    /// Unary capability operation.
    CapUnary { op: UnaryCapOp, rd: Reg, cs1: Reg },
    /// `CAndPerm cd, cs1, rs2`.
    CAndPerm { cd: Reg, cs1: Reg, rs2: Reg },
    /// `CSetFlags cd, cs1, rs2`.
    CSetFlags { cd: Reg, cs1: Reg, rs2: Reg },
    /// `CSetAddr cd, cs1, rs2`.
    CSetAddr { cd: Reg, cs1: Reg, rs2: Reg },
    /// `CIncOffset cd, cs1, rs2`.
    CIncOffset { cd: Reg, cs1: Reg, rs2: Reg },
    /// `CIncOffsetImm cd, cs1, imm`.
    CIncOffsetImm { cd: Reg, cs1: Reg, imm: i32 },
    /// `CSetBounds cd, cs1, rs2` — SFU op in the optimised design.
    CSetBounds { cd: Reg, cs1: Reg, rs2: Reg },
    /// `CSetBoundsExact cd, cs1, rs2` — SFU op.
    CSetBoundsExact { cd: Reg, cs1: Reg, rs2: Reg },
    /// `CSetBoundsImm cd, cs1, imm` (unsigned 12-bit length) — SFU op.
    CSetBoundsImm { cd: Reg, cs1: Reg, imm: u32 },
    /// `CLC cd, cs1, imm`: load a 64+1-bit capability (two-flit access).
    Clc { cd: Reg, cs1: Reg, off: i32 },
    /// `CSC cs2, cs1, imm`: store a capability (two-flit; extra operand-fetch
    /// cycle against the single-read-port metadata SRF).
    Csc { cs2: Reg, cs1: Reg, off: i32 },
    /// `CSpecialRW cd, scr` (read-only in the model: `cs1 = zero`).
    CSpecialRw { cd: Reg, cs1: Reg, scr: u8 },

    // --- Custom SIMT control ---
    /// SIMT control (barrier / terminate).
    Simt { op: SimtOp },
}

impl Instr {
    /// True for instructions that the optimised design executes in the
    /// shared function unit (`CGetBase`, `CGetLen`, `CSetBounds[..]`,
    /// `CRRL`, `CRAM` — Section 3.3).
    pub fn is_sfu_cap_op(self) -> bool {
        use UnaryCapOp::*;
        matches!(
            self,
            Instr::CapUnary { op: GetBase | GetLen | Crrl | Cram, .. }
                | Instr::CSetBounds { .. }
                | Instr::CSetBoundsExact { .. }
                | Instr::CSetBoundsImm { .. }
        )
    }
}
