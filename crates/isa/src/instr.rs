//! The instruction enumeration and the instruction table.
//!
//! Every sub-op enum below is declared through `sub_ops!`, one line per
//! variant holding its encoding field value and its mnemonic. That line is
//! the only place either is written: `encode`, `decode`,
//! [`Instr::mnemonic`] and `Display` all read the table.

use crate::Reg;
use cheri_cap::AccessWidth;

/// Declares one public sub-op enum and its rows of the instruction table.
///
/// Each variant is `Name = code, "mnemonic";` (ALU ops add the mnemonic of
/// their immediate form). The macro generates the enum and crate-private
/// `code` (the encoding field that selects the op), `from_code` (its
/// inverse, `None` for a reserved value) and `name` (the mnemonic).
macro_rules! sub_ops {
    ($(#[$doc:meta])* $E:ident: $C:ty {
        $($(#[$vdoc:meta])* $V:ident = $code:tt, $name:literal, $imm:literal;)*
    }) => {
        sub_ops! { $(#[$doc])* $E: $C { $($(#[$vdoc])* $V = $code, $name;)* } }

        impl $E {
            /// Mnemonic of the immediate form.
            pub(crate) fn imm_name(self) -> &'static str {
                match self { $($E::$V => $imm,)* }
            }
        }
    };
    ($(#[$doc:meta])* $E:ident: $C:ty {
        $($(#[$vdoc:meta])* $V:ident = $code:tt, $name:literal;)*
    }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $E { $($(#[$vdoc])* $V,)* }

        impl $E {
            /// Every variant, in declaration order.
            #[cfg(test)]
            pub(crate) const ALL: &'static [$E] = &[$($E::$V),*];

            /// The encoding field value that selects this op.
            pub(crate) fn code(self) -> $C {
                match self { $($E::$V => $code,)* }
            }

            /// The op that an encoding field value selects.
            pub(crate) fn from_code(code: $C) -> Option<$E> {
                match code { $($code => Some($E::$V),)* _ => None }
            }

            /// The mnemonic.
            pub(crate) fn name(self) -> &'static str {
                match self { $($E::$V => $name,)* }
            }
        }
    };
}

sub_ops! {
    /// ALU operations shared by the register and immediate forms.
    // (funct3, funct7) under OP; OP-IMM takes funct3, and a shift puts
    // funct7 above its 5-bit shift amount.
    AluOp: (u32, u32) {
        /// Addition (`add`/`addi`). In capability mode the result of address
        /// arithmetic flows through `setAddr` (Figure 8).
        Add = (0, 0x00), "add", "addi";
        /// Subtraction (register form only).
        // `subi` is what `mnemonic` and `Display` print; `encode` rejects it.
        Sub = (0, 0x20), "sub", "subi";
        /// Logical left shift.
        Sll = (1, 0x00), "sll", "slli";
        /// Signed less-than.
        Slt = (2, 0x00), "slt", "slti";
        /// Unsigned less-than.
        Sltu = (3, 0x00), "sltu", "sltiu";
        /// Bitwise exclusive-or.
        Xor = (4, 0x00), "xor", "xori";
        /// Logical right shift.
        Srl = (5, 0x00), "srl", "srli";
        /// Arithmetic right shift.
        Sra = (5, 0x20), "sra", "srai";
        /// Bitwise or.
        Or = (6, 0x00), "or", "ori";
        /// Bitwise and.
        And = (7, 0x00), "and", "andi";
    }
}

impl AluOp {
    /// True for the shifts, whose immediate form takes a 5-bit amount.
    pub(crate) fn is_shift(self) -> bool {
        matches!(self, AluOp::Sll | AluOp::Srl | AluOp::Sra)
    }
}

sub_ops! {
    /// M-extension multiply/divide operations.
    // funct3 under OP with funct7 = 0x01.
    MulOp: u32 {
        /// Low 32 bits of the product.
        Mul = 0, "mul";
        /// High 32 bits of signed × signed.
        Mulh = 1, "mulh";
        /// High 32 bits of signed × unsigned.
        Mulhsu = 2, "mulhsu";
        /// High 32 bits of unsigned × unsigned.
        Mulhu = 3, "mulhu";
        /// Signed division.
        Div = 4, "div";
        /// Unsigned division.
        Divu = 5, "divu";
        /// Signed remainder.
        Rem = 6, "rem";
        /// Unsigned remainder.
        Remu = 7, "remu";
    }
}

sub_ops! {
    /// Branch conditions.
    // funct3 under BRANCH.
    BranchCond: u32 {
        /// Equal.
        Eq = 0, "beq";
        /// Not equal.
        Ne = 1, "bne";
        /// Signed less-than.
        Lt = 4, "blt";
        /// Signed greater-or-equal.
        Ge = 5, "bge";
        /// Unsigned less-than.
        Ltu = 6, "bltu";
        /// Unsigned greater-or-equal.
        Geu = 7, "bgeu";
    }
}

sub_ops! {
    /// Load widths (with zero/sign extension).
    // funct3 under LOAD.
    LoadWidth: u32 {
        /// Sign-extended byte.
        B = 0, "lb";
        /// Sign-extended half-word.
        H = 1, "lh";
        /// Word.
        W = 2, "lw";
        /// Zero-extended byte.
        Bu = 4, "lbu";
        /// Zero-extended half-word.
        Hu = 5, "lhu";
    }
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

sub_ops! {
    /// Store widths.
    // funct3 under STORE.
    StoreWidth: u32 {
        /// Byte.
        B = 0, "sb";
        /// Half-word.
        H = 1, "sh";
        /// Word.
        W = 2, "sw";
    }
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

sub_ops! {
    /// A-extension atomic memory operations (word-sized).
    // funct5 (funct7 above the aq/rl bits) under AMO with funct3 = 2.
    AmoOp: u32 {
        /// Atomic swap.
        Swap = 0x01, "amoswap.w";
        /// Atomic add.
        Add = 0x00, "amoadd.w";
        /// Atomic xor.
        Xor = 0x04, "amoxor.w";
        /// Atomic or.
        Or = 0x08, "amoor.w";
        /// Atomic and.
        And = 0x0C, "amoand.w";
        /// Atomic signed minimum.
        Min = 0x10, "amomin.w";
        /// Atomic signed maximum.
        Max = 0x14, "amomax.w";
        /// Atomic unsigned minimum.
        Minu = 0x18, "amominu.w";
        /// Atomic unsigned maximum.
        Maxu = 0x1C, "amomaxu.w";
    }
}

sub_ops! {
    /// Zfinx-style floating-point operations (operands in integer registers).
    // (funct7, funct3) under OP-FP; funct3 is the rounding mode, which
    // `encode` writes as 0, except where it tells fmin (0) from fmax.
    FpOp: (u32, u32) {
        /// `fadd.s`
        Add = (0x00, 0), "fadd.s";
        /// `fsub.s`
        Sub = (0x04, 0), "fsub.s";
        /// `fmul.s`
        Mul = (0x08, 0), "fmul.s";
        /// `fdiv.s` — served by the shared-function unit in SIMTight.
        Div = (0x0C, 0), "fdiv.s";
        /// `fmin.s`
        Min = (0x14, 0), "fmin.s";
        /// `fmax.s`
        Max = (0x14, 1), "fmax.s";
    }
}

sub_ops! {
    /// Floating-point comparisons writing 0/1 to an integer register.
    // funct3 under OP-FP with funct7 = 0x50.
    FcmpOp: u32 {
        /// `feq.s`
        Eq = 2, "feq.s";
        /// `flt.s`
        Lt = 1, "flt.s";
        /// `fle.s`
        Le = 0, "fle.s";
    }
}

sub_ops! {
    /// Unary CHERI inspection/manipulation operations (single `cs1` operand).
    ///
    /// These map one-to-one onto the left column of Figure 4.
    // The rs2 field of the CHERI R-type group's funct7 = 0x7F.
    UnaryCapOp: u32 {
        /// `CGetTag rd, cs1`
        GetTag = 0, "cgettag";
        /// `CClearTag cd, cs1`
        ClearTag = 1, "ccleartag";
        /// `CGetPerm rd, cs1`
        GetPerm = 2, "cgetperm";
        /// `CGetBase rd, cs1` — shared-function-unit op in the optimised design.
        GetBase = 3, "cgetbase";
        /// `CGetLen rd, cs1` — shared-function-unit op in the optimised design.
        GetLen = 4, "cgetlen";
        /// `CGetType rd, cs1`
        GetType = 5, "cgettype";
        /// `CGetSealed rd, cs1`
        GetSealed = 6, "cgetsealed";
        /// `CGetFlags rd, cs1`
        GetFlags = 7, "cgetflags";
        /// `CGetAddr rd, cs1`
        GetAddr = 8, "cgetaddr";
        /// `CMove cd, cs1`
        Move = 9, "cmove";
        /// `CSealEntry cd, cs1`
        SealEntry = 10, "csealentry";
        /// `CRRL rd, rs1` (representable rounded length) — SFU op.
        Crrl = 11, "crrl";
        /// `CRAM rd, rs1` (representable alignment mask) — SFU op.
        Cram = 12, "cram";
    }
}

sub_ops! {
    /// Custom SIMT control operations (custom-0 opcode space).
    // The I-type immediate under custom-0 with funct3 = 0.
    SimtOp: i32 {
        /// The executing thread is finished with the kernel.
        Terminate = 0, "simt.terminate";
        /// Block-level barrier (`__syncthreads`).
        Barrier = 1, "simt.barrier";
    }
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
