//! The instruction set of the CHERI-SIMT model: RV32IMA, a Zfinx-style
//! single-precision float subset, the Xcheri extension of Figure 4, and two
//! custom SIMT control operations (warp barrier / thread terminate).
//!
//! SIMTight implements RISC-V's `rv32ima_zfinx` profile — a 32-bit machine
//! with integer, multiply/divide, atomics and single-precision float in the
//! integer register file — extended with a large subset of version 9 of the
//! 32-bit CHERI instruction set.
//!
//! Like CHERI-RISC-V, the model runs pure-capability code in *capability
//! mode*: the standard load/store/jump encodings (`LW`, `SW`, `JALR`, ...)
//! take a capability in their address operand when the SM is configured for
//! CHERI. Only genuinely new operations (capability manipulation, `CLC`,
//! `CSC`, `CSpecialRW`, ...) get encodings of their own, under the CHERI
//! opcode `0x5B`.
//!
//! # The instruction table
//!
//! Each sub-op enum ([`AluOp`], [`MulOp`], [`BranchCond`], [`LoadWidth`],
//! [`StoreWidth`], [`AmoOp`], [`FpOp`], [`FcmpOp`], [`UnaryCapOp`],
//! [`SimtOp`]) is declared once, in `instr.rs`, one line per variant
//! holding the encoding field value that selects it and its mnemonic.
//! [`Instr::encode`], [`Instr::decode`], [`Instr::mnemonic`] and `Display`
//! all read that table; the major opcodes and the Xcheri minor opcodes
//! they dispatch on are the constants of `encode.rs`.
//!
//! # Example
//!
//! ```
//! use simt_isa::{Instr, Reg, AluOp};
//!
//! let i = Instr::Op { op: AluOp::Add, rd: Reg::A0, rs1: Reg::A1, rs2: Reg::A2 };
//! let word = i.encode();
//! assert_eq!(Instr::decode(word), Some(i));
//! assert_eq!(i.to_string(), "add a0, a1, a2");
//! ```

pub mod asm;
pub mod csr;
mod decode;
mod disasm;
mod encode;
mod instr;
mod reg;

pub use instr::{
    AluOp, AmoOp, BranchCond, FcmpOp, FpOp, Instr, LoadWidth, MulOp, SimtOp, StoreWidth, UnaryCapOp,
};
pub use reg::Reg;

/// Special capability registers read/written by `CSpecialRW`.
pub mod scr {
    /// The program-counter capability (read-only via `CSpecialRW`).
    pub const PCC: u8 = 0;
    /// Default data capability (unused in pure-capability mode, kept null).
    pub const DDC: u8 = 1;
    /// Kernel-argument block capability, set by the host at launch.
    pub const ARG: u8 = 28;
    /// Stack-region capability (whole per-SM stack arena), set at launch.
    pub const STACK: u8 = 29;
    /// Shared-local-memory (scratchpad) capability, set at launch.
    pub const SHARED: u8 = 30;
    /// Global almighty-data capability for runtime services, set at launch.
    pub const GLOBAL: u8 = 31;
}
