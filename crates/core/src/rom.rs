//! The program ROM — the SM's only copy of the loaded kernel: each
//! instruction word lowered once, at load time, into a resolved micro-op,
//! so an issue is *index, classify from a pre-bound rule, call* and the hot
//! interpreter loop never looks at an [`Instr`] again (§3.3.4 of DESIGN.md).
//!
//! [`lower`] is the one walk over [`Instr`]. Each slot holds:
//!
//! * the **resolved op** ([`Op`]): a class-shaped descriptor with
//!   pre-extracted operands that its handler matches exhaustively — or
//!   [`Decoded::Illegal`] with the raw word, which traps as
//!   `illegal_instr`,
//! * the **scalarisation rule** ([`ScalarRule`]): `Always`, `Never`, or the
//!   recipe the issue stage evaluates against the register files'
//!   compact-form metadata,
//! * the Issue-event mnemonic and the `cheri_histogram` slot the op counts
//!   under ([`CheriSlot`]), if any,
//! * whether the op is **straight-line**: it always advances every
//!   selected lane to `pc + 4` with no status change, which the execute
//!   stage commits once for every such op.
//!
//! [`ProgramRom::build`] is a plain map of [`lower`] over the program
//! words, so the ROM is a pure function of the words and the CHERI mode:
//! nothing execution-dependent or whole-program is cached.

use crate::pipeline::classify::{LinearOp, ScalarRule};
use cheri_cap::AccessWidth;
use simt_isa::{
    AluOp, AmoOp, BranchCond, FcmpOp, FpOp, Instr, LoadWidth, MulOp, Reg, SimtOp, StoreWidth,
    UnaryCapOp,
};
use simt_mem::map;

/// Declares the Figure 6 mnemonics once: a dense slot per name (the index
/// into `Sm::cheri_counts`) and the name table the end-of-run snapshot
/// turns the non-zero slots back into `KernelStats::cheri_histogram` with.
macro_rules! cheri_slots {
    ($($slot:ident $name:literal)*) => {
        /// The `cheri_histogram` entry an op counts under.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum CheriSlot { $($slot),* }
        /// Histogram names, indexed by [`CheriSlot`].
        pub(crate) const CHERI_NAMES: &[&str] = &[$($name),*];
    };
}

cheri_slots! {
    Clb "CLB" Clh "CLH" Clw "CLW" Clbu "CLBU" Clhu "CLHU"
    Csb "CSB" Csh "CSH" Csw "CSW" Clc "CLC" Csc "CSC" Camo "CAMO"
    Auipcc "AUIPCC" Cjal "CJAL" Cjalr "CJALR"
    CGetTag "CGetTag" CClearTag "CClearTag" CGetPerm "CGetPerm" CGetBase "CGetBase"
    CGetLen "CGetLen" CGetType "CGetType" CGetSealed "CGetSealed" CGetFlags "CGetFlags"
    CGetAddr "CGetAddr" CMove "CMove" CSealEntry "CSealEntry" Crrl "CRRL" Cram "CRAM"
    CAndPerm "CAndPerm" CSetFlags "CSetFlags" CSetAddr "CSetAddr" CIncOffset "CIncOffset"
    CIncOffsetImm "CIncOffsetImm" CSetBounds "CSetBounds" CSetBoundsExact "CSetBoundsExact"
    CSetBoundsImm "CSetBoundsImm" CSpecialRw "CSpecialRW"
}

/// The second source of a two-operand op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Src2 {
    /// A register.
    Reg(Reg),
    /// An immediate (zero for one-operand ops, whose functions ignore it).
    Imm(u32),
}

/// Which [`crate::exec`] function a data op applies per lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DataFn {
    Alu(AluOp),
    MulDiv(MulOp),
    Fp(FpOp),
    FSqrt,
    FCmp(FcmpOp),
    FCvtWS { signed: bool },
    FCvtSW { signed: bool },
}

/// What a data op does to the warp after computing, besides writing `rd`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Post {
    None,
    /// Division/remainder keep the warp busy for the divider latency.
    Divider,
    /// `FDIV`/`FSQRT` round-trip the shared function unit.
    Sfu,
}

/// `rd = f(rs1, src2)` on data registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DataOp {
    pub(crate) rd: Reg,
    pub(crate) rs1: Reg,
    pub(crate) src2: Src2,
    pub(crate) f: DataFn,
    pub(crate) post: Post,
}

/// Where a splat's warp-invariant (or hart-affine) value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SplatSrc {
    /// `LUI`: the immediate.
    Imm(u32),
    /// `AUIPC`: `pc + imm` (derived from the PCC under CHERI).
    PcRel(u32),
    /// `CSRRS`: a CSR read.
    Csr(u16),
    /// `CSpecialRW`: the live PCC or a special capability register.
    Scr(u8),
}

/// `rd = <operand-free value>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SplatOp {
    pub(crate) rd: Reg,
    pub(crate) src: SplatSrc,
}

/// Which capability function a capability op applies per lane (the
/// immediate forms share their register form's function).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CapFn {
    Unary(UnaryCapOp),
    AndPerm,
    SetFlags,
    SetAddr,
    IncOffset,
    SetBounds,
    SetBoundsExact,
}

/// `rd = f(cs1, src2)` on a full capability operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CapOp {
    pub(crate) rd: Reg,
    pub(crate) cs1: Reg,
    pub(crate) src2: Src2,
    pub(crate) f: CapFn,
    /// Does the result carry capability metadata (else `rd` gets null)?
    pub(crate) cap_result: bool,
    /// Round-trips the SFU when capability ops are offloaded (§3.3).
    pub(crate) sfu: bool,
}

/// `JAL`: link, then jump `off` bytes from the PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JalOp {
    pub(crate) rd: Reg,
    pub(crate) off: u32,
}

/// `JALR`: link, then jump to `rs1 + off` (`CJALR` under CHERI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JalrOp {
    pub(crate) rd: Reg,
    pub(crate) rs1: Reg,
    pub(crate) off: u32,
}

/// A conditional branch `off` bytes from the PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BranchOp {
    pub(crate) cond: BranchCond,
    pub(crate) rs1: Reg,
    pub(crate) rs2: Reg,
    pub(crate) off: u32,
}

/// What a memory op does with the addressed location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemKind {
    /// A data load, sign- or zero-extended to the register width.
    Load(LoadWidth),
    Store,
    /// `CLC`: a whole capability, tag included.
    LoadCap,
    /// `CSC`.
    StoreCap,
    /// A word-sized atomic read-modify-write returning the old value.
    Amo(AmoOp),
}

impl MemKind {
    /// Capability-wide (`CLC`/`CSC`): two flits on the 32-bit datapath,
    /// and a store also serialises on the single-read-port metadata SRF
    /// when that file is compressed.
    pub(crate) fn is_cap(self) -> bool {
        matches!(self, MemKind::LoadCap | MemKind::StoreCap)
    }

    /// Does the op write memory (and so read a value operand)?
    pub(crate) fn writes(self) -> bool {
        matches!(self, MemKind::Store | MemKind::StoreCap | MemKind::Amo(_))
    }

    /// Does the op write a destination register?
    pub(crate) fn has_dest(self) -> bool {
        !matches!(self, MemKind::Store | MemKind::StoreCap)
    }
}

/// One access of the memory pipeline: a load, a store, a capability
/// transfer or an atomic. Everything the memory stage checks (which probes,
/// in which order) follows from `kind`, `width` and the SM's CHERI mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemOp {
    /// Address operand (a capability under CHERI).
    pub(crate) addr: Reg,
    /// Destination of a load or an AMO (`x0` for a store).
    pub(crate) reg: Reg,
    /// Value operand of a store or an AMO (`x0` for a load).
    pub(crate) src: Reg,
    pub(crate) off: u32,
    /// Resolved once here, so the capability check takes it as is.
    pub(crate) width: AccessWidth,
    pub(crate) kind: MemKind,
}

/// Fences, environment traps and SIMT control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SysOp {
    Fence,
    /// `ecall`/`ebreak`: always traps.
    EnvTrap,
    Terminate,
    Barrier,
}

/// A resolved, executable op: one variant per handler, each carrying
/// everything that handler needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    Data(DataOp),
    Splat(SplatOp),
    Cap(CapOp),
    Jal(JalOp),
    Jalr(JalrOp),
    Branch(BranchOp),
    Mem(MemOp),
    Sys(SysOp),
}

/// What a program word decoded to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Decoded {
    /// Undecodable: traps as `illegal_instr` carrying the raw word.
    Illegal(u32),
    Op(Op),
}

/// One program-ROM slot (see the module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct MicroOp {
    pub(crate) op: Decoded,
    pub(crate) rule: ScalarRule,
    /// The Issue trace event's mnemonic.
    pub(crate) mnemonic: &'static str,
    /// The `cheri_histogram` entry every issue of this op bumps.
    pub(crate) cheri: Option<CheriSlot>,
    /// Does the op always advance every selected lane to `pc + 4` with no
    /// status change? (Memory ops qualify: a trap abandons the issue
    /// before any commit.)
    pub(crate) straight: bool,
}

/// Lower one decoded instruction under the given CHERI mode.
///
/// Standard encodings count under their CHERI name only in capability mode
/// (`lw` → `CLW`, `jal` → `CJAL`, ...); capability encodings always count.
#[allow(clippy::too_many_lines)] // one arm per instruction, by design
pub(crate) fn lower(instr: Instr, cheri: bool) -> MicroOp {
    use CheriSlot as C;
    use ScalarRule::{Always, Never};
    let z = Reg::ZERO;
    let reg_of = |src2| match src2 {
        Src2::Reg(r) => r,
        Src2::Imm(_) => z,
    };
    // Uniform operands under a full mask, so the result write needs no
    // per-lane merge.
    let uniform = |cap: Reg, data: [Reg; 2]| ScalarRule::Uniform { cap, data, full: true };
    let in_cheri = |slot: CheriSlot| cheri.then_some(slot);
    let splat = |rd, src| Op::Splat(SplatOp { rd, src });
    // Integer compute scalarises where the op is linear in its compact
    // operands (an immediate is uniform, as `x0` is); floating point is
    // one evaluation per warp over uniform operands.
    let data = |rd, rs1, src2, f| {
        let post = match f {
            DataFn::MulDiv(MulOp::Div | MulOp::Divu | MulOp::Rem | MulOp::Remu) => Post::Divider,
            DataFn::Fp(FpOp::Div) | DataFn::FSqrt => Post::Sfu,
            _ => Post::None,
        };
        let rs2 = reg_of(src2);
        let rule = match f {
            DataFn::Alu(op) => ScalarRule::Linear { op: LinearOp::Alu(op), rs1, rs2 },
            DataFn::MulDiv(op) => ScalarRule::Linear { op: LinearOp::Mul(op), rs1, rs2 },
            _ => uniform(z, [rs1, rs2]),
        };
        (Op::Data(DataOp { rd, rs1, src2, f, post }), rule, None)
    };
    // Capability ops: one computation per warp on a uniform capability
    // (and uniform scalar operand, where one exists).
    let cap = |rd, cs1, src2, f, slot| {
        use UnaryCapOp::{ClearTag, Move, SealEntry};
        let cap_result =
            !matches!(f, CapFn::Unary(op) if !matches!(op, ClearTag | Move | SealEntry));
        let sfu = instr.is_sfu_cap_op();
        let op = Op::Cap(CapOp { rd, cs1, src2, f, cap_result, sfu });
        (op, uniform(cs1, [reg_of(src2), z]), Some(slot))
    };
    let mem = |addr, reg, src, off: i32, width, kind| {
        Op::Mem(MemOp { addr, reg, src, off: off as u32, width, kind })
    };

    let (op, rule, slot) = match instr {
        // Warp-invariant splats (CSRRS is uniform or hart-affine).
        Instr::Lui { rd, imm } => (splat(rd, SplatSrc::Imm(imm)), Always, None),
        Instr::Auipc { rd, imm } => (splat(rd, SplatSrc::PcRel(imm)), Always, in_cheri(C::Auipcc)),
        Instr::Csrrs { rd, csr, .. } => (splat(rd, SplatSrc::Csr(csr)), Always, None),
        Instr::CSpecialRw { cd, scr, .. } => {
            (splat(cd, SplatSrc::Scr(scr)), Always, Some(C::CSpecialRw))
        }

        // Control flow. CHERI JALR stays per-lane: it unseals, checks and
        // installs a per-lane PCC. Non-CHERI JALR and branches resolve one
        // target per warp when their operands are uniform, under any mask.
        Instr::Jal { rd, off } => {
            (Op::Jal(JalOp { rd, off: off as u32 }), Always, in_cheri(C::Cjal))
        }
        Instr::Jalr { rd, rs1, off } => {
            let rule = if cheri {
                Never
            } else {
                ScalarRule::Uniform { cap: z, data: [rs1, z], full: false }
            };
            (Op::Jalr(JalrOp { rd, rs1, off: off as u32 }), rule, in_cheri(C::Cjalr))
        }
        Instr::Branch { cond, rs1, rs2, off } => (
            Op::Branch(BranchOp { cond, rs1, rs2, off: off as u32 }),
            ScalarRule::Uniform { cap: z, data: [rs1, rs2], full: false },
            None,
        ),

        Instr::OpImm { op, rd, rs1, imm } => data(rd, rs1, Src2::Imm(imm as u32), DataFn::Alu(op)),
        Instr::Op { op, rd, rs1, rs2 } => data(rd, rs1, Src2::Reg(rs2), DataFn::Alu(op)),
        Instr::MulDiv { op, rd, rs1, rs2 } => data(rd, rs1, Src2::Reg(rs2), DataFn::MulDiv(op)),
        Instr::FOp { op, rd, rs1, rs2 } => data(rd, rs1, Src2::Reg(rs2), DataFn::Fp(op)),
        Instr::FSqrt { rd, rs1 } => data(rd, rs1, Src2::Imm(0), DataFn::FSqrt),
        Instr::FCmp { op, rd, rs1, rs2 } => data(rd, rs1, Src2::Reg(rs2), DataFn::FCmp(op)),
        Instr::FCvtWS { rd, rs1, signed } => data(rd, rs1, Src2::Imm(0), DataFn::FCvtWS { signed }),
        Instr::FCvtSW { rd, rs1, signed } => data(rd, rs1, Src2::Imm(0), DataFn::FCvtSW { signed }),

        Instr::CapUnary { op, rd, cs1 } => {
            let slot = match op {
                UnaryCapOp::GetTag => C::CGetTag,
                UnaryCapOp::ClearTag => C::CClearTag,
                UnaryCapOp::GetPerm => C::CGetPerm,
                UnaryCapOp::GetBase => C::CGetBase,
                UnaryCapOp::GetLen => C::CGetLen,
                UnaryCapOp::GetType => C::CGetType,
                UnaryCapOp::GetSealed => C::CGetSealed,
                UnaryCapOp::GetFlags => C::CGetFlags,
                UnaryCapOp::GetAddr => C::CGetAddr,
                UnaryCapOp::Move => C::CMove,
                UnaryCapOp::SealEntry => C::CSealEntry,
                UnaryCapOp::Crrl => C::Crrl,
                UnaryCapOp::Cram => C::Cram,
            };
            cap(rd, cs1, Src2::Imm(0), CapFn::Unary(op), slot)
        }
        Instr::CAndPerm { cd, cs1, rs2 } => {
            cap(cd, cs1, Src2::Reg(rs2), CapFn::AndPerm, C::CAndPerm)
        }
        Instr::CSetFlags { cd, cs1, rs2 } => {
            cap(cd, cs1, Src2::Reg(rs2), CapFn::SetFlags, C::CSetFlags)
        }
        Instr::CSetAddr { cd, cs1, rs2 } => {
            cap(cd, cs1, Src2::Reg(rs2), CapFn::SetAddr, C::CSetAddr)
        }
        Instr::CIncOffset { cd, cs1, rs2 } => {
            cap(cd, cs1, Src2::Reg(rs2), CapFn::IncOffset, C::CIncOffset)
        }
        Instr::CIncOffsetImm { cd, cs1, imm } => {
            cap(cd, cs1, Src2::Imm(imm as u32), CapFn::IncOffset, C::CIncOffsetImm)
        }
        Instr::CSetBounds { cd, cs1, rs2 } => {
            cap(cd, cs1, Src2::Reg(rs2), CapFn::SetBounds, C::CSetBounds)
        }
        Instr::CSetBoundsExact { cd, cs1, rs2 } => {
            cap(cd, cs1, Src2::Reg(rs2), CapFn::SetBoundsExact, C::CSetBoundsExact)
        }
        Instr::CSetBoundsImm { cd, cs1, imm } => {
            cap(cd, cs1, Src2::Imm(imm), CapFn::SetBounds, C::CSetBoundsImm)
        }

        // Inherently per-lane: the memory pipeline, traps and SIMT control.
        Instr::Load { w, rd, rs1, off } => {
            let slot = match w {
                LoadWidth::B => C::Clb,
                LoadWidth::H => C::Clh,
                LoadWidth::W => C::Clw,
                LoadWidth::Bu => C::Clbu,
                LoadWidth::Hu => C::Clhu,
            };
            (mem(rs1, rd, z, off, w.width(), MemKind::Load(w)), Never, in_cheri(slot))
        }
        Instr::Store { w, rs2, rs1, off } => {
            let slot = match w {
                StoreWidth::B => C::Csb,
                StoreWidth::H => C::Csh,
                StoreWidth::W => C::Csw,
            };
            (mem(rs1, z, rs2, off, w.width(), MemKind::Store), Never, in_cheri(slot))
        }
        Instr::Clc { cd, cs1, off } => {
            (mem(cs1, cd, z, off, AccessWidth::Cap, MemKind::LoadCap), Never, Some(C::Clc))
        }
        Instr::Csc { cs2, cs1, off } => {
            (mem(cs1, z, cs2, off, AccessWidth::Cap, MemKind::StoreCap), Never, Some(C::Csc))
        }
        Instr::Amo { op, rd, rs1, rs2 } => {
            (mem(rs1, rd, rs2, 0, AccessWidth::Word, MemKind::Amo(op)), Never, in_cheri(C::Camo))
        }
        Instr::Fence => (Op::Sys(SysOp::Fence), Never, None),
        Instr::Ecall | Instr::Ebreak => (Op::Sys(SysOp::EnvTrap), Never, None),
        Instr::Simt { op: SimtOp::Terminate } => (Op::Sys(SysOp::Terminate), Never, None),
        Instr::Simt { op: SimtOp::Barrier } => (Op::Sys(SysOp::Barrier), Never, None),
    };
    // Control flow rewrites PCs (and, under CHERI, per-lane PCC metadata),
    // SIMT ops edit thread status, and `ecall`/`ebreak` always trap.
    let straight = !matches!(
        op,
        Op::Jal(_)
            | Op::Jalr(_)
            | Op::Branch(_)
            | Op::Sys(SysOp::EnvTrap | SysOp::Terminate | SysOp::Barrier)
    );
    MicroOp { op: Decoded::Op(op), rule, mnemonic: instr.mnemonic(), cheri: slot, straight }
}

/// The loaded program: one [`MicroOp`] per instruction word. Empty until a
/// program is loaded, so every PC traps as `fetch_oob`.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProgramRom {
    pub(crate) ops: Vec<MicroOp>,
}

impl ProgramRom {
    /// Lower `words` under the given CHERI mode, one slot per word.
    pub(crate) fn build(words: &[u32], cheri: bool) -> Self {
        let ops = words
            .iter()
            .map(|&raw| match Instr::decode(raw) {
                Some(instr) => lower(instr, cheri),
                None => MicroOp {
                    op: Decoded::Illegal(raw),
                    rule: ScalarRule::Never,
                    mnemonic: "illegal",
                    cheri: None,
                    straight: false,
                },
            })
            .collect();
        ProgramRom { ops }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheriMode, CheriOpts, Device, RunError, SmConfig, TrapCause};
    use simt_isa::asm::Assembler;

    const NOP: Instr = Instr::OpImm { op: AluOp::Add, rd: Reg::ZERO, rs1: Reg::ZERO, imm: 0 };

    #[test]
    fn straight_bits() {
        let mut a = Assembler::new();
        let top = a.here();
        a.push(NOP); //        0
        a.push(NOP); //        1
        a.bnez(Reg::A0, top); // 2: backward branch, non-straight
        a.push(NOP); //        3
        a.push(Instr::Jal { rd: Reg::ZERO, off: 4096 }); // 4
        a.push(Instr::Jal { rd: Reg::ZERO, off: -6 }); //   5
        a.push(NOP); //        6
        a.push(NOP); //        7
        a.terminate(); //      8: SIMT control, non-straight
        let mut words = a.assemble().unwrap();
        words[7] = 0xFFFF_FFFF; // undecodable: non-straight
        let rom = ProgramRom::build(&words, false);
        let straight: Vec<bool> = rom.ops.iter().map(|o| o.straight).collect();
        assert_eq!(straight, [true, true, false, true, false, false, true, false, false]);
        assert_eq!(rom.ops[7].op, Decoded::Illegal(0xFFFF_FFFF));
        assert!(ProgramRom::build(&[], true).ops.is_empty());
    }

    #[test]
    fn illegal_word_traps_with_the_raw_word_under_every_scheme() {
        let raw = 0xFFFF_FFFF;
        let schemes = [
            ("baseline", CheriMode::Off, false),
            ("rust", CheriMode::Off, false),
            ("gpushield", CheriMode::Off, true),
            ("cheri", CheriMode::On(CheriOpts::naive()), false),
            ("cheri-opt", CheriMode::On(CheriOpts::optimised()), false),
        ];
        for (name, cheri, table) in schemes {
            let mut dev = Device::new(SmConfig::with_geometry(1, 4, cheri), 1);
            dev.load_program(&[NOP.encode(), raw]);
            if table {
                dev.set_bounds_table(Some(crate::shield::BoundsTable::new(vec![(0, 64)])));
            }
            dev.reset();
            match dev.run(1000) {
                Err(RunError::Trap(t)) => {
                    assert_eq!(t.cause, TrapCause::IllegalInstr(raw), "{name}");
                    assert_eq!((t.cause.name(), t.pc), ("illegal_instr", map::TCIM_BASE + 4));
                }
                other => panic!("{name}: expected an illegal-instruction trap, got {other:?}"),
            }
            assert_eq!(dev.stats().instrs, 1, "{name}: the illegal word never issued");
        }
    }

    /// One op per class against what the parent's `static_issue_class` +
    /// `dynamic_issue_class` computed for it (recorded at commit `8466117`).
    #[test]
    fn scalarisation_rules_match_the_recorded_table() {
        use ScalarRule::{Always, Linear, Never};
        let (z, a0, a1, a2) = (Reg::ZERO, Reg::A0, Reg::A1, Reg::A2);
        let uni = |cap, d0, d1, full| ScalarRule::Uniform { cap, data: [d0, d1], full };
        let sll = Linear { op: LinearOp::Alu(AluOp::Sll), rs1: a1, rs2: z };
        let mul = Linear { op: LinearOp::Mul(MulOp::Mul), rs1: a1, rs2: a2 };
        // (instruction, rule under baseline, rule under purecap)
        let table = [
            (Instr::Lui { rd: a0, imm: 0x1000 }, Always, Always),
            (Instr::Jal { rd: a0, off: 8 }, Always, Always),
            (Instr::CSpecialRw { cd: a0, cs1: z, scr: 1 }, Always, Always),
            (Instr::Jalr { rd: a0, rs1: a1, off: 0 }, uni(z, a1, z, false), Never),
            (
                Instr::Branch { cond: BranchCond::Lt, rs1: a1, rs2: a2, off: 8 },
                uni(z, a1, a2, false),
                uni(z, a1, a2, false),
            ),
            (Instr::OpImm { op: AluOp::Sll, rd: a0, rs1: a1, imm: 3 }, sll, sll),
            (Instr::MulDiv { op: MulOp::Mul, rd: a0, rs1: a1, rs2: a2 }, mul, mul),
            (
                Instr::FOp { op: FpOp::Div, rd: a0, rs1: a1, rs2: a2 },
                uni(z, a1, a2, true),
                uni(z, a1, a2, true),
            ),
            (Instr::FSqrt { rd: a0, rs1: a1 }, uni(z, a1, z, true), uni(z, a1, z, true)),
            (
                Instr::CapUnary { op: UnaryCapOp::GetLen, rd: a0, cs1: a1 },
                uni(a1, z, z, true),
                uni(a1, z, z, true),
            ),
            (
                Instr::CSetBounds { cd: a0, cs1: a1, rs2: a2 },
                uni(a1, a2, z, true),
                uni(a1, a2, z, true),
            ),
            (
                Instr::CIncOffsetImm { cd: a0, cs1: a1, imm: 4 },
                uni(a1, z, z, true),
                uni(a1, z, z, true),
            ),
            (Instr::Load { w: LoadWidth::W, rd: a0, rs1: a1, off: 0 }, Never, Never),
            (Instr::Amo { op: AmoOp::Add, rd: a0, rs1: a1, rs2: a2 }, Never, Never),
            (Instr::Fence, Never, Never),
            (Instr::Simt { op: SimtOp::Barrier }, Never, Never),
        ];
        for (instr, baseline, purecap) in table {
            assert_eq!(lower(instr, false).rule, baseline, "{instr:?} baseline");
            assert_eq!(lower(instr, true).rule, purecap, "{instr:?} purecap");
        }
    }

    /// Every memory instruction lowers to one `MemOp` whose kind, width and
    /// registers say all the memory stage needs — under either CHERI mode,
    /// which only decides whether standard encodings count in the histogram.
    #[test]
    fn memory_ops_lower_to_one_descriptor() {
        use CheriSlot as C;
        use MemKind::{Amo, Load, LoadCap, Store, StoreCap};
        let (z, a0, a1, a2) = (Reg::ZERO, Reg::A0, Reg::A1, Reg::A2);
        let load = |w| Instr::Load { w, rd: a0, rs1: a1, off: -8 };
        let store = |w| Instr::Store { w, rs2: a2, rs1: a1, off: 12 };
        let clc = Instr::Clc { cd: a0, cs1: a1, off: 16 };
        let csc = Instr::Csc { cs2: a2, cs1: a1, off: -16 };
        let amo = Instr::Amo { op: AmoOp::Max, rd: a0, rs1: a1, rs2: a2 };
        use AccessWidth::{Byte, Cap, Half, Word};
        // (instruction, kind, width, reg, src, off, slot, counts without CHERI)
        let table = [
            (load(LoadWidth::B), Load(LoadWidth::B), Byte, a0, z, -8, C::Clb, false),
            (load(LoadWidth::H), Load(LoadWidth::H), Half, a0, z, -8, C::Clh, false),
            (load(LoadWidth::W), Load(LoadWidth::W), Word, a0, z, -8, C::Clw, false),
            (load(LoadWidth::Bu), Load(LoadWidth::Bu), Byte, a0, z, -8, C::Clbu, false),
            (load(LoadWidth::Hu), Load(LoadWidth::Hu), Half, a0, z, -8, C::Clhu, false),
            (store(StoreWidth::B), Store, Byte, z, a2, 12, C::Csb, false),
            (store(StoreWidth::H), Store, Half, z, a2, 12, C::Csh, false),
            (store(StoreWidth::W), Store, Word, z, a2, 12, C::Csw, false),
            (clc, LoadCap, Cap, a0, z, 16, C::Clc, true),
            (csc, StoreCap, Cap, z, a2, -16, C::Csc, true),
            (amo, Amo(AmoOp::Max), Word, a0, a2, 0, C::Camo, false),
        ];
        for (instr, kind, width, reg, src, off, slot, always) in table {
            for cheri in [false, true] {
                let m = lower(instr, cheri);
                let want = MemOp { addr: a1, reg, src, off: off as u32, width, kind };
                assert_eq!(m.op, Decoded::Op(Op::Mem(want)), "{instr:?} cheri={cheri}");
                assert_eq!(m.cheri, (cheri || always).then_some(slot), "{instr:?} cheri={cheri}");
                assert_eq!((m.rule, m.straight), (ScalarRule::Never, true), "{instr:?}");
            }
            assert_eq!(kind.is_cap(), width == Cap, "{instr:?}");
            assert_eq!(kind.writes(), src != z, "{instr:?}");
            assert_eq!(kind.has_dest(), reg != z, "{instr:?}");
        }
    }
}
