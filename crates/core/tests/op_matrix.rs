//! Per-instruction differential net over the two execute drivers.
//!
//! `differential.rs` generates integer kernels only and `cheri_isa_tests.rs`
//! runs one path, so no other test executes an FP or a capability op both
//! warp-wide and lane-wise. This file does, for every compute, control-flow
//! and memory [`Instr`] variant and sub-op: one program per op runs it over
//! operands that are uniform, affine and per-lane scrambled (five operand
//! shapes), under a full and a partial mask, on a baseline and a purecap SM,
//! once with `set_scalarise(true)` and once with `(false)`. The two runs must
//! agree on every result (registers stored to memory, data *and* metadata),
//! on `KernelStats` and on the exported event stream — and the pair is
//! pinned against the commit `tests/golden/op_matrix.txt` was recorded at by
//! an FNV-1a digest of the stream and of the results per case.
//!
//! The table was recorded at commit `8466117`, before the resolved-op ROM
//! and the two generic drivers existed, so it is an independent oracle for
//! them. The memory rows run twice, against DRAM and against the scratchpad
//! (`*.scratch`, recorded at commit `29591a4`, while the memory stage still
//! had a load/store path and an AMO path with one arm per region each).

#[path = "../../../tests/golden/mod.rs"]
mod golden;

use cheri_cap::{CapMem, CapPipe};
use cheri_simt::trace::export::{to_jsonl, TraceCell};
use cheri_simt::trace::VecSink;
use cheri_simt::{CheriMode, CheriOpts, Device, KernelStats, RunError, SmConfig};
use golden::fnv1a;
use simt_isa::asm::Assembler;
use simt_isa::{
    csr, scr, AluOp, AmoOp, BranchCond, FcmpOp, FpOp, Instr, LoadWidth, MulOp, Reg, StoreWidth,
    UnaryCapOp,
};
use simt_mem::map;
use std::any::Any;

const WARPS: u32 = 2;
const LANES: u32 = 8;
const THREADS: u32 = WARPS * LANES;
/// Result area: per section, `A2` then `A3` of every thread as capabilities.
const OUT: u32 = map::DRAM_BASE + 0x4000;
/// Bytes one register of every thread occupies in the result area.
const SLOT: u32 = THREADS * 8;
/// The data region memory ops work on (the `ARG` capability's bounds).
const DATA: u32 = map::DRAM_BASE + 0x1000;
const DATA_LEN: u32 = 4096;
const MAX_CYCLES: u64 = 1_000_000;

// Register roles. `S0` = hart id, `S1` = scrambled per-lane value, `S2` =
// result pointer, `S3` = the `ARG` capability, `S4` = the scratchpad pointer
// (scratchpad cases only); `A0`/`A1` are the operands of the op under test,
// `A2`/`A3` its observable results.
const S4: Reg = Reg::TP;
const S3: Reg = Reg::A5;
const S2: Reg = Reg::A4;
/// Bytes of scratchpad the scratchpad cases fill, work on and report.
const SCRATCH_LEN: u32 = 1024;

/// How the operands of the op under test are prepared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operands {
    /// `A0`, `A1` integers.
    Int,
    /// `A0`, `A1` finite `f32` bit patterns.
    Fp,
    /// `A0` a capability derived from `ARG`, `A1` a small integer.
    Cap,
    /// `A0` an in-bounds, 8-byte-aligned pointer into the data region
    /// (a capability under CHERI), `A1` an integer.
    Mem,
    /// As `Mem`, but `A0` points into the scratchpad, which the prologue
    /// fills with a word pattern and tagged capabilities first.
    Scratch,
    /// `A1` a per-lane byte offset into a 16-entry landing sled; the body
    /// builds the jump target itself.
    Jump,
}

/// `(A0, A1)` compact-form classes of one section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    UniformUniform,
    AffineUniform,
    UniformAffine,
    AffineAffine,
    Scrambled,
}

const SHAPES: [Shape; 5] = [
    Shape::UniformUniform,
    Shape::AffineUniform,
    Shape::UniformAffine,
    Shape::AffineAffine,
    Shape::Scrambled,
];

/// One row of the matrix: the instructions executed under the section's
/// mask (the op under test plus whatever makes its effect observable in
/// `A2`/`A3`).
struct Case {
    name: String,
    operands: Operands,
    body: Vec<Instr>,
}

fn case(name: impl Into<String>, operands: Operands, body: Vec<Instr>) -> Case {
    Case { name: name.into(), operands, body }
}

const A0: Reg = Reg::A0;
const A1: Reg = Reg::A1;
const A2: Reg = Reg::A2;
const A3: Reg = Reg::A3;

fn addi(rd: Reg, rs1: Reg, imm: i32) -> Instr {
    Instr::OpImm { op: AluOp::Add, rd, rs1, imm }
}

fn op(op: AluOp, rd: Reg, rs1: Reg, rs2: Reg) -> Instr {
    Instr::Op { op, rd, rs1, rs2 }
}

const ALU_OPS: [AluOp; 10] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Sll,
    AluOp::Slt,
    AluOp::Sltu,
    AluOp::Xor,
    AluOp::Srl,
    AluOp::Sra,
    AluOp::Or,
    AluOp::And,
];

const MUL_OPS: [MulOp; 8] = [
    MulOp::Mul,
    MulOp::Mulh,
    MulOp::Mulhsu,
    MulOp::Mulhu,
    MulOp::Div,
    MulOp::Divu,
    MulOp::Rem,
    MulOp::Remu,
];

const UNARY_CAP_OPS: [UnaryCapOp; 13] = [
    UnaryCapOp::GetTag,
    UnaryCapOp::ClearTag,
    UnaryCapOp::GetPerm,
    UnaryCapOp::GetBase,
    UnaryCapOp::GetLen,
    UnaryCapOp::GetType,
    UnaryCapOp::GetSealed,
    UnaryCapOp::GetFlags,
    UnaryCapOp::GetAddr,
    UnaryCapOp::Move,
    UnaryCapOp::SealEntry,
    UnaryCapOp::Crrl,
    UnaryCapOp::Cram,
];

/// Every row of the matrix.
#[allow(clippy::too_many_lines)] // one push per instruction family, by design
fn cases() -> Vec<Case> {
    use Operands::{Cap, Fp, Int, Jump, Mem};
    let mut v = Vec::new();

    // Integer ALU, register and immediate forms (`subi` has no encoding).
    for o in ALU_OPS {
        v.push(case(format!("op.{o:?}"), Int, vec![op(o, A2, A0, A1)]));
        if o != AluOp::Sub {
            let imm = if matches!(o, AluOp::Sll | AluOp::Srl | AluOp::Sra) { 5 } else { -37 };
            v.push(case(
                format!("opimm.{o:?}"),
                Int,
                vec![Instr::OpImm { op: o, rd: A2, rs1: A0, imm }],
            ));
        }
    }
    v.push(case("op.Add.x0", Int, vec![op(AluOp::Add, Reg::ZERO, A0, A1)]));
    for o in MUL_OPS {
        v.push(case(
            format!("muldiv.{o:?}"),
            Int,
            vec![Instr::MulDiv { op: o, rd: A2, rs1: A0, rs2: A1 }],
        ));
    }

    // Floating point.
    for o in [FpOp::Add, FpOp::Sub, FpOp::Mul, FpOp::Div, FpOp::Min, FpOp::Max] {
        v.push(case(format!("fp.{o:?}"), Fp, vec![Instr::FOp { op: o, rd: A2, rs1: A0, rs2: A1 }]));
    }
    v.push(case("fsqrt", Fp, vec![Instr::FSqrt { rd: A2, rs1: A0 }]));
    for o in [FcmpOp::Eq, FcmpOp::Lt, FcmpOp::Le] {
        v.push(case(
            format!("fcmp.{o:?}"),
            Fp,
            vec![Instr::FCmp { op: o, rd: A2, rs1: A0, rs2: A1 }],
        ));
    }
    for signed in [true, false] {
        v.push(case(
            format!("fcvt.w.s.{signed}"),
            Fp,
            vec![Instr::FCvtWS { rd: A2, rs1: A0, signed }],
        ));
        v.push(case(
            format!("fcvt.s.w.{signed}"),
            Int,
            vec![Instr::FCvtSW { rd: A2, rs1: A0, signed }],
        ));
    }

    // Capability ops.
    for o in UNARY_CAP_OPS {
        v.push(case(format!("cap.{o:?}"), Cap, vec![Instr::CapUnary { op: o, rd: A2, cs1: A0 }]));
    }
    v.push(case("cap.AndPerm", Cap, vec![Instr::CAndPerm { cd: A2, cs1: A0, rs2: A1 }]));
    v.push(case("cap.SetFlags", Cap, vec![Instr::CSetFlags { cd: A2, cs1: A0, rs2: A1 }]));
    v.push(case("cap.SetAddr", Cap, vec![Instr::CSetAddr { cd: A2, cs1: A0, rs2: A1 }]));
    v.push(case("cap.IncOffset", Cap, vec![Instr::CIncOffset { cd: A2, cs1: A0, rs2: A1 }]));
    v.push(case("cap.IncOffsetImm", Cap, vec![Instr::CIncOffsetImm { cd: A2, cs1: A0, imm: -24 }]));
    v.push(case("cap.SetBounds", Cap, vec![Instr::CSetBounds { cd: A2, cs1: A0, rs2: A1 }]));
    v.push(case(
        "cap.SetBoundsExact",
        Cap,
        vec![Instr::CSetBoundsExact { cd: A2, cs1: A0, rs2: A1 }],
    ));
    v.push(case("cap.SetBoundsImm", Cap, vec![Instr::CSetBoundsImm { cd: A2, cs1: A0, imm: 40 }]));
    for (name, s) in [("pcc", scr::PCC), ("arg", scr::ARG)] {
        v.push(case(
            format!("cspecialrw.{name}"),
            Int,
            vec![Instr::CSpecialRw { cd: A2, cs1: Reg::ZERO, scr: s }],
        ));
    }

    // Splats.
    v.push(case("lui", Int, vec![Instr::Lui { rd: A2, imm: 0xABCD_E000 }]));
    v.push(case("auipc", Int, vec![Instr::Auipc { rd: A2, imm: 0x1000 }]));
    for (name, c) in [
        ("mhartid", csr::MHARTID),
        ("num_warps", csr::SIMT_NUM_WARPS),
        ("log_lanes", csr::SIMT_LOG_LANES),
        ("num_threads", csr::SIMT_NUM_THREADS),
        ("unknown", 0x7C0),
    ] {
        v.push(case(
            format!("csrrs.{name}"),
            Int,
            vec![Instr::Csrrs { rd: A2, csr: c, rs1: Reg::ZERO }],
        ));
    }

    // Control flow: the skipped `addi` makes the direction visible in A3.
    v.push(case("jal", Int, vec![Instr::Jal { rd: A2, off: 8 }, addi(A3, A3, 1)]));
    v.push(case("jal.x0", Int, vec![Instr::Jal { rd: Reg::ZERO, off: 8 }, addi(A3, A3, 1)]));
    for c in [
        BranchCond::Eq,
        BranchCond::Ne,
        BranchCond::Lt,
        BranchCond::Ge,
        BranchCond::Ltu,
        BranchCond::Geu,
    ] {
        v.push(case(
            format!("branch.{c:?}"),
            Int,
            vec![Instr::Branch { cond: c, rs1: A0, rs2: A1, off: 8 }, addi(A3, A3, 1)],
        ));
    }
    // JALR into a 16-entry sled: the target is `auipc + 16 + A1`, four
    // instructions on, so A3 counts how much of the sled each lane ran.
    let mut jalr = vec![
        Instr::Auipc { rd: A0, imm: 0 },
        Instr::CIncOffset { cd: A0, cs1: A0, rs2: A1 },
        Instr::CIncOffsetImm { cd: A0, cs1: A0, imm: 16 },
        Instr::Jalr { rd: A2, rs1: A0, off: 0 },
    ];
    jalr.extend((0..THREADS).map(|_| addi(A3, A3, 1)));
    v.push(case("jalr", Jump, jalr));

    // Memory ops (one driver, but the descriptor path is rebuilt with the
    // ROM): every width, every AMO, and capability-wide transfers — against
    // DRAM, then the same rows against the scratchpad.
    mem_cases(&mut v, Mem, "");
    mem_cases(&mut v, Operands::Scratch, ".scratch");
    v
}

/// The memory rows of the matrix against one region (`Mem` or `Scratch`).
fn mem_cases(v: &mut Vec<Case>, region: Operands, suffix: &str) {
    for w in [LoadWidth::B, LoadWidth::H, LoadWidth::W, LoadWidth::Bu, LoadWidth::Hu] {
        v.push(case(
            format!("load.{w:?}{suffix}"),
            region,
            vec![Instr::Load { w, rd: A2, rs1: A0, off: 4 }],
        ));
    }
    for w in [StoreWidth::B, StoreWidth::H, StoreWidth::W] {
        v.push(case(
            format!("store.{w:?}{suffix}"),
            region,
            vec![
                Instr::Store { w, rs2: A1, rs1: A0, off: 4 },
                Instr::Load { w: LoadWidth::W, rd: A2, rs1: A0, off: 4 },
            ],
        ));
    }
    for o in [
        AmoOp::Swap,
        AmoOp::Add,
        AmoOp::Xor,
        AmoOp::Or,
        AmoOp::And,
        AmoOp::Min,
        AmoOp::Max,
        AmoOp::Minu,
        AmoOp::Maxu,
    ] {
        v.push(case(
            format!("amo.{o:?}{suffix}"),
            region,
            vec![
                Instr::Amo { op: o, rd: A2, rs1: A0, rs2: A1 },
                Instr::Load { w: LoadWidth::W, rd: A3, rs1: A0, off: 0 },
            ],
        ));
    }
    v.push(case(format!("clc{suffix}"), region, vec![Instr::Clc { cd: A2, cs1: A0, off: 8 }]));
    v.push(case(
        format!("csc{suffix}"),
        region,
        vec![Instr::Csc { cs2: S3, cs1: A0, off: 0 }, Instr::Clc { cd: A2, cs1: A0, off: 0 }],
    ));
}

/// Load `A0`/`A1` for one section (always under the full mask, so the
/// operands keep the compact form the shape names).
fn load_operands(a: &mut Assembler, operands: Operands, shape: Shape) {
    use Shape::{AffineUniform, Scrambled, UniformAffine, UniformUniform};
    let (s0, s1) = (Reg::S0, Reg::S1);
    let a0_uniform = matches!(shape, UniformUniform | UniformAffine);
    let a1_uniform = matches!(shape, UniformUniform | AffineUniform);
    // A per-lane integer in T0: hart-affine or scrambled, scaled by `mul`,
    // masked (scrambled only) to `mask`, plus `base`.
    let lane_value = |a: &mut Assembler, rd: Reg, mul: u32, mask: u32, base: u32| {
        if shape == Scrambled {
            a.li(Reg::T0, mask);
            a.push(op(AluOp::And, rd, s1, Reg::T0));
        } else {
            a.push(addi(rd, s0, 0));
        }
        a.li(Reg::T0, mul);
        a.push(Instr::MulDiv { op: MulOp::Mul, rd, rs1: rd, rs2: Reg::T0 });
        a.li(Reg::T0, base);
        a.push(op(AluOp::Add, rd, rd, Reg::T0));
    };
    match operands {
        Operands::Int => {
            if a0_uniform {
                a.li(A0, 0x8765_4321);
            } else if shape == Scrambled {
                a.push(addi(A0, s1, 0));
            } else {
                lane_value(a, A0, 12, 0, 100);
            }
            if a1_uniform {
                a.li(A1, 13);
            } else if shape == Scrambled {
                a.li(Reg::T0, 0x27D4_EB2F);
                a.push(Instr::MulDiv { op: MulOp::Mul, rd: A1, rs1: s1, rs2: Reg::T0 });
                a.push(Instr::OpImm { op: AluOp::Srl, rd: Reg::T0, rs1: A1, imm: 13 });
                a.push(op(AluOp::Xor, A1, A1, Reg::T0));
            } else {
                // Crosses zero at hart 2: division by zero on one lane.
                lane_value(a, A1, 3, 0, (-6i32) as u32);
            }
        }
        Operands::Fp => {
            // Finite, normal floats only (NaN payload rules are the host's).
            if a0_uniform {
                a.li(A0, 2.5f32.to_bits());
            } else {
                lane_value(a, A0, 0x0010_0000, 0x1FF, 0x4000_0000);
            }
            if a1_uniform {
                a.li(A1, (-0.75f32).to_bits());
            } else {
                lane_value(a, A1, 0x0008_0000, 0xFF, 0x3F00_0000);
            }
        }
        Operands::Cap => {
            if a0_uniform {
                a.push(Instr::CapUnary { op: UnaryCapOp::Move, rd: A0, cs1: S3 });
            } else {
                // Affine stays in bounds; scrambled wanders far enough that
                // some lanes lose their tag (divergent metadata).
                lane_value(a, Reg::T1, 8, 0x7FF, 0);
                a.push(Instr::CIncOffset { cd: A0, cs1: S3, rs2: Reg::T1 });
            }
            if a1_uniform {
                a.li(A1, 48);
            } else {
                // Below 64 bytes every bounds request is exact, so
                // `CSetBoundsExact` never traps here (its trap has a test of
                // its own below).
                lane_value(a, A1, 2, 0xF, 8);
            }
        }
        Operands::Mem | Operands::Scratch => {
            let region = if operands == Operands::Mem { S3 } else { S4 };
            if a0_uniform {
                a.push(Instr::CIncOffsetImm { cd: A0, cs1: region, imm: 64 });
            } else {
                lane_value(a, Reg::T1, 8, 0x3F, 128);
                a.push(Instr::CIncOffset { cd: A0, cs1: region, rs2: Reg::T1 });
            }
            if a1_uniform {
                a.li(A1, 0x8000_00F3);
            } else {
                lane_value(a, A1, 0x0101_0101, 0xFF, 7);
            }
        }
        Operands::Jump => {
            // Only A1 matters; the two uniform-A1 shapes jump together.
            if a1_uniform {
                a.li(A1, 12);
            } else {
                lane_value(a, A1, 4, 0xF, 0);
            }
        }
    }
}

/// Scratchpad-case prologue: `S4` = `GLOBAL` pointed at the scratchpad; the
/// threads fill its first `SCRATCH_LEN` bytes with a scrambled word pattern
/// (16 words each, interleaved), then park a tagged `ARG`-derived capability
/// in every fourth 8-byte slot, where the `clc` rows find it.
fn fill_scratchpad(a: &mut Assembler) {
    let (s0, s1) = (Reg::S0, Reg::S1);
    a.push(Instr::CSpecialRw { cd: S4, cs1: Reg::ZERO, scr: scr::GLOBAL });
    a.li(Reg::T0, map::SCRATCH_BASE);
    a.push(Instr::CSetAddr { cd: S4, cs1: S4, rs2: Reg::T0 });
    a.push(Instr::OpImm { op: AluOp::Sll, rd: Reg::T0, rs1: s0, imm: 2 });
    a.push(Instr::CIncOffset { cd: Reg::T1, cs1: S4, rs2: Reg::T0 });
    a.push(addi(Reg::T2, s1, 0));
    a.li(Reg::T0, 0x2C1B_3C6D);
    for k in 0..SCRATCH_LEN / (4 * THREADS) {
        let off = (k * 4 * THREADS) as i32;
        a.push(Instr::Store { w: StoreWidth::W, rs2: Reg::T2, rs1: Reg::T1, off });
        a.push(Instr::MulDiv { op: MulOp::Mul, rd: Reg::T2, rs1: Reg::T2, rs2: Reg::T0 });
        a.push(Instr::OpImm { op: AluOp::Xor, rd: Reg::T2, rs1: Reg::T2, imm: 0x4F1 });
    }
    a.push(Instr::OpImm { op: AluOp::Sll, rd: Reg::T0, rs1: s0, imm: 5 });
    a.push(Instr::CIncOffset { cd: Reg::T1, cs1: S4, rs2: Reg::T0 });
    a.push(Instr::CIncOffset { cd: Reg::T2, cs1: S3, rs2: Reg::T0 });
    a.push(Instr::Csc { cs2: Reg::T2, cs1: Reg::T1, off: 8 });
}

/// The whole program of one case: prologue, ten sections (five shapes ×
/// full/partial mask), terminate.
fn program(c: &Case) -> Vec<u32> {
    let (s0, s1) = (Reg::S0, Reg::S1);
    let mut a = Assembler::new();
    // S0 = hart id (affine); S1 = a per-lane scramble of it (vector).
    a.push(Instr::Csrrs { rd: s0, csr: csr::MHARTID, rs1: Reg::ZERO });
    a.push(addi(s1, s0, 1));
    a.li(Reg::T0, 0x9E37_79B1);
    a.push(Instr::MulDiv { op: MulOp::Mul, rd: s1, rs1: s1, rs2: Reg::T0 });
    a.push(Instr::OpImm { op: AluOp::Srl, rd: Reg::T0, rs1: s1, imm: 15 });
    a.push(op(AluOp::Xor, s1, s1, Reg::T0));
    a.li(Reg::T0, 0x85EB_CA6B);
    a.push(Instr::MulDiv { op: MulOp::Mul, rd: s1, rs1: s1, rs2: Reg::T0 });
    a.push(Instr::OpImm { op: AluOp::Srl, rd: Reg::T0, rs1: s1, imm: 13 });
    a.push(op(AluOp::Xor, s1, s1, Reg::T0));
    // S3 = ARG; S2 = GLOBAL pointed at this thread's first result slot.
    a.push(Instr::CSpecialRw { cd: S3, cs1: Reg::ZERO, scr: scr::ARG });
    a.push(Instr::CSpecialRw { cd: S2, cs1: Reg::ZERO, scr: scr::GLOBAL });
    a.li(Reg::T0, OUT);
    a.push(Instr::CSetAddr { cd: S2, cs1: S2, rs2: Reg::T0 });
    a.push(Instr::OpImm { op: AluOp::Sll, rd: Reg::T0, rs1: s0, imm: 3 });
    a.push(Instr::CIncOffset { cd: S2, cs1: S2, rs2: Reg::T0 });
    if c.operands == Operands::Scratch {
        fill_scratchpad(&mut a);
    }

    for shape in SHAPES {
        for partial in [false, true] {
            load_operands(&mut a, c.operands, shape);
            a.li(A2, 0x5EED);
            a.li(A3, 0xA3);
            let skip = a.label();
            if partial {
                // Lanes 1, 2, 3, 5, 6, 7 of each warp run the body.
                a.push(Instr::OpImm { op: AluOp::And, rd: Reg::T0, rs1: s0, imm: 3 });
                a.beqz(Reg::T0, skip);
            }
            for &i in &c.body {
                a.push(i);
            }
            a.bind(skip);
            a.push(Instr::Csc { cs2: A2, cs1: S2, off: 0 });
            a.push(Instr::Csc { cs2: A3, cs1: S2, off: SLOT as i32 });
            a.push(Instr::CIncOffsetImm { cd: S2, cs1: S2, imm: 2 * SLOT as i32 });
        }
    }
    a.terminate();
    a.assemble().unwrap()
}

const SECTIONS: u32 = 2 * SHAPES.len() as u32;

/// Everything one run produces that the other must reproduce.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<KernelStats, RunError>,
    /// `(addr, meta, tag)` of every result slot, then of the data region.
    memory: Vec<(u32, u32, bool)>,
    /// The same of the first `SCRATCH_LEN` bytes of the scratchpad.
    scratch: Vec<(u32, u32, bool)>,
    jsonl: String,
    events: usize,
}

fn mode_of(purecap: bool) -> CheriMode {
    if purecap {
        CheriMode::On(CheriOpts::optimised())
    } else {
        CheriMode::Off
    }
}

fn run(prog: &[u32], purecap: bool, scalarise: bool) -> Outcome {
    let mut cfg = SmConfig::with_geometry(WARPS, LANES, mode_of(purecap));
    cfg.dram_size = 1 << 20;
    let mut dev = Device::new(cfg, 1);
    dev.load_program(prog);
    let arg = CapPipe::almighty().set_addr(DATA).set_bounds(DATA_LEN).0;
    dev.set_scr(scr::ARG, arg.to_mem());
    dev.set_scr(scr::GLOBAL, CapPipe::almighty().to_mem());
    // Data region: a word pattern with sign bits in every byte position,
    // and a tagged capability in every fourth 8-byte slot.
    for i in 0..DATA_LEN / 4 {
        let v = (i.wrapping_mul(0x9E37_79B1) ^ 0x80C0_E0F0).rotate_left(i % 32);
        dev.memory_mut().write(DATA + i * 4, v, 4).unwrap();
    }
    for i in (0..DATA_LEN / 8).step_by(4) {
        let c = arg.set_addr(DATA + i * 8).set_bounds(8 + i).0;
        dev.memory_mut().write_cap(DATA + i * 8, c.to_mem()).unwrap();
    }
    dev.sm_mut(0).set_scalarise(scalarise);
    dev.sm_mut(0).set_sink(Box::new(VecSink::new()));
    dev.reset();
    let result = dev.run(MAX_CYCLES);
    let sink: Box<dyn Any> = dev.sm_mut(0).take_sink().expect("sink attached");
    let events = sink.downcast::<VecSink>().expect("VecSink").into_events();
    let jsonl = to_jsonl(&[TraceCell { label: "op_matrix", events: &events }]);
    let parts = |c: CapMem| (c.addr(), c.meta(), c.tag());
    let cap_at = |addr: u32| parts(dev.memory().read_cap(addr).unwrap());
    let memory = (0..SECTIONS * 2 * THREADS)
        .map(|i| cap_at(OUT + i * 8))
        .chain((0..DATA_LEN / 8).map(|i| cap_at(DATA + i * 8)))
        .collect();
    let scratch = (0..SCRATCH_LEN / 8)
        .map(|i| parts(dev.sm(0).scratchpad().read_cap(map::SCRATCH_BASE + i * 8).unwrap()))
        .collect();
    Outcome { result, memory, scratch, jsonl, events: events.len() }
}

fn memory_digest(memory: &[(u32, u32, bool)]) -> u64 {
    let bytes: Vec<u8> = memory
        .iter()
        .flat_map(|&(a, m, t)| {
            a.to_le_bytes().into_iter().chain(m.to_le_bytes()).chain([u8::from(t)])
        })
        .collect();
    fnv1a(&bytes)
}

/// Run one case on both drivers, assert they agree, and return its record:
/// `<case> [<mode>] | events=… stream=… results=…`, the digests being FNV-1a
/// of the JSON-lines stream and of the results.
fn differential(c: &Case, purecap: bool) -> String {
    let label = format!("{} [{}]", c.name, if purecap { "purecap" } else { "baseline" });
    let prog = program(c);
    let fast = run(&prog, purecap, true);
    let slow = run(&prog, purecap, false);
    assert_eq!(fast.memory, slow.memory, "{label}: results differ between the drivers");
    assert_eq!(fast.scratch, slow.scratch, "{label}: scratchpad differs between the drivers");
    assert_eq!(fast.result, slow.result, "{label}: statistics differ between the drivers");
    assert!(fast.jsonl == slow.jsonl, "{label}: event streams differ between the drivers");
    // Every case is built to finish, so the matrix really ran all sections.
    assert!(fast.result.is_ok(), "{label}: {:?}", fast.result);
    // The scratchpad rows digest the scratchpad too (the older rows never
    // touch it, and their digests predate this input).
    let mut results = fast.memory;
    if c.operands == Operands::Scratch {
        results.extend(fast.scratch);
    }
    let (stream, results) = (fnv1a(fast.jsonl.as_bytes()), memory_digest(&results));
    format!("{label} | events={} stream={stream:#018x} results={results:#018x}", fast.events)
}

#[test]
fn both_drivers_agree_and_match_recorded_digests() {
    let cases = cases();
    let got: Vec<String> =
        cases.iter().flat_map(|c| [false, true].map(|purecap| differential(c, purecap))).collect();
    golden::check("op_matrix", include_str!("../../../tests/golden/op_matrix.txt"), &got);
}

/// The matrix must keep both drivers busy: a classifier that stopped
/// scalarising (or scalarised nothing lane-wise) would make the
/// differential vacuous.
#[test]
fn matrix_exercises_both_drivers() {
    let cases = cases();
    for name in ["op.Add", "fp.Mul", "cap.SetBounds", "branch.Lt", "cap.GetLen"] {
        let c = cases.iter().find(|c| c.name == name).expect("case exists");
        for purecap in [false, true] {
            let stats = run(&program(c), purecap, true).result.unwrap();
            assert!(stats.scalarised_issues > 0, "{name}: nothing scalarised");
            assert!(stats.scalarised_issues < stats.instrs, "{name}: nothing ran lane-wise");
        }
    }
}

/// An inexact `CSetBoundsExact` traps identically on both drivers: the
/// warp-wide path raises one warp-wide trap, the lane-wise path collects
/// per-lane faults, and the two must describe the same trap.
#[test]
fn inexact_bounds_trap_is_identical_on_both_drivers() {
    for uniform in [true, false] {
        let mut a = Assembler::new();
        a.push(Instr::Csrrs { rd: Reg::S0, csr: csr::MHARTID, rs1: Reg::ZERO });
        a.push(Instr::CSpecialRw { cd: A0, cs1: Reg::ZERO, scr: scr::GLOBAL });
        a.li(Reg::T0, DATA + 1);
        a.push(Instr::CSetAddr { cd: A0, cs1: A0, rs2: Reg::T0 });
        if !uniform {
            a.push(Instr::CIncOffset { cd: A0, cs1: A0, rs2: Reg::S0 });
        }
        a.li(A1, 0x0012_3457);
        a.push(Instr::CSetBoundsExact { cd: A2, cs1: A0, rs2: A1 });
        a.terminate();
        let prog = a.assemble().unwrap();
        let fast = run(&prog, true, true);
        let slow = run(&prog, true, false);
        assert!(
            matches!(&fast.result, Err(RunError::Trap(t)) if t.cause.name() == "cheri:inexact_bounds"),
            "{:?}",
            fast.result
        );
        assert_eq!(fast, slow, "uniform={uniform}");
    }
}
