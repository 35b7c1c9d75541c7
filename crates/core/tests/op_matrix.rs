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
//! pinned against the commit the table below was recorded at by an FNV-1a
//! digest of the stream and of the results per case.
//!
//! The table was recorded at commit `8466117`, before the resolved-op ROM
//! and the two generic drivers existed, so it is an independent oracle for
//! them. The memory rows run twice, against DRAM and against the scratchpad
//! (`*.scratch`, recorded at commit `29591a4`, while the memory stage still
//! had a load/store path and an AMO path with one arm per region each).

use cheri_cap::{CapMem, CapPipe};
use cheri_simt::trace::export::{to_jsonl, TraceCell};
use cheri_simt::trace::VecSink;
use cheri_simt::{CheriMode, CheriOpts, Device, KernelStats, RunError, SmConfig};
use simt_isa::asm::Assembler;
use simt_isa::{
    csr, scr, AluOp, AmoOp, BranchCond, FcmpOp, FpOp, Instr, LoadWidth, MulOp, Reg, StoreWidth,
    UnaryCapOp,
};
use simt_mem::map;

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
    a.assemble()
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
    let sink = dev.sm_mut(0).take_sink().expect("sink attached");
    let events = sink.as_any().downcast_ref::<VecSink>().expect("VecSink").events().to_vec();
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

/// 64-bit FNV-1a (dependency-free, as in `trace_digests.rs`).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
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

/// Run one case on both drivers, assert they agree, and return
/// `(label, events, stream digest, results digest)`.
fn differential(c: &Case, purecap: bool) -> (String, usize, u64, u64) {
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
    (label, fast.events, fnv1a(fast.jsonl.as_bytes()), memory_digest(&results))
}

fn digests() -> Vec<(String, usize, u64, u64)> {
    let cases = cases();
    let mut out = Vec::new();
    for c in &cases {
        for purecap in [false, true] {
            out.push(differential(c, purecap));
        }
    }
    out
}

/// One-off harvest helper: prints the table in source form.
/// Run with `cargo test -p cheri-simt --test op_matrix -- --ignored --nocapture`.
#[test]
#[ignore = "harvest helper, not a regression test"]
fn print_digests() {
    for (label, events, stream, results) in digests() {
        println!("    (\"{label}\", {events}, {stream:#018x}, {results:#018x}),");
    }
}

#[test]
fn both_drivers_agree_and_match_recorded_digests() {
    let got = digests();
    assert_eq!(got.len(), GOLDEN.len(), "digest table covered");
    for ((label, events, stream, results), want) in got.iter().zip(GOLDEN) {
        assert_eq!(
            (label.as_str(), *events, *stream, *results),
            *want,
            "{label}: diverged from the recorded run"
        );
    }
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
        let prog = a.assemble();
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

/// `(case [mode], events, FNV-1a of the JSON-lines stream, FNV-1a of the results)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, usize, u64, u64)] = &[
    ("op.Add [baseline]", 535, 0x9d4f14eb954bebaf, 0xf4dd83a7e37b09a6),
    ("op.Add [purecap]", 616, 0xebb99d1c8cc4f65d, 0xf4dd83a7e37b09a6),
    ("opimm.Add [baseline]", 535, 0xa43170523e13496d, 0x7346b75ea35f4292),
    ("opimm.Add [purecap]", 616, 0x4cf9532bd4a32ba7, 0x7346b75ea35f4292),
    ("op.Sub [baseline]", 535, 0x8ddb2c95920a0c4d, 0x00e86f883b5ca9f8),
    ("op.Sub [purecap]", 616, 0x6393e748a41bd8c1, 0x00e86f883b5ca9f8),
    ("op.Sll [baseline]", 547, 0xf8c125ebc9373b19, 0xa18b2b41fb6a8cda),
    ("op.Sll [purecap]", 628, 0x524e5bfc45fd4f79, 0xa18b2b41fb6a8cda),
    ("opimm.Sll [baseline]", 543, 0x4df4fc2772cc5007, 0xd3fd4634514e038b),
    ("opimm.Sll [purecap]", 624, 0x049ae6d0194b5a33, 0xd3fd4634514e038b),
    ("op.Slt [baseline]", 535, 0xabecb13fe6ba73e3, 0x65dd212c754f8b0f),
    ("op.Slt [purecap]", 616, 0x07a71b4b07b9480d, 0x65dd212c754f8b0f),
    ("opimm.Slt [baseline]", 535, 0xdc41ed3d8eea7a6f, 0x2e821950be4362df),
    ("opimm.Slt [purecap]", 616, 0x830dfc0f42e732e7, 0x2e821950be4362df),
    ("op.Sltu [baseline]", 539, 0x9d91a9ee8b0f1c3d, 0xe8a8443f2108f517),
    ("op.Sltu [purecap]", 620, 0xd0ebe4f8431d7681, 0xe8a8443f2108f517),
    ("opimm.Sltu [baseline]", 531, 0xb1146b26772aa7b1, 0x473fc88d866204fb),
    ("opimm.Sltu [purecap]", 612, 0x69bb66955fec8390, 0x473fc88d866204fb),
    ("op.Xor [baseline]", 547, 0xebd0ad75f602c63d, 0xc12ca6c03955873b),
    ("op.Xor [purecap]", 628, 0x30cb7e7b750c0f53, 0xc12ca6c03955873b),
    ("opimm.Xor [baseline]", 543, 0x81365541494984ef, 0x8173c27ce9ede3a5),
    ("opimm.Xor [purecap]", 624, 0x21f6c2e6ad8d55e1, 0x8173c27ce9ede3a5),
    ("op.Srl [baseline]", 543, 0x2d67dd857a636dcc, 0x050dab5159d34456),
    ("op.Srl [purecap]", 624, 0xdc43a429f9556dfa, 0x050dab5159d34456),
    ("opimm.Srl [baseline]", 543, 0xfbcba69e0fe8e4c3, 0x08b729b62ddfea51),
    ("opimm.Srl [purecap]", 624, 0xca21a90dc8e7b6a9, 0x08b729b62ddfea51),
    ("op.Sra [baseline]", 543, 0x2dfaebc533928d76, 0x4e74e968e1e8662b),
    ("op.Sra [purecap]", 624, 0x76cc8dd45f0a469e, 0x4e74e968e1e8662b),
    ("opimm.Sra [baseline]", 543, 0xd1bd2315eb388ac1, 0x4115c498a5c30ef1),
    ("opimm.Sra [purecap]", 624, 0x38d0fbcdb49d152b, 0x4115c498a5c30ef1),
    ("op.Or [baseline]", 547, 0x3294ce4fad26a4e5, 0xd5a9bff22745a599),
    ("op.Or [purecap]", 628, 0xe17af2ead50570b7, 0xd5a9bff22745a599),
    ("opimm.Or [baseline]", 543, 0xa1e6f4e682976971, 0xfd5a37ca77f8e76f),
    ("opimm.Or [purecap]", 624, 0xe679756b8616397b, 0xfd5a37ca77f8e76f),
    ("op.And [baseline]", 547, 0xa5a095169906752d, 0xc1df4edaa58b2729),
    ("op.And [purecap]", 628, 0xa5a83a7aaed22a2f, 0xc1df4edaa58b2729),
    ("opimm.And [baseline]", 543, 0xe4912d810355b697, 0x1590ffb7b0e940a1),
    ("opimm.And [purecap]", 624, 0x86e906ad845042f9, 0x1590ffb7b0e940a1),
    ("op.Add.x0 [baseline]", 513, 0x7d2215df1c8923cb, 0xe0ed88cfa0fc38eb),
    ("op.Add.x0 [purecap]", 594, 0x8638513924450aee, 0xe0ed88cfa0fc38eb),
    ("muldiv.Mul [baseline]", 547, 0x11d2f105338006f7, 0xad7647e570d1ac81),
    ("muldiv.Mul [purecap]", 628, 0x5737e3ae3ce698d1, 0xad7647e570d1ac81),
    ("muldiv.Mulh [baseline]", 541, 0x110b4073b6326868, 0xdeda1309ce6726a7),
    ("muldiv.Mulh [purecap]", 622, 0x5c917d2132f4a6bf, 0xdeda1309ce6726a7),
    ("muldiv.Mulhsu [baseline]", 541, 0x6e583f3881c62a18, 0xb60341668bc0f257),
    ("muldiv.Mulhsu [purecap]", 622, 0x631c63bf843527a7, 0xb60341668bc0f257),
    ("muldiv.Mulhu [baseline]", 541, 0x9c8437f3c40a5546, 0xd1745867897dcbca),
    ("muldiv.Mulhu [purecap]", 622, 0x3f6b8518d5811775, 0xd1745867897dcbca),
    ("muldiv.Div [baseline]", 545, 0x1ba969c42ca5b177, 0x1b7738ce14b2638b),
    ("muldiv.Div [purecap]", 626, 0xa7ae8531d08d455d, 0x1b7738ce14b2638b),
    ("muldiv.Divu [baseline]", 545, 0x3c6841adcb3c9ac7, 0x0a7015c4a2a0ae0e),
    ("muldiv.Divu [purecap]", 626, 0x898f275e665c4cf1, 0x0a7015c4a2a0ae0e),
    ("muldiv.Rem [baseline]", 545, 0x6abdc25ae25db0e9, 0x7bccd0f20fc3d7b3),
    ("muldiv.Rem [purecap]", 626, 0x8a29b8e0738e91e3, 0x7bccd0f20fc3d7b3),
    ("muldiv.Remu [baseline]", 545, 0x568d9deddd5b91b5, 0xbc4926bd528b3989),
    ("muldiv.Remu [purecap]", 626, 0x04c301381aa265db, 0xbc4926bd528b3989),
    ("fp.Add [baseline]", 583, 0xe68868905272ef0f, 0xf5437889556436b5),
    ("fp.Add [purecap]", 663, 0xf56d842eb353e17a, 0xf5437889556436b5),
    ("fp.Sub [baseline]", 583, 0x6e80e02064e146b1, 0xd13c4024185aea2d),
    ("fp.Sub [purecap]", 663, 0x16560f091d754aa6, 0xd13c4024185aea2d),
    ("fp.Mul [baseline]", 583, 0x353b8c1de8095e11, 0x6cd4205c0e2556d2),
    ("fp.Mul [purecap]", 663, 0xaf20cd6028440546, 0x6cd4205c0e2556d2),
    ("fp.Div [baseline]", 603, 0x799a9063a6452e78, 0x6fd7ead26b61b348),
    ("fp.Div [purecap]", 684, 0x8c815e6425a7316c, 0x6fd7ead26b61b348),
    ("fp.Min [baseline]", 579, 0x44efd4be1a315f74, 0x910b4e4c9b115dd5),
    ("fp.Min [purecap]", 659, 0x7039ec510f3f7b2e, 0x910b4e4c9b115dd5),
    ("fp.Max [baseline]", 579, 0x97244f964234de7f, 0x870a8533481ed1ab),
    ("fp.Max [purecap]", 659, 0xa633f957e5e42a7f, 0x870a8533481ed1ab),
    ("fsqrt [baseline]", 599, 0xfb3b3a8dfbbfce6a, 0x1121c71b0b8592f7),
    ("fsqrt [purecap]", 680, 0x3b02a370a7cbf914, 0x1121c71b0b8592f7),
    ("fcmp.Eq [baseline]", 567, 0x496c6adffbfeafdf, 0x18067b936f3b0053),
    ("fcmp.Eq [purecap]", 647, 0xecf7a8c9019c9050, 0x18067b936f3b0053),
    ("fcmp.Lt [baseline]", 567, 0x47168434fc993547, 0x18067b936f3b0053),
    ("fcmp.Lt [purecap]", 647, 0x1ca4d8dab39daf44, 0x18067b936f3b0053),
    ("fcmp.Le [baseline]", 567, 0x25292394a2738cad, 0x18067b936f3b0053),
    ("fcmp.Le [purecap]", 647, 0xe3e0bd7227050882, 0x18067b936f3b0053),
    ("fcvt.w.s.true [baseline]", 579, 0xbec9bf7cd86076c7, 0xfac87a526693d9b8),
    ("fcvt.w.s.true [purecap]", 659, 0x1d2b5ca71488ab49, 0xfac87a526693d9b8),
    ("fcvt.s.w.true [baseline]", 543, 0x036968e23bff2e41, 0x1a695cb5ecebfede),
    ("fcvt.s.w.true [purecap]", 624, 0x4977b8356deb6867, 0x1a695cb5ecebfede),
    ("fcvt.w.s.false [baseline]", 579, 0x659a13e64c60c1b1, 0xa6f6517c52c4a538),
    ("fcvt.w.s.false [purecap]", 659, 0x9069add4f024b0d5, 0xa6f6517c52c4a538),
    ("fcvt.s.w.false [baseline]", 543, 0x179f7a78e229ff3d, 0x24df9f1195906ab5),
    ("fcvt.s.w.false [purecap]", 624, 0x957a6278c758be4b, 0x24df9f1195906ab5),
    ("cap.GetTag [baseline]", 557, 0x4156096e64c70421, 0x18067b936f3b0053),
    ("cap.GetTag [purecap]", 647, 0xf7999d911d318ed3, 0x39765d8de860dd9b),
    ("cap.ClearTag [baseline]", 561, 0xb548e615341d9dbe, 0x316af1c15c7d3751),
    ("cap.ClearTag [purecap]", 647, 0x1f14d6e97cad262f, 0x625c669143702031),
    ("cap.GetPerm [baseline]", 557, 0x373e7418c8784ed9, 0x18067b936f3b0053),
    ("cap.GetPerm [purecap]", 643, 0xdf52474eb8b97fac, 0x99b6e4732554e143),
    ("cap.GetBase [baseline]", 561, 0x10f8bcde9c0138c0, 0xca8976b9c39451f5),
    ("cap.GetBase [purecap]", 671, 0x015efc76caceb255, 0x424130697e92e9b3),
    ("cap.GetLen [baseline]", 557, 0x2958b996f3855f73, 0x18067b936f3b0053),
    ("cap.GetLen [purecap]", 667, 0xec91206296db6e6f, 0x9f595006d9f4abb3),
    ("cap.GetType [baseline]", 557, 0xa4aaba25f05c18f5, 0x18067b936f3b0053),
    ("cap.GetType [purecap]", 643, 0x07f4a367e358f1f4, 0x18067b936f3b0053),
    ("cap.GetSealed [baseline]", 557, 0xb465d0c893c9790d, 0x18067b936f3b0053),
    ("cap.GetSealed [purecap]", 643, 0x22d091a8115b3e3c, 0x18067b936f3b0053),
    ("cap.GetFlags [baseline]", 557, 0x42c1dd60022f2703, 0x18067b936f3b0053),
    ("cap.GetFlags [purecap]", 643, 0x85349a7f59e057fe, 0x18067b936f3b0053),
    ("cap.GetAddr [baseline]", 561, 0xce819af3fc22b140, 0x316af1c15c7d3751),
    ("cap.GetAddr [purecap]", 647, 0x19bf9e6cec8d0347, 0x316af1c15c7d3751),
    ("cap.Move [baseline]", 561, 0xaf8837b54b52aca6, 0x316af1c15c7d3751),
    ("cap.Move [purecap]", 657, 0xa1b9fc1e87a8a6bc, 0x327d02e6439c51f9),
    ("cap.SealEntry [baseline]", 561, 0xacc8a12519d28d44, 0x316af1c15c7d3751),
    ("cap.SealEntry [purecap]", 657, 0xe6ec13b3d8ac1d92, 0x35802fc7ce746825),
    ("cap.Crrl [baseline]", 557, 0x076090fdee2d911d, 0x663768548ad4e5f3),
    ("cap.Crrl [purecap]", 667, 0x363ea004c2ac7fdf, 0x663768548ad4e5f3),
    ("cap.Cram [baseline]", 557, 0xf595d29dd7d15925, 0x75fa0ef1271b23b3),
    ("cap.Cram [purecap]", 667, 0x5984c7c2b89ebd57, 0x75fa0ef1271b23b3),
    ("cap.AndPerm [baseline]", 561, 0x818f50e4c5181470, 0x316af1c15c7d3751),
    ("cap.AndPerm [purecap]", 677, 0x771715b8c42685c5, 0xb5600ce824b97a5d),
    ("cap.SetFlags [baseline]", 561, 0xd848e6bd3da06684, 0x316af1c15c7d3751),
    ("cap.SetFlags [purecap]", 657, 0x9c1c479513322234, 0x327d02e6439c51f9),
    ("cap.SetAddr [baseline]", 561, 0x6f6b5affc8b838c0, 0x297eaeb5bbfa4291),
    ("cap.SetAddr [purecap]", 647, 0xf4628425461e13f9, 0xe999b414be487b25),
    ("cap.IncOffset [baseline]", 561, 0xde1c64c11f4f8f08, 0x5ed5efb28d02e10f),
    ("cap.IncOffset [purecap]", 657, 0x672bdc5c7ab2db98, 0xee9c36812c5b995f),
    ("cap.IncOffsetImm [baseline]", 561, 0x2b9b6925abb3f79a, 0xe604046eddf557a5),
    ("cap.IncOffsetImm [purecap]", 657, 0x6cf2736e931756fc, 0x8464502577e4e921),
    ("cap.SetBounds [baseline]", 561, 0xe48ce21d8691bd48, 0x316af1c15c7d3751),
    ("cap.SetBounds [purecap]", 717, 0x05290271d04f29c4, 0x76d1432016bf3bb6),
    ("cap.SetBoundsExact [baseline]", 561, 0x4b957f1f8e75f9bc, 0x316af1c15c7d3751),
    ("cap.SetBoundsExact [purecap]", 717, 0xe5b98421a8976046, 0x76d1432016bf3bb6),
    ("cap.SetBoundsImm [baseline]", 561, 0xa1b03634900012f2, 0x316af1c15c7d3751),
    ("cap.SetBoundsImm [purecap]", 708, 0x0b47f2eccdcea12e, 0x710f8015a3e3cad0),
    ("cspecialrw.pcc [baseline]", 531, 0x16d7755ceaafc6e5, 0x97279e975f733b13),
    ("cspecialrw.pcc [purecap]", 612, 0x6206b98dd336b684, 0xb858591c06620f33),
    ("cspecialrw.arg [baseline]", 531, 0x16d7755ceaafc6e5, 0x457988ec9b5012b3),
    ("cspecialrw.arg [purecap]", 612, 0x6206b98dd336b684, 0x36b2eed4300cc513),
    ("lui [baseline]", 531, 0xfb7f8ec0ea376eaf, 0x61589021c42a76bb),
    ("lui [purecap]", 612, 0x93dd9e9150359388, 0x61589021c42a76bb),
    ("auipc [baseline]", 531, 0xbc1e41b74d04ed29, 0x237f61cc81279c33),
    ("auipc [purecap]", 612, 0x6d51e8f57460e268, 0xc80d2fc0a772fa9b),
    ("csrrs.mhartid [baseline]", 531, 0x2d0e8ff500140717, 0xafb1a60b4dcc09cb),
    ("csrrs.mhartid [purecap]", 612, 0x60e93146ef373c6e, 0xafb1a60b4dcc09cb),
    ("csrrs.num_warps [baseline]", 531, 0x2d0e8ff500140717, 0x23fad3951f95d1a3),
    ("csrrs.num_warps [purecap]", 612, 0x60e93146ef373c6e, 0x23fad3951f95d1a3),
    ("csrrs.log_lanes [baseline]", 531, 0x2d0e8ff500140717, 0x98e3784171142b3b),
    ("csrrs.log_lanes [purecap]", 612, 0x60e93146ef373c6e, 0x98e3784171142b3b),
    ("csrrs.num_threads [baseline]", 531, 0x2d0e8ff500140717, 0x848d1fa826247bf3),
    ("csrrs.num_threads [purecap]", 612, 0x60e93146ef373c6e, 0x848d1fa826247bf3),
    ("csrrs.unknown [baseline]", 531, 0x2d0e8ff500140717, 0x18067b936f3b0053),
    ("csrrs.unknown [purecap]", 612, 0x60e93146ef373c6e, 0x18067b936f3b0053),
    ("jal [baseline]", 531, 0x6c184fd02715eb63, 0x6aba4332a61218b3),
    ("jal [purecap]", 612, 0x1091041858aa92c4, 0xf5461cf2e2dbf66b),
    ("jal.x0 [baseline]", 513, 0xcfec131b30b570bd, 0xe0ed88cfa0fc38eb),
    ("jal.x0 [purecap]", 594, 0xa75799c1f0db2ab4, 0xe0ed88cfa0fc38eb),
    ("branch.Eq [baseline]", 551, 0x1faa73fdbbfc8dcc, 0x7ab0668082992b4b),
    ("branch.Eq [purecap]", 632, 0x999480fede3de268, 0x7ab0668082992b4b),
    ("branch.Ne [baseline]", 513, 0x23b4af0cfe8385bb, 0xe0ed88cfa0fc38eb),
    ("branch.Ne [purecap]", 594, 0x8b80bf4d9a763750, 0xe0ed88cfa0fc38eb),
    ("branch.Lt [baseline]", 539, 0x5b32fb7222b031dc, 0xcaab2f8e7e3e6dc3),
    ("branch.Lt [purecap]", 620, 0x8d7bb9375f8b1bd4, 0xcaab2f8e7e3e6dc3),
    ("branch.Ge [baseline]", 539, 0x3333c788d194efe0, 0xf505ae11af35a337),
    ("branch.Ge [purecap]", 620, 0x8d433571b33f22a9, 0xf505ae11af35a337),
    ("branch.Ltu [baseline]", 559, 0x742566dc92654004, 0xb69cc6884f913aef),
    ("branch.Ltu [purecap]", 640, 0x481c08ced957ac94, 0xb69cc6884f913aef),
    ("branch.Geu [baseline]", 535, 0x2b3f0d89429b5ffe, 0x7f9ea927346b270f),
    ("branch.Geu [purecap]", 615, 0x0ec36ba6ee605136, 0x7f9ea927346b270f),
    ("jalr [baseline]", 829, 0xcac03503c73c8ae1, 0x636805c2c4de218a),
    ("jalr [purecap]", 906, 0xdd76c4798302239e, 0xcad2c36666962b4a),
    ("load.B [baseline]", 646, 0xf2fede4b5be1264d, 0xef5628627e62cd39),
    ("load.B [purecap]", 763, 0x9deec2c39dd69e46, 0xef5628627e62cd39),
    ("load.H [baseline]", 646, 0x6b208c19ae198595, 0x945754ccc0b9d3c0),
    ("load.H [purecap]", 763, 0xf1bf3b2cb399ccb6, 0x945754ccc0b9d3c0),
    ("load.W [baseline]", 646, 0x07a651eea0a36db5, 0xdc3c05ef282ee343),
    ("load.W [purecap]", 763, 0x3309a3629238544e, 0xdc3c05ef282ee343),
    ("load.Bu [baseline]", 646, 0x5d752ae6d307679b, 0x3efeeff46d2a5349),
    ("load.Bu [purecap]", 763, 0x52ac890592aa2c32, 0x3efeeff46d2a5349),
    ("load.Hu [baseline]", 646, 0xd5824d3b75e9207f, 0xa266082635371af4),
    ("load.Hu [purecap]", 763, 0xa61fe891e80383f6, 0xa266082635371af4),
    ("store.B [baseline]", 726, 0xbc2601978451bed8, 0xf089c05a177a1b75),
    ("store.B [purecap]", 880, 0x63162f2561964a4e, 0xf089c05a177a1b75),
    ("store.H [baseline]", 726, 0xfe8151f5be7e5738, 0xc0860fca99f6006a),
    ("store.H [purecap]", 880, 0x03c4df20a3077f36, 0xc0860fca99f6006a),
    ("store.W [baseline]", 722, 0xc803c4a9434572e7, 0x9413c854855c0bd3),
    ("store.W [purecap]", 876, 0xfced174a9e77820f, 0x9413c854855c0bd3),
    ("amo.Swap [baseline]", 754, 0xe9e52ffcb3ce61fe, 0x121447db961f62f4),
    ("amo.Swap [purecap]", 908, 0x6b75061d5e9c06b3, 0x121447db961f62f4),
    ("amo.Add [baseline]", 764, 0x449114f2fd1933e0, 0xdc729256b951910f),
    ("amo.Add [purecap]", 918, 0x3baf924930208320, 0xdc729256b951910f),
    ("amo.Xor [baseline]", 764, 0xdb7c0700bb954380, 0x0dad79b11f1d8bac),
    ("amo.Xor [purecap]", 918, 0x516cf4f84e2a27a0, 0x0dad79b11f1d8bac),
    ("amo.Or [baseline]", 762, 0x9304c769889df276, 0x70c7faa0e58fc281),
    ("amo.Or [purecap]", 916, 0x36402370d1bf8801, 0x70c7faa0e58fc281),
    ("amo.And [baseline]", 760, 0xf694ac421f2e0f54, 0x31cc9d1118d4de4c),
    ("amo.And [purecap]", 914, 0x8555b781a21d54b3, 0x31cc9d1118d4de4c),
    ("amo.Min [baseline]", 746, 0x769834d65976af79, 0xd891fe11f439d64e),
    ("amo.Min [purecap]", 900, 0x68d027b0f0efbfa9, 0xd891fe11f439d64e),
    ("amo.Max [baseline]", 760, 0xa196f42079d3959c, 0xc899909d84b1cc7c),
    ("amo.Max [purecap]", 914, 0x83d972d4e38601db, 0xc899909d84b1cc7c),
    ("amo.Minu [baseline]", 760, 0x8314c8616676d6f2, 0xa9ad7240a5431972),
    ("amo.Minu [purecap]", 914, 0x5f4b7d990bde2997, 0xa9ad7240a5431972),
    ("amo.Maxu [baseline]", 756, 0xd2865bc4645d7613, 0xe84447de91b8a728),
    ("amo.Maxu [purecap]", 910, 0xaece5181cd31513d, 0xe84447de91b8a728),
    ("clc [baseline]", 680, 0x903c9d25bca38097, 0x71d48211e9ee7152),
    ("clc [purecap]", 839, 0x8435dfb4c4f295bd, 0xe24dbca1abf17011),
    ("csc [baseline]", 767, 0x5126803bc3609c4d, 0xaaad0e7701e9cba0),
    ("csc [purecap]", 941, 0x3ddd8e86298cb400, 0x86a4c80a327d928e),
    // The scratchpad rows, recorded at commit `29591a4`.
    ("load.B.scratch [baseline]", 800, 0x9300c602c17b579e, 0x4fd2609fda2aa881),
    ("load.B.scratch [purecap]", 883, 0xcb7b1fb95a334ea5, 0xffe4a85253320571),
    ("load.H.scratch [baseline]", 800, 0x37eb9f3bd745bcae, 0xbadf95ddea78d042),
    ("load.H.scratch [purecap]", 883, 0xbe2d3aeaba9fdab9, 0x1c7c8c1e9974e832),
    ("load.W.scratch [baseline]", 800, 0x44a9899585ff0b22, 0x81858792aec837ba),
    ("load.W.scratch [purecap]", 883, 0x4e91c077d2b64355, 0x052217bfcd89318a),
    ("load.Bu.scratch [baseline]", 800, 0x1c356e9419cb335e, 0x7e1f2e8c6c90a572),
    ("load.Bu.scratch [purecap]", 883, 0xdd81bf701a3da985, 0x6f2ca9ba1c1dd5ea),
    ("load.Hu.scratch [baseline]", 800, 0x1a2a3bb050ceae16, 0x0d9440db8fb7cc68),
    ("load.Hu.scratch [purecap]", 883, 0x18cbaf8d5b3ed8bd, 0x7cf6a45840656210),
    ("store.B.scratch [baseline]", 860, 0x5f1658902c5dafc3, 0x1f60ccff9594a0ea),
    ("store.B.scratch [purecap]", 943, 0x5d35e2bdbe372e85, 0x4423aa3be379be4e),
    ("store.H.scratch [baseline]", 860, 0x5734f895a5a70e5f, 0xd7fc79209b7ffde7),
    ("store.H.scratch [purecap]", 943, 0xf31afdb77eeef5a9, 0xb8cdf453d6467a6b),
    ("store.W.scratch [baseline]", 856, 0x7e991d909c954b1a, 0xc73d1fb055542063),
    ("store.W.scratch [purecap]", 939, 0xf2c6ab5af270ec21, 0x4ca7335653d8afdf),
    ("amo.Swap.scratch [baseline]", 888, 0x0940f346275dddd4, 0x7e38a4eb1aef1a42),
    ("amo.Swap.scratch [purecap]", 971, 0x06f3f1320327e04d, 0x5befb7d2e1d9734e),
    ("amo.Add.scratch [baseline]", 898, 0x33cfa3c1b6902862, 0x071541aef5a340aa),
    ("amo.Add.scratch [purecap]", 981, 0x0065d795d061d9b6, 0x6c2bd65ad421dc4e),
    ("amo.Xor.scratch [baseline]", 898, 0x06680a9593406356, 0x48eb5bb66c47d882),
    ("amo.Xor.scratch [purecap]", 981, 0x4d03c0be60c39ec2, 0x9860f33ffefc3456),
    ("amo.Or.scratch [baseline]", 896, 0xa801a62d1cf5cf0c, 0x415ca9c7f51ee8d0),
    ("amo.Or.scratch [purecap]", 979, 0x4db887eebdb802d4, 0x7b21ad540ec1dd28),
    ("amo.And.scratch [baseline]", 894, 0xf123f1afe31907c8, 0x667f38e5b9429ae3),
    ("amo.And.scratch [purecap]", 977, 0x1a1176cadba7b24f, 0xaee04decfe586307),
    ("amo.Min.scratch [baseline]", 880, 0xbb40ebc1f2bb17c5, 0x30e8950e203d9296),
    ("amo.Min.scratch [purecap]", 963, 0xa08b429aa567ed18, 0x8351080262911f76),
    ("amo.Max.scratch [baseline]", 890, 0x1525b5d200152e25, 0x1c33a08c554f3dcc),
    ("amo.Max.scratch [purecap]", 973, 0xa7a0e18b488011fc, 0x682b9c3b48b2e888),
    ("amo.Minu.scratch [baseline]", 892, 0x452f8f4d1a006b11, 0x6ed55be8f713a8c8),
    ("amo.Minu.scratch [purecap]", 975, 0xb17828a40329befb, 0xc914858319bb4b64),
    ("amo.Maxu.scratch [baseline]", 892, 0x95b7193f6f76cf8e, 0x67cf4477f35a5564),
    ("amo.Maxu.scratch [purecap]", 975, 0xa1ebc6cdcab14f34, 0x7c12992bad74d10c),
    ("clc.scratch [baseline]", 832, 0x1407ddeca1e13f60, 0xb7a29dbf7411a69a),
    ("clc.scratch [purecap]", 948, 0xe4af910c84ae1ba0, 0x8ae8a020ddf1a8db),
    ("csc.scratch [baseline]", 891, 0x1234963b1cfdde2a, 0x225b404ee6dee4bd),
    ("csc.scratch [purecap]", 994, 0x579a45315bdd78ad, 0xba3f12b077a461eb),
];
