//! Per-instruction semantics of the Xcheri extension (Figure 4), checked
//! through the SM: each test runs a tiny program and inspects the values it
//! stores back to memory.

use cheri_cap::{bounds, CapPipe, Perms};
use cheri_simt::{CheriMode, CheriOpts, Device, RunError, SmConfig, TrapCause};
use simt_isa::asm::Assembler;
use simt_isa::{scr, AluOp, Instr, LoadWidth, Reg, StoreWidth, UnaryCapOp};
use simt_mem::map;

const MAX: u64 = 1_000_000;
const OUT: u32 = map::DRAM_BASE + 0x200;

/// Run `prog` on a 1-warp CHERI SM with `cap` in SCR ARG and an almighty
/// data capability in SCR GLOBAL; returns the SM for result inspection.
fn run_with(prog: Vec<u32>, cap: CapPipe, opts: CheriOpts) -> Result<Device, RunError> {
    let mut dev = Device::new(SmConfig::with_geometry(1, 4, CheriMode::On(opts)), 1);
    dev.load_program(&prog);
    dev.set_scr(scr::ARG, cap.to_mem());
    dev.set_scr(scr::GLOBAL, CapPipe::almighty().and_perm(Perms::data()).to_mem());
    dev.reset();
    dev.run(MAX)?;
    Ok(dev)
}

/// Emit: out[slot] = value-of(rd) using the GLOBAL capability.
fn store_out(a: &mut Assembler, rs: Reg, slot: i32) {
    a.push(Instr::CSpecialRw { cd: Reg::T0, cs1: Reg::ZERO, scr: scr::GLOBAL });
    let t = Reg::T1;
    a.li(t, OUT);
    a.push(Instr::CSetAddr { cd: Reg::T0, cs1: Reg::T0, rs2: t });
    a.push(Instr::Store { w: StoreWidth::W, rs2: rs, rs1: Reg::T0, off: slot * 4 });
}

fn arg_cap() -> CapPipe {
    CapPipe::almighty().and_perm(Perms::data()).set_addr(map::DRAM_BASE + 0x1000).set_bounds(256).0
}

#[test]
fn inspection_instructions_read_the_right_fields() {
    let mut a = Assembler::new();
    a.push(Instr::CSpecialRw { cd: Reg::A0, cs1: Reg::ZERO, scr: scr::ARG });
    let ops = [
        UnaryCapOp::GetTag,
        UnaryCapOp::GetAddr,
        UnaryCapOp::GetBase,
        UnaryCapOp::GetLen,
        UnaryCapOp::GetPerm,
        UnaryCapOp::GetType,
        UnaryCapOp::GetSealed,
        UnaryCapOp::GetFlags,
    ];
    for (i, op) in ops.iter().enumerate() {
        a.push(Instr::CapUnary { op: *op, rd: Reg::A1, cs1: Reg::A0 });
        store_out(&mut a, Reg::A1, i as i32);
    }
    a.terminate();
    let cap = arg_cap();
    let dev = run_with(a.assemble().unwrap(), cap, CheriOpts::optimised()).unwrap();
    let word = |slot: u32| dev.memory().read(OUT + slot * 4, 4).unwrap();
    assert_eq!(word(0), 1, "CGetTag");
    assert_eq!(word(1), map::DRAM_BASE + 0x1000, "CGetAddr");
    assert_eq!(word(2), cap.base(), "CGetBase");
    assert_eq!(word(3), cap.length() as u32, "CGetLen");
    assert_eq!(word(4), Perms::data().bits() as u32, "CGetPerm");
    assert_eq!(word(5), 0, "CGetType (unsealed)");
    assert_eq!(word(6), 0, "CGetSealed");
    assert_eq!(word(7), 0, "CGetFlags");
}

#[test]
fn crrl_and_cram_match_the_codec() {
    let mut a = Assembler::new();
    for (i, len) in [100u32, 4096, 100_000].into_iter().enumerate() {
        a.li(Reg::A0, len);
        a.push(Instr::CapUnary { op: UnaryCapOp::Crrl, rd: Reg::A1, cs1: Reg::A0 });
        store_out(&mut a, Reg::A1, 2 * i as i32);
        a.push(Instr::CapUnary { op: UnaryCapOp::Cram, rd: Reg::A1, cs1: Reg::A0 });
        store_out(&mut a, Reg::A1, 2 * i as i32 + 1);
    }
    a.terminate();
    let dev = run_with(a.assemble().unwrap(), arg_cap(), CheriOpts::optimised()).unwrap();
    for (i, len) in [100u32, 4096, 100_000].into_iter().enumerate() {
        let got_rl = dev.memory().read(OUT + 8 * i as u32, 4).unwrap();
        let got_mask = dev.memory().read(OUT + 8 * i as u32 + 4, 4).unwrap();
        assert_eq!(got_rl as u64, bounds::representable_length(len), "CRRL({len})");
        assert_eq!(got_mask, bounds::representable_alignment_mask(len), "CRAM({len})");
    }
}

#[test]
fn candperm_removes_rights_monotonically() {
    // Drop STORE from the arg capability; a subsequent store must trap.
    let mut a = Assembler::new();
    a.push(Instr::CSpecialRw { cd: Reg::A0, cs1: Reg::ZERO, scr: scr::ARG });
    a.li(Reg::A1, (Perms::data() & !Perms::STORE).bits() as u32);
    a.push(Instr::CAndPerm { cd: Reg::A2, cs1: Reg::A0, rs2: Reg::A1 });
    a.push(Instr::Load { w: LoadWidth::W, rd: Reg::A3, rs1: Reg::A2, off: 0 }); // load ok
    a.push(Instr::Store { w: StoreWidth::W, rs2: Reg::A3, rs1: Reg::A2, off: 0 }); // trap
    a.terminate();
    match run_with(a.assemble().unwrap(), arg_cap(), CheriOpts::optimised()) {
        Err(RunError::Trap(t)) => {
            assert_eq!(t.cause, TrapCause::Cheri(cheri_cap::CapException::PermitStoreViolation))
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn csetflags_and_cmove_roundtrip() {
    let mut a = Assembler::new();
    a.push(Instr::CSpecialRw { cd: Reg::A0, cs1: Reg::ZERO, scr: scr::ARG });
    a.push(Instr::OpImm { op: AluOp::Add, rd: Reg::A1, rs1: Reg::ZERO, imm: 1 });
    a.push(Instr::CSetFlags { cd: Reg::A2, cs1: Reg::A0, rs2: Reg::A1 });
    a.push(Instr::CapUnary { op: UnaryCapOp::Move, rd: Reg::A3, cs1: Reg::A2 });
    a.push(Instr::CapUnary { op: UnaryCapOp::GetFlags, rd: Reg::A4, cs1: Reg::A3 });
    store_out(&mut a, Reg::A4, 0);
    // CMove preserves the tag too.
    a.push(Instr::CapUnary { op: UnaryCapOp::GetTag, rd: Reg::A4, cs1: Reg::A3 });
    store_out(&mut a, Reg::A4, 1);
    a.terminate();
    let dev = run_with(a.assemble().unwrap(), arg_cap(), CheriOpts::optimised()).unwrap();
    assert_eq!(dev.memory().read(OUT, 4).unwrap(), 1, "flag set and preserved by CMove");
    assert_eq!(dev.memory().read(OUT + 4, 4).unwrap(), 1, "tag preserved by CMove");
}

#[test]
fn ccleartag_kills_the_capability() {
    let mut a = Assembler::new();
    a.push(Instr::CSpecialRw { cd: Reg::A0, cs1: Reg::ZERO, scr: scr::ARG });
    a.push(Instr::CapUnary { op: UnaryCapOp::ClearTag, rd: Reg::A1, cs1: Reg::A0 });
    a.push(Instr::Load { w: LoadWidth::W, rd: Reg::A2, rs1: Reg::A1, off: 0 });
    a.terminate();
    match run_with(a.assemble().unwrap(), arg_cap(), CheriOpts::optimised()) {
        Err(RunError::Trap(t)) => {
            assert_eq!(t.cause, TrapCause::Cheri(cheri_cap::CapException::TagViolation))
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn csetaddr_out_of_representable_range_detags() {
    let mut a = Assembler::new();
    a.push(Instr::CSpecialRw { cd: Reg::A0, cs1: Reg::ZERO, scr: scr::ARG });
    a.li(Reg::A1, 0x4000_0000); // far outside the 256-byte object
    a.push(Instr::CSetAddr { cd: Reg::A2, cs1: Reg::A0, rs2: Reg::A1 });
    a.push(Instr::CapUnary { op: UnaryCapOp::GetTag, rd: Reg::A3, cs1: Reg::A2 });
    store_out(&mut a, Reg::A3, 0);
    a.terminate();
    let dev = run_with(a.assemble().unwrap(), arg_cap(), CheriOpts::optimised()).unwrap();
    assert_eq!(dev.memory().read(OUT, 4).unwrap(), 0, "unrepresentable CSetAddr clears the tag");
}

#[test]
fn csetbounds_exact_traps_on_imprecise_request() {
    // Base misaligned for a large object: the exact variant must trap with
    // InexactBounds (CHERI-RISC-V semantics; earlier revisions detagged).
    let mut a = Assembler::new();
    a.push(Instr::CSpecialRw { cd: Reg::A0, cs1: Reg::ZERO, scr: scr::GLOBAL });
    a.li(Reg::A1, map::DRAM_BASE + 0x1001); // odd base
    a.push(Instr::CSetAddr { cd: Reg::A0, cs1: Reg::A0, rs2: Reg::A1 });
    a.li(Reg::A2, 1 << 20); // 1 MiB: needs coarse alignment
    a.push(Instr::CSetBoundsExact { cd: Reg::A3, cs1: Reg::A0, rs2: Reg::A2 });
    a.terminate();
    match run_with(a.assemble().unwrap(), arg_cap(), CheriOpts::optimised()) {
        Err(RunError::Trap(t)) => {
            assert_eq!(t.cause, TrapCause::Cheri(cheri_cap::CapException::InexactBounds));
            assert!(t.lane_mask != 0, "trap names the faulting lanes");
        }
        other => panic!("expected an InexactBounds trap, got {other:?}"),
    }
}

#[test]
fn csetbounds_inexact_rounds_and_keeps_the_tag() {
    // The non-exact variant keeps the tag but rounds the base down to the
    // representable granule.
    let mut a = Assembler::new();
    a.push(Instr::CSpecialRw { cd: Reg::A0, cs1: Reg::ZERO, scr: scr::GLOBAL });
    a.li(Reg::A1, map::DRAM_BASE + 0x1001); // odd base
    a.push(Instr::CSetAddr { cd: Reg::A0, cs1: Reg::A0, rs2: Reg::A1 });
    a.li(Reg::A2, 1 << 20); // 1 MiB: needs coarse alignment
    a.push(Instr::CSetBounds { cd: Reg::A3, cs1: Reg::A0, rs2: Reg::A2 });
    a.push(Instr::CapUnary { op: UnaryCapOp::GetTag, rd: Reg::A4, cs1: Reg::A3 });
    store_out(&mut a, Reg::A4, 0);
    a.push(Instr::CapUnary { op: UnaryCapOp::GetBase, rd: Reg::A4, cs1: Reg::A3 });
    store_out(&mut a, Reg::A4, 1);
    a.terminate();
    let dev = run_with(a.assemble().unwrap(), arg_cap(), CheriOpts::optimised()).unwrap();
    assert_eq!(dev.memory().read(OUT, 4).unwrap(), 1, "CSetBounds keeps the tag");
    let base = dev.memory().read(OUT + 4, 4).unwrap();
    assert!(base <= map::DRAM_BASE + 0x1001, "base rounded down");
    assert_eq!(
        base & !bounds::representable_alignment_mask(1 << 20),
        0,
        "base aligned to the representable granule"
    );
}

#[test]
fn cjalr_calls_through_sentries_and_returns() {
    // Layout: a jump over the function body, then main derives a sentry to
    // the function from its own PCC (AUIPCC + CIncOffset + CSealEntry),
    // calls through it with CJALR, and the function returns through the
    // sealed link capability.
    let mut a = Assembler::new();
    let main = a.label();
    a.jump(main);
    let func_idx = a.len() as i32;
    // The function: store 7, return through the link capability.
    a.push(Instr::OpImm { op: AluOp::Add, rd: Reg::A2, rs1: Reg::ZERO, imm: 7 });
    store_out(&mut a, Reg::A2, 0);
    a.push(Instr::Jalr { rd: Reg::ZERO, rs1: Reg::RA, off: 0 });
    a.bind(main);
    let auipc_idx = a.len() as i32;
    a.push(Instr::Auipc { rd: Reg::A0, imm: 0 }); // AUIPCC: cap to here
    a.push(Instr::CIncOffsetImm { cd: Reg::A0, cs1: Reg::A0, imm: (func_idx - auipc_idx) * 4 });
    a.push(Instr::CapUnary { op: UnaryCapOp::SealEntry, rd: Reg::A0, cs1: Reg::A0 });
    a.push(Instr::CapUnary { op: UnaryCapOp::GetSealed, rd: Reg::A1, cs1: Reg::A0 });
    a.push(Instr::Jalr { rd: Reg::RA, rs1: Reg::A0, off: 0 }); // CJALR via the sentry
                                                               // Return point: store 9, then the sealedness observed earlier.
    a.push(Instr::OpImm { op: AluOp::Add, rd: Reg::A2, rs1: Reg::ZERO, imm: 9 });
    store_out(&mut a, Reg::A2, 1);
    store_out(&mut a, Reg::A1, 2);
    a.terminate();
    // Dynamic PCC metadata: disable the static restriction.
    let opts = CheriOpts { static_pcc: false, ..CheriOpts::optimised() };
    let dev = run_with(a.assemble().unwrap(), arg_cap(), opts).unwrap();
    assert_eq!(dev.memory().read(OUT, 4).unwrap(), 7, "function body ran");
    assert_eq!(dev.memory().read(OUT + 4, 4).unwrap(), 9, "returned to the call site");
    assert_eq!(dev.memory().read(OUT + 8, 4).unwrap(), 1, "the target was sealed");
}

#[test]
fn jumping_through_a_data_capability_traps() {
    let mut a = Assembler::new();
    a.push(Instr::CSpecialRw { cd: Reg::A0, cs1: Reg::ZERO, scr: scr::ARG });
    a.push(Instr::Jalr { rd: Reg::RA, rs1: Reg::A0, off: 0 });
    a.terminate();
    match run_with(a.assemble().unwrap(), arg_cap(), CheriOpts::optimised()) {
        Err(RunError::Trap(t)) => {
            assert_eq!(t.cause, TrapCause::Cheri(cheri_cap::CapException::PermitExecuteViolation))
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn auipcc_derives_a_code_capability() {
    let mut a = Assembler::new();
    a.push(Instr::Auipc { rd: Reg::A0, imm: 0 });
    a.push(Instr::CapUnary { op: UnaryCapOp::GetTag, rd: Reg::A1, cs1: Reg::A0 });
    store_out(&mut a, Reg::A1, 0);
    a.push(Instr::CapUnary { op: UnaryCapOp::GetAddr, rd: Reg::A1, cs1: Reg::A0 });
    store_out(&mut a, Reg::A1, 1);
    a.push(Instr::CapUnary { op: UnaryCapOp::GetPerm, rd: Reg::A1, cs1: Reg::A0 });
    store_out(&mut a, Reg::A1, 2);
    a.terminate();
    let dev = run_with(a.assemble().unwrap(), arg_cap(), CheriOpts::optimised()).unwrap();
    assert_eq!(dev.memory().read(OUT, 4).unwrap(), 1, "AUIPCC result is tagged");
    assert_eq!(dev.memory().read(OUT + 4, 4).unwrap(), map::TCIM_BASE, "address = pc");
    let perms = Perms::from_bits(dev.memory().read(OUT + 8, 4).unwrap() as u16);
    assert!(perms.contains(Perms::EXECUTE), "inherits the PCC's execute permission");
    assert!(!perms.contains(Perms::STORE), "no data-store rights from the PCC");
}

#[test]
fn writes_to_rd_null_the_metadata() {
    // Figure 4's note: when an instruction writes rd (not cd), the
    // register's capability metadata becomes null — so using a capability
    // register for integer arithmetic destroys the capability.
    let mut a = Assembler::new();
    a.push(Instr::CSpecialRw { cd: Reg::A0, cs1: Reg::ZERO, scr: scr::ARG });
    // Clobber the data half with an integer op; the metadata must die too.
    a.push(Instr::OpImm { op: AluOp::Add, rd: Reg::A0, rs1: Reg::A0, imm: 0 });
    a.push(Instr::CapUnary { op: UnaryCapOp::GetTag, rd: Reg::A1, cs1: Reg::A0 });
    store_out(&mut a, Reg::A1, 0);
    a.terminate();
    let dev = run_with(a.assemble().unwrap(), arg_cap(), CheriOpts::optimised()).unwrap();
    assert_eq!(dev.memory().read(OUT, 4).unwrap(), 0, "integer write nulls the metadata");
}
