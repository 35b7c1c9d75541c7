//! Injector-driven trap precision: every CHERI exception variant, raised by
//! sabotaging a resident victim capability with [`FaultInjector`], must
//! surface as a warp-precise [`TrapCause::Cheri`] trap with full
//! warp/lane/pc attribution; and the check-then-commit split must keep a
//! faulting store from committing *any* lane under `Abort` while
//! `MaskLanes` commits exactly the clean lanes.

use cheri_cap::{CapException, CapPipe, Perms};
use cheri_simt::{CheriMode, CheriOpts, Device, RunError, SmConfig, TrapCause, TrapPolicy};
use simt_isa::asm::Assembler;
use simt_isa::{csr, scr, AluOp, Instr, LoadWidth, Reg, StoreWidth};
use simt_mem::{map, FaultInjector};

const MAX: u64 = 1_000_000;
const LANES: u32 = 4;
/// Where the probes park their sabotage victim.
const VICTIM: u32 = map::DRAM_BASE + 0x400;

/// A 1-warp SM with an almighty data capability in `GLOBAL`, `arg` in
/// `ARG`, and a full-perms victim capability resident at `VICTIM`;
/// `setup` mutates memory after reset, like the GPU pre-launch hook.
fn probe_sm(
    prog: Vec<u32>,
    arg: CapPipe,
    policy: TrapPolicy,
    setup: impl FnOnce(&mut simt_mem::MainMemory),
) -> (Device, Result<(), RunError>) {
    let mut cfg = SmConfig::with_geometry(1, LANES, CheriMode::On(CheriOpts::optimised()));
    cfg.trap_policy = policy;
    let mut dev = Device::new(cfg, 1);
    dev.load_program(&prog);
    dev.set_scr(scr::ARG, arg.to_mem());
    dev.set_scr(scr::GLOBAL, CapPipe::almighty().and_perm(Perms::data()).to_mem());
    let victim = CapPipe::almighty().set_addr(VICTIM).set_bounds(256).0;
    dev.memory_mut().write_cap(VICTIM, victim.to_mem()).expect("victim slot is mapped");
    dev.reset();
    setup(dev.memory_mut());
    let r = dev.run(MAX).map(|_| ());
    (dev, r)
}

/// Load the (sabotaged) victim capability into `A0` through `GLOBAL`.
fn load_victim(a: &mut Assembler) {
    a.push(Instr::CSpecialRw { cd: Reg::T0, cs1: Reg::ZERO, scr: scr::GLOBAL });
    a.li(Reg::T1, VICTIM);
    a.push(Instr::CSetAddr { cd: Reg::T0, cs1: Reg::T0, rs2: Reg::T1 });
    a.push(Instr::Clc { cd: Reg::A0, cs1: Reg::T0, off: 0 });
}

/// The per-target probe kernel: the prologue loads the (sabotaged) victim
/// capability, then one target-specific use of it faults. Returns the
/// program and the index of the faulting instruction.
fn probe_program(target: CapException) -> (Vec<u32>, usize) {
    let mut a = Assembler::new();
    load_victim(&mut a);
    let fault_idx = match target {
        CapException::PermitStoreViolation => {
            let i = a.len();
            a.push(Instr::Store { w: StoreWidth::W, rs2: Reg::ZERO, rs1: Reg::A0, off: 0 });
            i
        }
        CapException::PermitStoreCapViolation => {
            let i = a.len();
            a.push(Instr::Csc { cs2: Reg::A0, cs1: Reg::A0, off: 0 });
            i
        }
        CapException::PermitExecuteViolation => {
            let i = a.len();
            a.push(Instr::Jalr { rd: Reg::ZERO, rs1: Reg::A0, off: 0 });
            i
        }
        CapException::PermitLoadCapViolation | CapException::AlignmentViolation => {
            let i = a.len();
            a.push(Instr::Clc { cd: Reg::A1, cs1: Reg::A0, off: 0 });
            i
        }
        CapException::InexactBounds => {
            a.li(Reg::A2, 1 << 20);
            let i = a.len();
            a.push(Instr::CSetBoundsExact { cd: Reg::A1, cs1: Reg::A0, rs2: Reg::A2 });
            i
        }
        _ => {
            let i = a.len();
            a.push(Instr::Load { w: LoadWidth::W, rd: Reg::A1, rs1: Reg::A0, off: 0 });
            i
        }
    };
    a.terminate();
    (a.assemble().unwrap(), fault_idx)
}

#[test]
fn every_cheri_exception_surfaces_with_full_attribution() {
    for target in CapException::ALL {
        let (prog, fault_idx) = probe_program(target);
        let (_, result) = probe_sm(prog, arg_cap(), TrapPolicy::Abort, |m| {
            FaultInjector::new(0xFA07 + target as u64).sabotage(m, VICTIM, target);
        });
        let t = match result {
            Err(RunError::Trap(t)) => t,
            other => panic!("{target:?}: expected a trap, got {other:?}"),
        };
        assert_eq!(t.cause, TrapCause::Cheri(target), "{target:?}: cause");
        assert_eq!(t.warp, 0, "{target:?}: warp attribution");
        assert_eq!(
            t.pc,
            map::TCIM_BASE + 4 * fault_idx as u32,
            "{target:?}: pc names the faulting instruction"
        );
        assert_eq!(t.lane_mask, 0xF, "{target:?}: all active lanes fault");
        assert_eq!(t.lane_causes.len(), LANES as usize, "{target:?}: per-lane causes");
        for (i, lf) in t.lane_causes.iter().enumerate() {
            assert_eq!(lf.lane, i as u32, "{target:?}: lane id");
            assert_eq!(lf.cause, TrapCause::Cheri(target), "{target:?}: lane cause");
        }
    }
}

fn arg_cap() -> CapPipe {
    CapPipe::almighty().and_perm(Perms::data()).set_addr(VICTIM).set_bounds(256).0
}

/// Output area of the per-lane store tests — zeroed, clear of the victim
/// capability that `probe_sm` parks at `VICTIM`.
const OUT: u32 = map::DRAM_BASE + 0x600;

/// `ARG` holds a 12-byte capability (3 words); each lane stores at
/// `OUT + 4 * lane`, so lane 3 lands out of bounds.
fn per_lane_store_prog() -> Vec<u32> {
    let mut a = Assembler::new();
    a.push(Instr::CSpecialRw { cd: Reg::A0, cs1: Reg::ZERO, scr: scr::ARG });
    a.push(Instr::Csrrs { rd: Reg::T2, csr: csr::MHARTID, rs1: Reg::ZERO });
    a.push(Instr::OpImm { op: AluOp::Sll, rd: Reg::T2, rs1: Reg::T2, imm: 2 });
    a.push(Instr::CIncOffset { cd: Reg::A0, cs1: Reg::A0, rs2: Reg::T2 });
    a.li(Reg::A1, 0x5EED_5EED_u32 as i32 as u32);
    a.push(Instr::Store { w: StoreWidth::W, rs2: Reg::A1, rs1: Reg::A0, off: 0 });
    a.terminate();
    a.assemble().unwrap()
}

fn narrow_arg() -> CapPipe {
    CapPipe::almighty().and_perm(Perms::data()).set_addr(OUT).set_bounds(12).0
}

#[test]
fn faulting_store_commits_zero_lanes_under_abort() {
    let (dev, result) = probe_sm(per_lane_store_prog(), narrow_arg(), TrapPolicy::Abort, |_| {});
    let t = match result {
        Err(RunError::Trap(t)) => t,
        other => panic!("expected a bounds trap, got {other:?}"),
    };
    assert_eq!(t.cause, TrapCause::Cheri(CapException::BoundsViolation));
    assert_eq!(t.lane_mask, 0b1000, "only lane 3 is out of bounds");
    // Check-then-commit: the three in-bounds lanes must not have stored.
    for lane in 0..3 {
        assert_eq!(
            dev.memory().read(OUT + 4 * lane, 4).unwrap(),
            0,
            "lane {lane} must not commit when a sibling lane faults"
        );
    }
}

#[test]
fn mask_lanes_commits_the_clean_lanes_and_logs_the_fault() {
    let (dev, result) =
        probe_sm(per_lane_store_prog(), narrow_arg(), TrapPolicy::MaskLanes, |_| {});
    result.expect("mask-lanes suppresses the trap and completes");
    // The surviving lanes re-issue and commit; the faulting lane never does.
    for lane in 0..3 {
        assert_eq!(dev.memory().read(OUT + 4 * lane, 4).unwrap(), 0x5EED_5EED, "lane {lane}");
    }
    assert_eq!(dev.memory().read(OUT + 12, 4).unwrap(), 0, "faulted lane commits nothing");
    let log = dev.sm(0).suppressed_traps();
    assert_eq!(log.len(), 1, "one suppressed fault recorded");
    assert_eq!(log[0].cause, TrapCause::Cheri(CapException::BoundsViolation));
    assert_eq!(log[0].lane_mask, 0b1000);
    assert_eq!(dev.stats().faults.suppressed, 1);
}
