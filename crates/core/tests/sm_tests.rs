//! Integration tests for the SM: hand-assembled kernels exercising
//! divergence, barriers, atomics, scratchpad, and the CHERI protection
//! machinery.

use cheri_cap::{CapException, CapPipe, Perms};
use cheri_simt::{CheriMode, CheriOpts, Device, RunError, SmConfig, TrapCause};
use simt_isa::asm::Assembler;
use simt_isa::{csr, scr, AluOp, AmoOp, BranchCond, Instr, LoadWidth, Reg, StoreWidth, UnaryCapOp};
use simt_mem::{map, MemFault};

const MAX: u64 = 2_000_000;

fn run_dev(cfg: SmConfig, prog: Vec<u32>) -> (Device, Result<cheri_simt::KernelStats, RunError>) {
    let mut dev = Device::new(cfg, 1);
    dev.load_program(&prog);
    dev.reset();
    let r = dev.run(MAX);
    (dev, r)
}

/// Mint a data capability over `[base, base+len)`.
fn data_cap(base: u32, len: u32) -> CapPipe {
    let (c, exact) = CapPipe::almighty().and_perm(Perms::data()).set_addr(base).set_bounds(len);
    assert!(exact && c.tag());
    c
}

// ---------------------------------------------------------------------------
// Baseline behaviour
// ---------------------------------------------------------------------------

#[test]
fn divergent_if_else_reconverges() {
    // Even threads add 10, odd threads add 20; all store tid+delta.
    let mut a = Assembler::new();
    a.push(Instr::Csrrs { rd: Reg::A0, csr: csr::MHARTID, rs1: Reg::ZERO });
    a.push(Instr::OpImm { op: AluOp::And, rd: Reg::A1, rs1: Reg::A0, imm: 1 });
    let odd = a.label();
    let join = a.label();
    a.bnez(Reg::A1, odd);
    a.push(Instr::OpImm { op: AluOp::Add, rd: Reg::A2, rs1: Reg::A0, imm: 10 });
    a.jump(join);
    a.bind(odd);
    a.push(Instr::OpImm { op: AluOp::Add, rd: Reg::A2, rs1: Reg::A0, imm: 20 });
    a.bind(join);
    a.push(Instr::OpImm { op: AluOp::Sll, rd: Reg::A3, rs1: Reg::A0, imm: 2 });
    a.li(Reg::A4, map::DRAM_BASE);
    a.push(Instr::Op { op: AluOp::Add, rd: Reg::A3, rs1: Reg::A3, rs2: Reg::A4 });
    a.push(Instr::Store { w: StoreWidth::W, rs2: Reg::A2, rs1: Reg::A3, off: 0 });
    a.terminate();

    let (dev, r) = run_dev(SmConfig::small(CheriMode::Off), a.assemble().unwrap());
    r.unwrap();
    for t in 0..64u32 {
        let want = t + if t % 2 == 1 { 20 } else { 10 };
        assert_eq!(dev.memory().read(map::DRAM_BASE + t * 4, 4).unwrap(), want, "thread {t}");
    }
}

#[test]
fn loop_with_divergent_trip_counts() {
    // Each thread sums 1..=tid%4 by looping; result = tid%4*(tid%4+1)/2.
    let mut a = Assembler::new();
    a.push(Instr::Csrrs { rd: Reg::A0, csr: csr::MHARTID, rs1: Reg::ZERO });
    a.push(Instr::OpImm { op: AluOp::And, rd: Reg::A1, rs1: Reg::A0, imm: 3 });
    a.push(Instr::Op { op: AluOp::Add, rd: Reg::A2, rs1: Reg::ZERO, rs2: Reg::ZERO });
    let done = a.label();
    let top = a.here();
    a.beqz(Reg::A1, done);
    a.push(Instr::Op { op: AluOp::Add, rd: Reg::A2, rs1: Reg::A2, rs2: Reg::A1 });
    a.push(Instr::OpImm { op: AluOp::Add, rd: Reg::A1, rs1: Reg::A1, imm: -1 });
    a.jump(top);
    a.bind(done);
    a.push(Instr::OpImm { op: AluOp::Sll, rd: Reg::A3, rs1: Reg::A0, imm: 2 });
    a.li(Reg::A4, map::DRAM_BASE);
    a.push(Instr::Op { op: AluOp::Add, rd: Reg::A3, rs1: Reg::A3, rs2: Reg::A4 });
    a.push(Instr::Store { w: StoreWidth::W, rs2: Reg::A2, rs1: Reg::A3, off: 0 });
    a.terminate();

    let (dev, r) = run_dev(SmConfig::small(CheriMode::Off), a.assemble().unwrap());
    r.unwrap();
    for t in 0..64u32 {
        let n = t % 4;
        assert_eq!(dev.memory().read(map::DRAM_BASE + t * 4, 4).unwrap(), n * (n + 1) / 2);
    }
}

#[test]
fn atomic_histogram_in_dram() {
    // All threads atomically increment one counter.
    let mut a = Assembler::new();
    a.li(Reg::A0, map::DRAM_BASE + 0x100);
    a.push(Instr::OpImm { op: AluOp::Add, rd: Reg::A1, rs1: Reg::ZERO, imm: 1 });
    a.push(Instr::Amo { op: AmoOp::Add, rd: Reg::A2, rs1: Reg::A0, rs2: Reg::A1 });
    a.terminate();
    let cfg = SmConfig::small(CheriMode::Off);
    let threads = cfg.threads();
    let (dev, r) = run_dev(cfg, a.assemble().unwrap());
    r.unwrap();
    assert_eq!(dev.memory().read(map::DRAM_BASE + 0x100, 4).unwrap(), threads);
}

#[test]
fn barrier_synchronises_scratchpad() {
    // Thread 0 of each "block" (= whole SM here) writes a flag before the
    // barrier; all threads read it after and store it.
    let mut a = Assembler::new();
    a.push(Instr::Csrrs { rd: Reg::A0, csr: csr::MHARTID, rs1: Reg::ZERO });
    let skip = a.label();
    a.bnez(Reg::A0, skip);
    a.li(Reg::A1, map::SCRATCH_BASE);
    a.push(Instr::OpImm { op: AluOp::Add, rd: Reg::A2, rs1: Reg::ZERO, imm: 77 });
    a.push(Instr::Store { w: StoreWidth::W, rs2: Reg::A2, rs1: Reg::A1, off: 0 });
    a.bind(skip);
    a.barrier();
    a.li(Reg::A1, map::SCRATCH_BASE);
    a.push(Instr::Load { w: LoadWidth::W, rd: Reg::A3, rs1: Reg::A1, off: 0 });
    a.push(Instr::OpImm { op: AluOp::Sll, rd: Reg::A4, rs1: Reg::A0, imm: 2 });
    a.li(Reg::A5, map::DRAM_BASE);
    a.push(Instr::Op { op: AluOp::Add, rd: Reg::A4, rs1: Reg::A4, rs2: Reg::A5 });
    a.push(Instr::Store { w: StoreWidth::W, rs2: Reg::A3, rs1: Reg::A4, off: 0 });
    a.terminate();

    let mut dev = Device::new(SmConfig::small(CheriMode::Off), 1);
    dev.load_program(&a.assemble().unwrap());
    dev.set_block_warps(8); // all 8 warps form one block
    dev.reset();
    let stats = dev.run(MAX).unwrap();
    assert!(stats.barriers > 0);
    for t in 0..64u32 {
        assert_eq!(dev.memory().read(map::DRAM_BASE + t * 4, 4).unwrap(), 77, "thread {t}");
    }
}

#[test]
fn unmapped_access_faults() {
    let mut a = Assembler::new();
    a.li(Reg::A0, 0x0000_1000); // not TCIM, not scratch, not DRAM
    a.push(Instr::Load { w: LoadWidth::W, rd: Reg::A1, rs1: Reg::A0, off: 0 });
    a.terminate();
    let (_, r) = run_dev(SmConfig::small(CheriMode::Off), a.assemble().unwrap());
    match r {
        Err(RunError::Trap(t)) => {
            assert_eq!(t.cause, TrapCause::Mem(MemFault::Unmapped(0x0000_1000)));
            // Every lane of the converged warp read the same address.
            assert!(t.lane_causes.iter().all(|f| f.cause == t.cause));
            assert_eq!(t.lane_mask.count_ones() as usize, t.lane_causes.len());
        }
        other => panic!("expected memory trap, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// CHERI behaviour
// ---------------------------------------------------------------------------

fn cheri_cfg() -> SmConfig {
    SmConfig::small(CheriMode::On(CheriOpts::optimised()))
}

/// Kernel storing each thread's id through a bounded capability from SCR.
fn purecap_store_ids() -> Vec<u32> {
    let mut a = Assembler::new();
    a.push(Instr::Csrrs { rd: Reg::A0, csr: csr::MHARTID, rs1: Reg::ZERO });
    a.push(Instr::CSpecialRw { cd: Reg::A1, cs1: Reg::ZERO, scr: scr::ARG });
    a.push(Instr::OpImm { op: AluOp::Sll, rd: Reg::A2, rs1: Reg::A0, imm: 2 });
    a.push(Instr::CIncOffset { cd: Reg::A3, cs1: Reg::A1, rs2: Reg::A2 });
    a.push(Instr::Store { w: StoreWidth::W, rs2: Reg::A0, rs1: Reg::A3, off: 0 });
    a.terminate();
    a.assemble().unwrap()
}

#[test]
fn purecap_bounded_stores_succeed() {
    let mut dev = Device::new(cheri_cfg(), 1);
    dev.load_program(&purecap_store_ids());
    let buf = data_cap(map::DRAM_BASE, 64 * 4);
    dev.set_scr(scr::ARG, buf.to_mem());
    dev.reset();
    let stats = dev.run(MAX).unwrap();
    for t in 0..64u32 {
        assert_eq!(dev.memory().read(map::DRAM_BASE + t * 4, 4).unwrap(), t);
    }
    // The histogram saw capability stores and pointer arithmetic.
    assert!(stats.cheri_histogram["CSW"] > 0);
    assert!(stats.cheri_histogram["CIncOffset"] > 0);
    assert!(stats.cheri_histogram["CSpecialRW"] > 0);
    assert!(stats.cheri_fraction() > 0.0);
}

#[test]
fn purecap_out_of_bounds_store_traps() {
    let mut dev = Device::new(cheri_cfg(), 1);
    dev.load_program(&purecap_store_ids());
    // Bounds cover only half the threads: thread 32's store must trap.
    let buf = data_cap(map::DRAM_BASE, 32 * 4);
    dev.set_scr(scr::ARG, buf.to_mem());
    dev.reset();
    match dev.run(MAX) {
        Err(RunError::Trap(t)) => {
            assert_eq!(t.cause, TrapCause::Cheri(CapException::BoundsViolation));
        }
        other => panic!("expected bounds violation, got {other:?}"),
    }
}

#[test]
fn untagged_capability_dereference_traps() {
    // SCR left null: the very first store trips a tag violation.
    let mut dev = Device::new(cheri_cfg(), 1);
    dev.load_program(&purecap_store_ids());
    dev.reset();
    match dev.run(MAX) {
        Err(RunError::Trap(t)) => {
            assert_eq!(t.cause, TrapCause::Cheri(CapException::TagViolation));
        }
        other => panic!("expected tag violation, got {other:?}"),
    }
}

#[test]
fn figure1_overread_demo() {
    // The paper's Figure 1: ptr points to `data`, ptr[1] reads `secret`.
    // Both variables live on the (emulated) stack; the baseline leaks the
    // secret, CHERI with a bounded stack-slot capability traps.
    const DATA: u32 = map::DRAM_BASE + 0x40;
    const SECRET_VAL: u32 = 0xC0DE;

    // Baseline: plain pointer arithmetic reads the neighbouring variable.
    let mut a = Assembler::new();
    a.li(Reg::A0, DATA);
    a.li(Reg::A1, 0xDA1A);
    a.push(Instr::Store { w: StoreWidth::W, rs2: Reg::A1, rs1: Reg::A0, off: 0 });
    a.li(Reg::A2, SECRET_VAL);
    a.push(Instr::Store { w: StoreWidth::W, rs2: Reg::A2, rs1: Reg::A0, off: 4 });
    a.push(Instr::Load { w: LoadWidth::W, rd: Reg::A3, rs1: Reg::A0, off: 4 }); // ptr[1]
    a.li(Reg::A4, map::DRAM_BASE);
    a.push(Instr::Store { w: StoreWidth::W, rs2: Reg::A3, rs1: Reg::A4, off: 0 });
    a.terminate();
    let (dev, r) = run_dev(SmConfig::small(CheriMode::Off), a.assemble().unwrap());
    r.unwrap();
    assert_eq!(dev.memory().read(map::DRAM_BASE, 4).unwrap(), SECRET_VAL, "baseline leaks");

    // CHERI: the same access through a 4-byte capability for `data`.
    let mut a = Assembler::new();
    a.push(Instr::CSpecialRw { cd: Reg::A0, cs1: Reg::ZERO, scr: scr::ARG });
    a.push(Instr::Load { w: LoadWidth::W, rd: Reg::A3, rs1: Reg::A0, off: 4 }); // ptr[1]
    a.terminate();
    let mut dev = Device::new(cheri_cfg(), 1);
    dev.load_program(&a.assemble().unwrap());
    dev.memory_mut().write(DATA + 4, SECRET_VAL, 4).unwrap();
    dev.set_scr(scr::ARG, data_cap(DATA, 4).to_mem());
    dev.reset();
    match dev.run(MAX) {
        Err(RunError::Trap(t)) => {
            assert_eq!(t.cause, TrapCause::Cheri(CapException::BoundsViolation));
        }
        other => panic!("CHERI must trap the overread, got {other:?}"),
    }
}

#[test]
fn clc_csc_roundtrip_preserves_tags_and_forgery_fails() {
    // Store a derived capability to memory with CSC, load it back with CLC,
    // then dereference it. Also verify CGetTag sees the tag.
    let mut a = Assembler::new();
    a.push(Instr::CSpecialRw { cd: Reg::A0, cs1: Reg::ZERO, scr: scr::ARG });
    // Spill the capability to the second half of the buffer and reload.
    a.push(Instr::Csc { cs2: Reg::A0, cs1: Reg::A0, off: 8 });
    a.push(Instr::Clc { cd: Reg::A1, cs1: Reg::A0, off: 8 });
    a.push(Instr::CapUnary { op: UnaryCapOp::GetTag, rd: Reg::A2, cs1: Reg::A1 });
    // Dereference the reloaded capability.
    a.push(Instr::Load { w: LoadWidth::W, rd: Reg::A3, rs1: Reg::A1, off: 0 });
    // Store the observed tag for the host.
    a.push(Instr::Store { w: StoreWidth::W, rs2: Reg::A2, rs1: Reg::A0, off: 4 });
    a.terminate();

    let mut dev = Device::new(cheri_cfg(), 1);
    dev.load_program(&a.assemble().unwrap());
    dev.set_scr(scr::ARG, data_cap(map::DRAM_BASE, 16).to_mem());
    dev.reset();
    let stats = dev.run(MAX).unwrap();
    assert_eq!(dev.memory().read(map::DRAM_BASE + 4, 4).unwrap(), 1, "tag observed");
    assert!(stats.cheri_histogram["CSC"] >= 1);
    assert!(stats.cheri_histogram["CLC"] >= 1);
    // The CSC port penalty was charged in the optimised configuration.
    assert!(stats.stalls.csc_serialisation >= 1);

    // Forgery: overwrite one word of the stored capability with data, then
    // dereferencing the reloaded value must trap.
    let mut a = Assembler::new();
    a.push(Instr::CSpecialRw { cd: Reg::A0, cs1: Reg::ZERO, scr: scr::ARG });
    a.push(Instr::Csc { cs2: Reg::A0, cs1: Reg::A0, off: 8 });
    a.push(Instr::OpImm { op: AluOp::Add, rd: Reg::A4, rs1: Reg::ZERO, imm: 42 });
    a.push(Instr::Store { w: StoreWidth::W, rs2: Reg::A4, rs1: Reg::A0, off: 8 });
    a.push(Instr::Clc { cd: Reg::A1, cs1: Reg::A0, off: 8 });
    a.push(Instr::Load { w: LoadWidth::W, rd: Reg::A3, rs1: Reg::A1, off: 0 });
    a.terminate();
    let mut dev = Device::new(cheri_cfg(), 1);
    dev.load_program(&a.assemble().unwrap());
    dev.set_scr(scr::ARG, data_cap(map::DRAM_BASE, 16).to_mem());
    dev.reset();
    match dev.run(MAX) {
        Err(RunError::Trap(t)) => {
            assert_eq!(t.cause, TrapCause::Cheri(CapException::TagViolation));
        }
        other => panic!("forged capability must not be dereferenceable: {other:?}"),
    }
}

#[test]
fn csetbounds_in_kernel_narrows() {
    // Derive a narrower capability in-kernel and overflow it.
    let mut a = Assembler::new();
    a.push(Instr::CSpecialRw { cd: Reg::A0, cs1: Reg::ZERO, scr: scr::ARG });
    a.push(Instr::CSetBoundsImm { cd: Reg::A1, cs1: Reg::A0, imm: 8 });
    a.push(Instr::Load { w: LoadWidth::W, rd: Reg::A2, rs1: Reg::A1, off: 0 }); // ok
    a.push(Instr::Load { w: LoadWidth::W, rd: Reg::A2, rs1: Reg::A1, off: 8 }); // trap
    a.terminate();
    let mut dev = Device::new(cheri_cfg(), 1);
    dev.load_program(&a.assemble().unwrap());
    dev.set_scr(scr::ARG, data_cap(map::DRAM_BASE, 64).to_mem());
    dev.reset();
    match dev.run(MAX) {
        Err(RunError::Trap(t)) => {
            assert_eq!(t.cause, TrapCause::Cheri(CapException::BoundsViolation));
        }
        other => panic!("expected bounds violation, got {other:?}"),
    }
}

#[test]
fn uniform_metadata_stays_out_of_vrf() {
    // All threads use the same argument capability: with the compressed
    // metadata RF + NVO, the metadata register file should keep everything
    // scalar (peak metadata VRF residency 0) — the paper's key result.
    let mut dev = Device::new(cheri_cfg(), 1);
    dev.load_program(&purecap_store_ids());
    dev.set_scr(scr::ARG, data_cap(map::DRAM_BASE, 64 * 4).to_mem());
    dev.reset();
    let stats = dev.run(MAX).unwrap();
    assert_eq!(stats.peak_meta_vrf_resident, 0, "metadata should compress fully");
    assert!(stats.cap_regs_used >= 1);
    assert!(stats.cap_regs_used <= 16, "few registers hold capabilities");
}

#[test]
fn naive_vs_optimised_same_results() {
    // The three CHERI configurations are functionally identical.
    for opts in [CheriOpts::naive(), CheriOpts::optimised()] {
        let mut dev = Device::new(SmConfig::small(CheriMode::On(opts)), 1);
        dev.load_program(&purecap_store_ids());
        dev.set_scr(scr::ARG, data_cap(map::DRAM_BASE, 64 * 4).to_mem());
        dev.reset();
        dev.run(MAX).unwrap();
        for t in 0..64u32 {
            assert_eq!(dev.memory().read(map::DRAM_BASE + t * 4, 4).unwrap(), t);
        }
    }
}

#[test]
fn branch_cond_coverage() {
    // Exercise all six branch conditions: store 1 if taken else 0, with
    // operands -1 and 1.
    let conds = [
        (BranchCond::Eq, 0u32),
        (BranchCond::Ne, 1),
        (BranchCond::Lt, 1), // -1 < 1 signed
        (BranchCond::Ge, 0),
        (BranchCond::Ltu, 0), // 0xFFFF_FFFF < 1 unsigned is false
        (BranchCond::Geu, 1),
    ];
    for (i, (cond, want)) in conds.into_iter().enumerate() {
        let mut a = Assembler::new();
        a.push(Instr::OpImm { op: AluOp::Add, rd: Reg::A0, rs1: Reg::ZERO, imm: -1 });
        a.push(Instr::OpImm { op: AluOp::Add, rd: Reg::A1, rs1: Reg::ZERO, imm: 1 });
        a.push(Instr::Op { op: AluOp::Add, rd: Reg::A2, rs1: Reg::ZERO, rs2: Reg::ZERO });
        let taken = a.label();
        a.branch(cond, Reg::A0, Reg::A1, taken);
        let done = a.label();
        a.jump(done);
        a.bind(taken);
        a.push(Instr::OpImm { op: AluOp::Add, rd: Reg::A2, rs1: Reg::ZERO, imm: 1 });
        a.bind(done);
        a.li(Reg::A3, map::DRAM_BASE);
        a.push(Instr::Store { w: StoreWidth::W, rs2: Reg::A2, rs1: Reg::A3, off: 0 });
        a.terminate();
        let (dev, r) =
            run_dev(SmConfig::with_geometry(1, 1, CheriMode::Off), a.assemble().unwrap());
        r.unwrap();
        assert_eq!(dev.memory().read(map::DRAM_BASE, 4).unwrap(), want, "cond #{i}");
    }
}

#[test]
fn deadlock_error_is_distinct_from_timeout() {
    let e = RunError::Deadlock { cycles: 42, blocked_warps: 3 };
    assert!(e.to_string().contains("barrier deadlock after 42 cycles"), "{e}");
    assert!(e.to_string().contains("3 warp(s)"), "{e}");
    assert_ne!(e, RunError::Timeout { cycles: 42 });
}

#[test]
fn ring_sink_captures_the_tail() {
    use cheri_simt::trace::{EventSink, RingSink, TraceEvent};

    let mut a = Assembler::new();
    a.push(Instr::Csrrs { rd: Reg::A0, csr: csr::MHARTID, rs1: Reg::ZERO });
    for i in 0..10 {
        a.push(Instr::OpImm { op: AluOp::Add, rd: Reg::A1, rs1: Reg::A0, imm: i });
    }
    a.terminate();
    let mut dev = Device::new(SmConfig::with_geometry(1, 4, CheriMode::Off), 1);
    dev.load_program(&a.assemble().unwrap());
    dev.sm_mut(0).set_sink(Box::new(RingSink::new(4)));
    dev.reset();
    dev.run(MAX).unwrap();
    let sink = dev.sm_mut(0).take_sink().expect("sink attached");
    let ring = sink.as_any().downcast_ref::<RingSink>().expect("RingSink");
    let events: Vec<_> = ring.events().collect();
    assert_eq!(events.len(), 4, "ring buffer keeps only the tail");
    // 12 instructions issued but only 4 events retained: the rest were
    // evicted and counted (stall events, if any, add to the evictions).
    assert!(ring.dropped() >= 8, "evictions are reported");
    // The last event is the issue of the terminate instruction.
    assert!(
        matches!(events[3], TraceEvent::Issue { mnemonic: "simt.terminate", .. }),
        "last event is the terminate issue, got {:?}",
        events[3]
    );
    // Events are retained in emission order.
    assert!(events.windows(2).all(|w| w[0].cycle() <= w[1].cycle()));

    // No sink attached: nothing is recorded anywhere.
    let mut dev2 = Device::new(SmConfig::with_geometry(1, 4, CheriMode::Off), 1);
    let mut b = Assembler::new();
    b.terminate();
    dev2.load_program(&b.assemble().unwrap());
    dev2.reset();
    dev2.run(MAX).unwrap();
    assert!(dev2.sm_mut(0).take_sink().is_none());
}

#[test]
fn structured_sink_reconciles_with_stats() {
    use cheri_simt::trace::{StallCause, TraceEvent, VecSink};
    use std::any::Any;

    // A kernel with stores (DRAM traffic), a barrier and divergence.
    let mut a = Assembler::new();
    a.push(Instr::Csrrs { rd: Reg::A0, csr: csr::MHARTID, rs1: Reg::ZERO });
    a.push(Instr::OpImm { op: AluOp::Sll, rd: Reg::A3, rs1: Reg::A0, imm: 2 });
    a.li(Reg::A4, map::DRAM_BASE);
    a.push(Instr::Op { op: AluOp::Add, rd: Reg::A3, rs1: Reg::A3, rs2: Reg::A4 });
    a.push(Instr::Store { w: StoreWidth::W, rs2: Reg::A0, rs1: Reg::A3, off: 0 });
    a.barrier();
    a.push(Instr::Load { w: LoadWidth::W, rd: Reg::A5, rs1: Reg::A3, off: 0 });
    a.terminate();
    let prog = a.assemble().unwrap();

    let mut dev = Device::new(SmConfig::small(CheriMode::Off), 1);
    dev.load_program(&prog);
    dev.sm_mut(0).set_sink(Box::new(VecSink::new()));
    dev.reset();
    let stats = dev.run(MAX).unwrap();
    let sink: Box<dyn Any> = dev.sm_mut(0).take_sink().expect("sink attached");
    let events = sink.downcast::<VecSink>().expect("VecSink").into_events();

    // Launch marker delimits the (single) launch.
    assert_eq!(
        events.iter().filter(|e| matches!(e, TraceEvent::Launch { .. })).count(),
        1,
        "reset() emits one launch marker"
    );
    // Issue events reconcile with the instruction counters.
    let issues: Vec<_> = events.iter().filter(|e| matches!(e, TraceEvent::Issue { .. })).collect();
    assert_eq!(issues.len() as u64, stats.instrs, "one issue event per instruction");
    let thread_instrs: u64 = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Issue { mask, .. } => Some(mask.count_ones() as u64),
            _ => None,
        })
        .sum();
    assert_eq!(thread_instrs, stats.thread_instrs, "mask popcounts sum to thread-instrs");
    // Barrier arrivals reconcile.
    let arrivals =
        events.iter().filter(|e| matches!(e, TraceEvent::Barrier { release: false, .. })).count();
    assert_eq!(arrivals as u64, stats.barriers);
    assert!(
        events.iter().any(|e| matches!(e, TraceEvent::Barrier { release: true, .. })),
        "barrier releases are traced"
    );
    // Idle stall cycles reconcile.
    let idle: u64 = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Stall { cause: StallCause::Idle, cycles, .. } => Some(*cycles),
            _ => None,
        })
        .sum();
    assert_eq!(idle, stats.stalls.idle);
    // DRAM transaction sums reconcile.
    let (mut reads, mut writes) = (0u64, 0u64);
    for e in &events {
        if let TraceEvent::Dram { reads: r, writes: w, .. } = e {
            reads += *r as u64;
            writes += *w as u64;
        }
    }
    assert_eq!(reads, stats.dram.read_transactions);
    assert_eq!(writes, stats.dram.write_transactions);
    assert!(
        events.iter().any(|e| matches!(e, TraceEvent::Mem { .. })),
        "coalesced accesses are traced"
    );

    // Zero drift: the same kernel without a sink produces identical stats.
    let mut plain = Device::new(SmConfig::small(CheriMode::Off), 1);
    plain.load_program(&prog);
    plain.reset();
    let base = plain.run(MAX).unwrap();
    assert_eq!(base, stats, "tracing must not perturb the model");
}

// ---------------------------------------------------------------------------
// Fetch-trap attribution
// ---------------------------------------------------------------------------

/// An out-of-range PC must trap as `fetch_oob` with identical attribution
/// under every protection scheme: the instruction-memory range check runs
/// before the CHERI PCC fetch check (DESIGN.md §3.3.4), so baseline and
/// CHERI configs cannot disagree on the cause of the same bad PC. The
/// integer-comparator schemes (Rust, GPUShield) share the baseline SM
/// configuration — their differences are codegen and the memory-stage
/// bounds table, neither of which touches fetch.
#[test]
fn out_of_range_pc_traps_as_fetch_oob_under_every_scheme() {
    let schemes =
        [CheriMode::Off, CheriMode::On(CheriOpts::naive()), CheriMode::On(CheriOpts::optimised())];
    for cheri in schemes {
        // Run off the end of the program: a kernel with no terminator
        // falls through to the first PC past instruction memory. Before
        // the ordering fix, CHERI configs reported this as a PCC bounds
        // violation while the baseline said `fetch_oob`.
        let mut a = Assembler::new();
        a.push(Instr::OpImm { op: AluOp::Add, rd: Reg::A0, rs1: Reg::ZERO, imm: 1 });
        a.push(Instr::OpImm { op: AluOp::Add, rd: Reg::A0, rs1: Reg::A0, imm: 1 });
        let prog = a.assemble().unwrap();
        let bad = map::TCIM_BASE + 4 * prog.len() as u32;
        let (_, r) = run_dev(SmConfig::small(cheri), prog);
        let t = match r {
            Err(RunError::Trap(t)) => t,
            other => panic!("{cheri:?}: expected a fetch trap, got {other:?}"),
        };
        assert_eq!(t.cause, TrapCause::FetchOutOfRange(bad), "{cheri:?}: cause");
        assert_eq!(t.cause.name(), "fetch_oob", "{cheri:?}: stable cause name");
        assert_eq!(t.pc, bad, "{cheri:?}: the trap names the bad PC, not the jump");
        assert_eq!(t.warp, 0, "{cheri:?}: warp attribution");
    }
}
