//! Timing-model accounting tests: the stall/latency mechanisms that drive
//! the evaluation's cycle numbers must be attributed to the right causes.

use cheri_cap::{CapPipe, Perms};
use cheri_simt::{CheriMode, CheriOpts, Device, KernelStats, SmConfig};
use simt_isa::asm::Assembler;
use simt_isa::{scr, AluOp, FpOp, Instr, LoadWidth, Reg, StoreWidth};
use simt_mem::{map, DramConfig};

fn run(cfg: SmConfig, prog: Vec<u32>, setup: impl FnOnce(&mut Device)) -> KernelStats {
    let mut dev = Device::new(cfg, 1);
    dev.load_program(&prog);
    setup(&mut dev);
    dev.reset();
    dev.run(1_000_000).expect("run")
}

fn data_cap(base: u32, len: u32) -> cheri_cap::CapMem {
    CapPipe::almighty().and_perm(Perms::data()).set_addr(base).set_bounds(len).0.to_mem()
}

/// One warp, one dependent DRAM load: the memory latency must appear as
/// idle cycles (nothing else to issue).
#[test]
fn unhidden_memory_latency_is_idle() {
    let mut a = Assembler::new();
    a.li(Reg::A0, map::DRAM_BASE);
    a.push(Instr::Load { w: LoadWidth::W, rd: Reg::A1, rs1: Reg::A0, off: 0 });
    a.push(Instr::Op { op: AluOp::Add, rd: Reg::A2, rs1: Reg::A1, rs2: Reg::A1 });
    a.terminate();
    let cfg = SmConfig::with_geometry(1, 4, CheriMode::Off);
    let stats = run(cfg, a.assemble().unwrap(), |_| {});
    let latency = DramConfig::default().latency as u64;
    assert!(stats.stalls.idle >= latency, "idle {} < latency {latency}", stats.stalls.idle);
}

/// Many warps hide the same latency: idle shrinks dramatically.
#[test]
fn multithreading_hides_memory_latency() {
    let mut a = Assembler::new();
    a.li(Reg::A0, map::DRAM_BASE);
    // Ten dependent load+add pairs to keep each warp busy with memory.
    for _ in 0..10 {
        a.push(Instr::Load { w: LoadWidth::W, rd: Reg::A1, rs1: Reg::A0, off: 0 });
        a.push(Instr::Op { op: AluOp::Add, rd: Reg::A2, rs1: Reg::A1, rs2: Reg::A1 });
    }
    a.terminate();
    let one = run(SmConfig::with_geometry(1, 4, CheriMode::Off), a.assemble().unwrap(), |_| {});

    let mut a = Assembler::new();
    a.li(Reg::A0, map::DRAM_BASE);
    for _ in 0..10 {
        a.push(Instr::Load { w: LoadWidth::W, rd: Reg::A1, rs1: Reg::A0, off: 0 });
        a.push(Instr::Op { op: AluOp::Add, rd: Reg::A2, rs1: Reg::A1, rs2: Reg::A1 });
    }
    a.terminate();
    let many = run(SmConfig::with_geometry(32, 4, CheriMode::Off), a.assemble().unwrap(), |_| {});

    // 32x the work in far less than 32x the time.
    assert!(many.cycles < one.cycles * 4, "one={} many={}", one.cycles, many.cycles);
    let idle_frac_one = one.stalls.idle as f64 / one.cycles as f64;
    let idle_frac_many = many.stalls.idle as f64 / many.cycles as f64;
    assert!(
        idle_frac_many < idle_frac_one * 0.8,
        "idle fraction {idle_frac_many:.2} vs {idle_frac_one:.2}"
    );
}

/// The SFU serialises active lanes: a warp-wide `fdiv` takes about its
/// 12-cycle pipeline depth plus one cycle per active lane of suspension.
#[test]
fn sfu_serialises_lanes() {
    let prog = |n_divs: usize| {
        let mut a = Assembler::new();
        a.li(Reg::A0, 0x3F80_0000); // 1.0f
        for _ in 0..n_divs {
            a.push(Instr::FOp { op: FpOp::Div, rd: Reg::A1, rs1: Reg::A0, rs2: Reg::A0 });
        }
        a.terminate();
        a.assemble().unwrap()
    };
    let cfg = SmConfig::with_geometry(1, 16, CheriMode::Off);
    let base = run(cfg, prog(1), |_| {});
    let more = run(cfg, prog(11), |_| {});
    let per_div = (more.cycles - base.cycles) / 10;
    let expect = 12 + 16;
    assert!(per_div >= expect && per_div <= expect + 4, "per_div {per_div} vs expected ~{expect}");
    assert_eq!(more.sfu_requests, 11);
}

/// `CSC` pays the single-read-port metadata SRF penalty only in the
/// compressed-metadata configuration; `CLC`/`CSC` both pay the multi-flit
/// cycle everywhere.
#[test]
fn csc_and_multi_flit_accounting() {
    let prog = {
        let mut a = Assembler::new();
        a.push(Instr::CSpecialRw { cd: Reg::A0, cs1: Reg::ZERO, scr: scr::ARG });
        a.push(Instr::Csc { cs2: Reg::A0, cs1: Reg::A0, off: 0 });
        a.push(Instr::Clc { cd: Reg::A1, cs1: Reg::A0, off: 0 });
        a.terminate();
        a.assemble().unwrap()
    };
    let setup = |dev: &mut Device| dev.set_scr(scr::ARG, data_cap(map::DRAM_BASE, 64));

    // Single warp so the counts are exact.
    let opt = run(
        SmConfig::with_geometry(1, 8, CheriMode::On(CheriOpts::optimised())),
        prog.clone(),
        setup,
    );
    assert_eq!(opt.stalls.csc_serialisation, 1);
    assert_eq!(opt.stalls.cap_multi_flit, 2); // one CSC + one CLC

    let naive = run(SmConfig::with_geometry(1, 8, CheriMode::On(CheriOpts::naive())), prog, setup);
    assert_eq!(naive.stalls.csc_serialisation, 0, "naive meta RF has full ports");
    assert_eq!(naive.stalls.cap_multi_flit, 2);
}

/// Scratchpad bank conflicts serialise the warp.
#[test]
fn scratchpad_conflicts_cost_cycles() {
    let prog = |stride_shift: i32| {
        let mut a = Assembler::new();
        a.push(Instr::Csrrs { rd: Reg::A0, csr: simt_isa::csr::MHARTID, rs1: Reg::ZERO });
        a.push(Instr::OpImm { op: AluOp::Sll, rd: Reg::A1, rs1: Reg::A0, imm: stride_shift });
        a.li(Reg::A2, map::SCRATCH_BASE);
        a.push(Instr::Op { op: AluOp::Add, rd: Reg::A1, rs1: Reg::A1, rs2: Reg::A2 });
        for _ in 0..8 {
            a.push(Instr::Store { w: StoreWidth::W, rs2: Reg::A0, rs1: Reg::A1, off: 0 });
        }
        a.terminate();
        a.assemble().unwrap()
    };
    let cfg = SmConfig::with_geometry(1, 8, CheriMode::Off);
    // Stride 4 bytes: conflict-free. Stride 8*4 bytes: all lanes same bank.
    let clean = run(cfg, prog(2), |_| {});
    let conflicted = run(cfg, prog(5), |_| {});
    assert_eq!(clean.scratch.conflict_cycles, 0);
    assert!(conflicted.scratch.conflict_cycles >= 7 * 8);
    assert!(conflicted.cycles > clean.cycles);
}

/// VRF pressure causes spills whose cycles land in the spill_fill bucket
/// and whose traffic lands on DRAM.
#[test]
fn vrf_spills_are_accounted() {
    // Write many non-compressible vectors: hartid * hartid is neither
    // uniform nor affine.
    let mut a = Assembler::new();
    a.push(Instr::Csrrs { rd: Reg::A0, csr: simt_isa::csr::MHARTID, rs1: Reg::ZERO });
    a.push(Instr::MulDiv { op: simt_isa::MulOp::Mul, rd: Reg::A1, rs1: Reg::A0, rs2: Reg::A0 });
    for r in 10..26u8 {
        a.push(Instr::OpImm { op: AluOp::Add, rd: Reg::new(r), rs1: Reg::A1, imm: r as i32 });
    }
    // Read them all back so spilled ones must be filled.
    for r in 10..26u8 {
        a.push(Instr::Op { op: AluOp::Add, rd: Reg::A2, rs1: Reg::new(r), rs2: Reg::A2 });
    }
    a.terminate();
    let mut cfg = SmConfig::with_geometry(4, 8, CheriMode::Off);
    cfg.vrf_slots = 8; // tiny VRF: 4 warps x 16 vectors >> 8 slots
    let stats = run(cfg, a.assemble().unwrap(), |_| {});
    assert!(stats.data_rf.spills > 0);
    assert!(stats.data_rf.fills > 0);
    assert!(stats.stalls.spill_fill > 0);
    assert!(stats.dram.write_transactions > 0, "spills write DRAM");
}

/// Tag traffic only exists under CHERI, and the tag cache absorbs most of
/// it for streaming accesses.
#[test]
fn tag_cache_behaviour() {
    let prog = {
        let mut a = Assembler::new();
        a.push(Instr::CSpecialRw { cd: Reg::A0, cs1: Reg::ZERO, scr: scr::ARG });
        a.push(Instr::Csrrs { rd: Reg::A1, csr: simt_isa::csr::MHARTID, rs1: Reg::ZERO });
        a.push(Instr::OpImm { op: AluOp::Sll, rd: Reg::A1, rs1: Reg::A1, imm: 2 });
        a.push(Instr::CIncOffset { cd: Reg::A2, cs1: Reg::A0, rs2: Reg::A1 });
        for i in 0..16 {
            a.push(Instr::Load { w: LoadWidth::W, rd: Reg::A3, rs1: Reg::A2, off: i * 4 });
        }
        a.terminate();
        a.assemble().unwrap()
    };
    let stats = run(SmConfig::small(CheriMode::On(CheriOpts::optimised())), prog, |dev| {
        dev.set_scr(scr::ARG, data_cap(map::DRAM_BASE, 1 << 16))
    });
    let tc = stats.tag_cache;
    assert!(tc.hits + tc.misses > 0, "tag controller saw traffic");
    assert!(tc.miss_rate() < 0.2, "miss rate {}", tc.miss_rate());
    // Baseline sees no tag traffic at all.
    let mut a = Assembler::new();
    a.li(Reg::A0, map::DRAM_BASE);
    a.push(Instr::Load { w: LoadWidth::W, rd: Reg::A1, rs1: Reg::A0, off: 0 });
    a.terminate();
    let base = run(SmConfig::small(CheriMode::Off), a.assemble().unwrap(), |_| {});
    assert_eq!(base.tag_cache.hits + base.tag_cache.misses, 0);
    assert_eq!(base.dram.tag_transactions, 0);
}

/// The §4.4 compressed stack cache: with `SmConfig::stack_cache` on, a
/// warp-wide DRAM access that is uniform or affine and lies wholly inside
/// the stack arena is served by the cache — counted in `stack_cache_hits`,
/// traced as a `mem` event in the `stack_cache` space, and never seen by
/// DRAM. Scattered accesses and accesses outside the arena still go to
/// DRAM, as does everything when the flag is off.
#[test]
fn stack_cache_absorbs_affine_and_uniform_arena_accesses() {
    use cheri_simt::trace::{MemSpace, TraceEvent, VecSink};
    use std::any::Any;
    const ARENA: u32 = map::DRAM_BASE + 0x8000;
    const OUTSIDE: u32 = map::DRAM_BASE + 0x1000;
    let prog = {
        let mut a = Assembler::new();
        a.push(Instr::Csrrs { rd: Reg::A0, csr: simt_isa::csr::MHARTID, rs1: Reg::ZERO });
        a.push(Instr::OpImm { op: AluOp::Sll, rd: Reg::A1, rs1: Reg::A0, imm: 2 });
        a.li(Reg::A2, ARENA);
        a.push(Instr::Op { op: AluOp::Add, rd: Reg::A3, rs1: Reg::A2, rs2: Reg::A1 });
        // Affine store and load, then a uniform load: three cache hits.
        a.push(Instr::Store { w: StoreWidth::W, rs2: Reg::A0, rs1: Reg::A3, off: 0 });
        a.push(Instr::Load { w: LoadWidth::W, rd: Reg::A4, rs1: Reg::A3, off: 0 });
        a.push(Instr::Load { w: LoadWidth::W, rd: Reg::A4, rs1: Reg::A2, off: 64 });
        // Scattered inside the arena (hart² words): DRAM.
        a.push(Instr::MulDiv { op: simt_isa::MulOp::Mul, rd: Reg::A5, rs1: Reg::A1, rs2: Reg::A0 });
        a.push(Instr::Op { op: AluOp::Add, rd: Reg::A5, rs1: Reg::A5, rs2: Reg::A2 });
        a.push(Instr::Load { w: LoadWidth::W, rd: Reg::A4, rs1: Reg::A5, off: 0 });
        // Affine, but outside the arena: DRAM.
        a.li(Reg::A2, OUTSIDE);
        a.push(Instr::Op { op: AluOp::Add, rd: Reg::A3, rs1: Reg::A2, rs2: Reg::A1 });
        a.push(Instr::Load { w: LoadWidth::W, rd: Reg::A4, rs1: Reg::A3, off: 0 });
        a.terminate();
        a.assemble().unwrap()
    };
    let run_traced = |stack_cache: bool| {
        let mut cfg = SmConfig::with_geometry(1, 8, CheriMode::Off);
        cfg.stack_cache = stack_cache;
        let mut dev = Device::new(cfg, 1);
        dev.load_program(&prog);
        dev.set_stack_region(ARENA, 0x1000);
        dev.sm_mut(0).set_sink(Box::new(VecSink::new()));
        dev.reset();
        let stats = dev.run(1_000_000).expect("run");
        let sink: Box<dyn Any> = dev.sm_mut(0).take_sink().expect("sink attached");
        let events = sink.downcast::<VecSink>().expect("VecSink").into_events();
        // The store landed either way: the cache is a timing filter only.
        assert_eq!(dev.memory().read(ARENA + 4 * 5, 4).unwrap(), 5);
        let spaces: Vec<(MemSpace, bool, bool, u32)> = events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Mem { space, is_store, uniform, transactions, .. } => {
                    Some((space, is_store, uniform, transactions))
                }
                _ => None,
            })
            .collect();
        (stats, spaces)
    };

    let (on, spaces) = run_traced(true);
    assert_eq!(on.stack_cache_hits, 3);
    assert_eq!(
        spaces,
        [
            (MemSpace::StackCache, true, false, 0),
            (MemSpace::StackCache, false, false, 0),
            (MemSpace::StackCache, false, true, 0),
            (MemSpace::Dram, false, false, 4),
            (MemSpace::Dram, false, false, 1),
        ]
    );
    assert_eq!((on.dram.read_transactions, on.dram.write_transactions), (5, 0));

    let (off, spaces) = run_traced(false);
    assert_eq!(off.stack_cache_hits, 0);
    assert!(spaces.iter().all(|s| s.0 == MemSpace::Dram), "{spaces:?}");
    assert_eq!((off.dram.read_transactions, off.dram.write_transactions), (7, 1));
    assert!(on.cycles < off.cycles, "on={} off={}", on.cycles, off.cycles);
}
