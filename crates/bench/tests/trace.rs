//! End-to-end tests of the `repro trace` path: worker-count determinism,
//! trace/counter reconciliation through the full `Gpu` launch path, and
//! zero stats drift when tracing is disabled.

use cheri_cap::CapException;
use cheri_simt::trace::validate::validate_auto;
use cheri_simt::trace::TraceEvent;
use cheri_simt::TrapCause;
use nocl::Gpu;
use nocl_suite::{NoclBench, Scale};
use repro::{
    resolve_benches, trace_config, trace_suite_on, write_runs, Geometry, TraceFormat, TracedRun,
};
use simt_mem::MemFault;

fn benches(names: &[&str]) -> Vec<&'static dyn NoclBench> {
    names.iter().flat_map(|n| resolve_benches(n).unwrap()).collect()
}

/// What `repro trace` writes for `runs` in `format`.
fn export(runs: &[TracedRun], format: TraceFormat) -> String {
    let mut buf = Vec::new();
    write_runs(&mut buf, runs, format).unwrap();
    String::from_utf8(buf).unwrap()
}

/// The tentpole determinism guarantee: tracing composes with the parallel
/// runner, and the exported file is byte-identical at every worker count.
#[test]
fn exports_are_byte_identical_across_worker_counts() {
    let benches = benches(&["vecadd", "reduce", "scan"]);
    let config = trace_config("purecap").unwrap();
    let serial = trace_suite_on(&benches, config, Geometry::Small, 1, 1).unwrap();
    let parallel = trace_suite_on(&benches, config, Geometry::Small, 8, 1).unwrap();
    for format in [TraceFormat::Chrome, TraceFormat::Jsonl] {
        let a = export(&serial, format);
        let b = export(&parallel, format);
        assert!(a == b, "{format:?} export differs between --jobs 1 and --jobs 8");
        let (_, summary) = validate_auto(&a).unwrap_or_else(|e| panic!("{format:?}: {e}"));
        assert!(summary.events > 0);
    }
}

/// A multi-launch benchmark accumulates one stream with one `launch` marker
/// per kernel launch, and the accumulated stream still reconciles exactly
/// with the accumulated counters.
#[test]
fn multi_launch_stream_reconciles() {
    let benches = resolve_benches("bitonicla").unwrap();
    let runs =
        trace_suite_on(&benches, trace_config("purecap").unwrap(), Geometry::Small, 1, 1).unwrap();
    let launches = runs[0].events.iter().filter(|e| matches!(e, TraceEvent::Launch { .. })).count();
    assert!(launches > 1, "BitonicLa launches phase kernels ({launches} launches seen)");
    runs[0].stats.reconcile(&runs[0].events).unwrap();
}

/// Attaching a sink must not perturb the simulation: the traced run's
/// statistics equal an untraced run's, field for field.
#[test]
fn tracing_causes_zero_stats_drift() {
    for mode in ["baseline", "purecap", "rust"] {
        let benches = resolve_benches("histogram").unwrap();
        let config = trace_config(mode).unwrap();
        let traced = trace_suite_on(&benches, config, Geometry::Small, 1, 1).unwrap();
        let (cfg, kir_mode) = config.instantiate(Geometry::Small);
        let mut gpu = Gpu::new(cfg, kir_mode);
        let untraced = benches[0].run(&mut gpu, Scale::Test).unwrap();
        assert_eq!(untraced, traced[0].stats, "stats drifted under tracing [{mode}]");
    }
}

/// The JSON-lines example in `docs/TRACING.md` is real output: one of the
/// lines `repro trace matmul --mode purecap --format jsonl` writes.
#[test]
fn tracing_doc_example_is_written_for_matmul() {
    let doc = include_str!("../../../docs/TRACING.md");
    let (_, rest) = doc.split_once("### JSON-lines format").unwrap();
    let (_, rest) = rest.split_once("```json\n").unwrap();
    let (example, _) = rest.split_once("\n```").unwrap();
    let runs = trace_suite_on(
        &resolve_benches("matmul").unwrap(),
        trace_config("purecap").unwrap(),
        Geometry::Small,
        1,
        1,
    )
    .unwrap();
    let jsonl = export(&runs, TraceFormat::Jsonl);
    assert!(jsonl.lines().any(|l| l == example), "not written for MatMul [purecap]: {example}");
}

/// `docs/TRACING.md` lists every name a `trap` event's `cause` takes:
/// `TrapCause::name` over every variant, in declaration order.
#[test]
fn tracing_doc_lists_every_trap_cause() {
    let doc = include_str!("../../../docs/TRACING.md");
    let (_, rest) =
        doc.split_once("`trap.cause` is the stable trap-cause name (`TrapCause::name`):").unwrap();
    let (list, _) = rest.split_once('.').unwrap();
    let documented: Vec<&str> = list.split(',').map(|name| name.trim().trim_matches('`')).collect();
    let every = CapException::ALL
        .map(TrapCause::Cheri)
        .into_iter()
        .chain(
            [MemFault::Unmapped(0), MemFault::Misaligned(0), MemFault::BadWidth(0)]
                .map(TrapCause::Mem),
        )
        .chain([
            TrapCause::IllegalInstr(0),
            TrapCause::Environment,
            TrapCause::FetchOutOfRange(0),
            TrapCause::RegionBound(0),
        ]);
    let named: Vec<&str> = every
        .map(|cause| {
            // A new variant fails to compile here until it is listed above.
            match cause {
                TrapCause::Cheri(_)
                | TrapCause::Mem(
                    MemFault::Unmapped(_) | MemFault::Misaligned(_) | MemFault::BadWidth(_),
                )
                | TrapCause::IllegalInstr(_)
                | TrapCause::Environment
                | TrapCause::FetchOutOfRange(_)
                | TrapCause::RegionBound(_) => cause.name(),
            }
        })
        .collect();
    assert_eq!(documented.len(), 17);
    assert_eq!(documented, named);
}

/// The validator accepts both exports of a real run and rejects the same
/// bytes once corrupted.
#[test]
fn validator_accepts_real_traces_and_rejects_corruption() {
    let benches = resolve_benches("vecadd").unwrap();
    let runs =
        trace_suite_on(&benches, trace_config("baseline").unwrap(), Geometry::Small, 1, 1).unwrap();
    let chrome = export(&runs, TraceFormat::Chrome);
    let jsonl = export(&runs, TraceFormat::Jsonl);
    assert_eq!(validate_auto(&chrome).unwrap().0, "chrome");
    assert_eq!(validate_auto(&jsonl).unwrap().0, "jsonl");
    // An unknown event type must be caught in either format.
    assert!(validate_auto(&chrome.replace("\"issue\"", "\"bogus\"")).is_err());
    assert!(validate_auto(&jsonl.replace("\"issue\"", "\"bogus\"")).is_err());
    // Truncation must be caught in the whole-document format.
    assert!(validate_auto(&chrome[..chrome.len() - 2]).is_err());
}

/// The §4.4 compressed stack cache is off in every configuration `repro
/// trace` runs, so no suite trace contains a `mem` event in the
/// `stack_cache` space; this one does, and it must reconcile
/// (`stack_cache_hits` against the event count, DRAM transactions against
/// the `dram` events that remain).
#[test]
fn stack_cache_stream_reconciles() {
    use cheri_simt::trace::{MemSpace, VecSink};
    use cheri_simt::{CheriMode, Device, SmConfig};
    use simt_isa::asm::Assembler;
    use simt_isa::{csr, AluOp, Instr, LoadWidth, Reg, StoreWidth};
    use simt_mem::map;
    use std::any::Any;

    let arena = map::DRAM_BASE + 0x8000;
    let mut a = Assembler::new();
    a.push(Instr::Csrrs { rd: Reg::A0, csr: csr::MHARTID, rs1: Reg::ZERO });
    a.push(Instr::OpImm { op: AluOp::Sll, rd: Reg::A1, rs1: Reg::A0, imm: 2 });
    a.li(Reg::A2, arena);
    a.push(Instr::Op { op: AluOp::Add, rd: Reg::A3, rs1: Reg::A2, rs2: Reg::A1 });
    a.push(Instr::Store { w: StoreWidth::W, rs2: Reg::A0, rs1: Reg::A3, off: 0 });
    a.push(Instr::Load { w: LoadWidth::W, rd: Reg::A4, rs1: Reg::A3, off: 0 });
    a.push(Instr::Load { w: LoadWidth::W, rd: Reg::A4, rs1: Reg::A3, off: 0x400 });
    a.terminate();

    let mut cfg = SmConfig::with_geometry(2, 8, CheriMode::Off);
    cfg.stack_cache = true;
    let mut dev = Device::new(cfg, 1);
    dev.load_program(&a.assemble().unwrap());
    dev.set_stack_region(arena, 0x400);
    dev.sm_mut(0).set_sink(Box::new(VecSink::new()));
    dev.reset();
    let stats = dev.run(1_000_000).unwrap();
    let sink: Box<dyn Any> = dev.sm_mut(0).take_sink().unwrap();
    let events = sink.downcast::<VecSink>().unwrap().into_events();
    let in_cache = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Mem { space: MemSpace::StackCache, .. }))
        .count();
    assert_eq!((stats.stack_cache_hits, in_cache), (4, 4), "two warps, a store and a load each");
    assert_eq!(stats.dram.read_transactions, 2, "the loads past the arena go to DRAM");
    stats.reconcile(&events).unwrap();
}
