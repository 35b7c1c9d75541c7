//! `repro faults` — the CHERI fault-injection coverage experiment.
//!
//! Two sections feed one coverage table:
//!
//! * **Matrix** (realism): every requested benchmark runs under every
//!   [`InjectionKind`] × [`TrapPolicy`] cell on the quick geometry, with a
//!   seed-driven [`FaultInjector`] sabotaging device memory from the GPU's
//!   pre-launch hook. `Abort` cells demonstrate warp-precise aborts;
//!   `MaskLanes` cells demonstrate degraded completion with suppressed
//!   faults recorded in the fault log.
//! * **Directed probes** (completeness): one hand-assembled single-warp
//!   program per trap cause, each driven by [`FaultInjector::sabotage`] on
//!   a victim capability, so all ten [`CapException`] variants and every
//!   [`MemFault`] variant demonstrably fire no matter which causes the
//!   randomised matrix happened to reach.
//!
//! The experiment passes when the coverage table shows every cause fired
//! at least once; `repro faults` exits non-zero otherwise.

use crate::runner::run_indexed;
use crate::{Config, Geometry};
use cheri_cap::{CapException, CapPipe, Perms};
use cheri_simt::{CheriMode, CheriOpts, Device, RunError, SmConfig, Trap, TrapCause, TrapPolicy};
use nocl::{Gpu, LaunchError};
use nocl_suite::{catalog, BenchError, NoclBench, Scale};
use simt_isa::asm::Assembler;
use simt_isa::{scr, Instr, LoadWidth, Reg, StoreWidth};
use simt_mem::{map, FaultInjector, InjectionKind, MainMemory, MemFault};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Cycle budget for the directed probe programs (they trap or finish in
/// far fewer).
const PROBE_MAX_CYCLES: u64 = 1_000_000;

/// Where the directed probes park their victim capability.
const VICTIM: u32 = map::DRAM_BASE + 0x400;

/// Capabilities/words sabotaged per matrix launch.
const MATRIX_INTENSITY: usize = 4;

/// How one matrix cell ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// The kernel aborted on a warp-precise trap (`Abort` policy).
    Trapped,
    /// The benchmark ran to completion but its self-check failed — the
    /// expected shape of a `MaskLanes` run whose lanes were disabled.
    Corrupted,
    /// The benchmark completed and verified; the injection went unobserved
    /// (e.g. a window nothing dereferenced, or forged tags never loaded).
    Clean,
    /// The kernel timed out or deadlocked (e.g. a fully-masked warp never
    /// reached a barrier).
    Hung,
    /// The cell failed outside the fault model (compile/config/panic).
    Error(String),
}

impl CellOutcome {
    fn label(&self) -> &str {
        match self {
            CellOutcome::Trapped => "trapped",
            CellOutcome::Corrupted => "corrupted",
            CellOutcome::Clean => "clean",
            CellOutcome::Hung => "hung",
            CellOutcome::Error(_) => "error",
        }
    }
}

/// One benchmark × scheme × policy cell of the injection matrix.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Benchmark name (Table-1 spelling).
    pub bench: &'static str,
    /// Injection scheme applied at every launch of the cell.
    pub kind: InjectionKind,
    /// Trap policy the SM ran under.
    pub policy: TrapPolicy,
    /// How the run ended.
    pub outcome: CellOutcome,
    /// Deduplicated trap-cause names observed in the fault log.
    pub causes: Vec<&'static str>,
    /// Faults recorded in the log (suppressed ones under `MaskLanes`,
    /// plus the aborting trap under `Abort`).
    pub faults_logged: u64,
}

/// One directed probe: a program engineered to fire exactly one cause.
#[derive(Debug, Clone)]
pub struct ProbeResult {
    /// The cause this probe is designed to fire ([`TrapCause::name`]).
    pub cause: &'static str,
    /// Whether it fired with the expected cause.
    pub fired: bool,
    /// Trap attribution (warp/pc/lane-mask) or a failure note.
    pub detail: String,
}

/// Everything `repro faults` measured.
#[derive(Debug, Clone)]
pub struct FaultsReport {
    /// The injection-matrix cells, in (benchmark, scheme, policy) order.
    pub cells: Vec<MatrixCell>,
    /// The directed per-cause probes, in required-cause order.
    pub probes: Vec<ProbeResult>,
    /// Campaign seed (cell seeds derive from it).
    pub seed: u64,
}

/// Every trap cause the experiment must demonstrate: the ten CHERI
/// capability exceptions plus the three memory-fault variants.
fn required_causes() -> Vec<&'static str> {
    let mut v: Vec<&'static str> =
        CapException::ALL.iter().map(|&e| TrapCause::Cheri(e).name()).collect();
    v.push(TrapCause::Mem(MemFault::Unmapped(0)).name());
    v.push(TrapCause::Mem(MemFault::Misaligned(0)).name());
    v.push(TrapCause::Mem(MemFault::BadWidth(0)).name());
    v
}

impl FaultsReport {
    /// Coverage per cause: how often it fired and where it was first seen.
    pub(crate) fn coverage(&self) -> BTreeMap<&'static str, (u64, String)> {
        let mut cov: BTreeMap<&'static str, (u64, String)> = BTreeMap::new();
        for c in &self.cells {
            for &cause in &c.causes {
                let src = format!("matrix {}/{}/{}", c.bench, c.kind.name(), policy_name(c.policy));
                let e = cov.entry(cause).or_insert((0, src));
                e.0 += 1;
            }
        }
        for p in self.probes.iter().filter(|p| p.fired) {
            let e = cov.entry(p.cause).or_insert((0, format!("probe {}", p.cause)));
            e.0 += 1;
        }
        cov
    }

    /// Required causes that never fired (empty when coverage is complete).
    pub fn missing(&self) -> Vec<&'static str> {
        let cov = self.coverage();
        required_causes().into_iter().filter(|c| !cov.contains_key(c)).collect()
    }

    /// `true` when every required cause fired at least once.
    pub fn covered(&self) -> bool {
        self.missing().is_empty()
    }
}

fn policy_name(p: TrapPolicy) -> &'static str {
    match p {
        TrapPolicy::Abort => "abort",
        TrapPolicy::MaskLanes => "mask-lanes",
    }
}

/// The benchmark subset of `repro faults --quick` (CI smoke): enough
/// variety to exercise loads, stores, AMOs and multi-launch phases.
pub fn quick_fault_benches() -> Vec<&'static dyn NoclBench> {
    const QUICK: [&str; 4] = ["VecAdd", "Reduce", "Histogram", "Scan"];
    catalog().iter().copied().filter(|b| QUICK.contains(&b.name())).collect()
}

/// Run the full experiment: the injection matrix over `benches` fanned
/// across `jobs` workers, then the directed probes. Deterministic for a
/// given (`benches`, `seed`) — worker count does not affect results.
pub fn faults_experiment(
    benches: &[&'static dyn NoclBench],
    jobs: usize,
    seed: u64,
) -> FaultsReport {
    let mut specs: Vec<(&'static dyn NoclBench, InjectionKind, TrapPolicy)> = Vec::new();
    for &b in benches {
        for kind in InjectionKind::ALL {
            for policy in [TrapPolicy::Abort, TrapPolicy::MaskLanes] {
                specs.push((b, kind, policy));
            }
        }
    }
    let cells = run_indexed(jobs, specs.len(), |i| {
        let (bench, kind, policy) = specs[i];
        // Per-cell seed: decorrelate cells while keeping the campaign a
        // pure function of the top-level seed.
        run_cell(bench, kind, policy, seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    })
    .into_iter()
    .zip(&specs)
    .map(|(r, &(bench, kind, policy))| {
        r.unwrap_or_else(|panic_msg| MatrixCell {
            bench: bench.name(),
            kind,
            policy,
            outcome: CellOutcome::Error(panic_msg),
            causes: Vec::new(),
            faults_logged: 0,
        })
    })
    .collect();
    FaultsReport { cells, probes: run_probes(seed), seed }
}

/// One matrix cell: a fresh CHERI (Optimised) GPU whose pre-launch hook
/// applies `kind` to device memory, running `bench` end to end.
fn run_cell(
    bench: &'static dyn NoclBench,
    kind: InjectionKind,
    policy: TrapPolicy,
    seed: u64,
) -> MatrixCell {
    let (mut cfg, mode) = Config::CheriOpt.instantiate(Geometry::Small);
    cfg.trap_policy = policy;
    let mut gpu = Gpu::new(cfg, mode);
    let mut injector = FaultInjector::new(seed);
    gpu.set_pre_launch_hook(Box::new(move |dev| {
        injector.apply(dev.memory_mut(), kind, MATRIX_INTENSITY);
    }));
    let result = bench.run(&mut gpu, Scale::Test);
    let log = gpu.take_fault_log();

    let mut causes: Vec<&'static str> = log.iter().flat_map(trap_causes).collect();
    causes.sort_unstable();
    causes.dedup();

    let outcome = match result {
        Ok(_) => CellOutcome::Clean,
        Err(BenchError::Mismatch(_)) => CellOutcome::Corrupted,
        Err(BenchError::Launch(LaunchError::Run(RunError::Trap(_)))) => CellOutcome::Trapped,
        Err(BenchError::Launch(LaunchError::Run(
            RunError::Timeout { .. } | RunError::Deadlock { .. },
        ))) => CellOutcome::Hung,
        Err(e) => CellOutcome::Error(e.to_string()),
    };
    MatrixCell {
        bench: bench.name(),
        kind,
        policy,
        outcome,
        causes,
        faults_logged: log.len() as u64,
    }
}

/// Every cause a trap names: the headline cause plus each lane's own.
fn trap_causes(t: &Trap) -> Vec<&'static str> {
    let mut v = vec![t.cause.name()];
    v.extend(t.lane_causes.iter().map(|lf| lf.cause.name()));
    v
}

/// All directed probes, in [`required_causes`] order.
fn run_probes(seed: u64) -> Vec<ProbeResult> {
    let mut out: Vec<ProbeResult> =
        CapException::ALL.iter().map(|&e| cheri_probe(e, seed)).collect();
    out.push(mem_probe_unmapped());
    out.push(mem_probe_misaligned());
    out.push(mem_probe_bad_width());
    out
}

/// A 1-warp, 1-SM CHERI device with an almighty data capability in `GLOBAL` and a
/// full-perms victim capability resident at `VICTIM`; `setup` sabotages
/// memory after reset, exactly like the GPU pre-launch hook.
fn probe_sm(prog: Vec<u32>, setup: impl FnOnce(&mut MainMemory)) -> Result<(), RunError> {
    let cfg = SmConfig::with_geometry(1, 4, CheriMode::On(CheriOpts::optimised()));
    let mut dev = Device::new(cfg, 1);
    dev.load_program(&prog);
    dev.set_scr(scr::GLOBAL, CapPipe::almighty().and_perm(Perms::data()).to_mem());
    let victim = CapPipe::almighty().set_addr(VICTIM).set_bounds(256).0;
    dev.memory_mut().write_cap(VICTIM, victim.to_mem()).expect("victim slot is mapped");
    dev.reset();
    setup(dev.memory_mut());
    dev.run(PROBE_MAX_CYCLES).map(|_| ())
}

/// Program prologue: load the (sabotaged) victim capability into `A0`
/// through the `GLOBAL` capability.
fn load_victim(a: &mut Assembler) {
    a.push(Instr::CSpecialRw { cd: Reg::T0, cs1: Reg::ZERO, scr: scr::GLOBAL });
    a.li(Reg::T1, VICTIM);
    a.push(Instr::CSetAddr { cd: Reg::T0, cs1: Reg::T0, rs2: Reg::T1 });
    a.push(Instr::Clc { cd: Reg::A0, cs1: Reg::T0, off: 0 });
}

/// One CHERI probe: sabotage the victim for `target`, then execute the
/// matching use of it and expect precisely that trap.
fn cheri_probe(target: CapException, seed: u64) -> ProbeResult {
    let mut a = Assembler::new();
    load_victim(&mut a);
    match target {
        CapException::PermitStoreViolation => {
            a.push(Instr::Store { w: StoreWidth::W, rs2: Reg::ZERO, rs1: Reg::A0, off: 0 });
        }
        CapException::PermitStoreCapViolation => {
            a.push(Instr::Csc { cs2: Reg::A0, cs1: Reg::A0, off: 0 });
        }
        CapException::PermitExecuteViolation => {
            // `Jalr` through a capability is CJALR: fetch-checks the target.
            a.push(Instr::Jalr { rd: Reg::ZERO, rs1: Reg::A0, off: 0 });
        }
        CapException::PermitLoadCapViolation | CapException::AlignmentViolation => {
            a.push(Instr::Clc { cd: Reg::A1, cs1: Reg::A0, off: 0 });
        }
        CapException::InexactBounds => {
            a.li(Reg::A2, 1 << 20); // 1 MiB from a (sabotaged) odd base
            a.push(Instr::CSetBoundsExact { cd: Reg::A1, cs1: Reg::A0, rs2: Reg::A2 });
        }
        // Tag/seal/bounds/permit-load all fire on a plain word load.
        _ => {
            a.push(Instr::Load { w: LoadWidth::W, rd: Reg::A1, rs1: Reg::A0, off: 0 });
        }
    }
    a.terminate();
    let expect = TrapCause::Cheri(target).name();
    let result = probe_sm(a.assemble().expect("probe assembles"), |m| {
        FaultInjector::new(seed).sabotage(m, VICTIM, target);
    });
    grade_probe(expect, result)
}

/// `mem:unmapped`: dereference an injector-unmapped window through an
/// otherwise-valid capability.
fn mem_probe_unmapped() -> ProbeResult {
    let hole = map::DRAM_BASE + 0x800;
    let mut a = Assembler::new();
    a.push(Instr::CSpecialRw { cd: Reg::T0, cs1: Reg::ZERO, scr: scr::GLOBAL });
    a.li(Reg::T1, hole);
    a.push(Instr::CSetAddr { cd: Reg::T0, cs1: Reg::T0, rs2: Reg::T1 });
    a.push(Instr::Load { w: LoadWidth::W, rd: Reg::A1, rs1: Reg::T0, off: 0 });
    a.terminate();
    let expect = TrapCause::Mem(MemFault::Unmapped(0)).name();
    grade_probe(
        expect,
        probe_sm(a.assemble().expect("probe assembles"), |m| m.inject_unmap_window(hole, 64)),
    )
}

/// `mem:misaligned`: a word load at a `+2` address — the capability check
/// passes (only capability-width accesses carry a CHERI alignment
/// requirement), so the fault comes from the memory map.
fn mem_probe_misaligned() -> ProbeResult {
    let mut a = Assembler::new();
    a.push(Instr::CSpecialRw { cd: Reg::T0, cs1: Reg::ZERO, scr: scr::GLOBAL });
    a.li(Reg::T1, VICTIM + 2);
    a.push(Instr::CSetAddr { cd: Reg::T0, cs1: Reg::T0, rs2: Reg::T1 });
    a.push(Instr::Load { w: LoadWidth::W, rd: Reg::A1, rs1: Reg::T0, off: 0 });
    a.terminate();
    let expect = TrapCause::Mem(MemFault::Misaligned(0)).name();
    grade_probe(expect, probe_sm(a.assemble().expect("probe assembles"), |_| {}))
}

/// `mem:bad_width`: the pipeline's width enum cannot encode an invalid
/// width, so this variant is demonstrated at the memory API directly.
fn mem_probe_bad_width() -> ProbeResult {
    let expect = TrapCause::Mem(MemFault::BadWidth(0)).name();
    let mem = MainMemory::new(map::DRAM_BASE, 4096);
    let fired = mem.read(map::DRAM_BASE, 3) == Err(MemFault::BadWidth(3));
    ProbeResult {
        cause: expect,
        fired,
        detail: "memory-API probe: 3-byte read (pipeline widths cannot encode it)".to_string(),
    }
}

/// Score a probe run: it must trap with exactly the cause it targets.
fn grade_probe(expect: &'static str, result: Result<(), RunError>) -> ProbeResult {
    match result {
        Err(RunError::Trap(t)) if t.cause.name() == expect => ProbeResult {
            cause: expect,
            fired: true,
            detail: format!(
                "warp {} pc {:#06x} lanes {:#x} ({} faulting lane(s))",
                t.warp,
                t.pc,
                t.lane_mask,
                t.lane_mask.count_ones()
            ),
        },
        Err(RunError::Trap(t)) => ProbeResult {
            cause: expect,
            fired: false,
            detail: format!("trapped with {} instead", t.cause.name()),
        },
        Err(e) => ProbeResult { cause: expect, fired: false, detail: format!("run failed: {e}") },
        Ok(()) => ProbeResult {
            cause: expect,
            fired: false,
            detail: "completed without trapping".to_string(),
        },
    }
}

/// Human-readable report: the matrix, the probes, and the coverage table.
pub fn faults_summary(r: &FaultsReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "fault-injection matrix — {} cell(s), seed {:#x}, CHERI (Optimised), quick geometry:",
        r.cells.len(),
        r.seed
    );
    let _ = writeln!(
        s,
        "  {:<12} {:<13} {:<11} {:<10} {:>6}  causes",
        "benchmark", "scheme", "policy", "outcome", "faults"
    );
    for c in &r.cells {
        let causes = if c.causes.is_empty() { "-".to_string() } else { c.causes.join(",") };
        let _ = writeln!(
            s,
            "  {:<12} {:<13} {:<11} {:<10} {:>6}  {}",
            c.bench,
            c.kind.name(),
            policy_name(c.policy),
            c.outcome.label(),
            c.faults_logged,
            causes
        );
    }
    let mask_cells: Vec<_> = r.cells.iter().filter(|c| c.policy == TrapPolicy::MaskLanes).collect();
    let completed = mask_cells
        .iter()
        .filter(|c| matches!(c.outcome, CellOutcome::Clean | CellOutcome::Corrupted))
        .count();
    let suppressed: u64 = mask_cells.iter().map(|c| c.faults_logged).sum();
    let _ = writeln!(
        s,
        "  mask-lanes: {completed}/{} cell(s) ran to completion, {suppressed} suppressed fault(s) recorded",
        mask_cells.len()
    );

    let _ = writeln!(s, "directed probes:");
    for p in &r.probes {
        let _ = writeln!(
            s,
            "  {:<24} {:<6} {}",
            p.cause,
            if p.fired { "fired" } else { "MISS" },
            p.detail
        );
    }

    let cov = r.coverage();
    let required = required_causes();
    let fired = required.iter().filter(|c| cov.contains_key(*c)).count();
    let _ = writeln!(s, "coverage ({fired}/{} causes):", required.len());
    let _ = writeln!(s, "  {:<24} {:>5}  first observed", "cause", "count");
    for cause in &required {
        match cov.get(cause) {
            Some((n, src)) => {
                let _ = writeln!(s, "  {cause:<24} {n:>5}  {src}");
            }
            None => {
                let _ = writeln!(s, "  {cause:<24} {:>5}  NEVER FIRED", 0);
            }
        }
    }
    let _ = if r.covered() {
        writeln!(s, "coverage complete: every CHERI and memory trap cause fired")
    } else {
        writeln!(s, "coverage INCOMPLETE: missing {}", r.missing().join(", "))
    };
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_probes_fire_every_cause() {
        let probes = run_probes(0xC0FFEE);
        for p in &probes {
            assert!(p.fired, "{} did not fire: {}", p.cause, p.detail);
        }
        let r = FaultsReport { cells: Vec::new(), probes, seed: 0xC0FFEE };
        assert!(r.covered(), "missing causes: {:?}", r.missing());
    }

    #[test]
    fn abort_cell_traps_on_cleared_tags() {
        let bench = catalog()
            .iter()
            .copied()
            .find(|b| b.name() == "VecAdd")
            .expect("VecAdd is in the catalog");
        let cell = run_cell(bench, InjectionKind::ClearTag, TrapPolicy::Abort, 11);
        assert_eq!(cell.outcome, CellOutcome::Trapped, "causes: {:?}", cell.causes);
        assert!(cell.causes.contains(&"cheri:tag"), "causes: {:?}", cell.causes);
    }

    #[test]
    fn mask_lanes_cell_completes_and_logs_suppressed_faults() {
        let bench = catalog()
            .iter()
            .copied()
            .find(|b| b.name() == "VecAdd")
            .expect("VecAdd is in the catalog");
        let cell = run_cell(bench, InjectionKind::ClearTag, TrapPolicy::MaskLanes, 11);
        assert!(
            matches!(cell.outcome, CellOutcome::Clean | CellOutcome::Corrupted),
            "mask-lanes must not abort: {:?}",
            cell.outcome
        );
        assert!(cell.faults_logged > 0, "suppressed faults are recorded");
        assert!(cell.causes.contains(&"cheri:tag"), "causes: {:?}", cell.causes);
    }
}
