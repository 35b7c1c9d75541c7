//! Memory-fault attribution table: which lanes trap, and why, when one warp
//! mixes clean, misaligned, unmapped, out-of-bounds and untagged addresses.
//!
//! Every memory instruction kind (`LB`/`LH`/`LW`, `SB`/`SH`/`SW`, `CLC`,
//! `CSC`, an AMO) runs against both memories (DRAM and the scratchpad) under
//! three protection schemes (baseline, purecap, a GPUShield bounds table).
//! Each lane fetches its own pointer from a host-written table, so one issue
//! sees eight different fates:
//!
//! | lane | pointer                                                         |
//! |------|-----------------------------------------------------------------|
//! | 0    | clean (bounds-table tagged under GPUShield, DRAM rows)          |
//! | 1    | in range, odd address                                           |
//! | 2    | unmapped, aligned                                               |
//! | 3    | unmapped and misaligned                                         |
//! | 4    | one past its bounds (purecap, GPUShield); clean otherwise       |
//! | 5    | untagged capability (purecap); clean otherwise                  |
//! | 6    | clean (a tagged DRAM pointer under GPUShield, whatever the row) |
//! | 7    | two bytes before the end of the region                          |
//!
//! The trap must be warp-precise: the full faulting-lane mask, one cause per
//! faulting lane, the faulting instruction's PC, and — under `Abort` — no
//! lane's store or AMO committed. The expected masks and causes,
//! `tests/golden/mem_faults.txt`, were harvested at commit `29591a4`, while
//! loads/stores and AMOs still had a check phase each.

#[path = "../../../tests/golden/mod.rs"]
mod golden;

use cheri_cap::{CapMem, CapPipe, Perms};
use cheri_simt::shield::{BoundsTable, ID_MASK};
use cheri_simt::{CheriMode, CheriOpts, Device, RunError, SmConfig, Trap, TrapCause, TrapPolicy};
use simt_isa::asm::Assembler;
use simt_isa::{csr, scr, AluOp, AmoOp, Instr, LoadWidth, Reg, StoreWidth};
use simt_mem::{map, MainMemory, MemFault};

const LANES: u32 = 8;
const DRAM_SIZE: u32 = 1 << 20;
/// The per-lane pointer table.
const TABLE: u32 = map::DRAM_BASE + 0x1000;
/// Length of the work area at the start of each region's `work` address.
const WORK_LEN: u32 = 0x100;
/// An address no region claims.
const NOWHERE: u32 = 0x2000;
const MAX: u64 = 100_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Region {
    Dram,
    Scratch,
}

impl Region {
    /// Start of the work area.
    fn work(self) -> u32 {
        match self {
            Region::Dram => map::DRAM_BASE + 0x2000,
            Region::Scratch => map::SCRATCH_BASE + 0x100,
        }
    }

    /// One past the last mapped byte.
    fn end(self) -> u32 {
        match self {
            Region::Dram => map::DRAM_BASE + DRAM_SIZE,
            Region::Scratch => map::SCRATCH_BASE + map::SCRATCH_SIZE,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scheme {
    Baseline,
    Purecap,
    Shield,
}

const A0: Reg = Reg::A0;
const A1: Reg = Reg::A1;
const A2: Reg = Reg::A2;
const A3: Reg = Reg::A3;

/// `(name, instruction, bytes, writes memory)`; `A0` is the lane's pointer,
/// `A1` a value that is non-zero in every byte, `A2` a tagged capability.
fn kinds() -> Vec<(&'static str, Instr, u32, bool)> {
    let load = |w| Instr::Load { w, rd: A3, rs1: A0, off: 0 };
    let store = |w| Instr::Store { w, rs2: A1, rs1: A0, off: 0 };
    vec![
        ("LB", load(LoadWidth::B), 1, false),
        ("LH", load(LoadWidth::H), 2, false),
        ("LW", load(LoadWidth::W), 4, false),
        ("SB", store(StoreWidth::B), 1, true),
        ("SH", store(StoreWidth::H), 2, true),
        ("SW", store(StoreWidth::W), 4, true),
        ("CLC", Instr::Clc { cd: A3, cs1: A0, off: 0 }, 8, false),
        ("CSC", Instr::Csc { cs2: A2, cs1: A0, off: 0 }, 8, true),
        ("AMO", Instr::Amo { op: AmoOp::Add, rd: A3, rs1: A0, rs2: A1 }, 4, true),
    ]
}

/// The eight lane pointers of one row (see the module docs).
fn pointers(region: Region, scheme: Scheme) -> [CapMem; LANES as usize] {
    let work = region.work();
    let dram = Region::Dram.work();
    let plain = |addr: u32| CapMem::from_parts(0, addr, false);
    let data = CapPipe::almighty().and_perm(Perms::data());
    let anywhere = |addr: u32| data.set_addr(addr).to_mem();
    let bounded = |base: u32, len: u32, addr: u32| {
        data.set_addr(base).set_bounds(len).0.set_addr(addr).to_mem()
    };
    match scheme {
        Scheme::Purecap => [
            bounded(work, WORK_LEN, work),
            bounded(work, WORK_LEN, work + 0x11),
            anywhere(NOWHERE),
            anywhere(NOWHERE + 3),
            bounded(work + 0x40, 0x10, work + 0x50),
            CapMem::from_bits(bounded(work, WORK_LEN, work + 0x60).bits(), false),
            bounded(work, WORK_LEN, work + 0x20),
            anywhere(region.end() - 2),
        ],
        Scheme::Baseline | Scheme::Shield => {
            let shield = scheme == Scheme::Shield;
            [
                plain(if shield && region == Region::Dram {
                    BoundsTable::tag(work, 1)
                } else {
                    work
                }),
                plain(work + 0x11),
                plain(NOWHERE),
                plain(NOWHERE + 3),
                plain(if shield { BoundsTable::tag(dram + WORK_LEN, 1) } else { work + 0x50 }),
                plain(work + 0x60),
                plain(if shield { BoundsTable::tag(dram + 0x20, 1) } else { work + 0x20 }),
                plain(region.end() - 2),
            ]
        }
    }
}

/// Each lane loads its pointer into `A0`, then all of them issue `op`.
/// Returns the program and the index of `op`.
fn program(op: Instr) -> (Vec<u32>, usize) {
    let mut a = Assembler::new();
    a.push(Instr::Csrrs { rd: Reg::T0, csr: csr::MHARTID, rs1: Reg::ZERO });
    a.li(A1, 0x5EED_0181);
    a.push(Instr::Op { op: AluOp::Add, rd: A1, rs1: A1, rs2: Reg::T0 });
    a.push(Instr::OpImm { op: AluOp::Sll, rd: Reg::T0, rs1: Reg::T0, imm: 3 });
    a.push(Instr::CSpecialRw { cd: Reg::T1, cs1: Reg::ZERO, scr: scr::GLOBAL });
    a.li(Reg::T2, TABLE);
    a.push(Instr::CSetAddr { cd: Reg::T1, cs1: Reg::T1, rs2: Reg::T2 });
    a.push(Instr::CIncOffset { cd: Reg::T1, cs1: Reg::T1, rs2: Reg::T0 });
    a.push(Instr::Clc { cd: A0, cs1: Reg::T1, off: 0 });
    a.push(Instr::CSpecialRw { cd: A2, cs1: Reg::ZERO, scr: scr::ARG });
    let idx = a.len();
    a.push(op);
    a.terminate();
    (a.assemble().unwrap(), idx)
}

/// `(slot address, bits, tag)` per 8-byte slot.
type Snapshot = Vec<(u32, u64, bool)>;

/// Everything a store or AMO of this file could touch: the work area and
/// the last 16 bytes of both memories.
fn snapshot(dev: &Device) -> Snapshot {
    let slots = |r: Region| {
        (0..WORK_LEN / 8).map(move |i| r.work() + i * 8).chain([r.end() - 16, r.end() - 8])
    };
    let dram = slots(Region::Dram).map(|a| (a, dev.memory().read_cap(a).unwrap()));
    let scratch = slots(Region::Scratch).map(|a| (a, dev.sm(0).scratchpad().read_cap(a).unwrap()));
    dram.chain(scratch).map(|(a, c)| (a, c.bits(), c.tag())).collect()
}

/// Build the device of one row, run it, and return it with the run's result
/// and the memory snapshot taken just before the run.
fn run_row(
    op: Instr,
    region: Region,
    scheme: Scheme,
    policy: TrapPolicy,
) -> (Device, Result<(), RunError>, Snapshot, usize) {
    run_lanes(op, &pointers(region, scheme), scheme, policy, None)
}

/// [`run_row`] over explicit lane pointers, optionally with an 8-byte
/// unmapped window at `(memory, address)`. The window is installed after
/// the pre-run snapshot and removed after the run, so both snapshots can
/// read every slot.
fn run_lanes(
    op: Instr,
    ptrs: &[CapMem; LANES as usize],
    scheme: Scheme,
    policy: TrapPolicy,
    window: Option<(Region, u32)>,
) -> (Device, Result<(), RunError>, Snapshot, usize) {
    let mode = match scheme {
        Scheme::Purecap => CheriMode::On(CheriOpts::optimised()),
        _ => CheriMode::Off,
    };
    let mut cfg = SmConfig::with_geometry(1, LANES, mode);
    cfg.dram_size = DRAM_SIZE;
    cfg.trap_policy = policy;
    let mut dev = Device::new(cfg, 1);
    let (prog, idx) = program(op);
    dev.load_program(&prog);
    dev.set_scr(scr::GLOBAL, CapPipe::almighty().to_mem());
    dev.set_scr(scr::ARG, CapPipe::almighty().and_perm(Perms::data()).set_addr(TABLE).to_mem());
    if scheme == Scheme::Shield {
        dev.set_bounds_table(Some(BoundsTable::new(vec![(Region::Dram.work(), WORK_LEN)])));
    }
    // A recognisable, non-zero DRAM work area (the scratchpad has no host
    // write port; it starts zeroed and every stored value is non-zero).
    for i in 0..WORK_LEN / 4 {
        dev.memory_mut().write(Region::Dram.work() + i * 4, 0xA5A5_0000 | i, 4).unwrap();
    }
    for (lane, &p) in ptrs.iter().enumerate() {
        dev.memory_mut().write_cap(TABLE + 8 * lane as u32, p).unwrap();
    }
    dev.reset();
    let before = snapshot(&dev);
    fn mem(dev: &mut Device, region: Region) -> &mut MainMemory {
        match region {
            Region::Dram => dev.memory_mut(),
            Region::Scratch => dev.sm_mut(0).scratchpad_mut(),
        }
    }
    if let Some((region, addr)) = window {
        mem(&mut dev, region).inject_unmap_window(addr, 8);
    }
    let r = dev.run(MAX).map(|_| ());
    if let Some((region, _)) = window {
        mem(&mut dev, region).clear_unmapped_windows();
    }
    (dev, r, before, idx)
}

/// `lane:cause[@address]` of every faulting lane, in lane order.
fn describe(t: &Trap) -> String {
    let one = |lane: u32, cause: TrapCause| match cause {
        TrapCause::Mem(MemFault::Unmapped(a) | MemFault::Misaligned(a) | MemFault::BadWidth(a))
        | TrapCause::RegionBound(a) => format!("{lane}:{}@{a:08x}", cause.name()),
        _ => format!("{lane}:{}", cause.name()),
    };
    t.lane_causes.iter().map(|f| one(f.lane, f.cause)).collect::<Vec<_>>().join(" ")
}

/// One golden record: `label | fields…`, then the trap's per-lane causes
/// (none for a clean run).
fn record(label: &str, fields: &[String], trap: Option<&Trap>) -> String {
    let causes = trap.map(describe).filter(|c| !c.is_empty());
    let tokens: Vec<&str> = fields.iter().map(String::as_str).chain(causes.as_deref()).collect();
    format!("{label} | {}", tokens.join(" "))
}

fn rows() -> Vec<(String, Instr, Region, Scheme, bool)> {
    let mut v = Vec::new();
    for (name, op, _, writes) in kinds() {
        for region in [Region::Dram, Region::Scratch] {
            for scheme in [Scheme::Baseline, Scheme::Purecap, Scheme::Shield] {
                v.push((format!("{name} {region:?} {scheme:?}"), op, region, scheme, writes));
            }
        }
    }
    v
}

fn trap_of(label: &str, r: Result<(), RunError>) -> Trap {
    match r {
        Err(RunError::Trap(t)) => t,
        other => panic!("{label}: expected a trap, got {other:?}"),
    }
}

#[test]
fn traps_are_warp_precise_and_match_the_recorded_table() {
    let mut got = Vec::new();
    for (label, op, region, scheme, _) in rows() {
        let (dev, r, before, idx) = run_row(op, region, scheme, TrapPolicy::Abort);
        let t = trap_of(&label, r);
        got.push(record(&label, &[format!("mask={:#010b}", t.lane_mask)], Some(&t)));
        // The summary fields follow from the per-lane list.
        assert_eq!((t.warp, t.pc), (0, map::TCIM_BASE + 4 * idx as u32), "{label}: warp, pc");
        let mask = t.lane_causes.iter().fold(0u64, |m, f| m | 1 << f.lane);
        assert_eq!(mask, t.lane_mask, "{label}: one cause per faulting lane");
        assert!(t.lane_causes.windows(2).all(|p| p[0].lane < p[1].lane), "{label}: lane order");
        assert_eq!((t.lane, t.cause), (t.lane_causes[0].lane, t.lane_causes[0].cause), "{label}");
        // Lanes 0 and 6 are clean in every row, and must not have committed.
        assert_eq!(t.lane_mask & 0b0100_0001, 0, "{label}: clean lanes do not fault");
        assert_eq!(snapshot(&dev), before, "{label}: a lane committed under Abort");
    }
    golden::check("mem_faults", include_str!("../../../tests/golden/mem_faults.txt"), &got);
}

/// The one legitimate difference between kinds: under the integer schemes a
/// multi-byte load/store probes alignment before mapping, an AMO only probes
/// mapping — so an address that is both misaligned and unmapped is
/// `Misaligned` to the former and `Unmapped` to the latter. Purecap has no
/// alignment probe for data accesses: the mapping probe reports both,
/// mapping first.
#[test]
fn alignment_outranks_mapping_for_loads_and_stores_but_not_amos() {
    let misaligned = |a| TrapCause::Mem(MemFault::Misaligned(a));
    let unmapped = |a| TrapCause::Mem(MemFault::Unmapped(a));
    let nowhere = NOWHERE + 3;
    for (name, op, bytes, _) in kinds() {
        for region in [Region::Dram, Region::Scratch] {
            let straddle = region.end() - 2;
            for scheme in [Scheme::Baseline, Scheme::Shield, Scheme::Purecap] {
                let label = format!("{name} {region:?} {scheme:?}");
                let t = trap_of(&label, run_row(op, region, scheme, TrapPolicy::Abort).1);
                let cause_of =
                    |lane: u32| t.lane_causes.iter().find(|f| f.lane == lane).map(|f| f.cause);
                let probes_alignment = scheme != Scheme::Purecap && name != "AMO";
                if probes_alignment && bytes > 1 {
                    assert_eq!(cause_of(3), Some(misaligned(nowhere)), "{label}");
                } else if bytes < 8 {
                    assert_eq!(cause_of(3), Some(unmapped(nowhere)), "{label}");
                }
                if probes_alignment && bytes > 2 {
                    assert_eq!(cause_of(7), Some(misaligned(straddle)), "{label}");
                } else if bytes == 4 {
                    assert_eq!(cause_of(7), Some(unmapped(straddle)), "{label}");
                }
            }
        }
    }
}

/// Under `MaskLanes` the same rows run to completion: the faulting lanes
/// are masked off, the survivors re-issue, and exactly the clean lanes'
/// stores and AMOs land.
#[test]
fn mask_lanes_commits_exactly_the_clean_lanes() {
    for (label, op, region, scheme, writes) in rows() {
        let abort = trap_of(&label, run_row(op, region, scheme, TrapPolicy::Abort).1);
        let (dev, r, before, _) = run_row(op, region, scheme, TrapPolicy::MaskLanes);
        r.unwrap_or_else(|e| panic!("{label}: mask-lanes completes, got {e:?}"));
        let log = dev.sm(0).suppressed_traps();
        assert_eq!(log, std::slice::from_ref(&abort), "{label}: suppressed trap = Abort trap");
        // The slots the surviving lanes address (bounds-table ids stripped).
        let mut want: Vec<u32> = pointers(region, scheme)
            .iter()
            .enumerate()
            .filter(|(lane, _)| writes && abort.lane_mask >> lane & 1 == 0)
            .map(|(_, p)| match scheme {
                Scheme::Shield if p.addr() >= map::DRAM_BASE => p.addr() & !ID_MASK & !7,
                _ => p.addr() & !7,
            })
            .collect();
        want.sort_unstable();
        let mut changed: Vec<u32> =
            snapshot(&dev).iter().zip(&before).filter(|(a, b)| a != b).map(|(a, _)| a.0).collect();
        changed.sort_unstable();
        assert_eq!(changed, want, "{label}: exactly the clean lanes commit");
    }
}

// ---- Memo-miss rows ----
//
// The check phase and the lane-wise capability ops may reuse one lane's
// decoded capability for the next lane with the same metadata word. Two rows
// pin the cases where that reuse must not change an answer. They were
// harvested at commit `21555b6`, which decoded every lane from scratch, into
// `tests/golden/mem_faults_memo.txt`.
//
// * `straddle`: every lane holds the same metadata word, tag included, but
//   the addresses straddle the representable-region edge of a 256-byte
//   object, whose region is `[base - 0x80, base + 0x380)`. Lanes 0-3 sit
//   inside it; lanes 4-6 sit in the region below it and lane 7 far above.
//   Software cannot derive a tagged capability outside its region (the host
//   writes these), but each lane's bounds must still be decoded in that
//   lane's own window. There the far lanes' accesses are out of bounds,
//   although lanes 4 and 5 access bytes inside the object as the near lanes
//   see it.
//   `CIncOffset` from the object to the same addresses clears the tag on
//   exactly the far lanes.
// * `select`: the BlkStencil pointer-select shape. Lanes alternate between
//   a DRAM and a scratchpad object, plus copies that differ only in the tag
//   or only in the permissions, so the metadata word changes lane to lane.

/// Per-lane table offsets from the lane's pointer slot (`TABLE + 8 * lane`):
/// the `CIncOffset` operand, `CGetBase`/`CGetLen` of the pointer, and the
/// `CIncOffset` result.
const MEMO_OFFS: i32 = 0x100;
const MEMO_BASES: i32 = 0x200;
const MEMO_INCS: i32 = 0x300;
/// The objects of the memo rows.
const MEMO_DRAM: u32 = map::DRAM_BASE + 0x2800;
const MEMO_SCRATCH: u32 = map::SCRATCH_BASE + 0x200;

struct MemoRow {
    name: &'static str,
    /// Each lane's pointer (`A0`).
    ptrs: [CapMem; LANES as usize],
    /// Each lane's `CIncOffset` operand.
    offs: [u32; LANES as usize],
    /// `CIncOffset` source: this uniform capability (via `GLOBAL`), or the
    /// lane's own pointer when `None`.
    uniform_src: Option<CapPipe>,
    /// Offset of the final `LW` through the pointer.
    load_off: i32,
}

fn memo_rows() -> Vec<MemoRow> {
    let data = CapPipe::almighty().and_perm(Perms::data());
    let obj = data.set_addr(MEMO_DRAM).set_bounds(0x100).0;
    let addrs = [-0x80, -0x7C, -0x40, -4, -0x84, -0x100, -0x200, 0x4_0000]
        .map(|d: i32| MEMO_DRAM.wrapping_add(d as u32));
    let meta = obj.to_mem().meta();
    let straddle = MemoRow {
        name: "straddle",
        ptrs: addrs.map(|a| CapMem::from_parts(meta, a, true)),
        offs: addrs.map(|a| a.wrapping_sub(MEMO_DRAM)),
        uniform_src: Some(obj),
        load_off: 0x100,
    };
    let p = data.set_addr(MEMO_DRAM).set_bounds(0x40).0;
    let q = data.set_addr(MEMO_SCRATCH).set_bounds(0x40).0;
    let no_load = Perms::from_bits(Perms::data().bits() & !Perms::LOAD.bits());
    let select = MemoRow {
        name: "select",
        // The tag-only and permissions-only variants follow their twins,
        // so a memo that ignored either would reuse the twin's decode.
        ptrs: [
            p.to_mem(),
            p.set_addr(MEMO_DRAM + 8).clear_tag().to_mem(),
            q.to_mem(),
            q.and_perm(no_load).set_addr(MEMO_SCRATCH + 8).to_mem(),
            p.set_addr(MEMO_DRAM + 0x3C).to_mem(),
            q.set_addr(MEMO_SCRATCH + 0x40).to_mem(),
            p.set_addr(MEMO_DRAM - 4).to_mem(),
            q.set_addr(MEMO_SCRATCH + 0x20).to_mem(),
        ],
        offs: [0x10; LANES as usize],
        uniform_src: None,
        load_off: 0,
    };
    vec![straddle, select]
}

/// Each lane loads its pointer and operand from the table, records
/// `CGetBase`/`CGetLen` of the pointer and a `CIncOffset`, then loads
/// through the pointer. Returns the program and the index of that load.
fn memo_program(row: &MemoRow) -> (Vec<u32>, usize) {
    let (t0, t1) = (Reg::T0, Reg::T1);
    let mut a = Assembler::new();
    a.push(Instr::Csrrs { rd: t0, csr: csr::MHARTID, rs1: Reg::ZERO });
    a.push(Instr::OpImm { op: AluOp::Sll, rd: t0, rs1: t0, imm: 3 });
    a.push(Instr::CSpecialRw { cd: t1, cs1: Reg::ZERO, scr: scr::ARG });
    a.push(Instr::CIncOffset { cd: t1, cs1: t1, rs2: t0 });
    a.push(Instr::Clc { cd: A0, cs1: t1, off: 0 });
    a.push(Instr::Load { w: LoadWidth::W, rd: A1, rs1: t1, off: MEMO_OFFS });
    a.push(Instr::CSpecialRw { cd: A2, cs1: Reg::ZERO, scr: scr::GLOBAL });
    a.push(Instr::CapUnary { op: simt_isa::UnaryCapOp::GetBase, rd: A3, cs1: A0 });
    a.push(Instr::Store { w: StoreWidth::W, rs2: A3, rs1: t1, off: MEMO_BASES });
    a.push(Instr::CapUnary { op: simt_isa::UnaryCapOp::GetLen, rd: A3, cs1: A0 });
    a.push(Instr::Store { w: StoreWidth::W, rs2: A3, rs1: t1, off: MEMO_BASES + 4 });
    let src = if row.uniform_src.is_some() { A2 } else { A0 };
    a.push(Instr::CIncOffset { cd: A3, cs1: src, rs2: A1 });
    a.push(Instr::Csc { cs2: A3, cs1: t1, off: MEMO_INCS });
    let idx = a.len();
    a.push(Instr::Load { w: LoadWidth::W, rd: A3, rs1: A0, off: row.load_off });
    a.terminate();
    (a.assemble().unwrap(), idx)
}

/// What one memo row produced: per-lane `(base, length)` of the pointer,
/// the `CIncOffset` results, and the trap of the final load.
#[derive(Debug, PartialEq)]
struct MemoOutcome {
    bounds: Vec<(u32, u32)>,
    incs: Vec<CapMem>,
    trap: Trap,
}

fn run_memo_row(row: &MemoRow, scalarise: bool) -> (MemoOutcome, usize) {
    let mut cfg = SmConfig::with_geometry(1, LANES, CheriMode::On(CheriOpts::optimised()));
    cfg.dram_size = DRAM_SIZE;
    let mut dev = Device::new(cfg, 1);
    let (prog, idx) = memo_program(row);
    dev.load_program(&prog);
    dev.set_scr(scr::ARG, CapPipe::almighty().and_perm(Perms::data()).set_addr(TABLE).to_mem());
    dev.set_scr(scr::GLOBAL, row.uniform_src.unwrap_or_else(CapPipe::null).to_mem());
    for lane in 0..LANES {
        let slot = TABLE + 8 * lane;
        dev.memory_mut().write_cap(slot, row.ptrs[lane as usize]).unwrap();
        dev.memory_mut().write(slot + MEMO_OFFS as u32, row.offs[lane as usize], 4).unwrap();
    }
    dev.sm_mut(0).set_scalarise(scalarise);
    dev.reset();
    let trap = trap_of(row.name, dev.run(MAX).map(|_| ()));
    let mem = dev.memory();
    let slot = |lane: u32, off: i32| TABLE + 8 * lane + off as u32;
    let word = |addr| mem.read(addr, 4).unwrap();
    let bounds =
        (0..LANES).map(|l| (word(slot(l, MEMO_BASES)), word(slot(l, MEMO_BASES) + 4))).collect();
    let incs = (0..LANES).map(|l| mem.read_cap(slot(l, MEMO_INCS)).unwrap()).collect();
    (MemoOutcome { bounds, incs, trap }, idx)
}

/// Bitmask of the lanes whose `CIncOffset` result kept its tag.
fn tag_mask(incs: &[CapMem]) -> u64 {
    incs.iter().enumerate().fold(0, |m, (lane, c)| m | u64::from(c.tag()) << lane)
}

#[test]
fn memo_rows_match_the_recorded_table() {
    let mut got = Vec::new();
    for row in &memo_rows() {
        let (o, idx) = run_memo_row(row, true);
        let (slow, _) = run_memo_row(row, false);
        assert_eq!(o, slow, "{}: scalarised and lane-wise runs disagree", row.name);
        let bases: Vec<String> = o.bounds.iter().map(|(b, _)| format!("{b:#010x}")).collect();
        let lens: Vec<String> = o.bounds.iter().map(|(_, l)| format!("{l:#x}")).collect();
        let fields = [
            format!("bases={}", bases.join(",")),
            format!("lens={}", lens.join(",")),
            format!("tags={:#010b}", tag_mask(&o.incs)),
            format!("mask={:#010b}", o.trap.lane_mask),
        ];
        got.push(record(row.name, &fields, Some(&o.trap)));
        assert_eq!(o.trap.pc, map::TCIM_BASE + 4 * idx as u32, "{}: pc", row.name);
        // `CIncOffset` moves every lane to its operand, tagged or not.
        for (lane, c) in o.incs.iter().enumerate() {
            let src = row.uniform_src.map_or(row.ptrs[lane], CapPipe::to_mem);
            assert_eq!(
                c.addr(),
                src.addr().wrapping_add(row.offs[lane]),
                "{} lane {lane}",
                row.name
            );
            assert_eq!(c.meta(), src.meta(), "{} lane {lane}: metadata", row.name);
        }
    }
    golden::check(
        "mem_faults_memo",
        include_str!("../../../tests/golden/mem_faults_memo.txt"),
        &got,
    );
}

/// The straddle row's claim in words: the far lanes, and only they, fault on
/// bounds and lose the tag under `CIncOffset`.
#[test]
fn far_lanes_of_a_uniform_capability_fault_on_bounds_and_detag() {
    let row = memo_rows().into_iter().find(|r| r.name == "straddle").expect("row exists");
    let (o, _) = run_memo_row(&row, true);
    assert_eq!(o.trap.lane_mask, 0b1111_0000);
    let bounds = TrapCause::Cheri(cheri_cap::CapException::BoundsViolation);
    assert!(o.trap.lane_causes.iter().all(|f| f.cause == bounds), "{:?}", o.trap);
    assert_eq!(tag_mask(&o.incs), 0b0000_1111);
}

// ---- Middle-of-span rows ----
//
// A warp-wide check may vouch for every lane by testing the two ends of the
// warp's address span, because the bounds, mapping and routing predicates
// are intervals. These rows pin the cases where that reasoning must fall
// back to the lanes: lane `i` points at `work + 8 i`, so lanes 0 and 7 are
// the ends of the span and both are clean, while lane 3, in the middle, is
// not:
//
// * `window`: an injected 8-byte unmapped window covers lane 3's slot only;
// * `misaligned`: lane 3's pointer is off its natural alignment (`LH`,
//   `LW`, `CLC` and `CSC`);
// * `tag`: lane 3 holds its neighbours' capability with the tag cleared,
//   which faults under purecap only (mask 0 is a clean run).
//
// They were harvested at commit `b43c58e`, which checked every lane, into
// `tests/golden/mem_faults_span.txt`.

/// The faulty lane of every middle-of-span row.
const MIDDLE: u32 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flaw {
    Window,
    Misaligned,
    Tag,
}

/// Lane `i`'s slot in a middle-of-span row, before any id tagging.
fn span_slot(region: Region, lane: u32) -> u32 {
    region.work() + 8 * lane
}

/// The lane pointers of one middle-of-span row.
fn span_pointers(
    region: Region,
    scheme: Scheme,
    flaw: Flaw,
    bytes: u32,
) -> [CapMem; LANES as usize] {
    let work = region.work();
    let data = CapPipe::almighty().and_perm(Perms::data());
    core::array::from_fn(|lane| {
        let lane = lane as u32;
        let mut addr = span_slot(region, lane);
        if flaw == Flaw::Misaligned && lane == MIDDLE {
            addr += bytes / 2;
        }
        let tagged = !(flaw == Flaw::Tag && lane == MIDDLE);
        match scheme {
            Scheme::Purecap => {
                let c = data.set_addr(work).set_bounds(WORK_LEN).0.set_addr(addr).to_mem();
                CapMem::from_bits(c.bits(), tagged)
            }
            Scheme::Shield if region == Region::Dram => {
                CapMem::from_parts(0, BoundsTable::tag(addr, 1), false)
            }
            _ => CapMem::from_parts(0, addr, false),
        }
    })
}

fn span_rows() -> Vec<(String, Instr, Region, Scheme, Flaw, u32, bool)> {
    let mut v = Vec::new();
    for flaw in [Flaw::Window, Flaw::Misaligned, Flaw::Tag] {
        for (name, op, bytes, writes) in kinds() {
            if flaw == Flaw::Misaligned && !matches!(name, "LH" | "LW" | "CLC" | "CSC") {
                continue;
            }
            for region in [Region::Dram, Region::Scratch] {
                for scheme in [Scheme::Baseline, Scheme::Purecap, Scheme::Shield] {
                    let label = format!("{name} {region:?} {scheme:?} {flaw:?}");
                    v.push((label, op, region, scheme, flaw, bytes, writes));
                }
            }
        }
    }
    v
}

fn run_span_row(
    op: Instr,
    region: Region,
    scheme: Scheme,
    flaw: Flaw,
    bytes: u32,
    policy: TrapPolicy,
) -> (Device, Result<(), RunError>, Snapshot) {
    let ptrs = span_pointers(region, scheme, flaw, bytes);
    let window = (flaw == Flaw::Window).then(|| (region, span_slot(region, MIDDLE)));
    let (dev, r, before, _) = run_lanes(op, &ptrs, scheme, policy, window);
    (dev, r, before)
}

/// The trap of a run, `None` if it completed.
fn trap_or_clean(label: &str, r: Result<(), RunError>) -> Option<Trap> {
    match r {
        Ok(()) => None,
        Err(RunError::Trap(t)) => Some(t),
        Err(e) => panic!("{label}: expected a trap or a clean run, got {e:?}"),
    }
}

/// Only the middle lane may fault, with exactly the recorded cause; under
/// `Abort` a trapped warp commits nothing, and under `MaskLanes` exactly the
/// clean lanes' stores and AMOs land.
#[test]
fn a_faulty_middle_lane_is_caught_between_clean_span_ends() {
    let mut got = Vec::new();
    for (label, op, region, scheme, flaw, bytes, writes) in span_rows() {
        let (dev, r, before) = run_span_row(op, region, scheme, flaw, bytes, TrapPolicy::Abort);
        let abort = trap_or_clean(&label, r);
        let mask = abort.as_ref().map_or(0, |t| t.lane_mask);
        got.push(record(&label, &[format!("mask={mask:#010b}")], abort.as_ref()));
        assert_eq!(mask & !(1 << MIDDLE), 0, "{label}: only the middle lane faults");
        if abort.is_some() {
            assert_eq!(snapshot(&dev), before, "{label}: a lane committed under Abort");
        }
        let (dev, r, before) = run_span_row(op, region, scheme, flaw, bytes, TrapPolicy::MaskLanes);
        r.unwrap_or_else(|e| panic!("{label}: mask-lanes completes, got {e:?}"));
        let log = dev.sm(0).suppressed_traps();
        assert_eq!(log, abort.as_slice(), "{label}: suppressed trap = Abort trap");
        let mut want: Vec<u32> = (0..LANES)
            .filter(|lane| writes && mask >> lane & 1 == 0)
            .map(|lane| span_slot(region, lane))
            .collect();
        want.sort_unstable();
        let mut changed: Vec<u32> =
            snapshot(&dev).iter().zip(&before).filter(|(a, b)| a != b).map(|(a, _)| a.0).collect();
        changed.sort_unstable();
        assert_eq!(changed, want, "{label}: exactly the clean lanes commit");
    }
    golden::check(
        "mem_faults_span",
        include_str!("../../../tests/golden/mem_faults_span.txt"),
        &got,
    );
}
