//! Property tests for the memory subsystem: functional state against a
//! plain reference model, plus structural invariants of the coalescer and
//! tag machinery. Driven by a seeded deterministic PRNG (the workspace
//! builds offline, so no proptest).

use cheri_cap::{CapMem, CapPipe};
use sim_prng::Prng;
use simt_mem::{
    coalesce_blocks, CoalescingUnit, LaneRequest, MainMemory, MemFault, Scratchpad, TagCacheConfig,
    TagController,
};
use std::collections::HashMap;

const BASE: u32 = 0x8000_0000;
const SIZE: u32 = 4096;
const RUNS: usize = 256;

#[derive(Debug, Clone)]
enum MemOp {
    Write { addr: u32, value: u32, width: u32 },
    WriteCap { addr: u32, bits: u64, tag: bool },
    Read { addr: u32, width: u32 },
    ReadCap { addr: u32 },
}

fn mem_op(r: &mut Prng) -> MemOp {
    match r.range_u32(0, 4) {
        0 => {
            let width = *r.choose(&[1u32, 2, 4]);
            let off = r.range_u32(0, SIZE);
            MemOp::Write {
                addr: BASE + (off & !(width - 1)).min(SIZE - width),
                value: r.next_u32(),
                width,
            }
        }
        1 => MemOp::WriteCap {
            addr: BASE + r.range_u32(0, SIZE / 8) * 8,
            bits: r.next_u64(),
            tag: r.next_bool(),
        },
        2 => {
            let width = *r.choose(&[1u32, 2, 4]);
            let off = r.range_u32(0, SIZE);
            MemOp::Read { addr: BASE + (off & !(width - 1)).min(SIZE - width), width }
        }
        _ => MemOp::ReadCap { addr: BASE + r.range_u32(0, SIZE / 8) * 8 },
    }
}

fn ops(r: &mut Prng) -> Vec<MemOp> {
    let n = r.range_usize(1, 200);
    (0..n).map(|_| mem_op(r)).collect()
}

/// Byte-level reference model with a per-word tag map.
#[derive(Default)]
struct RefMem {
    bytes: HashMap<u32, u8>,
    tags: HashMap<u32, bool>, // keyed by word address
}

impl RefMem {
    fn write(&mut self, addr: u32, value: u32, width: u32) {
        for i in 0..width {
            self.bytes.insert(addr + i, (value >> (8 * i)) as u8);
        }
        self.tags.insert(addr & !3, false);
    }

    fn read(&self, addr: u32, width: u32) -> u32 {
        (0..width)
            .fold(0, |acc, i| acc | (*self.bytes.get(&(addr + i)).unwrap_or(&0) as u32) << (8 * i))
    }

    fn write_cap(&mut self, addr: u32, bits: u64, tag: bool) {
        for i in 0..8 {
            self.bytes.insert(addr + i, (bits >> (8 * i)) as u8);
        }
        self.tags.insert(addr, tag);
        self.tags.insert(addr + 4, tag);
    }

    fn read_cap(&self, addr: u32) -> (u64, bool) {
        let bits = (0..8).fold(0u64, |acc, i| {
            acc | (*self.bytes.get(&(addr + i)).unwrap_or(&0) as u64) << (8 * i)
        });
        let tag = *self.tags.get(&addr).unwrap_or(&false)
            && *self.tags.get(&(addr + 4)).unwrap_or(&false);
        (bits, tag)
    }
}

/// MainMemory matches the reference model under arbitrary mixed
/// data/capability traffic, including tag-clearing on data writes.
#[test]
fn main_memory_matches_reference() {
    let mut r = Prng::seed_from_u64(0x3E3_0001);
    for _ in 0..RUNS {
        let mut mem = MainMemory::new(BASE, SIZE);
        let mut reference = RefMem::default();
        for op in ops(&mut r) {
            match op {
                MemOp::Write { addr, value, width } => {
                    mem.write(addr, value, width).unwrap();
                    reference.write(addr, value, width);
                }
                MemOp::WriteCap { addr, bits, tag } => {
                    mem.write_cap(addr, CapMem::from_bits(bits, tag)).unwrap();
                    reference.write_cap(addr, bits, tag);
                }
                MemOp::Read { addr, width } => {
                    assert_eq!(mem.read(addr, width).unwrap(), reference.read(addr, width));
                }
                MemOp::ReadCap { addr } => {
                    let got = mem.read_cap(addr).unwrap();
                    let (bits, tag) = reference.read_cap(addr);
                    assert_eq!(got.bits(), bits);
                    assert_eq!(got.tag(), tag);
                }
            }
        }
    }
}

/// Scratchpad data/capability storage matches the same reference model.
#[test]
fn scratchpad_matches_reference() {
    const SBASE: u32 = 0x4000_0000;
    let mut r = Prng::seed_from_u64(0x3E3_0002);
    for _ in 0..RUNS {
        let mut sp = Scratchpad::new(SBASE, SIZE, 8);
        let mut reference = RefMem::default();
        let reloc = |addr: u32| addr - BASE + SBASE;
        for op in ops(&mut r) {
            match op {
                MemOp::Write { addr, value, width } => {
                    sp.write(reloc(addr), value, width).unwrap();
                    reference.write(reloc(addr), value, width);
                }
                MemOp::WriteCap { addr, bits, tag } => {
                    sp.write_cap(reloc(addr), CapMem::from_bits(bits, tag)).unwrap();
                    reference.write_cap(reloc(addr), bits, tag);
                }
                MemOp::Read { addr, width } => {
                    assert_eq!(
                        sp.read(reloc(addr), width).unwrap(),
                        reference.read(reloc(addr), width)
                    );
                }
                MemOp::ReadCap { addr } => {
                    let got = sp.read_cap(reloc(addr)).unwrap();
                    let (bits, tag) = reference.read_cap(reloc(addr));
                    assert_eq!(got.bits(), bits);
                    assert_eq!(got.tag(), tag);
                }
            }
        }
    }
}

/// Coalescer invariants: between ceil(span/64) and lane-count
/// transactions; uniform accesses coalesce to exactly one.
#[test]
fn coalescer_invariants() {
    let mut r = Prng::seed_from_u64(0x3E3_0003);
    for run in 0..RUNS {
        let n = r.range_usize(1, 32);
        let uniform_run = run % 8 == 0;
        let shared = r.range_u32(0, 65536);
        let reqs: Vec<LaneRequest> = (0..n)
            .map(|_| {
                let o = if uniform_run { shared } else { r.range_u32(0, 65536) };
                LaneRequest { addr: BASE + (o & !3), bytes: 4 }
            })
            .collect();
        let out = CoalescingUnit::new().coalesce(&reqs);
        assert!(out.transactions >= 1);
        assert!(out.transactions <= reqs.len() as u32);
        let min_block = reqs.iter().map(|q| q.addr / 64).min().unwrap();
        let max_block = reqs.iter().map(|q| q.addr / 64).max().unwrap();
        assert!(out.transactions <= (max_block - min_block + 1));
        if reqs.iter().all(|q| q.addr == reqs[0].addr) {
            assert_eq!(out.transactions, 1);
            assert!(out.uniform);
        }
    }
}

/// The quadratic bank-conflict count `Scratchpad::warp_cycles` used to
/// run, kept as its oracle: collect the distinct `(bank, word)` pairs, then
/// the most pairs that share one bank.
fn warp_cycles_reference(base: u32, banks: u32, reqs: &[LaneRequest]) -> u32 {
    let mut seen: Vec<(u32, u32)> = Vec::new();
    for r in reqs {
        let word = r.addr.wrapping_sub(base) / 4;
        let pair = (word % banks, word);
        if !seen.contains(&pair) {
            seen.push(pair);
        }
    }
    seen.iter().map(|p| seen.iter().filter(|q| q.0 == p.0).count()).max().unwrap_or(1) as u32
}

/// One warp-wide request set of 1–64 lanes: a broadcast, a strided walk
/// (unit, same-bank or odd strides), or draws from a small address pool,
/// so duplicates are common, and sometimes a few lanes copied from others.
fn lane_requests(r: &mut Prng, base: u32, banks: u32) -> Vec<LaneRequest> {
    let n = r.range_usize(1, 65);
    let start = base + (r.range_u32(0, 4096) & !3);
    let stride = 4 * *r.choose(&[0, 1, 2, 3, banks, 2 * banks, banks + 1, 17]);
    let pool: Vec<u32> =
        (0..r.range_usize(1, 9)).map(|_| start + 4 * r.range_u32(0, 256)).collect();
    let kind = r.range_u32(0, 3);
    let bytes = *r.choose(&[1, 2, 4]);
    let mut reqs: Vec<LaneRequest> = (0..n as u32)
        .map(|i| {
            let addr = match kind {
                0 => start,
                1 => start.wrapping_add(stride.wrapping_mul(i)),
                _ => *r.choose(&pool),
            };
            LaneRequest { addr: addr + r.range_u32(0, 4) / bytes * bytes, bytes }
        })
        .collect();
    for _ in 0..r.range_usize(0, 4) {
        let (from, to) = (r.range_usize(0, n), r.range_usize(0, n));
        reqs[to] = reqs[from];
    }
    reqs
}

/// `warp_cycles` (cycles and accumulated conflict cycles) and the
/// coalescer's transaction count and block list agree with the quadratic
/// reference counts, for every power-of-two bank count from 1 to 64.
#[test]
fn bank_conflicts_and_blocks_match_the_quadratic_reference() {
    const SBASE: u32 = 0x4000_0000;
    let mut r = Prng::seed_from_u64(0x3E3_0006);
    for banks in [1, 2, 4, 8, 16, 32, 64] {
        let mut sp = Scratchpad::new(SBASE, 64 * 1024, banks);
        let mut conflicts = 0u64;
        for _ in 0..RUNS * 8 {
            let reqs = lane_requests(&mut r, SBASE, banks);
            let want = warp_cycles_reference(SBASE, banks, &reqs);
            assert_eq!(sp.warp_cycles(&reqs), want, "banks {banks}: {reqs:?}");
            conflicts += u64::from(want - 1);
            assert_eq!(sp.stats().conflict_cycles, conflicts, "banks {banks}");

            // Transactions: distinct blocks, counted the quadratic way.
            let mut distinct: Vec<u32> = Vec::new();
            for q in &reqs {
                if !distinct.contains(&(q.addr / 64)) {
                    distinct.push(q.addr / 64);
                }
            }
            let co = CoalescingUnit::new().coalesce(&reqs);
            assert_eq!(co.transactions as usize, distinct.len(), "{reqs:?}");
            assert_eq!(co.uniform, reqs.iter().all(|q| *q == reqs[0]), "{reqs:?}");
            let mut want_blocks: Vec<u32> = reqs.iter().map(|q| q.addr / 64).collect();
            want_blocks.sort_unstable();
            let mut blocks = [0u32; 64];
            assert_eq!(coalesce_blocks(&reqs, &mut blocks), co);
            assert_eq!(&blocks[..reqs.len()], &want_blocks[..], "{reqs:?}");
        }
    }
}

/// The tag controller never reports more transactions than two per
/// lookup (fill + writeback) and its hit/miss counts add up.
#[test]
fn tag_controller_accounting() {
    let mut r = Prng::seed_from_u64(0x3E3_0004);
    for _ in 0..RUNS {
        let n = r.range_usize(1, 300);
        let addrs: Vec<u32> = (0..n).map(|_| r.range_u32(0, 1 << 20)).collect();
        let mut tc = TagController::new(TagCacheConfig::default(), true);
        let mut txns = 0u64;
        for a in &addrs {
            let t = tc.on_access(BASE + a, a % 3 == 0);
            assert!(t <= 2);
            txns += t as u64;
        }
        let s = tc.stats();
        assert_eq!(s.hits + s.misses, addrs.len() as u64);
        assert_eq!(txns, s.misses + s.writebacks);
        assert!(s.writebacks <= s.misses);
    }
}

/// Capabilities stored through memory and reloaded decode to identical
/// bounds (memory is transparent to the capability layer).
#[test]
fn memory_is_transparent_to_capabilities() {
    let mut r = Prng::seed_from_u64(0x3E3_0005);
    for _ in 0..4096 {
        let base_addr = BASE + (r.range_u32(0, SIZE / 2) & !7);
        let target = r.next_u32();
        let len = r.range_u32(0, 1 << 16);
        let mut mem = MainMemory::new(BASE, SIZE);
        let (cap, _) = CapPipe::almighty().set_addr(target).set_bounds(len);
        mem.write_cap(base_addr, cap.to_mem()).unwrap();
        let back = CapPipe::from_mem(mem.read_cap(base_addr).unwrap());
        assert_eq!(back, cap);
    }
}

/// A malformed access width surfaces as a typed fault, not a process
/// abort — the parallel runner must be able to report it as a simulator
/// error without poisoning sibling worker threads.
#[test]
fn bad_width_is_a_fault_not_a_panic() {
    let mut mem = MainMemory::new(BASE, SIZE);
    for w in [0u32, 3, 5, 8, 64] {
        assert_eq!(mem.read(BASE, w), Err(MemFault::BadWidth(w)), "read width {w}");
        assert_eq!(mem.write(BASE, 0, w), Err(MemFault::BadWidth(w)), "write width {w}");
    }
    let mut sp = Scratchpad::new(0x4000_0000, SIZE, 8);
    for w in [0u32, 3, 5, 8, 64] {
        assert_eq!(sp.read(0x4000_0000, w), Err(MemFault::BadWidth(w)), "sp read width {w}");
        assert_eq!(sp.write(0x4000_0000, 0, w), Err(MemFault::BadWidth(w)), "sp write width {w}");
    }
}
