//! Layer micro-probes: timing loops over stand-alone objects of the layers
//! that a span around a launch cannot separate. The cap, regfile and
//! coalescer loops are `crates/bench/benches/components.rs`'s, with seeded
//! operands; the rest follow the same shape. Every probe is one warm-up
//! call plus the median of [`SAMPLES`] timed calls.

use crate::kernels;
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::Config;
use cheri_cap::{CapMem, CapPipe};
use nocl::Gpu;
use nocl_kir::{compile_capped, Kernel, MemPlan, Mode};
use nocl_suite::catalog;
use sim_prng::Prng;
use simt_isa::Instr;
use simt_mem::{
    map, CoalescingUnit, Dram, DramConfig, LaneRequest, MainMemory, Scratchpad, TagCacheConfig,
    TagController,
};
use simt_regfile::{CompressedRegFile, OperandVec, RfConfig};
use std::hint::black_box;
use std::time::Instant;

pub const SAMPLES: usize = 20;

/// Every compile mode `nocl-kir` has.
pub const MODES: [Mode; 5] =
    [Mode::Baseline, Mode::PureCap, Mode::RustChecked, Mode::RustFull, Mode::GpuShield];

/// Median seconds per call of `f` (after one warm-up call), inside a span
/// named `name` so the probes show up in `spans.jsonl` too.
fn probe<T>(sp: &mut Spans, name: &'static str, mut f: impl FnMut() -> T) -> f64 {
    sp.span(name, |_| {
        black_box(f());
        let times: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let t = Instant::now();
                black_box(f());
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&times)
    })
}

/// Every kernel the benchmark can compile: the 14 suite kernels and the
/// four owned ones.
fn all_kernels(seed: u64) -> Vec<Kernel> {
    let launch = kernels::paper_launch(1);
    let mut ks: Vec<Kernel> = catalog().iter().map(|b| b.example_kernel()).collect();
    ks.push(kernels::alu_converged(seed, 1, launch).kernel);
    ks.push(kernels::lanes_divergent(seed, 1, launch).kernel);
    ks.push(kernels::mem_bound(seed, 1, launch).kernel);
    ks.push(kernels::tiny(seed, launch).kernel);
    ks
}

/// Run every probe; returns `(metric name, value)` pairs.
pub fn run(seed: u64, sp: &mut Spans) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    sp.span("probes", |sp| {
        compile_and_decode(seed, sp, &mut out);
        device(seed, sp, &mut out);
        cap(seed, sp, &mut out);
        regfile(seed, sp, &mut out);
        mem(seed, sp, &mut out);
    });
    out
}

fn compile_and_decode(seed: u64, sp: &mut Spans, out: &mut Vec<(&'static str, f64)>) {
    let plan = MemPlan::default();
    let mut per_compile = Vec::new();
    let mut words: Vec<u32> = Vec::new();
    let mut kernels_compiled = 0usize;
    for k in all_kernels(seed) {
        for mode in MODES {
            let secs = probe(sp, "kir.compile", || compile_capped(&k, mode, plan, None));
            per_compile.push(secs * 1e6);
            let compiled = compile_capped(&k, mode, plan, None).expect("benchmark kernels compile");
            words.extend(&compiled.words);
            kernels_compiled += 1;
        }
    }
    out.push(("kir.compile_us_per_kernel", median(&per_compile)));
    out.push(("kir.words_per_kernel", words.len() as f64 / kernels_compiled as f64));
    let secs = probe(sp, "isa.decode", || {
        words.iter().filter(|&&w| Instr::decode(black_box(w)).is_some()).count()
    });
    out.push(("isa.decode_ns_per_word", secs * 1e9 / words.len() as f64));
}

fn device(seed: u64, sp: &mut Spans, out: &mut Vec<(&'static str, f64)>) {
    // `reset` is timed the way a launch pays for it: on a device that has
    // just run a kernel. `Gpu::launch` sets the device up once.
    let job = kernels::tiny(seed, kernels::paper_launch(1));
    let (cfg, mode) = Config::Purecap.instantiate();
    let mut gpu = Gpu::new(cfg, mode);
    let loaded = job.load(&mut gpu);
    gpu.launch(&job.kernel, job.launch, &loaded.args).expect("tiny launches");
    let dev = gpu.device_mut();
    let resets: Vec<f64> = sp.span("core.reset", |_| {
        (0..SAMPLES)
            .map(|_| {
                let t = Instant::now();
                dev.reset();
                let secs = t.elapsed().as_secs_f64();
                dev.run(job.launch.max_cycles).expect("tiny runs");
                secs
            })
            .collect()
    });
    out.push(("core.reset_us", median(&resets) * 1e6));

    let words =
        compile_capped(&job.kernel, mode, MemPlan::default(), None).expect("tiny compiles").words;
    let secs = probe(sp, "core.load_program", || dev.load_program(&words));
    out.push(("core.load_program_us", secs * 1e6));
}

fn cap(seed: u64, sp: &mut Spans, out: &mut Vec<(&'static str, f64)>) {
    const N: usize = 256;
    let mut r = Prng::seed_from_u64(seed ^ 0xCA);
    let cap = CapPipe::almighty().set_addr(0x1000).set_bounds(1 << 20).0;
    let mem = cap.to_mem();
    let offsets: Vec<u32> = (0..N).map(|_| r.range_u32(0, (1 << 20) - 4) & !3).collect();
    let secs = probe(sp, "cap.from_mem_check", || {
        let mut ok = 0u32;
        for &off in &offsets {
            let c = CapPipe::from_mem(black_box(mem)).set_addr(0x1000 + off);
            ok += c.is_access_in_bounds(c.addr(), 4) as u32;
        }
        ok
    });
    out.push(("cap.from_mem_check_ns", secs * 1e9 / N as f64));

    let regions: Vec<(u32, u32)> =
        (0..N).map(|_| (r.range_u32(0, 1 << 30), r.range_u32(1, 1 << 24))).collect();
    let secs = probe(sp, "cap.set_bounds", || {
        let mut acc = 0u64;
        for &(base, len) in &regions {
            acc ^= CapPipe::almighty().set_addr(black_box(base)).set_bounds(len).0.top();
        }
        acc
    });
    out.push(("cap.set_bounds_ns", secs * 1e9 / N as f64));

    let raw: Vec<(u64, bool)> = (0..N).map(|_| (r.next_u64(), r.next_bool())).collect();
    let secs = probe(sp, "cap.codec_roundtrip", || {
        let mut bits = 0u64;
        for &(b, tag) in &raw {
            bits ^= CapPipe::from_mem(CapMem::from_bits(black_box(b), tag)).to_mem().bits();
        }
        bits
    });
    out.push(("cap.codec_roundtrip_ns", secs * 1e9 / N as f64));
}

fn regfile(seed: u64, sp: &mut Spans, out: &mut Vec<(&'static str, f64)>) {
    const N: u32 = 1024;
    let mut r = Prng::seed_from_u64(seed ^ 0x5F);
    let data = || CompressedRegFile::new(RfConfig::data(64, 32, 768));
    let vector: Box<[u64]> = (0..32).map(|_| r.next_u32() as u64).collect();
    let operands = [
        ("regfile.write_compact_ns.uniform", OperandVec::Uniform(r.next_u32() as u64)),
        (
            "regfile.write_compact_ns.affine",
            OperandVec::Affine { base: r.next_u32() as u64, stride: 4 },
        ),
        ("regfile.write_compact_ns.vector", OperandVec::Vector(vector.clone())),
    ];
    // Reads over a file that holds all three shapes, a third each; the
    // vector third (11 registers × 64 warps) fits the 768-slot VRF.
    let mut rf = data();
    for i in 0..64 * 32u32 {
        rf.write_compact(i / 32, i % 32, &operands[(i % 3) as usize].1, u64::MAX);
    }
    let secs = probe(sp, "regfile.read_compact", || {
        for i in 0..N {
            black_box(rf.read_compact(i % 64, i % 32));
        }
    });
    out.push(("regfile.read_compact_ns", secs * 1e9 / N as f64));

    for (name, value) in &operands {
        // Twelve registers per warp, so the vector case stays VRF-resident.
        let mut rf = data();
        let secs = probe(sp, "regfile.write_compact", || {
            for i in 0..N {
                rf.write_compact(i % 64, i % 12, black_box(value), u64::MAX);
            }
        });
        out.push((name, secs * 1e9 / N as f64));
    }

    let mut rf = CompressedRegFile::new(RfConfig::data(8, 32, 16));
    let secs = probe(sp, "regfile.write", || {
        for i in 0..N {
            rf.write(i % 8, i % 32, black_box(&vector), u64::MAX);
        }
    });
    out.push(("regfile.write_ns.vector_spill", secs * 1e9 / N as f64));
}

fn mem(seed: u64, sp: &mut Spans, out: &mut Vec<(&'static str, f64)>) {
    const N: usize = 1024;
    let mut r = Prng::seed_from_u64(seed ^ 0x3E);
    let warp = |f: &mut dyn FnMut(u32) -> u32| -> Vec<LaneRequest> {
        (0..32).map(|i| LaneRequest { addr: f(i), bytes: 4 }).collect()
    };

    let unit = CoalescingUnit::new();
    let base = map::DRAM_BASE + (r.range_u32(0, 1 << 16) << 6);
    let unit_stride = warp(&mut |i| base + i * 4);
    let scattered = warp(&mut |_| map::DRAM_BASE + (r.range_u32(0, 1 << 18) << 6));
    for (name, reqs) in
        [("mem.coalesce_ns.unit_stride", &unit_stride), ("mem.coalesce_ns.scattered", &scattered)]
    {
        let secs = probe(sp, "mem.coalesce", || {
            for _ in 0..N {
                black_box(unit.coalesce(black_box(reqs)));
            }
        });
        out.push((name, secs * 1e9 / N as f64));
    }

    // One tag-cache line covers 2 KiB of data and the cache is direct
    // mapped over 128 lines: addresses inside one 2 KiB block always hit
    // after the first, addresses 256 KiB apart always evict each other.
    let tag_cfg = TagCacheConfig::default();
    let reach = tag_cfg.lines * tag_cfg.line_bytes * 32;
    let hit: Vec<u32> = (0..N).map(|_| map::DRAM_BASE + r.range_u32(0, 2048)).collect();
    let miss: Vec<u32> = (0..N as u32).map(|i| map::DRAM_BASE + (i % 32) * reach).collect();
    for (name, addrs) in [("mem.tagctl_ns.hit", &hit), ("mem.tagctl_ns.miss", &miss)] {
        let mut tags = TagController::new(tag_cfg, true);
        let secs = probe(sp, "mem.tagctl", || {
            addrs.iter().map(|&a| tags.on_access(black_box(a), false)).sum::<u32>()
        });
        out.push((name, secs * 1e9 / N as f64));
    }

    let mut dram = Dram::new(DramConfig::default());
    let secs = probe(sp, "mem.dram_access", || {
        (0..N as u64).map(|now| dram.access(black_box(now * 8), 1, 1, 0)).sum::<u64>()
    });
    out.push(("mem.dram_access_ns", secs * 1e9 / N as f64));

    let mut scratch = Scratchpad::new(map::SCRATCH_BASE, map::SCRATCH_SIZE, 32);
    let reqs = warp(&mut |_| map::SCRATCH_BASE + (r.range_u32(0, map::SCRATCH_SIZE / 4) << 2));
    let secs = probe(sp, "mem.scratch_warp_cycles", || {
        (0..N).map(|_| scratch.warp_cycles(black_box(&reqs))).sum::<u32>()
    });
    out.push(("mem.scratch_warp_cycles_ns", secs * 1e9 / N as f64));

    const SIZE: u32 = 1 << 20;
    let mut main = MainMemory::new(map::DRAM_BASE, SIZE);
    let addrs: Vec<u32> =
        (0..N).map(|_| map::DRAM_BASE + (r.range_u32(0, SIZE / 8) << 3)).collect();
    let secs = probe(sp, "mem.main_rw", || {
        let mut acc = 0u32;
        for &a in &addrs {
            main.write(a, a, 4).expect("in range");
            acc ^= main.read(black_box(a), 4).expect("in range");
        }
        acc
    });
    out.push(("mem.main_rw_ns", secs * 1e9 / N as f64));
    let cap = CapPipe::almighty().set_addr(map::DRAM_BASE).set_bounds(SIZE).0.to_mem();
    let secs = probe(sp, "mem.cap_rw", || {
        let mut acc = 0u64;
        for &a in &addrs {
            main.write_cap(a, cap).expect("in range, aligned");
            acc ^= main.read_cap(black_box(a)).expect("in range, aligned").bits();
        }
        acc
    });
    out.push(("mem.cap_rw_ns", secs * 1e9 / N as f64));
}
