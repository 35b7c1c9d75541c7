//! The streaming multiprocessor: state and host-facing control surface
//! (Figure 2 + Figure 8).
//!
//! The per-stage logic lives in [`crate::pipeline`] — `schedule`,
//! `operands`, `execute`, `memstage` and `writeback` each contribute an
//! `impl Sm` block owning their slice of the statistics and trace events.
//! This module keeps only the state, the launch set-up the device applies
//! to it (program loading, SCRs, stack region, block size, bounds table,
//! reset, the end-of-run snapshot) and the small public surface: the
//! scratchpad ([`Sm::scratchpad`], [`Sm::scratchpad_mut`]), the event sink
//! ([`Sm::set_sink`], [`Sm::take_sink`]), [`Sm::set_scalarise`] and
//! [`Sm::suppressed_traps`]. A launch is set up only through
//! [`crate::Device`], which places each SM's harts when it builds it, runs
//! the loop that drives [`Sm::step`] and owns the memory system the stages
//! borrow. An SM has no notion of how many SMs share that memory system: a
//! step always issues at most one instruction, and the device alone decides
//! how many steps an SM takes in a row.

use crate::config::{CheriOpts, SmConfig};
use crate::counters::KernelStats;
use crate::device::MemSystem;
use crate::pipeline::operands::pack_meta;
use crate::rom::{ProgramRom, CHERI_NAMES};
use crate::trap::Trap;
use crate::warp::Warp;
use cheri_cap::{CapMem, CapPipe, Perms};
use simt_mem::{map, Scratchpad};
use simt_regfile::{CompressedRegFile, RfConfig, MAX_LANES};
use simt_trace::{EventSink, StallCause, TraceEvent};

/// Reusable per-lane scratch buffers for the lane-wise execute paths.
///
/// The reference handlers work over `MAX_LANES`-sized arrays regardless of
/// the configured lane count; allocating (and zero-filling) those on the
/// stack per issue dominates the host-model cost of small geometries. One
/// boxed copy lives on the [`Sm`] instead, loaned out with a take/put
/// pattern (see [`Sm::with_bufs`]). Contents are *stale* between issues by
/// design: every handler fully writes the lanes it reads back, or reads
/// only under the mask it wrote (audited per handler at the use sites).
#[derive(Debug)]
pub(crate) struct LaneBufs {
    /// First data operand (or memory address).
    pub a: [u64; MAX_LANES],
    /// Second data operand (or store value).
    pub b: [u64; MAX_LANES],
    /// Metadata of `a`.
    pub am: [u64; MAX_LANES],
    /// Metadata of `b` (or a spare metadata scratch).
    pub bm: [u64; MAX_LANES],
    /// Result data.
    pub r: [u64; MAX_LANES],
    /// Result metadata.
    pub rm: [u64; MAX_LANES],
    /// Per-lane next PCs (control flow).
    pub pcs: [u32; MAX_LANES],
    /// Per-lane effective addresses (memory stage).
    pub eas: [u32; MAX_LANES],
    /// DRAM lane requests of the in-flight memory op (capacity retained
    /// across issues; cleared by each user before filling).
    pub dram_reqs: Vec<simt_mem::LaneRequest>,
    /// Scratchpad lane requests (same contract as `dram_reqs`).
    pub scratch_reqs: Vec<simt_mem::LaneRequest>,
}

impl LaneBufs {
    fn new() -> Box<Self> {
        Box::new(LaneBufs {
            a: [0; MAX_LANES],
            b: [0; MAX_LANES],
            am: [0; MAX_LANES],
            bm: [0; MAX_LANES],
            r: [0; MAX_LANES],
            rm: [0; MAX_LANES],
            pcs: [0; MAX_LANES],
            eas: [0; MAX_LANES],
            dram_reqs: Vec::with_capacity(MAX_LANES),
            scratch_reqs: Vec::with_capacity(MAX_LANES),
        })
    }
}

/// One streaming multiprocessor of a [`crate::Device`]: warps, register
/// files, scratchpad and the pipeline clock. The memory
/// system behind the coalescer (functional DRAM, the DRAM channel and the
/// tag controller) belongs to the device, which lends it to the SM for each
/// scheduler step; reach an SM through [`crate::Device::sm`] /
/// [`crate::Device::sm_mut`] and run it with [`crate::Device::run`].
#[derive(Debug)]
pub struct Sm {
    pub(crate) cfg: SmConfig,
    pub(crate) opts: Option<CheriOpts>,
    /// The loaded program (empty until [`Sm::load_program`]): see
    /// [`crate::rom`].
    pub(crate) rom: ProgramRom,
    pub(crate) warps: Vec<Warp>,
    pub(crate) data_rf: CompressedRegFile,
    pub(crate) meta_rf: Option<CompressedRegFile>,
    pub(crate) scrs: [CapMem; 32],
    /// PCC for kernel launch (code capability over the loaded program).
    pub(crate) launch_pcc: CapPipe,
    /// The launch PCC as a metadata word (`pack_meta`; 0 without CHERI):
    /// every warp starts on it at `reset`, and it keys the memoised fetch
    /// check: a warp still running on the launch PCC needs no per-issue
    /// `check_fetch` once the whole program is known covered.
    pub(crate) launch_pcc_meta: u64,
    /// Verified at load time: `check_fetch` passes for **every** aligned
    /// PC of the loaded program under the launch PCC metadata, so the
    /// issue path may skip the check whenever the selection's metadata
    /// equals `launch_pcc_meta`, its PC is aligned and its index is in
    /// range. Exact, not heuristic — each slot was probed.
    pub(crate) pcc_fetch_ok: bool,
    pub(crate) scratch: Scratchpad,
    /// Warps per thread block, for barrier grouping.
    pub(crate) block_warps: u32,
    /// Stack arena (base, size) for the compressed stack cache filter.
    pub(crate) stack_region: Option<(u32, u32)>,
    /// GPUShield comparator mode: a per-launch bounds table.
    pub(crate) bounds_table: Option<crate::shield::BoundsTable>,
    /// Structured event sink (`None` = tracing off; the pipeline and the
    /// memory hierarchy emit nothing and take only an `Option` branch).
    pub(crate) sink: Option<Box<dyn EventSink>>,
    pub(crate) stats: KernelStats,
    /// Executed CHERI instructions per [`crate::rom::CheriSlot`]: the dense
    /// form of `KernelStats::cheri_histogram`, which the end-of-run
    /// snapshot builds from the non-zero slots.
    pub(crate) cheri_counts: [u64; CHERI_NAMES.len()],
    /// The selection mask with every lane set.
    pub(crate) full_mask: u64,
    pub(crate) cycle: u64,
    pub(crate) rr: usize,
    /// First global hart id on this SM (`sm_index × threads_per_sm`).
    pub(crate) hart_base: u32,
    /// What `SIMT_NUM_THREADS` reads: the *device-wide* thread count, so
    /// grid-stride kernels distribute work across every SM.
    pub(crate) device_threads: u32,
    /// Execute scalarised issues warp-wide over compact operands (the fast
    /// path). Purely a host-model speed knob: issue classification, the
    /// `scalarised_issues` counter and every other statistic are identical
    /// either way (the differential test pins this).
    pub(crate) scalarise: bool,
    /// Traps suppressed under `TrapPolicy::MaskLanes` this launch, in
    /// delivery order (empty under `Abort`).
    pub(crate) suppressed: Vec<Trap>,
    /// The lane scratch (`None` only while [`Sm::with_bufs`] has it on loan).
    pub(crate) bufs: Option<Box<LaneBufs>>,
    /// Conservative "some thread may be parked at a barrier" flag: raised
    /// by the commit path whenever a thread parks, lowered by the
    /// scheduler once a scan finds nothing parked. Lets barrier-free
    /// stretches skip the per-step barrier/done scans entirely.
    pub(crate) maybe_parked: bool,
}

impl Sm {
    /// Run a lane-wise handler with the lane scratch buffers on loan,
    /// taking them back on every exit path (including trap returns).
    #[inline]
    pub(crate) fn with_bufs<R>(&mut self, f: impl FnOnce(&mut Self, &mut LaneBufs) -> R) -> R {
        let mut bufs = self.bufs.take().expect("lane scratch buffers already loaned out");
        let r = f(self, &mut bufs);
        self.bufs = Some(bufs);
        r
    }
}

impl Sm {
    /// Build an SM from a configuration, placed at `hart_base` within a
    /// device of `device_threads` hardware threads: `MHARTID` reads
    /// `hart_base + warp × lanes + lane`, and `SIMT_NUM_THREADS` reads
    /// `device_threads`.
    pub(crate) fn new(cfg: SmConfig, hart_base: u32, device_threads: u32) -> Self {
        let opts = cfg.cheri.opts();
        let data_rf = CompressedRegFile::new(RfConfig::data(cfg.warps, cfg.lanes, cfg.vrf_slots));
        let meta_rf = opts.map(|o| {
            let slots = if o.compress_meta {
                // Shared VRF: metadata vectors compete for the same slots;
                // modelled as an equal-capacity pool (see DESIGN.md).
                cfg.vrf_slots
            } else {
                // Naive CHERI: full-size uncompressed metadata storage.
                cfg.warps * 32
            };
            let mut rf_cfg = RfConfig::meta(cfg.warps, cfg.lanes, slots, o.nvo);
            if !o.compress_meta {
                // The naive configuration has a full three-port register
                // file; no CSC port penalty applies (handled in issue()).
                rf_cfg.srf_copies = 2;
            }
            CompressedRegFile::new(rf_cfg)
        });
        Sm {
            opts,
            rom: ProgramRom::default(),
            warps: Vec::new(),
            data_rf,
            meta_rf,
            scrs: [CapMem::NULL; 32],
            launch_pcc: CapPipe::null(),
            launch_pcc_meta: 0,
            pcc_fetch_ok: false,
            scratch: Scratchpad::new(map::SCRATCH_BASE, map::SCRATCH_SIZE, cfg.lanes),
            block_warps: 1,
            stack_region: None,
            bounds_table: None,
            sink: None,
            stats: KernelStats::default(),
            cheri_counts: [0; CHERI_NAMES.len()],
            full_mask: u64::MAX >> (64 - cfg.lanes),
            cycle: 0,
            rr: 0,
            hart_base,
            device_threads,
            scalarise: true,
            suppressed: Vec::new(),
            bufs: Some(LaneBufs::new()),
            maybe_parked: true,
            cfg,
        }
    }

    /// The configuration.
    pub(crate) fn config(&self) -> &SmConfig {
        &self.cfg
    }

    /// The scratchpad.
    pub fn scratchpad(&self) -> &Scratchpad {
        &self.scratch
    }

    /// Mutable scratchpad, for host-side fault injection into shared memory
    /// (an unmapped window, a flipped tag), as [`crate::Device::memory_mut`]
    /// offers for DRAM.
    pub fn scratchpad_mut(&mut self) -> &mut Scratchpad {
        &mut self.scratch
    }

    /// Set a special capability register (host side, at launch).
    pub(crate) fn set_scr(&mut self, index: u8, cap: CapMem) {
        self.scrs[index as usize] = cap;
    }

    /// Attach a structured event sink: the pipeline stages will emit
    /// [`simt_trace::TraceEvent`]s — about themselves, the memory hierarchy
    /// and the register files — into it from now on. The sink survives
    /// [`crate::Device::reset`] (each launch is delimited by a
    /// [`simt_trace::TraceEvent::Launch`] marker), so a multi-launch
    /// benchmark accumulates one continuous stream. Replaces any previously
    /// attached sink.
    ///
    /// For a bounded always-on trace, attach a [`simt_trace::RingSink`]: it
    /// keeps the most recent events and counts evictions, which is the tool
    /// for "how did this kernel reach the trap?" post-mortems.
    pub fn set_sink(&mut self, sink: Box<dyn EventSink>) {
        self.sink = Some(sink);
    }

    /// Detach and return the current event sink, disabling structured
    /// tracing. It downcasts to the concrete sink by reference through
    /// `as_any`, or by value as a `Box<dyn Any>`, from which
    /// [`VecSink::into_events`](crate::trace::VecSink::into_events) takes
    /// the events without a copy.
    pub fn take_sink(&mut self) -> Option<Box<dyn EventSink>> {
        self.sink.take()
    }

    /// Enable or disable the warp-wide execute fast path over compact
    /// (uniform/affine) operands. On by default; turning it off forces the
    /// lane-wise reference driver for every data, capability, branch and
    /// `JALR` issue. Splats (`LUI`, `AUIPC`, CSR reads and `JAL`'s link)
    /// have one form and commit compactly either way. The two drivers are
    /// bit-identical — statistics (including
    /// [`KernelStats::scalarised_issues`], which counts issue
    /// *classification*, not which driver ran), trace events and memory
    /// contents do not depend on this knob, so it exists only for
    /// differential testing of the fast path itself.
    pub fn set_scalarise(&mut self, enabled: bool) {
        self.scalarise = enabled;
    }

    /// Emit a stall event (no-op without a sink or for zero-cycle stalls, so
    /// per-cause cycle sums always reconcile with `StallBreakdown`).
    pub(crate) fn emit_stall(&mut self, warp: u32, cause: StallCause, cycles: u64) {
        if cycles > 0 {
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.emit(TraceEvent::Stall { cycle: self.cycle, warp, cause, cycles });
            }
        }
    }

    /// Install (or clear) a GPUShield-style bounds table for the next run
    /// — the comparator of Section 5.2. Ignored under CHERI.
    pub(crate) fn set_bounds_table(&mut self, table: Option<crate::shield::BoundsTable>) {
        self.bounds_table = table;
    }

    /// Tell the SM where the per-thread stack arena lives, so the
    /// compressed stack cache (when enabled) only filters spill traffic.
    pub(crate) fn set_stack_region(&mut self, base: u32, size: u32) {
        self.stack_region = Some((base, size));
    }

    /// Set the number of warps per thread block (barrier grouping).
    ///
    /// # Panics
    ///
    /// Panics unless the block size divides the warp count.
    pub(crate) fn set_block_warps(&mut self, warps: u32) {
        assert!(warps >= 1 && self.cfg.warps.is_multiple_of(warps), "blocks must tile the SM");
        self.block_warps = warps;
    }

    /// Load a program at the base of instruction memory — pre-decoded once
    /// into the [`ProgramRom`] — and mint the launch PCC over it.
    ///
    /// # Panics
    ///
    /// Panics if the program exceeds the TCIM.
    pub(crate) fn load_program(&mut self, words: &[u32]) {
        assert!((words.len() * 4) as u32 <= map::TCIM_SIZE, "program too large for TCIM");
        let (pcc, exact) = CapPipe::almighty()
            .and_perm(Perms::code())
            .set_addr(map::TCIM_BASE)
            .set_bounds((words.len() * 4) as u32);
        debug_assert!(exact || pcc.tag());
        self.launch_pcc = pcc;
        // Memoise the fetch check: probe every program slot once under the
        // launch PCC metadata, exactly as the issue path would, so a warp
        // still running on that metadata skips the per-issue check.
        if self.cfg.cheri.enabled() {
            self.launch_pcc_meta = pack_meta(self.launch_pcc.to_mem());
            self.pcc_fetch_ok = (0..words.len()).all(|i| {
                let pc = map::TCIM_BASE + (i as u32) * 4;
                Self::cap_of(self.launch_pcc_meta, pc as u64).check_fetch(pc).is_ok()
            });
        } else {
            self.launch_pcc_meta = 0;
            self.pcc_fetch_ok = false;
        }
        self.rom = ProgramRom::build(words, self.cfg.cheri.enabled());
    }

    /// Reset warps, register files and statistics for a fresh launch. The
    /// warps are reset in place. The register files are rebuilt: resetting
    /// them in place too raised the peak RSS of a host that builds and
    /// drops devices (simbench `multi_sm`: 38 → 81 MiB), because without
    /// their per-launch allocations the host's later allocations pinned the
    /// heap above a dropped device's DRAM, so the allocator handed that
    /// dirty memory to the next device's zeroed DRAM. The program and the
    /// scratchpad contents are preserved.
    pub(crate) fn reset(&mut self) {
        let static_pcc = self.opts.map(|o| o.static_pcc).unwrap_or(true);
        let (lanes, pcc_meta) = (self.cfg.lanes, self.launch_pcc_meta);
        self.warps.resize_with(self.cfg.warps as usize, || {
            Warp::new(lanes, map::TCIM_BASE, pcc_meta, static_pcc)
        });
        for warp in &mut self.warps {
            warp.reset(lanes, map::TCIM_BASE, pcc_meta, static_pcc);
        }
        self.data_rf = CompressedRegFile::new(RfConfig::data(
            self.cfg.warps,
            self.cfg.lanes,
            self.cfg.vrf_slots,
        ));
        if let Some(meta_cfg) = self.meta_rf.as_ref().map(|m| *m.config()) {
            self.meta_rf = Some(CompressedRegFile::new(meta_cfg));
        }
        self.scratch.reset_stats();
        self.stats = KernelStats::default();
        self.cheri_counts.fill(0);
        self.cycle = 0;
        self.rr = 0;
        self.suppressed.clear();
        // Conservative: let the first step scan once and lower the flag.
        self.maybe_parked = true;
        // The sink deliberately survives the reset: each launch contributes
        // a delimited segment to one continuous stream.
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.emit(TraceEvent::Launch { cycle: 0, warps: self.cfg.warps });
        }
    }

    /// The local pipeline clock.
    pub(crate) fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Snapshot the end-of-run statistics from the pipeline accumulators
    /// and the device's memory system.
    pub(crate) fn finalise(&mut self, ms: &MemSystem) -> KernelStats {
        let mut s = self.stats.clone();
        s.cheri_histogram.clear();
        for (name, &n) in CHERI_NAMES.iter().zip(&self.cheri_counts) {
            if n > 0 {
                s.count_cheri(name, n);
            }
        }
        s.cycles = self.cycle;
        s.dram = ms.dram.stats();
        s.tag_cache = ms.tags.stats();
        s.scratch = self.scratch.stats();
        s.data_rf = self.data_rf.stats();
        s.peak_data_vrf_resident = self.data_rf.stats().peak_resident;
        if let Some(m) = &self.meta_rf {
            s.meta_rf = m.stats();
            s.peak_meta_vrf_resident = m.stats().peak_resident;
            s.cap_regs_used = m.max_nonnull_regs();
            s.cap_regs_mask = m.nonnull_mask_union();
        }
        let st = &s.stalls;
        debug_assert_eq!(
            s.cycles,
            s.instrs
                + st.csc_serialisation
                + st.shared_vrf_conflict
                + st.spill_fill
                + st.cap_multi_flit
                + st.idle,
            "every cycle issues or stalls for one cause"
        );
        s
    }

    /// Traps suppressed under `TrapPolicy::MaskLanes` during the current
    /// launch, in delivery order. Always empty under `TrapPolicy::Abort`.
    pub fn suppressed_traps(&self) -> &[Trap] {
        &self.suppressed
    }
}
