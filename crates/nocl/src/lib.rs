//! NoCL host runtime: buffers, argument marshalling, kernel launch.
//!
//! This crate plays the role of the NoCL library's host side (and of the
//! CHERI-enabled host CPU of Figure 9): it owns the device (one or more SMs
//! sharing a memory subsystem — see [`Gpu::with_sms`]), allocates device
//! buffers in simulated DRAM, marshals kernel arguments — *as tagged, bounded
//! capabilities* in pure-capability mode — and launches compiled kernels.
//!
//! ```
//! use cheri_simt::{CheriMode, CheriOpts, SmConfig};
//! use nocl::{Gpu, Launch};
//! use nocl_kir::{Elem, Expr, KernelBuilder, Mode};
//!
//! // c[i] = a[i] + b[i]
//! let mut kb = KernelBuilder::new("vecadd");
//! let len = kb.param_u32("len");
//! let a = kb.param_ptr("a", Elem::I32);
//! let b = kb.param_ptr("b", Elem::I32);
//! let c = kb.param_ptr("c", Elem::I32);
//! let i = kb.var_u32("i");
//! kb.for_(i.clone(), kb.global_id(), len, kb.global_threads(), |k| {
//!     k.store(&c, i.clone(), a.at(i.clone()) + b.at(i.clone()));
//! });
//! let kernel = kb.finish();
//!
//! let mut gpu = Gpu::new(SmConfig::small(CheriMode::On(CheriOpts::optimised())), Mode::PureCap);
//! let xs: Vec<i32> = (0..100).collect();
//! let ys: Vec<i32> = (0..100).map(|v| 10 * v).collect();
//! let a = gpu.alloc_from(&xs);
//! let b = gpu.alloc_from(&ys);
//! let c = gpu.alloc::<i32>(100);
//! let stats = gpu
//!     .launch(&kernel, Launch::new(2, 32), &[100u32.into(), (&a).into(), (&b).into(), (&c).into()])
//!     .unwrap();
//! assert_eq!(gpu.read(&c)[7], 77);
//! assert!(stats.cycles > 0);
//! ```

mod array;
mod buffer;
mod error;

pub use array::WordScalar;
pub use buffer::{Buffer, DeviceScalar};
pub use error::LaunchError;

use cheri_cap::{CapPipe, Perms};
use cheri_simt::{Device, KernelStats, RunError, Sm, SmConfig, Trap};
use nocl_kir::{compile_capped, ArgSlot, CompiledKernel, Kernel, MemPlan, Mode};
use simt_isa::scr;
use simt_mem::map;
use std::fmt;

/// Launch geometry: `<<<grid_dim, block_dim>>>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Launch {
    /// Number of thread blocks.
    pub grid_dim: u32,
    /// Threads per block.
    pub block_dim: u32,
    /// Watchdog limit in cycles.
    pub max_cycles: u64,
}

impl Launch {
    /// A launch with the default watchdog (500M cycles).
    pub fn new(grid_dim: u32, block_dim: u32) -> Self {
        Launch { grid_dim, block_dim, max_cycles: 500_000_000 }
    }
}

/// A kernel argument value.
#[derive(Debug, Clone, Copy)]
pub enum Arg {
    /// A 32-bit scalar (any of u32/i32/f32, as raw bits).
    Scalar(u32),
    /// A device buffer: address and length in elements.
    Buf {
        /// Device address.
        addr: u32,
        /// Length in elements.
        len: u32,
        /// Element size in bytes.
        elem_bytes: u32,
    },
}

impl From<u32> for Arg {
    fn from(v: u32) -> Arg {
        Arg::Scalar(v)
    }
}

impl From<i32> for Arg {
    fn from(v: i32) -> Arg {
        Arg::Scalar(v as u32)
    }
}

impl From<f32> for Arg {
    fn from(v: f32) -> Arg {
        Arg::Scalar(v.to_bits())
    }
}

impl<T: DeviceScalar> From<&Buffer<T>> for Arg {
    fn from(b: &Buffer<T>) -> Arg {
        Arg::Buf { addr: b.addr(), len: b.len(), elem_bytes: T::ELEM.bytes() }
    }
}

/// A hook invoked on the device immediately before each launch runs
/// (after reset and argument marshalling) — the fault-injection point.
pub type PreLaunchHook = Box<dyn FnMut(&mut Device) + Send>;

/// The GPU: a [`Device`] of one or more SMs plus host-side memory
/// management.
pub struct Gpu {
    device: Device,
    mode: Mode,
    plan: MemPlan,
    heap: u32,
    heap_end: u32,
    /// `sms × threads × stack_size` bytes of per-thread stacks, ending at
    /// `plan.stack_top`.
    stack_arena: u32,
    /// Compiled kernels, keyed by the whole kernel: two may share a name.
    cache: Vec<(Kernel, CompiledKernel)>,
    cap_reg_limit: Option<u32>,
    pre_launch: Option<PreLaunchHook>,
    fault_log: Vec<Trap>,
}

impl fmt::Debug for Gpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gpu")
            .field("device", &self.device)
            .field("mode", &self.mode)
            .field("plan", &self.plan)
            .field("heap", &self.heap)
            .field("heap_end", &self.heap_end)
            .field("cap_reg_limit", &self.cap_reg_limit)
            .field("pre_launch", &self.pre_launch.as_ref().map(|_| "<hook>"))
            .field("fault_log", &self.fault_log)
            .finish_non_exhaustive()
    }
}

impl Gpu {
    /// Create a single-SM GPU. The SM's CHERI mode must agree with the
    /// compilation mode (`PureCap` needs CHERI; the other modes must run
    /// without it so the baseline is honest).
    ///
    /// # Panics
    ///
    /// Panics on a mode/configuration mismatch.
    pub fn new(cfg: SmConfig, mode: Mode) -> Gpu {
        Gpu::with_sms(cfg, mode, 1)
    }

    /// Create a GPU with `sms` streaming multiprocessors sharing one DRAM
    /// channel and tag controller. Each SM gets its own `stack_size ×
    /// threads` slice of the stack arena, and the grid-stride prologue
    /// splits the grid across SMs by global hart id.
    ///
    /// # Panics
    ///
    /// Panics on a mode/configuration mismatch, `sms == 0`, or a DRAM too
    /// small for the scaled stack arena.
    pub fn with_sms(cfg: SmConfig, mode: Mode, sms: u32) -> Gpu {
        assert_eq!(
            cfg.cheri.enabled(),
            mode.needs_cheri(),
            "SM CHERI mode must match the compilation mode"
        );
        let usable = cfg.dram_size - map::tag_region_bytes(cfg.dram_size);
        let plan = MemPlan {
            arg_base: map::DRAM_BASE,
            stack_top: map::DRAM_BASE + usable,
            stack_size: 512,
            sms,
        };
        let stack_arena = sms * cfg.threads() * plan.stack_size;
        let heap = map::DRAM_BASE + 4096; // first page: argument block
        let heap_end = plan.stack_top - stack_arena;
        assert!(heap < heap_end, "DRAM too small for stacks");
        Gpu {
            device: Device::new(cfg, sms),
            mode,
            plan,
            heap,
            heap_end,
            stack_arena,
            cache: Vec::new(),
            cap_reg_limit: None,
            pre_launch: None,
            fault_log: Vec::new(),
        }
    }

    /// Install a hook invoked on every launch after the device is reset
    /// and the arguments are marshalled, immediately before the kernel
    /// runs — so a fault injector sees exactly the memory image the kernel
    /// will. Replaces any previous hook.
    pub fn set_pre_launch_hook(&mut self, hook: PreLaunchHook) {
        self.pre_launch = Some(hook);
    }

    /// Drain the accumulated fault log: every trap suppressed by completed
    /// launches (under [`cheri_simt::TrapPolicy::MaskLanes`]) plus the
    /// aborting trap of each failed launch, in delivery order.
    pub fn take_fault_log(&mut self) -> Vec<Trap> {
        std::mem::take(&mut self.fault_log)
    }

    /// Enable the §4.3 capability-register limit: pure-capability kernels
    /// are compiled so that only registers below `limit` ever hold
    /// capabilities, allowing a metadata SRF of `limit` entries (halving
    /// the 14% storage overhead to 7% at `limit = 16`). A limit that leaves
    /// too few registers for pointers or for everything else fails each
    /// launch with [`nocl_kir::CompileError::RegisterPressure`].
    pub fn with_cap_reg_limit(mut self, limit: u32) -> Self {
        self.cap_reg_limit = Some(limit);
        self.cache.clear();
        self
    }

    /// The underlying device (e.g. for per-SM statistics or tracing).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Mutable access to the underlying device.
    pub fn device_mut(&mut self) -> &mut Device {
        &mut self.device
    }

    /// Mutable access to SM 0 (e.g. to attach an event sink).
    pub fn sm_mut(&mut self) -> &mut Sm {
        self.device.sm_mut(0)
    }

    /// Allocate an uninitialised (zeroed) device buffer of `len` elements.
    ///
    /// # Panics
    ///
    /// Panics if the heap is exhausted.
    pub fn alloc<T: DeviceScalar>(&mut self, len: u32) -> Buffer<T> {
        let end = len
            .checked_mul(T::ELEM.bytes())
            .and_then(|bytes| bytes.checked_next_multiple_of(64))
            .and_then(|bytes| self.heap.checked_add(bytes))
            .filter(|&end| end <= self.heap_end)
            .expect("device heap exhausted");
        let addr = self.heap;
        self.heap = end;
        Buffer::new(addr, len)
    }

    /// Allocate and initialise a buffer from host data.
    pub fn alloc_from<T: DeviceScalar>(&mut self, data: &[T]) -> Buffer<T> {
        let b = self.alloc::<T>(data.len() as u32);
        let mut bytes = Vec::with_capacity(data.len() * T::ELEM.bytes() as usize);
        for v in data {
            v.extend_bytes(&mut bytes);
        }
        self.device.memory_mut().write_bytes(b.addr(), &bytes);
        b
    }

    /// Free a buffer with a revocation sweep: every capability anywhere in
    /// device memory whose bounds intersect the buffer loses its tag, so
    /// stale references trap deterministically on next use (use-after-free
    /// prevention — the temporal-safety direction the paper's Section 4.2
    /// points to). The heap is a bump allocator, so the space itself is not
    /// reused; what matters is that dangling capabilities die.
    ///
    /// Returns the number of revoked capabilities. A no-op outside
    /// pure-capability mode (there are no tags to sweep).
    pub fn free<T: DeviceScalar>(&mut self, buf: Buffer<T>) -> u32 {
        self.device.memory_mut().revoke_region(buf.addr(), buf.bytes())
    }

    /// Read a buffer back to the host.
    pub fn read<T: DeviceScalar>(&self, buf: &Buffer<T>) -> Vec<T> {
        let sz = T::ELEM.bytes();
        let bytes = self.device.memory().read_bytes(buf.addr(), buf.len() * sz);
        bytes.chunks_exact(sz as usize).map(T::from_bytes).collect()
    }

    /// Compile (with caching), marshal arguments, and run a kernel.
    ///
    /// # Errors
    ///
    /// Fails on compile errors, invalid geometry, argument mismatches, or a
    /// runtime trap/timeout.
    pub fn launch(
        &mut self,
        kernel: &Kernel,
        launch: Launch,
        args: &[Arg],
    ) -> Result<KernelStats, LaunchError> {
        let cfg = *self.device.config();
        let lanes = cfg.lanes;
        if launch.grid_dim == 0 || launch.block_dim == 0 {
            return Err(LaunchError::Config("grid and block must be non-empty".into()));
        }
        if launch.block_dim > cfg.threads() {
            return Err(LaunchError::Config(format!(
                "block of {} threads exceeds the SM's {}",
                launch.block_dim,
                cfg.threads()
            )));
        }
        let block_ok = if launch.block_dim >= lanes {
            launch.block_dim.is_multiple_of(lanes)
        } else {
            lanes.is_multiple_of(launch.block_dim)
        };
        if !block_ok {
            return Err(LaunchError::Config(format!(
                "block dim {} must tile the {}-lane warps",
                launch.block_dim, lanes
            )));
        }
        let block_warps = (launch.block_dim / lanes).max(1);
        if !cfg.warps.is_multiple_of(block_warps) {
            return Err(LaunchError::Config(format!(
                "blocks of {block_warps} warps must tile the SM's {} warps",
                cfg.warps
            )));
        }
        if args.len() != kernel.params.len() {
            return Err(LaunchError::Config(format!(
                "kernel {} takes {} arguments, got {}",
                kernel.name,
                kernel.params.len(),
                args.len()
            )));
        }

        let compiled = match self.cache.iter().find(|(k, _)| k == kernel) {
            Some((_, c)) => c.clone(),
            None => {
                let c = compile_capped(kernel, self.mode, self.plan, self.cap_reg_limit)?;
                self.cache.push((kernel.clone(), c.clone()));
                c
            }
        };

        // Shared memory must fit every concurrently-resident block.
        let blocks_per_sm = cfg.threads() / launch.block_dim.min(cfg.threads());
        if compiled.shared_bytes * blocks_per_sm > map::SCRATCH_SIZE {
            return Err(LaunchError::Config(format!(
                "{} bytes of shared memory x {} resident blocks exceeds the scratchpad",
                compiled.shared_bytes, blocks_per_sm
            )));
        }

        // GPUShield comparator mode: assign region ids and install the
        // bounds table (it cannot change during execution — Figure 15).
        let shield_ids: Vec<u32> = if self.mode == Mode::GpuShield {
            let mut regions = Vec::new();
            let mut ids = vec![0u32; args.len()];
            for (i, a) in args.iter().enumerate() {
                if let Arg::Buf { addr, len, elem_bytes } = a {
                    if regions.len() >= cheri_simt::shield::MAX_REGIONS {
                        return Err(LaunchError::Config(
                            "GPUShield bounds table supports only 15 buffers".into(),
                        ));
                    }
                    regions.push((*addr, len * elem_bytes));
                    ids[i] = regions.len() as u32;
                }
            }
            self.device.set_bounds_table(Some(cheri_simt::shield::BoundsTable::new(regions)));
            ids
        } else {
            self.device.set_bounds_table(None);
            vec![0; args.len()]
        };

        // Marshal the argument block.
        self.write_args(&compiled, launch, args, &shield_ids)?;

        // Special capability registers for pure-capability kernels.
        if self.mode == Mode::PureCap {
            let data = |base: u32, len: u32| {
                let (c, _) =
                    CapPipe::almighty().and_perm(Perms::data()).set_addr(base).set_bounds(len);
                c.to_mem()
            };
            self.device.set_scr(scr::ARG, data(self.plan.arg_base, compiled.layout.size));
            let stack_base = self.plan.stack_top - self.stack_arena;
            self.device.set_scr(scr::STACK, data(stack_base, self.stack_arena));
            self.device.set_scr(scr::SHARED, data(map::SCRATCH_BASE, map::SCRATCH_SIZE));
            self.device.set_scr(scr::GLOBAL, CapPipe::almighty().and_perm(Perms::data()).to_mem());
        }

        self.device.load_program(&compiled.words);
        self.device.set_stack_region(self.plan.stack_top - self.stack_arena, self.stack_arena);
        self.device.set_block_warps(block_warps);
        self.device.reset();
        if let Some(hook) = self.pre_launch.as_mut() {
            hook(&mut self.device);
        }
        let result = self.device.run(launch.max_cycles);
        for k in 0..self.device.num_sms() as usize {
            self.fault_log.extend_from_slice(self.device.sm(k).suppressed_traps());
        }
        if let Err(RunError::Trap(t)) = &result {
            self.fault_log.push(t.clone());
        }
        Ok(result?)
    }

    fn write_args(
        &mut self,
        compiled: &CompiledKernel,
        launch: Launch,
        args: &[Arg],
        shield_ids: &[u32],
    ) -> Result<(), LaunchError> {
        let base = self.plan.arg_base;
        let mem = self.device.memory_mut();
        let mut written =
            mem.write(base, launch.grid_dim, 4).and(mem.write(base + 4, launch.block_dim, 4));
        for (i, (slot, arg)) in compiled.layout.slots.iter().zip(args).enumerate() {
            let off = base + slot.offset();
            let w = match (slot, arg) {
                (ArgSlot::Scalar { .. }, Arg::Scalar(v)) => mem.write(off, *v, 4),
                (ArgSlot::PtrRaw { .. }, Arg::Buf { addr, .. }) => {
                    let tagged = if shield_ids[i] != 0 {
                        cheri_simt::shield::BoundsTable::tag(*addr, shield_ids[i])
                    } else {
                        *addr
                    };
                    mem.write(off, tagged, 4)
                }
                (ArgSlot::PtrFat { .. }, Arg::Buf { addr, len, .. }) => {
                    mem.write(off, *addr, 4).and(mem.write(off + 4, *len, 4))
                }
                (ArgSlot::PtrCap { .. }, Arg::Buf { addr, len, elem_bytes }) => {
                    let (cap, _) = CapPipe::almighty()
                        .and_perm(Perms::data())
                        .set_addr(*addr)
                        .set_bounds(len * elem_bytes);
                    mem.write_cap(off, cap.to_mem())
                }
                (slot, arg) => {
                    return Err(LaunchError::Config(format!(
                        "argument {i}: {arg:?} does not fit parameter slot {slot:?}"
                    )));
                }
            };
            written = written.and(w);
        }
        // The block is DRAM's first page (the heap starts past it), and
        // `compile` caps the parameter count, so every write lands.
        written.expect("argument block within DRAM's first page");
        Ok(())
    }
}
