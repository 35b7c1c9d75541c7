//! # cheri-simt: a cycle-level model of CHERI memory protection in a SIMT GPU
//!
//! This crate is the primary contribution of the reproduction: a streaming
//! multiprocessor in the style of SIMTight (Naylor et al.) extended with
//! CHERI capabilities, implementing the three cost-amelioration techniques
//! of the paper:
//!
//! 1. a compressed **capability-metadata register file** exploiting
//!    inter-thread value regularity, with a shared VRF and the null-value
//!    optimisation (Sections 3.1–3.2),
//! 2. **shared-function-unit offload** of the cold CHERI Concentrate
//!    operations (`CGetBase`, `CGetLen`, `CSetBounds[..]`, `CRRL`, `CRAM`;
//!    Section 3.3), and
//! 3. the **static PC metadata restriction** so active-thread selection
//!    compares integer PCs only (Section 3.3).
//!
//! The SM executes RV32IMA+Zfinx+Xcheri programs over 8–2048 hardware
//! threads with a barrel scheduler, per-thread PCs (PCCs), min-PC
//! active-thread selection, a coalescing unit, banked scratchpad, tagged
//! DRAM behind a tag controller, and multi-flit 64-bit capability accesses.
//!
//! # Example
//!
//! Run a two-instruction kernel that stores each thread's id to memory:
//!
//! ```
//! use cheri_simt::{CheriMode, Device, SmConfig};
//! use simt_isa::{csr, Instr, Reg, SimtOp, StoreWidth, AluOp};
//! use simt_mem::map;
//!
//! let mut dev = Device::new(SmConfig::small(CheriMode::Off), 1);
//! let prog: Vec<u32> = [
//!     Instr::Csrrs { rd: Reg::A0, csr: csr::MHARTID, rs1: Reg::ZERO },
//!     Instr::OpImm { op: AluOp::Sll, rd: Reg::A1, rs1: Reg::A0, imm: 2 },
//!     Instr::Lui { rd: Reg::A2, imm: map::DRAM_BASE },
//!     Instr::Op { op: AluOp::Add, rd: Reg::A1, rs1: Reg::A1, rs2: Reg::A2 },
//!     Instr::Store { w: StoreWidth::W, rs2: Reg::A0, rs1: Reg::A1, off: 0 },
//!     Instr::Simt { op: SimtOp::Terminate },
//! ].iter().map(|i| i.encode()).collect();
//! dev.load_program(&prog);
//! dev.reset();
//! let stats = dev.run(100_000)?;
//! assert_eq!(dev.memory().read(map::DRAM_BASE + 5 * 4, 4).unwrap(), 5);
//! assert!(stats.cycles > 0);
//! # Ok::<(), cheri_simt::RunError>(())
//! ```

mod config;
mod counters;
mod device;
mod exec;
mod pipeline;
mod rom;
pub mod shield;
mod sm;
mod trap;
mod warp;

pub use config::{CheriMode, CheriOpts, SmConfig, Timing, TrapPolicy};
pub use counters::{
    Counter, CounterValue, FaultStats, KernelStats, StallBreakdown, COUNTERS, FINGERPRINT_KEYS,
};
pub use device::Device;
/// Structured tracing: re-exported so consumers can name sinks and events
/// without depending on `simt-trace` directly.
pub use simt_trace as trace;
pub use sm::Sm;
pub use trap::{LaneFault, RunError, Trap, TrapCause};

// Send audit: the parallel suite runner simulates one whole device per worker
// thread, so the simulator state — and everything it returns — must stay
// `Send`. Keeping this a compile-time check means a future `Rc`/`RefCell`
// (or other non-`Send` state) inside the model breaks the build here, not
// the runner's callers.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Sm>();
    assert_send::<Device>();
    assert_send::<SmConfig>();
    assert_send::<KernelStats>();
    assert_send::<RunError>();
};
