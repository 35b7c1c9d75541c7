//! The NoCL benchmark suite (Table 1 of the paper): fourteen CUDA-style
//! compute kernels written against the [`nocl_kir`] IR, each with a host
//! reference implementation and a self-check.
//!
//! | Benchmark  | Description                             |
//! |------------|-----------------------------------------|
//! | VecAdd     | Vector addition                         |
//! | Histogram  | 256-bin histogram calculation           |
//! | Reduce     | Vector summation                        |
//! | Scan       | Parallel prefix sum                     |
//! | Transpose  | Matrix transpose                        |
//! | MatVecMul  | Matrix × vector multiplication          |
//! | MatMul     | Matrix × matrix multiplication          |
//! | BitonicSm  | Bitonic sorter (small arrays)           |
//! | BitonicLa  | Bitonic sorter (large arrays)           |
//! | SPMV       | Sparse matrix × vector multiplication   |
//! | BlkStencil | Block-based stencil computation         |
//! | StrStencil | Stripe-based stencil computation        |
//! | VecGCD     | Vectorised greatest common divisor      |
//! | MotionEst  | Motion estimation                       |
//!
//! Every benchmark runs unchanged in all four compilation modes; the suite
//! verifies device results against the host reference after every launch.
//!
//! ```
//! use cheri_simt::{CheriMode, SmConfig};
//! use nocl::Gpu;
//! use nocl_kir::Mode;
//! use nocl_suite::{catalog, Scale};
//!
//! let mut gpu = Gpu::new(SmConfig::small(CheriMode::Off), Mode::Baseline);
//! let vecadd = &catalog()[0];
//! let stats = vecadd.run(&mut gpu, Scale::Test).unwrap();
//! assert!(stats.instrs > 0);
//! ```

mod kernels;
mod util;

pub use kernels::catalog;
pub use util::{BenchError, Scale};

use cheri_simt::KernelStats;
use nocl::Gpu;

/// One benchmark of the suite.
pub trait NoclBench: Sync {
    /// Table-1 name.
    fn name(&self) -> &'static str;

    /// One-line description.
    fn description(&self) -> &'static str;

    /// Origin of the kernel (per Table 1).
    fn origin(&self) -> &'static str;

    /// A representative compiled form of the kernel (block size 256 where
    /// the kernel is geometry-dependent) — for disassembly and inspection.
    fn example_kernel(&self) -> nocl_kir::Kernel;

    /// Allocate inputs, launch (possibly several phase kernels), verify the
    /// device results against the host reference, and return the accumulated
    /// statistics.
    ///
    /// # Errors
    ///
    /// Fails if a launch fails or the results do not match the reference.
    fn run(&self, gpu: &mut Gpu, scale: Scale) -> Result<KernelStats, BenchError>;
}

/// Run the full suite on one GPU, returning `(name, stats)` pairs.
///
/// # Errors
///
/// Fails on the first benchmark that fails.
pub fn run_suite(
    gpu: &mut Gpu,
    scale: Scale,
) -> Result<Vec<(&'static str, KernelStats)>, BenchError> {
    let mut out = Vec::new();
    for b in catalog() {
        let stats = b.run(gpu, scale)?;
        out.push((b.name(), stats));
    }
    Ok(out)
}

// Suite cells cross a `thread::scope` in the parallel runner; keep that a
// compile-time guarantee.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<&'static dyn NoclBench>();
    assert_send_sync::<Scale>();
    assert_send_sync::<BenchError>();
};
