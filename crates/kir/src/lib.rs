//! NoCL kernel IR and code generator.
//!
//! The paper compiles unmodified C++ NoCL kernels with CHERI-Clang; this
//! crate plays that role for the model: CUDA-style compute kernels are
//! written against a small typed IR (thread/block indices, shared arrays,
//! barriers, atomics, structured control flow) and compiled to RV32IMA +
//! Zfinx + Xcheri machine code for the `cheri-simt` SM, in one of five
//! modes:
//!
//! * [`Mode::Baseline`] — integer pointers, no safety (the paper's
//!   *Baseline* configuration).
//! * [`Mode::PureCap`] — pure-capability code: every pointer (including the
//!   stack pointer and shared-array pointers) is a bounded capability;
//!   loads/stores are hardware-checked; kernel arguments arrive as tagged
//!   capabilities via `CLC` (the paper's *CHERI* configurations).
//! * [`Mode::RustChecked`] — the experimental Rust port of Section 4.7:
//!   pointers are slice-style fat pointers (address + remaining length) and
//!   every access the compiler cannot prove safe carries an explicit bounds
//!   check (`sltu` + `beqz → trap`), modelling `panic!` on overflow.
//! * [`Mode::RustFull`] — additionally models the residual like-for-like
//!   Rust port costs beyond bounds checking (re-materialised addresses
//!   standing in for optimisations the borrow-checked code forgoes), to
//!   approximate the paper's total 46% overhead.
//!
//! ```
//! use nocl_kir::{KernelBuilder, Elem, Mode};
//!
//! // VecAdd: c[i] = a[i] + b[i], grid-stride loop.
//! let mut k = KernelBuilder::new("vecadd");
//! let len = k.param_u32("len");
//! let a = k.param_ptr("a", Elem::I32);
//! let b = k.param_ptr("b", Elem::I32);
//! let c = k.param_ptr("c", Elem::I32);
//! let i = k.var_u32("i");
//! k.for_(i.clone(), k.global_id(), len.clone(), k.global_threads(), |k| {
//!     k.store(&c, i.clone(), a.at(i.clone()) + b.at(i.clone()));
//! });
//! let kernel = k.finish();
//! let compiled = nocl_kir::compile(&kernel, Mode::PureCap).unwrap();
//! assert!(!compiled.words.is_empty());
//! ```

mod builder;
mod compile;
mod expr;
mod layout;
mod pretty;

pub use builder::KernelBuilder;
pub use compile::{compile, compile_capped, CompileError, CompiledKernel, MemPlan};
pub use expr::{BinOp, CmpOp, Elem, Expr, Kernel, ParamDecl, SharedDecl, Special, Stmt, Ty, UnOp};
pub use layout::{ArgLayout, ArgSlot};

/// Compilation mode (see crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Plain RV32, integer pointers, no memory safety.
    Baseline,
    /// Pure-capability CHERI code.
    PureCap,
    /// Rust-style software bounds checking (checks only).
    RustChecked,
    /// Rust-style bounds checking plus residual port overheads.
    RustFull,
    /// GPUShield-style region-based bounds checking (Lee et al., ISCA'22 —
    /// the prior hardware approach of Section 5.2): generated code is
    /// identical to `Baseline`, but buffer pointers carry a bounds-table
    /// index in their upper address bits which the SM checks (and strips)
    /// on every access. Pointers with index 0 are "unprotected" and bypass
    /// the table — the expressibility/security gaps of Figure 15 included.
    GpuShield,
}

impl Mode {
    /// Does this mode require a CHERI-enabled SM?
    pub fn needs_cheri(self) -> bool {
        matches!(self, Mode::PureCap)
    }

    /// Does this mode use fat (address + length) pointers?
    pub(crate) fn fat_pointers(self) -> bool {
        matches!(self, Mode::RustChecked | Mode::RustFull)
    }
}
