//! The code generator: kernel IR → RV32IMA+Zfinx(+Xcheri) machine code.
//!
//! The generated program has the NoCL runtime structure: a prologue that
//! derives thread/block indices from `mhartid`, loads kernel arguments into
//! pinned registers, carves out shared-memory arrays and (if needed) a
//! per-thread stack, then a grid-stride *block loop* that runs the kernel
//! body once per assigned block, with a trailing block-level barrier when
//! the kernel uses shared memory.
//!
//! Pointers are mode-dependent:
//! * `Baseline` — one register holding a raw address,
//! * `PureCap` — one register holding a capability (moves use `CMove`,
//!   arithmetic uses `CIncOffset`, argument loads use `CLC`),
//! * Rust modes — two registers holding (address, remaining length), i.e. a
//!   slice; every unproven access is preceded by `sltu`+`beqz → trap`.

use crate::expr::*;
use crate::layout::{ArgLayout, ArgSlot, BLOCK_DIM_OFFSET, GRID_DIM_OFFSET};
use crate::Mode;
use simt_isa::asm::{Assembler, Label};
use simt_isa::{
    csr, scr, AluOp, BranchCond, FcmpOp, FpOp, Instr, LoadWidth, MulOp, Reg, StoreWidth, UnaryCapOp,
};
use simt_mem::map;

/// Fixed memory-plan constants baked into generated code. The host runtime
/// must use the same plan when laying out device memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemPlan {
    /// Address of the kernel argument block.
    pub arg_base: u32,
    /// Top of the per-thread stack arena (stacks grow downward from here).
    pub stack_top: u32,
    /// Bytes of stack per thread (a power of two).
    pub stack_size: u32,
    /// Streaming multiprocessors on the target device. With more than one,
    /// the prologue localises the shared-memory partition index (global
    /// block indices span SMs, scratchpads do not); with exactly one the
    /// generated code is byte-identical to the classic single-SM output.
    pub sms: u32,
}

impl Default for MemPlan {
    fn default() -> Self {
        let usable = map::DRAM_DEFAULT_SIZE - map::tag_region_bytes(map::DRAM_DEFAULT_SIZE);
        MemPlan {
            arg_base: map::DRAM_BASE,
            stack_top: map::DRAM_BASE + usable,
            stack_size: 512,
            sms: 1,
        }
    }
}

/// A compiled kernel, ready to load into the SM.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// Encoded instruction words.
    pub words: Vec<u32>,
    /// Argument-block layout the host must follow.
    pub layout: ArgLayout,
    /// Shared memory bytes per block.
    pub shared_bytes: u32,
    /// The compilation mode.
    pub mode: Mode,
    /// The memory plan baked into the code.
    pub plan: MemPlan,
}

impl CompiledKernel {
    /// A human-readable disassembly listing of the generated code.
    ///
    /// ```text
    /// 10000000:  f1402573   csrr a0, mhartid
    /// 10000004:  0045a583   lw a1, 4(a1)
    /// ...
    /// ```
    pub fn disassemble(&self) -> String {
        use core::fmt::Write as _;
        let mut out = String::with_capacity(self.words.len() * 48);
        for (i, &w) in self.words.iter().enumerate() {
            let pc = map::TCIM_BASE + 4 * i as u32;
            match Instr::decode(w) {
                Some(ins) => {
                    let _ = writeln!(out, "{pc:08x}:  {w:08x}   {ins}");
                }
                None => {
                    let _ = writeln!(out, "{pc:08x}:  {w:08x}   .word");
                }
            }
        }
        out
    }

    /// Static instruction count.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Is the program empty (never true for a compiled kernel)?
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// Compilation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Too many simultaneously live values for the register budget.
    RegisterPressure(String),
    /// A construct the generator does not support.
    Unsupported(String),
    /// An ill-typed IR fragment.
    Type(String),
}

impl core::fmt::Display for CompileError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CompileError::RegisterPressure(s) => write!(f, "register pressure: {s}"),
            CompileError::Unsupported(s) => write!(f, "unsupported: {s}"),
            CompileError::Type(s) => write!(f, "type error: {s}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compile with the default memory plan.
///
/// # Errors
///
/// See [`CompileError`].
pub fn compile(kernel: &Kernel, mode: Mode) -> Result<CompiledKernel, CompileError> {
    compile_capped(kernel, mode, MemPlan::default(), None)
}

/// Compile with a limit on which registers may hold capabilities: in
/// pure-capability mode every pointer value is confined to registers with
/// index below `cap_reg_limit`. This is the compiler support Section 4.3
/// forecasts — with a limit of 16, the metadata SRF can halve, cutting the
/// register-file storage overhead from 14% to 7%.
///
/// # Errors
///
/// See [`CompileError`]. Builder misuse, ill-typed trees and ids the
/// kernel does not declare are type errors; a too-small or too-large limit
/// is register pressure; a stack size that is not a power of two, or a
/// kernel too long for its branches, is unsupported.
pub fn compile_capped(
    kernel: &Kernel,
    mode: Mode,
    plan: MemPlan,
    cap_reg_limit: Option<u32>,
) -> Result<CompiledKernel, CompileError> {
    if let Some(misuse) = kernel.misuse.clone().or_else(|| undeclared(kernel)) {
        return Err(CompileError::Type(misuse));
    }
    let layout = ArgLayout::new(kernel, mode);
    let mut cg = Codegen::new(kernel, mode, plan, &layout, cap_reg_limit)?;
    cg.prologue()?;
    cg.block_loop()?;
    let len = cg.asm.len();
    let words = cg.asm.assemble().map_err(|e| {
        CompileError::Unsupported(format!("kernel {} is {len} instructions long: {e}", kernel.name))
    })?;
    Ok(CompiledKernel { words, layout, shared_bytes: kernel.shared_bytes(), mode, plan })
}

/// The first variable, parameter or shared array that `k` does not declare
/// with that id and type, such as one taken from another kernel's builder;
/// code generation indexes the declarations by these ids.
fn undeclared(k: &Kernel) -> Option<String> {
    fn expr(k: &Kernel, e: &Expr) -> Option<String> {
        let declared = match e {
            Expr::Var(i, t) => k.vars.get(*i) == Some(t),
            Expr::Param(i, t) => k.params.get(*i).is_some_and(|p| p.ty == *t),
            Expr::Shared(i, el) => k.shared.get(*i).is_some_and(|s| s.elem == *el),
            Expr::Bin(_, a, b) | Expr::Load(a, b) | Expr::PtrOffset(a, b) => {
                return expr(k, a).or_else(|| expr(k, b));
            }
            Expr::Un(_, a) => return expr(k, a),
            Expr::Int(..) | Expr::F32(_) | Expr::Special(_) => true,
        };
        (!declared).then(|| format!("{e:?} is not declared in kernel {}", k.name))
    }
    fn stmts(k: &Kernel, body: &[Stmt]) -> Option<String> {
        body.iter().find_map(|s| match s {
            Stmt::Assign(i, _) if *i >= k.vars.len() => {
                Some(format!("assignment to variable {i}, not declared in kernel {}", k.name))
            }
            Stmt::Assign(_, e) => expr(k, e),
            Stmt::Store { ptr, index, value } | Stmt::Atomic { ptr, index, value, .. } => {
                [ptr, index, value].into_iter().find_map(|e| expr(k, e))
            }
            Stmt::If { cond, then_, else_ } => {
                expr(k, cond).or_else(|| stmts(k, then_)).or_else(|| stmts(k, else_))
            }
            Stmt::While { cond, body } => expr(k, cond).or_else(|| stmts(k, body)),
            Stmt::Barrier => None,
        })
    }
    stmts(k, &k.body)
}

/// Where a value lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// One register (scalar, raw pointer, or capability).
    Reg(Reg),
    /// Fat pointer: (address, length-in-elements).
    Fat(Reg, Reg),
    /// Fat pointer with a compile-time-constant length (shared arrays).
    FatConst(Reg, u32),
    /// Spilled to the stack at the given byte offset below SP.
    Slot(u32),
    /// Fat pointer spilled to the stack (two words).
    FatSlot(u32),
}

/// A value produced by expression generation: its location plus whether the
/// registers are owned temporaries that must be released.
#[derive(Debug, Clone, Copy)]
struct Val {
    loc: Loc,
    owned: bool,
}

struct Codegen<'k> {
    k: &'k Kernel,
    mode: Mode,
    plan: MemPlan,
    asm: Assembler,
    /// Free temporary registers.
    free: Vec<Reg>,
    /// Pinned homes of specials.
    r_thread_idx: Reg,
    r_block_idx: Reg,
    r_block_dim: Reg,
    r_grid_dim: Reg,
    r_blocks_per_sm: Reg,
    /// Pinned homes of params (by index).
    params: Vec<Loc>,
    /// Pinned homes of shared arrays.
    shared: Vec<Loc>,
    /// Homes of user variables.
    vars: Vec<Loc>,
    /// Stack bytes used for spilled variables.
    stack_bytes: u32,
    /// Common trap label for failed Rust bounds checks.
    trap: Label,
    trap_used: bool,
    /// Arg-block slots (borrowed from the layout).
    slots: Vec<ArgSlot>,
    /// Pure-capability mode: a stable register per pointer *role* (base
    /// buffer) for address computations. A conventional register allocator
    /// gives each buffer's address stream its own register, which keeps
    /// per-register capability metadata uniform across divergent masks —
    /// the property the metadata register file's compression relies on.
    ptr_regs: std::collections::BTreeMap<PtrRole, Reg>,
    /// With a capability-register limit: the dedicated pool (indices below
    /// the limit) all pointer values must live in. `None` = unrestricted.
    cap_pool: Option<Vec<Reg>>,
    /// The limit itself, for classifying released registers.
    cap_limit: Option<u32>,
}

/// Identity of the buffer an address computation derives from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum PtrRole {
    Param(usize),
    Shared(usize),
    Var(usize),
}

fn ptr_role(e: &Expr) -> Option<PtrRole> {
    match e {
        Expr::Param(i, _) => Some(PtrRole::Param(*i)),
        Expr::Shared(i, _) => Some(PtrRole::Shared(*i)),
        Expr::Var(i, _) => Some(PtrRole::Var(*i)),
        Expr::PtrOffset(p, _) => ptr_role(p),
        _ => None,
    }
}

/// Estimated dynamic reference count per variable: each reference counts
/// `8^depth` for its loop-nesting depth, approximating the profile a
/// register allocator's spill heuristic uses.
fn var_weights(k: &Kernel) -> Vec<u64> {
    fn expr(e: &Expr, w: u64, out: &mut [u64]) {
        match e {
            Expr::Var(i, _) => out[*i] = out[*i].saturating_add(w),
            Expr::Bin(_, a, b) | Expr::Load(a, b) | Expr::PtrOffset(a, b) => {
                expr(a, w, out);
                expr(b, w, out);
            }
            Expr::Un(_, a) => expr(a, w, out),
            _ => {}
        }
    }
    fn stmts(body: &[Stmt], w: u64, out: &mut [u64]) {
        for s in body {
            match s {
                Stmt::Assign(i, e) => {
                    out[*i] = out[*i].saturating_add(w);
                    expr(e, w, out);
                }
                Stmt::Store { ptr, index, value } => {
                    expr(ptr, w, out);
                    expr(index, w, out);
                    expr(value, w, out);
                }
                Stmt::Atomic { ptr, index, value, .. } => {
                    expr(ptr, w, out);
                    expr(index, w, out);
                    expr(value, w, out);
                }
                Stmt::If { cond, then_, else_ } => {
                    expr(cond, w, out);
                    stmts(then_, w, out);
                    stmts(else_, w, out);
                }
                Stmt::While { cond, body } => {
                    expr(cond, w.saturating_mul(8), out);
                    stmts(body, w.saturating_mul(8), out);
                }
                Stmt::Barrier => {}
            }
        }
    }
    let mut out = vec![0u64; k.vars.len()];
    stmts(&k.body, 1, &mut out);
    out
}

const ZERO: Reg = Reg::ZERO;
const SP: Reg = Reg::SP;

impl<'k> Codegen<'k> {
    fn new(
        k: &'k Kernel,
        mode: Mode,
        plan: MemPlan,
        layout: &ArgLayout,
        cap_reg_limit: Option<u32>,
    ) -> Result<Self, CompileError> {
        let mut asm = Assembler::new();
        let trap = asm.label();
        // Register pool: everything but zero and SP. Kernels are fully
        // inlined (no calls), so ra/gp/tp are ordinary registers here.
        let mut pool: Vec<Reg> = [1u8, 3, 4].into_iter().chain(5..32).map(Reg::new).collect();
        // Capability-register limit (pure-capability mode only): carve out
        // the low-index registers as the exclusive home of pointer values.
        let mut cap_pool = match (mode, cap_reg_limit) {
            (Mode::PureCap, Some(limit)) => {
                let (low, high): (Vec<Reg>, Vec<Reg>) =
                    pool.iter().partition(|r| (r.index() as u32) < limit);
                pool = high;
                Some(low)
            }
            _ => None,
        };
        let take = |n: &mut Vec<Reg>| {
            if n.is_empty() {
                return Err(CompileError::RegisterPressure(format!(
                    "kernel {} exhausts the register pool",
                    k.name
                )));
            }
            Ok(n.remove(0))
        };
        let take_ptr = |cap: &mut Option<Vec<Reg>>, pool: &mut Vec<Reg>, what: &str| match cap {
            Some(c) if c.is_empty() => Err(CompileError::RegisterPressure(format!(
                "capability-register limit exhausted pinning {what}"
            ))),
            Some(c) => Ok(c.remove(0)),
            None => take(pool),
        };

        let r_thread_idx = take(&mut pool)?;
        let r_block_idx = take(&mut pool)?;
        let r_block_dim = take(&mut pool)?;
        let r_grid_dim = take(&mut pool)?;
        let r_blocks_per_sm = take(&mut pool)?;

        // Pin parameters.
        let fat = mode.fat_pointers();
        let mut params = Vec::new();
        for p in &k.params {
            let loc = match (p.ty, fat) {
                (Ty::Ptr(_), true) => Loc::Fat(take(&mut pool)?, take(&mut pool)?),
                (Ty::Ptr(_), false) => Loc::Reg(take_ptr(&mut cap_pool, &mut pool, &p.name)?),
                _ => Loc::Reg(take(&mut pool)?),
            };
            params.push(loc);
            if pool.len() < 8 {
                return Err(CompileError::RegisterPressure(format!(
                    "kernel {} has too many parameters",
                    k.name
                )));
            }
        }
        // Pin shared arrays (length is a compile-time constant in Rust
        // modes, so one register suffices everywhere).
        let mut shared = Vec::new();
        for s in &k.shared {
            let r =
                if fat { take(&mut pool)? } else { take_ptr(&mut cap_pool, &mut pool, &s.name)? };
            shared.push(if fat { Loc::FatConst(r, s.len) } else { Loc::Reg(r) });
            if pool.len() < 8 {
                return Err(CompileError::RegisterPressure(format!(
                    "kernel {} has too many shared arrays",
                    k.name
                )));
            }
        }
        // Pin user variables hottest-first (weighted by loop-nesting depth,
        // as a conventional register allocator would), keeping at least 9
        // temporaries; the rest spill to per-thread stack slots.
        let weights = var_weights(k);
        let mut order: Vec<usize> = (0..k.vars.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(weights[i]));
        let mut vars = vec![Loc::Slot(0); k.vars.len()];
        let mut stack_bytes = 0u32;
        for i in order {
            let is_ptr = matches!(k.vars[i], Ty::Ptr(_));
            if is_ptr && !fat && cap_pool.is_some() {
                vars[i] = Loc::Reg(take_ptr(&mut cap_pool, &mut pool, "pointer variable")?);
                continue;
            }
            let needs = if fat && is_ptr { 2 } else { 1 };
            if pool.len() >= 9 + needs {
                vars[i] = match needs {
                    2 => Loc::Fat(take(&mut pool)?, take(&mut pool)?),
                    _ => Loc::Reg(take(&mut pool)?),
                };
            } else if needs == 2 {
                stack_bytes += 8;
                vars[i] = Loc::FatSlot(stack_bytes);
            } else {
                stack_bytes += 4;
                vars[i] = Loc::Slot(stack_bytes);
            }
        }

        Ok(Codegen {
            k,
            mode,
            plan,
            asm,
            free: pool,
            r_thread_idx,
            r_block_idx,
            r_block_dim,
            r_grid_dim,
            r_blocks_per_sm,
            params,
            shared,
            vars,
            stack_bytes,
            trap,
            trap_used: false,
            slots: layout.slots.clone(),
            ptr_regs: std::collections::BTreeMap::new(),
            cap_pool,
            cap_limit: cap_reg_limit.filter(|_| mode == Mode::PureCap),
        })
    }

    // ---- Temp management ----

    fn temp(&mut self) -> Result<Reg, CompileError> {
        self.free.pop().ok_or_else(|| CompileError::RegisterPressure("expression too deep".into()))
    }

    /// A capability-address register for the given pointer expression:
    /// role-stable in pure-capability mode (never returned to the pool), a
    /// plain temporary otherwise. Returns `(reg, owned)`.
    fn addr_temp(&mut self, ptr: &Expr) -> Result<(Reg, bool), CompileError> {
        if self.purecap() {
            if let Some(role) = ptr_role(ptr) {
                if let Some(&r) = self.ptr_regs.get(&role) {
                    return Ok((r, false));
                }
                if let Some(cap) = self.cap_pool.as_mut() {
                    // Under a capability-register limit the address register
                    // must come from the capability pool.
                    let r = cap.pop().ok_or_else(|| {
                        CompileError::RegisterPressure(
                            "capability-register limit exhausted for address temporaries".into(),
                        )
                    })?;
                    self.ptr_regs.insert(role, r);
                    return Ok((r, false));
                }
                // Keep a minimum of working temps; otherwise dedicate one.
                if self.free.len() > 4 {
                    let r = self.free.pop().expect("checked non-empty");
                    self.ptr_regs.insert(role, r);
                    return Ok((r, false));
                }
            } else if let Some(cap) = self.cap_pool.as_mut() {
                // Role-less pointer expression under a limit: still confine.
                if let Some(r) = cap.pop() {
                    return Ok((r, true));
                }
                return Err(CompileError::RegisterPressure(
                    "capability-register limit exhausted".into(),
                ));
            }
        }
        Ok((self.temp()?, true))
    }

    /// A scratch register allowed to hold a capability (from the capability
    /// pool when a limit is in force). Release with [`Self::free_scratch`].
    fn cap_scratch(&mut self) -> Result<Reg, CompileError> {
        match self.cap_pool.as_mut() {
            Some(c) => c.pop().ok_or_else(|| {
                CompileError::RegisterPressure("capability-register limit exhausted".into())
            }),
            None => self.temp(),
        }
    }

    /// Return a scratch register to whichever pool it came from.
    fn free_scratch(&mut self, r: Reg) {
        match &mut self.cap_pool {
            Some(c) if self.cap_limit.is_some_and(|l| (r.index() as u32) < l) => c.push(r),
            _ => self.free.push(r),
        }
    }

    fn release(&mut self, v: Val) {
        if v.owned {
            match v.loc {
                Loc::Reg(r) | Loc::FatConst(r, _) => self.free_scratch(r),
                Loc::Fat(a, l) => {
                    self.free.push(a);
                    self.free.push(l);
                }
                Loc::Slot(_) | Loc::FatSlot(_) => {}
            }
        }
    }

    fn purecap(&self) -> bool {
        self.mode == Mode::PureCap
    }

    // ---- Emission helpers ----

    fn op(&mut self, op: AluOp, rd: Reg, rs1: Reg, rs2: Reg) {
        self.asm.push(Instr::Op { op, rd, rs1, rs2 });
    }

    fn opi(&mut self, op: AluOp, rd: Reg, rs1: Reg, imm: i32) {
        self.asm.push(Instr::OpImm { op, rd, rs1, imm });
    }

    fn mv(&mut self, rd: Reg, rs: Reg) {
        if rd != rs {
            self.opi(AluOp::Add, rd, rs, 0);
        }
    }

    /// Pointer-preserving move (`CMove` under CHERI).
    fn mv_ptr(&mut self, rd: Reg, rs: Reg) {
        if rd == rs {
            return;
        }
        if self.purecap() {
            self.asm.push(Instr::CapUnary { op: UnaryCapOp::Move, rd, cs1: rs });
        } else {
            self.mv(rd, rs);
        }
    }

    /// `rd = ptr + byte_off` preserving pointer-ness.
    fn ptr_add(&mut self, rd: Reg, ptr: Reg, off: Reg) {
        if self.purecap() {
            self.asm.push(Instr::CIncOffset { cd: rd, cs1: ptr, rs2: off });
        } else {
            self.op(AluOp::Add, rd, ptr, off);
        }
    }

    fn ptr_addi(&mut self, rd: Reg, ptr: Reg, off: i32) {
        if self.purecap() {
            self.asm.push(Instr::CIncOffsetImm { cd: rd, cs1: ptr, imm: off });
        } else {
            self.opi(AluOp::Add, rd, ptr, off);
        }
    }

    // ---- Prologue ----

    fn prologue(&mut self) -> Result<(), CompileError> {
        let t0 = self.temp()?;
        let t1 = self.temp()?;
        let arg = self.prologue_hart_and_dims(t0, t1)?;
        self.prologue_params(arg)?;
        self.prologue_shared(t1)?;
        self.prologue_stack(t0, t1)?;
        self.free.push(t0);
        self.free.push(t1);
        Ok(())
    }

    /// Hart id (into `t0`), argument-block base, grid/block dimensions and
    /// the derived thread/block indices. Returns the argument-block base
    /// register for [`Self::prologue_params`] to consume.
    fn prologue_hart_and_dims(&mut self, t0: Reg, t1: Reg) -> Result<Reg, CompileError> {
        self.asm.push(Instr::Csrrs { rd: t0, csr: csr::MHARTID, rs1: ZERO });
        let arg = if self.purecap() { self.cap_scratch()? } else { self.temp()? };
        if self.purecap() {
            self.asm.push(Instr::CSpecialRw { cd: arg, cs1: ZERO, scr: scr::ARG });
        } else {
            self.asm.li(arg, self.plan.arg_base);
        }
        self.asm.push(Instr::Load {
            w: LoadWidth::W,
            rd: self.r_grid_dim,
            rs1: arg,
            off: GRID_DIM_OFFSET as i32,
        });
        self.asm.push(Instr::Load {
            w: LoadWidth::W,
            rd: self.r_block_dim,
            rs1: arg,
            off: BLOCK_DIM_OFFSET as i32,
        });

        // threadIdx = hart % blockDim; blockIdx = hart / blockDim;
        // blocksPerSm = numThreads / blockDim.
        self.asm.push(Instr::MulDiv {
            op: MulOp::Remu,
            rd: self.r_thread_idx,
            rs1: t0,
            rs2: self.r_block_dim,
        });
        self.asm.push(Instr::MulDiv {
            op: MulOp::Divu,
            rd: self.r_block_idx,
            rs1: t0,
            rs2: self.r_block_dim,
        });
        self.asm.push(Instr::Csrrs { rd: t1, csr: csr::SIMT_NUM_THREADS, rs1: ZERO });
        self.asm.push(Instr::MulDiv {
            op: MulOp::Divu,
            rd: self.r_blocks_per_sm,
            rs1: t1,
            rs2: self.r_block_dim,
        });
        Ok(arg)
    }

    /// Load every kernel parameter from the argument block into its home,
    /// then release the argument-block base register.
    fn prologue_params(&mut self, arg: Reg) -> Result<(), CompileError> {
        for (i, p) in self.k.params.iter().enumerate() {
            match (self.params[i], self.slots[i]) {
                (Loc::Reg(r), ArgSlot::Scalar { offset } | ArgSlot::PtrRaw { offset }) => {
                    self.asm.push(Instr::Load {
                        w: LoadWidth::W,
                        rd: r,
                        rs1: arg,
                        off: offset as i32,
                    });
                }
                (Loc::Reg(r), ArgSlot::PtrCap { offset }) => {
                    self.asm.push(Instr::Clc { cd: r, cs1: arg, off: offset as i32 });
                }
                (Loc::Fat(ra, rl), ArgSlot::PtrFat { offset }) => {
                    self.asm.push(Instr::Load {
                        w: LoadWidth::W,
                        rd: ra,
                        rs1: arg,
                        off: offset as i32,
                    });
                    self.asm.push(Instr::Load {
                        w: LoadWidth::W,
                        rd: rl,
                        rs1: arg,
                        off: offset as i32 + 4,
                    });
                }
                other => {
                    return Err(CompileError::Type(format!(
                        "parameter {} ({:?}) home/slot mismatch: {:?}",
                        p.name, p.ty, other
                    )))
                }
            }
        }
        self.free_scratch(arg);
        Ok(())
    }

    /// Shared arrays: partition = localBlock * shared_bytes; each array at
    /// its aligned offset, bounded per-array under CHERI.
    fn prologue_shared(&mut self, t1: Reg) -> Result<(), CompileError> {
        if !self.k.shared.is_empty() {
            let sh_bytes = self.k.shared_bytes();
            // On a multi-SM device block indices are global but scratchpads
            // are per-SM: fold the block index into this SM's partition
            // range first. localBlocksPerSm = blocksPerDevice / sms, and
            // localBlock = blockIdx % localBlocksPerSm is stable across
            // grid-stride iterations (the stride is a multiple of it).
            let local = if self.plan.sms > 1 {
                let lb = self.temp()?;
                self.asm.li(lb, self.plan.sms);
                self.asm.push(Instr::MulDiv {
                    op: MulOp::Divu,
                    rd: lb,
                    rs1: self.r_blocks_per_sm,
                    rs2: lb,
                });
                self.asm.push(Instr::MulDiv {
                    op: MulOp::Remu,
                    rd: lb,
                    rs1: self.r_block_idx,
                    rs2: lb,
                });
                Some(lb)
            } else {
                None
            };
            // t1 = blockIdx(local) * shared_bytes
            self.asm.li(t1, sh_bytes);
            self.asm.push(Instr::MulDiv {
                op: MulOp::Mul,
                rd: t1,
                rs1: local.unwrap_or(self.r_block_idx),
                rs2: t1,
            });
            if let Some(lb) = local {
                self.free.push(lb);
            }
            let base = if self.purecap() { self.cap_scratch()? } else { self.temp()? };
            if self.purecap() {
                self.asm.push(Instr::CSpecialRw { cd: base, cs1: ZERO, scr: scr::SHARED });
                self.ptr_add(base, base, t1);
            } else {
                self.asm.li(base, map::SCRATCH_BASE);
                self.op(AluOp::Add, base, base, t1);
            }
            let mut off = 0u32;
            for (i, s) in self.k.shared.iter().enumerate() {
                let r = match self.shared[i] {
                    Loc::Reg(r) | Loc::FatConst(r, _) => r,
                    other => return Err(CompileError::Type(format!("shared home {other:?}"))),
                };
                self.ptr_addi(r, base, off as i32);
                if self.purecap() {
                    let len = s.elem.bytes() * s.len;
                    if len < 4096 {
                        self.asm.push(Instr::CSetBoundsImm { cd: r, cs1: r, imm: len });
                    } else {
                        self.asm.li(t1, len);
                        self.asm.push(Instr::CSetBounds { cd: r, cs1: r, rs2: t1 });
                    }
                }
                off += (s.elem.bytes() * s.len).next_multiple_of(8);
            }
            self.free_scratch(base);
        }
        Ok(())
    }

    /// Per-thread stack pointer, only when variables spilled.
    fn prologue_stack(&mut self, t0: Reg, t1: Reg) -> Result<(), CompileError> {
        if self.stack_bytes > 0 {
            if !self.plan.stack_size.is_power_of_two() {
                return Err(CompileError::Unsupported(format!(
                    "stack size {} is not a power of two",
                    self.plan.stack_size
                )));
            }
            let log2 = self.plan.stack_size.trailing_zeros() as i32;
            self.opi(AluOp::Sll, t1, t0, log2); // hart * stack_size
            if self.purecap() {
                // The stack capability is bounded to the whole stack arena
                // (as in the paper's NoCL port): every thread shares the
                // same bounds *metadata* — only the address diverges — so
                // the metadata register file keeps SP fully compressed.
                self.asm.push(Instr::CSpecialRw { cd: SP, cs1: ZERO, scr: scr::STACK });
                let b = self.temp()?;
                self.asm.li(b, self.plan.stack_top);
                self.op(AluOp::Sub, b, b, t1);
                self.asm.push(Instr::CSetAddr { cd: SP, cs1: SP, rs2: b });
                self.free.push(b);
            } else {
                self.asm.li(SP, self.plan.stack_top);
                self.op(AluOp::Sub, SP, SP, t1);
            }
        }
        Ok(())
    }

    // ---- Block loop ----

    fn block_loop(&mut self) -> Result<(), CompileError> {
        let exit = self.asm.label();
        let head = self.asm.here();
        self.asm.branch(BranchCond::Geu, self.r_block_idx, self.r_grid_dim, exit);
        self.gen_block(&self.k.body.clone())?;
        if self.k.uses_shared_or_barrier() {
            self.asm.barrier();
        }
        self.op(AluOp::Add, self.r_block_idx, self.r_block_idx, self.r_blocks_per_sm);
        self.asm.jump(head);
        self.asm.bind(exit);
        self.asm.terminate();
        if self.trap_used {
            self.asm.bind(self.trap);
            self.asm.push(Instr::Ebreak); // Rust panic: bounds check failed
        }
        Ok(())
    }

    fn gen_block(&mut self, stmts: &[Stmt]) -> Result<(), CompileError> {
        for s in stmts {
            self.gen_stmt(s)?;
        }
        Ok(())
    }

    fn gen_stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Assign(id, e) => {
                let home = self.vars[*id];
                self.gen_expr_to(e, home)?;
            }
            Stmt::Store { ptr, index, value } => {
                self.gen_store(ptr, index, value)?;
            }
            Stmt::Barrier => self.asm.barrier(),
            Stmt::Atomic { op, ptr, index, value } => {
                let (addr, addr_owned) = self.gen_address(ptr, index)?;
                let v = self.gen_expr(value)?;
                let vr = self.scalar_reg(&v)?;
                self.asm.push(Instr::Amo { op: *op, rd: ZERO, rs1: addr, rs2: vr });
                self.release(v);
                if addr_owned {
                    self.free.push(addr);
                }
            }
            Stmt::If { cond, then_, else_ } => {
                if else_.is_empty() {
                    let end = self.asm.label();
                    self.gen_branch_if_false(cond, end)?;
                    self.gen_block(then_)?;
                    self.asm.bind(end);
                } else {
                    let l_else = self.asm.label();
                    let end = self.asm.label();
                    self.gen_branch_if_false(cond, l_else)?;
                    self.gen_block(then_)?;
                    self.asm.jump(end);
                    self.asm.bind(l_else);
                    self.gen_block(else_)?;
                    self.asm.bind(end);
                }
            }
            Stmt::While { cond, body } => {
                let end = self.asm.label();
                let head = self.asm.here();
                self.gen_branch_if_false(cond, end)?;
                self.gen_block(body)?;
                self.asm.jump(head);
                self.asm.bind(end);
            }
        }
        Ok(())
    }

    // ---- Branch generation (fused compare-and-branch) ----

    fn gen_branch_if_false(&mut self, cond: &Expr, target: Label) -> Result<(), CompileError> {
        if let Expr::Bin(BinOp::Cmp(op), a, b) = cond {
            if a.ty().is_int() || matches!(a.ty(), Ty::Ptr(_)) {
                let unsigned = a.ty() != Ty::I32;
                let va = self.gen_expr(a)?;
                let vb = self.gen_expr(b)?;
                let ra = self.scalar_reg(&va)?;
                let rb = self.scalar_reg(&vb)?;
                // Branch on the *negation* of the comparison.
                let (cond, rs1, rs2) = match (op, unsigned) {
                    (CmpOp::Eq, _) => (BranchCond::Ne, ra, rb),
                    (CmpOp::Ne, _) => (BranchCond::Eq, ra, rb),
                    (CmpOp::Lt, false) => (BranchCond::Ge, ra, rb),
                    (CmpOp::Lt, true) => (BranchCond::Geu, ra, rb),
                    (CmpOp::Ge, false) => (BranchCond::Lt, ra, rb),
                    (CmpOp::Ge, true) => (BranchCond::Ltu, ra, rb),
                    (CmpOp::Gt, false) => (BranchCond::Ge, rb, ra),
                    (CmpOp::Gt, true) => (BranchCond::Geu, rb, ra),
                    (CmpOp::Le, false) => (BranchCond::Lt, rb, ra),
                    (CmpOp::Le, true) => (BranchCond::Ltu, rb, ra),
                };
                self.asm.branch(cond, rs1, rs2, target);
                self.release(vb);
                self.release(va);
                return Ok(());
            }
        }
        let v = self.gen_expr(cond)?;
        let r = self.scalar_reg(&v)?;
        self.asm.beqz(r, target);
        self.release(v);
        Ok(())
    }

    // ---- Expression generation ----

    fn as_const(e: &Expr) -> Option<i64> {
        match e {
            Expr::Int(v, _) => Some(*v),
            _ => None,
        }
    }

    /// The single scalar register of a value (loading spilled slots).
    fn scalar_reg(&mut self, v: &Val) -> Result<Reg, CompileError> {
        match v.loc {
            Loc::Reg(r) => Ok(r),
            other => Err(CompileError::Type(format!("expected scalar register, got {other:?}"))),
        }
    }

    /// Generate `e` into a fresh (or pinned) location and return it.
    fn gen_expr(&mut self, e: &Expr) -> Result<Val, CompileError> {
        match e {
            Expr::Int(0, t) if !matches!(t, Ty::Ptr(_)) => {
                Ok(Val { loc: Loc::Reg(ZERO), owned: false })
            }
            Expr::Int(v, _) => {
                let t = self.temp()?;
                self.asm.li(t, *v as u32);
                Ok(Val { loc: Loc::Reg(t), owned: true })
            }
            Expr::F32(v) => {
                let t = self.temp()?;
                self.asm.li(t, v.to_bits());
                Ok(Val { loc: Loc::Reg(t), owned: true })
            }
            Expr::Special(s) => {
                let r = match s {
                    Special::ThreadIdx => self.r_thread_idx,
                    Special::BlockIdx => self.r_block_idx,
                    Special::BlockDim => self.r_block_dim,
                    Special::GridDim => self.r_grid_dim,
                };
                Ok(Val { loc: Loc::Reg(r), owned: false })
            }
            Expr::Var(id, _) => {
                let home = self.vars[*id];
                match home {
                    Loc::Slot(off) => {
                        let t = self.temp()?;
                        self.asm.push(Instr::Load {
                            w: LoadWidth::W,
                            rd: t,
                            rs1: SP,
                            off: -(off as i32),
                        });
                        Ok(Val { loc: Loc::Reg(t), owned: true })
                    }
                    Loc::FatSlot(off) => {
                        let a = self.temp()?;
                        let l = self.temp()?;
                        self.asm.push(Instr::Load {
                            w: LoadWidth::W,
                            rd: a,
                            rs1: SP,
                            off: -(off as i32),
                        });
                        self.asm.push(Instr::Load {
                            w: LoadWidth::W,
                            rd: l,
                            rs1: SP,
                            off: -(off as i32) + 4,
                        });
                        Ok(Val { loc: Loc::Fat(a, l), owned: true })
                    }
                    loc => Ok(Val { loc, owned: false }),
                }
            }
            Expr::Param(id, _) => Ok(Val { loc: self.params[*id], owned: false }),
            Expr::Shared(id, _) => Ok(Val { loc: self.shared[*id], owned: false }),
            Expr::Bin(..) | Expr::Un(..) | Expr::Load(..) | Expr::PtrOffset(..) => {
                let dst = self.alloc_for(e)?;
                self.gen_expr_to(e, dst)?;
                Ok(Val { loc: dst, owned: true })
            }
        }
    }

    /// Allocate a destination location suitable for `e`'s type.
    fn alloc_for(&mut self, e: &Expr) -> Result<Loc, CompileError> {
        match e.ty() {
            Ty::Ptr(_) if self.mode.fat_pointers() => {
                let a = self.temp()?;
                let l = self.temp()?;
                Ok(Loc::Fat(a, l))
            }
            Ty::Ptr(_) if self.purecap() && self.cap_pool.is_some() => {
                let (r, _) = self.addr_temp(e)?;
                Ok(Loc::Reg(r))
            }
            _ => Ok(Loc::Reg(self.temp()?)),
        }
    }

    /// Generate `e` into the given destination.
    fn gen_expr_to(&mut self, e: &Expr, dst: Loc) -> Result<(), CompileError> {
        // Spilled destinations: generate to temps, then store.
        match dst {
            Loc::Slot(off) => {
                let v = self.gen_expr(e)?;
                let r = self.scalar_reg(&v)?;
                self.asm.push(Instr::Store {
                    w: StoreWidth::W,
                    rs2: r,
                    rs1: SP,
                    off: -(off as i32),
                });
                self.release(v);
                return Ok(());
            }
            Loc::FatSlot(off) => {
                let v = self.gen_expr(e)?;
                let (a, l) = self.fat_regs(&v)?;
                self.asm.push(Instr::Store {
                    w: StoreWidth::W,
                    rs2: a,
                    rs1: SP,
                    off: -(off as i32),
                });
                self.asm.push(Instr::Store {
                    w: StoreWidth::W,
                    rs2: l,
                    rs1: SP,
                    off: -(off as i32) + 4,
                });
                self.release_fat_temp(v, l);
                return Ok(());
            }
            _ => {}
        }

        match e {
            Expr::Bin(op, a, b) => self.gen_bin(*op, a, b, dst),
            Expr::Un(op, a) => self.gen_un(*op, a, dst),
            Expr::Load(p, idx) => self.gen_load(p, idx, dst),
            Expr::PtrOffset(p, idx) => self.gen_ptr_offset(p, idx, dst),
            // Leaves: generate and move into dst.
            _ => {
                let v = self.gen_expr(e)?;
                self.move_into(dst, &v, matches!(e.ty(), Ty::Ptr(_)))?;
                self.release(v);
                Ok(())
            }
        }
    }

    fn fat_regs(&mut self, v: &Val) -> Result<(Reg, Reg), CompileError> {
        match v.loc {
            Loc::Fat(a, l) => Ok((a, l)),
            Loc::FatConst(a, len) => {
                let l = self.temp()?;
                self.asm.li(l, len);
                Ok((a, l))
            }
            other => Err(CompileError::Type(format!("expected fat pointer, got {other:?}"))),
        }
    }

    fn release_fat_temp(&mut self, v: Val, l: Reg) {
        // If fat_regs materialised a length temp for a FatConst, free it.
        if matches!(v.loc, Loc::FatConst(..)) {
            self.free.push(l);
        }
        self.release(v);
    }

    fn move_into(&mut self, dst: Loc, v: &Val, is_ptr: bool) -> Result<(), CompileError> {
        match (dst, v.loc) {
            (Loc::Reg(d), Loc::Reg(s)) => {
                if is_ptr {
                    self.mv_ptr(d, s);
                } else {
                    self.mv(d, s);
                }
                Ok(())
            }
            (Loc::Fat(da, dl), Loc::Fat(sa, sl)) => {
                self.mv(da, sa);
                self.mv(dl, sl);
                Ok(())
            }
            (Loc::Fat(da, dl), Loc::FatConst(sa, len)) => {
                self.mv(da, sa);
                self.asm.li(dl, len);
                Ok(())
            }
            (d, s) => Err(CompileError::Type(format!("move {s:?} -> {d:?}"))),
        }
    }

    fn gen_bin(&mut self, op: BinOp, a: &Expr, b: &Expr, dst: Loc) -> Result<(), CompileError> {
        let ty = a.ty();
        let d = match dst {
            Loc::Reg(d) => d,
            other => return Err(CompileError::Type(format!("binop into {other:?}"))),
        };
        if ty == Ty::F32 {
            return self.gen_fbin(op, a, b, d);
        }
        let unsigned = ty != Ty::I32;

        // Immediate forms.
        if let Some(c) = Self::as_const(b) {
            let fits = (-2048..=2047).contains(&c);
            match op {
                BinOp::Add if fits => {
                    let va = self.gen_expr(a)?;
                    let ra = self.scalar_reg(&va)?;
                    self.opi(AluOp::Add, d, ra, c as i32);
                    self.release(va);
                    return Ok(());
                }
                BinOp::Sub if (-2047..=2048).contains(&c) => {
                    let va = self.gen_expr(a)?;
                    let ra = self.scalar_reg(&va)?;
                    self.opi(AluOp::Add, d, ra, -(c as i32));
                    self.release(va);
                    return Ok(());
                }
                BinOp::And | BinOp::Or | BinOp::Xor if fits => {
                    let alu = match op {
                        BinOp::And => AluOp::And,
                        BinOp::Or => AluOp::Or,
                        _ => AluOp::Xor,
                    };
                    let va = self.gen_expr(a)?;
                    let ra = self.scalar_reg(&va)?;
                    self.opi(alu, d, ra, c as i32);
                    self.release(va);
                    return Ok(());
                }
                BinOp::Shl | BinOp::Shr if (0..32).contains(&c) => {
                    let alu = match (op, unsigned) {
                        (BinOp::Shl, _) => AluOp::Sll,
                        (BinOp::Shr, true) => AluOp::Srl,
                        (BinOp::Shr, false) => AluOp::Sra,
                        _ => unreachable!(),
                    };
                    let va = self.gen_expr(a)?;
                    let ra = self.scalar_reg(&va)?;
                    self.opi(alu, d, ra, c as i32);
                    self.release(va);
                    return Ok(());
                }
                BinOp::Mul if c > 0 && (c as u64).is_power_of_two() => {
                    let va = self.gen_expr(a)?;
                    let ra = self.scalar_reg(&va)?;
                    self.opi(AluOp::Sll, d, ra, (c as u64).trailing_zeros() as i32);
                    self.release(va);
                    return Ok(());
                }
                BinOp::Div if unsigned && c > 0 && (c as u64).is_power_of_two() => {
                    let va = self.gen_expr(a)?;
                    let ra = self.scalar_reg(&va)?;
                    self.opi(AluOp::Srl, d, ra, (c as u64).trailing_zeros() as i32);
                    self.release(va);
                    return Ok(());
                }
                BinOp::Rem if unsigned && c > 0 && (c as u64).is_power_of_two() && c <= 2048 => {
                    let va = self.gen_expr(a)?;
                    let ra = self.scalar_reg(&va)?;
                    self.opi(AluOp::And, d, ra, (c - 1) as i32);
                    self.release(va);
                    return Ok(());
                }
                _ => {}
            }
        }

        let va = self.gen_expr(a)?;
        let vb = self.gen_expr(b)?;
        let ra = self.scalar_reg(&va)?;
        let rb = self.scalar_reg(&vb)?;
        match op {
            BinOp::Add => self.op(AluOp::Add, d, ra, rb),
            BinOp::Sub => self.op(AluOp::Sub, d, ra, rb),
            BinOp::And => self.op(AluOp::And, d, ra, rb),
            BinOp::Or => self.op(AluOp::Or, d, ra, rb),
            BinOp::Xor => self.op(AluOp::Xor, d, ra, rb),
            BinOp::Shl => self.op(AluOp::Sll, d, ra, rb),
            BinOp::Shr => self.op(if unsigned { AluOp::Srl } else { AluOp::Sra }, d, ra, rb),
            BinOp::Mul => self.asm.push(Instr::MulDiv { op: MulOp::Mul, rd: d, rs1: ra, rs2: rb }),
            BinOp::Div => self.asm.push(Instr::MulDiv {
                op: if unsigned { MulOp::Divu } else { MulOp::Div },
                rd: d,
                rs1: ra,
                rs2: rb,
            }),
            BinOp::Rem => self.asm.push(Instr::MulDiv {
                op: if unsigned { MulOp::Remu } else { MulOp::Rem },
                rd: d,
                rs1: ra,
                rs2: rb,
            }),
            BinOp::Min | BinOp::Max => {
                // min/max via compare+select: slt t, a, b; branchless with
                // xor trick is longer; use a short branch.
                let take_a = self.asm.label();
                let end = self.asm.label();
                let lt = if unsigned { BranchCond::Ltu } else { BranchCond::Lt };
                let (x, y) = if op == BinOp::Min { (ra, rb) } else { (rb, ra) };
                self.asm.branch(lt, x, y, take_a);
                self.mv(d, rb);
                self.asm.jump(end);
                self.asm.bind(take_a);
                self.mv(d, ra);
                self.asm.bind(end);
                // For Max the roles are swapped via (x, y) above: branch
                // taken when the maximum is `ra`.
            }
            BinOp::Cmp(c) => self.gen_cmp(c, d, ra, rb, unsigned),
        }
        self.release(vb);
        self.release(va);
        Ok(())
    }

    fn gen_cmp(&mut self, c: CmpOp, d: Reg, ra: Reg, rb: Reg, unsigned: bool) {
        let slt = if unsigned { AluOp::Sltu } else { AluOp::Slt };
        match c {
            CmpOp::Lt => self.op(slt, d, ra, rb),
            CmpOp::Gt => self.op(slt, d, rb, ra),
            CmpOp::Ge => {
                self.op(slt, d, ra, rb);
                self.opi(AluOp::Xor, d, d, 1);
            }
            CmpOp::Le => {
                self.op(slt, d, rb, ra);
                self.opi(AluOp::Xor, d, d, 1);
            }
            CmpOp::Eq => {
                self.op(AluOp::Xor, d, ra, rb);
                self.opi(AluOp::Sltu, d, d, 1);
            }
            CmpOp::Ne => {
                self.op(AluOp::Xor, d, ra, rb);
                self.op(AluOp::Sltu, d, ZERO, d);
            }
        }
    }

    fn gen_fbin(&mut self, op: BinOp, a: &Expr, b: &Expr, d: Reg) -> Result<(), CompileError> {
        let va = self.gen_expr(a)?;
        let vb = self.gen_expr(b)?;
        let ra = self.scalar_reg(&va)?;
        let rb = self.scalar_reg(&vb)?;
        match op {
            BinOp::Add => self.asm.push(Instr::FOp { op: FpOp::Add, rd: d, rs1: ra, rs2: rb }),
            BinOp::Sub => self.asm.push(Instr::FOp { op: FpOp::Sub, rd: d, rs1: ra, rs2: rb }),
            BinOp::Mul => self.asm.push(Instr::FOp { op: FpOp::Mul, rd: d, rs1: ra, rs2: rb }),
            BinOp::Div => self.asm.push(Instr::FOp { op: FpOp::Div, rd: d, rs1: ra, rs2: rb }),
            BinOp::Min => self.asm.push(Instr::FOp { op: FpOp::Min, rd: d, rs1: ra, rs2: rb }),
            BinOp::Max => self.asm.push(Instr::FOp { op: FpOp::Max, rd: d, rs1: ra, rs2: rb }),
            BinOp::Cmp(c) => {
                let (fop, negate, swap) = match c {
                    CmpOp::Eq => (FcmpOp::Eq, false, false),
                    CmpOp::Ne => (FcmpOp::Eq, true, false),
                    CmpOp::Lt => (FcmpOp::Lt, false, false),
                    CmpOp::Le => (FcmpOp::Le, false, false),
                    CmpOp::Gt => (FcmpOp::Lt, false, true),
                    CmpOp::Ge => (FcmpOp::Le, false, true),
                };
                let (x, y) = if swap { (rb, ra) } else { (ra, rb) };
                self.asm.push(Instr::FCmp { op: fop, rd: d, rs1: x, rs2: y });
                if negate {
                    self.opi(AluOp::Xor, d, d, 1);
                }
            }
            other => {
                return Err(CompileError::Type(format!("float operator {other:?}")));
            }
        }
        self.release(vb);
        self.release(va);
        Ok(())
    }

    fn gen_un(&mut self, op: UnOp, a: &Expr, dst: Loc) -> Result<(), CompileError> {
        let d = match dst {
            Loc::Reg(d) => d,
            other => return Err(CompileError::Type(format!("unary into {other:?}"))),
        };
        let va = self.gen_expr(a)?;
        let ra = self.scalar_reg(&va)?;
        match op {
            UnOp::Neg => {
                if a.ty() == Ty::F32 {
                    // Flip the sign bit.
                    let t = self.temp()?;
                    self.asm.li(t, 0x8000_0000);
                    self.op(AluOp::Xor, d, ra, t);
                    self.free.push(t);
                } else {
                    self.op(AluOp::Sub, d, ZERO, ra);
                }
            }
            UnOp::Not => self.opi(AluOp::Xor, d, ra, -1),
            UnOp::Sqrt => self.asm.push(Instr::FSqrt { rd: d, rs1: ra }),
            UnOp::AsU32 | UnOp::AsI32 => self.mv(d, ra),
        }
        self.release(va);
        Ok(())
    }

    // ---- Memory access ----

    /// Generate the address of `ptr[index]` into a register (a capability
    /// under CHERI). Emits the Rust bounds check when required. Returns the
    /// register and whether it is an owned temp.
    fn gen_address(&mut self, ptr: &Expr, index: &Expr) -> Result<(Reg, bool), CompileError> {
        let elem = match ptr.ty() {
            Ty::Ptr(e) => e,
            t => return Err(CompileError::Type(format!("address of non-pointer {t:?}"))),
        };
        let sz = elem.bytes();
        let log2 = sz.trailing_zeros() as i32;
        let vp = self.gen_expr(ptr)?;

        // Rust modes: bounds check against the fat pointer's length.
        if self.mode.fat_pointers() {
            let (pa, plen_reg, plen_const) = match vp.loc {
                Loc::Fat(a, l) => (a, Some(l), None),
                Loc::FatConst(a, l) => (a, None, Some(l)),
                other => {
                    return Err(CompileError::Type(format!("fat pointer expected: {other:?}")))
                }
            };
            let statically_safe = match (Self::as_const(index), plen_const) {
                (Some(i), Some(len)) => i >= 0 && (i as u64) < len as u64,
                _ => false,
            };
            if !statically_safe {
                let vi = self.gen_expr(index)?;
                let ri = self.scalar_reg(&vi)?;
                let t = self.temp()?;
                match (plen_reg, plen_const) {
                    (Some(l), _) => self.op(AluOp::Sltu, t, ri, l),
                    (None, Some(len)) if len <= 2047 => self.opi(AluOp::Sltu, t, ri, len as i32),
                    (None, Some(len)) => {
                        self.asm.li(t, len);
                        self.op(AluOp::Sltu, t, ri, t);
                    }
                    (None, None) => unreachable!(),
                }
                self.trap_used = true;
                self.asm.beqz(t, self.trap);
                self.free.push(t);
                // RustFull: model the residual port costs — the address is
                // re-materialised instead of reusing prior arithmetic.
                if self.mode == Mode::RustFull {
                    let t2 = self.temp()?;
                    self.opi(AluOp::Add, t2, ri, 0);
                    self.free.push(t2);
                }
                // Compute the address from the checked index.
                let addr = self.temp()?;
                if log2 > 0 {
                    self.opi(AluOp::Sll, addr, ri, log2);
                    self.op(AluOp::Add, addr, pa, addr);
                } else {
                    self.op(AluOp::Add, addr, pa, ri);
                }
                self.release(vi);
                self.release(vp);
                return Ok((addr, true));
            }
            // Statically safe constant index.
            let c = Self::as_const(index).unwrap() * sz as i64;
            if c == 0 {
                if !vp.owned {
                    return Ok((pa, false));
                }
                // Owned fat temp: free the length half only.
                if let Loc::Fat(_, l) = vp.loc {
                    self.free.push(l);
                }
                return Ok((pa, true));
            }
            let addr = self.temp()?;
            if (-2048..=2047).contains(&c) {
                self.opi(AluOp::Add, addr, pa, c as i32);
            } else {
                self.asm.li(addr, c as u32);
                self.op(AluOp::Add, addr, pa, addr);
            }
            self.release(vp);
            return Ok((addr, true));
        }

        // Baseline / PureCap: thin pointers.
        let pr = self.scalar_reg(&vp)?;
        if let Some(i) = Self::as_const(index) {
            let off = i * sz as i64;
            if off == 0 {
                // Use the pointer register directly.
                return Ok((pr, vp.owned));
            }
            if (-2048..=2047).contains(&off) {
                let (addr, owned) = self.addr_temp(ptr)?;
                self.ptr_addi(addr, pr, off as i32);
                self.release(vp);
                return Ok((addr, owned));
            }
        }
        let vi = self.gen_expr(index)?;
        let ri = self.scalar_reg(&vi)?;
        let (addr, owned) = self.addr_temp(ptr)?;
        if log2 > 0 {
            // Shift into a scratch first: `addr` may alias `pr` when both
            // come from the same role-stable register.
            let t = self.temp()?;
            self.opi(AluOp::Sll, t, ri, log2);
            self.ptr_add(addr, pr, t);
            self.free.push(t);
        } else {
            self.ptr_add(addr, pr, ri);
        }
        self.release(vi);
        self.release(vp);
        Ok((addr, owned))
    }

    fn gen_load(&mut self, ptr: &Expr, index: &Expr, dst: Loc) -> Result<(), CompileError> {
        let elem = match ptr.ty() {
            Ty::Ptr(e) => e,
            t => return Err(CompileError::Type(format!("load through {t:?}"))),
        };
        let d = match dst {
            Loc::Reg(d) => d,
            other => return Err(CompileError::Type(format!("load into {other:?}"))),
        };
        let (addr, owned) = self.gen_address(ptr, index)?;
        let w = match elem {
            Elem::I8 => LoadWidth::B,
            Elem::U8 => LoadWidth::Bu,
            Elem::I16 => LoadWidth::H,
            Elem::U16 => LoadWidth::Hu,
            Elem::I32 | Elem::U32 | Elem::F32 => LoadWidth::W,
        };
        self.asm.push(Instr::Load { w, rd: d, rs1: addr, off: 0 });
        if owned {
            self.free.push(addr);
        }
        Ok(())
    }

    fn gen_store(&mut self, ptr: &Expr, index: &Expr, value: &Expr) -> Result<(), CompileError> {
        let elem = match ptr.ty() {
            Ty::Ptr(e) => e,
            t => return Err(CompileError::Type(format!("store through {t:?}"))),
        };
        let vv = self.gen_expr(value)?;
        let rv = self.scalar_reg(&vv)?;
        let (addr, owned) = self.gen_address(ptr, index)?;
        let w = match elem {
            Elem::I8 | Elem::U8 => StoreWidth::B,
            Elem::I16 | Elem::U16 => StoreWidth::H,
            Elem::I32 | Elem::U32 | Elem::F32 => StoreWidth::W,
        };
        self.asm.push(Instr::Store { w, rs2: rv, rs1: addr, off: 0 });
        if owned {
            self.free.push(addr);
        }
        self.release(vv);
        Ok(())
    }

    fn gen_ptr_offset(&mut self, ptr: &Expr, index: &Expr, dst: Loc) -> Result<(), CompileError> {
        let elem = match ptr.ty() {
            Ty::Ptr(e) => e,
            t => return Err(CompileError::Type(format!("offset of {t:?}"))),
        };
        let log2 = elem.bytes().trailing_zeros() as i32;
        let vp = self.gen_expr(ptr)?;
        let vi = self.gen_expr(index)?;
        let ri = self.scalar_reg(&vi)?;
        match dst {
            Loc::Reg(d) => {
                let pr = self.scalar_reg(&vp)?;
                if log2 > 0 {
                    let t = self.temp()?;
                    self.opi(AluOp::Sll, t, ri, log2);
                    self.ptr_add(d, pr, t);
                    self.free.push(t);
                } else {
                    self.ptr_add(d, pr, ri);
                }
            }
            Loc::Fat(da, dl) => {
                let (pa, pl) = self.fat_regs(&vp)?;
                // addr' = addr + idx*sz; len' = len - idx (Rust re-slicing).
                if log2 > 0 {
                    let t = self.temp()?;
                    self.opi(AluOp::Sll, t, ri, log2);
                    self.op(AluOp::Add, da, pa, t);
                    self.free.push(t);
                } else {
                    self.op(AluOp::Add, da, pa, ri);
                }
                self.op(AluOp::Sub, dl, pl, ri);
                self.release_fat_temp(vp, pl);
                self.release(vi);
                return Ok(());
            }
            other => return Err(CompileError::Type(format!("ptr offset into {other:?}"))),
        }
        self.release(vi);
        self.release(vp);
        Ok(())
    }
}
