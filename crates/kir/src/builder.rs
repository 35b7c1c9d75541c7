//! The ergonomic kernel builder — the NoCL-equivalent authoring surface.

use crate::expr::*;

/// Builds a [`Kernel`] with CUDA-style structure.
///
/// Control flow is expressed with closures over the builder: each closure
/// runs on a fresh body swapped in for the enclosing one, so statements land
/// in the innermost open block. Misuse (assigning to a non-variable) is
/// recorded, not panicked on; compiling the kernel reports it.
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    params: Vec<ParamDecl>,
    shared: Vec<SharedDecl>,
    vars: Vec<Ty>,
    var_names: Vec<String>,
    body: Vec<Stmt>,
    misuse: Option<String>,
}

impl KernelBuilder {
    /// Start a kernel.
    pub fn new(name: &str) -> Self {
        KernelBuilder {
            name: name.to_string(),
            params: Vec::new(),
            shared: Vec::new(),
            vars: Vec::new(),
            var_names: Vec::new(),
            body: Vec::new(),
            misuse: None,
        }
    }

    // ---- Declarations ----

    /// Declare a `u32` parameter; returns the expression reading it.
    pub fn param_u32(&mut self, name: &str) -> Expr {
        self.param(name, Ty::U32)
    }

    /// Declare an `i32` parameter.
    pub fn param_i32(&mut self, name: &str) -> Expr {
        self.param(name, Ty::I32)
    }

    /// Declare an `f32` parameter.
    pub fn param_f32(&mut self, name: &str) -> Expr {
        self.param(name, Ty::F32)
    }

    /// Declare a pointer parameter (a device buffer).
    pub fn param_ptr(&mut self, name: &str, elem: Elem) -> Expr {
        self.param(name, Ty::Ptr(elem))
    }

    fn param(&mut self, name: &str, ty: Ty) -> Expr {
        self.params.push(ParamDecl { name: name.to_string(), ty });
        Expr::Param(self.params.len() - 1, ty)
    }

    /// Declare a shared local array (`declareShared` in NoCL, `__shared__`
    /// in CUDA); returns its base pointer.
    pub fn shared(&mut self, name: &str, elem: Elem, len: u32) -> Expr {
        self.shared.push(SharedDecl { name: name.to_string(), elem, len });
        Expr::Shared(self.shared.len() - 1, elem)
    }

    /// Declare a local variable of the given type, initialised to zero.
    pub fn var(&mut self, name: &str, ty: Ty) -> Expr {
        self.vars.push(ty);
        self.var_names.push(name.to_string());
        Expr::Var(self.vars.len() - 1, ty)
    }

    /// Declare a `u32` local variable.
    pub fn var_u32(&mut self, name: &str) -> Expr {
        self.var(name, Ty::U32)
    }

    /// Declare an `i32` local variable.
    pub fn var_i32(&mut self, name: &str) -> Expr {
        self.var(name, Ty::I32)
    }

    /// Declare an `f32` local variable.
    pub fn var_f32(&mut self, name: &str) -> Expr {
        self.var(name, Ty::F32)
    }

    /// Declare a pointer-typed local variable (for pointer-select patterns
    /// like BlkStencil's).
    pub fn var_ptr(&mut self, name: &str, elem: Elem) -> Expr {
        self.var(name, Ty::Ptr(elem))
    }

    // ---- Built-ins ----

    /// `threadIdx.x`
    pub fn thread_idx(&self) -> Expr {
        Expr::Special(Special::ThreadIdx)
    }

    /// `blockIdx.x`
    pub fn block_idx(&self) -> Expr {
        Expr::Special(Special::BlockIdx)
    }

    /// `blockDim.x`
    pub fn block_dim(&self) -> Expr {
        Expr::Special(Special::BlockDim)
    }

    /// `gridDim.x`
    fn grid_dim(&self) -> Expr {
        Expr::Special(Special::GridDim)
    }

    /// `blockIdx.x * blockDim.x + threadIdx.x`
    pub fn global_id(&self) -> Expr {
        self.block_idx() * self.block_dim() + self.thread_idx()
    }

    /// `gridDim.x * blockDim.x` (grid-stride loop step).
    pub fn global_threads(&self) -> Expr {
        self.grid_dim() * self.block_dim()
    }

    // ---- Statements ----

    fn emit(&mut self, s: Stmt) {
        self.body.push(s);
    }

    /// Run `build` on a fresh body and return what it emitted.
    fn block(&mut self, build: impl FnOnce(&mut Self)) -> Vec<Stmt> {
        let outer = std::mem::take(&mut self.body);
        build(self);
        std::mem::replace(&mut self.body, outer)
    }

    /// `var = value`. A target other than a variable is a misuse, which
    /// compiling the kernel reports as a type error.
    pub fn assign(&mut self, var: &Expr, value: Expr) {
        match var {
            Expr::Var(id, _) => self.emit(Stmt::Assign(*id, value)),
            other => self.record_misuse(format!("assign target must be a variable, got {other:?}")),
        }
    }

    /// Record a misuse; compiling the kernel reports the first one.
    fn record_misuse(&mut self, what: String) {
        self.misuse.get_or_insert(what);
    }

    /// `ptr[index] = value`.
    pub fn store(&mut self, ptr: &Expr, index: Expr, value: Expr) {
        self.emit(Stmt::Store { ptr: ptr.clone(), index, value });
    }

    /// `__syncthreads()`.
    pub fn barrier(&mut self) {
        self.emit(Stmt::Barrier);
    }

    /// `atomicAdd(&ptr[index], value)` (result discarded).
    pub fn atomic_add(&mut self, ptr: &Expr, index: Expr, value: Expr) {
        self.emit(Stmt::Atomic { op: simt_isa::AmoOp::Add, ptr: ptr.clone(), index, value });
    }

    /// `if cond { then }`.
    pub fn if_(&mut self, cond: Expr, then_: impl FnOnce(&mut Self)) {
        let then_ = self.block(then_);
        self.emit(Stmt::If { cond, then_, else_: Vec::new() });
    }

    /// `if cond { then } else { else }`.
    pub fn if_else(
        &mut self,
        cond: Expr,
        then_: impl FnOnce(&mut Self),
        else_: impl FnOnce(&mut Self),
    ) {
        let then_ = self.block(then_);
        let else_ = self.block(else_);
        self.emit(Stmt::If { cond, then_, else_ });
    }

    /// `while cond { body }`.
    pub fn while_(&mut self, cond: Expr, body: impl FnOnce(&mut Self)) {
        let body = self.block(body);
        self.emit(Stmt::While { cond, body });
    }

    /// CUDA-style strided for loop: `for (var = init; var < bound; var +=
    /// step) { body }` with an unsigned comparison. A `var` other than a
    /// variable is a misuse, as for [`Self::assign`].
    pub fn for_(
        &mut self,
        var: Expr,
        init: Expr,
        bound: Expr,
        step: Expr,
        body: impl FnOnce(&mut Self),
    ) {
        let Expr::Var(id, _) = var else {
            return self.record_misuse(format!("loop variable must be a variable, got {var:?}"));
        };
        self.emit(Stmt::Assign(id, init));
        let mut body = self.block(body);
        body.push(Stmt::Assign(id, var.clone() + step));
        self.emit(Stmt::While { cond: var.lt(bound), body });
    }

    /// Finish building.
    pub fn finish(self) -> Kernel {
        Kernel {
            name: self.name,
            params: self.params,
            shared: self.shared,
            vars: self.vars,
            var_names: self.var_names,
            body: self.body,
            misuse: self.misuse,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_structured_kernels() {
        let mut k = KernelBuilder::new("t");
        let len = k.param_u32("len");
        let p = k.param_ptr("p", Elem::I32);
        let s = k.shared("tile", Elem::I32, 64);
        let i = k.var_u32("i");
        k.for_(i.clone(), k.thread_idx(), len, k.block_dim(), |k| {
            k.store(&s, i.clone() & Expr::u32(63), p.at(i.clone()));
        });
        k.barrier();
        k.if_else(
            k.thread_idx().eq_(Expr::u32(0)),
            |k| k.store(&p, Expr::u32(0), s.at(Expr::u32(0))),
            |k| k.store(&p, Expr::u32(1), Expr::i32(7)),
        );
        let kernel = k.finish();
        assert_eq!(kernel.params.len(), 2);
        assert_eq!(kernel.shared_bytes(), 256);
        assert!(kernel.uses_shared_or_barrier());
        assert_eq!(kernel.body.len(), 4); // assign, while, barrier, if
    }

    #[test]
    fn expression_types() {
        let mut k = KernelBuilder::new("t");
        let p = k.param_ptr("p", Elem::F32);
        let e = p.at(Expr::u32(0)) + Expr::f32(1.0);
        assert_eq!(e.ty(), Ty::F32);
        assert_eq!(p.offset(Expr::u32(4)).ty(), Ty::Ptr(Elem::F32));
        assert_eq!(Expr::u32(1).lt(Expr::u32(2)).ty(), Ty::U32);
    }

    #[test]
    fn indexing_scalar_is_a_type_error() {
        let mut k = KernelBuilder::new("t");
        let x = k.param_u32("x");
        let v = k.var_u32("v");
        k.assign(&v, x.at(Expr::u32(0)));
        let err = crate::compile(&k.finish(), crate::Mode::Baseline).unwrap_err();
        assert_eq!(err, crate::CompileError::Type("load through U32".into()));
    }
}
