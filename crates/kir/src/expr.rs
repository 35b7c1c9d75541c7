//! The kernel IR: types, expressions, statements, kernels.

use core::fmt;
use core::ops;

/// Memory element types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Elem {
    /// Signed byte.
    I8,
    /// Unsigned byte.
    U8,
    /// Signed half-word.
    I16,
    /// Unsigned half-word.
    U16,
    /// Signed word.
    I32,
    /// Unsigned word.
    U32,
    /// Single-precision float.
    F32,
}

impl Elem {
    /// Element size in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            Elem::I8 | Elem::U8 => 1,
            Elem::I16 | Elem::U16 => 2,
            Elem::I32 | Elem::U32 | Elem::F32 => 4,
        }
    }

    /// The scalar type an element loads as.
    pub fn loaded_ty(self) -> Ty {
        match self {
            Elem::F32 => Ty::F32,
            Elem::U8 | Elem::U16 | Elem::U32 => Ty::U32,
            Elem::I8 | Elem::I16 | Elem::I32 => Ty::I32,
        }
    }
}

/// Value types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// Signed 32-bit integer.
    I32,
    /// Unsigned 32-bit integer.
    U32,
    /// Single-precision float.
    F32,
    /// Pointer to elements of the given type.
    Ptr(Elem),
}

impl Ty {
    /// Is this an integer type?
    pub(crate) fn is_int(self) -> bool {
        matches!(self, Ty::I32 | Ty::U32)
    }
}

/// Built-in SIMT index values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Special {
    /// `threadIdx.x`
    ThreadIdx,
    /// `blockIdx.x`
    BlockIdx,
    /// `blockDim.x`
    BlockDim,
    /// `gridDim.x`
    GridDim,
}

/// Binary operators. Comparison operators yield `U32` 0/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Min,
    Max,
    Cmp(CmpOp),
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Integer negation.
    Neg,
    /// Bitwise not.
    Not,
    /// `sqrtf`
    Sqrt,
    /// Reinterpret as unsigned / change integer signedness (no code).
    AsU32,
    /// Change integer signedness to signed (no code).
    AsI32,
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal (signed or unsigned domain decided by type).
    Int(i64, Ty),
    /// Float literal.
    F32(f32),
    /// Local variable.
    Var(usize, Ty),
    /// Kernel parameter.
    Param(usize, Ty),
    /// Shared array base pointer.
    Shared(usize, Elem),
    /// Built-in index value (`U32`).
    Special(Special),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// `ptr[index]` load.
    Load(Box<Expr>, Box<Expr>),
    /// `&ptr[index]` — pointer arithmetic yielding a derived pointer.
    PtrOffset(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Unsigned literal.
    pub fn u32(v: u32) -> Expr {
        Expr::Int(v as i64, Ty::U32)
    }

    /// Signed literal.
    pub fn i32(v: i32) -> Expr {
        Expr::Int(v as i64, Ty::I32)
    }

    /// Float literal.
    pub fn f32(v: f32) -> Expr {
        Expr::F32(v)
    }

    /// The type of this expression. A load through a non-pointer has its
    /// operand's type; the code generator rejects it as a type error.
    pub(crate) fn ty(&self) -> Ty {
        match self {
            Expr::Int(_, t) | Expr::Var(_, t) | Expr::Param(_, t) => *t,
            Expr::F32(_) => Ty::F32,
            Expr::Shared(_, e) => Ty::Ptr(*e),
            Expr::Special(_) => Ty::U32,
            Expr::Bin(op, a, _) => match op {
                BinOp::Cmp(_) => Ty::U32,
                _ => a.ty(),
            },
            Expr::Un(op, a) => match op {
                UnOp::Sqrt => Ty::F32,
                UnOp::AsI32 => Ty::I32,
                UnOp::AsU32 => Ty::U32,
                UnOp::Neg | UnOp::Not => a.ty(),
            },
            Expr::Load(p, _) => match p.ty() {
                Ty::Ptr(e) => e.loaded_ty(),
                t => t,
            },
            Expr::PtrOffset(p, _) => p.ty(),
        }
    }

    /// `self[index]`: load an element through a pointer expression.
    pub fn at(&self, index: Expr) -> Expr {
        Expr::Load(Box::new(self.clone()), Box::new(index))
    }

    /// `&self[index]`: derived pointer.
    pub fn offset(&self, index: Expr) -> Expr {
        Expr::PtrOffset(Box::new(self.clone()), Box::new(index))
    }

    fn cmp(self, op: CmpOp, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Cmp(op), Box::new(self), Box::new(rhs))
    }

    /// `self == rhs` (as a 0/1 value).
    pub fn eq_(self, rhs: Expr) -> Expr {
        self.cmp(CmpOp::Eq, rhs)
    }

    /// `self != rhs`.
    pub fn ne_(self, rhs: Expr) -> Expr {
        self.cmp(CmpOp::Ne, rhs)
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Expr {
        self.cmp(CmpOp::Lt, rhs)
    }

    /// `self <= rhs`.
    pub fn le(self, rhs: Expr) -> Expr {
        self.cmp(CmpOp::Le, rhs)
    }

    /// `self > rhs`.
    pub fn gt(self, rhs: Expr) -> Expr {
        self.cmp(CmpOp::Gt, rhs)
    }

    /// `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> Expr {
        self.cmp(CmpOp::Ge, rhs)
    }

    /// Elementwise minimum.
    pub fn min(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Min, Box::new(self), Box::new(rhs))
    }

    /// Elementwise maximum.
    pub fn max(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Max, Box::new(self), Box::new(rhs))
    }

    /// Reinterpret as unsigned.
    pub fn as_u32(self) -> Expr {
        Expr::Un(UnOp::AsU32, Box::new(self))
    }

    /// Reinterpret as signed.
    pub fn as_i32(self) -> Expr {
        Expr::Un(UnOp::AsI32, Box::new(self))
    }

    /// Square root (float).
    pub fn sqrt(self) -> Expr {
        Expr::Un(UnOp::Sqrt, Box::new(self))
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl ops::$trait for Expr {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::Bin($op, Box::new(self), Box::new(rhs))
            }
        }
    };
}

impl_binop!(Add, add, BinOp::Add);
impl_binop!(Sub, sub, BinOp::Sub);
impl_binop!(Mul, mul, BinOp::Mul);
impl_binop!(Div, div, BinOp::Div);
impl_binop!(Rem, rem, BinOp::Rem);
impl_binop!(BitAnd, bitand, BinOp::And);
impl_binop!(BitOr, bitor, BinOp::Or);
impl_binop!(BitXor, bitxor, BinOp::Xor);
impl_binop!(Shl, shl, BinOp::Shl);
impl_binop!(Shr, shr, BinOp::Shr);

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Assign to a local variable.
    Assign(usize, Expr),
    /// `ptr[index] = value`.
    Store {
        /// Pointer expression.
        ptr: Expr,
        /// Element index.
        index: Expr,
        /// Value to store.
        value: Expr,
    },
    /// Two-way conditional.
    If {
        /// Condition (non-zero = true).
        cond: Expr,
        /// Then-block.
        then_: Vec<Stmt>,
        /// Else-block.
        else_: Vec<Stmt>,
    },
    /// Pre-tested loop.
    While {
        /// Continue condition.
        cond: Expr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `__syncthreads()`.
    Barrier,
    /// `atomicAdd/Min/Max/...(&ptr[index], value)`, result discarded.
    Atomic {
        /// The atomic combine operation.
        op: simt_isa::AmoOp,
        /// Pointer expression.
        ptr: Expr,
        /// Element index.
        index: Expr,
        /// Operand value.
        value: Expr,
    },
}

/// A kernel parameter declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamDecl {
    /// Name, for diagnostics.
    pub name: String,
    /// Type (scalar or pointer).
    pub ty: Ty,
}

/// A `declareShared` array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedDecl {
    /// Name, for diagnostics.
    pub name: String,
    /// Element type.
    pub elem: Elem,
    /// Length in elements.
    pub len: u32,
}

/// A complete kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Kernel name.
    pub name: String,
    /// Parameters, in argument-block order.
    pub params: Vec<ParamDecl>,
    /// Shared local arrays.
    pub shared: Vec<SharedDecl>,
    /// Local variable types (indexed by `Expr::Var` id).
    pub vars: Vec<Ty>,
    /// Local variable names (parallel to `vars`), for diagnostics and the
    /// pretty-printer.
    pub var_names: Vec<String>,
    /// Body.
    pub body: Vec<Stmt>,
    /// The first misuse of the [`crate::KernelBuilder`] that built this
    /// kernel; `compile` reports it as a type error.
    pub(crate) misuse: Option<String>,
}

impl Kernel {
    /// Total shared memory per block, in bytes (8-byte aligned per array so
    /// capabilities can bound each array exactly where possible).
    pub(crate) fn shared_bytes(&self) -> u32 {
        self.shared.iter().map(|s| (s.elem.bytes() * s.len).next_multiple_of(8)).sum()
    }

    /// Does the kernel use barriers or shared memory (requiring block-loop
    /// synchronisation)?
    pub(crate) fn uses_shared_or_barrier(&self) -> bool {
        fn stmts_use(b: &[Stmt]) -> bool {
            b.iter().any(|s| match s {
                Stmt::Barrier => true,
                Stmt::If { then_, else_, .. } => stmts_use(then_) || stmts_use(else_),
                Stmt::While { body, .. } => stmts_use(body),
                _ => false,
            })
        }
        !self.shared.is_empty() || stmts_use(&self.body)
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kernel {}({} params, {} shared arrays)",
            self.name,
            self.params.len(),
            self.shared.len()
        )
    }
}
