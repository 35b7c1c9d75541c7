//! A C-like pretty-printer for the kernel IR — the "source view" companion
//! to [`crate::CompiledKernel::disassemble`]'s machine view.
//!
//! ```
//! use nocl_kir::{Elem, Expr, KernelBuilder};
//!
//! let mut k = KernelBuilder::new("axpy");
//! let n = k.param_u32("n");
//! let x = k.param_ptr("x", Elem::F32);
//! let i = k.var_u32("i");
//! k.for_(i.clone(), k.global_id(), n, k.global_threads(), |k| {
//!     k.store(&x, i.clone(), x.at(i.clone()) * Expr::f32(2.0));
//! });
//! let text = k.finish().pretty();
//! assert!(text.contains("kernel axpy(u32 n, f32* x)"));
//! assert!(text.contains("x[i] = (x[i] * 2f)"));
//! ```

use crate::expr::*;
use core::fmt::Write as _;

fn elem_name(e: Elem) -> &'static str {
    match e {
        Elem::I8 => "i8",
        Elem::U8 => "u8",
        Elem::I16 => "i16",
        Elem::U16 => "u16",
        Elem::I32 => "i32",
        Elem::U32 => "u32",
        Elem::F32 => "f32",
    }
}

fn ty_name(t: Ty) -> String {
    match t {
        Ty::I32 => "i32".into(),
        Ty::U32 => "u32".into(),
        Ty::F32 => "f32".into(),
        Ty::Ptr(e) => format!("{}*", elem_name(e)),
    }
}

/// Render an expression. Names come from the kernel's declaration tables.
fn expr(e: &Expr, k: &Kernel, out: &mut String) {
    match e {
        Expr::Int(v, Ty::I32) => {
            let _ = write!(out, "{}", *v as i32);
        }
        Expr::Int(v, _) => {
            let _ = write!(out, "{}", *v as u32);
        }
        Expr::F32(v) => {
            let _ = write!(out, "{v}f");
        }
        Expr::Var(i, _) => out.push_str(k.var_names.get(*i).map(String::as_str).unwrap_or("v?")),
        Expr::Param(i, _) => out.push_str(&k.params[*i].name),
        Expr::Shared(i, _) => out.push_str(&k.shared[*i].name),
        Expr::Special(s) => out.push_str(match s {
            Special::ThreadIdx => "threadIdx.x",
            Special::BlockIdx => "blockIdx.x",
            Special::BlockDim => "blockDim.x",
            Special::GridDim => "gridDim.x",
        }),
        Expr::Bin(op, a, b) => {
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Rem => "%",
                BinOp::And => "&",
                BinOp::Or => "|",
                BinOp::Xor => "^",
                BinOp::Shl => "<<",
                BinOp::Shr => ">>",
                BinOp::Min => return call2("min", a, b, k, out),
                BinOp::Max => return call2("max", a, b, k, out),
                BinOp::Cmp(c) => match c {
                    CmpOp::Eq => "==",
                    CmpOp::Ne => "!=",
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Gt => ">",
                    CmpOp::Ge => ">=",
                },
            };
            out.push('(');
            expr(a, k, out);
            let _ = write!(out, " {sym} ");
            expr(b, k, out);
            out.push(')');
        }
        Expr::Un(op, a) => match op {
            UnOp::Neg => {
                out.push_str("-(");
                expr(a, k, out);
                out.push(')');
            }
            UnOp::Not => {
                out.push_str("~(");
                expr(a, k, out);
                out.push(')');
            }
            UnOp::Sqrt => call1("sqrtf", a, k, out),
            UnOp::AsU32 => call1("(u32)", a, k, out),
            UnOp::AsI32 => call1("(i32)", a, k, out),
        },
        Expr::Load(p, i) => {
            expr(p, k, out);
            out.push('[');
            expr(i, k, out);
            out.push(']');
        }
        Expr::PtrOffset(p, i) => {
            out.push('&');
            expr(p, k, out);
            out.push('[');
            expr(i, k, out);
            out.push(']');
        }
    }
}

fn call1(name: &str, a: &Expr, k: &Kernel, out: &mut String) {
    out.push_str(name);
    out.push('(');
    expr(a, k, out);
    out.push(')');
}

fn call2(name: &str, a: &Expr, b: &Expr, k: &Kernel, out: &mut String) {
    out.push_str(name);
    out.push('(');
    expr(a, k, out);
    out.push_str(", ");
    expr(b, k, out);
    out.push(')');
}

fn stmts(body: &[Stmt], k: &Kernel, depth: usize, out: &mut String) {
    let pad = "    ".repeat(depth);
    for s in body {
        match s {
            Stmt::Assign(i, e) => {
                let name = k.var_names.get(*i).map(String::as_str).unwrap_or("v?");
                let _ = write!(out, "{pad}{name} = ");
                expr(e, k, out);
                out.push_str(";\n");
            }
            Stmt::Store { ptr, index, value } => {
                out.push_str(&pad);
                expr(ptr, k, out);
                out.push('[');
                expr(index, k, out);
                out.push_str("] = ");
                expr(value, k, out);
                out.push_str(";\n");
            }
            Stmt::Barrier => {
                let _ = writeln!(out, "{pad}__syncthreads();");
            }
            Stmt::Atomic { op, ptr, index, value } => {
                let name = match op {
                    simt_isa::AmoOp::Add => "atomicAdd",
                    simt_isa::AmoOp::Min => "atomicMin",
                    simt_isa::AmoOp::Max => "atomicMax",
                    simt_isa::AmoOp::And => "atomicAnd",
                    simt_isa::AmoOp::Or => "atomicOr",
                    simt_isa::AmoOp::Xor => "atomicXor",
                    simt_isa::AmoOp::Swap => "atomicExch",
                    simt_isa::AmoOp::Minu => "atomicMinU",
                    simt_isa::AmoOp::Maxu => "atomicMaxU",
                };
                let _ = write!(out, "{pad}{name}(&");
                expr(ptr, k, out);
                out.push('[');
                expr(index, k, out);
                out.push_str("], ");
                expr(value, k, out);
                out.push_str(");\n");
            }
            Stmt::If { cond, then_, else_ } => {
                let _ = write!(out, "{pad}if (");
                expr(cond, k, out);
                out.push_str(") {\n");
                stmts(then_, k, depth + 1, out);
                if else_.is_empty() {
                    let _ = writeln!(out, "{pad}}}");
                } else {
                    let _ = writeln!(out, "{pad}}} else {{");
                    stmts(else_, k, depth + 1, out);
                    let _ = writeln!(out, "{pad}}}");
                }
            }
            Stmt::While { cond, body } => {
                let _ = write!(out, "{pad}while (");
                expr(cond, k, out);
                out.push_str(") {\n");
                stmts(body, k, depth + 1, out);
                let _ = writeln!(out, "{pad}}}");
            }
        }
    }
}

impl Kernel {
    /// Render the kernel as CUDA-flavoured pseudo-C.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        let params: Vec<String> =
            self.params.iter().map(|p| format!("{} {}", ty_name(p.ty), p.name)).collect();
        let _ = writeln!(out, "kernel {}({}) {{", self.name, params.join(", "));
        for s in &self.shared {
            let _ = writeln!(out, "    __shared__ {} {}[{}];", elem_name(s.elem), s.name, s.len);
        }
        for (i, t) in self.vars.iter().enumerate() {
            let name = self.var_names.get(i).map(String::as_str).unwrap_or("v?");
            let _ = writeln!(out, "    {} {};", ty_name(*t), name);
        }
        stmts(&self.body, self, 1, &mut out);
        out.push_str("}\n");
        out
    }
}
