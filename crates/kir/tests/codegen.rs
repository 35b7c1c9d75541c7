//! Code-generator tests: the instruction mix each mode emits, and the typed
//! errors for kernels it cannot compile.

use nocl_kir::{
    compile, compile_capped, CompileError, Elem, Expr, Kernel, KernelBuilder, MemPlan, Mode,
};
use simt_isa::Instr;

fn vecadd() -> Kernel {
    let mut k = KernelBuilder::new("vecadd");
    let len = k.param_u32("len");
    let a = k.param_ptr("a", Elem::I32);
    let b = k.param_ptr("b", Elem::I32);
    let c = k.param_ptr("c", Elem::I32);
    let i = k.var_u32("i");
    k.for_(i.clone(), k.global_id(), len, k.global_threads(), |k| {
        k.store(&c, i.clone(), a.at(i.clone()) + b.at(i.clone()));
    });
    k.finish()
}

fn decoded(kernel: &Kernel, mode: Mode) -> Vec<Instr> {
    compile(kernel, mode)
        .unwrap()
        .words
        .iter()
        .map(|&w| Instr::decode(w).expect("generated code decodes"))
        .collect()
}

#[test]
fn purecap_uses_capability_instructions() {
    let k = vecadd();
    let instrs = decoded(&k, Mode::PureCap);
    let has = |f: fn(&Instr) -> bool| instrs.iter().any(f);
    assert!(has(|i| matches!(i, Instr::Clc { .. })), "arguments arrive via CLC");
    assert!(has(|i| matches!(i, Instr::CIncOffset { .. })), "pointer arithmetic via CIncOffset");
    assert!(has(|i| matches!(i, Instr::CSpecialRw { .. })), "argument capability via CSpecialRW");
    // No raw integer add is used to move a pointer: the baseline version
    // has three more plain ADDs (one per address calc) than purecap.
    let base = decoded(&k, Mode::Baseline);
    let adds = |v: &[Instr]| {
        v.iter().filter(|i| matches!(i, Instr::Op { op: simt_isa::AluOp::Add, .. })).count()
    };
    assert!(adds(&base) > adds(&instrs));
}

#[test]
fn baseline_uses_no_cheri_instructions() {
    for i in decoded(&vecadd(), Mode::Baseline) {
        assert!(
            !matches!(
                i,
                Instr::Clc { .. }
                    | Instr::Csc { .. }
                    | Instr::CIncOffset { .. }
                    | Instr::CIncOffsetImm { .. }
                    | Instr::CSetBounds { .. }
                    | Instr::CSetBoundsImm { .. }
                    | Instr::CSpecialRw { .. }
                    | Instr::CapUnary { .. }
            ),
            "baseline code must be CHERI-free: {i}"
        );
    }
}

#[test]
fn gpushield_code_is_identical_to_baseline() {
    // GPUShield's checking is entirely in hardware: the generated program
    // is byte-for-byte the baseline one.
    let k = vecadd();
    let base = compile(&k, Mode::Baseline).unwrap();
    let shield = compile(&k, Mode::GpuShield).unwrap();
    assert_eq!(base.words, shield.words);
}

#[test]
fn rust_modes_emit_checks_monotonically() {
    let k = vecadd();
    let base = compile(&k, Mode::Baseline).unwrap().len();
    let checked = compile(&k, Mode::RustChecked).unwrap().len();
    let full = compile(&k, Mode::RustFull).unwrap().len();
    let purecap = compile(&k, Mode::PureCap).unwrap().len();
    assert!(checked > base, "bounds checks add instructions");
    assert!(full > checked, "RustFull adds residual costs");
    // CHERI's checks are in hardware: code size stays close to baseline.
    assert!(purecap <= base + 6, "purecap {purecap} vs base {base}");
    // The Rust port contains sltu+branch pairs.
    let instrs = decoded(&k, Mode::RustChecked);
    let sltus =
        instrs.iter().filter(|i| matches!(i, Instr::Op { op: simt_isa::AluOp::Sltu, .. })).count();
    assert!(sltus >= 3, "one check per access: {sltus}");
}

#[test]
fn disassembly_is_complete_and_labelled() {
    let c = compile(&vecadd(), Mode::PureCap).unwrap();
    let listing = c.disassemble();
    assert_eq!(listing.lines().count(), c.len());
    assert!(listing.starts_with("10000000:"));
    assert!(listing.contains("clc"));
    assert!(listing.contains("cincoffset"));
    assert!(listing.contains("simt.terminate"));
}

#[test]
fn shared_arrays_get_bounded_capabilities() {
    let mut k = KernelBuilder::new("sh");
    let out = k.param_ptr("out", Elem::I32);
    let tile = k.shared("tile", Elem::I32, 64);
    k.store(&tile, k.thread_idx(), Expr::i32(1));
    k.barrier();
    k.store(&out, k.thread_idx(), tile.at(k.thread_idx()));
    let kernel = k.finish();
    let instrs = decoded(&kernel, Mode::PureCap);
    assert!(
        instrs.iter().any(|i| matches!(i, Instr::CSetBoundsImm { .. })),
        "declareShared derives a bounded capability"
    );
    assert!(instrs.iter().any(|i| matches!(i, Instr::Simt { op: simt_isa::SimtOp::Barrier })));
}

#[test]
fn register_pressure_reports_cleanly() {
    // A kernel with an absurd number of parameters fails with a
    // RegisterPressure error rather than a panic.
    let mut k = KernelBuilder::new("fatparams");
    for i in 0..30 {
        k.param_ptr(&format!("p{i}"), Elem::I32);
    }
    let kernel = k.finish();
    match compile(&kernel, Mode::RustChecked) {
        Err(nocl_kir::CompileError::RegisterPressure(_)) => {}
        other => panic!("expected register-pressure error, got {other:?}"),
    }
}

const MODES: [Mode; 5] =
    [Mode::Baseline, Mode::PureCap, Mode::RustChecked, Mode::RustFull, Mode::GpuShield];

/// Compile `kernel` in every mode and expect the same error each time.
fn rejected_everywhere(kernel: &Kernel, want: &CompileError) {
    for mode in MODES {
        assert_eq!(compile(kernel, mode).err().as_ref(), Some(want), "{} {mode:?}", kernel.name);
    }
}

/// A store of `value` to `out[0]`, with `out` a `u32` pointer and `x` a
/// `u32` scalar the value may misuse.
fn store_kernel(name: &str, value: impl FnOnce(&Expr, &Expr) -> Expr) -> Kernel {
    let mut k = KernelBuilder::new(name);
    let out = k.param_ptr("out", Elem::U32);
    let x = k.param_u32("x");
    let v = value(&out, &x);
    k.store(&out, Expr::u32(0), v);
    k.finish()
}

#[test]
fn loads_through_non_pointers_are_type_errors() {
    let want = CompileError::Type("load through U32".into());
    let direct =
        store_kernel("direct", |_, x| Expr::Load(Box::new(x.clone()), Box::new(Expr::u32(0))));
    let at = store_kernel("at", |_, x| x.at(Expr::u32(0)));
    let offset_at = store_kernel("offset_at", |_, x| x.offset(Expr::u32(1)).at(Expr::u32(0)));
    let index = store_kernel("index", |out, x| out.at(x.at(Expr::u32(0))));
    for kernel in [direct, at, offset_at, index] {
        rejected_everywhere(&kernel, &want);
    }
}

#[test]
fn builder_misuse_is_a_type_error() {
    let mut k = KernelBuilder::new("assign_param");
    let x = k.param_u32("x");
    k.assign(&x, Expr::u32(1));
    rejected_everywhere(
        &k.finish(),
        &CompileError::Type("assign target must be a variable, got Param(0, U32)".into()),
    );

    let mut k = KernelBuilder::new("for_param");
    let out = k.param_ptr("out", Elem::U32);
    let n = k.param_u32("n");
    k.for_(n.clone(), Expr::u32(0), Expr::u32(4), Expr::u32(1), |k| {
        k.store(&out, Expr::u32(0), Expr::u32(7));
    });
    // Only the first misuse is reported.
    k.assign(&out, Expr::u32(0));
    rejected_everywhere(
        &k.finish(),
        &CompileError::Type("loop variable must be a variable, got Param(1, U32)".into()),
    );
}

/// A variable, parameter or shared array from another builder has an id
/// past this kernel's declarations, or one it declares with another type:
/// a type error, not an index panic or a silent retyping.
#[test]
fn ids_from_another_kernel_are_type_errors() {
    // The other kernel declares two of each, so each second id is foreign
    // to a kernel that declares one of each.
    let mut other = KernelBuilder::new("other");
    let (_, x) = (other.param_ptr("p", Elem::U32), other.param_u32("x"));
    let (_, s) = (other.shared("a", Elem::U32, 4), other.shared("b", Elem::U32, 4));
    let (_, v) = (other.var_u32("u"), other.var_u32("v"));
    let f = KernelBuilder::new("floats").var_f32("f");
    let one_of_each = |name: &str, body: &dyn Fn(&mut KernelBuilder, &Expr)| {
        let mut k = KernelBuilder::new(name);
        let out = k.param_ptr("out", Elem::U32);
        let tile = k.shared("tile", Elem::U32, 4);
        let i = k.var_u32("i");
        k.assign(&i, tile.at(Expr::u32(0)));
        body(&mut k, &out);
        k.finish()
    };
    let cases = [
        (one_of_each("var", &|k, out| k.store(out, Expr::u32(0), v.clone())), "Var(1, U32)"),
        (one_of_each("param", &|k, out| k.store(out, x.clone(), Expr::u32(1))), "Param(1, U32)"),
        (one_of_each("shared", &|k, _| k.store(&s, Expr::u32(0), Expr::u32(1))), "Shared(1, U32)"),
        (one_of_each("retyped", &|k, out| k.store(out, f.clone(), Expr::u32(1))), "Var(0, F32)"),
    ];
    for (kernel, id) in cases {
        let want = format!("{id} is not declared in kernel {}", kernel.name);
        rejected_everywhere(&kernel, &CompileError::Type(want));
    }
    let assigned = one_of_each("assign", &|k, _| k.assign(&v, Expr::u32(1)));
    let want = "assignment to variable 1, not declared in kernel assign";
    rejected_everywhere(&assigned, &CompileError::Type(want.into()));
}

#[test]
fn a_stack_size_that_is_not_a_power_of_two_is_unsupported() {
    // Enough live variables that some spill to the stack.
    let mut k = KernelBuilder::new("spills");
    let out = k.param_ptr("out", Elem::U32);
    let vars: Vec<Expr> = (0..40).map(|i| k.var_u32(&format!("v{i}"))).collect();
    for (i, v) in vars.iter().enumerate() {
        k.assign(v, k.thread_idx() + Expr::u32(i as u32));
    }
    for (i, v) in vars.iter().enumerate() {
        k.store(&out, Expr::u32(i as u32), v.clone());
    }
    let kernel = k.finish();
    let plan = MemPlan { stack_size: 500, ..MemPlan::default() };
    for mode in MODES {
        assert!(compile(&kernel, mode).is_ok(), "{mode:?}");
        assert_eq!(
            compile_capped(&kernel, mode, plan, None).err(),
            Some(CompileError::Unsupported("stack size 500 is not a power of two".into())),
            "{mode:?}"
        );
    }
}

#[test]
fn a_kernel_too_long_for_its_branches_is_unsupported() {
    // 2,000 stores: the block loop's exit branch cannot reach past them.
    let mut k = KernelBuilder::new("long");
    let out = k.param_ptr("out", Elem::U32);
    for j in 0..2000 {
        k.store(&out, Expr::u32(j), Expr::u32(j));
    }
    let kernel = k.finish();
    for mode in MODES {
        match compile(&kernel, mode) {
            Err(CompileError::Unsupported(why)) => {
                assert!(why.starts_with("kernel long is "), "{mode:?}: {why}");
                assert!(why.contains("out of its range"), "{mode:?}: {why}");
            }
            other => panic!("{mode:?}: expected Unsupported, got {other:?}"),
        }
    }
}
