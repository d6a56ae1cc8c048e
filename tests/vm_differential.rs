//! Differential suite for the two executor tiers: the tree-walking
//! `Machine` oracle and the bytecode `Vm` must agree **bit-for-bit** —
//! return value, every byte of final memory, and the step counter — on
//! every bundled benchmark under multiple input seeds, on randomized
//! progen programs, and on error paths (same `ExecError` message at the
//! same step count, step-limit exhaustion included).

use idiomatch::benchsuite;
use idiomatch::hetero::hosts::register_all;
use idiomatch::interp::{compile_module, Machine, Memory, Profile, Value, Vm};
use idiomatch::ssair::analysis::{AffineMap, Analyses};
use idiomatch::xform::reverse_loop;
use proptest::prelude::*;

/// Everything one execution produces, in comparable form.
#[derive(Debug, Clone, PartialEq)]
struct Trace {
    /// `Ok(bitwise value)` or `Err(full error message)`.
    result: Result<(&'static str, u64), String>,
    /// The step counter after the run (errors included).
    steps: u64,
    /// Every byte of final memory.
    mem: Vec<u8>,
}

fn value_bits(v: Value) -> (&'static str, u64) {
    match v {
        Value::I(x) => ("I", x as u64),
        Value::F(x) => ("F", x.to_bits()),
        Value::P(x) => ("P", x),
    }
}

/// One walker run with the vendor hosts registered.
fn walk(
    m: &ssair::Module,
    entry: &str,
    setup: &dyn Fn(&mut Memory, u64) -> Vec<Value>,
    seed: u64,
    max_steps: Option<u64>,
) -> Trace {
    let mut vm = Machine::new(m);
    register_all(&mut vm);
    if let Some(ms) = max_steps {
        vm.max_steps = ms;
    }
    let args = setup(&mut vm.mem, seed);
    let result = vm
        .run(entry, &args)
        .map(value_bits)
        .map_err(|e| e.to_string());
    Trace {
        result,
        steps: vm.steps(),
        mem: vm.mem.bytes().to_vec(),
    }
}

/// One bytecode-VM run over a pre-compiled module, same hosts.
fn exec(
    code: &idiomatch::interp::CompiledModule<'_>,
    entry: &str,
    setup: &dyn Fn(&mut Memory, u64) -> Vec<Value>,
    seed: u64,
    max_steps: Option<u64>,
) -> Trace {
    let mut vm = Vm::new(code);
    register_all(&mut vm);
    if let Some(ms) = max_steps {
        vm.max_steps = ms;
    }
    let args = setup(&mut vm.mem, seed);
    let result = vm
        .run(entry, &args)
        .map(value_bits)
        .map_err(|e| e.to_string());
    Trace {
        result,
        steps: vm.steps(),
        mem: vm.mem.bytes().to_vec(),
    }
}

/// Asserts walker ≡ VM on one module/entry/seed, optionally under a step
/// budget. Returns the shared trace for further checks.
fn assert_parity(
    m: &ssair::Module,
    entry: &str,
    setup: &dyn Fn(&mut Memory, u64) -> Vec<Value>,
    seed: u64,
    max_steps: Option<u64>,
    ctx: &str,
) -> Trace {
    let code = compile_module(m);
    let w = walk(m, entry, setup, seed, max_steps);
    let v = exec(&code, entry, setup, seed, max_steps);
    assert_eq!(w.result, v.result, "{ctx}: result diverged");
    assert_eq!(w.steps, v.steps, "{ctx}: step counter diverged");
    assert_eq!(w.mem, v.mem, "{ctx}: final memory diverged");
    w
}

/// Every bundled benchmark, under every validation seed: identical
/// return bits, identical step counts, identical memory images.
#[test]
fn all_benchmarks_agree_bitwise_across_seeds() {
    for b in benchsuite::all() {
        let m = idiomatch::minicc::compile(b.source, b.name).unwrap();
        let code = compile_module(&m);
        assert!(
            code.compiled_count() > 0,
            "{}: nothing was eligible for bytecode",
            b.name
        );
        for &seed in &benchsuite::VALIDATION_SEEDS {
            let t = assert_parity(
                &m,
                b.entry,
                &|mem, s| (b.setup)(mem, s),
                seed,
                None,
                &format!("{} seed {seed:#x}", b.name),
            );
            assert!(t.result.is_ok(), "{}: benchmark must execute", b.name);
        }
    }
}

/// The same suite run through the *transformed* modules (vendor calls
/// inserted), exercising the host-dispatch path on both tiers.
#[test]
fn transformed_benchmarks_agree_bitwise() {
    for b in benchsuite::all() {
        let m = idiomatch::minicc::compile(b.source, b.name).unwrap();
        let xf = idiomatch::xform::transform_module(&m);
        for &seed in &benchsuite::VALIDATION_SEEDS[..2] {
            assert_parity(
                &xf.module,
                b.entry,
                &|mem, s| (b.setup)(mem, s),
                seed,
                None,
                &format!("{} (transformed) seed {seed:#x}", b.name),
            );
        }
    }
}

/// Error paths must agree exactly: same message, same step count, same
/// partial memory effects. Every case runs after a setup allocation, so
/// `P(8)` is the base of the first array. The last two are hostile: a
/// negative index whose address wraps to the top of the address space,
/// and an `alloca` far past the memory cap, which must be an error and
/// not an allocation abort.
#[test]
fn error_paths_agree_bitwise() {
    let cases: [(&str, &str, Vec<Value>, &str); 5] = [
        (
            "int div(int n) { return 100 / n; }",
            "div",
            vec![Value::I(0)],
            "division by zero",
        ),
        (
            "int rem(int n) { return 7 % n; }",
            "rem",
            vec![Value::I(0)],
            "remainder by zero",
        ),
        (
            "double deref(double* p, int i) { return p[i]; }",
            "deref",
            vec![Value::P(8), Value::I(1 << 20)],
            "out-of-bounds",
        ),
        (
            "double back(double* p) { return p[-2]; }",
            "back",
            vec![Value::P(8)],
            "out-of-bounds access at 18446744073709551608",
        ),
        (
            "double f(double* q) { double a[4000000000]; a[0] = 1.0; return a[0]; }",
            "f",
            vec![Value::P(8)],
            "memory limit exceeded",
        ),
    ];
    for (src, entry, args, message) in cases {
        let m = idiomatch::minicc::compile(src, entry).unwrap();
        let setup = |mem: &mut Memory, _: u64| {
            mem.alloc_f64_slice(&[1.0; 4]);
            args.clone()
        };
        let t = assert_parity(&m, entry, &setup, 0, None, &format!("error case {entry}"));
        let e = t.result.expect_err("case must fail");
        assert!(e.contains(message), "{entry}: {e}");
    }
    // Unknown function name: identical error string on both tiers.
    let m = idiomatch::minicc::compile("int id(int x) { return x; }", "id").unwrap();
    let t = assert_parity(&m, "nope", &|_, _| vec![], 0, None, "unknown entry");
    assert!(t.result.is_err());
}

/// Builds `@case` from an IR signature, return type and body, plus
/// `@mid` and `@top`, which pass their arguments down one call each: the
/// case's op then runs two frames deep when entered through `@top`.
fn case_module(sig: &str, ret: &str, body: &str) -> ssair::Module {
    let forward = |callee: &str| {
        if ret == "void" {
            format!("  call void @{callee}({sig})\n  ret void")
        } else {
            format!("  %v = call {ret} @{callee}({sig})\n  ret {ret} %v")
        }
    };
    let text = format!(
        "define {ret} @case({sig}) {{\nentry:\n  {body}\n}}\n\n\
         define {ret} @mid({sig}) {{\nentry:\n{}\n}}\n\n\
         define {ret} @top({sig}) {{\nentry:\n{}\n}}\n",
        forward("case"),
        forward("mid")
    );
    idiomatch::ssair::parser::parse_module(&text)
        .unwrap_or_else(|e| panic!("case IR parses: {e:?}\n{text}"))
}

/// Every failure the VM's message-free checks refuse and rebuild on its
/// cold path — type confusion per operand kind, null and out-of-bounds
/// memory, negative `alloca`, failing intrinsics — must carry the
/// walker's message at the walker's step count, whether the op runs in
/// the entry frame or two frames deep. Each case runs after a 4 x f64
/// setup allocation: memory holds 40 bytes and `P(8)` is the array.
#[test]
fn faults_agree_bitwise_through_frames() {
    use Value::{F, I, P};
    let load_f64 = "%a = getelementptr double, double* %p, i64 %i\n  \
                    %v = load double, double* %a\n  ret double %v";
    let store_f64 = "store double %x, double* %p\n  ret void";
    let cases: Vec<(&str, &str, &str, Vec<Value>, &str)> = vec![
        // store: value, address and bounds.
        (
            "double %x, double* %p",
            "void",
            store_f64,
            vec![I(3), P(8)],
            "expected float, got I(3)",
        ),
        (
            "double %x, double* %p",
            "void",
            store_f64,
            vec![F(1.0), I(8)],
            "expected pointer, got I(8)",
        ),
        (
            "double %x, double* %p",
            "void",
            store_f64,
            vec![F(1.0), P(0)],
            "null pointer access",
        ),
        (
            "double %x, double* %p",
            "void",
            store_f64,
            vec![F(1.0), P(1 << 20)],
            "out-of-bounds access at 1048576 (+8)",
        ),
        (
            "i64 %x, i64* %p",
            "void",
            "store i64 %x, i64* %p\n  ret void",
            vec![P(8), P(8)],
            "expected integer, got P(8)",
        ),
        (
            "i32 %x, i32* %p",
            "void",
            "store i32 %x, i32* %p\n  ret void",
            vec![I(1), P(38)],
            "out-of-bounds access at 38 (+4)",
        ),
        (
            "double* %x, double** %p",
            "void",
            "store double* %x, double** %p\n  ret void",
            vec![F(1.0), P(8)],
            "expected pointer, got F(1.0)",
        ),
        // select and br conditions.
        (
            "i1 %c, i64 %a, i64 %b",
            "i64",
            "%r = select i1 %c, i64 %a, %b\n  ret i64 %r",
            vec![F(1.0), I(1), I(2)],
            "expected integer, got F(1.0)",
        ),
        (
            "i1 %c",
            "i64",
            "br i1 %c, label %t, label %f\nt:\n  ret i64 1\nf:\n  ret i64 2",
            vec![P(8)],
            "expected integer, got P(8)",
        ),
        // getelementptr and loads.
        (
            "double* %p, i64 %i",
            "double",
            load_f64,
            vec![I(8), I(0)],
            "expected pointer, got I(8)",
        ),
        (
            "double* %p, i64 %i",
            "double",
            load_f64,
            vec![P(8), F(0.0)],
            "expected integer, got F(0.0)",
        ),
        (
            "double* %p, i64 %i",
            "double",
            load_f64,
            vec![P(0), I(0)],
            "null pointer access",
        ),
        (
            "double* %p, i64 %i",
            "double",
            load_f64,
            vec![P(8), I(4)],
            "out-of-bounds access at 40 (+8)",
        ),
        (
            "i32* %p",
            "i32",
            "%v = load i32, i32* %p\n  ret i32 %v",
            vec![P(38)],
            "out-of-bounds access at 38 (+4)",
        ),
        (
            "i64* %p",
            "i64",
            "%v = load i64, i64* %p\n  ret i64 %v",
            vec![F(8.0)],
            "expected pointer, got F(8.0)",
        ),
        // alloca.
        (
            "i64 %n",
            "double*",
            "%b = alloca double, i64 %n\n  ret double* %b",
            vec![I(-1)],
            "negative alloca size",
        ),
        (
            "i64 %n",
            "double*",
            "%b = alloca double, i64 %n\n  ret double* %b",
            vec![F(2.0)],
            "expected integer, got F(2.0)",
        ),
        // arithmetic, comparisons and casts.
        (
            "i64 %a, i64 %b",
            "i64",
            "%r = add i64 %a, %b\n  ret i64 %r",
            vec![I(1), F(2.0)],
            "expected integer, got F(2.0)",
        ),
        (
            "double %a, double %b",
            "double",
            "%r = fmul double %a, %b\n  ret double %r",
            vec![P(8), F(2.0)],
            "expected float, got P(8)",
        ),
        (
            "i64 %a, i64 %b",
            "i1",
            "%r = icmp eq i64 %a, %b\n  ret i1 %r",
            vec![P(8), I(8)],
            "expected integer, got P(8)",
        ),
        (
            "double %a, double %b",
            "i1",
            "%r = fcmp olt double %a, %b\n  ret i1 %r",
            vec![F(1.0), I(2)],
            "expected float, got I(2)",
        ),
        (
            "i64 %a",
            "double",
            "%r = sitofp i64 %a to double\n  ret double %r",
            vec![F(1.0)],
            "expected integer, got F(1.0)",
        ),
        (
            "double %a",
            "i64",
            "%r = fptosi double %a to i64\n  ret i64 %r",
            vec![I(1)],
            "expected float, got I(1)",
        ),
        (
            "double %a",
            "float",
            "%r = fptrunc double %a to float\n  ret float %r",
            vec![P(8)],
            "expected float, got P(8)",
        ),
        // failing intrinsics and an unknown callee.
        (
            "double %x",
            "double",
            "%r = call double @sqrt(double %x)\n  ret double %r",
            vec![I(4)],
            "expected float, got I(4)",
        ),
        (
            "double %x",
            "double",
            "%r = call double @pow(double %x)\n  ret double %r",
            vec![F(2.0)],
            "binary math intrinsic expects 2 arguments",
        ),
        (
            "double %x",
            "double",
            "%r = call double @nope(double %x)\n  ret double %r",
            vec![F(2.0)],
            "call to unknown function \"nope\"",
        ),
    ];
    for (sig, ret, body, args, message) in cases {
        let m = case_module(sig, ret, body);
        let setup = |mem: &mut Memory, _: u64| {
            mem.alloc_f64_slice(&[1.0; 4]);
            args.clone()
        };
        for entry in ["case", "top"] {
            let ctx = format!("@{entry} over `{body}` with {args:?}");
            let t = assert_parity(&m, entry, &setup, 0, None, &ctx);
            let e = t.result.expect_err(&ctx);
            assert!(e.contains(message), "{ctx}: {e}");
        }
    }
}

/// Every superinstruction the bytecode peephole emits, with each of its
/// constituents in turn the one that fails: the fused op must fault with
/// the walker's message at the walker's step count, whichever
/// constituent stops it and however deep the frame. Memory is the same
/// 4 x f64 setup array as in `faults_agree_bitwise_through_frames`.
#[test]
fn fused_op_faults_agree_bitwise_per_constituent() {
    use Value::{F, I, P};
    // IntCast→Gep→Load.
    let cast_gep_load = "%j = sext i32 %i to i64\n  \
                         %a = getelementptr double, double* %p, i64 %j\n  \
                         %v = load double, double* %a\n  ret double %v";
    // IntCast→Gep (a store follows, not a load).
    let cast_gep = "%j = sext i32 %i to i64\n  \
                    %a = getelementptr double, double* %p, i64 %j\n  \
                    store double 2.0, double* %a\n  ret void";
    // Gep→Load on an i32 array.
    let gep_load = "%a = getelementptr i32, i32* %p, i64 %i\n  \
                    %v = load i32, i32* %a\n  ret i32 %v";
    // ICmp→CondJump.
    let cmp_jump = "%c = icmp slt i64 %a, %b\n  \
                    br i1 %c, label %t, label %f\nt:\n  ret i64 1\nf:\n  ret i64 2";
    let cases: Vec<(&str, &str, &str, Vec<Value>, &str)> = vec![
        // cast source, gep base, then the load: out of bounds and null.
        (
            "double* %p, i32 %i",
            "double",
            cast_gep_load,
            vec![P(8), F(1.0)],
            "expected integer, got F(1.0)",
        ),
        (
            "double* %p, i32 %i",
            "double",
            cast_gep_load,
            vec![I(8), I(0)],
            "expected pointer, got I(8)",
        ),
        (
            "double* %p, i32 %i",
            "double",
            cast_gep_load,
            vec![P(8), I(4)],
            "out-of-bounds access at 40 (+8)",
        ),
        (
            "double* %p, i32 %i",
            "double",
            cast_gep_load,
            vec![P(0), I(0)],
            "null pointer access",
        ),
        (
            "double* %p, i32 %i",
            "double",
            cast_gep_load,
            vec![P(8), I(-2)],
            "out-of-bounds access at 18446744073709551608",
        ),
        // cast source, gep base, then the plain store after the pair.
        (
            "double* %p, i32 %i",
            "void",
            cast_gep,
            vec![P(8), P(8)],
            "expected integer, got P(8)",
        ),
        (
            "double* %p, i32 %i",
            "void",
            cast_gep,
            vec![F(8.0), I(1)],
            "expected pointer, got F(8.0)",
        ),
        (
            "double* %p, i32 %i",
            "void",
            cast_gep,
            vec![P(8), I(4)],
            "out-of-bounds access at 40 (+8)",
        ),
        // gep base, gep index, then the load.
        (
            "i32* %p, i64 %i",
            "i32",
            gep_load,
            vec![I(8), I(0)],
            "expected pointer, got I(8)",
        ),
        (
            "i32* %p, i64 %i",
            "i32",
            gep_load,
            vec![P(8), F(0.0)],
            "expected integer, got F(0.0)",
        ),
        (
            "i32* %p, i64 %i",
            "i32",
            gep_load,
            vec![P(8), I(8)],
            "out-of-bounds access at 40 (+4)",
        ),
        (
            "i32* %p, i64 %i",
            "i32",
            gep_load,
            vec![P(0), I(0)],
            "null pointer access",
        ),
        // a mixed-type compare before its branch, either operand order.
        (
            "i64 %a, i64 %b",
            "i64",
            cmp_jump,
            vec![P(8), I(8)],
            "expected integer, got P(8)",
        ),
        (
            "i64 %a, i64 %b",
            "i64",
            cmp_jump,
            vec![I(1), F(2.0)],
            "expected integer, got F(2.0)",
        ),
    ];
    for (sig, ret, body, args, message) in cases {
        let m = case_module(sig, ret, body);
        let setup = |mem: &mut Memory, _: u64| {
            mem.alloc_f64_slice(&[1.0; 4]);
            args.clone()
        };
        for entry in ["case", "top"] {
            let ctx = format!("@{entry} over `{body}` with {args:?}");
            let t = assert_parity(&m, entry, &setup, 0, None, &ctx);
            let e = t.result.expect_err(&ctx);
            assert!(e.contains(message), "{ctx}: {e}");
        }
    }
}

/// One loop holding every superinstruction — `IntCast→Gep→Load`,
/// `IntCast→Gep`, `Gep→Load`, `ICmp→CondJump` and a `Jump` through a
/// two-phi edge — under every step budget from 1 to its total: each
/// cut-off, on every constituent of every fused op and on each phi move,
/// must match the walker's message, step count, memory and profile.
#[test]
fn step_limit_cutoffs_agree_on_every_fused_constituent() {
    let m = idiomatch::ssair::parser::parse_module(
        r#"
define double @mix(double* %p, i32* %q, i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %i.next, %body ]
  %s = phi double [ 0.0, %entry ], [ %s.next, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %j = sext i32 %i to i64
  %a = getelementptr double, double* %p, i64 %j
  %x = load double, double* %a
  %k = sext i32 %i to i64
  %b = getelementptr i32, i32* %q, i64 %k
  store i32 %i, i32* %b
  %e = getelementptr i32, i32* %q, i64 %j
  %y = load i32, i32* %e
  %yf = sitofp i32 %y to double
  %t = fadd double %x, %yf
  %s.next = fadd double %s, %t
  %i.next = add i32 %i, 1
  br label %header
exit:
  ret double %s
}
"#,
    )
    .unwrap();
    let setup = |mem: &mut Memory, _seed: u64| {
        let p = mem.alloc_f64_slice(&[1.0, 2.0, 3.0]);
        let q = mem.alloc_i32_slice(&[0; 3]);
        vec![Value::P(p), Value::P(q), Value::I(3)]
    };
    let full = assert_parity(&m, "mix", &setup, 0, None, "mix unlimited");
    assert!(full.result.is_ok());
    for budget in 1..=full.steps {
        let t = assert_parity(
            &m,
            "mix",
            &setup,
            0,
            Some(budget),
            &format!("mix budget {budget}"),
        );
        if budget < full.steps {
            let e = t.result.expect_err("a short budget cuts off");
            assert!(e.contains("step limit exceeded"), "budget {budget}: {e}");
        } else {
            assert_eq!(t.result, full.result, "the exact budget finishes");
        }
        // The profile agrees at every cut-off too.
        let mut walker = Machine::new(&m);
        walker.max_steps = budget;
        let wargs = setup(&mut walker.mem, 0);
        let _ = walker.run("mix", &wargs);
        let code = compile_module(&m);
        let mut vm = Vm::new(&code);
        vm.max_steps = budget;
        vm.set_profiling(true);
        let vargs = setup(&mut vm.mem, 0);
        let _ = vm.run("mix", &vargs);
        let f = m.function("mix").unwrap();
        let vp = vm.profile();
        for v in f.value_ids() {
            assert_eq!(
                walker.profile.count("mix", v),
                vp.count("mix", v),
                "budget {budget}: {v} count"
            );
        }
    }
}

/// A step-limit cut-off inside a callee two frames deep: sweep the
/// budget over a loop that calls `mid`, which calls `leaf`, so the cut
/// lands on every instruction of every frame (calls, returns and phi
/// moves included).
#[test]
fn step_limit_cutoffs_agree_two_frames_deep() {
    let src = "double leaf(double* x, int i) { return x[i] * 2.0; }
        double mid(double* x, int i) { return leaf(x, i) + 1.0; }
        double top(double* x, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) s += mid(x, i);
            return s;
        }";
    let m = idiomatch::minicc::compile(src, "chain").unwrap();
    let setup = |mem: &mut Memory, _seed: u64| {
        let p = mem.alloc_f64_slice(&[1.0, 2.0, 3.0]);
        vec![Value::P(p), Value::I(3)]
    };
    let full = assert_parity(&m, "top", &setup, 0, None, "chain unlimited");
    assert!(full.result.is_ok());
    for budget in 1..full.steps {
        let t = assert_parity(
            &m,
            "top",
            &setup,
            0,
            Some(budget),
            &format!("chain budget {budget}"),
        );
        let e = t.result.expect_err("a short budget cuts off");
        assert!(e.contains("step limit exceeded"), "budget {budget}: {e}");
    }
}

/// Profiles agree through frames: a caller, a device loop and a kernel
/// it calls once per element (hand-written, since generated Lift/Halide
/// device loops hold their kernels inline and call nothing per element),
/// then the real caller → device program frames of the transformed
/// `histo` and `stencil` benchmarks.
#[test]
fn profiles_agree_through_a_device_loop_chain() {
    fn check(m: &ssair::Module, entry: &str, args: &[Value], mem: &Memory, ctx: &str) {
        let mut walker = Machine::new(m);
        register_all(&mut walker);
        walker.mem = mem.clone();
        let wr = walker.run(entry, args).map(value_bits);
        let code = compile_module(m);
        let mut vm = Vm::new(&code);
        register_all(&mut vm);
        vm.set_profiling(true);
        vm.mem = mem.clone();
        let vr = vm.run(entry, args).map(value_bits);
        assert_eq!(wr, vr, "{ctx}: result diverged");
        assert_eq!(walker.steps(), vm.steps(), "{ctx}: step counter diverged");
        let vp = vm.profile();
        let mut counted = 0;
        for f in &m.functions {
            for v in f.value_ids() {
                let n = walker.profile.count(&f.name, v);
                assert_eq!(n, vp.count(&f.name, v), "{ctx}: @{} {v} count", f.name);
                counted += n;
            }
        }
        assert_eq!(counted, walker.steps(), "{ctx}: every step is profiled");
    }
    let m = idiomatch::ssair::parser::parse_module(
        r#"
define void @kernel(double* %p, i64 %i) {
entry:
  %a = getelementptr double, double* %p, i64 %i
  %x = load double, double* %a
  %y = fmul double %x, 2.0
  store double %y, double* %a
  ret void
}

define void @device(double* %p, i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i.next, %body ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %exit
body:
  call void @kernel(double* %p, i64 %i)
  %i.next = add i64 %i, 1
  br label %header
exit:
  ret void
}

define double @main(double* %p, i64 %n) {
entry:
  call void @device(double* %p, i64 %n)
  %last = getelementptr double, double* %p, i64 3
  %v = load double, double* %last
  ret double %v
}
"#,
    )
    .unwrap();
    let mut mem = Memory::new();
    let p = mem.alloc_f64_slice(&[1.0, 2.0, 3.0, 4.0]);
    check(
        &m,
        "main",
        &[Value::P(p), Value::I(4)],
        &mem,
        "hand-written chain",
    );
    for b in benchsuite::all() {
        if !matches!(b.name, "histo" | "stencil") {
            continue;
        }
        let m = idiomatch::minicc::compile(b.source, b.name).unwrap();
        let xf = idiomatch::xform::transform_module(&m);
        let mut mem = Memory::new();
        let args = (b.setup)(&mut mem, benchsuite::CANONICAL_SEED);
        check(&xf.module, b.entry, &args, &mem, b.name);
    }
}

/// Verified IR is the VM's whole contract: every module that passes
/// `verify_module` compiles in full — the 21 benchmarks and a progen
/// sweep, each as the original, the transformed module and every
/// reversed-loop variant the witness could build from its instances.
#[test]
fn verified_modules_compile_fully() {
    // Returns (modules seen, modules that verified).
    fn check(m: &ssair::Module, ctx: &str) -> (usize, usize) {
        if ssair::verify::verify_module(m).is_err() {
            return (1, 0);
        }
        assert_eq!(
            compile_module(m).compiled_count(),
            m.functions.len(),
            "{ctx}: a verified function did not compile"
        );
        (1, 1)
    }
    fn check_all(m: &ssair::Module, ctx: &str, tally: &mut (usize, usize)) {
        let mut add = |(seen, ok)| {
            tally.0 += seen;
            tally.1 += ok;
        };
        add(check(m, ctx));
        add(check(&idiomatch::xform::transform_module(m).module, ctx));
        for inst in idiomatch::idioms::detect_module(m) {
            let Some(iv) = inst.value(inst.kind.outer_iterator_var()) else {
                continue;
            };
            let f = m.function(&inst.function).expect("instance function");
            let an = Analyses::new(f);
            let map = AffineMap::new(f, &an);
            let Some(info) = map.iv(iv) else {
                continue;
            };
            let mut r = m.clone();
            let g = r.function_mut(&inst.function).expect("instance function");
            if reverse_loop(g, info, &an.dom).is_ok() {
                add(check(&r, ctx));
            }
        }
    }
    let mut tally = (0, 0);
    for b in benchsuite::all() {
        let m = idiomatch::minicc::compile(b.source, b.name).unwrap();
        check_all(&m, b.name, &mut tally);
    }
    for seed in 0..200 {
        let m = idiomatch::minicc::compile(&idiomatch::progen::generate(seed).render(), "prop")
            .unwrap();
        check_all(&m, &format!("progen {seed}"), &mut tally);
    }
    // The pipeline only produces verified IR, so the implication is
    // exercised on every module, not vacuously.
    assert_eq!(tally.0, tally.1, "{tally:?}: some modules failed to verify");
}

/// Step-limit exhaustion is bitwise too: sweep budgets across a loop so
/// the limit lands on every instruction class (phi updates included) and
/// demand identical cutoff messages and counters.
#[test]
fn step_limit_cutoffs_agree_at_every_budget() {
    let src = "double sum(double* x, int n) {
        double s = 0.0;
        for (int i = 0; i < n; i++) s += x[i];
        return s;
    }";
    let m = idiomatch::minicc::compile(src, "sum").unwrap();
    let setup = |mem: &mut Memory, _seed: u64| {
        let p = mem.alloc_f64_slice(&[1.0, 2.0, 3.0, 4.0]);
        vec![Value::P(p), Value::I(4)]
    };
    let full = assert_parity(&m, "sum", &setup, 0, None, "sum unlimited");
    let total = full.steps;
    assert!(total > 10, "loop must take a nontrivial number of steps");
    let mut saw_cutoff = false;
    for budget in 1..=total {
        let t = assert_parity(
            &m,
            "sum",
            &setup,
            0,
            Some(budget),
            &format!("sum budget {budget}"),
        );
        if budget < total {
            assert!(t.result.is_err(), "budget {budget} of {total} must cut off");
            saw_cutoff = true;
        } else {
            assert_eq!(t.result, full.result, "exact budget must finish");
        }
    }
    assert!(saw_cutoff);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Randomized planted-idiom programs (near-misses and filler
    /// included) execute identically on both tiers under every fuzz
    /// seed — original and transformed module alike.
    #[test]
    fn progen_programs_agree_bitwise(seed in 0u64..300) {
        let spec = idiomatch::progen::generate(seed);
        let m = idiomatch::minicc::compile(&spec.render(), "prop").unwrap();
        let xf = idiomatch::xform::transform_module(&m);
        for &input in &idiomatch::progen::FUZZ_SEEDS {
            let setup = |mem: &mut Memory, s: u64| idiomatch::progen::setup(mem, s);
            assert_parity(
                &m,
                idiomatch::progen::Spec::ENTRY,
                &setup,
                input,
                None,
                &format!("progen {seed} input {input:#x}"),
            );
            assert_parity(
                &xf.module,
                idiomatch::progen::Spec::ENTRY,
                &setup,
                input,
                None,
                &format!("progen {seed} (transformed) input {input:#x}"),
            );
        }
    }
}

/// A profiled VM run: the trace plus the execution-count profile.
fn profiled(
    code: &idiomatch::interp::CompiledModule<'_>,
    entry: &str,
    setup: &dyn Fn(&mut Memory, u64) -> Vec<Value>,
    seed: u64,
    max_steps: Option<u64>,
) -> (Trace, Profile) {
    let mut vm = Vm::new(code);
    register_all(&mut vm);
    vm.set_profiling(true);
    if let Some(ms) = max_steps {
        vm.max_steps = ms;
    }
    let args = setup(&mut vm.mem, seed);
    let result = vm
        .run(entry, &args)
        .map(value_bits)
        .map_err(|e| e.to_string());
    let trace = Trace {
        result,
        steps: vm.steps(),
        mem: vm.mem.bytes().to_vec(),
    };
    (trace, vm.profile())
}

/// Runs every reversed variant of `m` with only the reversed function's
/// code swapped in and asserts it matches the edited module compiled
/// whole (see the test below). Returns how many variants it ran.
fn assert_swaps_match_edits(
    m: &ssair::Module,
    entry: &str,
    setup: &dyn Fn(&mut Memory, u64) -> Vec<Value>,
    seed: u64,
    ctx: &str,
) -> usize {
    let mut code = compile_module(m);
    let before = profiled(&code, entry, setup, seed, None);
    let mut variants = 0;
    for inst in idiomatch::idioms::detect_module(m) {
        let Some(iv) = inst.value(inst.kind.outer_iterator_var()) else {
            continue;
        };
        let f = m.function(&inst.function).expect("instance function");
        let an = Analyses::new(f);
        let map = AffineMap::new(f, &an);
        let Some(info) = map.iv(iv) else {
            continue;
        };
        let mut edited = m.clone();
        let g = edited
            .function_mut(&inst.function)
            .expect("instance function");
        if reverse_loop(g, info, &an.dom).is_err() {
            continue;
        }
        let mut swapped = code.compile_function(g).expect("same name");
        let whole = compile_module(&edited);
        let ctx = format!("{ctx} {}", inst.function);
        let full = profiled(&whole, entry, setup, seed, None);
        assert!(full.0.result.is_ok(), "{ctx}: the variant runs");
        let half = Some(full.0.steps / 2);
        let cut = profiled(&whole, entry, setup, seed, half);
        assert!(cut.0.result.is_err(), "{ctx}: the budget cuts the run");
        for (want, budget) in [(full, None), (cut, half)] {
            let got = code.with_function(&mut swapped, |c| profiled(c, entry, setup, seed, budget));
            assert_eq!(got, want, "{ctx}: budget {budget:?}");
        }
        variants += 1;
    }
    let after = profiled(&code, entry, setup, seed, None);
    assert_eq!(after, before, "{ctx}: the restored code runs as before");
    variants
}

/// The reversed variants of the suite and of progen seeds 0..100 run with
/// only the reversed function's code swapped into the original's compiled
/// module (`CompiledModule::with_function`) exactly as the edited module
/// compiled whole: same result, memory image, steps and profile, and the
/// same error message where a step budget cuts the run short. Once the
/// swap ends, the original's code runs bitwise as before.
#[test]
fn swapped_function_code_runs_like_the_edited_module() {
    let seed = benchsuite::VALIDATION_SEEDS[0];
    let mut variants = 0;
    for b in benchsuite::all() {
        let m = idiomatch::minicc::compile(b.source, b.name).unwrap();
        let setup = |mem: &mut Memory, s| (b.setup)(mem, s);
        variants += assert_swaps_match_edits(&m, b.entry, &setup, seed, b.name);
    }
    assert!(variants >= 15, "only {variants} reversed suite variants");
    for s in 0..100 {
        let m =
            idiomatch::minicc::compile(&idiomatch::progen::generate(s).render(), "prop").unwrap();
        let entry = idiomatch::progen::Spec::ENTRY;
        let ctx = format!("progen {s}");
        variants += assert_swaps_match_edits(&m, entry, &idiomatch::progen::setup, seed, &ctx);
    }
    assert!(variants >= 200, "only {variants} reversed variants");
}
