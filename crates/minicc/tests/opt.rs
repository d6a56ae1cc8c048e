//! The optimizer (`ssair::opt`) on C sources: each pass shapes the IR
//! that minicc lowers the way the idiom library expects.

use minicc::{compile, compile_unoptimized};
use ssair::opt;
use ssair::{Opcode, ValueId, ValueKind};

#[test]
fn folds_constant_arithmetic() {
    let m = compile("int f() { return 2 * 3 + 4; }", "t").unwrap();
    let f = m.function("f").unwrap();
    let entry = ssair::BlockId(0);
    assert_eq!(f.block(entry).instrs.len(), 1, "only ret remains");
    let ret = f.block(entry).instrs[0];
    let op = f.instr(ret).unwrap().operands[0];
    assert!(matches!(f.value(op).kind, ValueKind::ConstInt(10)));
}

#[test]
fn folds_identities() {
    let m = compile("long f(long x) { return x * 1 + 0; }", "t").unwrap();
    let f = m.function("f").unwrap();
    let entry = ssair::BlockId(0);
    assert_eq!(f.block(entry).instrs.len(), 1, "x*1+0 folds to x");
}

#[test]
fn hoists_invariant_address_math() {
    let src =
        "void f(double* a, int i, int n) { for (int k = 0; k < n; k++) { a[i] = a[i] + 1.0; } }";
    let m = compile(src, "t").unwrap();
    let f = m.function("f").unwrap();
    let text = format!("{f}");
    // After LICM + promotion there is exactly one load (preheader) and
    // one store (exit), and a phi accumulator in the loop header.
    let n_loads = text.matches("load double").count();
    let n_stores = text.matches("store double").count();
    assert_eq!(n_loads, 1, "{text}");
    assert_eq!(n_stores, 1, "{text}");
    assert!(text.contains("phi double"), "{text}");
}

#[test]
fn promotion_produces_accumulator_phi_for_array_accumulation() {
    // The Figure-8 "second form" inner loop of GEMM.
    let src = "void f(double* c, double* a, double* b, int n, int i, int j) {
        for (int k = 0; k < n; k++)
            c[i*n+j] = c[i*n+j] + a[i*n+k] * b[k*n+j];
    }";
    let m = compile(src, "t").unwrap();
    let f = m.function("f").unwrap();
    let header = ssair::BlockId(1);
    let phis = f
        .block(header)
        .instrs
        .iter()
        .filter(|&&v| f.opcode(v) == Some(Opcode::Phi))
        .count();
    assert_eq!(phis, 2, "iterator and promoted accumulator:\n{f}");
    // The store moved to the exit block.
    let exit_has_store = f
        .block_ids()
        .filter(|&b| f.block(b).name.as_deref() == Some("loop.exit"))
        .any(|b| {
            f.block(b)
                .instrs
                .iter()
                .any(|&v| f.opcode(v) == Some(Opcode::Store))
        });
    assert!(exit_has_store, "{f}");
}

#[test]
fn promotion_is_blocked_by_possible_aliasing() {
    // Same root on both accesses with different indices: no promotion.
    let src = "void f(double* a, int i, int j, int n) {
        for (int k = 0; k < n; k++) a[i] = a[i] + a[j];
    }";
    let m = compile(src, "t").unwrap();
    let f = m.function("f").unwrap();
    let header_phis = f
        .block(ssair::BlockId(1))
        .instrs
        .iter()
        .filter(|&&v| f.opcode(v) == Some(Opcode::Phi))
        .count();
    assert_eq!(header_phis, 1, "only the iterator gets a phi:\n{f}");
}

#[test]
fn promotion_is_blocked_for_conditional_stores() {
    let src = "void f(double* a, double* x, int i, int n) {
        for (int k = 0; k < n; k++) { if (x[k] > 0.0) { a[i] = a[i] + 1.0; } }
    }";
    let m = compile(src, "t").unwrap();
    let f = m.function("f").unwrap();
    // The store stays inside the loop (no store in any exit block).
    let exit_store = f
        .block_ids()
        .filter(|&b| f.block(b).name.as_deref() == Some("loop.exit"))
        .any(|b| {
            f.block(b)
                .instrs
                .iter()
                .any(|&v| f.opcode(v) == Some(Opcode::Store))
        });
    assert!(!exit_store, "{f}");
}

#[test]
fn promotion_is_blocked_by_an_early_return() {
    // The sunk store would sit on the header's exit, which the
    // `return` path never reaches.
    let src = "void f(double* a, double* x, int n) {
        for (int k = 0; k < n; k++) { a[0] = a[0] + x[k]; if (x[k] > 5.0) return; }
    }";
    let m = compile(src, "t").unwrap();
    let f = m.function("f").unwrap();
    let promoted = f
        .block_ids()
        .flat_map(|b| f.block(b).instrs.clone())
        .any(|v| f.value(v).name.as_deref() == Some("promoted"));
    assert!(!promoted, "{f}");
}

#[test]
fn scalar_accumulation_still_works_end_to_end() {
    let m = compile(
        "double dot(double* x, double* y, int n) { double acc = 0.0; for (int i = 0; i < n; i++) acc += x[i] * y[i]; return acc; }",
        "t",
    )
    .unwrap();
    let f = m.function("dot").unwrap();
    let header = ssair::BlockId(1);
    // acc and i phis survive optimization.
    let phis = f
        .block(header)
        .instrs
        .iter()
        .filter(|&&v| f.opcode(v) == Some(Opcode::Phi))
        .count();
    assert_eq!(phis, 2);
}

#[test]
fn load_forwarding_follows_a_forwarded_load() {
    // `u` forwards to `t`, then the reload of `b[0]` forwards to `u`:
    // both stores must end up storing the one load that remains.
    let src = "double f(double* a, double* b) { double t = a[0]; double u = a[0]; b[0] = u; a[1] = b[0]; return t; }";
    let m = compile(src, "t").unwrap();
    ssair::verify::verify_module(&m).expect("optimized IR verifies");
    let f = m.function("f").unwrap();
    let of = |op: Opcode| -> Vec<ssair::ValueId> {
        f.block(ssair::BlockId(0))
            .instrs
            .iter()
            .copied()
            .filter(|&v| f.opcode(v) == Some(op))
            .collect()
    };
    let loads = of(Opcode::Load);
    assert_eq!(loads.len(), 1, "{f}");
    let stored: Vec<_> = of(Opcode::Store)
        .iter()
        .map(|&s| f.instr(s).unwrap().operands[0])
        .collect();
    assert_eq!(stored, vec![loads[0], loads[0]], "{f}");
}

#[test]
fn licm_hoists_a_chain_out_of_a_nest_in_one_call() {
    // `s * 3.0 + 1.0` is invariant in both loops, and the add needs
    // the multiply hoisted first.
    let src = "void f(double* a, double s, int n, int m) {
        for (int i = 0; i < n; i++) for (int j = 0; j < m; j++) a[j] = a[j] * (s * 3.0 + 1.0);
    }";
    let mut m = compile_unoptimized(src, "t").unwrap();
    let f = m.function_mut("f").unwrap();
    let user = |f: &ssair::Function, op: Opcode, of: ValueId| {
        f.block_ids()
            .flat_map(|b| f.block(b).instrs.clone())
            .find(|&v| f.opcode(v) == Some(op) && f.instr(v).unwrap().operands[0] == of)
            .unwrap()
    };
    let mul = user(f, Opcode::FMul, f.params[1]);
    let add = user(f, Opcode::FAdd, mul);
    let entry = ssair::BlockId(0);
    assert!(
        !f.block(entry).instrs.contains(&mul),
        "starts in the inner loop"
    );
    opt::hoist_loop_invariants(f);
    ssair::verify::verify_function(f).expect("hoisted IR verifies");
    // Both left the inner loop and then the outer one: they sit in
    // the entry block, the outer preheader, in dependence order.
    let at = |v: ValueId| f.block(entry).instrs.iter().position(|&x| x == v);
    let (Some(mul_at), Some(add_at)) = (at(mul), at(add)) else {
        panic!("chain not hoisted to the entry block:\n{f}");
    };
    assert!(mul_at < add_at, "{f}");
}

#[test]
fn promotion_handles_sibling_loops_in_one_call() {
    let src = "void f(double* a, double* b, double* x, int i, int n) {
        for (int k = 0; k < n; k++) a[i] = a[i] + x[k];
        for (int k = 0; k < n; k++) b[i] = b[i] * x[k];
    }";
    let mut m = compile_unoptimized(src, "t").unwrap();
    let f = m.function_mut("f").unwrap();
    while opt::fold_constants(f) > 0 {}
    while opt::common_subexpression_elimination(f) > 0 {}
    while opt::eliminate_redundant_loads(f) > 0 {}
    opt::hoist_loop_invariants(f);
    opt::promote_read_modify_write(f);
    ssair::verify::verify_function(f).expect("promoted IR verifies");
    let promoted = f
        .block_ids()
        .flat_map(|b| f.block(b).instrs.clone())
        .filter(|&v| f.value(v).name.as_deref() == Some("promoted"))
        .count();
    assert_eq!(promoted, 2, "one accumulator per loop:\n{f}");
    let cfg = ssair::analysis::Cfg::new(f);
    let dom = ssair::analysis::DomTree::dominators(&cfg);
    let loops = ssair::analysis::LoopForest::new(&cfg, &dom);
    let stores_in_loops = f
        .block_ids()
        .filter(|&b| loops.innermost_containing(b).is_some())
        .flat_map(|b| f.block(b).instrs.clone())
        .filter(|&v| f.opcode(v) == Some(Opcode::Store))
        .count();
    assert_eq!(stores_in_loops, 0, "{f}");
}

#[test]
fn promotion_chains_from_an_inner_loop_to_its_parent() {
    // Promoting the inner loop sinks its store to the inner exit, in
    // the outer loop's body, where the outer loop promotes it again.
    let src = "void f(double* a, double* x, int n) {
        for (int i = 0; i < n; i++) for (int k = 0; k < n; k++) a[0] = a[0] + x[i*n+k];
    }";
    let m = compile(src, "t").unwrap();
    ssair::verify::verify_module(&m).expect("optimized IR verifies");
    let f = m.function("f").unwrap();
    let promoted = f
        .block_ids()
        .flat_map(|b| f.block(b).instrs.clone())
        .filter(|&v| f.value(v).name.as_deref() == Some("promoted"))
        .count();
    assert_eq!(promoted, 2, "one accumulator per loop:\n{f}");
    let count = |op: Opcode| {
        f.block_ids()
            .flat_map(|b| f.block(b).instrs.clone())
            .filter(|&v| f.opcode(v) == Some(op))
            .count()
    };
    assert_eq!(count(Opcode::Store), 1, "one store, after the nest:\n{f}");
}

#[test]
fn optimizer_output_verifies() {
    let srcs = [
        "double f(double* a, int n) { double s = 0.0; for (int i = 0; i < n; i++) { if (a[i] > 0.0) s += a[i]; } return s; }",
        "void g(double* c, double* a, double* b, int n) { for (int i = 0; i < n; i++) { for (int j = 0; j < n; j++) { double acc = 0.0; for (int k = 0; k < n; k++) acc += a[i*n+k]*b[k*n+j]; c[i*n+j] = acc; } } }",
    ];
    for (k, s) in srcs.iter().enumerate() {
        let m = compile(s, &format!("v{k}")).unwrap();
        ssair::verify::verify_module(&m).expect("optimized IR verifies");
    }
}

#[test]
fn unoptimized_vs_optimized_instruction_counts() {
    let src = "double f() { return 1.0 + 2.0 * 3.0; }";
    let u = compile_unoptimized(src, "t").unwrap();
    let o = compile(src, "t").unwrap();
    let count = |m: &ssair::Module| -> usize {
        let f = m.function("f").unwrap();
        f.block_ids().map(|b| f.block(b).instrs.len()).sum()
    };
    assert!(count(&o) < count(&u));
}
