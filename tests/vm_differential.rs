//! Differential suite for the two executor tiers: the tree-walking
//! `Machine` oracle and the bytecode `Vm` must agree **bit-for-bit** —
//! return value, every byte of final memory, and the step counter — on
//! every bundled benchmark under multiple input seeds, on randomized
//! progen programs, and on error paths (same `ExecError` message at the
//! same step count, step-limit exhaustion included).

use idiomatch::benchsuite;
use idiomatch::hetero::hosts::register_all;
use idiomatch::interp::{compile_module, Machine, Memory, Value, Vm};
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
            if let Ok(r) = idiomatch::xform::reverse::reversed_module(m, &inst.function, iv) {
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
