//! Optimizer translation validation and IR drift guard.
//!
//! Every other oracle compares the *optimized* original against something
//! else, so a miscompile in fold, CSE, load forwarding, LICM, promotion or
//! DCE would be inherited by both sides and stay invisible. Here the
//! unoptimized module is the reference: `compile(src)` must match
//! `compile_unoptimized(src)` bitwise — return value and every program
//! array — on the 21 suite benchmarks and on generated programs.
//!
//! The drift guard pins a 64-bit FNV-1a hash of the printed optimized IR,
//! so a change that is meant to keep the optimizer's output byte-identical
//! (a refactor, a speed-up) proves it. Changing a pinned constant needs a
//! stated reason.
//!
//! Two more properties pin the optimizer's shape and cost. Its output is
//! a fixpoint of every repeatable pass (so one CSE call is enough inside
//! `ssair::opt::optimize_function`), both for `minicc::compile` and for
//! every device program idiom replacement generates. And both an `if`
//! ladder and a ladder of read-modify-write loops compile in time linear
//! in their length.

use idiomatch::core::validate_transform;
use idiomatch::interp::{Memory, Value};
use idiomatch::xform::Outcome;
use idiomatch::{benchsuite, minicc, progen, ssair};
use ssair::opt::{common_subexpression_elimination, eliminate_redundant_loads, fold_constants};
use ssair::pass::eliminate_dead_code;

/// FNV-1a over the printed optimized IR of the 21 suite benchmarks, in
/// `benchsuite::all()` order.
const SUITE_IR_HASH: u64 = 0x16a6_ede0_4cbe_c331;

/// FNV-1a over the suite (as above) followed by progen seeds 0..2000.
const SUITE_AND_PROGEN_IR_HASH: u64 = 0x0899_fecc_9b40_7d56;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Validates the optimized module against the unoptimized one.
fn check_optimizer(
    source: &str,
    name: &str,
    entry: &str,
    setup: impl Fn(&mut Memory, u64) -> Vec<Value>,
    seeds: &[u64],
) {
    let reference = minicc::compile_unoptimized(source, name).expect("compiles");
    let optimized = minicc::compile(source, name).expect("compiles");
    let summary = validate_transform(&reference, &optimized, entry, setup, seeds)
        .unwrap_or_else(|e| panic!("{name}: optimizer changed behaviour: {e}"));
    assert!(summary.elements > 0, "{name}: vacuous validation");
}

fn check_progen(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let spec = progen::generate(seed);
        check_optimizer(
            &spec.render(),
            &format!("progen-{seed}"),
            progen::Spec::ENTRY,
            progen::setup,
            &progen::FUZZ_SEEDS,
        );
    }
}

fn suite_hash() -> u64 {
    let mut h = FNV_OFFSET;
    for b in benchsuite::all() {
        let m = minicc::compile(b.source, b.name).expect("benchmark compiles");
        h = fnv1a(h, ssair::printer::print_module(&m).as_bytes());
    }
    h
}

#[test]
fn optimizer_preserves_suite_behaviour() {
    for b in benchsuite::all() {
        check_optimizer(
            b.source,
            b.name,
            b.entry,
            b.setup,
            &[benchsuite::CANONICAL_SEED, 1, 2],
        );
    }
}

#[test]
fn optimizer_preserves_progen_behaviour() {
    check_progen(0..300);
}

#[test]
#[ignore = "2,000 programs; run with --include-ignored in release"]
fn optimizer_preserves_progen_behaviour_to_2000() {
    check_progen(300..2000);
}

#[test]
fn optimized_suite_ir_is_unchanged() {
    assert_eq!(suite_hash(), SUITE_IR_HASH, "optimized suite IR drifted");
}

#[test]
#[ignore = "2,000 programs; run with --include-ignored in release"]
fn optimized_suite_and_progen_ir_is_unchanged() {
    let mut h = suite_hash();
    for seed in 0..2000 {
        let m = minicc::compile(&progen::generate(seed).render(), "drift").expect("compiles");
        h = fnv1a(h, ssair::printer::print_module(&m).as_bytes());
    }
    assert_eq!(h, SUITE_AND_PROGEN_IR_HASH, "optimized IR drifted");
}

#[test]
fn optimized_ir_is_a_fixpoint_of_each_pass() {
    type Pass = fn(&mut ssair::Function) -> usize;
    let passes: [(&str, Pass); 4] = [
        ("cse", common_subexpression_elimination),
        ("fold", fold_constants),
        ("loads", eliminate_redundant_loads),
        ("dce", eliminate_dead_code),
    ];
    let suite = benchsuite::all()
        .into_iter()
        .map(|b| (b.source.to_owned(), b.name.to_owned()));
    let generated =
        (0..200).map(|seed| (progen::generate(seed).render(), format!("progen-{seed}")));
    let mut devices = 0;
    for (source, name) in suite.chain(generated) {
        // The compiled functions, then every device program generated to
        // replace an idiom in them.
        let t = idiomatch::core::compile(&source, &name)
            .expect("compiles")
            .detect()
            .transform();
        let device = (t.xform.outcomes.iter())
            .filter_map(|o| match &o.outcome {
                Outcome::Replaced(rep) => Some(&rep.generated),
                _ => None,
            })
            .flatten()
            .map(|g| t.xform.module.function(g).expect("linked"));
        devices += device.clone().count();
        for f in t.module.functions.iter().chain(device) {
            for (pass, run) in passes {
                let mut g = f.clone();
                assert_eq!(run(&mut g), 0, "{name}: {pass} changes @{}", f.name);
            }
        }
    }
    // 405 at the time of writing: a guard against a vacuous pass.
    assert!(devices >= 400, "only {devices} device programs");
}

/// `n` ifs in a row, each guarding one update of an accumulator: every
/// arm adds a block, an edge and a merge phi.
fn if_ladder(n: usize) -> String {
    let mut src =
        String::from("double ladder(double* a, double* out, long n) {\n  double x = 0.0;\n");
    for i in 0..n {
        src += &format!("  if (n > {i}) {{ x = x + a[{}]; }}\n", i % 16);
    }
    src + "  out[0] = x;\n  return x;\n}\n"
}

#[test]
fn optimizer_preserves_an_if_ladder() {
    let setup = |mem: &mut Memory, seed: u64| {
        let a = benchsuite::fill_f64(mem, 16, benchsuite::mix(seed, 1));
        let out = benchsuite::zeros_f64(mem, 1);
        vec![
            Value::P(a),
            Value::P(out),
            Value::I((seed * 53 % 260) as i64),
        ]
    };
    check_optimizer(&if_ladder(200), "ladder", "ladder", setup, &[0, 1, 2, 3]);
}

/// Release only: the frontend is linear in the ladder's length. Lowering
/// used to rescan the function on every SSA edit (8 s for 5,000 ifs).
#[cfg(not(debug_assertions))]
#[test]
#[ignore = "timing; run with --include-ignored in release"]
fn if_ladder_compiles_in_linear_time() {
    let time = |src: &str| {
        let t = std::time::Instant::now();
        minicc::compile(src, "ladder").expect("compiles");
        t.elapsed().as_secs_f64()
    };
    let (src5, src10) = (if_ladder(5_000), if_ladder(10_000));
    // The fastest of three alternating runs, so that a stall of the box
    // (or a test running beside this one) does not count.
    let (mut t5, mut t10) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        t5 = t5.min(time(&src5));
        t10 = t10.min(time(&src10));
    }
    assert!(t5 < 2.0, "5,000 ifs took {t5:.3} s");
    assert!(
        t10 <= 3.0 * t5,
        "10,000 ifs took {t10:.3} s, 5,000 took {t5:.3} s"
    );
}

/// `n` loops in a row, each accumulating into one element of `a`: every
/// loop is a read-modify-write that promotion turns into a phi.
fn rmw_ladder(n: usize) -> String {
    let mut src = String::from("void ladder(double* a, double* x, long m) {\n");
    for i in 0..n {
        let c = i % 16;
        src += &format!("  for (long k = 0; k < m; k++) {{ a[{c}] = a[{c}] + x[k]; }}\n");
    }
    src + "}\n"
}

/// Setup of the promotion tests: 16 accumulators, 64 inputs and a trip
/// count of 0..8 that varies with the seed.
fn rmw_setup(mem: &mut Memory, seed: u64) -> Vec<Value> {
    let a = benchsuite::fill_f64(mem, 16, benchsuite::mix(seed, 1));
    let x = benchsuite::fill_f64(mem, 64, benchsuite::mix(seed, 2));
    vec![Value::P(a), Value::P(x), Value::I((seed * 5 % 9) as i64)]
}

#[test]
fn optimizer_preserves_promoted_loops() {
    let seeds = [0, 1, 2, 3];
    check_optimizer(&rmw_ladder(200), "ladder", "ladder", rmw_setup, &seeds);
    // A store sunk out of the inner loop is promoted out of the outer one.
    let nest = "void nest(double* a, double* x, long m) {
        for (long i = 0; i < m; i++) for (long k = 0; k < m; k++) a[0] = a[0] + x[i*m+k];
    }";
    check_optimizer(nest, "nest", "nest", rmw_setup, &seeds);
    // An early return leaves the loop without passing its exit block, so
    // the accumulation must stay in memory.
    let early = "void early(double* a, double* x, long m) {
        for (long k = 0; k < m; k++) { a[0] = a[0] + x[k]; if (x[k] > -0.25) return; }
    }";
    check_optimizer(early, "early", "early", rmw_setup, &seeds);
}

/// Release only: promotion is linear in the number of promoted loops.
/// It used to restart from the first loop and rescan the whole function
/// after every promotion, and the loop forest linked parents in
/// quadratic time (about 1.7 s for 2,000 loops, 5x the time of 1,000, on
/// a 2-vCPU x86-64 box).
#[cfg(not(debug_assertions))]
#[test]
#[ignore = "timing; run with --include-ignored in release"]
fn rmw_ladder_compiles_in_linear_time() {
    let time = |src: &str| {
        let t = std::time::Instant::now();
        minicc::compile(src, "ladder").expect("compiles");
        t.elapsed().as_secs_f64()
    };
    let (src1, src2) = (rmw_ladder(1_000), rmw_ladder(2_000));
    // The fastest of three alternating runs, as for the if ladder.
    let (mut t1, mut t2) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        t1 = t1.min(time(&src1));
        t2 = t2.min(time(&src2));
    }
    assert!(t2 < 1.0, "2,000 loops took {t2:.3} s");
    assert!(
        t2 <= 3.0 * t1,
        "2,000 loops took {t2:.3} s, 1,000 took {t1:.3} s"
    );
}
