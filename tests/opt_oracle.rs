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

use idiomatch::core::validate_transform;
use idiomatch::interp::{Memory, Value};
use idiomatch::{benchsuite, minicc, progen, ssair};

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
