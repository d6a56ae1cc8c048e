//! Suite-wide differential transformation test: every benchmark runs
//! detect → transform-all → execute (original vs transformed, simulated
//! vendor hosts registered) under several seeded input sets, with
//! element-wise bitwise validation on every program array plus the entry
//! return value. This is what backs the Figure-17/18 coverage numbers
//! with executed code instead of one-instance spot checks.
//!
//! The drift guard pins a 64-bit FNV-1a hash of the printed transformed
//! module plus one outcome line per instance (verdict and certificate
//! included), so a change that is meant to keep the transformation's
//! output byte-identical (a refactor, a speed-up) proves it. Changing a
//! pinned constant needs a stated reason.

use idiomatch::core as pipeline;
use idiomatch::hetero::hosts::register_all;
use idiomatch::interp::{compile_module, Vm};
use idiomatch::xform::{InstanceOutcome, Outcome};
use idiomatch::{benchsuite, progen, ssair};

/// FNV-1a over the transformed modules and outcomes of the 21 suite
/// benchmarks, in `benchsuite::all()` order.
const SUITE_XFORM_HASH: u64 = 0x7a1e_481a_290a_a46c;

/// FNV-1a over the suite (as above) followed by progen seeds 0..2000.
const SUITE_AND_PROGEN_XFORM_HASH: u64 = 0x550b_d05a_c3f7_2d9a;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One line per instance: its kind and the full outcome.
fn describe(o: &InstanceOutcome) -> String {
    format!("{:?}: {:?}\n", o.instance.kind, o.outcome)
}

/// Folds the transformed module of `source` and its outcomes into `h`.
fn xform_hash(h: u64, source: &str, name: &str) -> u64 {
    let t = pipeline::compile(source, name)
        .expect("compiles")
        .detect()
        .transform();
    let mut h = fnv1a(h, ssair::printer::print_module(&t.xform.module).as_bytes());
    for o in &t.xform.outcomes {
        h = fnv1a(h, describe(o).as_bytes());
    }
    h
}

fn suite_hash() -> u64 {
    benchsuite::all()
        .iter()
        .fold(FNV_OFFSET, |h, b| xform_hash(h, b.source, b.name))
}

#[test]
fn transformed_suite_ir_is_unchanged() {
    assert_eq!(
        suite_hash(),
        SUITE_XFORM_HASH,
        "transformed suite IR drifted"
    );
}

#[test]
#[ignore = "2,000 programs; run with --include-ignored in release"]
fn transformed_suite_and_progen_ir_is_unchanged() {
    let h = (0..2000).fold(suite_hash(), |h, seed| {
        xform_hash(h, &progen::generate(seed).render(), "drift")
    });
    assert_eq!(h, SUITE_AND_PROGEN_XFORM_HASH, "transformed IR drifted");
}

#[test]
fn every_benchmark_transforms_fully_and_validates() {
    // ≥ 2 seeds: the canonical workload plus one randomized input vector
    // (the release-mode `table_replace` binary runs the full seed set).
    let seeds = &benchsuite::VALIDATION_SEEDS[..2];
    let mut detected = 0usize;
    let mut replaced = 0usize;
    for b in benchsuite::all() {
        let report = pipeline::compile(b.source, b.name)
            .unwrap()
            .detect()
            .transform()
            .validate(b.entry, b.setup, seeds);
        assert!(report.verify_errors.is_empty(), "{}", b.name);
        let summary = report
            .validation
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: validation failed: {e}", b.name));
        assert_eq!(summary.seeds, seeds.len(), "{}", b.name);
        assert!(
            summary.arrays > 0 && summary.elements > 0,
            "{}: validation must compare real arrays",
            b.name
        );
        for o in &report.xform.outcomes {
            detected += 1;
            match &o.outcome {
                Outcome::Replaced(rep) => {
                    replaced += 1;
                    // Generated device code is really linked in.
                    for g in &rep.generated {
                        assert!(
                            report.xform.module.function(g).is_some(),
                            "{}: generated function {g} missing",
                            b.name
                        );
                    }
                }
                Outcome::Shadowed { .. } | Outcome::Failed(_) => {}
            }
        }
    }
    // The paper's Figure-16 population: all 60 instances, all replaced.
    // A regression that starts skipping instances (new Unsupported paths,
    // overlap mis-resolution) must show up here, not silently shrink the
    // transformation coverage.
    assert_eq!(detected, 60, "idiom population drifted");
    assert_eq!(replaced, 60, "replacement coverage drifted");
}

/// VM steps of `entry` in `m` on the canonical input, vendor hosts
/// registered.
fn canonical_steps(m: &ssair::Module, b: &benchsuite::Benchmark) -> u64 {
    let code = compile_module(m);
    let mut vm = Vm::new(&code);
    register_all(&mut vm);
    let args = (b.setup)(&mut vm.mem, benchsuite::CANONICAL_SEED);
    vm.run(b.entry, &args)
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    vm.steps()
}

/// Checks the parameters of the device programs in `m`: hetero's
/// executors find each loop's bounds by name and the stencil executors
/// rewrite the outer ones per chunk, so each stays a parameter of its
/// own. Returns the number of stride parameters (`%sw`, `%s{k}`) of the
/// Stencil2D programs.
fn check_device_params(m: &ssair::Module, bench: &str) -> usize {
    let mut strides = 0;
    for f in &m.functions {
        let names: Vec<&str> = (f.params.iter())
            .map(|&p| f.value(p).name.as_deref().unwrap_or(""))
            .collect();
        let bounds: &[&str] = if f.name.starts_with("halide_st2_") {
            let stride = |n: &&&str| {
                n.strip_prefix('s')
                    .is_some_and(|k| k == "w" || k.parse::<u32>().is_ok())
            };
            strides += names.iter().filter(stride).count();
            &["b0r", "e0r", "b1c", "e1c"]
        } else if f.name.starts_with("halide_st1_") || f.name.starts_with("lift_") {
            &["begin", "end"]
        } else {
            continue;
        };
        for bound in bounds {
            let count = names.iter().filter(|n| *n == bound).count();
            assert_eq!(count, 1, "{bench}: %{bound} of @{} in {names:?}", f.name);
        }
    }
    strides
}

#[test]
fn replacement_never_costs_more_steps() {
    // The device loops hold their kernels inline and go through the
    // optimizer, so a replaced program runs no more steps than the
    // original.
    for b in benchsuite::all() {
        let t = pipeline::compile(b.source, b.name)
            .expect("compiles")
            .detect()
            .transform();
        let original = canonical_steps(&t.module, &b);
        let transformed = canonical_steps(&t.xform.module, &b);
        assert!(
            transformed <= original,
            "{}: {transformed} transformed steps against {original} original",
            b.name
        );
        let strides = check_device_params(&t.xform.module, b.name);
        // All of stencil's reads and its write share one stride value,
        // so CSE merges their address arithmetic.
        if b.name == "stencil" {
            assert_eq!(strides, 1, "stencil's Stencil2D device program");
        }
    }
}
