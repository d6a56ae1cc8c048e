//! The pipeline's reversal witness compares every reversed variant
//! against the forward runs validation already made, from the memory
//! images validation set up, with the analyses detection built. These
//! tests pin that sharing: [`idiomatch_core::Validated::witness`]
//! witnesses exactly what the standalone oracle does, which makes all of
//! that itself, down to the first reported error, and the chain calls the
//! input setup once per seed.

use idiomatch_core::{check_reversal_oracle, ReversalOracle, ValidationError};
use interp::{Memory, Value};
use progen::{generate, ArrayId, Spec, FUZZ_SEEDS};
use std::cell::Cell;

/// The witness of the stage chain and of the standalone oracle on one
/// progen program, under `setup`.
fn both_witnesses(
    seed: u64,
    setup: impl Fn(&mut Memory, u64) -> Vec<Value> + Copy,
) -> [Result<ReversalOracle, ValidationError>; 2] {
    let spec = generate(seed);
    let mut out = idiomatch_core::compile(&spec.render(), &spec.module_name())
        .expect("generated program compiles")
        .detect()
        .transform()
        .validate(Spec::ENTRY, setup, &FUZZ_SEEDS);
    let standalone =
        check_reversal_oracle(&out.module, &out.instances, Spec::ENTRY, setup, &FUZZ_SEEDS);
    [out.witness(), standalone]
}

/// Chain and standalone witness agree on progen seeds `seeds` under the
/// generator's own inputs, and every region they check passes.
fn assert_witnesses_agree(seeds: std::ops::Range<u64>) -> usize {
    let mut checked = 0;
    for seed in seeds {
        let [shared, standalone] = both_witnesses(seed, progen::setup);
        assert_eq!(shared, standalone, "seed {seed}");
        checked += shared.expect("witness passes").checked;
    }
    checked
}

#[test]
fn pipeline_forward_runs_witness_the_same_regions_as_the_standalone_oracle() {
    let checked = assert_witnesses_agree(0..200);
    assert!(checked > 200, "only {checked} regions witnessed");
}

#[test]
#[ignore = "progen seeds 200..2000; run in release with --include-ignored"]
fn pipeline_and_standalone_witness_agree_on_progen_0_to_2000() {
    let checked = assert_witnesses_agree(200..2000);
    assert!(checked > 1800, "only {checked} regions witnessed");
}

/// The generator's inputs with the first output array passed as the first
/// input array too. The alias facts that refine certificates come from
/// the module's call sites, and the entry's arguments are none of them,
/// so some certified loops now read what they write, and their reversed
/// runs diverge or fault.
fn aliased_setup(mem: &mut Memory, seed: u64) -> Vec<Value> {
    let position = |id| ArrayId::ALL.iter().position(|&a| a == id).expect("listed");
    let mut args = progen::setup(mem, seed);
    args[position(ArrayId::O0)] = args[position(ArrayId::D0)];
    args
}

/// Both witnesses report the same first error: the same variant, seed,
/// side, array and index.
fn assert_errors_agree(seeds: std::ops::Range<u64>) -> usize {
    let mut elements = 0;
    for seed in seeds {
        let [shared, standalone] = both_witnesses(seed, aliased_setup);
        assert_eq!(shared, standalone, "seed {seed}");
        elements += usize::from(matches!(shared, Err(ValidationError::Element { .. })));
    }
    elements
}

#[test]
fn pipeline_and_standalone_witness_report_the_same_first_error() {
    let elements = assert_errors_agree(0..200);
    assert!(elements >= 5, "only {elements} element divergences");
}

#[test]
#[ignore = "progen seeds 200..2000; run in release with --include-ignored"]
fn pipeline_and_standalone_witness_report_the_same_first_error_on_progen_0_to_2000() {
    let elements = assert_errors_agree(200..2000);
    assert!(elements >= 50, "only {elements} element divergences");
}

/// Validation and the witness start every run of a seed from one memory
/// image: the chain calls the setup once per seed, however many reversed
/// variants it runs, and so does the standalone oracle.
#[test]
fn the_chain_sets_up_each_seed_once() {
    let mut checked = 0;
    for seed in 0..20 {
        let calls = Cell::new(0);
        let setup = |mem: &mut Memory, s| {
            calls.set(calls.get() + 1);
            progen::setup(mem, s)
        };
        let spec = generate(seed);
        let mut out = idiomatch_core::compile(&spec.render(), &spec.module_name())
            .expect("generated program compiles")
            .detect()
            .transform()
            .validate(Spec::ENTRY, setup, &FUZZ_SEEDS);
        let oracle = out.witness().expect("witness passes");
        assert_eq!(calls.get(), FUZZ_SEEDS.len(), "seed {seed}: chain");
        calls.set(0);
        check_reversal_oracle(&out.module, &out.instances, Spec::ENTRY, setup, &FUZZ_SEEDS)
            .expect("witness passes");
        let standalone = if oracle.checked > 0 {
            FUZZ_SEEDS.len()
        } else {
            0
        };
        assert_eq!(calls.get(), standalone, "seed {seed}: standalone");
        checked += oracle.checked;
    }
    assert!(checked > 20, "only {checked} regions witnessed");
}
