//! The reversal witness compares every reversed variant against the
//! forward runs validation already made. These tests pin that sharing:
//! the pipeline path witnesses exactly what the standalone oracle does,
//! and the comparison really reads the forward images it is handed.

use idiomatch_core::{
    check_reversal_oracle, check_reversal_oracle_with, run_pipeline, PipelineOutcome,
    ValidationError,
};
use interp::Value;
use progen::{generate, Failure, Spec, FUZZ_SEEDS};
use ssair::Type;

fn pipeline(seed: u64) -> PipelineOutcome {
    let spec = generate(seed);
    run_pipeline(
        &spec.render(),
        &spec.module_name(),
        Spec::ENTRY,
        progen::setup,
        &FUZZ_SEEDS,
        &idioms::DetectOptions::default(),
    )
    .expect("generated program compiles")
}

#[test]
fn pipeline_forward_runs_witness_the_same_regions_as_the_standalone_oracle() {
    let mut checked = 0;
    for seed in 0..200 {
        let mut out = pipeline(seed);
        assert_eq!(out.forward.len(), FUZZ_SEEDS.len(), "seed {seed}");
        let standalone = check_reversal_oracle(
            &out.module,
            &out.instances,
            Spec::ENTRY,
            progen::setup,
            &FUZZ_SEEDS,
        )
        .expect("standalone witness passes");
        let shared = check_reversal_oracle_with(
            &out.module,
            &out.instances,
            Spec::ENTRY,
            progen::setup,
            &FUZZ_SEEDS,
            std::mem::take(&mut out.forward),
        )
        .expect("shared witness passes");
        assert_eq!(shared, standalone, "seed {seed}");
        checked += shared.checked;
    }
    assert!(checked > 200, "only {checked} regions witnessed");
}

#[test]
fn a_flipped_forward_element_is_reported_at_its_seed_array_and_index() {
    // Seed 0 certifies independent regions, so the witness runs.
    let mut out = pipeline(0);
    let k = 1;
    let run = &mut out.forward[k];
    let (array, al) = run.mem.allocations()[..run.setup_allocs]
        .iter()
        .enumerate()
        .find(|(_, al)| al.elem == Type::F64 && al.count > 0)
        .map(|(i, al)| (i, al.clone()))
        .expect("a double array");
    let index = al.count / 2;
    let addr = al.base + (8 * index) as u64;
    let honest = run.mem.load_f64(addr).expect("in bounds");
    let flipped = f64::from_bits(honest.to_bits() ^ 1);
    run.mem.store_f64(addr, flipped).expect("in bounds");

    let err = check_reversal_oracle_with(
        &out.module,
        &out.instances,
        Spec::ENTRY,
        progen::setup,
        &FUZZ_SEEDS,
        out.forward,
    )
    .map_err(Failure::ReversalDiverged)
    .expect_err("the flipped image must convict the witness");
    match err {
        Failure::ReversalDiverged(ValidationError::Element {
            seed,
            array: a,
            index: i,
            original,
            transformed,
            ..
        }) => {
            assert_eq!((seed, a, i), (FUZZ_SEEDS[k], array, index));
            assert_eq!(original, Value::F(flipped));
            assert_eq!(transformed, Value::F(honest));
        }
        other => panic!("expected an element divergence, got {other}"),
    }
}
