//! Suite-wide reversed-iteration oracle: every `IndependentIterations`
//! certificate handed out over the 21 bundled benchmarks must survive
//! running its loop backwards (bitwise-identical final state), and the
//! sweep must actually witness a meaningful share of them.

#[test]
fn suite_certificates_survive_iteration_reversal() {
    let mut checked = 0;
    let mut skipped = Vec::new();
    for b in benchsuite::all() {
        let module = minicc::compile(b.source, b.name).expect("bundled benchmark compiles");
        let instances = idioms::detect_module(&module);
        let oracle = idiomatch_core::check_reversal_oracle(
            &module,
            &instances,
            b.entry,
            b.setup,
            &benchsuite::VALIDATION_SEEDS,
        )
        .unwrap_or_else(|e| panic!("{}: reversed run diverged: {e}", b.name));
        checked += oracle.checked;
        for (f, why) in oracle.skipped {
            skipped.push(format!("{}/{f}: {why}", b.name));
        }
    }
    // The suite currently certifies 10 independent-iterations regions
    // and the rewriter covers every one; a new skip means a loop shape
    // regressed out of oracle coverage.
    assert!(skipped.is_empty(), "uncovered regions: {skipped:?}");
    assert!(checked >= 10, "only {checked} regions witnessed");
}

#[test]
fn pipeline_forward_runs_witness_the_same_regions_as_the_standalone_oracle() {
    // The pipeline hands validation's forward runs to the witness; the
    // verdict must equal the standalone oracle's, which runs its own.
    for b in benchsuite::all() {
        let mut out = idiomatch_core::compile(b.source, b.name)
            .expect("bundled benchmark compiles")
            .detect()
            .transform()
            .validate(b.entry, b.setup, &benchsuite::VALIDATION_SEEDS);
        let standalone = idiomatch_core::check_reversal_oracle(
            &out.module,
            &out.instances,
            b.entry,
            b.setup,
            &benchsuite::VALIDATION_SEEDS,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let shared = out.witness().unwrap_or_else(|e| panic!("{}: {e}", b.name));
        assert_eq!(shared, standalone, "{}", b.name);
    }
}
