//! Suite-wide differential transformation test: every benchmark runs
//! detect → transform-all → execute (original vs transformed, simulated
//! vendor hosts registered) under several seeded input sets, with
//! element-wise bitwise validation on every program array plus the entry
//! return value. This is what backs the Figure-17/18 coverage numbers
//! with executed code instead of one-instance spot checks.

use idiomatch::benchsuite;
use idiomatch::core as pipeline;
use idiomatch::xform::Outcome;

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
