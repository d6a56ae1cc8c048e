//! The pipeline's reversal witness compares every reversed variant
//! against the forward runs validation already made. This test pins that
//! sharing: [`idiomatch_core::Validated::witness`] witnesses exactly what
//! the standalone oracle does, which runs its own forward runs.

use idiomatch_core::check_reversal_oracle;
use progen::{generate, Spec, FUZZ_SEEDS};

#[test]
fn pipeline_forward_runs_witness_the_same_regions_as_the_standalone_oracle() {
    let mut checked = 0;
    for seed in 0..200 {
        let spec = generate(seed);
        let mut out = idiomatch_core::compile(&spec.render(), &spec.module_name())
            .expect("generated program compiles")
            .detect()
            .transform()
            .validate(Spec::ENTRY, progen::setup, &FUZZ_SEEDS);
        let standalone = check_reversal_oracle(
            &out.module,
            &out.instances,
            Spec::ENTRY,
            progen::setup,
            &FUZZ_SEEDS,
        )
        .expect("standalone witness passes");
        let shared = out.witness().expect("shared witness passes");
        assert_eq!(shared, standalone, "seed {seed}");
        checked += shared.checked;
    }
    assert!(checked > 200, "only {checked} regions witnessed");
}
