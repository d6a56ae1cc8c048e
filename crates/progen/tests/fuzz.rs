//! End-to-end properties of the generator + pipeline oracle: a batch of
//! seeded programs must pass every guarantee (100% planted recall, zero
//! near-miss false positives, zero validation failures), and an injected
//! canary miscompile must be caught and shrunk to a tiny reproducer.

use progen::{
    check, generate, shrink, to_corpus, AdversaryKind, Canary, Failure, PlantKind, RedKernel, Role,
};

/// Seeds checked by `cargo test` (the release-mode `fuzz` binary and the
/// CI smoke job run hundreds more).
const BATCH: u64 = 40;

#[test]
fn every_generated_program_passes_the_pipeline_oracle() {
    let mut planted = 0;
    let mut near = 0;
    let mut replaced = 0;
    for seed in 0..BATCH {
        let spec = generate(seed);
        let checked = check(&spec, Canary::None).unwrap_or_else(|f| {
            panic!(
                "seed {seed} violated a guarantee: {f}\n--- source ---\n{}",
                spec.render()
            )
        });
        assert!(
            checked.validation.elements > 0,
            "seed {seed}: vacuous validation"
        );
        planted += checked.planted;
        near += checked.near_misses;
        replaced += checked.replaced;
    }
    // The batch must actually exercise the machinery.
    assert!(planted >= BATCH as usize, "at least one plant per program");
    assert!(near > 0, "near-misses must occur in the batch");
    assert!(
        replaced >= planted,
        "every plant replaced (plus incidentals)"
    );
}

fn one_adversary(kind: AdversaryKind) -> progen::Spec {
    progen::Spec {
        seed: 0,
        funcs: vec![progen::FuncSpec {
            name: "f0".into(),
            role: Role::Adversary(kind),
            pre: vec![],
            post: vec![],
        }],
    }
}

#[test]
fn adversaries_are_never_certified_parallel() {
    // Each adversary alone must pass the oracle: refused, undetected, or
    // at worst replaced WITHOUT an independent-iterations certificate —
    // and the honest pipeline must stay differentially sound either way.
    for kind in [
        AdversaryKind::AliasedParams,
        AdversaryKind::NonAffine,
        AdversaryKind::TriangularSweep,
    ] {
        let spec = one_adversary(kind);
        check(&spec, Canary::None)
            .unwrap_or_else(|f| panic!("{kind:?} violated the oracle: {f}\n{}", spec.render()));
    }
}

#[test]
fn aliased_stencil_is_detected_but_refused_by_call_site_facts() {
    // The aliasing adversary is the one the detector actually *sees*: in
    // its own function it is a textbook out-of-place stencil, and only
    // the whole-module call-site facts (the entry passes d2 twice) stop
    // the rewrite. Pin all three stages: detected, attempted, refused.
    let spec = one_adversary(AdversaryKind::AliasedParams);
    let out = idiomatch_core::compile(&spec.render(), "adv_alias")
        .expect("adversary program compiles")
        .detect()
        .transform()
        .validate(progen::Spec::ENTRY, progen::setup, &progen::FUZZ_SEEDS);
    assert!(
        out.instances
            .iter()
            .any(|i| i.function == "f0" && i.kind == idioms::IdiomKind::Stencil1D),
        "the aliased stencil must be detected per-function: {:?}",
        out.instances
    );
    let f0: Vec<_> = out
        .xform
        .outcomes
        .iter()
        .filter(|o| o.instance.function == "f0")
        .collect();
    assert!(
        !f0.is_empty(),
        "the instance must reach the transform driver"
    );
    for o in &f0 {
        assert!(
            matches!(o.outcome, xform::Outcome::Failed(_)),
            "the rewrite must be refused at the legality gate, got {:?}",
            o.outcome
        );
    }
    // And the original loop survives untouched, so the program still
    // validates.
    assert_eq!(out.xform.replaced(), 0);
    assert!(out.validation.is_ok(), "{:?}", out.validation);
}

#[test]
fn canary_miscompile_is_caught_and_shrinks_to_a_tiny_reproducer() {
    // Find a generated program that plants a reduction — the canary
    // corrupts the first offloaded reduction call's init argument, a
    // divergence that never touches memory (return-value-only).
    let seed = (0..200)
        .find(|&s| {
            generate(s)
                .expected()
                .iter()
                .any(|(_, k)| *k == idioms::IdiomKind::Reduction)
        })
        .expect("a reduction-planting seed exists");
    let spec = generate(seed);
    assert!(
        check(&spec, Canary::None).is_ok(),
        "the honest pipeline must pass before tampering"
    );
    let fails = |s: &progen::Spec| {
        matches!(
            check(s, Canary::BreakReductionInit),
            Err(Failure::Validation(_))
        )
    };
    assert!(fails(&spec), "the canary must be caught by validation");
    let min = shrink(&spec, fails);
    let source = min.render();
    let lines = source.lines().count();
    assert!(
        lines <= 25,
        "reproducer must be tiny, got {lines} lines:\n{source}"
    );
    // The survivor is exactly one reduction plant (plus the entry).
    assert_eq!(min.funcs.len(), 1, "only the canary target survives");
    assert!(
        matches!(min.funcs[0].role, Role::Plant(PlantKind::Reduction { .. })),
        "survivor: {:?}",
        min.funcs[0].role
    );
    // And it serializes to a replayable corpus file.
    let text = to_corpus(
        &min,
        &format!("canary-{seed}"),
        "canary: broken lift_red init",
    );
    // The same 16-line reproducer the fuzz binary's `--canary` run prints.
    assert_eq!(text.lines().count(), 16, "{text}");
    let case = progen::parse_case(&text).unwrap();
    assert!(
        progen::replay_case(&case).is_ok(),
        "the honest pipeline passes on the reproducer (the canary is not in the code)"
    );
}

#[test]
fn canary_corrupts_init_even_for_two_input_kernels() {
    // SumMul's lift_red call carries TWO read bases before the bounds,
    // so `init` sits at operand 4, not 3. The canary must corrupt init
    // itself — producing the silent return-value-only divergence class —
    // and not a loop bound (which would crash the run instead of
    // miscomputing it).
    let spec = progen::Spec {
        seed: 0,
        funcs: vec![progen::FuncSpec {
            name: "f0".into(),
            role: Role::Plant(PlantKind::Reduction {
                kernel: RedKernel::SumMul,
                a: progen::ArrayId::D0,
                b: progen::ArrayId::D1,
                lo: 0,
                hi: 0,
                wrapped: false,
            }),
            pre: vec![],
            post: vec![],
        }],
    };
    match check(&spec, Canary::BreakReductionInit) {
        Err(Failure::Validation(idiomatch_core::ValidationError::ReturnValue { .. })) => {}
        other => panic!("expected a return-value divergence, got {other:?}"),
    }
}

#[test]
fn simplest_kernels_shrink_cleanly() {
    // The shrinker's kernel simplification must preserve compilability
    // for every reduction kernel (Sum target).
    for kernel in [
        RedKernel::SumMul,
        RedKernel::Prod,
        RedKernel::TernaryAbs,
        RedKernel::IntSum,
    ] {
        let spec = progen::Spec {
            seed: 0,
            funcs: vec![progen::FuncSpec {
                name: "f0".into(),
                role: Role::Plant(PlantKind::Reduction {
                    kernel,
                    a: progen::ArrayId::D0,
                    b: progen::ArrayId::D1,
                    lo: 1,
                    hi: 1,
                    wrapped: true,
                }),
                pre: vec![],
                post: vec![],
            }],
        };
        assert!(check(&spec, Canary::None).is_ok(), "{kernel:?}");
    }
}
