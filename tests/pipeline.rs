//! Cross-crate integration tests: the full Figure-1 pipeline from C source
//! to validated, API-calling executables.

use idiomatch::core as pipeline;
use idiomatch::idioms::IdiomKind;
use idiomatch::interp::{Machine, Value};
use idiomatch::ssair::Module;
use idiomatch::xform::{Outcome, Replacement};

#[test]
fn every_idiom_kind_round_trips_end_to_end() {
    struct Case {
        src: &'static str,
        entry: &'static str,
        setup: idiomatch::core::SetupFn,
        kind: IdiomKind,
    }
    let cases = [
        Case {
            src: "double s(double* x, int n) { double a = 0.0; for (int i = 0; i < n; i++) a += x[i]; return a; }",
            entry: "s",
            setup: |m, seed| {
                let x = m.alloc_f64_slice(&[1.0, -2.0, 3.5, 0.25 + seed as f64]);
                vec![Value::P(x), Value::I(4)]
            },
            kind: IdiomKind::Reduction,
        },
        Case {
            src: "void h(int* k, int* b, int n) { for (int i = 0; i < n; i++) b[k[i]] = b[k[i]] + 1; }",
            entry: "h",
            setup: |m, seed| {
                let k = m.alloc_i32_slice(&[0, 1, 1, 3, (seed % 4) as i32, 1]);
                let b = m.alloc_i32_slice(&[0; 4]);
                vec![Value::P(k), Value::P(b), Value::I(6)]
            },
            kind: IdiomKind::Histogram,
        },
        Case {
            src: "void st(double* o, double* a, int n) { for (int i = 1; i < n - 1; i++) o[i] = a[i-1] + 2.0*a[i] + a[i+1]; }",
            entry: "st",
            setup: |m, seed| {
                let o = m.alloc_f64_slice(&[0.0; 8]);
                let a = m.alloc_f64_slice(&[1.0 + seed as f64, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
                vec![Value::P(o), Value::P(a), Value::I(8)]
            },
            kind: IdiomKind::Stencil1D,
        },
    ];
    for c in cases {
        let (_, rep) = replaced(c.src, c.entry, c.setup, c.kind);
        assert_eq!(rep.kind, c.kind);
    }
}

/// The whole-module pipeline over `src`: asserts that it validated and
/// returns the transformed module with the replacement of `kind`.
fn replaced(
    src: &str,
    entry: &str,
    setup: idiomatch::core::SetupFn,
    kind: IdiomKind,
) -> (Module, Replacement) {
    let v = pipeline::compile(src, "case")
        .expect("compiles")
        .detect()
        .transform()
        .validate(entry, setup, &idiomatch::benchsuite::VALIDATION_SEEDS);
    if let Err(e) = &v.validation {
        panic!("{kind:?}: {e}");
    }
    let rep = v
        .xform
        .outcomes
        .iter()
        .find_map(|o| match &o.outcome {
            Outcome::Replaced(rep) if o.instance.kind == kind => Some(rep.clone()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no {kind:?} replaced"));
    (v.xform.module.clone(), rep)
}

#[test]
fn figure_8_both_forms_are_the_same_idiom() {
    // §4.3's semantic-equivalence claim: two syntactically distinct GEMMs
    // both match and can both be replaced with the same API call.
    let form1 = "void g1(double* A, double* B, double* C, int m, int n, int k) {
        for (int mm = 0; mm < m; mm++)
            for (int nn = 0; nn < n; nn++) {
                double c = 0.0;
                for (int i = 0; i < k; i++) c += A[mm + i * m] * B[nn + i * n];
                C[mm + nn * m] = c;
            }
    }";
    let form2 = "void g2(double* M1, double* M2, double* M3, int n) {
        for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++) {
                M3[i*n+j] = 0.0;
                for (int k = 0; k < n; k++) M3[i*n+j] += M1[i*n+k] * M2[k*n+j];
            }
    }";
    for (src, fname) in [(form1, "g1"), (form2, "g2")] {
        let m = idiomatch::minicc::compile(src, fname).unwrap();
        let insts = idiomatch::idioms::detect(m.function(fname).unwrap());
        assert!(
            insts.iter().any(|i| i.kind == IdiomKind::Gemm),
            "{fname} must match GEMM, got {:?}",
            insts.iter().map(|i| i.kind).collect::<Vec<_>>()
        );
    }
}

#[test]
fn transformed_spmv_runs_on_the_simulated_library() {
    let b = idiomatch::benchsuite::all()
        .into_iter()
        .find(|b| b.name == "spmv")
        .unwrap();
    let (transformed, rep) = replaced(b.source, b.entry, b.setup, IdiomKind::Spmv);
    assert_eq!(rep.callee, "csrmv_f64");
    // And it actually executes through the registered host.
    let mut vm = Machine::new(&transformed);
    idiomatch::hetero::hosts::register_all(&mut vm);
    let args = (b.setup)(&mut vm.mem, idiomatch::benchsuite::CANONICAL_SEED);
    vm.run(b.entry, &args).expect("runs");
}

#[test]
fn detection_is_deterministic() {
    let b = idiomatch::benchsuite::all()
        .into_iter()
        .find(|b| b.name == "CG")
        .unwrap();
    let m = idiomatch::minicc::compile(b.source, b.name).unwrap();
    let run = || {
        let mut v = Vec::new();
        for f in &m.functions {
            for i in idiomatch::idioms::detect(f) {
                v.push((i.function.clone(), i.kind, i.anchor));
            }
        }
        v
    };
    assert_eq!(run(), run());
}
