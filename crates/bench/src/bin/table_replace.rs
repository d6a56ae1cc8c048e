//! Machine-readable transformation coverage: runs detect → transform-all
//! → differential validation (original vs transformed under several
//! seeded inputs) for every benchmark and writes `BENCH_replace.json` —
//! the replacement-side companion of `BENCH_detect.json`.
//!
//! Beyond coverage, the artifact records the *legality evidence* of every
//! applied replacement: how many regions were proven safe by the affine
//! dependence test, how many still rest on the restrict assumption, how
//! many attempts the legality gate rejected, and the
//! parallel-safety certificate mix of the committed rewrites. Every
//! transformed module must also pass the structural IR verifier.
//!
//! Usage: `cargo run --release -p idiomatch-bench --bin table_replace`
//! (optionally `[output-path]`).

use idiomatch_bench::report::{nested_object, Json, Report};
use idiomatch_core::ValidationError;
use idioms::ParallelSafety;
use xform::{Outcome, XformError};

struct Row {
    name: &'static str,
    detected: usize,
    replaced: usize,
    unsupported: usize,
    unsound: usize,
    shadowed: usize,
    proven: usize,
    assumed: usize,
    validated: bool,
    failure: Option<ValidationError>,
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_replace.json".into());
    let seeds = benchsuite::VALIDATION_SEEDS;

    let mut rows: Vec<Row> = Vec::new();
    let mut rejected = 0u64;
    let mut cert_counts: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    let mut verify_failures = 0u64;
    for b in benchsuite::all() {
        let report = idiomatch_core::compile(b.source, b.name)
            .expect("bundled benchmark compiles")
            .detect()
            .transform()
            .validate(b.entry, b.setup, &seeds);
        if !report.verify_errors.is_empty() {
            verify_failures += 1;
            for e in &report.verify_errors {
                eprintln!("{}: IR VERIFICATION FAILED: {e}", b.name);
            }
        }
        let mut row = Row {
            name: b.name,
            detected: report.xform.outcomes.len(),
            replaced: 0,
            unsupported: 0,
            unsound: 0,
            shadowed: 0,
            proven: 0,
            assumed: 0,
            validated: report.validation.is_ok(),
            failure: report.validation.clone().err(),
        };
        for o in &report.xform.outcomes {
            match &o.outcome {
                Outcome::Replaced(rep) => {
                    row.replaced += 1;
                    match rep.verdict.kind {
                        analysis::VerdictKind::Proven => row.proven += 1,
                        analysis::VerdictKind::AssumedRestrict => row.assumed += 1,
                        analysis::VerdictKind::Rejected => {
                            unreachable!("rejected verdicts never commit")
                        }
                    }
                    *cert_counts
                        .entry(rep.certificate.safety.as_str())
                        .or_insert(0) += 1;
                }
                Outcome::Shadowed { .. } => row.shadowed += 1,
                Outcome::Failed(XformError::Unsupported(_)) => row.unsupported += 1,
                Outcome::Failed(XformError::Unsound(msg)) => {
                    row.unsound += 1;
                    if msg.starts_with("legality rejected") {
                        rejected += 1;
                    }
                }
            }
        }
        rows.push(row);
    }

    let headers = [
        "benchmark",
        "detected",
        "replaced",
        "proven",
        "assumed",
        "unsupported",
        "unsound",
        "shadowed",
        "validated",
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_owned(),
                r.detected.to_string(),
                r.replaced.to_string(),
                r.proven.to_string(),
                r.assumed.to_string(),
                r.unsupported.to_string(),
                r.unsound.to_string(),
                r.shadowed.to_string(),
                if r.validated { "ok" } else { "FAIL" }.to_owned(),
            ]
        })
        .collect();
    idiomatch_bench::print_rows(&headers, &table);
    for r in rows.iter().filter(|r| !r.validated) {
        eprintln!(
            "{}: VALIDATION FAILED: {}",
            r.name,
            r.failure.as_ref().expect("failing rows carry the error")
        );
    }

    let totals = rows.iter().fold((0, 0, 0, 0, 0, 0, 0), |t, r| {
        (
            t.0 + r.detected,
            t.1 + r.replaced,
            t.2 + r.unsupported,
            t.3 + r.unsound,
            t.4 + r.shadowed,
            t.5 + r.proven,
            t.6 + r.assumed,
        )
    });
    let failures = rows.iter().filter(|r| !r.validated).count();
    let certs: Vec<(&str, u64)> = [
        ParallelSafety::IndependentIterations,
        ParallelSafety::ReductionOnly,
        ParallelSafety::Serial,
    ]
    .iter()
    .map(|s| {
        (
            s.as_str(),
            cert_counts.get(s.as_str()).copied().unwrap_or(0),
        )
    })
    .collect();

    let bench_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"detected\": {}, \"replaced\": {}, \"proven\": {}, \"assumed\": {}, \"unsupported\": {}, \"unsound\": {}, \"shadowed\": {}, \"validated\": {}}}",
                r.name, r.detected, r.replaced, r.proven, r.assumed, r.unsupported, r.unsound, r.shadowed, r.validated
            )
        })
        .collect();
    let seeds_json: Vec<String> = seeds.iter().map(u64::to_string).collect();
    Report::new()
        .field("bench", Json::S("replace_all_21_benchmarks".into()))
        .field("seeds", Json::Raw(format!("[{}]", seeds_json.join(", "))))
        .field("detected", Json::U(totals.0 as u64))
        .field("replaced", Json::U(totals.1 as u64))
        .field("unsupported", Json::U(totals.2 as u64))
        .field("unsound", Json::U(totals.3 as u64))
        .field("shadowed", Json::U(totals.4 as u64))
        .field("legality_proven", Json::U(totals.5 as u64))
        .field("legality_assumed", Json::U(totals.6 as u64))
        .field("legality_rejected", Json::U(rejected))
        .field("certificates", nested_object(&certs))
        .field("verify_failures", Json::U(verify_failures))
        .field("validation_failures", Json::U(failures as u64))
        .field(
            "benchmarks",
            Json::Raw(format!("[\n{}\n  ]", bench_json.join(",\n"))),
        )
        .write(&out_path);
    if failures > 0 || verify_failures > 0 {
        std::process::exit(1);
    }
}
