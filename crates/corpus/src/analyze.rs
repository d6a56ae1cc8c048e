//! Per-module analysis: materialize one job, push it through the
//! Figure-1 stage chain ([`idiomatch_core::compile`] → detect → transform
//! → validate) and condense the artifacts into one [`ModuleRecord`]. Each
//! module is compiled once.
//!
//! This function runs inside the driver's isolation sandbox: it is
//! *allowed* to panic or stall — the sandbox converts a panic into a
//! `Crash` record and a wall-clock overrun into a `Timeout` record. Two
//! fixture directives exist purely so the isolation machinery itself is
//! testable (the same role `progen`'s `--canary` plays for the
//! differential validator):
//!
//! * `// corpus: panic` — panics before compilation;
//! * `// corpus: hang` — sleeps far past any sane per-module budget.
//!
//! Both are inert outside directory corpora you author yourself.
//!
//! Progen modules (and directory modules carrying `// progen:expect` /
//! `// progen:forbid` directives) know their planted idioms by
//! construction, so the record additionally carries recall
//! (`planted`/`planted_hit`) and near-miss `false_positives` counts;
//! plain `.c` modules without the progen entry point stop after detection
//! (no transform, `validated: false`). The reversal witness is not run.

use crate::record::{ModuleRecord, Taxonomy};
use crate::source::{Job, Payload};
use idioms::IdiomKind;
use progen::{generate, parse_case, setup, Spec, FUZZ_SEEDS};

/// Fixture directive: panic inside the sandbox.
pub const PANIC_DIRECTIVE: &str = "// corpus: panic";
/// Fixture directive: stall far past the per-module budget.
pub const HANG_DIRECTIVE: &str = "// corpus: hang";

/// Analyzes one job to a record. May panic or stall (see module docs);
/// the caller's sandbox contains both. The record's `shard` and
/// `latency_ms` are filled in by the driver.
pub(crate) fn analyze_job(job: &Job) -> ModuleRecord {
    match &job.payload {
        Payload::Progen(seed) => {
            let spec = generate(*seed);
            analyze_source(&job.id, &spec.render(), &spec.expected(), &spec.forbidden())
        }
        Payload::File(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    return ModuleRecord::empty(
                        &job.id,
                        0,
                        Taxonomy::ParseError,
                        format!("read failed: {e}"),
                    )
                }
            };
            for line in text.lines() {
                let l = line.trim();
                assert!(
                    l != PANIC_DIRECTIVE,
                    "injected panic (corpus fixture directive)"
                );
                if l == HANG_DIRECTIVE {
                    // 60 s in small slices: long enough to overrun any
                    // realistic budget, bounded so an abandoned sandbox
                    // thread still winds down before machine-scale runs
                    // finish.
                    for _ in 0..1200 {
                        std::thread::sleep(std::time::Duration::from_millis(50));
                    }
                    return ModuleRecord::empty(
                        &job.id,
                        0,
                        Taxonomy::Ok,
                        "hang fixture outlived its 60s stall".into(),
                    );
                }
            }
            // Expectation directives are optional for directory corpora.
            let (expects, forbids) = match parse_case(&text) {
                Ok(case) => (case.expects, case.forbids),
                Err(_) => (Vec::new(), Vec::new()),
            };
            analyze_source(&job.id, &text, &expects, &forbids)
        }
    }
}

/// Compiles and detects `source`; a module with the progen entry point
/// ([`Spec::ENTRY`], input shape [`setup`]) goes on to replace every
/// instance and multi-seed differential validation. Without it the record
/// is detection-only: nothing is transformed and `validated` stays
/// `false`.
fn analyze_source(
    id: &str,
    source: &str,
    expects: &[(String, IdiomKind)],
    forbids: &[(String, IdiomKind)],
) -> ModuleRecord {
    let detected = match idiomatch_core::compile(source, id) {
        Ok(c) => c.detect(),
        Err(e) => return ModuleRecord::empty(id, 0, Taxonomy::ParseError, e.to_string()),
    };
    let mut rec = ModuleRecord::empty(id, 0, Taxonomy::Ok, String::new());
    for inst in &detected.instances {
        *rec.instances
            .entry(inst.kind.constraint_name().to_owned())
            .or_default() += 1;
    }
    rec.detected = detected.instances.len() as u64;
    rec.solve_steps = detected.solve_steps;
    rec.pruned_pairs = detected.pruned_pairs;
    let found = |function: &String, kind: IdiomKind| {
        detected
            .instances
            .iter()
            .any(|i| &i.function == function && i.kind == kind)
    };
    rec.planted = expects.len() as u64;
    rec.planted_hit = expects.iter().filter(|(f, k)| found(f, *k)).count() as u64;
    rec.false_positives = forbids.iter().filter(|(f, k)| found(f, *k)).count() as u64;
    if let Some(f) = detected.incomplete_functions.first() {
        rec.outcome = Taxonomy::Truncated;
        rec.detail = format!("solver budget exhausted in {f}");
    }
    if detected.module.function(Spec::ENTRY).is_none() {
        return rec;
    }
    let out = detected
        .transform()
        .validate(Spec::ENTRY, setup, &FUZZ_SEEDS);
    rec.compile_ms = out.times.compile_s * 1e3;
    rec.exec_ms = out.times.validate_s * 1e3;
    rec.replaced = out.xform.replaced() as u64;
    // Legality evidence census: every committed replacement carries a
    // verdict (rejections abort the rewrite, so only Proven /
    // AssumedRestrict appear here) and a parallel-safety certificate.
    for o in &out.xform.outcomes {
        if let xform::Outcome::Replaced(r) = &o.outcome {
            match r.verdict.kind {
                analysis::VerdictKind::Proven => rec.legality_proven += 1,
                analysis::VerdictKind::AssumedRestrict => rec.legality_assumed += 1,
                analysis::VerdictKind::Rejected => {
                    unreachable!("a rejected verdict never commits a replacement")
                }
            }
            *rec.certificates
                .entry(r.certificate.safety.as_str().to_owned())
                .or_default() += 1;
        }
    }
    if !out.verify_errors.is_empty() {
        rec.outcome = Taxonomy::ValidationDivergence;
        rec.detail = format!(
            "transformed module failed the IR verifier: {}",
            out.verify_errors.join("; ")
        );
    } else if rec.outcome == Taxonomy::Ok {
        match &out.validation {
            Ok(_) => rec.validated = true,
            Err(e) => {
                rec.outcome = Taxonomy::ValidationDivergence;
                rec.detail = e.to_string();
            }
        }
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Source;

    /// A progen module round-trips to a fully-validated `Ok` record with
    /// perfect recall by construction.
    #[test]
    fn progen_job_yields_validated_record_with_full_recall() {
        let source = Source::progen(1, 7);
        let rec = analyze_job(&source.job(0));
        assert_eq!(rec.module, "progen-7");
        assert_eq!(rec.outcome, Taxonomy::Ok, "detail: {}", rec.detail);
        assert!(rec.validated);
        let spec = generate(7);
        assert_eq!(rec.planted, spec.expected().len() as u64);
        assert_eq!(rec.planted_hit, rec.planted, "full recall");
        assert_eq!(rec.false_positives, 0);
        assert!(rec.detected >= rec.planted);
        assert_eq!(
            rec.instances.values().sum::<u64>(),
            rec.detected,
            "census sums to the detected total"
        );
        assert_eq!(
            rec.legality_proven + rec.legality_assumed,
            rec.replaced,
            "every committed replacement carries a verdict"
        );
        assert_eq!(
            rec.certificates.values().sum::<u64>(),
            rec.replaced,
            "every committed replacement carries a certificate"
        );
        assert!(rec.solve_steps > 0);
    }

    /// A plain `.c` file without the progen entry falls back to
    /// detection-only; a broken file maps to `ParseError`.
    #[test]
    fn dir_jobs_fall_back_to_detect_only_and_classify_parse_errors() {
        let dir = std::env::temp_dir().join(format!("corpus_analyze_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("red.c"),
            "double s(double* x, int n) { double a = 0.0; for (int i = 0; i < n; i++) a += x[i]; return a; }",
        )
        .unwrap();
        std::fs::write(dir.join("broken.c"), "double s(double* x { oops").unwrap();
        let source = Source::dir(&dir).unwrap();
        let broken = analyze_job(&source.job(0));
        assert_eq!(broken.outcome, Taxonomy::ParseError);
        assert!(!broken.detail.is_empty());
        let red = analyze_job(&source.job(1));
        assert_eq!(red.outcome, Taxonomy::Ok);
        assert!(!red.validated, "detect-only path never validates");
        assert_eq!(red.replaced, 0);
        assert_eq!(red.instances.get("Reduction"), Some(&1));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
