//! The end-to-end differential fuzz driver: generates `count` seeded
//! programs with planted idioms and near-miss mutants (`progen`), runs
//! the full pipeline oracle on each (detect → assert planted ⊆ detected
//! and no near-miss false positives → transform → multi-seed
//! differential validation), and writes `BENCH_fuzz.json` with recall,
//! false-positive and validation-failure counts. Every field is
//! deterministic, so CI regenerates the file and fails on any `git diff`.
//!
//! Any failing program is greedily shrunk to a minimal reproducer; the
//! reproducer is printed in corpus format and, when run from the repo
//! root, written to `tests/corpus/seed-<seed>.c` for check-in. The
//! process exits non-zero on any failure — this is the CI smoke gate.
//!
//! Usage: `cargo run --release -p idiomatch-bench --bin fuzz --
//! [count] [seed-start] [output-path] [--canary]`
//! (two numbers are `count` then `seed-start`; `--canary` injects the
//! deliberately broken reduction replacement to demonstrate the oracle
//! catching and shrinking a miscompile — it must make the run fail).

use idiomatch_bench::report::{object_array, Json, Report};
use progen::{check, generate, shrink, to_corpus, Canary, Failure, Spec};

fn failure_class(f: &Failure) -> &'static str {
    match f {
        Failure::Compile(_) => "compile",
        Failure::Truncated { .. } => "truncated",
        Failure::InvalidIr { .. } => "invalid_ir",
        Failure::AdversaryCertified { .. } => "adversary_certified",
        Failure::ReversalDiverged(_) => "reversal_diverged",
        Failure::MissedPlant { .. } => "missed_plant",
        Failure::NotReplaced { .. } => "not_replaced",
        Failure::FalsePositive { .. } => "false_positive",
        Failure::Validation(_) => "validation",
    }
}

/// Shrinks a failing spec under "same failure class" and reports it.
fn report_failure(spec: &Spec, failure: &Failure, canary: Canary) {
    let class = failure_class(failure);
    eprintln!("seed {}: {failure}", spec.seed);
    let min = shrink(spec, |s| {
        check(s, canary)
            .err()
            .is_some_and(|f| failure_class(&f) == class)
    });
    let text = to_corpus(&min, &format!("seed-{}", spec.seed), &failure.to_string());
    // Only pipeline-bug classes belong in the corpus (its policy: a
    // checked-in case pins a fixed bug and must replay clean). A
    // non-compiling or budget-truncated program is a generator bug —
    // print it, but don't seed tests/corpus with a case that can never
    // pass replay.
    let corpus_worthy = matches!(
        failure,
        Failure::MissedPlant { .. }
            | Failure::FalsePositive { .. }
            | Failure::NotReplaced { .. }
            | Failure::InvalidIr { .. }
            | Failure::AdversaryCertified { .. }
            | Failure::ReversalDiverged(_)
            | Failure::Validation(_)
    );
    let dir = std::path::Path::new("tests/corpus");
    if dir.is_dir() && canary == Canary::None && corpus_worthy {
        let path = dir.join(format!("seed-{}.c", spec.seed));
        match std::fs::write(&path, &text) {
            Ok(()) => eprintln!("wrote minimized reproducer to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    eprintln!(
        "--- minimized reproducer ({} lines) ---",
        text.lines().count()
    );
    eprintln!("{text}");
}

fn main() {
    let mut count: u64 = 500;
    let mut seed_start: u64 = 0;
    let mut out_path = String::from("BENCH_fuzz.json");
    let mut canary = Canary::None;
    let mut seen_number = false;
    for arg in std::env::args().skip(1) {
        if arg == "--canary" {
            canary = Canary::BreakReductionInit;
        } else {
            match arg.parse::<u64>() {
                Ok(v) if !seen_number => {
                    count = v.max(1);
                    seen_number = true;
                }
                Ok(v) => seed_start = v,
                Err(_) => out_path = arg,
            }
        }
    }

    // `planted`/`near_misses` count every generated program — failing
    // ones included — so the recall denominator is auditable from the
    // artifact. `detected`/`replaced` accumulate over passing programs
    // only (the oracle stops at the first violated guarantee), which
    // makes `planted_recall` = planted-in-passing / planted a
    // conservative bound: exactly 1.0 iff no program failed a plant.
    let mut planted = 0u64;
    let mut planted_ok = 0u64;
    let mut near_misses = 0u64;
    let mut detected = 0u64;
    let mut replaced = 0u64;
    let mut reversal_checked = 0u64;
    let mut solve_steps = 0u64;
    let mut failures: Vec<(u64, &'static str)> = Vec::new();
    for seed in seed_start..seed_start + count {
        let spec = generate(seed);
        planted += spec.expected().len() as u64;
        near_misses += spec.forbidden().len() as u64;
        match check(&spec, canary) {
            Ok(c) => {
                planted_ok += c.planted as u64;
                detected += c.detected as u64;
                replaced += c.replaced as u64;
                reversal_checked += c.reversal_checked as u64;
                solve_steps += c.solve_steps;
            }
            Err(f) => {
                failures.push((seed, failure_class(&f)));
                report_failure(&spec, &f, canary);
            }
        }
    }
    let recall = planted_ok as f64 / (planted.max(1)) as f64;

    let count_class = |cls: &str| failures.iter().filter(|(_, c)| *c == cls).count() as u64;
    let failures_json: Vec<String> = failures
        .iter()
        .map(|(seed, cls)| format!("{{\"seed\": {seed}, \"class\": \"{cls}\"}}"))
        .collect();
    let report = Report::new()
        .field("bench", Json::S("progen_fuzz".into()))
        .field("programs", Json::U(count))
        .field("seed_start", Json::U(seed_start))
        .field("canary", Json::B(canary != Canary::None))
        .field("planted", Json::U(planted))
        .field("planted_recall", Json::F(recall, 4))
        .field("near_misses", Json::U(near_misses))
        .field("detected", Json::U(detected))
        .field("replaced", Json::U(replaced))
        .field("missed_plants", Json::U(count_class("missed_plant")))
        .field("false_positives", Json::U(count_class("false_positive")))
        .field(
            "adversary_certified",
            Json::U(count_class("adversary_certified")),
        )
        .field("reversal_checked", Json::U(reversal_checked))
        .field(
            "reversal_diverged",
            Json::U(count_class("reversal_diverged")),
        )
        .field("validation_failures", Json::U(count_class("validation")))
        .field(
            "other_failures",
            Json::U(
                failures.len() as u64
                    - count_class("missed_plant")
                    - count_class("false_positive")
                    - count_class("adversary_certified")
                    - count_class("reversal_diverged")
                    - count_class("validation"),
            ),
        )
        .field("solve_steps", Json::U(solve_steps))
        .field("failures", object_array(&failures_json));
    report.write(&out_path);
    print!("{}", report.render());

    if !failures.is_empty() {
        eprintln!("{} of {count} programs failed the oracle", failures.len());
        std::process::exit(1);
    }
}
