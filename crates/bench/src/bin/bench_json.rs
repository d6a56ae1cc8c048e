//! Suite-wide detection census: runs idiom detection over every function
//! of the 21 benchmarks and writes `BENCH_detect.json` (instance count,
//! parallel-safety certificate mix, completeness, and total, skeleton and
//! per-idiom solver steps). Every field is deterministic, so CI
//! regenerates the file and fails on any `git diff`.
//!
//! Usage: `cargo run --release -p idiomatch-bench --bin bench_json`
//! (optionally an output path).

use idiomatch_bench::report::{nested_object, Json, Report};
use idioms::{DetectOptions, IdiomKind};

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| String::from("BENCH_detect.json"));

    let modules: Vec<ssair::Module> = benchsuite::all()
        .iter()
        .map(|b| minicc::compile(b.source, b.name).expect("bundled benchmark compiles"))
        .collect();
    let fs: Vec<&ssair::Function> = modules.iter().flat_map(|m| &m.functions).collect();

    let detections = idioms::detect_functions(&fs, &DetectOptions::default());
    let instances: usize = detections.iter().map(|d| d.instances.len()).sum();
    let complete = detections.iter().all(|d| d.complete);
    let total_steps: u64 = detections.iter().map(|d| d.steps).sum();
    let skeleton_steps: u64 = detections.iter().map(|d| d.skeleton_steps).sum();
    let pruned_pairs: u64 = detections.iter().map(|d| d.pruned_pairs).sum();
    let mut steps_by_idiom: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for d in &detections {
        for (&kind, &s) in &d.steps_by_kind {
            *steps_by_idiom.entry(kind.constraint_name()).or_default() += s;
        }
    }
    debug_assert_eq!(steps_by_idiom.len(), IdiomKind::ALL.len());
    let steps_pairs: Vec<(&str, u64)> = steps_by_idiom.iter().map(|(&k, &v)| (k, v)).collect();
    // Provisional (per-function) parallel-safety certificate mix across
    // every detected instance.
    let mut cert_counts: std::collections::BTreeMap<idioms::ParallelSafety, u64> =
        Default::default();
    for d in &detections {
        for (safety, n) in d.certificate_counts() {
            *cert_counts.entry(safety).or_default() += n;
        }
    }
    let cert_pairs: Vec<(&str, u64)> = [
        idioms::ParallelSafety::IndependentIterations,
        idioms::ParallelSafety::ReductionOnly,
        idioms::ParallelSafety::Serial,
    ]
    .iter()
    .map(|s| (s.as_str(), cert_counts.get(s).copied().unwrap_or(0)))
    .collect();

    let report = Report::new()
        .field("bench", Json::S("detect_all_21_benchmarks".into()))
        .field("functions", Json::U(fs.len() as u64))
        .field("instances", Json::U(instances as u64))
        .field("certificates", nested_object(&cert_pairs))
        .field("complete", Json::B(complete))
        .field("total_solve_steps", Json::U(total_steps))
        .field("pruned_pairs", Json::U(pruned_pairs))
        .field("skeleton_solve_steps", Json::U(skeleton_steps))
        .field("solve_steps_by_idiom", nested_object(&steps_pairs));
    report.write(&out_path);
    print!("{}", report.render());
}
