//! The committed `BENCH_*.json` artifacts are pure functions of the code:
//! CI regenerates each one and fails on any `git diff`. A wall-clock or
//! machine-dependent field would make that diff fail from box to box, so
//! none may appear at the top level of any artifact. Timings belong to
//! the repository benchmark (`perfbench/`).

use std::path::Path;

/// Top-level keys that carry a machine-dependent value.
const MACHINE_KEYS: [&str; 4] = ["cores", "workers", "default_workers", "passes"];
/// Suffixes of keys that carry a wall-clock value.
const TIMING_SUFFIXES: [&str; 3] = ["_s", "_ms", "_per_sec"];

#[test]
fn committed_bench_artifacts_hold_no_timings_or_machine_fields() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut artifacts: Vec<String> = std::fs::read_dir(&root)
        .expect("workspace root is readable")
        .map(|e| {
            e.expect("directory entry")
                .file_name()
                .into_string()
                .unwrap()
        })
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    artifacts.sort();
    assert_eq!(
        artifacts,
        [
            "BENCH_corpus.json",
            "BENCH_detect.json",
            "BENCH_fuzz.json",
            "BENCH_offload.json",
            "BENCH_replace.json",
        ]
    );
    let mut offenders = Vec::new();
    for name in &artifacts {
        let text = std::fs::read_to_string(root.join(name)).expect("artifact is readable");
        // `Report` indents top-level keys by exactly two spaces; nested
        // values indent deeper.
        for key in text
            .lines()
            .filter_map(|l| l.strip_prefix("  \""))
            .filter_map(|l| l.split_once('"').map(|(k, _)| k))
        {
            if MACHINE_KEYS.contains(&key) || TIMING_SUFFIXES.iter().any(|s| key.ends_with(s)) {
                offenders.push(format!("{name}: {key}"));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "wall-clock or machine-dependent fields in committed artifacts: {offenders:?}"
    );
}
