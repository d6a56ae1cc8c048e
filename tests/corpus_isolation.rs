//! Crash/timeout containment: a panicking module and a hanging module in
//! the middle of a shard must surface as `crash` / `timeout` records —
//! and must not take down, stall, or skip the healthy modules that share
//! the shard. Uses the documented fixture directives (`// corpus: panic`
//! and `// corpus: hang`) on real `.c` files in a directory corpus.

use idiomatch::corpus::{run, RunConfig, Source, Taxonomy, HANG_DIRECTIVE, PANIC_DIRECTIVE};

/// A real planted idiom so the healthy modules have something to detect.
const OK_SOURCE: &str = "\
// progen: case isolation-fixture
// progen:expect f0 Reduction
double f0(double* d0, double* d1, int n) {
    double s = 0.0;
    for (int i0 = 0; (i0 < n); i0 = (i0 + 1)) {
        s += (d0[i0] * d1[i0]);
    }
    return s;
}
";

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("idiomatch_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn crash_and_timeout_are_contained_within_a_shard() {
    let corpus_dir = scratch("corpus_iso_src");
    std::fs::write(corpus_dir.join("a_ok.c"), OK_SOURCE).unwrap();
    std::fs::write(
        corpus_dir.join("b_crash.c"),
        format!("{PANIC_DIRECTIVE}\n{OK_SOURCE}"),
    )
    .unwrap();
    std::fs::write(
        corpus_dir.join("c_hang.c"),
        format!("{HANG_DIRECTIVE}\n{OK_SOURCE}"),
    )
    .unwrap();
    std::fs::write(corpus_dir.join("d_ok.c"), OK_SOURCE).unwrap();

    let state = scratch("corpus_iso_state");
    let mut cfg = RunConfig::new(Source::dir(&corpus_dir).expect("dir source"), &state);
    // One shard holds all four modules: containment must be per-module,
    // not per-shard.
    cfg.shard_size = 8;
    cfg.timeout = std::time::Duration::from_millis(250);
    let summary = run(&cfg).expect("run survives hostile modules");

    assert!(summary.complete);
    assert_eq!(summary.records.len(), 4);
    let by_id = |id: &str| {
        summary
            .records
            .iter()
            .find(|r| r.module == id)
            .unwrap_or_else(|| panic!("no record for {id}"))
    };

    let crash = by_id("b_crash.c");
    assert_eq!(crash.outcome, Taxonomy::Crash);
    assert!(
        crash.detail.contains("injected panic"),
        "crash detail carries the panic message, got {:?}",
        crash.detail
    );

    let hang = by_id("c_hang.c");
    assert_eq!(hang.outcome, Taxonomy::Timeout);
    assert!(hang.detail.contains("budget"), "got {:?}", hang.detail);

    // The healthy neighbours completed normally, detection intact.
    for id in ["a_ok.c", "d_ok.c"] {
        let r = by_id(id);
        assert_eq!(r.outcome, Taxonomy::Ok, "{id}: {}", r.detail);
        assert_eq!(r.planted, 1);
        assert_eq!(r.planted_hit, 1, "{id} lost its planted reduction");
        assert_eq!(r.false_positives, 0);
    }

    // The taxonomy census reports the mixed outcomes faithfully.
    let tax = summary.taxonomy();
    assert_eq!(tax[&Taxonomy::Ok], 2);
    assert_eq!(tax[&Taxonomy::Crash], 1);
    assert_eq!(tax[&Taxonomy::Timeout], 1);

    let _ = std::fs::remove_dir_all(&corpus_dir);
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn a_deeply_nested_one_liner_is_a_parse_error_not_an_abort() {
    // 1,000 nested parentheses: ~2 KB of source that used to overflow
    // the sandbox thread's stack inside the parser and abort the batch.
    let corpus_dir = scratch("corpus_deep_src");
    let deep = format!(
        "double fz_entry(double* a) {{ return {}1.0{}; }}\n",
        "(".repeat(1000),
        ")".repeat(1000)
    );
    std::fs::write(corpus_dir.join("a_deep.c"), deep).unwrap();
    std::fs::write(corpus_dir.join("b_ok.c"), OK_SOURCE).unwrap();
    // A 100,000-star parameter type (~100 KB) used to overflow the same
    // stack in type conversion, printing and drop, aborting the batch too.
    let stars = format!(
        "double f(double{} p) {{ return 0.0; }}\n",
        "*".repeat(100_000)
    );
    std::fs::write(corpus_dir.join("c_deep_pointer.c"), stars).unwrap();

    let state = scratch("corpus_deep_state");
    let summary = run(&RunConfig::new(
        Source::dir(&corpus_dir).expect("dir source"),
        &state,
    ))
    .expect("run survives the hostile module");

    assert!(summary.complete);
    assert_eq!(summary.records.len(), 3);
    let deep = &summary.records[0];
    assert_eq!(deep.module, "a_deep.c");
    assert_eq!(deep.outcome, Taxonomy::ParseError);
    assert!(deep.detail.contains("nesting"), "got {:?}", deep.detail);
    let ok = &summary.records[1];
    assert_eq!(ok.outcome, Taxonomy::Ok, "{}", ok.detail);
    assert_eq!(ok.planted_hit, 1);
    let stars = &summary.records[2];
    assert_eq!(stars.module, "c_deep_pointer.c");
    assert_eq!(stars.outcome, Taxonomy::ParseError);
    assert!(
        stars.detail.contains("pointer type deeper than 128 levels"),
        "got {:?}",
        stars.detail
    );
    assert_eq!(summary.taxonomy()[&Taxonomy::ParseError], 2);

    let _ = std::fs::remove_dir_all(&corpus_dir);
    let _ = std::fs::remove_dir_all(&state);
}

/// `fz_entry` with the fixed progen signature, returning `rec(n * scale)`
/// for the three-line recursive `rec` (`n` is 64).
fn recursive_module(scale: u64) -> String {
    format!(
        "int rec(int k) {{ if (k <= 0) {{ return 0; }} return rec(k - 1) + 1; }}\n\
         double fz_entry(double* d0, double* d1, double* d2, double* d3, double* o0, \
         double* o1, double* g0, double* go, double* m0, double* m1, double* mo, int* k0, \
         int* bi, double* bf, double* cv, int* cr, int* cc, double* x0, double* y0, int n, \
         int g, int dim, int rows, int nb) {{ return rec(n * {scale}); }}\n"
    )
}

#[test]
fn deep_recursion_is_a_record_not_an_abort() {
    // A 64,000-deep call chain used to overflow the sandbox thread's
    // stack inside the VM and abort the batch. It now runs (the VM keeps
    // frames on its own register stack), and a runaway depth is a typed
    // execution error in the module's record.
    let corpus_dir = scratch("corpus_rec_src");
    std::fs::write(corpus_dir.join("a_deep.c"), recursive_module(1000)).unwrap();
    std::fs::write(
        corpus_dir.join("b_runaway.c"),
        recursive_module(100_000_000),
    )
    .unwrap();
    std::fs::write(corpus_dir.join("c_ok.c"), OK_SOURCE).unwrap();

    let state = scratch("corpus_rec_state");
    let summary = run(&RunConfig::new(
        Source::dir(&corpus_dir).expect("dir source"),
        &state,
    ))
    .expect("run survives the recursive modules");

    assert!(summary.complete);
    assert_eq!(summary.records.len(), 3);
    let deep = &summary.records[0];
    assert_eq!(deep.module, "a_deep.c");
    assert_eq!(deep.outcome, Taxonomy::Ok, "{}", deep.detail);
    assert!(deep.validated, "the 64,000-deep module validates");
    let runaway = &summary.records[1];
    assert_eq!(runaway.module, "b_runaway.c");
    assert_eq!(runaway.outcome, Taxonomy::ValidationDivergence);
    assert!(
        runaway.detail.contains("call stack exhausted"),
        "got {:?}",
        runaway.detail
    );
    let ok = &summary.records[2];
    assert_eq!(ok.outcome, Taxonomy::Ok, "{}", ok.detail);
    assert_eq!(ok.planted_hit, 1);

    let _ = std::fs::remove_dir_all(&corpus_dir);
    let _ = std::fs::remove_dir_all(&state);
}
