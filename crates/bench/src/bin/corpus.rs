//! The corpus-scale batch analysis driver: runs the `corpus` service
//! over a directory of `.c` files or a seeded progen corpus and condenses
//! the per-module JSONL records into `BENCH_corpus.json` — instance
//! totals, legality and certificate censuses, solver steps and the full
//! failure taxonomy. Every field is deterministic (no timings, no worker
//! count), so CI regenerates the file and fails on any `git diff`.
//!
//! Usage:
//! `cargo run --release -p idiomatch-bench --bin corpus -- [flags]`
//!
//! * `--progen N` — analyze an N-program seeded progen corpus (default
//!   500; `--seed-start S` shifts the seed range);
//! * `--dir PATH` — analyze every `.c` file directly under PATH instead;
//! * `--workers N`, `--shard-size N`, `--timeout-ms N` — pool size,
//!   checkpoint granularity, per-module wall-clock budget;
//! * `--state DIR` — where `records.jsonl` + `checkpoint.json` live
//!   (default `target/corpus`); `--resume` continues from the checkpoint
//!   there instead of starting fresh;
//! * `--out PATH` — artifact path (default `BENCH_corpus.json`).
//!
//! For a progen corpus the run is also a gate: any non-`ok` record,
//! recall loss or near-miss false positive exits non-zero.

use corpus::{run, RunConfig, RunSummary, Source, Taxonomy};
use idiomatch_bench::report::{nested_object, Json, Report};

fn summarize(summary: &RunSummary, cfg: &RunConfig) -> Report {
    let recs = &summary.records;
    let mut by_kind: std::collections::BTreeMap<&str, u64> = Default::default();
    let mut by_cert: std::collections::BTreeMap<&str, u64> = Default::default();
    for r in recs {
        for (k, v) in &r.instances {
            *by_kind.entry(k.as_str()).or_default() += v;
        }
        for (k, v) in &r.certificates {
            *by_cert.entry(k.as_str()).or_default() += v;
        }
    }
    let kind_pairs: Vec<(&str, u64)> = by_kind.into_iter().collect();
    let cert_pairs: Vec<(&str, u64)> = by_cert.into_iter().collect();
    let tax_pairs: Vec<(&str, u64)> = summary
        .taxonomy()
        .into_iter()
        .map(|(t, n)| (t.as_str(), n))
        .collect();
    let sum = |f: fn(&corpus::ModuleRecord) -> u64| recs.iter().map(f).sum::<u64>();
    Report::new()
        .field("bench", Json::S("corpus_batch".into()))
        .field("source", Json::S(cfg.source.descriptor()))
        .field("modules", Json::U(recs.len() as u64))
        .field("shard_size", Json::U(cfg.shard_size as u64))
        .field("shards", Json::U(summary.total_shards as u64))
        .field("complete", Json::B(summary.complete))
        .field("instances_by_kind", nested_object(&kind_pairs))
        .field("detected", Json::U(sum(|r| r.detected)))
        .field("replaced", Json::U(sum(|r| r.replaced)))
        .field("legality_proven", Json::U(sum(|r| r.legality_proven)))
        .field("legality_assumed", Json::U(sum(|r| r.legality_assumed)))
        .field("certificates", nested_object(&cert_pairs))
        .field("planted", Json::U(sum(|r| r.planted)))
        .field("planted_hit", Json::U(sum(|r| r.planted_hit)))
        .field("false_positives", Json::U(sum(|r| r.false_positives)))
        .field(
            "validated_modules",
            Json::U(recs.iter().filter(|r| r.validated).count() as u64),
        )
        .field("total_solve_steps", Json::U(sum(|r| r.solve_steps)))
        .field("pruned_pairs", Json::U(sum(|r| r.pruned_pairs)))
        .field("taxonomy", nested_object(&tax_pairs))
        .field(
            "abandoned_threads",
            Json::U(summary.abandoned_threads as u64),
        )
        .field("analyzed_this_run", Json::U(summary.analyzed as u64))
        .field("resumed_records", Json::U(summary.resumed_records as u64))
}

fn main() {
    let mut source: Option<Source> = None;
    let mut progen_count: usize = 500;
    let mut seed_start: u64 = 0;
    let mut cfg_workers: Option<usize> = None;
    let mut shard_size: usize = 32;
    let mut timeout_ms: u64 = 10_000;
    let mut state_dir = String::from("target/corpus");
    let mut resume = false;
    let mut out_path = String::from("BENCH_corpus.json");

    let mut args = std::env::args().skip(1);
    let parse = |v: Option<String>, flag: &str| -> u64 {
        v.and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("{flag} takes a number"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--progen" => progen_count = parse(args.next(), "--progen") as usize,
            "--seed-start" => seed_start = parse(args.next(), "--seed-start"),
            "--dir" => {
                let path = args.next().expect("--dir takes a path");
                source = Some(Source::dir(path).unwrap_or_else(|e| panic!("{e}")));
            }
            "--workers" => cfg_workers = Some(parse(args.next(), "--workers") as usize),
            "--shard-size" => shard_size = parse(args.next(), "--shard-size") as usize,
            "--timeout-ms" => timeout_ms = parse(args.next(), "--timeout-ms"),
            "--state" => state_dir = args.next().expect("--state takes a path"),
            "--resume" => resume = true,
            "--out" => out_path = args.next().expect("--out takes a path"),
            other => panic!("unknown argument {other:?}"),
        }
    }

    let source = source.unwrap_or_else(|| Source::progen(progen_count, seed_start));
    let is_progen = matches!(source, Source::Progen { .. });
    let mut cfg = RunConfig::new(source, &state_dir);
    if let Some(w) = cfg_workers {
        cfg.workers = w.max(1);
    }
    cfg.shard_size = shard_size.max(1);
    cfg.timeout = std::time::Duration::from_millis(timeout_ms.max(1));
    cfg.resume = resume;
    cfg.progress = true;

    let summary = run(&cfg).unwrap_or_else(|e| panic!("corpus run failed: {e}"));
    let report = summarize(&summary, &cfg);
    report.write(&out_path);
    print!("{}", report.render());

    // A progen corpus knows its ground truth: treat any service failure,
    // recall loss or false positive as a gate violation.
    if is_progen {
        let bad: Vec<&corpus::ModuleRecord> = summary
            .records
            .iter()
            .filter(|r| {
                r.outcome != Taxonomy::Ok
                    || r.planted_hit != r.planted
                    || r.false_positives > 0
                    || r.legality_proven + r.legality_assumed != r.replaced
                    || r.certificates.values().sum::<u64>() != r.replaced
            })
            .collect();
        if !bad.is_empty() {
            for r in bad.iter().take(10) {
                eprintln!(
                    "{}: {} planted={} hit={} fp={} {}",
                    r.module, r.outcome, r.planted, r.planted_hit, r.false_positives, r.detail
                );
            }
            eprintln!(
                "{} of {} modules violated the oracle",
                bad.len(),
                summary.records.len()
            );
            std::process::exit(1);
        }
    }
}
