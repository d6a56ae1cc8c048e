//! The batch driver: a sharded work queue over a [`Source`], a worker
//! pool with per-module crash/timeout isolation, an in-order JSONL
//! writer, and a resumable checkpoint.
//!
//! ## Architecture
//!
//! The corpus is split into fixed-size **shards** of consecutive module
//! ordinals. Workers claim shard indices from one atomic counter,
//! analyze each module of the shard inside an isolation sandbox, and
//! send the shard's rendered records to a dedicated **writer** thread.
//! The writer flushes shards strictly in shard order (out-of-order
//! completions wait in a small reorder buffer), so the records file is
//! byte-deterministic for a given corpus and configuration regardless of
//! worker count, interleaving — or how many times the run was
//! interrupted and resumed.
//!
//! After every flushed shard the writer atomically replaces the
//! **checkpoint** file (`next_shard` + the records file's byte length).
//! A resumed run validates the checkpoint against the corpus descriptor,
//! truncates any partial tail the previous process wrote beyond the last
//! checkpoint, and continues with the next unflushed shard — no module
//! is ever analyzed twice *and recorded twice*: work from shards past
//! the final checkpoint of a killed run is simply redone.
//!
//! ## Isolation
//!
//! Each module is analyzed on a fresh sandbox thread. A panic is caught
//! (`catch_unwind`) and becomes a `Crash` record; the default panic
//! hook's stderr spew is suppressed for sandbox threads only. A module
//! that exceeds the wall-clock budget yields a `Timeout` record and its
//! sandbox thread is **abandoned** (Rust threads cannot be killed; the
//! runaway finishes in the background and its result is discarded) —
//! the worker immediately moves on, so one pathological module costs one
//! timeout, not the batch.
//!
//! The compiled idiom library and skeleton constraints are `'static`
//! (built once behind `idioms::library()`); [`run`] forces them before
//! spawning workers so every sandbox shares the same read-only compiled
//! library instead of racing to build it.

use crate::analyze::analyze_job;
use crate::record::{ModuleRecord, Parser, Taxonomy};
use crate::source::{Job, Source};
use crate::CorpusError;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Name of the per-module sandbox threads (the panic-hook silencer keys
/// off it).
const SANDBOX_THREAD: &str = "corpus-sandbox";

/// Stack of a sandbox thread: 2 MiB, the stack the frontend's nesting
/// and pointer-depth caps are sized against (minicc's
/// `compile_on_small_stack` tests), set here so that `RUST_MIN_STACK`
/// cannot shrink it.
const SANDBOX_STACK_BYTES: usize = 2 << 20;

/// Configuration of one batch run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The corpus to analyze.
    pub source: Source,
    /// Worker threads (min 1; sandbox threads come on top).
    pub workers: usize,
    /// Modules per shard (the checkpoint granularity).
    pub shard_size: usize,
    /// Per-module wall-clock budget.
    pub timeout: Duration,
    /// The append-only JSONL records file.
    pub records_path: PathBuf,
    /// The checkpoint file (atomically replaced per flushed shard).
    pub checkpoint_path: PathBuf,
    /// `true`: continue from an existing checkpoint when present and
    /// compatible. `false`: always start fresh (truncates both files).
    pub resume: bool,
    /// `false` writes every record's `latency_ms` as `0.000`, making the
    /// records file byte-deterministic across runs (what the
    /// checkpoint/resume equivalence test relies on).
    pub record_latency: bool,
    /// Stop after flushing this many shards *in this call* — the test
    /// hook that simulates a mid-corpus kill with a clean checkpoint.
    pub max_shards: Option<usize>,
    /// Emit progress lines to stderr.
    pub progress: bool,
}

impl RunConfig {
    /// A config with the default worker count (available parallelism),
    /// shard size 32 and a 10 s per-module budget, with the records and
    /// checkpoint files placed under `state_dir`.
    #[must_use]
    pub fn new(source: Source, state_dir: impl AsRef<Path>) -> RunConfig {
        let dir = state_dir.as_ref();
        RunConfig {
            source,
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            shard_size: 32,
            timeout: Duration::from_secs(10),
            records_path: dir.join("records.jsonl"),
            checkpoint_path: dir.join("checkpoint.json"),
            resume: false,
            record_latency: true,
            max_shards: None,
            progress: false,
        }
    }
}

/// What one [`run`] call did and what is on disk afterwards.
#[derive(Debug)]
pub struct RunSummary {
    /// Every record in the (merged) records file, parsed back from disk
    /// — totals always reflect persisted state, not in-memory state.
    pub records: Vec<ModuleRecord>,
    /// Total shards of the corpus.
    pub total_shards: usize,
    /// Shards on disk after this call (`== total_shards` iff complete).
    pub flushed_shards: usize,
    /// Modules analyzed by *this* call.
    pub analyzed: usize,
    /// Records inherited from the checkpoint (analyzed by earlier runs).
    pub resumed_records: usize,
    /// Wall-clock seconds of this call.
    pub wall_s: f64,
    /// `true` when every shard of the corpus is on disk.
    pub complete: bool,
    /// Sandbox threads abandoned by *this* call after blowing their
    /// wall-clock budget. Each one may still be burning a core in the
    /// background; a leaking corpus run shows up here (and as a stable
    /// field in `BENCH_corpus.json`) instead of as mysterious slowness.
    pub abandoned_threads: usize,
}

impl RunSummary {
    /// Taxonomy census over all records (every variant present, zeros
    /// included).
    #[must_use]
    pub fn taxonomy(&self) -> BTreeMap<Taxonomy, u64> {
        let mut out: BTreeMap<Taxonomy, u64> = Taxonomy::ALL.into_iter().map(|t| (t, 0)).collect();
        for r in &self.records {
            *out.get_mut(&r.outcome).expect("all variants present") += 1;
        }
        out
    }
}

/// The checkpoint file: identifies the corpus and the exact prefix of
/// the records file that is complete.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Checkpoint {
    corpus: String,
    total_shards: u64,
    next_shard: u64,
    records_bytes: u64,
}

impl Checkpoint {
    fn render(&self) -> String {
        format!(
            "{{\"version\":1,\"corpus\":{:?},\"total_shards\":{},\"next_shard\":{},\"records_bytes\":{}}}\n",
            self.corpus, self.total_shards, self.next_shard, self.records_bytes
        )
    }

    fn parse(text: &str) -> Result<Checkpoint, String> {
        let mut cp = Checkpoint {
            corpus: String::new(),
            total_shards: 0,
            next_shard: 0,
            records_bytes: 0,
        };
        let mut p = Parser::new(text.trim_end());
        p.expect('{')?;
        loop {
            let key = p.string()?;
            p.expect(':')?;
            match key.as_str() {
                "version" => {
                    let v = p.u64()?;
                    if v != 1 {
                        return Err(format!("unsupported checkpoint version {v}"));
                    }
                }
                "corpus" => cp.corpus = p.string()?,
                "total_shards" => cp.total_shards = p.u64()?,
                "next_shard" => cp.next_shard = p.u64()?,
                "records_bytes" => cp.records_bytes = p.u64()?,
                other => return Err(format!("unknown checkpoint field {other:?}")),
            }
            if !p.comma_or('}')? {
                break;
            }
        }
        p.end()?;
        Ok(cp)
    }
}

/// Atomically replaces `path` with `content` (write temp + rename).
fn replace_file(path: &Path, content: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, content)?;
    std::fs::rename(&tmp, path)
}

/// Suppresses the default panic hook for sandbox threads only: a
/// contained module crash is a *record*, not a stderr backtrace. All
/// other threads keep the previously-installed behaviour.
fn install_panic_silencer() {
    static SILENCER: std::sync::Once = std::sync::Once::new();
    SILENCER.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if std::thread::current().name() == Some(SANDBOX_THREAD) {
                return;
            }
            prev(info);
        }));
    });
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_owned()
    }
}

/// Analyzes one job inside the isolation sandbox: a fresh thread, panic
/// containment, and a wall-clock budget. Always returns a record, plus
/// the abandoned thread's handle when the budget expired (the caller
/// counts the leak; joining it would re-inherit the hang).
fn analyze_isolated(
    job: Job,
    shard: u64,
    timeout: Duration,
    record_latency: bool,
) -> (ModuleRecord, Option<std::thread::JoinHandle<()>>) {
    let id = job.id.clone();
    let (tx, rx) = mpsc::channel();
    let t0 = Instant::now();
    let spawned = std::thread::Builder::new()
        .name(SANDBOX_THREAD.into())
        .stack_size(SANDBOX_STACK_BYTES)
        .spawn(move || {
            let out = catch_unwind(AssertUnwindSafe(|| analyze_job(&job)));
            // The receiver is gone when the budget already expired; the
            // abandoned result is intentionally discarded.
            let _ = tx.send(out);
        });
    let mut abandoned = None;
    let mut rec = match spawned {
        Err(e) => ModuleRecord::empty(
            &id,
            shard,
            Taxonomy::Crash,
            format!("sandbox spawn failed: {e}"),
        ),
        Ok(handle) => match rx.recv_timeout(timeout) {
            Ok(out) => {
                // The sandbox already sent its result: reap the thread so
                // completed analyses never accumulate detached threads.
                let _ = handle.join();
                match out {
                    Ok(mut rec) => {
                        rec.shard = shard;
                        rec
                    }
                    Err(payload) => {
                        ModuleRecord::empty(&id, shard, Taxonomy::Crash, panic_message(&*payload))
                    }
                }
            }
            Err(_) => {
                abandoned = Some(handle);
                ModuleRecord::empty(
                    &id,
                    shard,
                    Taxonomy::Timeout,
                    format!(
                        "exceeded the {} ms budget; sandbox thread abandoned",
                        timeout.as_millis()
                    ),
                )
            }
        },
    };
    rec.latency_ms = if record_latency {
        t0.elapsed().as_secs_f64() * 1e3
    } else {
        0.0
    };
    if !record_latency {
        // The per-stage splits are wall-clock too; byte-deterministic
        // runs zero them alongside `latency_ms`.
        rec.compile_ms = 0.0;
        rec.exec_ms = 0.0;
    }
    (rec, abandoned)
}

/// Runs (or resumes) a batch analysis over the configured corpus.
///
/// # Errors
/// IO failures, an incompatible or corrupt checkpoint, or a records file
/// that does not parse back (which would make every reported total a
/// lie).
pub fn run(cfg: &RunConfig) -> Result<RunSummary, CorpusError> {
    let t0 = Instant::now();
    let n = cfg.source.len();
    let shard_size = cfg.shard_size.max(1);
    let total_shards = n.div_ceil(shard_size);
    let descriptor = format!("{}|shard_size={shard_size}", cfg.source.descriptor());
    install_panic_silencer();
    // Force the compile-once idiom library before any worker races for
    // it: every sandbox then shares the same read-only `'static` data.
    let _ = idioms::library();
    let _ = idioms::skeleton_constraints();

    for path in [&cfg.records_path, &cfg.checkpoint_path] {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
    }

    // Establish the starting point: a validated checkpoint, or fresh.
    let start_shard = if cfg.resume && cfg.checkpoint_path.is_file() {
        let cp = Checkpoint::parse(&std::fs::read_to_string(&cfg.checkpoint_path)?)
            .map_err(CorpusError::Checkpoint)?;
        if cp.corpus != descriptor {
            return Err(CorpusError::Checkpoint(format!(
                "checkpoint belongs to corpus {:?}, this run is {descriptor:?}; \
                 start fresh or point at matching state files",
                cp.corpus
            )));
        }
        if cp.total_shards != total_shards as u64 || cp.next_shard > cp.total_shards {
            return Err(CorpusError::Checkpoint(format!(
                "checkpoint shard accounting is inconsistent: {cp:?}"
            )));
        }
        let len = std::fs::metadata(&cfg.records_path)?.len();
        if len < cp.records_bytes {
            return Err(CorpusError::Checkpoint(format!(
                "records file is shorter ({len} B) than the checkpoint claims ({} B)",
                cp.records_bytes
            )));
        }
        if len > cp.records_bytes {
            // A partial tail from an interrupted flush: drop it; those
            // shards will be re-analyzed.
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(&cfg.records_path)?;
            f.set_len(cp.records_bytes)?;
        }
        cp.next_shard as usize
    } else {
        std::fs::write(&cfg.records_path, "")?;
        let _ = std::fs::remove_file(&cfg.checkpoint_path);
        0
    };
    let resume_bytes = std::fs::metadata(&cfg.records_path)?.len();

    let end_shard = cfg
        .max_shards
        .map_or(total_shards, |k| total_shards.min(start_shard + k));
    let next = AtomicUsize::new(start_shard);
    let analyzed = AtomicUsize::new(0);
    let abandoned = AtomicUsize::new(0);
    let workers = cfg.workers.max(1);

    let flushed_shards = std::thread::scope(|s| -> Result<usize, CorpusError> {
        let (tx, rx) = mpsc::channel::<(usize, Vec<String>)>();
        let descriptor = &descriptor;
        let writer = s.spawn(move || -> Result<usize, CorpusError> {
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&cfg.records_path)?;
            let mut bytes = resume_bytes;
            let mut pending: BTreeMap<usize, Vec<String>> = BTreeMap::new();
            let mut next_write = start_shard;
            while let Ok((shard, lines)) = rx.recv() {
                pending.insert(shard, lines);
                while let Some(lines) = pending.remove(&next_write) {
                    let mut buf = lines.join("\n");
                    buf.push('\n');
                    file.write_all(buf.as_bytes())?;
                    file.flush()?;
                    bytes += buf.len() as u64;
                    next_write += 1;
                    let cp = Checkpoint {
                        corpus: descriptor.clone(),
                        total_shards: total_shards as u64,
                        next_shard: next_write as u64,
                        records_bytes: bytes,
                    };
                    replace_file(&cfg.checkpoint_path, &cp.render())?;
                    if cfg.progress && (next_write % 25 == 0 || next_write == end_shard) {
                        eprintln!(
                            "corpus: {next_write}/{total_shards} shards ({} modules, {:.1}s)",
                            (next_write * shard_size).min(n),
                            t0.elapsed().as_secs_f64()
                        );
                    }
                }
            }
            Ok(next_write)
        });
        for _ in 0..workers {
            let tx = tx.clone();
            let (next, analyzed, abandoned) = (&next, &analyzed, &abandoned);
            s.spawn(move || loop {
                let shard = next.fetch_add(1, Ordering::Relaxed);
                if shard >= end_shard {
                    break;
                }
                let lo = shard * shard_size;
                let hi = (lo + shard_size).min(n);
                let mut lines = Vec::with_capacity(hi - lo);
                for ordinal in lo..hi {
                    let job = cfg.source.job(ordinal);
                    let (rec, leaked) =
                        analyze_isolated(job, shard as u64, cfg.timeout, cfg.record_latency);
                    if leaked.is_some() {
                        // Dropping the handle detaches the hung thread;
                        // the count is what makes the leak observable.
                        abandoned.fetch_add(1, Ordering::Relaxed);
                    }
                    lines.push(rec.to_jsonl());
                }
                analyzed.fetch_add(hi - lo, Ordering::Relaxed);
                if tx.send((shard, lines)).is_err() {
                    break; // writer failed; stop producing
                }
            });
        }
        drop(tx);
        writer.join().expect("writer thread does not panic")
    })?;

    // Report from what is actually persisted.
    let text = std::fs::read_to_string(&cfg.records_path)?;
    let mut records = Vec::new();
    for (k, line) in text.lines().enumerate() {
        records.push(
            ModuleRecord::parse_jsonl(line)
                .map_err(|e| CorpusError::Records(format!("records line {}: {e}", k + 1)))?,
        );
    }
    let complete = flushed_shards == total_shards;
    if complete {
        // A finished corpus needs no resume point; a stale checkpoint
        // would only confuse the next run over these state files.
        let _ = std::fs::remove_file(&cfg.checkpoint_path);
    }
    let analyzed = analyzed.load(Ordering::Relaxed);
    Ok(RunSummary {
        resumed_records: records.len() - analyzed,
        records,
        total_shards,
        flushed_shards,
        analyzed,
        wall_s: t0.elapsed().as_secs_f64(),
        complete,
        abandoned_threads: abandoned.load(Ordering::Relaxed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_round_trips_and_rejects_garbage() {
        let cp = Checkpoint {
            corpus: "progen:count=8:seed_start=0|shard_size=4".into(),
            total_shards: 2,
            next_shard: 1,
            records_bytes: 512,
        };
        assert_eq!(Checkpoint::parse(&cp.render()).unwrap(), cp);
        assert!(Checkpoint::parse("").is_err());
        assert!(Checkpoint::parse("{\"version\":2}").is_err());
        let truncated = cp.render();
        assert!(Checkpoint::parse(&truncated[..truncated.len() - 4]).is_err());
    }

    /// The writer flushes shards in order even when completions arrive
    /// out of order, so the records file is deterministic under any
    /// worker interleaving. Exercised end-to-end with several workers on
    /// a small real corpus.
    #[test]
    fn records_file_is_identical_across_worker_counts() {
        let base = std::env::temp_dir().join(format!("corpus_driver_det_{}", std::process::id()));
        let mut outputs = Vec::new();
        for workers in [1, 3] {
            let dir = base.join(format!("w{workers}"));
            let mut cfg = RunConfig::new(Source::progen(6, 40), &dir);
            cfg.workers = workers;
            cfg.shard_size = 2;
            cfg.record_latency = false;
            let summary = run(&cfg).expect("run succeeds");
            assert!(summary.complete);
            assert_eq!(summary.records.len(), 6);
            outputs.push(std::fs::read_to_string(&cfg.records_path).unwrap());
        }
        assert_eq!(outputs[0], outputs[1], "byte-identical across pools");
        let _ = std::fs::remove_dir_all(&base);
    }

    /// A run that blows every budget reports exactly how many sandbox
    /// threads it abandoned — a clean run reports zero (the
    /// `abandoned_threads` field of `BENCH_corpus.json`, which CI
    /// regenerates and diffs).
    #[test]
    fn abandoned_sandbox_threads_are_counted() {
        let dir = std::env::temp_dir().join(format!("corpus_driver_leak_{}", std::process::id()));
        let mut cfg = RunConfig::new(Source::progen(3, 900), &dir);
        cfg.timeout = Duration::from_nanos(1);
        cfg.record_latency = false;
        let summary = run(&cfg).expect("run succeeds");
        assert!(summary.complete);
        assert_eq!(summary.records.len(), 3);
        assert!(summary
            .records
            .iter()
            .all(|r| r.outcome == Taxonomy::Timeout));
        assert_eq!(summary.abandoned_threads, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
