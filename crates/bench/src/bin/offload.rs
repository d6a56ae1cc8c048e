//! Profile-guided parallel offload: the thread-pool backend measured
//! end to end, writing `BENCH_offload.json`.
//!
//! Three sections:
//!
//! 1. **Micro kernels** — a dense GEMM and a CSR SpMV large enough to
//!    dwarf launch overhead, run through the serial hosts
//!    ([`hetero::hosts`]) and the thread-pool executors
//!    ([`hetero::exec`]) at 1 and 4 workers. Wall-clock, speedup and
//!    bitwise equality are reported; the speedup a machine can show is
//!    bounded by its physical cores (a 1-core container measures ~1×
//!    no matter the worker count — the bin says so instead of lying).
//! 2. **Suite determinism + timing** — every benchmark is transformed,
//!    then executed once with the serial hosts and once per worker
//!    count with [`hetero::exec::register_parallel`] dispatching off the
//!    parallel-safety certificates, under two input seeds. Return value
//!    and the full memory image must be bitwise identical; any
//!    divergence, and any `serial`-certified region reaching a parallel
//!    entry point, fails the run.
//! 3. **Offload decisions** — the measured interpreter profile of each
//!    benchmark ([`idiomatch_core::analyze`]) drives
//!    [`hetero::best_configuration_profiled`]: regions below the
//!    coverage threshold stay on the host (Figure 17's bimodal split),
//!    the rest pick the best modeled API under their certificate.
//!
//! Counts, certificates and offload decisions are stable (drift-gated by
//! `--check`); every timing is volatile.
//!
//! Usage: `cargo run --release -p idiomatch-bench --bin offload --
//! [--workers N] [--out PATH] [--check]`

use hetero::exec::{self, ExecConfig, ExecStats, ParallelCert};
use hetero::hosts;
use idiomatch_bench::report::{nested_object, Json, Report};
use idioms::ParallelSafety;
use interp::{compile_module, CompiledModule, Memory, Value, Vm};
use std::sync::Arc;
use std::time::Instant;

/// Worker counts every configuration is validated under.
const WORKER_GRID: [usize; 2] = [1, 4];
/// Input seeds for the determinism sweep (canonical + one randomized).
const SEEDS: [u64; 2] = [
    benchsuite::VALIDATION_SEEDS[0],
    benchsuite::VALIDATION_SEEDS[1],
];
/// Micro-kernel shapes: GEMM edge and SpMV row count.
const GEMM_N: usize = 160;
const SPMV_ROWS: usize = 150_000;
/// Best-of-N wall-clock per micro configuration.
const MICRO_REPS: usize = 3;

fn value_bits_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::I(x), Value::I(y)) => x == y,
        (Value::P(x), Value::P(y)) => x == y,
        (Value::F(x), Value::F(y)) => x.to_bits() == y.to_bits(),
        _ => false,
    }
}

/// `gemm_f64` argument vector for an n×n×n product, row-major all round
/// (`row_scaled = 0`, C stride = n ≥ n: the in-place windowed path).
fn gemm_micro_args(mem: &mut Memory, n: usize) -> Vec<Value> {
    let a = benchsuite::fill_f64(mem, n * n, benchsuite::mix(7, 1));
    let b = benchsuite::fill_f64(mem, n * n, benchsuite::mix(7, 2));
    let c = benchsuite::zeros_f64(mem, n * n);
    let ni = n as i64;
    vec![
        Value::P(a),
        Value::P(b),
        Value::P(c),
        Value::I(ni),
        Value::I(ni),
        Value::I(ni),
        Value::I(ni),
        Value::I(ni),
        Value::I(ni),
        Value::I(0),
        Value::I(0),
        Value::I(0),
        Value::F(0.0),
    ]
}

/// `csrmv_f64` argument vector over a seeded CSR matrix.
fn spmv_micro_args(mem: &mut Memory, rows: usize) -> Vec<Value> {
    let (vals, rowptr, colidx) = benchsuite::csr(mem, rows, 8, 7);
    let x = benchsuite::fill_f64(mem, rows, benchsuite::mix(7, 3));
    let y = benchsuite::zeros_f64(mem, rows);
    vec![
        Value::P(vals),
        Value::P(rowptr),
        Value::P(colidx),
        Value::P(x),
        Value::P(y),
        Value::I(rows as i64),
        Value::I(4),
        Value::I(4),
    ]
}

/// Best-of-[`MICRO_REPS`] wall-clock milliseconds. The micro kernels
/// fully overwrite their output (beta = +0.0 / dense `y`), so repeated
/// in-place runs are idempotent.
fn best_ms(mut run: impl FnMut() -> Result<Value, String>) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..MICRO_REPS {
        let t = Instant::now();
        run().unwrap_or_else(|e| panic!("micro kernel failed: {e}"));
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

struct Micro {
    serial_ms: f64,
    parallel_ms: Vec<(usize, f64)>,
    /// Ordered-combine (`reduction_only`) path at the largest grid entry.
    combine_ms: f64,
    bitwise_equal: bool,
}

/// Runs one micro kernel serially and at every grid worker count,
/// checking the full memory image of each parallel run against the
/// serial one.
fn run_micro(
    setup: impl Fn(&mut Memory) -> Vec<Value>,
    serial: impl Fn(&mut Memory, &[Value]) -> Result<Value, String>,
    parallel: impl Fn(ParallelCert, usize, &mut Memory, &[Value]) -> Result<Value, String>,
) -> Micro {
    let mut smem = Memory::new();
    let sargs = setup(&mut smem);
    let serial_ms = best_ms(|| serial(&mut smem, &sargs));

    let mut bitwise_equal = true;
    let mut parallel_ms = Vec::new();
    for &w in &WORKER_GRID {
        let mut pmem = Memory::new();
        let pargs = setup(&mut pmem);
        let ms = best_ms(|| parallel(ParallelCert::Independent, w, &mut pmem, &pargs));
        bitwise_equal &= pmem.bytes() == smem.bytes();
        parallel_ms.push((w, ms));
    }
    // The partial-accumulator + ordered-combine path must agree too.
    let mut cmem = Memory::new();
    let cargs = setup(&mut cmem);
    let combine_ms = best_ms(|| parallel(ParallelCert::ReductionOnly, 4, &mut cmem, &cargs));
    bitwise_equal &= cmem.bytes() == smem.bytes();

    Micro {
        serial_ms,
        parallel_ms,
        combine_ms,
        bitwise_equal,
    }
}

struct SuiteRun {
    ret: Value,
    bytes: Vec<u8>,
    ms: f64,
}

fn run_serial(code: &CompiledModule<'_>, b: &benchsuite::Benchmark, seed: u64) -> SuiteRun {
    let mut vm = Vm::new(code);
    hosts::register_all(&mut vm);
    let args = (b.setup)(&mut vm.mem, seed);
    let t = Instant::now();
    let ret = vm
        .run(b.entry, &args)
        .unwrap_or_else(|e| panic!("{}: serial run failed: {e}", b.name));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    SuiteRun {
        ret,
        bytes: vm.mem.bytes().to_vec(),
        ms,
    }
}

fn run_parallel(
    code: &CompiledModule<'_>,
    certs: &std::collections::BTreeMap<String, ParallelSafety>,
    b: &benchsuite::Benchmark,
    seed: u64,
    workers: usize,
    stats: &Arc<ExecStats>,
) -> SuiteRun {
    let mut vm = Vm::new(code);
    exec::register_parallel(
        &mut vm,
        code.module(),
        certs,
        &ExecConfig::with_workers(workers),
        stats,
    );
    let args = (b.setup)(&mut vm.mem, seed);
    let t = Instant::now();
    let ret = vm
        .run(b.entry, &args)
        .unwrap_or_else(|e| panic!("{}: parallel run (w={workers}) failed: {e}", b.name));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    SuiteRun {
        ret,
        bytes: vm.mem.bytes().to_vec(),
        ms,
    }
}

fn main() {
    let mut out_path = String::from("BENCH_offload.json");
    let mut check = false;
    let mut cfg = ExecConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => {
                let n = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--workers takes a number");
                cfg = ExecConfig::with_workers(n);
            }
            "--out" => out_path = args.next().expect("--out takes a path"),
            "--check" => check = true,
            other => panic!("unknown argument {other:?}"),
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    // ---- Section 1: micro kernels --------------------------------------
    let gemm = run_micro(
        |mem| gemm_micro_args(mem, GEMM_N),
        hosts::gemm_serial,
        exec::gemm_parallel,
    );
    let spmv = run_micro(
        |mem| spmv_micro_args(mem, SPMV_ROWS),
        hosts::csrmv_serial,
        exec::csrmv_parallel,
    );
    let speedup_at = |m: &Micro, w: usize| {
        m.parallel_ms
            .iter()
            .find(|&&(pw, _)| pw == w)
            .map_or(0.0, |&(_, ms)| m.serial_ms / ms.max(1e-9))
    };
    if cores < *WORKER_GRID.last().expect("grid nonempty") {
        eprintln!(
            "note: {cores} core(s) available — measured speedup is bounded by \
             physical parallelism, not by the executor"
        );
    }

    // ---- Section 2: suite determinism sweep ----------------------------
    // ---- Section 3: profile-guided offload decisions -------------------
    let stats = Arc::new(ExecStats::default());
    let mut divergences = 0u64;
    let mut replaced_total = 0u64;
    let mut cert_counts: std::collections::BTreeMap<&'static str, u64> = Default::default();
    let mut decisions: Vec<String> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let (mut suite_serial_ms, mut suite_parallel_ms) = (0.0f64, 0.0f64);

    for b in benchsuite::all() {
        let transformed = idiomatch_core::compile(b.source, b.name)
            .expect("bundled benchmark compiles")
            .detect()
            .transform();
        assert!(
            transformed.verify_errors.is_empty(),
            "{}: {:?}",
            b.name,
            transformed.verify_errors
        );
        let xf = &transformed.xform;
        let certs = xf.certificates();
        replaced_total += xf.replaced() as u64;
        for o in &xf.outcomes {
            if let xform::Outcome::Replaced(rep) = &o.outcome {
                *cert_counts
                    .entry(rep.certificate.safety.as_str())
                    .or_insert(0) += 1;
            }
        }

        let code = compile_module(&xf.module);
        let (mut ser_ms, mut par_ms, mut equal) = (0.0f64, 0.0f64, true);
        for &seed in &SEEDS {
            let oracle = run_serial(&code, &b, seed);
            ser_ms += oracle.ms;
            for &w in &WORKER_GRID {
                let got = run_parallel(&code, &certs, &b, seed, w, &stats);
                if w == WORKER_GRID[WORKER_GRID.len() - 1] {
                    par_ms += got.ms;
                }
                if !value_bits_eq(&got.ret, &oracle.ret) || got.bytes != oracle.bytes {
                    divergences += 1;
                    equal = false;
                    eprintln!(
                        "{}: DIVERGENCE seed={seed:#x} workers={w} \
                         (parallel output is not bitwise equal to serial)",
                        b.name
                    );
                }
            }
        }
        suite_serial_ms += ser_ms;
        suite_parallel_ms += par_ms;

        // Profile the original program and decide offload from measurement.
        let a = idiomatch_core::analyze(&b);
        let safety = idiomatch_core::region_safety(&a);
        let decision = a.dominant_kind.and_then(|kind| {
            hetero::best_configuration_profiled(
                hetero::Platform::Gpu,
                kind,
                &a.profile,
                b.lazy,
                safety,
            )
        });
        decisions.push(format!(
            "    {{\"name\": \"{}\", \"certificate\": \"{}\", \"clears_threshold\": {}, \
             \"offload\": \"{}\", \"modeled_speedup\": {:.3}}}",
            b.name,
            safety.as_str(),
            a.profile.clears_threshold(),
            decision.map_or("none", |(api, _)| api.label()),
            decision.map_or(1.0, |(_, s)| s),
        ));
        rows.push(vec![
            b.name.to_owned(),
            xf.replaced().to_string(),
            safety.as_str().to_owned(),
            decision.map_or("none", |(api, _)| api.label()).to_owned(),
            format!("{ser_ms:.1}"),
            format!("{par_ms:.1}"),
            format!("{:.2}", ser_ms / par_ms.max(1e-9)),
            if equal { "ok" } else { "DIVERGED" }.to_owned(),
        ]);
    }

    let headers = [
        "benchmark",
        "replaced",
        "certificate",
        "offload",
        "serial_ms",
        "par4_ms",
        "speedup",
        "bitwise",
    ];
    idiomatch_bench::print_rows(&headers, &rows);
    println!(
        "gemm {GEMM_N}³: serial {:.1} ms, 4 workers {:.1} ms ({:.2}x); \
         spmv {SPMV_ROWS} rows: serial {:.1} ms, 4 workers {:.1} ms ({:.2}x); {cores} core(s)",
        gemm.serial_ms,
        gemm.parallel_ms[1].1,
        speedup_at(&gemm, 4),
        spmv.serial_ms,
        spmv.parallel_ms[1].1,
        speedup_at(&spmv, 4),
    );

    let certs_json: Vec<(&str, u64)> = [
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
    let seeds_json: Vec<String> = SEEDS.iter().map(u64::to_string).collect();
    let grid_json: Vec<String> = WORKER_GRID.iter().map(usize::to_string).collect();
    let micro_ok = gemm.bitwise_equal && spmv.bitwise_equal;

    let report = Report::new()
        .stable("bench", Json::S("parallel_offload".into()))
        .stable("seeds", Json::Raw(format!("[{}]", seeds_json.join(", "))))
        .stable(
            "worker_grid",
            Json::Raw(format!("[{}]", grid_json.join(", "))),
        )
        .stable("benchmarks", Json::U(rows.len() as u64))
        .stable("replaced", Json::U(replaced_total))
        .stable("certificates", nested_object(&certs_json))
        .stable("divergences", Json::U(divergences))
        .stable(
            "serial_cert_parallel_entries",
            Json::U(stats.serial_cert_parallel_entries()),
        )
        .stable("parallel_launches", Json::U(stats.parallel_launches()))
        .stable("sequential_launches", Json::U(stats.sequential_launches()))
        .stable("gemm_n", Json::U(GEMM_N as u64))
        .stable("spmv_rows", Json::U(SPMV_ROWS as u64))
        .stable("micro_bitwise_equal", Json::B(micro_ok))
        .stable(
            "offload_decisions",
            Json::Raw(format!("[\n{}\n  ]", decisions.join(",\n"))),
        )
        .volatile("cores", Json::U(cores as u64))
        .volatile("default_workers", Json::U(cfg.workers as u64))
        .volatile("gemm_serial_ms", Json::F(gemm.serial_ms, 3))
        .volatile("gemm_parallel_ms_w1", Json::F(gemm.parallel_ms[0].1, 3))
        .volatile("gemm_parallel_ms_w4", Json::F(gemm.parallel_ms[1].1, 3))
        .volatile("gemm_combine_ms_w4", Json::F(gemm.combine_ms, 3))
        .volatile("gemm_speedup_w4", Json::F(speedup_at(&gemm, 4), 3))
        .volatile("spmv_serial_ms", Json::F(spmv.serial_ms, 3))
        .volatile("spmv_parallel_ms_w1", Json::F(spmv.parallel_ms[0].1, 3))
        .volatile("spmv_parallel_ms_w4", Json::F(spmv.parallel_ms[1].1, 3))
        .volatile("spmv_combine_ms_w4", Json::F(spmv.combine_ms, 3))
        .volatile("spmv_speedup_w4", Json::F(speedup_at(&spmv, 4), 3))
        .volatile("suite_serial_ms", Json::F(suite_serial_ms, 3))
        .volatile("suite_parallel_ms_w4", Json::F(suite_parallel_ms, 3));

    if check {
        if let Err(e) = report.check_drift(&out_path) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        eprintln!("{out_path}: stable fields match the current code");
    } else {
        report.write(&out_path);
    }

    if divergences > 0 || !micro_ok || stats.serial_cert_parallel_entries() > 0 {
        eprintln!(
            "offload gate violated: divergences={divergences} micro_bitwise_equal={micro_ok} \
             serial_cert_parallel_entries={}",
            stats.serial_cert_parallel_entries()
        );
        std::process::exit(1);
    }
}
