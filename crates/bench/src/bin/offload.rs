//! Profile-guided parallel offload: the thread-pool backend checked end
//! to end, writing `BENCH_offload.json`.
//!
//! Three sections:
//!
//! 1. **Micro kernels** — a dense GEMM and a CSR SpMV run through the
//!    serial hosts ([`hetero::hosts`]) and the thread-pool executors
//!    ([`hetero::exec`]) at 1 and 4 workers, plus the ordered-combine
//!    path; every parallel memory image must equal the serial one
//!    bitwise.
//! 2. **Suite determinism** — every benchmark is transformed, then
//!    executed once with the serial hosts and once per worker count
//!    with [`hetero::exec::register_parallel`] dispatching off the
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
//! Every field is deterministic (counts, certificates, launches and
//! decisions; no timings), so CI regenerates the file and fails on any
//! `git diff`. Wall-clock offload cost is the repository benchmark's
//! `suite-run` workload.
//!
//! Usage: `cargo run --release -p idiomatch-bench --bin offload --
//! [--out PATH]`

use hetero::exec::{self, ExecConfig, ExecStats, ParallelCert};
use hetero::hosts;
use idiomatch_bench::report::{nested_object, Json, Report};
use idioms::ParallelSafety;
use interp::{compile_module, CompiledModule, Memory, Value, Vm};
use std::sync::Arc;

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

/// Runs one micro kernel serially and at every grid worker count, plus
/// the partial-accumulator + ordered-combine path, and reports whether
/// every parallel memory image equals the serial one bitwise.
fn micro_bitwise_equal(
    setup: impl Fn(&mut Memory) -> Vec<Value>,
    serial: impl Fn(&mut Memory, &[Value]) -> Result<Value, String>,
    parallel: impl Fn(ParallelCert, usize, &mut Memory, &[Value]) -> Result<Value, String>,
) -> bool {
    let mut oracle = Memory::new();
    let args = setup(&mut oracle);
    serial(&mut oracle, &args).unwrap_or_else(|e| panic!("micro kernel failed: {e}"));
    let mut runs = WORKER_GRID
        .iter()
        .map(|&w| (ParallelCert::Independent, w))
        .chain([(ParallelCert::ReductionOnly, 4)]);
    runs.all(|(cert, w)| {
        let mut mem = Memory::new();
        let args = setup(&mut mem);
        parallel(cert, w, &mut mem, &args).unwrap_or_else(|e| panic!("micro kernel failed: {e}"));
        mem.bytes() == oracle.bytes()
    })
}

struct SuiteRun {
    ret: Value,
    bytes: Vec<u8>,
}

fn run_serial(code: &CompiledModule<'_>, b: &benchsuite::Benchmark, seed: u64) -> SuiteRun {
    let mut vm = Vm::new(code);
    hosts::register_all(&mut vm);
    let args = (b.setup)(&mut vm.mem, seed);
    let ret = vm
        .run(b.entry, &args)
        .unwrap_or_else(|e| panic!("{}: serial run failed: {e}", b.name));
    SuiteRun {
        ret,
        bytes: vm.mem.bytes().to_vec(),
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
    let ret = vm
        .run(b.entry, &args)
        .unwrap_or_else(|e| panic!("{}: parallel run (w={workers}) failed: {e}", b.name));
    SuiteRun {
        ret,
        bytes: vm.mem.bytes().to_vec(),
    }
}

fn main() {
    let mut out_path = String::from("BENCH_offload.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out takes a path"),
            other => panic!("unknown argument {other:?}"),
        }
    }

    // ---- Section 1: micro kernels --------------------------------------
    let micro_ok = micro_bitwise_equal(
        |mem| gemm_micro_args(mem, GEMM_N),
        hosts::gemm_serial,
        exec::gemm_parallel,
    ) && micro_bitwise_equal(
        |mem| spmv_micro_args(mem, SPMV_ROWS),
        hosts::csrmv_serial,
        exec::csrmv_parallel,
    );

    // ---- Section 2: suite determinism sweep ----------------------------
    // ---- Section 3: profile-guided offload decisions -------------------
    let stats = Arc::new(ExecStats::default());
    let mut divergences = 0u64;
    let mut replaced_total = 0u64;
    let mut cert_counts: std::collections::BTreeMap<&'static str, u64> = Default::default();
    let mut decisions: Vec<String> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();

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
        let mut equal = true;
        for &seed in &SEEDS {
            let oracle = run_serial(&code, &b, seed);
            for &w in &WORKER_GRID {
                let got = run_parallel(&code, &certs, &b, seed, w, &stats);
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
            if equal { "ok" } else { "DIVERGED" }.to_owned(),
        ]);
    }

    let headers = ["benchmark", "replaced", "certificate", "offload", "bitwise"];
    idiomatch_bench::print_rows(&headers, &rows);

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

    let report = Report::new()
        .field("bench", Json::S("parallel_offload".into()))
        .field("seeds", Json::Raw(format!("[{}]", seeds_json.join(", "))))
        .field(
            "worker_grid",
            Json::Raw(format!("[{}]", grid_json.join(", "))),
        )
        .field("benchmarks", Json::U(rows.len() as u64))
        .field("replaced", Json::U(replaced_total))
        .field("certificates", nested_object(&certs_json))
        .field("divergences", Json::U(divergences))
        .field(
            "serial_cert_parallel_entries",
            Json::U(stats.serial_cert_parallel_entries()),
        )
        .field("parallel_launches", Json::U(stats.parallel_launches()))
        .field("sequential_launches", Json::U(stats.sequential_launches()))
        .field("gemm_n", Json::U(GEMM_N as u64))
        .field("spmv_rows", Json::U(SPMV_ROWS as u64))
        .field("micro_bitwise_equal", Json::B(micro_ok))
        .field(
            "offload_decisions",
            Json::Raw(format!("[\n{}\n  ]", decisions.join(",\n"))),
        );
    report.write(&out_path);

    if divergences > 0 || !micro_ok || stats.serial_cert_parallel_entries() > 0 {
        eprintln!(
            "offload gate violated: divergences={divergences} micro_bitwise_equal={micro_ok} \
             serial_cert_parallel_entries={}",
            stats.serial_cert_parallel_entries()
        );
        std::process::exit(1);
    }
}
