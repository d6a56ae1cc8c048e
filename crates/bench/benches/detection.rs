//! Criterion benches: detection robustness/throughput over the whole
//! suite (§8.1's compile-time claim) and solver microbenchmarks.

use criterion::{criterion_group, criterion_main, Criterion};

fn bench_detection(c: &mut Criterion) {
    // The full-suite pass takes ~1 s per iteration; keep sampling modest.

    // Pre-compile all modules once; measure detection itself.
    let modules: Vec<ssair::Module> = benchsuite::all()
        .iter()
        .map(|b| minicc::compile(b.source, b.name).unwrap())
        .collect();
    c.bench_function("detect_all_21_benchmarks", |b| {
        // One driver call over every function of the suite.
        let fs: Vec<&ssair::Function> = modules.iter().flat_map(|m| &m.functions).collect();
        let opts = idioms::DetectOptions::default();
        b.iter(|| {
            let n: usize = idioms::detect_functions(&fs, &opts)
                .iter()
                .map(|d| d.instances.len())
                .sum();
            assert_eq!(n, 60);
        })
    });
    let cg = minicc::compile(
        benchsuite::all()
            .iter()
            .find(|b| b.name == "CG")
            .unwrap()
            .source,
        "CG",
    )
    .unwrap();
    c.bench_function("detect_spmv_in_cg", |b| {
        b.iter(|| {
            let f = cg.function("cg_spmv").unwrap();
            let n = idioms::detect(f).len();
            assert_eq!(n, 1);
        })
    });
    c.bench_function("frontend_compile_cg", |b| {
        let src = benchsuite::all()
            .iter()
            .find(|b| b.name == "CG")
            .unwrap()
            .source;
        b.iter(|| minicc::compile(src, "CG").unwrap())
    });
}

/// Solve-only microbenchmarks: each idiom kind's compiled constraint run
/// in isolation on a representative function that contains the idiom
/// (no frontend lowering, no post-processing, no fan-out — pure solver).
fn bench_solver_per_idiom(c: &mut Criterion) {
    use idioms::IdiomKind;
    // (kind, representative C source, function name).
    let cases: [(IdiomKind, &str, &str); 6] = [
        (
            IdiomKind::Gemm,
            "void mm(double* a, double* b, double* o, int n) {
                for (int i = 0; i < n; i++)
                    for (int j = 0; j < n; j++) {
                        double s = 0.0;
                        for (int k = 0; k < n; k++) s += a[i*n+k] * b[k*n+j];
                        o[i*n+j] = s;
                    }
            }",
            "mm",
        ),
        (
            IdiomKind::Spmv,
            "void spmv(double* a, int* rp, int* ci, double* x, double* y, int m) {
                for (int i = 0; i < m; i++) {
                    double s = 0.0;
                    for (int k = rp[i]; k < rp[i+1]; k++) s = s + a[k] * x[ci[k]];
                    y[i] = s;
                }
            }",
            "spmv",
        ),
        (
            IdiomKind::Stencil2D,
            "void jac(double* o, double* a, int n) {
                for (int i = 1; i < n - 1; i++)
                    for (int j = 1; j < n - 1; j++)
                        o[i*n+j] = 0.25 * (a[(i-1)*n+j] + a[(i+1)*n+j] + a[i*n+j-1] + a[i*n+j+1]);
            }",
            "jac",
        ),
        (
            IdiomKind::Stencil1D,
            "void blur(double* o, double* a, int n) {
                for (int i = 1; i < n - 1; i++) o[i] = a[i-1] + 2.0*a[i] + a[i+1];
            }",
            "blur",
        ),
        (
            IdiomKind::Histogram,
            "void hist(int* k, int* b, int n) {
                for (int i = 0; i < n; i++) b[k[i]] = b[k[i]] + 1;
            }",
            "hist",
        ),
        (
            IdiomKind::Reduction,
            "double dot(double* x, double* y, int n) {
                double s = 0.0;
                for (int i = 0; i < n; i++) s += x[i] * y[i];
                return s;
            }",
            "dot",
        ),
    ];
    for (kind, src, fname) in cases {
        let module = minicc::compile(src, "bench").unwrap();
        let f = module.function(fname).unwrap().clone();
        let constraint = idioms::compiled(kind);
        let opts = solver::SolveOptions::default();
        // Analyses are built once (as detection shares them per function);
        // the measured loop is the constraint search alone.
        let s = solver::Solver::new(&f);
        assert!(
            !s.solve(constraint, &opts).is_empty(),
            "{kind:?}: representative function must contain the idiom"
        );
        c.bench_function(&format!("solve_{}", kind.constraint_name()), |b| {
            b.iter(|| {
                let n = s.solve_outcome(constraint, &opts).solutions.len();
                assert!(n > 0);
            })
        });
    }
}

/// Execution-only microbenchmarks: one canonical-seed run of a
/// representative benchmark on the bytecode `Vm` (compile amortized
/// outside the loop), and compile+execute on the `Vm` (the cost the
/// pipeline pays once per module, then reuses across seeds).
fn bench_execution(c: &mut Criterion) {
    let suite = benchsuite::all();
    for name in ["CG", "stencil"] {
        let b = suite
            .iter()
            .find(|b| b.name == name)
            .unwrap_or_else(|| panic!("suite has {name}"));
        let module = minicc::compile(b.source, b.name).unwrap();
        let tag = name.replace('-', "_");
        let code = interp::compile_module(&module);
        c.bench_function(&format!("exec_vm_{tag}"), |bench| {
            bench.iter(|| {
                let mut vm = interp::Vm::new(&code);
                let args = (b.setup)(&mut vm.mem, benchsuite::CANONICAL_SEED);
                vm.run(b.entry, &args).unwrap()
            })
        });
        c.bench_function(&format!("compile_exec_vm_{tag}"), |bench| {
            bench.iter(|| {
                let code = interp::compile_module(&module);
                let mut vm = interp::Vm::new(&code);
                let args = (b.setup)(&mut vm.mem, benchsuite::CANONICAL_SEED);
                vm.run(b.entry, &args).unwrap()
            })
        });
    }
}

criterion_group! {
    name = solver_benches;
    config = Criterion::default().sample_size(20);
    targets = bench_solver_per_idiom
}

criterion_group! {
    name = exec_benches;
    config = Criterion::default().sample_size(20);
    targets = bench_execution
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_detection
}
criterion_main!(benches, solver_benches, exec_benches);
