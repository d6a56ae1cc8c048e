//! Scoped thread-pool execution of replaced kernels, gated by
//! parallel-safety certificates.
//!
//! This is the repo's stand-in for the paper's accelerator backends
//! (§7): instead of modeled GPU milliseconds, replaced regions run on
//! real host threads and are timed for real. Dispatch is keyed off the
//! region's [`SafetyCertificate`](idioms::SafetyCertificate):
//!
//! | certificate               | executor                                     |
//! |---------------------------|----------------------------------------------|
//! | `independent_iterations`  | rows/output-tiles partitioned across workers, each writing a disjoint [`OutWindow`](interp::OutWindow) |
//! | `reduction_only`          | per-worker partial accumulators, combined on the launching thread in ascending worker order |
//! | `serial`                  | sequential host; [`ParallelCert`] makes it unrepresentable at parallel entry points |
//!
//! **Bitwise determinism.** The oracle for every parallel run is the
//! serial host, compared bitwise. Floating-point addition does not
//! reassociate, so only *per-output-element* work is distributed: each
//! element's full accumulation chain (the `k` loop of GEMM, the row of
//! SPMV) runs in serial order on one worker. Scalar reductions
//! (`lift_red_*`) and histograms (`lift_histo_*`) have a single
//! accumulation chain and therefore degenerate to owner-computes — the
//! sequential executor — rather than trade bitwise equality for a
//! reassociated combine.

use crate::hosts::{
    beta_old, csrmv_row, csrmv_serial, elem_addr, gemm_acc, gemm_addr, gemm_serial, parse_csrmv,
    parse_gemm,
};
use idioms::ParallelSafety;
use interp::{compile_module, CompiledModule, HostFn, HostRegistry, Memory, Value, Vm};
use ssair::{Function, Module};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Thread-pool configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Worker count for every parallel launch (≥ 1).
    pub workers: usize,
}

impl ExecConfig {
    /// A pool of exactly `workers` threads.
    #[must_use]
    pub fn with_workers(workers: usize) -> ExecConfig {
        ExecConfig {
            workers: workers.max(1),
        }
    }
}

impl Default for ExecConfig {
    /// Default worker count: the machine's available parallelism.
    fn default() -> ExecConfig {
        ExecConfig::with_workers(
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        )
    }
}

/// Execution counters, shared (`Arc`) between the registered executors
/// and the harness that wants to audit them.
#[derive(Debug, Default)]
pub struct ExecStats {
    parallel_launches: AtomicU64,
    sequential_launches: AtomicU64,
    serial_cert_parallel_entries: AtomicU64,
}

impl ExecStats {
    /// Kernel launches that ran on the thread pool.
    pub fn parallel_launches(&self) -> u64 {
        self.parallel_launches.load(Ordering::Relaxed)
    }

    /// Kernel launches routed to the sequential executor.
    pub fn sequential_launches(&self) -> u64 {
        self.sequential_launches.load(Ordering::Relaxed)
    }

    /// Times a `serial`-certified region reached a parallel entry point
    /// and was refused. Must be zero in any correct configuration; the
    /// determinism suite and the offload bench assert it.
    pub fn serial_cert_parallel_entries(&self) -> u64 {
        self.serial_cert_parallel_entries.load(Ordering::Relaxed)
    }
}

/// A certificate strong enough for parallel execution. `serial` has no
/// representation here, so a parallel executor cannot even be *built*
/// for a serial region — the `TryFrom` conversion is the compile-time
/// face of the guarantee, [`ParallelCert::admit`] the audited runtime
/// backstop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelCert {
    /// `independent_iterations`: disjoint output windows, no combine.
    Independent,
    /// `reduction_only`: partial accumulators + ordered combine.
    ReductionOnly,
}

impl TryFrom<ParallelSafety> for ParallelCert {
    type Error = String;

    fn try_from(safety: ParallelSafety) -> Result<ParallelCert, String> {
        match safety {
            ParallelSafety::IndependentIterations => Ok(ParallelCert::Independent),
            ParallelSafety::ReductionOnly => Ok(ParallelCert::ReductionOnly),
            ParallelSafety::Serial => {
                Err("serial-certified region must not enter a parallel executor".into())
            }
        }
    }
}

impl ParallelCert {
    /// Converts a safety classification at a parallel entry point,
    /// counting (and refusing) any `serial` certificate that shows up.
    pub fn admit(safety: ParallelSafety, stats: &ExecStats) -> Result<ParallelCert, String> {
        ParallelCert::try_from(safety).inspect_err(|_| {
            stats
                .serial_cert_parallel_entries
                .fetch_add(1, Ordering::Relaxed);
        })
    }
}

/// Partitions `[begin, end)` into at most `workers` contiguous chunks in
/// ascending order (never empty; a degenerate range yields one empty
/// chunk).
fn chunk_range(begin: i64, end: i64, workers: usize) -> Vec<(i64, i64)> {
    let total = end.saturating_sub(begin).max(0) as u64;
    let w = (workers.max(1) as u64).min(total.max(1));
    let base = total / w;
    let extra = total % w;
    let mut parts = Vec::with_capacity(w as usize);
    let mut lo = begin;
    for i in 0..w {
        let hi = lo + (base + u64::from(i < extra)) as i64;
        parts.push((lo, hi));
        lo = hi;
    }
    parts
}

/// The one fan-out of the parallel executors: runs `work` on every
/// per-worker input, each on its own scoped thread, and returns the
/// results in input (worker) order so callers can replay the serial store
/// order. A panicking worker becomes an `Err` naming `what`.
fn fan_out<I: Send, T: Send>(
    what: &str,
    inputs: impl IntoIterator<Item = I>,
    work: impl Fn(I) -> Result<T, String> + Sync,
) -> Vec<Result<T, String>> {
    let work = &work;
    std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .into_iter()
            .map(|input| s.spawn(move || work(input)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(format!("parallel {what} worker panicked")))
            })
            .collect()
    })
}

/// Runs `callee` from the pre-compiled module on the calling thread
/// against the caller's memory (swapped in and out) — the sequential
/// executor. The bytecode was compiled once at registration; each launch
/// only pays the dispatch loop.
fn run_inline(
    code: &CompiledModule<'_>,
    callee: &str,
    mem: &mut Memory,
    args: &[Value],
) -> Result<Value, String> {
    let mut inner = Vm::new(code);
    inner.mem = std::mem::take(mem);
    let r = inner.run(callee, args).map_err(|e| e.message);
    *mem = std::mem::take(&mut inner.mem);
    r
}

/// Parallel `gemm_f64`: output rows (`i0`) are partitioned across
/// workers. With an independence certificate and an `i0`-major `C`
/// layout the workers write disjoint in-place [`interp::OutWindow`]s;
/// otherwise each worker fills a partial buffer and the launching thread
/// combines them in ascending worker order (identical to the serial
/// store order, hence bitwise identical).
pub fn gemm_parallel(
    cert: ParallelCert,
    workers: usize,
    mem: &mut Memory,
    args: &[Value],
) -> Result<Value, String> {
    let g = parse_gemm(args)?;
    if g.m <= 0 || g.n <= 0 {
        return gemm_serial(mem, args);
    }
    let parts = chunk_range(0, g.m, workers);
    if parts.len() <= 1 {
        return gemm_serial(mem, args);
    }

    let windowed = cert == ParallelCert::Independent && g.cr == 0 && g.sc > 0 && g.sc >= g.n;
    if windowed {
        // C rows are i0-major and non-overlapping: carve [c, addr(m-1, n-1)]
        // out of memory and split it at each chunk's first row.
        let last = (g.m - 1)
            .checked_mul(g.sc)
            .and_then(|t| t.checked_add(g.n))
            .ok_or_else(|| format!("index overflow: stride {} over {} rows", g.sc, g.m))?;
        let end = elem_addr(g.c, last, 8)?;
        let (view, window) = mem.split_out(g.c, (end - g.c) as usize)?;
        let mut wins = Vec::with_capacity(parts.len());
        let mut rest = window;
        for &(lo, _) in parts.iter().skip(1) {
            let (head, tail) = rest.split_at(gemm_addr(g.c, lo, 0, g.sc, 0)?)?;
            wins.push(head);
            rest = tail;
        }
        wins.push(rest);

        let results = fan_out(
            "gemm",
            parts.iter().copied().zip(wins),
            |((lo, hi), mut win)| {
                for i0 in lo..hi {
                    for i1 in 0..g.n {
                        let acc = gemm_acc(&g, &view, i0, i1)?;
                        let ca = gemm_addr(g.c, i0, i1, g.sc, g.cr)?;
                        let cur = win.load_f64(ca)?;
                        win.store_f64(ca, acc + beta_old(cur, g.beta))?;
                    }
                }
                Ok(())
            },
        );
        for r in results {
            r?;
        }
        return Ok(Value::I(0));
    }

    // Partial-accumulator path: the compute phase only reads memory; the
    // launching thread then replays the serial store order.
    let shared = &*mem;
    let results = fan_out("gemm", parts.iter().copied(), |(lo, hi)| {
        let mut buf = Vec::with_capacity(((hi - lo) * g.n).max(0) as usize);
        for i0 in lo..hi {
            for i1 in 0..g.n {
                buf.push(gemm_acc(&g, shared, i0, i1)?);
            }
        }
        Ok(buf)
    });
    for (&(lo, hi), r) in parts.iter().zip(results) {
        let buf = r?;
        let mut vals = buf.into_iter();
        for i0 in lo..hi {
            for i1 in 0..g.n {
                let acc = vals.next().expect("one partial per output element");
                let ca = gemm_addr(g.c, i0, i1, g.sc, g.cr)?;
                let cur = mem.load_f64(ca)?;
                mem.store_f64(ca, acc + beta_old(cur, g.beta))?;
            }
        }
    }
    Ok(Value::I(0))
}

/// Parallel `csrmv_f64`: rows partitioned across workers. `y` is
/// contiguous, so an independence certificate gets disjoint in-place
/// windows; a reduction certificate computes per-worker partial row
/// buffers combined in ascending order. Row dot products keep their
/// serial `rowptr` order either way.
pub fn csrmv_parallel(
    cert: ParallelCert,
    workers: usize,
    mem: &mut Memory,
    args: &[Value],
) -> Result<Value, String> {
    let sp = parse_csrmv(args)?;
    if sp.m <= 0 {
        return csrmv_serial(mem, args);
    }
    let parts = chunk_range(0, sp.m, workers);
    if parts.len() <= 1 {
        return csrmv_serial(mem, args);
    }

    match cert {
        ParallelCert::Independent => {
            let end = elem_addr(sp.y, sp.m, 8)?;
            let (view, window) = mem.split_out(sp.y, (end - sp.y) as usize)?;
            let mut wins = Vec::with_capacity(parts.len());
            let mut rest = window;
            for &(lo, _) in parts.iter().skip(1) {
                let (head, tail) = rest.split_at(elem_addr(sp.y, lo, 8)?)?;
                wins.push(head);
                rest = tail;
            }
            wins.push(rest);

            let results = fan_out(
                "csrmv",
                parts.iter().copied().zip(wins),
                |((lo, hi), mut win)| {
                    for j in lo..hi {
                        let d = csrmv_row(&sp, &view, j)?;
                        win.store_f64(elem_addr(sp.y, j, 8)?, d)?;
                    }
                    Ok(())
                },
            );
            for r in results {
                r?;
            }
        }
        ParallelCert::ReductionOnly => {
            let shared = &*mem;
            let results = fan_out("csrmv", parts.iter().copied(), |(lo, hi)| {
                (lo..hi)
                    .map(|j| csrmv_row(&sp, shared, j))
                    .collect::<Result<Vec<f64>, String>>()
            });
            for (&(lo, _), r) in parts.iter().zip(results) {
                for (j, d) in (lo..).zip(r?) {
                    mem.store_f64(elem_addr(sp.y, j, 8)?, d)?;
                }
            }
        }
    }
    Ok(Value::I(0))
}

fn param_pos(f: &Function, name: &str) -> Option<usize> {
    f.params
        .iter()
        .position(|&p| f.value(p).name.as_deref() == Some(name))
}

/// Parallel executor for a generated stencil kernel (`halide_st1_*` /
/// `halide_st2_*`): the outer iteration range — located by parameter
/// name — is chunked across workers, each of which interprets its chunk
/// of the *same* kernel against a private clone of memory. The launching
/// thread merges the byte diffs back in ascending worker order; two
/// workers dirtying the same byte differently means the independence
/// certificate lied, and the launch fails instead of racing.
fn stencil_host<'m>(
    code: Arc<CompiledModule<'m>>,
    callee: String,
    range: (&'static str, &'static str),
    workers: usize,
    safety: ParallelSafety,
    stats: Arc<ExecStats>,
) -> HostFn<'m> {
    Arc::new(move |mem, args| {
        ParallelCert::admit(safety, &stats)?;
        stats.parallel_launches.fetch_add(1, Ordering::Relaxed);
        let f = code
            .module()
            .function(&callee)
            .ok_or_else(|| format!("unknown kernel {callee}"))?;
        let bi = param_pos(f, range.0)
            .ok_or_else(|| format!("{callee} has no parameter %{}", range.0))?;
        let ei = param_pos(f, range.1)
            .ok_or_else(|| format!("{callee} has no parameter %{}", range.1))?;
        if args.len() != f.params.len() {
            return Err(format!(
                "{callee} expects {} arguments, got {}",
                f.params.len(),
                args.len()
            ));
        }
        let parts = chunk_range(args[bi].try_i()?, args[ei].try_i()?, workers);
        if parts.len() <= 1 {
            return run_inline(&code, &callee, mem, args);
        }

        let baseline = mem.clone();
        let results = fan_out("stencil", parts.iter().copied(), |(lo, hi)| {
            let mut cargs = args.to_vec();
            cargs[bi] = Value::I(lo);
            cargs[ei] = Value::I(hi);
            let mut inner = Vm::new(&code);
            inner.mem = baseline.clone();
            inner.run(&callee, &cargs).map_err(|e| e.message)?;
            Ok(std::mem::take(&mut inner.mem))
        });

        let base_bytes = baseline.bytes();
        let mut claimed = vec![false; base_bytes.len()];
        let out = mem.bytes_mut();
        for r in results {
            let wmem = r?;
            let wb = wmem.bytes();
            for i in 0..base_bytes.len().min(wb.len()) {
                if wb[i] != base_bytes[i] {
                    if claimed[i] && out[i] != wb[i] {
                        return Err(format!(
                            "overlapping parallel writes at address {i} — \
                             independence certificate violated for {callee}"
                        ));
                    }
                    claimed[i] = true;
                    out[i] = wb[i];
                }
            }
        }
        Ok(Value::I(0))
    })
}

/// The sequential executor: interprets the kernel inline and counts the
/// launch. Used for `serial` certificates and for kernels whose single
/// accumulation chain makes bitwise-deterministic parallelism impossible
/// (scalar reductions, histograms).
fn sequential_host<'m>(
    code: Arc<CompiledModule<'m>>,
    callee: String,
    stats: Arc<ExecStats>,
) -> HostFn<'m> {
    Arc::new(move |mem, args| {
        stats.sequential_launches.fetch_add(1, Ordering::Relaxed);
        run_inline(&code, &callee, mem, args)
    })
}

/// Registers an executor for every certified callee of a transformed
/// module, keyed off its parallel-safety certificate:
/// `independent_iterations`/`reduction_only` regions get the thread-pool
/// executors, `serial` regions (and single-accumulator kernels, which
/// cannot be split without reassociating float adds) get the sequential
/// one. `certs` is typically
/// [`ModuleXform::certificates`](../xform/struct.ModuleXform.html).
///
/// The module is lowered to bytecode once here; every registered host
/// shares that [`CompiledModule`], so repeated kernel launches pay only
/// the dispatch loop. Generic over [`HostRegistry`], so hosts install on
/// the bytecode `Vm` and on the reference `Machine` alike.
pub fn register_parallel<'m>(
    vm: &mut impl HostRegistry<'m>,
    module: &'m Module,
    certs: &BTreeMap<String, ParallelSafety>,
    cfg: &ExecConfig,
    stats: &Arc<ExecStats>,
) {
    let workers = cfg.workers.max(1);
    let code = Arc::new(compile_module(module));
    for (callee, &safety) in certs {
        let name = callee.clone();
        let st = Arc::clone(stats);
        let host: HostFn<'m> = match ParallelCert::try_from(safety) {
            Err(_) => sequential_host(Arc::clone(&code), name.clone(), st),
            Ok(_) if name == "gemm_f64" => Arc::new(move |mem, args| {
                let cert = ParallelCert::admit(safety, &st)?;
                st.parallel_launches.fetch_add(1, Ordering::Relaxed);
                gemm_parallel(cert, workers, mem, args)
            }),
            Ok(_) if name == "csrmv_f64" => Arc::new(move |mem, args| {
                let cert = ParallelCert::admit(safety, &st)?;
                st.parallel_launches.fetch_add(1, Ordering::Relaxed);
                csrmv_parallel(cert, workers, mem, args)
            }),
            Ok(ParallelCert::Independent) if name.starts_with("halide_st1_") => stencil_host(
                Arc::clone(&code),
                name.clone(),
                ("begin", "end"),
                workers,
                safety,
                st,
            ),
            Ok(ParallelCert::Independent) if name.starts_with("halide_st2_") => stencil_host(
                Arc::clone(&code),
                name.clone(),
                ("b0r", "e0r"),
                workers,
                safety,
                st,
            ),
            // lift_red_* / lift_histo_*: one accumulation chain; bitwise
            // determinism forbids splitting it (owner-computes).
            Ok(_) => sequential_host(Arc::clone(&code), name.clone(), st),
        };
        vm.register_host(&name, host);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hosts::register_all;
    use interp::Machine;

    #[test]
    fn serial_certificates_are_unrepresentable_as_parallel() {
        assert!(ParallelCert::try_from(ParallelSafety::Serial).is_err());
        let stats = ExecStats::default();
        assert!(ParallelCert::admit(ParallelSafety::Serial, &stats).is_err());
        assert_eq!(stats.serial_cert_parallel_entries(), 1);
        assert!(ParallelCert::admit(ParallelSafety::IndependentIterations, &stats).is_ok());
        assert_eq!(stats.serial_cert_parallel_entries(), 1);
    }

    #[test]
    fn chunk_range_covers_and_orders() {
        assert_eq!(chunk_range(0, 10, 4), vec![(0, 3), (3, 6), (6, 8), (8, 10)]);
        assert_eq!(chunk_range(2, 5, 8), vec![(2, 3), (3, 4), (4, 5)]);
        assert_eq!(chunk_range(5, 5, 4), vec![(5, 5)]);
        assert_eq!(chunk_range(7, 3, 4), vec![(7, 7)]);
    }

    #[test]
    fn fan_out_keeps_worker_order_and_contains_panics() {
        let results = fan_out("probe", [1, 2, 3], |x| {
            assert_ne!(x, 2, "worker 2 fails");
            Ok(x * 10)
        });
        assert_eq!(
            results,
            vec![
                Ok(10),
                Err("parallel probe worker panicked".to_string()),
                Ok(30)
            ]
        );
    }

    fn gemm_fixture(mem: &mut Memory, m: usize, n: usize, k: usize, beta: f64) -> Vec<Value> {
        let a: Vec<f64> = (0..m * k).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..n * k).map(|i| (i as f64 * 0.7).cos()).collect();
        let c: Vec<f64> = (0..m * n).map(|i| i as f64 * 0.01 - 1.0).collect();
        let (ap, bp, cp) = (
            mem.alloc_f64_slice(&a),
            mem.alloc_f64_slice(&b),
            mem.alloc_f64_slice(&c),
        );
        vec![
            Value::P(ap),
            Value::P(bp),
            Value::P(cp),
            Value::I(m as i64),
            Value::I(n as i64),
            Value::I(k as i64),
            Value::I(k as i64),
            Value::I(k as i64),
            Value::I(n as i64),
            Value::I(0),
            Value::I(0),
            Value::I(0),
            Value::F(beta),
        ]
    }

    #[test]
    fn parallel_gemm_is_bitwise_equal_to_serial() {
        for cert in [ParallelCert::Independent, ParallelCert::ReductionOnly] {
            for workers in [1usize, 3, 4, 9] {
                let mut m1 = Memory::new();
                let args1 = gemm_fixture(&mut m1, 7, 5, 6, 0.5);
                gemm_serial(&mut m1, &args1).unwrap();
                let mut m2 = Memory::new();
                let args2 = gemm_fixture(&mut m2, 7, 5, 6, 0.5);
                gemm_parallel(cert, workers, &mut m2, &args2).unwrap();
                assert_eq!(m1.bytes(), m2.bytes(), "{cert:?} at {workers} workers");
            }
        }
    }

    #[test]
    fn parallel_gemm_column_major_c_uses_ordered_combine() {
        // cr != 0 defeats the in-place window layout check, forcing the
        // partial-buffer path; the result must still match serial bitwise.
        let make = |mem: &mut Memory| {
            let mut a = gemm_fixture(mem, 6, 4, 5, -0.25);
            a[8] = Value::I(6); // sc = m for a column-major C
            a[11] = Value::I(1); // cr = 1
            a
        };
        let mut m1 = Memory::new();
        let a1 = make(&mut m1);
        gemm_serial(&mut m1, &a1).unwrap();
        let mut m2 = Memory::new();
        let a2 = make(&mut m2);
        gemm_parallel(ParallelCert::Independent, 4, &mut m2, &a2).unwrap();
        assert_eq!(m1.bytes(), m2.bytes());
    }

    fn csrmv_fixture(mem: &mut Memory, rows: usize) -> Vec<Value> {
        let mut rowptr = vec![0i32];
        let mut colidx = Vec::new();
        let mut vals = Vec::new();
        for j in 0..rows {
            for t in 0..(j % 4) {
                colidx.push(((j + t * 3) % rows) as i32);
                vals.push((j * 7 + t) as f64 * 0.3 - 1.0);
            }
            rowptr.push(colidx.len() as i32);
        }
        let x: Vec<f64> = (0..rows).map(|i| (i as f64 * 1.3).sin()).collect();
        let (vp, rp, cp, xp) = (
            mem.alloc_f64_slice(&vals),
            mem.alloc_i32_slice(&rowptr),
            mem.alloc_i32_slice(&colidx),
            mem.alloc_f64_slice(&x),
        );
        let yp = mem.alloc_f64_slice(&vec![0.0; rows]);
        vec![
            Value::P(vp),
            Value::P(rp),
            Value::P(cp),
            Value::P(xp),
            Value::P(yp),
            Value::I(rows as i64),
            Value::I(4),
            Value::I(4),
        ]
    }

    #[test]
    fn parallel_csrmv_is_bitwise_equal_to_serial() {
        for cert in [ParallelCert::Independent, ParallelCert::ReductionOnly] {
            for workers in [1usize, 2, 4, 7] {
                let mut m1 = Memory::new();
                let a1 = csrmv_fixture(&mut m1, 23);
                csrmv_serial(&mut m1, &a1).unwrap();
                let mut m2 = Memory::new();
                let a2 = csrmv_fixture(&mut m2, 23);
                csrmv_parallel(cert, workers, &mut m2, &a2).unwrap();
                assert_eq!(m1.bytes(), m2.bytes(), "{cert:?} at {workers} workers");
            }
        }
    }

    #[test]
    fn parallel_gemm_refuses_aliased_output() {
        // Point A at the C buffer: the windowed executor's read view must
        // refuse the in-window load instead of racing on it.
        let mut mem = Memory::new();
        let mut args = gemm_fixture(&mut mem, 4, 4, 4, 0.0);
        args[0] = args[2];
        let err = gemm_parallel(ParallelCert::Independent, 2, &mut mem, &args).unwrap_err();
        assert!(err.contains("independence certificate"), "{err}");
    }

    #[test]
    fn register_parallel_routes_serial_certificates_sequentially() {
        let text = r#"
define void @run(double* %v, i32* %r, i32* %c, double* %x, double* %y, i64 %m) {
entry:
  call void @csrmv_f64(double* %v, i32* %r, i32* %c, double* %x, double* %y, i64 %m, i64 4, i64 4)
  ret void
}
define void @csrmv_f64(double* %v, i32* %r, i32* %c, double* %x, double* %y, i64 %m, i64 %rw, i64 %cw) {
entry:
  ret void
}
"#;
        let module = ssair::parser::parse_module(text).unwrap();
        let mut certs = BTreeMap::new();
        certs.insert("csrmv_f64".to_string(), ParallelSafety::Serial);
        let stats = Arc::new(ExecStats::default());
        let mut vm = Machine::new(&module);
        register_parallel(
            &mut vm,
            &module,
            &certs,
            &ExecConfig::with_workers(4),
            &stats,
        );
        let mut m0 = Memory::new();
        let args = csrmv_fixture(&mut m0, 5);
        vm.mem = m0;
        vm.run("run", &args[..6]).unwrap();
        assert_eq!(stats.sequential_launches(), 1);
        assert_eq!(stats.parallel_launches(), 0);
        assert_eq!(stats.serial_cert_parallel_entries(), 0);
    }

    #[test]
    fn register_parallel_runs_library_kernels_on_the_pool() {
        let text = r#"
define void @run(double* %v, i32* %r, i32* %c, double* %x, double* %y, i64 %m) {
entry:
  call void @csrmv_f64(double* %v, i32* %r, i32* %c, double* %x, double* %y, i64 %m, i64 4, i64 4)
  ret void
}
"#;
        let module = ssair::parser::parse_module(text).unwrap();
        let mut certs = BTreeMap::new();
        certs.insert(
            "csrmv_f64".to_string(),
            ParallelSafety::IndependentIterations,
        );
        let stats = Arc::new(ExecStats::default());
        let mut vm = Machine::new(&module);
        register_parallel(
            &mut vm,
            &module,
            &certs,
            &ExecConfig::with_workers(4),
            &stats,
        );
        let mut m0 = Memory::new();
        let args = csrmv_fixture(&mut m0, 17);
        vm.mem = m0;
        vm.run("run", &args[..6]).unwrap();
        assert_eq!(stats.parallel_launches(), 1);

        // Oracle: serial host on identical inputs, bitwise.
        let mut vm2 = Machine::new(&module);
        register_all(&mut vm2);
        let mut m1 = Memory::new();
        let args2 = csrmv_fixture(&mut m1, 17);
        vm2.mem = m1;
        vm2.run("run", &args2[..6]).unwrap();
        assert_eq!(vm.mem.bytes(), vm2.mem.bytes());
    }
}
