//! Functional executors for the fixed-function library entry points.
//!
//! These are the "vendor libraries" of the simulation: registering them
//! with an [`interp::Vm`] makes transformed programs executable (the
//! timing of the simulated devices is handled separately by
//! [`crate::model`], and the parallel thread-pool variants live in
//! [`crate::exec`]).
//!
//! All element addressing goes through checked signed arithmetic
//! (`elem_addr`): a negative index or stride — a corrupted `rowptr`,
//! or hostile layout facts from a bad replacement — fails with a
//! descriptive error instead of wrapping to a huge `u64` offset.

use interp::{HostRegistry, Memory, ReadView, Value};
use std::sync::Arc;

/// Address of signed element `idx` (of `width` bytes) at `base`.
///
/// Rejects negative indices and overflowing offsets; `base + width * idx`
/// with `idx as u64` would wrap a negative index to the top of the
/// address space and turn a data corruption into a wild read.
pub(crate) fn elem_addr(base: u64, idx: i64, width: u64) -> Result<u64, String> {
    if idx < 0 {
        return Err(format!("negative element index {idx} (base {base})"));
    }
    (idx as u64)
        .checked_mul(width)
        .and_then(|off| base.checked_add(off))
        .ok_or_else(|| format!("address overflow: {base} + {width} * {idx}"))
}

/// The loads a kernel body needs, abstracted over the full [`Memory`]
/// (serial hosts) and a [`ReadView`] with the output carved out
/// (parallel workers). Keeping one body for both is what makes the
/// bitwise serial/parallel oracle meaningful: the arithmetic is the
/// same code, only the partitioning differs.
pub(crate) trait KernelLoads {
    fn ld_f64(&self, addr: u64) -> Result<f64, String>;
    fn ld_i32(&self, addr: u64) -> Result<i64, String>;
    fn ld_i64(&self, addr: u64) -> Result<i64, String>;
}

impl KernelLoads for Memory {
    fn ld_f64(&self, addr: u64) -> Result<f64, String> {
        self.load_f64(addr)
    }
    fn ld_i32(&self, addr: u64) -> Result<i64, String> {
        self.load_i32(addr)
    }
    fn ld_i64(&self, addr: u64) -> Result<i64, String> {
        self.load_i64(addr)
    }
}

impl KernelLoads for ReadView<'_> {
    fn ld_f64(&self, addr: u64) -> Result<f64, String> {
        self.load_f64(addr)
    }
    fn ld_i32(&self, addr: u64) -> Result<i64, String> {
        self.load_i32(addr)
    }
    fn ld_i64(&self, addr: u64) -> Result<i64, String> {
        self.load_i64(addr)
    }
}

pub(crate) fn load_idx<L: KernelLoads>(
    src: &L,
    base: u64,
    k: i64,
    width: i64,
) -> Result<i64, String> {
    if width == 4 {
        src.ld_i32(elem_addr(base, k, 4)?)
    } else {
        src.ld_i64(elem_addr(base, k, 8)?)
    }
}

/// Rejects calls with the wrong argument count — a corrupted replacement
/// must fail its validation run, not index out of bounds and abort.
fn arity(name: &str, args: &[Value], n: usize) -> Result<(), String> {
    if args.len() == n {
        Ok(())
    } else {
        Err(format!("{name} expects {n} arguments, got {}", args.len()))
    }
}

/// Parsed `gemm_f64` arguments (see [`register_all`] for the contract).
pub(crate) struct GemmArgs {
    pub a: u64,
    pub b: u64,
    pub c: u64,
    pub m: i64,
    pub n: i64,
    pub k: i64,
    pub sa: i64,
    pub sb: i64,
    pub sc: i64,
    pub ar: i64,
    pub br: i64,
    pub cr: i64,
    pub beta: f64,
}

pub(crate) fn parse_gemm(args: &[Value]) -> Result<GemmArgs, String> {
    arity("gemm_f64", args, 13)?;
    Ok(GemmArgs {
        a: args[0].try_p()?,
        b: args[1].try_p()?,
        c: args[2].try_p()?,
        m: args[3].try_i()?,
        n: args[4].try_i()?,
        k: args[5].try_i()?,
        sa: args[6].try_i()?,
        sb: args[7].try_i()?,
        sc: args[8].try_i()?,
        ar: args[9].try_i()?,
        br: args[10].try_i()?,
        cr: args[11].try_i()?,
        beta: args[12].try_f()?,
    })
}

/// Element address under the solution's orientation facts:
/// `idx = row*stride + col` when row-scaled, else `col*stride + row` —
/// computed with checked signed arithmetic so negative strides fail
/// descriptively.
pub(crate) fn gemm_addr(
    base: u64,
    col: i64,
    row: i64,
    stride: i64,
    row_scaled: i64,
) -> Result<u64, String> {
    let idx = if row_scaled != 0 {
        row.checked_mul(stride).and_then(|t| t.checked_add(col))
    } else {
        col.checked_mul(stride).and_then(|t| t.checked_add(row))
    }
    .ok_or_else(|| format!("index overflow: stride {stride} at ({col}, {row})"))?;
    elem_addr(base, idx, 8)
}

/// The dot product for output element `(i0, i1)` — the full serial
/// accumulation chain, shared verbatim by the serial host and every
/// parallel worker (bitwise determinism).
pub(crate) fn gemm_acc<L: KernelLoads>(
    g: &GemmArgs,
    src: &L,
    i0: i64,
    i1: i64,
) -> Result<f64, String> {
    let mut acc = 0.0;
    for kk in 0..g.k {
        let av = src.ld_f64(gemm_addr(g.a, i0, kk, g.sa, g.ar)?)?;
        let bv = src.ld_f64(gemm_addr(g.b, i1, kk, g.sb, g.br)?)?;
        acc += av * bv;
    }
    Ok(acc)
}

/// The `beta * C` term. Only `+0.0` short-circuits (the BLAS "don't use
/// C" contract); `-0.0` differs bitwise and takes the multiply path, so
/// a NaN or infinity in `C` propagates per IEEE semantics instead of
/// silently reading as zero. The caller has always loaded `cur` — the
/// `C` address is bounds-probed on every path, including `beta == 0`.
pub(crate) fn beta_old(cur: f64, beta: f64) -> f64 {
    if beta.to_bits() == 0.0f64.to_bits() {
        0.0
    } else {
        cur * beta
    }
}

/// The sequential `gemm_f64` executor (also the parallel backend's
/// oracle; see [`crate::exec`]).
pub fn gemm_serial(mem: &mut Memory, args: &[Value]) -> Result<Value, String> {
    let g = parse_gemm(args)?;
    for i0 in 0..g.m {
        for i1 in 0..g.n {
            let acc = gemm_acc(&g, mem, i0, i1)?;
            let ca = gemm_addr(g.c, i0, i1, g.sc, g.cr)?;
            let cur = mem.load_f64(ca)?;
            mem.store_f64(ca, acc + beta_old(cur, g.beta))?;
        }
    }
    Ok(Value::I(0))
}

/// Parsed `csrmv_f64` arguments.
pub(crate) struct CsrArgs {
    pub vals: u64,
    pub rowptr: u64,
    pub colidx: u64,
    pub x: u64,
    pub y: u64,
    pub m: i64,
    pub rw: i64,
    pub cw: i64,
}

pub(crate) fn parse_csrmv(args: &[Value]) -> Result<CsrArgs, String> {
    arity("csrmv_f64", args, 8)?;
    Ok(CsrArgs {
        vals: args[0].try_p()?,
        rowptr: args[1].try_p()?,
        colidx: args[2].try_p()?,
        x: args[3].try_p()?,
        y: args[4].try_p()?,
        m: args[5].try_i()?,
        rw: args[6].try_i()?,
        cw: args[7].try_i()?,
    })
}

/// One row's sparse dot product, in `rowptr` order — shared by the
/// serial host and every parallel worker.
pub(crate) fn csrmv_row<L: KernelLoads>(s: &CsrArgs, src: &L, j: i64) -> Result<f64, String> {
    let lo = load_idx(src, s.rowptr, j, s.rw)?;
    let hi = load_idx(src, s.rowptr, j + 1, s.rw)?;
    let mut d = 0.0;
    for kk in lo..hi {
        let col = load_idx(src, s.colidx, kk, s.cw)?;
        d += src.ld_f64(elem_addr(s.vals, kk, 8)?)? * src.ld_f64(elem_addr(s.x, col, 8)?)?;
    }
    Ok(d)
}

/// The sequential `csrmv_f64` executor.
pub fn csrmv_serial(mem: &mut Memory, args: &[Value]) -> Result<Value, String> {
    let s = parse_csrmv(args)?;
    for j in 0..s.m {
        let d = csrmv_row(&s, mem, j)?;
        mem.store_f64(elem_addr(s.y, j, 8)?, d)?;
    }
    Ok(Value::I(0))
}

/// Registers `gemm_f64` and `csrmv_f64` with the machine.
///
/// `gemm_f64(a, b, c, m, n, k, sa, sb, sc, a_row_scaled, b_row_scaled,
/// c_row_scaled, beta)` computes
/// `C[addr(i0,i1)] = beta*C[...] + Σ_k A[addr(i0,k)] * B[addr(i1,k)]`
/// where `addr(col,row) = row*stride+col` when row-scaled, else
/// `col*stride+row` — mirroring the orientation facts the constraint
/// solution provides (paper Figure 6 inserts solution variables into the
/// call template the same way).
///
/// `csrmv_f64(vals, rowptr, colidx, x, y, m, rowptr_width, colidx_width)`
/// is the cuSPARSE `csrmv` equivalent of the paper's Figure 6.
///
/// Generic over [`HostRegistry`] so the same registration serves the
/// bytecode `Vm` and the reference `Machine` the tests hold it to.
pub fn register_all<'m>(vm: &mut impl HostRegistry<'m>) {
    vm.register_host("gemm_f64", Arc::new(gemm_serial));
    vm.register_host("csrmv_f64", Arc::new(csrmv_serial));
}

#[cfg(test)]
mod tests {
    use super::*;
    use interp::Machine;

    #[test]
    fn gemm_host_matches_naive_oracle() {
        let (mm, nn, kk) = (3usize, 4usize, 5usize);
        let a: Vec<f64> = (0..mm * kk).map(|i| i as f64 * 0.5).collect();
        let b: Vec<f64> = (0..nn * kk).map(|i| 1.0 - i as f64 * 0.25).collect();
        // Layout facts passed to the entry point: all three matrices use
        // idx = col*stride + row (row_scaled = 0), A/B stride k, C stride n.
        // Oracle comparison through the public interpreter path:
        let text = r#"
define void @run(double* %a, double* %b, double* %c, i64 %m, i64 %n, i64 %k) {
entry:
  call void @gemm_f64(double* %a, double* %b, double* %c, i64 %m, i64 %n, i64 %k, i64 %k, i64 %k, i64 %n, i64 0, i64 0, i64 0, double 0.0)
  ret void
}
"#;
        let m2 = ssair::parser::parse_module(text).unwrap();
        let mut vm3 = Machine::new(&m2);
        register_all(&mut vm3);
        let ap = vm3.mem.alloc_f64_slice(&a);
        let bp = vm3.mem.alloc_f64_slice(&b);
        let cp = vm3.mem.alloc_f64_slice(&vec![0.0; mm * nn]);
        vm3.run(
            "run",
            &[
                Value::P(ap),
                Value::P(bp),
                Value::P(cp),
                Value::I(mm as i64),
                Value::I(nn as i64),
                Value::I(kk as i64),
            ],
        )
        .unwrap();
        let got = vm3.mem.read_f64_slice(cp, mm * nn);
        for i0 in 0..mm {
            for i1 in 0..nn {
                let mut acc = 0.0;
                for x in 0..kk {
                    acc += a[i0 * kk + x] * b[i1 * kk + x];
                }
                assert!((got[i0 * nn + i1] - acc).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn csrmv_host_matches_naive_oracle() {
        let text = r#"
define void @run(double* %v, i32* %r, i32* %c, double* %x, double* %y, i64 %m) {
entry:
  call void @csrmv_f64(double* %v, i32* %r, i32* %c, double* %x, double* %y, i64 %m, i64 4, i64 4)
  ret void
}
"#;
        let m = ssair::parser::parse_module(text).unwrap();
        let mut vm = Machine::new(&m);
        register_all(&mut vm);
        let rowstr = [0, 2, 3, 5];
        let colidx = [0, 2, 1, 0, 2];
        let vals = [1.0, 2.0, 3.0, 4.0, 5.0];
        let x = [0.5, -1.0, 2.0];
        let vp = vm.mem.alloc_f64_slice(&vals);
        let rp = vm.mem.alloc_i32_slice(&rowstr);
        let cp = vm.mem.alloc_i32_slice(&colidx);
        let xp = vm.mem.alloc_f64_slice(&x);
        let yp = vm.mem.alloc_f64_slice(&[0.0; 3]);
        vm.run(
            "run",
            &[
                Value::P(vp),
                Value::P(rp),
                Value::P(cp),
                Value::P(xp),
                Value::P(yp),
                Value::I(3),
            ],
        )
        .unwrap();
        let y = vm.mem.read_f64_slice(yp, 3);
        assert_eq!(y, vec![1.0 * 0.5 + 2.0 * 2.0, -3.0, 4.0 * 0.5 + 5.0 * 2.0]);
    }

    fn csrmv_args(m: &mut Memory, rowptr: &[i32], colidx: &[i32], vals: &[f64]) -> Vec<Value> {
        let vp = m.alloc_f64_slice(vals);
        let rp = m.alloc_i32_slice(rowptr);
        let cp = m.alloc_i32_slice(colidx);
        let xp = m.alloc_f64_slice(&[1.0, 1.0, 1.0]);
        let yp = m.alloc_f64_slice(&[0.0; 3]);
        vec![
            Value::P(vp),
            Value::P(rp),
            Value::P(cp),
            Value::P(xp),
            Value::P(yp),
            Value::I(rowptr.len() as i64 - 1),
            Value::I(4),
            Value::I(4),
        ]
    }

    #[test]
    fn csrmv_rejects_negative_rowptr_entries() {
        // A corrupted rowptr with a negative entry used to wrap
        // `base + 4 * k as u64` to the top of the address space.
        let mut mem = Memory::new();
        let args = csrmv_args(&mut mem, &[0, -2, 3, 5], &[0, 2, 1, 0, 2], &[1.0; 5]);
        let err = csrmv_serial(&mut mem, &args).unwrap_err();
        assert!(err.contains("negative element index"), "{err}");
    }

    #[test]
    fn csrmv_rejects_negative_colidx_entries() {
        let mut mem = Memory::new();
        let args = csrmv_args(&mut mem, &[0, 2, 3, 5], &[0, -1, 1, 0, 2], &[1.0; 5]);
        let err = csrmv_serial(&mut mem, &args).unwrap_err();
        assert!(err.contains("negative element index"), "{err}");
    }

    fn gemm_args(mem: &mut Memory, sc: i64, beta: f64, c_init: &[f64]) -> Vec<Value> {
        let ap = mem.alloc_f64_slice(&[1.0, 2.0]);
        let bp = mem.alloc_f64_slice(&[3.0, 4.0]);
        let cp = mem.alloc_f64_slice(c_init);
        vec![
            Value::P(ap),
            Value::P(bp),
            Value::P(cp),
            Value::I(1),
            Value::I(1),
            Value::I(2),
            Value::I(2),
            Value::I(2),
            Value::I(sc),
            Value::I(0),
            Value::I(0),
            Value::I(0),
            Value::F(beta),
        ]
    }

    #[test]
    fn gemm_rejects_negative_strides() {
        // A hostile stride fact from a bad replacement: idx goes negative
        // for i0 > 0, which used to wrap instead of erroring. With m=n=1
        // the C index is 0*sc+0, so poison A's stride instead.
        let mut mem = Memory::new();
        let mut args = gemm_args(&mut mem, 1, 0.0, &[0.0]);
        args[6] = Value::I(-3); // sa: a index = i0 * -3 + kk → kk=1 gives... still >= 0 for i0=0
        args[3] = Value::I(2); // m=2 so i0=1 drives idx negative: 1*-3+0 = -3... col*stride+row = i0*sa+kk
        let err = gemm_serial(&mut mem, &args).unwrap_err();
        assert!(err.contains("negative element index"), "{err}");
    }

    #[test]
    fn gemm_beta_negative_zero_reads_c() {
        // beta == -0.0 compares equal to 0.0 but differs bitwise; the old
        // `beta != 0.0` guard skipped the C load, silently reading-as-zero
        // and swallowing a NaN/inf already in C. IEEE: inf * -0.0 = NaN.
        let mut mem = Memory::new();
        let args = gemm_args(&mut mem, 1, -0.0, &[f64::INFINITY]);
        let cp = args[2].try_p().unwrap();
        gemm_serial(&mut mem, &args).unwrap();
        assert!(mem.load_f64(cp).unwrap().is_nan());
        // +0.0 keeps the BLAS contract: C's value is not used.
        let mut mem2 = Memory::new();
        let args2 = gemm_args(&mut mem2, 1, 0.0, &[f64::INFINITY]);
        let cp2 = args2[2].try_p().unwrap();
        gemm_serial(&mut mem2, &args2).unwrap();
        assert_eq!(mem2.load_f64(cp2).unwrap(), 11.0);
    }

    #[test]
    fn gemm_probes_c_even_when_beta_is_zero() {
        // An out-of-bounds C pointer must fail on the beta == 0 path too.
        let mut mem = Memory::new();
        let mut args = gemm_args(&mut mem, 1, 0.0, &[0.0]);
        args[2] = Value::P(1 << 40);
        assert!(gemm_serial(&mut mem, &args).is_err());
    }
}
