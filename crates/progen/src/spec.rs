//! The generated-program model: a [`Spec`] is a deterministic, shrinkable
//! description of one mini-C program — a list of functions, each either a
//! **planted** idiom instance (detection and replacement expected, by
//! construction), a **near-miss** mutant (the tempting idiom kind is
//! forbidden), or **filler** — plus a fixed entry point that calls them
//! all. Rendering goes through the `minicc` AST builders and
//! pretty-printer, so every spec *is* a plain `.c` file (the corpus
//! format) and compiles through the exact frontend under test.
//!
//! The input shape is fixed across all specs (same arrays, same sizes,
//! same seeding discipline as `benchsuite`), which keeps [`setup`] a
//! single function and makes every generated program directly
//! comparable under the multi-seed differential validator.

use idioms::IdiomKind;
use interp::{Memory, Value};
use minicc::ast::{BinOp, CmpOp, Expr, FuncDef, LValue, Program, Stmt};
use ssair::Type;

/// Length of the 1-D `double`/`int` data arrays (`n`).
pub const LEN: usize = 64;
/// Edge of the 2-D grid arrays (`g`), `g*g` elements.
pub const GRID: usize = 8;
/// Edge of the dense matrices (`dim`), `dim*dim` elements.
pub const DIM: usize = 6;
/// Rows of the CSR matrix and length of its dense vectors (`rows`).
pub const ROWS: usize = 24;
/// Histogram bin count (`nb`).
pub const BINS: usize = 32;
/// Approximate CSR entries per row (structure is seed-independent).
const CSR_PER_ROW: usize = 3;

/// The fixed array pool every generated program draws from, in entry
/// parameter order. Inputs are seeded per input seed; outputs start
/// zeroed — exactly the discipline of `benchsuite` setups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ArrayId {
    /// Seeded `double[LEN]` inputs.
    D0,
    /// Seeded `double[LEN]` inputs.
    D1,
    /// Seeded `double[LEN]` inputs.
    D2,
    /// Seeded `double[LEN]` inputs.
    D3,
    /// Zeroed `double[LEN]` outputs (stencil destinations, scratch).
    O0,
    /// Zeroed `double[LEN]` outputs.
    O1,
    /// Seeded `double[GRID*GRID]` input grid.
    G0,
    /// Zeroed `double[GRID*GRID]` output grid.
    GOut,
    /// Seeded `double[DIM*DIM]` matrix.
    M0,
    /// Seeded `double[DIM*DIM]` matrix.
    M1,
    /// Zeroed `double[DIM*DIM]` output matrix.
    MOut,
    /// Seeded `int[LEN]` keys in `[0, BINS)`.
    K0,
    /// Zeroed `int[BINS]` bins.
    BinsI,
    /// Zeroed `double[BINS]` bins.
    BinsF,
    /// Seeded `double[nnz]` CSR values.
    CsrV,
    /// CSR row pointers, `int[ROWS+1]`.
    CsrR,
    /// CSR column indices, `int[nnz]`, all `< ROWS`.
    CsrC,
    /// Seeded `double[ROWS]` dense vector.
    X0,
    /// Zeroed `double[ROWS]` SPMV output.
    Y0,
}

impl ArrayId {
    /// All arrays in entry parameter order.
    pub const ALL: [ArrayId; 19] = [
        ArrayId::D0,
        ArrayId::D1,
        ArrayId::D2,
        ArrayId::D3,
        ArrayId::O0,
        ArrayId::O1,
        ArrayId::G0,
        ArrayId::GOut,
        ArrayId::M0,
        ArrayId::M1,
        ArrayId::MOut,
        ArrayId::K0,
        ArrayId::BinsI,
        ArrayId::BinsF,
        ArrayId::CsrV,
        ArrayId::CsrR,
        ArrayId::CsrC,
        ArrayId::X0,
        ArrayId::Y0,
    ];

    /// The C parameter name.
    #[must_use]
    pub fn cname(self) -> &'static str {
        match self {
            ArrayId::D0 => "d0",
            ArrayId::D1 => "d1",
            ArrayId::D2 => "d2",
            ArrayId::D3 => "d3",
            ArrayId::O0 => "o0",
            ArrayId::O1 => "o1",
            ArrayId::G0 => "g0",
            ArrayId::GOut => "go",
            ArrayId::M0 => "m0",
            ArrayId::M1 => "m1",
            ArrayId::MOut => "mo",
            ArrayId::K0 => "k0",
            ArrayId::BinsI => "bi",
            ArrayId::BinsF => "bf",
            ArrayId::CsrV => "cv",
            ArrayId::CsrR => "cr",
            ArrayId::CsrC => "cc",
            ArrayId::X0 => "x0",
            ArrayId::Y0 => "y0",
        }
    }

    /// The pointer type of the parameter.
    #[must_use]
    pub fn ctype(self) -> Type {
        match self {
            ArrayId::K0 | ArrayId::BinsI | ArrayId::CsrR | ArrayId::CsrC => Type::I32.ptr_to(),
            _ => Type::F64.ptr_to(),
        }
    }
}

/// One formal parameter of a generated function: an array or one of the
/// fixed size scalars.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Param {
    /// An array from the fixed pool.
    Arr(ArrayId),
    /// `int n` = [`LEN`].
    N,
    /// `int g` = [`GRID`].
    G,
    /// `int dim` = [`DIM`].
    Dim,
    /// `int rows` = [`ROWS`].
    Rows,
    /// `int nb` = [`BINS`].
    Nb,
}

impl Param {
    fn cname(self) -> &'static str {
        match self {
            Param::Arr(a) => a.cname(),
            Param::N => "n",
            Param::G => "g",
            Param::Dim => "dim",
            Param::Rows => "rows",
            Param::Nb => "nb",
        }
    }

    fn ctype(self) -> Type {
        match self {
            Param::Arr(a) => a.ctype(),
            _ => Type::I32,
        }
    }
}

/// The reduction kernel planted into a [`PlantKind::Reduction`]. All
/// variants are shapes the replacement backend is known to offload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedKernel {
    /// `s += a[i] * b[i]` (dot product).
    SumMul,
    /// `s += a[i]`.
    Sum,
    /// `s += a[i] * a[i]` (norm).
    SumSq,
    /// `s += c * a[i]` for a small constant `c` (index into a fixed pool).
    SumScaled(u8),
    /// `s += a[i] - b[i]`.
    SumDiff,
    /// `s = s * a[i]` (product, init 1.0).
    Prod,
    /// `s += sqrt(fabs(a[i]))`.
    SumSqrtAbs,
    /// `s += cos(a[i] * b[i])`.
    SumCos,
    /// `d = a[i] - b[i]; s += d > 0 ? d : -d` (select kernel).
    TernaryAbs,
    /// `s = fmax(s, fabs(a[i]))`.
    MaxAbs,
    /// Integer sum over the key array: `s += k0[i]`.
    IntSum,
}

/// The coefficient pool `SumScaled`/stencil taps index into (keeps specs
/// `Copy`-friendly and the shrinker's "simplest coefficient" well-defined).
pub const COEFS: [f64; 9] = [0.05, 0.1, 0.2, 0.25, 0.4, 0.5, 0.9, 1.0, 2.0];

fn coef(ix: u8) -> f64 {
    COEFS[ix as usize % COEFS.len()]
}

/// Histogram template variants.
#[derive(Debug, Clone, PartialEq)]
pub enum HistoVariant {
    /// `bi[k0[i]] = bi[k0[i]] + 1`.
    CountInt,
    /// `bf[k0[i]] = bf[k0[i]] + w[i]`.
    WeightedF {
        /// The weight array (from the `double[LEN]` pool).
        w: ArrayId,
    },
    /// `b = (int)(fabs(src[i]) * c); bi[b] = bi[b] + 1`.
    ComputedBin {
        /// The value array the bin index is computed from.
        src: ArrayId,
        /// Scale constant (bins stay `< BINS` because `|src| < 0.5`).
        c: f64,
    },
    /// The EP shape: bin from `fmax(fabs(xa[i]), fabs(xb[i]))`.
    MaxOfTwo {
        /// First value array.
        xa: ArrayId,
        /// Second value array.
        xb: ArrayId,
        /// Scale constant.
        c: f64,
    },
}

/// A planted idiom: the function is constructed so that detection MUST
/// report exactly this kind here, and the replacement backend MUST
/// rewrite it.
#[derive(Debug, Clone, PartialEq)]
pub enum PlantKind {
    /// A scalar reduction loop.
    Reduction {
        /// The update kernel.
        kernel: RedKernel,
        /// Primary read array.
        a: ArrayId,
        /// Secondary read array (unused by single-array kernels).
        b: ArrayId,
        /// Loop lower bound (literal).
        lo: u8,
        /// Loop upper bound is `n - hi`.
        hi: u8,
        /// Whether the loop sits inside a small repetition loop.
        wrapped: bool,
    },
    /// A histogram loop.
    Histogram(HistoVariant),
    /// A 1-D stencil `dst[i] = f(src[i+off]...)`.
    Stencil1D {
        /// Read array.
        src: ArrayId,
        /// Written array (disjoint from `src` by construction).
        dst: ArrayId,
        /// `(offset, coefficient-pool index)` taps, offsets unique.
        taps: Vec<(i64, u8)>,
        /// `Some(c)`: `dst[i] = c * (sum of raw taps)` instead of
        /// per-tap coefficients.
        scale: Option<u8>,
    },
    /// A 2-D stencil on the grid arrays.
    Stencil2D {
        /// `(row offset, col offset, coefficient-pool index)` taps.
        taps: Vec<(i64, i64, u8)>,
        /// Optional factored scale, as in `Stencil1D`.
        scale: Option<u8>,
    },
    /// Dense matrix multiplication `mo = m0 × m1`.
    Gemm {
        /// `true` for the Figure-8 second form (`mo[..] = 0; mo[..] +=`),
        /// `false` for the stored-accumulator first form.
        epilogue: bool,
    },
    /// CSR sparse matrix-vector multiplication `y0 = csr × x0`.
    Spmv,
}

impl PlantKind {
    /// The idiom class this plant must be detected as.
    #[must_use]
    pub fn kind(&self) -> IdiomKind {
        match self {
            PlantKind::Reduction { .. } => IdiomKind::Reduction,
            PlantKind::Histogram(_) => IdiomKind::Histogram,
            PlantKind::Stencil1D { .. } => IdiomKind::Stencil1D,
            PlantKind::Stencil2D { .. } => IdiomKind::Stencil2D,
            PlantKind::Gemm { .. } => IdiomKind::Gemm,
            PlantKind::Spmv => IdiomKind::Spmv,
        }
    }
}

/// An adversarial almost-idiom: one semantic detail disqualifies it, and
/// the detector reporting [`NearMissKind::forbidden`] for its function is
/// a false positive.
#[derive(Debug, Clone, PartialEq)]
pub enum NearMissKind {
    /// A reduction guarded by data-dependent control flow: summing only
    /// where `g[i] > 0` is not a plain reduction over the range.
    GuardedReduction {
        /// Summed array.
        a: ArrayId,
        /// Guard array (may equal `a`).
        g: ArrayId,
    },
    /// A downward-counting reduction loop (`i--`): outside the canonical
    /// rotated-loop shape the `For` building block pins down.
    DownwardReduction {
        /// Summed array.
        a: ArrayId,
    },
    /// `bi[i] = bi[i] + 1`: the "bin index" is the loop iterator — a
    /// parallel vector update, not a histogram.
    IteratorHistogram,
    /// `arr[i] = c*arr[i-1] + c*arr[i+1]`: reads the written array, so
    /// the kernel-purity constraint must reject it (it is a loop-carried
    /// sweep, not a stencil).
    InPlaceStencil {
        /// The array swept in place.
        arr: ArrayId,
    },
}

impl NearMissKind {
    /// The idiom kind that must NOT be reported for this function.
    #[must_use]
    pub fn forbidden(&self) -> IdiomKind {
        match self {
            NearMissKind::GuardedReduction { .. } | NearMissKind::DownwardReduction { .. } => {
                IdiomKind::Reduction
            }
            NearMissKind::IteratorHistogram => IdiomKind::Histogram,
            NearMissKind::InPlaceStencil { .. } => IdiomKind::Stencil1D,
        }
    }
}

/// A soundness adversary: a function whose loop *looks* offloadable but
/// must never end up replaced **and** certified independent-iterations —
/// each variant defeats one leg of the dependence analysis (call-site
/// aliasing, affine subscript recovery, cross-iteration disjointness).
/// Unlike a [`NearMissKind`], being *detected* is acceptable (the aliased
/// stencil is a textbook stencil inside its own function); what the
/// oracle checks is that the legality/certificate layer refuses the
/// parallel path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryKind {
    /// A clean out-of-place 1-D stencil `pb[i] = .5*pa[i-1] + .5*pa[i+1]`
    /// whose *call site* passes the same array for both parameters: the
    /// per-function view is replaceable, the whole-module view is an
    /// in-place loop-carried sweep.
    AliasedParams,
    /// `pb[i*i] = .5*pa[i]`: the written subscript is quadratic in the
    /// iterator, outside the affine model — no disjointness argument may
    /// be constructed for it.
    NonAffine,
    /// A triangular wavefront on one matrix: row `i` is computed from row
    /// `i-1` (written by the previous outer iteration) through the same
    /// object, so outer iterations are genuinely ordered.
    TriangularSweep,
}

/// Non-idiomatic surrounding code: shapes taken from the suite's
/// uncovered benchmarks (recurrences, guarded in-place updates, scalar
/// arithmetic) that the detector is known to ignore.
#[derive(Debug, Clone, PartialEq)]
pub enum FillerStmt {
    /// `for i: arr[i] = arr[i]*ca + arr[i-1]*cb` (loop-carried sweep).
    Recurrence {
        /// The swept `double[LEN]` array.
        arr: ArrayId,
        /// Self coefficient (pool index).
        ca: u8,
        /// Neighbour coefficient (pool index).
        cb: u8,
    },
    /// `for i: if (src[i] > 0) dst[i] = src[i]*c + dst[i]*c2` (guarded
    /// in-place update, the cutcp lattice shape).
    GuardedScale {
        /// Guard/read array.
        src: ArrayId,
        /// Updated array.
        dst: ArrayId,
    },
    /// Straight-line scalar arithmetic reading one fixed element.
    ScalarNoise {
        /// Read array.
        src: ArrayId,
        /// Coefficient pool index.
        c: u8,
    },
}

/// What one generated function is for.
#[derive(Debug, Clone, PartialEq)]
pub enum Role {
    /// A planted idiom (must be detected and replaced).
    Plant(PlantKind),
    /// A near-miss mutant (its tempting kind must not be detected).
    NearMiss(NearMissKind),
    /// A dependence-analysis adversary (must never be replaced with an
    /// independent-iterations certificate).
    Adversary(AdversaryKind),
    /// Pure filler.
    Filler,
}

/// One generated function.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncSpec {
    /// Function name (`f0`, `f1`, ... in program order).
    pub name: String,
    /// What the function is.
    pub role: Role,
    /// Filler statements before the role's loop.
    pub pre: Vec<FillerStmt>,
    /// Filler statements after the role's loop.
    pub post: Vec<FillerStmt>,
}

/// A whole generated program.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// The generator seed the spec was derived from (0 for hand-built).
    pub seed: u64,
    /// The functions, in program order. The fixed entry point
    /// [`Spec::ENTRY`] is appended at render time.
    pub funcs: Vec<FuncSpec>,
}

impl Spec {
    /// Name of the generated entry function.
    pub const ENTRY: &'static str = "fz_entry";

    /// The module name used for compilation.
    #[must_use]
    pub fn module_name(&self) -> String {
        format!("progen_{}", self.seed)
    }

    /// The planted expectations: `(function, kind)` pairs that must be
    /// detected AND replaced.
    #[must_use]
    pub fn expected(&self) -> Vec<(String, IdiomKind)> {
        self.funcs
            .iter()
            .filter_map(|f| match &f.role {
                Role::Plant(p) => Some((f.name.clone(), p.kind())),
                _ => None,
            })
            .collect()
    }

    /// The near-miss prohibitions: `(function, kind)` pairs that must NOT
    /// be detected.
    #[must_use]
    pub fn forbidden(&self) -> Vec<(String, IdiomKind)> {
        self.funcs
            .iter()
            .filter_map(|f| match &f.role {
                Role::NearMiss(nm) => Some((f.name.clone(), nm.forbidden())),
                _ => None,
            })
            .collect()
    }

    /// The adversary functions: any of these being replaced *and*
    /// certified independent-iterations is a dependence-analysis
    /// soundness failure.
    #[must_use]
    pub fn adversaries(&self) -> Vec<String> {
        self.funcs
            .iter()
            .filter_map(|f| match &f.role {
                Role::Adversary(_) => Some(f.name.clone()),
                _ => None,
            })
            .collect()
    }

    /// Renders the program as a `minicc` AST.
    #[must_use]
    pub fn ast(&self) -> Program {
        let mut funcs: Vec<FuncDef> = self.funcs.iter().map(render_func).collect();
        funcs.push(render_entry(&self.funcs));
        Program { funcs }
    }

    /// Renders the program as C source (the corpus / compile format).
    #[must_use]
    pub fn render(&self) -> String {
        minicc::pretty::print_program(&self.ast())
    }
}

/// Allocates the fixed input shape for one input seed and returns the
/// entry arguments. Identical across all specs: the entry signature is
/// the full array pool plus the size scalars, in [`ArrayId::ALL`] order.
/// Seed 0 is the canonical workload; other seeds vary the data, never
/// the shape — the same contract as [`benchsuite::Benchmark::setup`].
#[must_use]
pub fn setup(mem: &mut Memory, seed: u64) -> Vec<Value> {
    use benchsuite::{csr, fill_f64, fill_i32_mod, mix, zeros_f64, zeros_i32};
    let mut args: Vec<Value> = Vec::new();
    for a in ArrayId::ALL {
        let base = match a {
            ArrayId::D0 => fill_f64(mem, LEN, mix(seed, 101)),
            ArrayId::D1 => fill_f64(mem, LEN, mix(seed, 102)),
            ArrayId::D2 => fill_f64(mem, LEN, mix(seed, 103)),
            ArrayId::D3 => fill_f64(mem, LEN, mix(seed, 104)),
            ArrayId::O0 | ArrayId::O1 => zeros_f64(mem, LEN),
            ArrayId::G0 => fill_f64(mem, GRID * GRID, mix(seed, 105)),
            ArrayId::GOut => zeros_f64(mem, GRID * GRID),
            ArrayId::M0 => fill_f64(mem, DIM * DIM, mix(seed, 106)),
            ArrayId::M1 => fill_f64(mem, DIM * DIM, mix(seed, 107)),
            ArrayId::MOut => zeros_f64(mem, DIM * DIM),
            ArrayId::K0 => fill_i32_mod(mem, LEN, BINS as i32, mix(seed, 108)),
            ArrayId::BinsI => zeros_i32(mem, BINS),
            ArrayId::BinsF => zeros_f64(mem, BINS),
            ArrayId::CsrV => {
                // csr() allocates values, rowstr, colidx back-to-back in
                // exactly the CsrV, CsrR, CsrC parameter order.
                let (v, r, c) = csr(mem, ROWS, CSR_PER_ROW, seed);
                args.push(Value::P(v));
                args.push(Value::P(r));
                args.push(Value::P(c));
                continue;
            }
            ArrayId::CsrR | ArrayId::CsrC => continue, // handled above
            ArrayId::X0 => fill_f64(mem, ROWS, mix(seed, 109)),
            ArrayId::Y0 => zeros_f64(mem, ROWS),
        };
        args.push(Value::P(base));
    }
    for scalar in [LEN, GRID, DIM, ROWS, BINS] {
        args.push(Value::I(scalar as i64));
    }
    args
}

// ---------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------

/// Per-function fresh-name source (minicc rejects shadowing, so every
/// local gets a unique suffix).
#[derive(Default)]
struct Names {
    iters: usize,
    vars: usize,
}

impl Names {
    fn iter(&mut self) -> String {
        self.iters += 1;
        format!("i{}", self.iters - 1)
    }
    fn var(&mut self) -> String {
        self.vars += 1;
        format!("v{}", self.vars - 1)
    }
}

fn v(name: &str) -> Expr {
    Expr::var(name)
}

fn at(arr: ArrayId, idx: Expr) -> Expr {
    Expr::idx(arr.cname(), idx)
}

fn store(arr: ArrayId, idx: Expr) -> LValue {
    LValue::Index {
        base: arr.cname().into(),
        indices: vec![idx],
    }
}

/// `iter + off` / `iter - off` / `iter`.
fn off_expr(iter: &str, off: i64) -> Expr {
    match off.cmp(&0) {
        std::cmp::Ordering::Equal => v(iter),
        std::cmp::Ordering::Greater => Expr::add(v(iter), Expr::int(off)),
        std::cmp::Ordering::Less => Expr::sub(v(iter), Expr::int(-off)),
    }
}

/// The `n - hi` upper bound (printed as plain `n` when `hi` is 0).
fn upper(bound: &str, hi: u8) -> Expr {
    if hi == 0 {
        v(bound)
    } else {
        Expr::sub(v(bound), Expr::int(i64::from(hi)))
    }
}

fn render_filler(f: &FillerStmt, names: &mut Names, acc: Option<&str>) -> Vec<Stmt> {
    match f {
        FillerStmt::Recurrence { arr, ca, cb } => {
            let i = names.iter();
            vec![Stmt::count_for(
                i.clone(),
                Expr::int(1),
                v("n"),
                vec![Stmt::assign(
                    store(*arr, v(&i)),
                    Expr::add(
                        Expr::mul(at(*arr, v(&i)), Expr::f64(coef(*ca))),
                        Expr::mul(at(*arr, off_expr(&i, -1)), Expr::f64(coef(*cb))),
                    ),
                )],
            )]
        }
        FillerStmt::GuardedScale { src, dst } => {
            let i = names.iter();
            vec![Stmt::count_for(
                i.clone(),
                Expr::int(0),
                v("n"),
                vec![Stmt::If {
                    cond: Expr::cmp(CmpOp::Gt, at(*src, v(&i)), Expr::f64(0.0)),
                    then: vec![Stmt::assign(
                        store(*dst, v(&i)),
                        Expr::add(
                            Expr::mul(at(*src, v(&i)), Expr::f64(0.01)),
                            Expr::mul(at(*dst, v(&i)), Expr::f64(0.5)),
                        ),
                    )],
                    other: vec![],
                }],
            )]
        }
        FillerStmt::ScalarNoise { src, c } => {
            let t = names.var();
            let mut out = vec![Stmt::decl(
                t.clone(),
                Type::F64,
                Expr::mul(at(*src, Expr::int(3)), Expr::f64(coef(*c))),
            )];
            if let Some(acc) = acc {
                out.push(Stmt::assign(
                    LValue::Var(acc.into()),
                    Expr::add(v(acc), v(&t)),
                ));
            }
            out
        }
    }
}

fn reduction_body(
    kernel: RedKernel,
    a: ArrayId,
    b: ArrayId,
    i: &str,
    names: &mut Names,
) -> Vec<Stmt> {
    let s = LValue::Var("s".into());
    let x = at(a, v(i));
    let y = at(b, v(i));
    match kernel {
        RedKernel::SumMul => vec![Stmt::assign_op(s, BinOp::Add, Expr::mul(x, y))],
        RedKernel::Sum => vec![Stmt::assign_op(s, BinOp::Add, x)],
        RedKernel::SumSq => vec![Stmt::assign_op(s, BinOp::Add, Expr::mul(x.clone(), x))],
        RedKernel::SumScaled(c) => vec![Stmt::assign_op(
            s,
            BinOp::Add,
            Expr::mul(Expr::f64(coef(c)), x),
        )],
        RedKernel::SumDiff => vec![Stmt::assign_op(s, BinOp::Add, Expr::sub(x, y))],
        RedKernel::Prod => vec![Stmt::assign(s, Expr::mul(v("s"), x))],
        RedKernel::SumSqrtAbs => vec![Stmt::assign_op(
            s,
            BinOp::Add,
            Expr::call("sqrt", vec![Expr::call("fabs", vec![x])]),
        )],
        RedKernel::SumCos => vec![Stmt::assign_op(
            s,
            BinOp::Add,
            Expr::call("cos", vec![Expr::mul(x, y)]),
        )],
        RedKernel::TernaryAbs => {
            let d = names.var();
            vec![
                Stmt::decl(d.clone(), Type::F64, Expr::sub(x, y)),
                Stmt::assign_op(
                    s,
                    BinOp::Add,
                    Expr::ternary(
                        Expr::cmp(CmpOp::Gt, v(&d), Expr::f64(0.0)),
                        v(&d),
                        Expr::Neg(Box::new(v(&d))),
                    ),
                ),
            ]
        }
        RedKernel::MaxAbs => vec![Stmt::assign(
            s,
            Expr::call("fmax", vec![v("s"), Expr::call("fabs", vec![x])]),
        )],
        RedKernel::IntSum => vec![Stmt::assign_op(s, BinOp::Add, at(ArrayId::K0, v(i)))],
    }
}

fn histogram_body(variant: &HistoVariant, i: &str, names: &mut Names) -> Vec<Stmt> {
    match variant {
        HistoVariant::CountInt => {
            let bin = at(ArrayId::K0, v(i));
            vec![Stmt::assign(
                store(ArrayId::BinsI, bin.clone()),
                Expr::add(at(ArrayId::BinsI, bin), Expr::int(1)),
            )]
        }
        HistoVariant::WeightedF { w } => {
            let bin = at(ArrayId::K0, v(i));
            vec![Stmt::assign(
                store(ArrayId::BinsF, bin.clone()),
                Expr::add(at(ArrayId::BinsF, bin), at(*w, v(i))),
            )]
        }
        HistoVariant::ComputedBin { src, c } => {
            let b = names.var();
            vec![
                Stmt::decl(
                    b.clone(),
                    Type::I32,
                    Expr::cast(
                        Type::I32,
                        Expr::mul(Expr::call("fabs", vec![at(*src, v(i))]), Expr::f64(*c)),
                    ),
                ),
                Stmt::assign(
                    store(ArrayId::BinsI, v(&b)),
                    Expr::add(at(ArrayId::BinsI, v(&b)), Expr::int(1)),
                ),
            ]
        }
        HistoVariant::MaxOfTwo { xa, xb, c } => {
            let m = names.var();
            let b = names.var();
            vec![
                Stmt::decl(
                    m.clone(),
                    Type::F64,
                    Expr::call(
                        "fmax",
                        vec![
                            Expr::call("fabs", vec![at(*xa, v(i))]),
                            Expr::call("fabs", vec![at(*xb, v(i))]),
                        ],
                    ),
                ),
                Stmt::decl(
                    b.clone(),
                    Type::I32,
                    Expr::cast(Type::I32, Expr::mul(v(&m), Expr::f64(*c))),
                ),
                Stmt::assign(
                    store(ArrayId::BinsI, v(&b)),
                    Expr::add(at(ArrayId::BinsI, v(&b)), Expr::int(1)),
                ),
            ]
        }
    }
}

/// Sums `terms` into one expression tree (left-leaning).
fn sum(terms: Vec<Expr>) -> Expr {
    let mut it = terms.into_iter();
    let first = it.next().expect("at least one term");
    it.fold(first, Expr::add)
}

fn render_plant(p: &PlantKind, names: &mut Names, body: &mut Vec<Stmt>) -> Type {
    match p {
        PlantKind::Reduction {
            kernel,
            a,
            b,
            lo,
            hi,
            wrapped,
        } => {
            let (ty, init) = if *kernel == RedKernel::IntSum {
                (Type::I32, Expr::int(0))
            } else if *kernel == RedKernel::Prod {
                (Type::F64, Expr::f64(1.0))
            } else {
                (Type::F64, Expr::f64(0.0))
            };
            body.push(Stmt::decl("s", ty, init));
            let i = names.iter();
            let red = Stmt::count_for(
                i.clone(),
                Expr::int(i64::from(*lo)),
                upper("n", *hi),
                reduction_body(*kernel, *a, *b, &i, names),
            );
            if *wrapped {
                let r = names.iter();
                body.push(Stmt::count_for(r, Expr::int(0), Expr::int(2), vec![red]));
            } else {
                body.push(red);
            }
            ty
        }
        PlantKind::Histogram(variant) => {
            let i = names.iter();
            let inner = histogram_body(variant, &i, names);
            body.push(Stmt::count_for(i, Expr::int(0), v("n"), inner));
            Type::Void
        }
        PlantKind::Stencil1D {
            src,
            dst,
            taps,
            scale,
        } => {
            let radius = taps.iter().map(|&(o, _)| o.abs()).max().unwrap_or(0).max(1);
            let i = names.iter();
            let reads: Vec<Expr> = taps
                .iter()
                .map(|&(o, _)| at(*src, off_expr(&i, o)))
                .collect();
            let value = match scale {
                Some(c) => Expr::mul(Expr::f64(coef(*c)), sum(reads)),
                None => sum(taps
                    .iter()
                    .zip(reads)
                    .map(|(&(_, c), r)| Expr::mul(Expr::f64(coef(c)), r))
                    .collect()),
            };
            body.push(Stmt::count_for(
                i.clone(),
                Expr::int(radius),
                Expr::sub(v("n"), Expr::int(radius)),
                vec![Stmt::assign(store(*dst, v(&i)), value)],
            ));
            Type::Void
        }
        PlantKind::Stencil2D { taps, scale } => {
            let i = names.iter();
            let j = names.iter();
            let flat =
                |r: i64, c: i64| Expr::add(Expr::mul(off_expr(&i, r), v("g")), off_expr(&j, c));
            let reads: Vec<Expr> = taps
                .iter()
                .map(|&(r, c, _)| at(ArrayId::G0, flat(r, c)))
                .collect();
            let value = match scale {
                Some(c) => Expr::mul(Expr::f64(coef(*c)), sum(reads)),
                None => sum(taps
                    .iter()
                    .zip(reads)
                    .map(|(&(_, _, c), r)| Expr::mul(Expr::f64(coef(c)), r))
                    .collect()),
            };
            let writeback = Stmt::assign(store(ArrayId::GOut, flat(0, 0)), value);
            let inner = Stmt::count_for(
                j.clone(),
                Expr::int(1),
                Expr::sub(v("g"), Expr::int(1)),
                vec![writeback],
            );
            body.push(Stmt::count_for(
                i.clone(),
                Expr::int(1),
                Expr::sub(v("g"), Expr::int(1)),
                vec![inner],
            ));
            Type::Void
        }
        PlantKind::Gemm { epilogue } => {
            let i = names.iter();
            let j = names.iter();
            let k = names.iter();
            let rm = |arr: ArrayId, row: &str, col: &str| {
                at(arr, Expr::add(Expr::mul(v(row), v("dim")), v(col)))
            };
            let inner = if *epilogue {
                // mo[i*dim+j] = 0; for k: mo[i*dim+j] += m0[i*dim+k]*m1[k*dim+j]
                vec![
                    Stmt::assign(
                        store(ArrayId::MOut, Expr::add(Expr::mul(v(&i), v("dim")), v(&j))),
                        Expr::f64(0.0),
                    ),
                    Stmt::count_for(
                        k.clone(),
                        Expr::int(0),
                        v("dim"),
                        vec![Stmt::assign_op(
                            store(ArrayId::MOut, Expr::add(Expr::mul(v(&i), v("dim")), v(&j))),
                            BinOp::Add,
                            Expr::mul(rm(ArrayId::M0, &i, &k), rm(ArrayId::M1, &k, &j)),
                        )],
                    ),
                ]
            } else {
                // double s = 0; for k: s += m0[i + k*dim]*m1[j + k*dim];
                // mo[i + j*dim] = s  (the Parboil sgemm layout)
                let cm = |arr: ArrayId, row: &str, col: &str| {
                    at(arr, Expr::add(v(row), Expr::mul(v(col), v("dim"))))
                };
                vec![
                    Stmt::decl("s", Type::F64, Expr::f64(0.0)),
                    Stmt::count_for(
                        k.clone(),
                        Expr::int(0),
                        v("dim"),
                        vec![Stmt::assign_op(
                            LValue::Var("s".into()),
                            BinOp::Add,
                            Expr::mul(cm(ArrayId::M0, &i, &k), cm(ArrayId::M1, &j, &k)),
                        )],
                    ),
                    Stmt::assign(
                        store(ArrayId::MOut, Expr::add(v(&i), Expr::mul(v(&j), v("dim")))),
                        v("s"),
                    ),
                ]
            };
            let jloop = Stmt::count_for(j.clone(), Expr::int(0), v("dim"), inner);
            body.push(Stmt::count_for(
                i.clone(),
                Expr::int(0),
                v("dim"),
                vec![jloop],
            ));
            Type::Void
        }
        PlantKind::Spmv => {
            let i = names.iter();
            let k = names.iter();
            let inner = Stmt::For {
                init: Some(Box::new(Stmt::decl(
                    k.clone(),
                    Type::I32,
                    at(ArrayId::CsrR, v(&i)),
                ))),
                cond: Some(Expr::cmp(
                    CmpOp::Lt,
                    v(&k),
                    at(ArrayId::CsrR, off_expr(&i, 1)),
                )),
                step: Some(Box::new(Stmt::assign(
                    LValue::Var(k.clone()),
                    Expr::add(v(&k), Expr::int(1)),
                ))),
                body: vec![Stmt::assign(
                    LValue::Var("s".into()),
                    Expr::add(
                        v("s"),
                        Expr::mul(
                            at(ArrayId::CsrV, v(&k)),
                            at(ArrayId::X0, at(ArrayId::CsrC, v(&k))),
                        ),
                    ),
                )],
            };
            body.push(Stmt::count_for(
                i.clone(),
                Expr::int(0),
                v("rows"),
                vec![
                    Stmt::decl("s", Type::F64, Expr::f64(0.0)),
                    inner,
                    Stmt::assign(store(ArrayId::Y0, v(&i)), v("s")),
                ],
            ));
            Type::Void
        }
    }
}

fn render_near_miss(nm: &NearMissKind, names: &mut Names, body: &mut Vec<Stmt>) -> Type {
    match nm {
        NearMissKind::GuardedReduction { a, g } => {
            body.push(Stmt::decl("s", Type::F64, Expr::f64(0.0)));
            let i = names.iter();
            body.push(Stmt::count_for(
                i.clone(),
                Expr::int(0),
                v("n"),
                vec![Stmt::If {
                    cond: Expr::cmp(CmpOp::Gt, at(*g, v(&i)), Expr::f64(0.0)),
                    then: vec![Stmt::assign_op(
                        LValue::Var("s".into()),
                        BinOp::Add,
                        at(*a, v(&i)),
                    )],
                    other: vec![],
                }],
            ));
            Type::F64
        }
        NearMissKind::DownwardReduction { a } => {
            body.push(Stmt::decl("s", Type::F64, Expr::f64(0.0)));
            let i = names.iter();
            body.push(Stmt::For {
                init: Some(Box::new(Stmt::decl(
                    i.clone(),
                    Type::I32,
                    Expr::sub(v("n"), Expr::int(1)),
                ))),
                cond: Some(Expr::cmp(CmpOp::Ge, v(&i), Expr::int(0))),
                step: Some(Box::new(Stmt::assign(
                    LValue::Var(i.clone()),
                    Expr::sub(v(&i), Expr::int(1)),
                ))),
                body: vec![Stmt::assign_op(
                    LValue::Var("s".into()),
                    BinOp::Add,
                    at(*a, v(&i)),
                )],
            });
            Type::F64
        }
        NearMissKind::IteratorHistogram => {
            let i = names.iter();
            body.push(Stmt::count_for(
                i.clone(),
                Expr::int(0),
                v("nb"),
                vec![Stmt::assign(
                    store(ArrayId::BinsI, v(&i)),
                    Expr::add(at(ArrayId::BinsI, v(&i)), Expr::int(1)),
                )],
            ));
            Type::Void
        }
        NearMissKind::InPlaceStencil { arr } => {
            let i = names.iter();
            body.push(Stmt::count_for(
                i.clone(),
                Expr::int(1),
                Expr::sub(v("n"), Expr::int(1)),
                vec![Stmt::assign(
                    store(*arr, v(&i)),
                    Expr::add(
                        Expr::mul(Expr::f64(0.5), at(*arr, off_expr(&i, -1))),
                        Expr::mul(Expr::f64(0.5), at(*arr, off_expr(&i, 1))),
                    ),
                )],
            ));
            Type::Void
        }
    }
}

/// Adversary formal parameters. These are NOT drawn from the array pool
/// naming scheme on purpose: the aliasing adversary needs two pointer
/// parameters that only the *call site* (see [`adversary_args`]) reveals
/// to be one object.
fn adversary_params(k: AdversaryKind) -> Vec<(String, Type)> {
    match k {
        AdversaryKind::AliasedParams => vec![
            ("pa".into(), Type::F64.ptr_to()),
            ("pb".into(), Type::F64.ptr_to()),
            ("n".into(), Type::I32),
        ],
        AdversaryKind::NonAffine => vec![
            ("pa".into(), Type::F64.ptr_to()),
            ("pb".into(), Type::F64.ptr_to()),
        ],
        AdversaryKind::TriangularSweep => {
            vec![("pm".into(), Type::F64.ptr_to()), ("dim".into(), Type::I32)]
        }
    }
}

/// The entry-point arguments for an adversary call. `AliasedParams`
/// passes the seeded `d2` array twice — the whole point of the variant.
/// All adversaries write seeded (never all-zero) data so a wrongly
/// parallelized replacement cannot hide from differential validation,
/// and every kernel is a convex combination so array magnitudes stay
/// bounded (the computed-histogram invariant elsewhere in generated
/// programs).
fn adversary_args(k: AdversaryKind) -> Vec<Expr> {
    match k {
        AdversaryKind::AliasedParams => vec![v("d2"), v("d2"), v("n")],
        AdversaryKind::NonAffine => vec![v("d0"), v("o0")],
        AdversaryKind::TriangularSweep => vec![v("m0"), v("dim")],
    }
}

fn adversary_body(k: AdversaryKind, names: &mut Names) -> Vec<Stmt> {
    let idx = |base: &str, e: Expr| Expr::idx(base, e);
    let sto = |base: &str, e: Expr| LValue::Index {
        base: base.into(),
        indices: vec![e],
    };
    match k {
        AdversaryKind::AliasedParams => {
            // for i in 1..n-1: pb[i] = 0.5*pa[i-1] + 0.5*pa[i+1]
            let i = names.iter();
            vec![Stmt::count_for(
                i.clone(),
                Expr::int(1),
                Expr::sub(v("n"), Expr::int(1)),
                vec![Stmt::assign(
                    sto("pb", v(&i)),
                    Expr::add(
                        Expr::mul(Expr::f64(0.5), idx("pa", off_expr(&i, -1))),
                        Expr::mul(Expr::f64(0.5), idx("pa", off_expr(&i, 1))),
                    ),
                )],
            )]
        }
        AdversaryKind::NonAffine => {
            // for i in 0..8: pb[i*i] = 0.5*pa[i]   (i*i < LEN)
            let i = names.iter();
            vec![Stmt::count_for(
                i.clone(),
                Expr::int(0),
                Expr::int(8),
                vec![Stmt::assign(
                    sto("pb", Expr::mul(v(&i), v(&i))),
                    Expr::mul(Expr::f64(0.5), idx("pa", v(&i))),
                )],
            )]
        }
        AdversaryKind::TriangularSweep => {
            // for i in 1..dim: for j in 0..i:
            //   pm[i*dim+j] = 0.5*(pm[(i-1)*dim+j] + pm[j*dim+i])
            let i = names.iter();
            let j = names.iter();
            let flat = |row: Expr, col: Expr| Expr::add(Expr::mul(row, v("dim")), col);
            let inner = Stmt::count_for(
                j.clone(),
                Expr::int(0),
                v(&i),
                vec![Stmt::assign(
                    sto("pm", flat(v(&i), v(&j))),
                    Expr::mul(
                        Expr::f64(0.5),
                        Expr::add(
                            idx("pm", flat(Expr::sub(v(&i), Expr::int(1)), v(&j))),
                            idx("pm", flat(v(&j), v(&i))),
                        ),
                    ),
                )],
            );
            vec![Stmt::count_for(
                i.clone(),
                Expr::int(1),
                v("dim"),
                vec![inner],
            )]
        }
    }
}

/// Collects the parameters a function needs (arrays it touches plus the
/// bound scalars), deduplicated in canonical order.
fn func_params(f: &FuncSpec) -> Vec<Param> {
    let mut ps: Vec<Param> = Vec::new();
    let arr = |a: ArrayId, ps: &mut Vec<Param>| ps.push(Param::Arr(a));
    match &f.role {
        Role::Plant(p) => match p {
            PlantKind::Reduction { kernel, a, b, .. } => {
                if *kernel == RedKernel::IntSum {
                    arr(ArrayId::K0, &mut ps);
                } else {
                    arr(*a, &mut ps);
                    if uses_second(*kernel) {
                        arr(*b, &mut ps);
                    }
                }
                ps.push(Param::N);
            }
            PlantKind::Histogram(hv) => {
                match hv {
                    HistoVariant::CountInt => {
                        arr(ArrayId::K0, &mut ps);
                        arr(ArrayId::BinsI, &mut ps);
                    }
                    HistoVariant::WeightedF { w } => {
                        arr(ArrayId::K0, &mut ps);
                        arr(*w, &mut ps);
                        arr(ArrayId::BinsF, &mut ps);
                    }
                    HistoVariant::ComputedBin { src, .. } => {
                        arr(*src, &mut ps);
                        arr(ArrayId::BinsI, &mut ps);
                    }
                    HistoVariant::MaxOfTwo { xa, xb, .. } => {
                        arr(*xa, &mut ps);
                        arr(*xb, &mut ps);
                        arr(ArrayId::BinsI, &mut ps);
                    }
                }
                ps.push(Param::N);
            }
            PlantKind::Stencil1D { src, dst, .. } => {
                arr(*src, &mut ps);
                arr(*dst, &mut ps);
                ps.push(Param::N);
            }
            PlantKind::Stencil2D { .. } => {
                arr(ArrayId::G0, &mut ps);
                arr(ArrayId::GOut, &mut ps);
                ps.push(Param::G);
            }
            PlantKind::Gemm { .. } => {
                arr(ArrayId::M0, &mut ps);
                arr(ArrayId::M1, &mut ps);
                arr(ArrayId::MOut, &mut ps);
                ps.push(Param::Dim);
            }
            PlantKind::Spmv => {
                arr(ArrayId::CsrV, &mut ps);
                arr(ArrayId::CsrR, &mut ps);
                arr(ArrayId::CsrC, &mut ps);
                arr(ArrayId::X0, &mut ps);
                arr(ArrayId::Y0, &mut ps);
                ps.push(Param::Rows);
            }
        },
        Role::NearMiss(nm) => match nm {
            NearMissKind::GuardedReduction { a, g } => {
                arr(*a, &mut ps);
                arr(*g, &mut ps);
                ps.push(Param::N);
            }
            NearMissKind::DownwardReduction { a } => {
                arr(*a, &mut ps);
                ps.push(Param::N);
            }
            NearMissKind::IteratorHistogram => {
                arr(ArrayId::BinsI, &mut ps);
                ps.push(Param::Nb);
            }
            NearMissKind::InPlaceStencil { arr: a } => {
                arr(*a, &mut ps);
                ps.push(Param::N);
            }
        },
        // Adversaries have bespoke (non-pool) parameters; see
        // `adversary_params`/`adversary_args`.
        Role::Adversary(_) | Role::Filler => {}
    }
    for stmt in f.pre.iter().chain(&f.post) {
        match stmt {
            FillerStmt::Recurrence { arr: a, .. } => {
                ps.push(Param::Arr(*a));
                ps.push(Param::N);
            }
            FillerStmt::GuardedScale { src, dst } => {
                ps.push(Param::Arr(*src));
                ps.push(Param::Arr(*dst));
                ps.push(Param::N);
            }
            FillerStmt::ScalarNoise { src, .. } => ps.push(Param::Arr(*src)),
        }
    }
    ps.sort();
    ps.dedup();
    ps
}

fn uses_second(k: RedKernel) -> bool {
    matches!(
        k,
        RedKernel::SumMul | RedKernel::SumDiff | RedKernel::SumCos | RedKernel::TernaryAbs
    )
}

/// The C return type of a function, derivable from its role without
/// rendering the body (kept in sync with `render_plant`/
/// `render_near_miss` by a debug assertion in `render_func`).
fn ret_type(f: &FuncSpec) -> Type {
    match &f.role {
        Role::Plant(PlantKind::Reduction { kernel, .. }) => {
            if *kernel == RedKernel::IntSum {
                Type::I32
            } else {
                Type::F64
            }
        }
        Role::Plant(_) => Type::Void,
        Role::NearMiss(
            NearMissKind::GuardedReduction { .. } | NearMissKind::DownwardReduction { .. },
        ) => Type::F64,
        Role::NearMiss(_) => Type::Void,
        Role::Adversary(_) => Type::Void,
        Role::Filler => Type::F64,
    }
}

fn render_func(f: &FuncSpec) -> FuncDef {
    let mut names = Names::default();
    if let Role::Adversary(k) = &f.role {
        // Adversaries carry no filler and use their own parameter names:
        // the function must stay exactly the almost-parallel shape the
        // dependence analysis has to refuse.
        return FuncDef {
            name: f.name.clone(),
            params: adversary_params(*k),
            ret: ret_type(f),
            body: adversary_body(*k, &mut names),
            line: 0,
        };
    }
    let mut body: Vec<Stmt> = Vec::new();
    let ret = match &f.role {
        Role::Plant(_) | Role::NearMiss(_) => {
            for stmt in &f.pre {
                body.extend(render_filler(stmt, &mut names, None));
            }
            let ty = match &f.role {
                Role::Plant(p) => render_plant(p, &mut names, &mut body),
                Role::NearMiss(nm) => render_near_miss(nm, &mut names, &mut body),
                Role::Adversary(_) | Role::Filler => unreachable!(),
            };
            for stmt in &f.post {
                body.extend(render_filler(stmt, &mut names, None));
            }
            if ty != Type::Void {
                body.push(Stmt::ret(v("s")));
            }
            ty
        }
        Role::Adversary(_) => unreachable!("adversaries render above"),
        Role::Filler => {
            body.push(Stmt::decl("s", Type::F64, Expr::f64(0.0)));
            for stmt in f.pre.iter().chain(&f.post) {
                body.extend(render_filler(stmt, &mut names, Some("s")));
            }
            body.push(Stmt::ret(v("s")));
            Type::F64
        }
    };
    debug_assert_eq!(ret, ret_type(f), "ret_type out of sync for {f:?}");
    FuncDef {
        name: f.name.clone(),
        params: func_params(f)
            .into_iter()
            .map(|p| (p.cname().to_owned(), p.ctype()))
            .collect(),
        ret,
        body,
        line: 0,
    }
}

/// The fixed entry point: takes the full array pool + size scalars and
/// calls every generated function, accumulating scalar results.
fn render_entry(funcs: &[FuncSpec]) -> FuncDef {
    let mut params: Vec<(String, Type)> = ArrayId::ALL
        .iter()
        .map(|a| (a.cname().to_owned(), a.ctype()))
        .collect();
    for s in [Param::N, Param::G, Param::Dim, Param::Rows, Param::Nb] {
        params.push((s.cname().to_owned(), Type::I32));
    }
    let mut body = vec![Stmt::decl("total", Type::F64, Expr::f64(0.0))];
    for f in funcs {
        let args: Vec<Expr> = match &f.role {
            Role::Adversary(k) => adversary_args(*k),
            _ => func_params(f).iter().map(|p| v(p.cname())).collect(),
        };
        let call = Expr::call(&f.name, args);
        match ret_type(f) {
            Type::Void => body.push(Stmt::Expr(call, 0)),
            Type::I32 => body.push(Stmt::assign(
                LValue::Var("total".into()),
                Expr::add(v("total"), Expr::cast(Type::F64, call)),
            )),
            _ => body.push(Stmt::assign(
                LValue::Var("total".into()),
                Expr::add(v("total"), call),
            )),
        }
    }
    body.push(Stmt::ret(v("total")));
    FuncDef {
        name: Spec::ENTRY.into(),
        params,
        ret: Type::F64,
        body,
        line: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(role: Role) -> Spec {
        Spec {
            seed: 0,
            funcs: vec![FuncSpec {
                name: "f0".into(),
                role,
                pre: vec![],
                post: vec![],
            }],
        }
    }

    #[test]
    fn every_template_renders_and_compiles() {
        let roles = vec![
            Role::Plant(PlantKind::Reduction {
                kernel: RedKernel::SumMul,
                a: ArrayId::D0,
                b: ArrayId::D1,
                lo: 0,
                hi: 0,
                wrapped: false,
            }),
            Role::Plant(PlantKind::Histogram(HistoVariant::CountInt)),
            Role::Plant(PlantKind::Stencil1D {
                src: ArrayId::D0,
                dst: ArrayId::O0,
                taps: vec![(-1, 3), (0, 6), (1, 3)],
                scale: None,
            }),
            Role::Plant(PlantKind::Stencil2D {
                taps: vec![(0, 0, 1), (-1, 0, 1), (1, 0, 1), (0, -1, 1), (0, 1, 1)],
                scale: Some(2),
            }),
            Role::Plant(PlantKind::Gemm { epilogue: false }),
            Role::Plant(PlantKind::Gemm { epilogue: true }),
            Role::Plant(PlantKind::Spmv),
            Role::NearMiss(NearMissKind::GuardedReduction {
                a: ArrayId::D0,
                g: ArrayId::D1,
            }),
            Role::NearMiss(NearMissKind::DownwardReduction { a: ArrayId::D0 }),
            Role::NearMiss(NearMissKind::IteratorHistogram),
            Role::NearMiss(NearMissKind::InPlaceStencil { arr: ArrayId::O0 }),
            Role::Adversary(AdversaryKind::AliasedParams),
            Role::Adversary(AdversaryKind::NonAffine),
            Role::Adversary(AdversaryKind::TriangularSweep),
        ];
        for role in roles {
            let spec = one(role.clone());
            let src = spec.render();
            minicc::compile(&src, "t").unwrap_or_else(|e| panic!("{role:?}: {e}\n{src}"));
        }
    }

    #[test]
    fn setup_shape_is_seed_independent() {
        let mut m0 = Memory::new();
        let mut m1 = Memory::new();
        let a0 = setup(&mut m0, 0);
        let a1 = setup(&mut m1, 0x5EED);
        assert_eq!(a0.len(), a1.len());
        assert_eq!(a0.len(), ArrayId::ALL.len() + 5);
        assert_eq!(m0.size(), m1.size());
        assert_eq!(m0.allocations(), m1.allocations());
    }
}
