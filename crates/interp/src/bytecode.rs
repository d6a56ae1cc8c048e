//! One-shot lowering of ssair functions to a flat register bytecode.
//!
//! Detection got fast by compiling once and executing many times (interned
//! symbols, dense ids, precomputed orders); this module applies the same
//! discipline to execution. A [`CompiledModule`] is built once per
//! [`Module`] and reused across every validation seed, the reversal oracle
//! and every host-dispatched kernel launch:
//!
//! * operands become plain indices into the function's frame, a dense
//!   window of the VM's one register stack (no `Option` unwrap, no
//!   const-vs-reg match per operand) — constants are folded into the
//!   per-function `init_regs` template a call pushes;
//! * phi nodes are eliminated into per-CFG-edge parallel-move snippets
//!   ([`Op::PhiMoves`]), so block entry is a handful of register moves;
//! * branch targets are pc offsets into one contiguous code array;
//! * type dispatch (`AddI` vs `AddF`, load/store width, i32 wrapping) is
//!   resolved at compile time into typed [`Op`] variants;
//! * call sites are pre-bound: the callee is interned to a symbol id (host
//!   lookup becomes a slot load, not a `HashMap<String, _>` probe) and
//!   statically resolved to an intrinsic or a module function index;
//! * the runs that dominate the executed op mix dispatch once: a peephole
//!   rewrites the head of each `IntCast→Gep→Load`, `IntCast→Gep`,
//!   `Gep→Load` and `ICmp→CondJump` run, and each `Jump` into a phi-move
//!   snippet, into a superinstruction (see [`Op`]).
//!
//! **Verified IR in, bytecode out.** The tree-walking [`crate::Machine`]
//! is the reference semantics, quirks included, and the VM must match it
//! bit-for-bit (same results, same `ExecError` messages, same step
//! accounting, same profile). Every function that passes
//! [`ssair::verify`] compiles. The compiler does not run the verifier
//! itself (it is several times the cost of compiling); its own cheap
//! shape checks are the guard. A function that fails them — entry-block
//! or mid-block phis, misplaced terminators, phis not covering every
//! predecessor edge, void loads/stores, operands not provably defined on
//! every path — is left uncompiled (`None`), and calling it is an
//! `ExecError` naming it. Compilation itself never fails.

use crate::machine::Value;
use ssair::{BlockId, FCmpPred, Function, ICmpPred, Module, Opcode, Type, ValueId, ValueKind};
use std::collections::HashMap;
use std::ops::Range;

/// Marker for "no source value" in [`CompiledFunction::vids`].
pub(crate) const NO_VID: u32 = u32::MAX;

/// Integer binary operators (operand extraction stays checked at runtime
/// so type confusion reports the walker's exact `ExecError`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum IntOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    AShr,
}

/// Result wrapping, resolved from the result type at compile time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum IntWrap {
    None,
    I1,
    I32,
}

impl IntWrap {
    pub(crate) fn of(ty: Type) -> IntWrap {
        match ty {
            Type::I1 => IntWrap::I1,
            Type::I32 => IntWrap::I32,
            _ => IntWrap::None,
        }
    }

    #[inline]
    pub(crate) fn apply(self, x: i64) -> i64 {
        match self {
            IntWrap::None => x,
            IntWrap::I1 => x & 1,
            IntWrap::I32 => i64::from(x as i32),
        }
    }
}

/// Float binary operators.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FloatOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// Memory access width/kind, resolved from the value type at compile time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MemKind {
    I8,
    I32,
    I64,
    F32,
    F64,
    Ptr,
}

impl MemKind {
    fn of(ty: Type) -> Option<MemKind> {
        Some(match ty {
            Type::I1 => MemKind::I8,
            Type::I32 => MemKind::I32,
            Type::I64 => MemKind::I64,
            Type::F32 => MemKind::F32,
            Type::F64 => MemKind::F64,
            _ if ty.is_pointer() => MemKind::Ptr,
            _ => return None, // void
        })
    }
}

/// The math intrinsics the walker recognizes, pre-resolved at compile
/// time (arity/type errors stay runtime `ExecError`s, exactly like the
/// walker, because a host registration may shadow the intrinsic).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Intrinsic {
    Sqrt,
    Fabs,
    Exp,
    Log,
    Sin,
    Cos,
    Pow,
    Fmin,
    Fmax,
}

impl Intrinsic {
    pub(crate) fn by_name(name: &str) -> Option<Intrinsic> {
        Some(match name {
            "sqrt" => Intrinsic::Sqrt,
            "fabs" => Intrinsic::Fabs,
            "exp" => Intrinsic::Exp,
            "log" => Intrinsic::Log,
            "sin" => Intrinsic::Sin,
            "cos" => Intrinsic::Cos,
            "pow" => Intrinsic::Pow,
            "fmin" => Intrinsic::Fmin,
            "fmax" => Intrinsic::Fmax,
            _ => return None,
        })
    }

    /// Evaluates the intrinsic with the walker's exact arity/type errors.
    pub(crate) fn eval(self, args: &[Value]) -> Result<Value, String> {
        let unary = |g: fn(f64) -> f64| match args {
            [a] => Ok(Value::F(g(a.try_f()?))),
            _ => Err("unary math intrinsic expects 1 argument".to_owned()),
        };
        let binary = |g: fn(f64, f64) -> f64| match args {
            [a, b] => Ok(Value::F(g(a.try_f()?, b.try_f()?))),
            _ => Err("binary math intrinsic expects 2 arguments".to_owned()),
        };
        match self {
            Intrinsic::Sqrt => unary(f64::sqrt),
            Intrinsic::Fabs => unary(f64::abs),
            Intrinsic::Exp => unary(f64::exp),
            Intrinsic::Log => unary(f64::ln),
            Intrinsic::Sin => unary(f64::sin),
            Intrinsic::Cos => unary(f64::cos),
            Intrinsic::Pow => binary(f64::powf),
            Intrinsic::Fmin => binary(f64::min),
            Intrinsic::Fmax => binary(f64::max),
        }
    }
}

/// Where a call site statically resolves when no host overrides it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CallTarget {
    /// A math intrinsic (checked before module functions, like the
    /// walker's dispatch order).
    Intrinsic(Intrinsic),
    /// A module function, by index into [`Module::functions`].
    Function(u32),
    /// Nothing static matches: an error at execution time unless a host
    /// is registered under the symbol.
    Unknown,
}

/// A pre-bound call site.
#[derive(Debug)]
pub(crate) struct CallSite {
    /// Argument registers, in operand order.
    pub(crate) args: Box<[u32]>,
    /// Result register.
    pub(crate) dst: u32,
    /// Interned callee symbol (index into [`CompiledModule::symbols`]).
    pub(crate) sym: u32,
    /// Static resolution.
    pub(crate) target: CallTarget,
}

/// One phi move on a CFG edge: `dst` is the phi's own value id (also used
/// for profile bumps), `src` the register of its incoming operand.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PhiMove {
    pub(crate) dst: u32,
    pub(crate) src: u32,
}

/// A bytecode instruction. A plain op is one walker step.
///
/// A superinstruction (the last five variants) replaces the *head* of a
/// run of plain ops inside one block body and executes the whole run in
/// one dispatch. The run's other ops stay in `code` behind the head as
/// plain ops, which makes the fusion exact by construction:
///
/// * the fused op runs its constituents in order and writes every
///   intermediate register, billing and profiling each constituent's
///   step (`vids[pc + i]`) as the plain op would;
/// * when constituent `i > 0` fails its type or bounds check, or the step
///   budget is spent before it, the fused op bills nothing for it and
///   resumes at its plain op (`pc + i`), which faults or stops there
///   exactly as unfused code does;
/// * when the head fails, the VM's cold path replays it as its plain op.
///
/// The peephole fuses a run only where each later op reads the earlier
/// op's result, so that register (`cast`, `gep`, the compare's `dst`) is
/// stored once and the fused op hands the value on without reloading it.
#[derive(Debug)]
pub(crate) enum Op {
    /// Integer binary op with compile-time result wrapping.
    IntBin {
        op: IntOp,
        wrap: IntWrap,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Float binary op; `round` narrows through f32 (result type F32).
    FloatBin {
        op: FloatOp,
        round: bool,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Integer/pointer comparison.
    ICmp {
        pred: ICmpPred,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Ordered float comparison.
    FCmp {
        pred: FCmpPred,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Ternary select.
    Select {
        dst: u32,
        cond: u32,
        on_true: u32,
        on_false: u32,
    },
    /// Pointer arithmetic with the element size precomputed.
    Gep {
        dst: u32,
        base: u32,
        idx: u32,
        elem: i64,
    },
    /// Typed memory load.
    Load { kind: MemKind, dst: u32, addr: u32 },
    /// Typed memory store (value register, then address register).
    Store { kind: MemKind, val: u32, addr: u32 },
    /// Stack allocation of `n` (a register) elements.
    Alloca { dst: u32, n: u32, elem: Type },
    /// SExt/ZExt/Trunc: re-wrap to the result width.
    IntCast { wrap: IntWrap, dst: u32, src: u32 },
    /// Signed int → float; `round` narrows through f32.
    SiToFp { round: bool, dst: u32, src: u32 },
    /// Float → signed int, wrapped to the result width.
    FpToSi { wrap: IntWrap, dst: u32, src: u32 },
    /// f32 → f64 (a checked move in this value model).
    FpExt { dst: u32, src: u32 },
    /// f64 → f32 narrowing.
    FpTrunc { dst: u32, src: u32 },
    /// Call through a pre-bound site.
    Call { site: u32 },
    /// Unconditional jump to a pc.
    Jump { target: u32 },
    /// Conditional jump (`cond` must hold an integer at runtime).
    CondJump {
        cond: u32,
        on_true: u32,
        on_false: u32,
    },
    /// Return the register (or `I(0)` for a bare `ret`).
    Ret { val: Option<u32> },
    /// Per-edge phi elimination: read every source, then write every
    /// destination (parallel-move semantics), then jump. Each move counts
    /// one step, exactly like one walker phi evaluation.
    PhiMoves { moves: Box<[PhiMove]>, target: u32 },
    /// `IntCast→Gep→Load`: the gep indexes by the cast's result (`cast`)
    /// and the load reads the gep's (`gep`).
    CastGepLoad {
        wrap: IntWrap,
        kind: MemKind,
        src: u32,
        cast: u32,
        base: u32,
        gep: u32,
        dst: u32,
        elem: i64,
    },
    /// `IntCast→Gep`: the gep indexes by the cast's result (`cast`).
    CastGep {
        wrap: IntWrap,
        src: u32,
        cast: u32,
        base: u32,
        dst: u32,
        elem: i64,
    },
    /// `Gep→Load`: the load reads the gep's result (`gep`).
    GepLoad {
        kind: MemKind,
        base: u32,
        idx: u32,
        gep: u32,
        dst: u32,
        elem: i64,
    },
    /// `ICmp→CondJump` on the comparison's result (`dst`).
    CmpJump {
        pred: ICmpPred,
        dst: u32,
        a: u32,
        b: u32,
        on_true: u32,
        on_false: u32,
    },
    /// A `Jump` into the phi-move snippet at `snippet`: runs its moves in
    /// place and continues at the snippet's `target`.
    JumpMoves {
        moves: Box<[PhiMove]>,
        snippet: u32,
        target: u32,
    },
}

// Every dispatch touches one `Op`: keep it to half a cache line.
const _: () = assert!(std::mem::size_of::<Op>() <= 32);

/// One function lowered to bytecode.
#[derive(Debug)]
pub(crate) struct CompiledFunction {
    /// Function name (for arity-error messages).
    pub(crate) name: Box<str>,
    /// Expected argument count.
    pub(crate) arity: usize,
    /// Parameter registers, in order.
    pub(crate) params: Box<[u32]>,
    /// Register-file template: constants prefilled, everything else
    /// `I(0)` (never read before a write, by the must-defined check).
    pub(crate) init_regs: Vec<Value>,
    /// The flat instruction stream. Entry is pc 0.
    pub(crate) code: Vec<Op>,
    /// pc → source [`ValueId`] for the optional profile ([`NO_VID`] for
    /// ops with no single source value, i.e. phi-move snippets).
    pub(crate) vids: Vec<u32>,
    /// Pre-bound call sites referenced by [`Op::Call`].
    pub(crate) sites: Vec<CallSite>,
}

/// A module lowered to bytecode, plus the interning tables the VM needs.
/// Build once with [`compile_module`], execute many times with
/// [`crate::Vm`].
pub struct CompiledModule<'m> {
    pub(crate) module: &'m Module,
    /// Per function (same order as [`Module::functions`]): the lowered
    /// code, or `None` when the function's shape failed the compiler's
    /// checks (never for verified IR).
    pub(crate) funcs: Vec<Option<CompiledFunction>>,
    /// First function index per name (the walker's `Module::function`
    /// takes the first match too).
    pub(crate) func_index: HashMap<String, u32>,
    /// Interned callee symbols, module-wide.
    pub(crate) symbols: Vec<String>,
    /// Symbol name → id.
    pub(crate) sym_index: HashMap<String, u32>,
}

impl<'m> CompiledModule<'m> {
    /// The module this code was compiled from.
    #[must_use]
    pub fn module(&self) -> &'m Module {
        self.module
    }

    /// How many functions compiled to bytecode: all of them for a module
    /// that passes [`ssair::verify::verify_module`].
    #[must_use]
    pub fn compiled_count(&self) -> usize {
        self.funcs.iter().filter(|f| f.is_some()).count()
    }

    /// Compiles `f` as a stand-in for the module function of the same
    /// name, against this module's function index and symbol table (a
    /// callee new to the module is interned and stays interned). `None`
    /// when no module function has that name. Nothing runs the new code
    /// until [`CompiledModule::with_function`] swaps it in.
    pub fn compile_function(&mut self, f: &Function) -> Option<FunctionCode> {
        let idx = *self.func_index.get(&f.name)?;
        let mut interner = Interner {
            symbols: &mut self.symbols,
            map: &mut self.sym_index,
        };
        let code = compile_function(f, &self.func_index, &mut interner);
        Some(FunctionCode { idx, code })
    }

    /// Runs `run` on this module with `code` in place of the function it
    /// stands in for, then restores the function's own code: executing
    /// the result is executing the module with that one function edited,
    /// without recompiling the rest.
    pub fn with_function<R>(
        &mut self,
        code: &mut FunctionCode,
        run: impl FnOnce(&CompiledModule<'m>) -> R,
    ) -> R {
        let slot = code.idx as usize;
        std::mem::swap(&mut self.funcs[slot], &mut code.code);
        let out = run(self);
        std::mem::swap(&mut self.funcs[slot], &mut code.code);
        out
    }
}

impl CompiledModule<'_> {
    /// Releases the borrow of the module and keeps the code, for an owner
    /// that holds the module and its code side by side.
    #[must_use]
    pub fn detach(self) -> ModuleCode {
        ModuleCode {
            funcs: self.funcs,
            func_index: self.func_index,
            symbols: self.symbols,
            sym_index: self.sym_index,
        }
    }
}

/// A [`CompiledModule`]'s code without its borrow of the module
/// ([`CompiledModule::detach`]).
pub struct ModuleCode {
    funcs: Vec<Option<CompiledFunction>>,
    func_index: HashMap<String, u32>,
    symbols: Vec<String>,
    sym_index: HashMap<String, u32>,
}

impl ModuleCode {
    /// Binds the code to `module` again, which must be the module it was
    /// compiled from, unedited. `None` (the code is dropped) when `module`
    /// does not even have the functions, by count and name, that it was
    /// compiled for.
    #[must_use]
    pub fn attach(self, module: &Module) -> Option<CompiledModule<'_>> {
        let same_functions = module.functions.len() == self.funcs.len()
            && self
                .func_index
                .iter()
                .all(|(name, &i)| module.functions[i as usize].name == *name);
        same_functions.then_some(CompiledModule {
            module,
            funcs: self.funcs,
            func_index: self.func_index,
            symbols: self.symbols,
            sym_index: self.sym_index,
        })
    }
}

/// One function's bytecode, compiled for a [`CompiledModule`] by
/// [`CompiledModule::compile_function`] but held outside it.
pub struct FunctionCode {
    /// The module function it stands in for.
    idx: u32,
    code: Option<CompiledFunction>,
}

/// Lowers every function of `module`. Never fails: a function whose
/// shape the bytecode cannot reproduce bit-for-bit is left uncompiled,
/// and calling it is an execution error.
#[must_use]
pub fn compile_module(module: &Module) -> CompiledModule<'_> {
    let mut func_index = HashMap::new();
    for (i, f) in module.functions.iter().enumerate() {
        func_index.entry(f.name.clone()).or_insert(i as u32);
    }
    let mut symbols = Vec::new();
    let mut sym_index = HashMap::new();
    let mut interner = Interner {
        symbols: &mut symbols,
        map: &mut sym_index,
    };
    let funcs = module
        .functions
        .iter()
        .map(|f| compile_function(f, &func_index, &mut interner))
        .collect();
    CompiledModule {
        module,
        funcs,
        func_index,
        symbols,
        sym_index,
    }
}

struct Interner<'a> {
    symbols: &'a mut Vec<String>,
    map: &'a mut HashMap<String, u32>,
}

impl Interner<'_> {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.map.get(name) {
            return id;
        }
        let id = self.symbols.len() as u32;
        self.symbols.push(name.to_owned());
        self.map.insert(name.to_owned(), id);
        id
    }
}

/// The phi prefix and body (incl. terminator) of one block, with every
/// structural eligibility condition already verified.
struct BlockShape {
    phis: Vec<ValueId>,
    body: Vec<ValueId>,
}

fn compile_function(
    f: &Function,
    func_index: &HashMap<String, u32>,
    interner: &mut Interner<'_>,
) -> Option<CompiledFunction> {
    let nb = f.num_blocks();
    if nb == 0 {
        return None;
    }
    // Structural pass: phis form a prefix, exactly one terminator and it
    // is last, every listed id is an instruction, no entry-block phis.
    let mut shapes: Vec<BlockShape> = Vec::with_capacity(nb);
    for b in f.block_ids() {
        let mut phis = Vec::new();
        let mut body = Vec::new();
        for &v in &f.block(b).instrs {
            let i = f.instr(v)?; // non-instruction id
            match i.opcode {
                Opcode::Phi if body.is_empty() => phis.push(v),
                Opcode::Phi => return None, // mid-block phi
                _ => body.push(v),
            }
        }
        let (&last, rest) = body.split_last()?; // empty body falls through
        if !f.opcode(last)?.is_terminator() {
            return None; // fallthrough
        }
        if rest
            .iter()
            .any(|&v| f.opcode(v).is_some_and(|o| o.is_terminator()))
        {
            return None; // mid-block branch
        }
        if b == BlockId(0) && !phis.is_empty() {
            return None; // entry phi
        }
        shapes.push(BlockShape { phis, body });
    }

    // Per-instruction operand/target/type checks (anything the walker
    // would panic or error on at runtime is refused).
    for shape in &shapes {
        for &v in &shape.body {
            check_instr(f, v, nb)?;
        }
    }

    // CFG edges exactly as the walker takes them: Br → targets[0],
    // CondBr → targets[0] and targets[1].
    let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); nb];
    for (bi, shape) in shapes.iter().enumerate() {
        let term = *shape.body.last().expect("checked non-empty");
        let i = f.instr(term).expect("checked instr");
        let targets: &[BlockId] = match i.opcode {
            Opcode::Br => &i.targets[..1],
            Opcode::CondBr => &i.targets[..2],
            _ => &[],
        };
        for &t in targets {
            let p = BlockId(bi as u32);
            if !preds[t.0 as usize].contains(&p) {
                preds[t.0 as usize].push(p);
            }
        }
    }

    // Every phi must cover every predecessor edge (a missing incoming is
    // a runtime error the walker reports only when the edge is taken).
    for (bi, shape) in shapes.iter().enumerate() {
        for &p in &preds[bi] {
            for &phi in &shape.phis {
                let i = f.instr(phi).expect("checked instr");
                let k = i.incoming.iter().position(|&b| b == p)?;
                if k >= i.operands.len() {
                    return None;
                }
            }
        }
    }

    // Must-defined dataflow: every operand read must be a constant or
    // provably written on every path, else the walker's "use of undefined
    // value" runtime error could be reachable.
    must_defined_ok(f, &shapes, &preds)?;

    // Emission. Pass 1: block bodies, with branch targets recorded as
    // (pc, edge) fixups; pass 2: per-edge phi-move snippets + patching.
    let mut code: Vec<Op> = Vec::new();
    let mut vids: Vec<u32> = Vec::new();
    let mut sites: Vec<CallSite> = Vec::new();
    let mut body_start: Vec<u32> = Vec::with_capacity(nb);
    // (pc, operand slot, from-block, to-block)
    let mut fixups: Vec<(usize, u8, BlockId, BlockId)> = Vec::new();
    for (bi, shape) in shapes.iter().enumerate() {
        body_start.push(code.len() as u32);
        let from = BlockId(bi as u32);
        for &v in &shape.body {
            let i = f.instr(v).expect("checked instr");
            let op = match i.opcode {
                Opcode::Br => {
                    fixups.push((code.len(), 0, from, i.targets[0]));
                    Op::Jump { target: u32::MAX }
                }
                Opcode::CondBr => {
                    fixups.push((code.len(), 0, from, i.targets[0]));
                    fixups.push((code.len(), 1, from, i.targets[1]));
                    Op::CondJump {
                        cond: i.operands[0].0,
                        on_true: u32::MAX,
                        on_false: u32::MAX,
                    }
                }
                Opcode::Ret => Op::Ret {
                    val: i.operands.first().map(|r| r.0),
                },
                _ => lower_instr(f, v, func_index, interner, &mut sites)
                    .expect("checked by check_instr"),
            };
            code.push(op);
            vids.push(v.0);
        }
    }
    // Pass 2: one snippet per (pred, phi-block) edge, shared by every
    // branch along it.
    let mut edge_pc: HashMap<(BlockId, BlockId), u32> = HashMap::new();
    for (pc, slot, from, to) in fixups {
        let target = if shapes[to.0 as usize].phis.is_empty() {
            body_start[to.0 as usize]
        } else {
            *edge_pc.entry((from, to)).or_insert_with(|| {
                let moves: Box<[PhiMove]> = shapes[to.0 as usize]
                    .phis
                    .iter()
                    .map(|&phi| {
                        let i = f.instr(phi).expect("checked instr");
                        let k = i
                            .incoming
                            .iter()
                            .position(|&b| b == from)
                            .expect("checked coverage");
                        PhiMove {
                            dst: phi.0,
                            src: i.operands[k].0,
                        }
                    })
                    .collect();
                let pc = code.len() as u32;
                code.push(Op::PhiMoves {
                    moves,
                    target: body_start[to.0 as usize],
                });
                vids.push(NO_VID);
                pc
            })
        };
        match &mut code[pc] {
            Op::Jump { target: t } => *t = target,
            Op::CondJump {
                on_true, on_false, ..
            } => {
                if slot == 0 {
                    *on_true = target;
                } else {
                    *on_false = target;
                }
            }
            _ => unreachable!("fixups only point at branches"),
        }
    }

    for (&start, shape) in body_start.iter().zip(&shapes) {
        let start = start as usize;
        fuse(&mut code, start..start + shape.body.len());
    }

    // Register-file template: constants prefilled.
    let mut init_regs = vec![Value::I(0); f.num_values()];
    for v in f.value_ids() {
        match f.value(v).kind {
            ValueKind::ConstInt(c) => init_regs[v.0 as usize] = Value::I(c),
            ValueKind::ConstFloat(c) => init_regs[v.0 as usize] = Value::F(c),
            _ => {}
        }
    }

    Some(CompiledFunction {
        name: f.name.as_str().into(),
        arity: f.params.len(),
        params: f.params.iter().map(|p| p.0).collect(),
        init_regs,
        code,
        vids,
        sites,
    })
}

/// The peephole: rewrites the head of every fusible run in the block body
/// at `body` into its superinstruction (see [`Op`]) and leaves the run's
/// other ops in place. Runs never overlap; a `Jump` fuses with the
/// phi-move snippet it targets, which lies outside every body.
fn fuse(code: &mut [Op], body: Range<usize>) {
    let mut pc = body.start;
    while pc < body.end {
        let next = |k: usize| code[..body.end].get(pc + k);
        let fused = match (&code[pc], next(1), next(2)) {
            (
                &Op::IntCast {
                    wrap,
                    dst: cast,
                    src,
                },
                Some(&Op::Gep {
                    dst: gep,
                    base,
                    idx,
                    elem,
                }),
                Some(&Op::Load { kind, dst, addr }),
            ) if idx == cast && addr == gep => Some((
                Op::CastGepLoad {
                    wrap,
                    kind,
                    src,
                    cast,
                    base,
                    gep,
                    dst,
                    elem,
                },
                3,
            )),
            (
                &Op::IntCast {
                    wrap,
                    dst: cast,
                    src,
                },
                Some(&Op::Gep {
                    dst,
                    base,
                    idx,
                    elem,
                }),
                _,
            ) if idx == cast => Some((
                Op::CastGep {
                    wrap,
                    src,
                    cast,
                    base,
                    dst,
                    elem,
                },
                2,
            )),
            (
                &Op::Gep {
                    dst: gep,
                    base,
                    idx,
                    elem,
                },
                Some(&Op::Load { kind, dst, addr }),
                _,
            ) if addr == gep => Some((
                Op::GepLoad {
                    kind,
                    base,
                    idx,
                    gep,
                    dst,
                    elem,
                },
                2,
            )),
            (
                &Op::ICmp { pred, dst, a, b },
                Some(&Op::CondJump {
                    cond,
                    on_true,
                    on_false,
                }),
                _,
            ) if cond == dst => Some((
                Op::CmpJump {
                    pred,
                    dst,
                    a,
                    b,
                    on_true,
                    on_false,
                },
                2,
            )),
            (&Op::Jump { target: snippet }, ..) => match &code[snippet as usize] {
                Op::PhiMoves { moves, target } => Some((
                    Op::JumpMoves {
                        moves: moves.clone(),
                        snippet,
                        target: *target,
                    },
                    1,
                )),
                _ => None,
            },
            _ => None,
        };
        match fused {
            Some((op, len)) => {
                code[pc] = op;
                pc += len;
            }
            None => pc += 1,
        }
    }
}

/// Operand/target-count and result-type checks for one body instruction:
/// `None` means the walker would panic or raise a shape-dependent runtime
/// error here, so the function is refused.
fn check_instr(f: &Function, v: ValueId, nb: usize) -> Option<()> {
    let i = f.instr(v)?;
    let ty = f.value(v).ty;
    let need = |n: usize| (i.operands.len() >= n).then_some(());
    match i.opcode {
        Opcode::Add
        | Opcode::Sub
        | Opcode::Mul
        | Opcode::SDiv
        | Opcode::SRem
        | Opcode::And
        | Opcode::Or
        | Opcode::Xor
        | Opcode::Shl
        | Opcode::AShr
        | Opcode::FAdd
        | Opcode::FSub
        | Opcode::FMul
        | Opcode::FDiv
        | Opcode::ICmp(_)
        | Opcode::FCmp(_) => need(2),
        Opcode::Select => need(3),
        Opcode::Gep => {
            need(2)?;
            ty.pointee().map(|_| ())
        }
        Opcode::Load => {
            need(1)?;
            MemKind::of(ty).map(|_| ())
        }
        Opcode::Store => {
            need(2)?;
            MemKind::of(f.value(i.operands[0]).ty).map(|_| ())
        }
        Opcode::Alloca => {
            need(1)?;
            ty.pointee().map(|_| ())
        }
        Opcode::SExt
        | Opcode::ZExt
        | Opcode::Trunc
        | Opcode::SIToFP
        | Opcode::FPToSI
        | Opcode::FPExt
        | Opcode::FPTrunc => need(1),
        Opcode::Call => i.callee.as_ref().map(|_| ()),
        Opcode::Br => (!i.targets.is_empty() && (i.targets[0].0 as usize) < nb).then_some(()),
        Opcode::CondBr => {
            need(1)?;
            (i.targets.len() >= 2
                && (i.targets[0].0 as usize) < nb
                && (i.targets[1].0 as usize) < nb)
                .then_some(())
        }
        Opcode::Ret => Some(()),
        Opcode::Phi => None, // phis never reach the body
    }
}

fn lower_instr(
    f: &Function,
    v: ValueId,
    func_index: &HashMap<String, u32>,
    interner: &mut Interner<'_>,
    sites: &mut Vec<CallSite>,
) -> Option<Op> {
    let i = f.instr(v)?;
    let ty = f.value(v).ty;
    let dst = v.0;
    let r = |k: usize| i.operands[k].0;
    let int_bin = |op: IntOp| Op::IntBin {
        op,
        wrap: IntWrap::of(ty),
        dst,
        a: r(0),
        b: r(1),
    };
    let float_bin = |op: FloatOp| Op::FloatBin {
        op,
        round: ty == Type::F32,
        dst,
        a: r(0),
        b: r(1),
    };
    Some(match i.opcode {
        Opcode::Add => int_bin(IntOp::Add),
        Opcode::Sub => int_bin(IntOp::Sub),
        Opcode::Mul => int_bin(IntOp::Mul),
        Opcode::SDiv => int_bin(IntOp::Div),
        Opcode::SRem => int_bin(IntOp::Rem),
        Opcode::And => int_bin(IntOp::And),
        Opcode::Or => int_bin(IntOp::Or),
        Opcode::Xor => int_bin(IntOp::Xor),
        Opcode::Shl => int_bin(IntOp::Shl),
        Opcode::AShr => int_bin(IntOp::AShr),
        Opcode::FAdd => float_bin(FloatOp::Add),
        Opcode::FSub => float_bin(FloatOp::Sub),
        Opcode::FMul => float_bin(FloatOp::Mul),
        Opcode::FDiv => float_bin(FloatOp::Div),
        Opcode::ICmp(pred) => Op::ICmp {
            pred,
            dst,
            a: r(0),
            b: r(1),
        },
        Opcode::FCmp(pred) => Op::FCmp {
            pred,
            dst,
            a: r(0),
            b: r(1),
        },
        Opcode::Select => Op::Select {
            dst,
            cond: r(0),
            on_true: r(1),
            on_false: r(2),
        },
        Opcode::Gep => Op::Gep {
            dst,
            base: r(0),
            idx: r(1),
            elem: ty.pointee()?.size_bytes() as i64,
        },
        Opcode::Load => Op::Load {
            kind: MemKind::of(ty)?,
            dst,
            addr: r(0),
        },
        Opcode::Store => Op::Store {
            kind: MemKind::of(f.value(i.operands[0]).ty)?,
            val: r(0),
            addr: r(1),
        },
        Opcode::Alloca => Op::Alloca {
            dst,
            n: r(0),
            elem: ty.pointee()?,
        },
        Opcode::SExt | Opcode::ZExt | Opcode::Trunc => Op::IntCast {
            wrap: IntWrap::of(ty),
            dst,
            src: r(0),
        },
        Opcode::SIToFP => Op::SiToFp {
            round: ty == Type::F32,
            dst,
            src: r(0),
        },
        Opcode::FPToSI => Op::FpToSi {
            wrap: IntWrap::of(ty),
            dst,
            src: r(0),
        },
        Opcode::FPExt => Op::FpExt { dst, src: r(0) },
        Opcode::FPTrunc => Op::FpTrunc { dst, src: r(0) },
        Opcode::Call => {
            let callee = i.callee.as_deref()?;
            let sym = interner.intern(callee);
            // Walker dispatch order with hosts factored out: intrinsics
            // shadow module functions of the same name.
            let target = match Intrinsic::by_name(callee) {
                Some(k) => CallTarget::Intrinsic(k),
                None => match func_index.get(callee) {
                    Some(&idx) => CallTarget::Function(idx),
                    None => CallTarget::Unknown,
                },
            };
            let site = sites.len() as u32;
            sites.push(CallSite {
                args: i.operands.iter().map(|o| o.0).collect(),
                dst,
                sym,
                target,
            });
            Op::Call { site }
        }
        Opcode::Phi | Opcode::Br | Opcode::CondBr | Opcode::Ret => return None,
    })
}

/// A dense bitset over value ids.
#[derive(Clone, PartialEq)]
struct Defined(Vec<u64>);

impl Defined {
    fn full(n: usize) -> Defined {
        Defined(vec![u64::MAX; n.div_ceil(64)])
    }
    fn empty(n: usize) -> Defined {
        Defined(vec![0; n.div_ceil(64)])
    }
    fn set(&mut self, v: ValueId) {
        self.0[v.0 as usize / 64] |= 1 << (v.0 % 64);
    }
    fn get(&self, v: ValueId) -> bool {
        self.0[v.0 as usize / 64] >> (v.0 % 64) & 1 != 0
    }
    fn intersect(&mut self, other: &Defined) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a &= b;
        }
    }
    /// Makes `self` block `bi`'s in-state: `entry_in` for the entry
    /// block, else the intersection of its predecessors' out-states.
    fn become_block_in(
        &mut self,
        bi: usize,
        entry_in: &Defined,
        preds: &[BlockId],
        outs: &[Defined],
    ) {
        if bi == 0 {
            self.0.copy_from_slice(&entry_in.0);
        } else {
            self.0.fill(u64::MAX);
            for &p in preds {
                self.intersect(&outs[p.0 as usize]);
            }
        }
    }
}

fn is_const(f: &Function, v: ValueId) -> bool {
    matches!(
        f.value(v).kind,
        ValueKind::ConstInt(_) | ValueKind::ConstFloat(_)
    )
}

/// Forward must-defined analysis (intersection over predecessors; the
/// entry starts from parameters + constants). Returns `None` when any
/// operand read — body operand, branch condition, return value, or phi
/// operand on its edge — is not provably defined there.
fn must_defined_ok(f: &Function, shapes: &[BlockShape], preds: &[Vec<BlockId>]) -> Option<()> {
    let n = f.num_values();
    let entry_in = {
        let mut d = Defined::empty(n);
        for &p in &f.params {
            d.set(p);
        }
        for v in f.value_ids() {
            if is_const(f, v) {
                d.set(v);
            }
        }
        d
    };
    let mut outs: Vec<Defined> = vec![Defined::full(n); shapes.len()];
    // One scratch set serves every block: a changed out-state is swapped
    // in, and the old one becomes the next block's scratch.
    let mut d = Defined::full(n);
    // Fixpoint: defined sets only shrink from ⊤, so this terminates.
    loop {
        let mut changed = false;
        for (bi, shape) in shapes.iter().enumerate() {
            d.become_block_in(bi, &entry_in, &preds[bi], &outs);
            for &phi in &shape.phis {
                d.set(phi);
            }
            for &v in &shape.body {
                d.set(v);
            }
            if d != outs[bi] {
                std::mem::swap(&mut outs[bi], &mut d);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Use checks against the converged solution. Body operands are read
    // sequentially within the block, so track the running defined set.
    for (bi, shape) in shapes.iter().enumerate() {
        d.become_block_in(bi, &entry_in, &preds[bi], &outs);
        for &phi in &shape.phis {
            d.set(phi);
        }
        for &v in &shape.body {
            let i = f.instr(v).expect("checked instr");
            let used: &[ValueId] = match i.opcode {
                // Br has no operands; CondBr reads only the condition;
                // Ret reads its optional operand.
                Opcode::Br => &[],
                Opcode::CondBr => &i.operands[..1],
                _ => &i.operands,
            };
            for &u in used {
                if !is_const(f, u) && !d.get(u) {
                    return None;
                }
            }
            d.set(v);
        }
        // Phi operands evaluate on the edge, reading end-of-predecessor
        // state.
        for &p in &preds[bi] {
            for &phi in &shape.phis {
                let i = f.instr(phi).expect("checked instr");
                let k = i
                    .incoming
                    .iter()
                    .position(|&b| b == p)
                    .expect("checked coverage");
                let u = i.operands[k];
                if !is_const(f, u) && !outs[p.0 as usize].get(u) {
                    return None;
                }
            }
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile_text(text: &str) -> ssair::Module {
        ssair::parser::parse_module(text).expect("test IR parses")
    }

    #[test]
    fn every_math_intrinsic_is_evaluated_with_its_arity() {
        for &(name, arity) in ssair::MATH_INTRINSICS {
            let intrinsic = Intrinsic::by_name(name).unwrap_or_else(|| panic!("{name}"));
            assert!(
                intrinsic.eval(&vec![Value::F(0.5); arity]).is_ok(),
                "{name}"
            );
            let call = |n: usize| {
                let args = vec!["double 0.5"; n].join(", ");
                compile_text(&format!(
                    "define double @f() {{\nentry:\n  %r = call double @{name}({args})\n  ret double %r\n}}\n"
                ))
            };
            let walk = |m: &ssair::Module| crate::Machine::new(m).run("f", &[]);
            assert!(walk(&call(arity)).is_ok(), "{name}/{arity}");
            assert!(walk(&call(arity + 1)).is_err(), "{name}/{}", arity + 1);
        }
    }

    #[test]
    fn straight_line_and_loop_functions_compile() {
        let m = compile_text(
            r#"
define i64 @sum(i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i.next, %latch ]
  %acc = phi i64 [ 0, %entry ], [ %acc.next, %latch ]
  %cond = icmp slt i64 %i, %n
  br i1 %cond, label %latch, label %exit
latch:
  %acc.next = add i64 %acc, %i
  %i.next = add i64 %i, 1
  br label %header
exit:
  ret i64 %acc
}
"#,
        );
        let c = compile_module(&m);
        assert_eq!(c.compiled_count(), 1);
        let cf = c.funcs[0].as_ref().unwrap();
        // Two edges into the phi-bearing header → two move snippets.
        let snippets = cf
            .code
            .iter()
            .filter(|op| matches!(op, Op::PhiMoves { .. }))
            .count();
        assert_eq!(snippets, 2);
        // Every branch target was patched.
        for op in &cf.code {
            match op {
                Op::Jump { target } => assert_ne!(*target, u32::MAX),
                Op::CondJump {
                    on_true, on_false, ..
                } => {
                    assert_ne!(*on_true, u32::MAX);
                    assert_ne!(*on_false, u32::MAX);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn the_suite_emits_every_superinstruction() {
        // [CastGepLoad, CastGep, GepLoad, CmpJump, JumpMoves]
        let mut seen = [0usize; 5];
        for b in benchsuite::all() {
            let m = minicc::compile(b.source, b.name).expect("suite compiles");
            let c = compile_module(&m);
            for cf in c.funcs.iter().flatten() {
                for (pc, op) in cf.code.iter().enumerate() {
                    let k = match op {
                        Op::CastGepLoad { .. } => 0,
                        Op::CastGep { .. } => 1,
                        Op::GepLoad { .. } => 2,
                        Op::CmpJump { .. } => 3,
                        Op::JumpMoves { snippet, .. } => {
                            let snippet = &cf.code[*snippet as usize];
                            assert!(matches!(snippet, Op::PhiMoves { .. }));
                            4
                        }
                        _ => continue,
                    };
                    seen[k] += 1;
                    // The constituents after the head stay plain ops.
                    let plain = |i: usize| &cf.code[pc + i];
                    match op {
                        Op::CastGepLoad { .. } => {
                            assert!(matches!(plain(1), Op::Gep { .. }));
                            assert!(matches!(plain(2), Op::Load { .. }));
                        }
                        Op::CastGep { .. } => assert!(matches!(plain(1), Op::Gep { .. })),
                        Op::GepLoad { .. } => assert!(matches!(plain(1), Op::Load { .. })),
                        Op::CmpJump { .. } => assert!(matches!(plain(1), Op::CondJump { .. })),
                        _ => {}
                    }
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "fused ops per kind: {seen:?}");
    }

    #[test]
    fn constants_are_prefilled_in_the_register_template() {
        let m = compile_text(
            "define i32 @f(i32 %a) {\nentry:\n  %x = add i32 %a, 7\n  ret i32 %x\n}\n",
        );
        let c = compile_module(&m);
        let cf = c.funcs[0].as_ref().unwrap();
        assert!(cf.init_regs.contains(&Value::I(7)));
    }

    #[test]
    fn entry_phi_is_refused() {
        // An entry-block phi is a *runtime* walker error (and a verifier
        // error); the bytecode tier must refuse the function.
        let mut m = compile_text(
            "define i64 @f(i64 %a) {\nentry:\n  %x = add i64 %a, 1\n  ret i64 %x\n}\n",
        );
        m.functions[0].append_phi(BlockId(0), Type::I64);
        let c = compile_module(&m);
        assert!(c.funcs[0].is_none(), "entry phi must be refused");
    }

    #[test]
    fn a_swapped_function_runs_in_place_and_is_restored() {
        let m = compile_text(
            r#"
define i64 @sq(i64 %x) {
entry:
  %r = mul i64 %x, %x
  ret i64 %r
}

define i64 @f(i64 %x) {
entry:
  %a = call i64 @sq(i64 %x)
  ret i64 %a
}
"#,
        );
        let cube = compile_text(
            r#"
define i64 @sq(i64 %x) {
entry:
  %r = mul i64 %x, %x
  %c = mul i64 %r, %x
  %n = call i64 @negate(i64 %c)
  ret i64 %n
}
"#,
        );
        let run = |c: &CompiledModule<'_>| {
            let mut vm = crate::Vm::new(c);
            let negate = |_: &mut crate::Memory, a: &[Value]| match a {
                [Value::I(x)] => Ok(Value::I(-x)),
                _ => Err("negate takes one integer".to_owned()),
            };
            vm.register_host("negate", std::sync::Arc::new(negate));
            vm.run("f", &[Value::I(3)]).unwrap()
        };
        let mut c = compile_module(&m);
        let mut code = c.compile_function(&cube.functions[0]).expect("@sq exists");
        assert_eq!(c.with_function(&mut code, run), Value::I(-27));
        assert_eq!(run(&c), Value::I(9), "the module's own code is back");
        // The new callee stays interned; no module call site uses it.
        assert_eq!(c.symbols, ["sq", "negate"]);
        assert!(c.compile_function(&m.functions[0]).is_some());
        let g = ssair::Function::new("absent", &[], ssair::Type::Void);
        assert!(c.compile_function(&g).is_none());
    }

    #[test]
    fn detached_code_attaches_only_to_a_module_with_its_functions() {
        let text = "define i64 @id(i64 %x) {\nentry:\n  ret i64 %x\n}\n";
        let m = compile_text(text);
        let other = compile_text(&text.replace("@id", "@other"));
        assert!(compile_module(&m).detach().attach(&other).is_none());
        let code = compile_module(&m).detach();
        let c = code.attach(&m).expect("attaches to its own module");
        assert_eq!(
            crate::Vm::new(&c).run("id", &[Value::I(7)]).unwrap(),
            Value::I(7)
        );
    }

    #[test]
    fn calls_are_prebound_and_symbols_interned() {
        let m = compile_text(
            r#"
define i64 @sq(i64 %x) {
entry:
  %r = mul i64 %x, %x
  ret i64 %r
}

define double @f(i64 %x, double %y) {
entry:
  %a = call i64 @sq(i64 %x)
  %b = call double @sqrt(double %y)
  %c = call double @mystery(double %y)
  ret double %c
}
"#,
        );
        let c = compile_module(&m);
        let cf = c.funcs[1].as_ref().unwrap();
        assert_eq!(cf.sites.len(), 3);
        assert!(matches!(cf.sites[0].target, CallTarget::Function(0)));
        assert!(matches!(cf.sites[1].target, CallTarget::Intrinsic(_)));
        assert!(matches!(cf.sites[2].target, CallTarget::Unknown));
        assert_eq!(c.symbols.len(), 3);
        assert_eq!(c.sym_index.len(), 3);
    }

    #[test]
    fn possibly_undefined_operand_is_refused() {
        // %x is only defined on the `then` path; the walker reports
        // "use of undefined value" at runtime when `join` reads it after
        // coming from `entry` — must-defined has to reject this.
        let m = compile_text(
            r#"
define i64 @f(i64 %a) {
entry:
  %c = icmp sgt i64 %a, 0
  br i1 %c, label %then, label %join
then:
  %x = add i64 %a, 1
  br label %join
join:
  %r = add i64 %x, 2
  ret i64 %r
}
"#,
        );
        let c = compile_module(&m);
        assert!(c.funcs[0].is_none(), "maybe-undefined use must be refused");
    }
}
