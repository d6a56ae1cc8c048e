//! Idiom replacement (paper §6.1/§6.2) with native soundness checks
//! (§6.3), in two steps.
//!
//! **Plan.** `plan` reads the target function and never changes it.
//! Every fallible step happens here, on one set of analyses (detection's,
//! when the driver has not rewritten the function since): the §6.3
//! soundness and legality checks (which yield the verdict and
//! certificate), the backend's shape checks, kernel slicing, building,
//! verifying and optimizing the generated device program, and the check
//! that every call argument is available at the call site. For the
//! library path the call targets a fixed-function API entry point
//! (`gemm_f64`, `csrmv_f64` — installed by the `hetero` crate); for the
//! DSL path the plan carries the *generated* device program (an IR
//! function standing in for the OpenCL that Lift/Halide would emit), and
//! the call targets it. The kernel slice is emitted straight into the
//! device loop's body, as the device compiler would inline it, so the
//! loop calls nothing per element. The plan then runs [`ssair::opt`]
//! over the device program, as the device compiler would optimize it,
//! instead of placing hoisted or shared work by hand.
//!
//! **Commit.** `commit` excises the matched loop nest on a clone of the
//! one target function: it inserts the call before the preheader branch,
//! retargets that branch to the loop's successor block, removes the
//! now-unreachable loop blocks and verifies the result. Only a verified
//! function is swapped in, followed by the generated device program, so a
//! refused rewrite leaves the module exactly as it was.

use crate::outline::KernelSlice;
use analysis::{LegalityVerdict, ParamAliasFacts, SafetyCertificate, VerdictKind};
use idioms::{IdiomInstance, IdiomKind};
use ssair::analysis::{address_root, AffineMap, Analyses};
use ssair::pass::{eliminate_dead_code, remove_unreachable_blocks, rewrite_uses};
use ssair::{
    BlockId, Function, ICmpPred, InsertPoint, Instr, Module, Opcode, Type, ValueId, ValueKind,
};

/// A transformation failure. `Unsupported` marks idiom shapes the backend
/// cannot express (detection stands, no rewrite happens); `Unsound` marks
/// §6.3 violations (side effects or live-outs the replacement would lose).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XformError {
    /// Shape outside the backend's calling convention.
    Unsupported(String),
    /// Replacement would change observable behaviour.
    Unsound(String),
}

impl std::fmt::Display for XformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XformError::Unsupported(m) => write!(f, "unsupported idiom shape: {m}"),
            XformError::Unsound(m) => write!(f, "replacement would be unsound: {m}"),
        }
    }
}

impl std::error::Error for XformError {}

type Result<T> = std::result::Result<T, XformError>;

/// Description of an applied replacement.
#[derive(Debug, Clone)]
pub struct Replacement {
    /// The idiom kind.
    pub kind: IdiomKind,
    /// The API entry point or generated device function the call targets.
    pub callee: String,
    /// Names of the functions generated and appended to the module: the
    /// one device program for the DSL path, nothing for library calls.
    pub generated: Vec<String>,
    /// The legality verdict that admitted this replacement (never
    /// [`VerdictKind::Rejected`] — rejection aborts the rewrite as
    /// [`XformError::Unsound`] before anything commits).
    pub verdict: LegalityVerdict,
    /// The parallel-safety certificate of the excised region, refined
    /// with whatever call-site alias facts the caller supplied.
    pub certificate: SafetyCertificate,
}

/// One argument of the call a plan inserts: an existing value, or an
/// `i64`/`f64` constant that [`commit`] interns in argument order.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Arg {
    Value(ValueId),
    Int(i64),
    Float(f64),
}

/// The call a backend builds to replace its instance's loop nest.
struct Call {
    /// The API entry point, or the name of the generated device program.
    callee: String,
    args: Vec<Arg>,
    /// The value whose uses the call's result takes over, if any.
    result: Option<ValueId>,
    /// The verified device program; none for library calls.
    generated: Option<Function>,
}

impl Call {
    /// A call to a fixed-function library entry point.
    fn library(callee: &str, args: Vec<Arg>) -> Call {
        Call {
            callee: callee.into(),
            args,
            result: None,
            generated: None,
        }
    }

    /// A call to the built device program, which gets linked once the
    /// optimizer has run over it. A device program that fails to verify
    /// refuses the rewrite; the optimizer takes verified IR and returns
    /// verified IR.
    fn device(Device { mut d, args, .. }: Device) -> Result<Call> {
        ssair::verify::verify_function(&d).map_err(|es| {
            XformError::Unsupported(format!(
                "generated device code failed to verify: {}",
                es.first().map(ToString::to_string).unwrap_or_default()
            ))
        })?;
        ssair::opt::optimize_function(&mut d);
        debug_assert!(
            ssair::verify::verify_function(&d).is_ok(),
            "the optimizer broke @{}",
            d.name
        );
        Ok(Call {
            callee: d.name.clone(),
            args,
            result: None,
            generated: Some(d),
        })
    }
}

/// A replacement that passed every check, computed from the target
/// function without changing it; [`commit`] applies it.
pub(crate) struct Plan {
    kind: IdiomKind,
    call: Call,
    /// The preheader branch the call goes in front of.
    precursor: ValueId,
    pre_block: BlockId,
    /// The loop header the branch leaves, and the successor it takes.
    header_block: BlockId,
    exit_block: BlockId,
    verdict: LegalityVerdict,
    certificate: SafetyCertificate,
}

/// The block holding the instruction bound as `what`; a binding that no
/// block holds (an argument, a constant) refuses the rewrite.
fn placed(an: &Analyses, v: ValueId, what: &str) -> Result<BlockId> {
    an.layout
        .block_of(v)
        .ok_or_else(|| XformError::Unsupported(format!("{what} not placed")))
}

fn bind(inst: &IdiomInstance, name: &str) -> Result<ValueId> {
    inst.value(name)
        .ok_or_else(|| XformError::Unsupported(format!("missing binding {name:?}")))
}

/// Binds `names` in order as call arguments.
fn bind_args(inst: &IdiomInstance, names: &[&str]) -> Result<Vec<Arg>> {
    names
        .iter()
        .map(|n| bind(inst, n).map(Arg::Value))
        .collect()
}

fn const_f64(f: &Function, v: ValueId) -> Option<f64> {
    match f.value(v).kind {
        ValueKind::ConstFloat(c) => Some(c),
        _ => None,
    }
}

fn const_i64(f: &Function, v: ValueId) -> Option<i64> {
    match f.value(v).kind {
        ValueKind::ConstInt(c) => Some(c),
        _ => None,
    }
}

/// All stores and impure calls inside the instance's loop region.
fn region_side_effects(f: &Function, inst: &IdiomInstance) -> (Vec<ValueId>, Vec<ValueId>) {
    let mut stores = Vec::new();
    let mut calls = Vec::new();
    for &b in &inst.blocks {
        for &v in &f.block(b).instrs {
            match f.opcode(v) {
                Some(Opcode::Store) => stores.push(v),
                Some(Opcode::Call) if !f.instr(v).is_some_and(Instr::is_math_call) => {
                    calls.push(v);
                }
                _ => {}
            }
        }
    }
    (stores, calls)
}

/// Values defined inside the region that are used outside it.
fn region_live_outs(f: &Function, an: &Analyses, inst: &IdiomInstance) -> Vec<ValueId> {
    let mut outs = Vec::new();
    for &b in &inst.blocks {
        for &v in &f.block(b).instrs {
            let escapes = an.defuse.users(v).iter().any(|&u| {
                an.layout
                    .block_of(u)
                    .is_none_or(|ub| !inst.blocks.contains(&ub))
            });
            if escapes {
                outs.push(v);
            }
        }
    }
    outs
}

/// Re-validates the §6.3 side conditions for replacing `inst` in `f`:
/// the region must contain no memory writes or impure calls beyond the
/// matched ones, and no values other than the matched result may flow out
/// of the region. Module-level call-site alias facts refine the verdict;
/// returns the evidence-carrying legality verdict that admits the
/// replacement plus the region's parallel-safety certificate. A
/// [`VerdictKind::Rejected`] verdict surfaces as [`XformError::Unsound`].
fn check_soundness(
    f: &Function,
    an: &Analyses,
    map: &AffineMap,
    inst: &IdiomInstance,
    facts: Option<&ParamAliasFacts>,
) -> Result<(LegalityVerdict, SafetyCertificate)> {
    let (stores, calls) = region_side_effects(f, inst);
    if !calls.is_empty() {
        return Err(XformError::Unsound(
            "impure call inside the replaced region".into(),
        ));
    }
    let allowed_result: Option<ValueId> = match inst.kind {
        IdiomKind::Reduction => Some(bind(inst, "acc")?),
        _ => None,
    };
    let allowed_stores: Vec<ValueId> = match inst.kind {
        IdiomKind::Reduction => vec![],
        IdiomKind::Histogram => vec![bind(inst, "store")?],
        IdiomKind::Stencil1D | IdiomKind::Stencil2D => vec![bind(inst, "write.store")?],
        IdiomKind::Spmv | IdiomKind::Gemm => vec![bind(inst, "output.store")?],
    };
    for s in stores {
        if allowed_stores.contains(&s) {
            continue;
        }
        // GEMM tolerates the output-zeroing store of the Figure-8 second
        // form: same output object, zero value, and a zero-initialized
        // accumulator — the replacement overwrites the output anyway.
        if inst.kind == IdiomKind::Gemm {
            let store_addr = f.instr(s).expect("store").operands[1];
            let out_base = bind(inst, "output.base_pointer")?;
            let zeroed = const_f64(f, f.instr(s).expect("store").operands[0]) == Some(0.0);
            let init_zero = const_f64(f, bind(inst, "dot.init")?) == Some(0.0)
                || matches!(f.opcode(bind(inst, "dot.init")?), Some(Opcode::Load));
            if address_root(f, store_addr) == address_root(f, out_base) && zeroed && init_zero {
                continue;
            }
        }
        return Err(XformError::Unsound(format!(
            "unmatched store {} inside the replaced region",
            f.display_name(s)
        )));
    }
    // Live-outs: only the matched result value may escape.
    for v in region_live_outs(f, an, inst) {
        if Some(v) == allowed_result {
            continue;
        }
        return Err(XformError::Unsound(format!(
            "value {} defined in the region is used after it",
            f.display_name(v)
        )));
    }
    // Restrict-model legality (§6.3): the region must be pure outside the
    // memory objects the instance reports — every live load rooted at a
    // reported input (or output), every store at a reported output — and
    // every read/write object pair must be proven or assumed disjoint
    // (same-object pairs need per-iteration disjoint affine subscripts).
    let reads: Vec<ValueId> = inst
        .bindings
        .iter()
        .filter(|(k, _)| k.ends_with(".base_pointer") || k.as_str() == "bins")
        .map(|(_, &v)| v)
        .collect();
    let writes: Vec<ValueId> = match inst.kind {
        IdiomKind::Reduction => vec![],
        IdiomKind::Histogram => vec![bind(inst, "bins")?],
        IdiomKind::Stencil1D | IdiomKind::Stencil2D => vec![bind(inst, "write.base_pointer")?],
        IdiomKind::Spmv | IdiomKind::Gemm => vec![bind(inst, "output.base_pointer")?],
    };
    let outer_iv = inst.value(inst.kind.outer_iterator_var());
    let verdict =
        analysis::check_region_legality(f, an, map, &inst.blocks, &reads, &writes, outer_iv, facts);
    if verdict.kind == VerdictKind::Rejected {
        return Err(XformError::Unsound(format!(
            "legality rejected: {}",
            verdict.evidence.join("; ")
        )));
    }
    let certificate = match outer_iv {
        Some(iv) => analysis::classify_region(f, an, map, &inst.blocks, iv, facts),
        None => SafetyCertificate::serial("no outer iterator binding"),
    };
    Ok((verdict, certificate))
}

/// Applies the best available replacement of `inst` inside
/// `module.functions[..]` (looked up by `inst.function`) and appends any
/// generated device program to the module. `uid` disambiguates generated
/// names. The rewrite is transactional: on `Err` the module is unchanged.
pub fn apply_replacement(
    module: &mut Module,
    inst: &IdiomInstance,
    uid: usize,
) -> Result<Replacement> {
    let fidx = module
        .functions
        .iter()
        .position(|f| f.name == inst.function)
        .ok_or_else(|| XformError::Unsupported("function not in module".into()))?;
    let f = &module.functions[fidx];
    let an = Analyses::new(f);
    let map = AffineMap::new(f, &an);
    let plan = plan(f, &an, &map, inst, uid, None)?;
    commit(module, fidx, plan)
}

/// Plans the replacement of `inst` in `f` on one set of its analyses
/// (`an`, `map`), with whatever module-level call-site alias facts the
/// caller has: soundness first, then the kind's backend, then the call
/// site.
pub(crate) fn plan(
    f: &Function,
    an: &Analyses,
    map: &AffineMap,
    inst: &IdiomInstance,
    uid: usize,
    facts: Option<&ParamAliasFacts>,
) -> Result<Plan> {
    let (verdict, certificate) = check_soundness(f, an, map, inst, facts)?;
    let call = match inst.kind {
        IdiomKind::Gemm => plan_gemm(f, inst),
        IdiomKind::Spmv => plan_spmv(f, inst),
        IdiomKind::Reduction => plan_reduction(f, inst, uid),
        IdiomKind::Histogram => plan_histogram(f, an, inst, uid),
        IdiomKind::Stencil1D => plan_stencil1d(f, inst, uid),
        IdiomKind::Stencil2D => plan_stencil2d(f, inst, uid),
    }?;
    // The outer loop's precursor/iterator/successor share one prefix.
    let iterator = inst.kind.outer_iterator_var();
    let prefix = iterator.trim_end_matches("iterator");
    let precursor = bind(inst, &format!("{prefix}precursor"))?;
    let header_phi = bind(inst, iterator)?;
    let successor = bind(inst, &format!("{prefix}successor"))?;
    let pre_block = placed(an, precursor, "precursor")?;
    let header_block = placed(an, header_phi, "iterator")?;
    let exit_block = placed(an, successor, "successor")?;
    // All call operands must be available before the precursor.
    for &a in &call.args {
        if let Arg::Value(v) = a {
            if f.is_instruction(v) && !an.inst_strictly_dominates(v, precursor) {
                return Err(XformError::Unsupported(format!(
                    "call argument {} is not available at the call site",
                    f.display_name(v)
                )));
            }
        }
    }
    debug_assert!(
        call.result
            .is_none_or(|r| !call.args.contains(&Arg::Value(r))),
        "result value used as call argument"
    );
    Ok(Plan {
        kind: inst.kind,
        call,
        precursor,
        pre_block,
        header_block,
        exit_block,
        verdict,
        certificate,
    })
}

/// Applies `plan` to `module.functions[fidx]`: inserts the call before
/// the precursor branch, retargets that branch from the loop header to
/// the loop successor, removes the dead loop blocks and cleans up — all
/// on a clone of the one function. Only when the edited clone verifies
/// is it swapped in and is the generated device program appended.
pub(crate) fn commit(module: &mut Module, fidx: usize, plan: Plan) -> Result<Replacement> {
    let Plan {
        kind,
        call,
        precursor,
        pre_block,
        header_block,
        exit_block,
        verdict,
        certificate,
    } = plan;
    let mut f = module.functions[fidx].clone();
    let args = call
        .args
        .iter()
        .map(|&a| match a {
            Arg::Value(v) => v,
            Arg::Int(c) => f.const_int(Type::I64, c),
            Arg::Float(c) => f.const_float(Type::F64, c),
        })
        .collect();
    let instr = Instr::call(&call.callee, args);
    let ret_ty = call.generated.as_ref().map_or(Type::Void, |g| g.ret_ty);
    let result = f.insert(pre_block, InsertPoint::BeforeTerminator, ret_ty, instr);
    if let Some(old) = call.result {
        rewrite_uses(&mut f, &[(old, result)]);
    }
    let branch = f.instr_mut(precursor).expect("branch");
    for t in &mut branch.targets {
        if *t == header_block {
            *t = exit_block;
        }
    }
    remove_unreachable_blocks(&mut f);
    eliminate_dead_code(&mut f);
    ssair::verify::verify_function(&f).map_err(|es| {
        XformError::Unsound(format!(
            "excision produced invalid IR: {}",
            es.first().map(ToString::to_string).unwrap_or_default()
        ))
    })?;
    module.functions[fidx] = f;
    let generated = call.generated.iter().map(|g| g.name.clone()).collect();
    module.functions.extend(call.generated);
    Ok(Replacement {
        kind,
        callee: call.callee,
        generated,
        verdict,
        certificate,
    })
}

// ----- library path -----

fn plan_gemm(f: &Function, inst: &IdiomInstance) -> Result<Call> {
    // Bounds must start at zero for the fixed-function entry point.
    for lo in [
        "loop[0].iter_begin",
        "loop[1].iter_begin",
        "loop[2].iter_begin",
    ] {
        if const_i64(f, bind(inst, lo)?) != Some(0) {
            return Err(XformError::Unsupported("GEMM loops must start at 0".into()));
        }
    }
    let init = bind(inst, "dot.init")?;
    let beta = if const_f64(f, init) == Some(0.0) {
        0.0
    } else if f.opcode(init) == Some(Opcode::Load) {
        1.0
    } else {
        return Err(XformError::Unsupported(
            "GEMM accumulator init is neither 0 nor C".into(),
        ));
    };
    // The plain form stores the accumulator; the alpha/beta epilogue is
    // detected but not offloaded by this backend.
    if bind(inst, "output.value")? != bind(inst, "dot.acc")? {
        return Err(XformError::Unsupported(
            "GEMM epilogue with alpha/beta scaling is not offloaded".into(),
        ));
    }
    let row_scaled = |mat: &str, row_var: &str| {
        Arg::Int(i64::from(
            inst.value(&format!("{mat}.addr.mulidx")) == inst.value(row_var),
        ))
    };
    let mut args = bind_args(
        inst,
        &[
            "input1.base_pointer",
            "input2.base_pointer",
            "output.base_pointer",
            "loop[0].iter_end",
            "loop[1].iter_end",
            "loop[2].iter_end",
            "input1.addr.stride",
            "input2.addr.stride",
            "output.addr.stride",
        ],
    )?;
    args.extend([
        row_scaled("input1", "iterator[2]"),
        row_scaled("input2", "iterator[2]"),
        row_scaled("output", "iterator[1]"),
        Arg::Float(beta),
    ]);
    Ok(Call::library("gemm_f64", args))
}

fn plan_spmv(f: &Function, inst: &IdiomInstance) -> Result<Call> {
    if const_i64(f, bind(inst, "iter_begin")?) != Some(0) {
        return Err(XformError::Unsupported(
            "SPMV outer loop must start at 0".into(),
        ));
    }
    if const_f64(f, bind(inst, "dot.init")?) != Some(0.0) {
        return Err(XformError::Unsupported(
            "SPMV accumulator must start at 0.0".into(),
        ));
    }
    let width =
        |v: ValueId| -> i64 { f.value(v).ty.pointee().map_or(8, |t| t.size_bytes() as i64) };
    let rowptr = bind(inst, "ranges.base_pointer")?;
    let colidx = bind(inst, "idx_read.base_pointer")?;
    let mut args = bind_args(inst, &["seq_read.base_pointer"])?;
    args.extend([Arg::Value(rowptr), Arg::Value(colidx)]);
    args.extend(bind_args(
        inst,
        &["indir_read.base_pointer", "output.base_pointer", "iter_end"],
    )?);
    args.extend([Arg::Int(width(rowptr)), Arg::Int(width(colidx))]);
    Ok(Call::library("csrmv_f64", args))
}

// ----- DSL path: build the device program around the kernel slice -----
//
// Each plan builds its device loop plainly, every address computed where
// the body uses it, and `Call::device` runs the optimizer over it: fold
// drops `+ 0`, CSE merges the address arithmetic of reads that share a
// stride, and LICM hoists Stencil2D's row terms into `%pre1`. Value and
// block names, block order and instruction order are part of the printed
// transformed IR that `tests/replace_suite.rs` pins by hash.

/// A device program under construction for an instance in `f`, with the
/// host arguments of the call to it: each parameter is declared together
/// with the host value the call passes for it.
struct Device<'a> {
    f: &'a Function,
    inst: &'a IdiomInstance,
    d: Function,
    args: Vec<Arg>,
}

impl<'a> Device<'a> {
    fn new(f: &'a Function, inst: &'a IdiomInstance, name: String, ret_ty: Type) -> Self {
        Device {
            f,
            inst,
            d: Function::new(name, &[], ret_ty),
            args: Vec::new(),
        }
    }

    /// Declares `%name`, typed like the host value `host` the call passes.
    fn param(&mut self, name: &str, host: ValueId) -> ValueId {
        self.args.push(Arg::Value(host));
        self.d.add_param(name, self.f.value(host).ty)
    }

    /// Declares `%name` for the host value bound to `var`.
    fn bound(&mut self, name: &str, var: &str) -> Result<ValueId> {
        Ok(self.param(name, bind(self.inst, var)?))
    }

    /// Declares `%b{r}` for the base pointer of each of the `n` reads.
    fn read_bases(&mut self, n: usize) -> Result<Vec<ValueId>> {
        (0..n)
            .map(|r| self.bound(&format!("b{r}"), &format!("read[{r}].base_pointer")))
            .collect()
    }

    /// Declares `%{prefix}{k}` for the `k`-th value of `hosts`.
    fn params(&mut self, prefix: &str, hosts: &[ValueId]) -> Vec<ValueId> {
        (hosts.iter().enumerate())
            .map(|(k, &h)| self.param(&format!("{prefix}{k}"), h))
            .collect()
    }

    /// The parameter already declared for `host`, or else a new `%name`:
    /// one parameter per host value, so that CSE sees equal values as
    /// equal. It searches every parameter declared so far, so declare the
    /// ones an executor rewrites per launch (hetero's stencil executors
    /// chunk `%begin`/`%end` and `%b0r`/`%e0r`) after the last shared one.
    fn shared(&mut self, name: &str, host: ValueId) -> ValueId {
        match self.args.iter().position(|&a| a == Arg::Value(host)) {
            Some(k) => self.d.params[k],
            None => self.param(name, host),
        }
    }
}

/// Appends `op` over `operands` to `block` as the value `%name`.
fn emit(
    d: &mut Function,
    block: BlockId,
    name: impl Into<String>,
    ty: Type,
    op: Opcode,
    operands: Vec<ValueId>,
) -> ValueId {
    let v = d.append_simple(block, ty, op, operands);
    d.set_name(v, name);
    v
}

/// `v + c` in `block` as `%name` (the optimizer folds `+ 0`).
fn offset(d: &mut Function, block: BlockId, v: ValueId, c: i64, name: &str) -> ValueId {
    let ty = d.value(v).ty;
    let c = d.const_int(ty, c);
    emit(d, block, name, ty, Opcode::Add, vec![v, c])
}

/// The address of `base[idx]` in `block` as `%name`; an `i32` index is
/// sign-extended to `i64` as `%wide` first.
fn element_addr(
    d: &mut Function,
    block: BlockId,
    base: ValueId,
    idx: ValueId,
    wide: &str,
    name: &str,
) -> ValueId {
    let idx = if d.value(idx).ty == Type::I32 {
        emit(d, block, wide, Type::I64, Opcode::SExt, vec![idx])
    } else {
        idx
    };
    let ty = d.value(base).ty;
    emit(d, block, name, ty, Opcode::Gep, vec![base, idx])
}

/// Loads `base[idx]` in `block` as `%v{r}` through the address `%a{r}`
/// (an `i32` index widened as `%{wide}{r}`); returns the load.
fn emit_indexed_load(
    d: &mut Function,
    block: BlockId,
    r: usize,
    base: ValueId,
    idx: ValueId,
    wide: &str,
) -> ValueId {
    let addr = element_addr(d, block, base, idx, &format!("{wide}{r}"), &format!("a{r}"));
    // A base that is no pointer (only a forged binding can give one) loads
    // `void`, which verification refuses.
    let elem = d.value(base).ty.pointee().unwrap_or(Type::Void);
    emit(d, block, format!("v{r}"), elem, Opcode::Load, vec![addr])
}

/// Enters the counted loop `for (iv = begin; iv < end; iv++)` from `pre`:
/// `header` gets the induction phi `%{iv}` and the test `%{cond}`, which
/// leaves to `body` or `exit`. Returns the phi; [`step_loop`] closes the
/// loop once the body is built.
fn enter_loop(
    d: &mut Function,
    [pre, header, body, exit]: [BlockId; 4],
    [iv, cond]: [&str; 2],
    begin: ValueId,
    end: ValueId,
) -> ValueId {
    d.append_br(pre, header);
    let phi = d.append_phi(header, d.value(begin).ty);
    d.set_name(phi, iv);
    d.add_phi_incoming(phi, begin, pre);
    let slt = Opcode::ICmp(ICmpPred::Slt);
    let cond = emit(d, header, cond, Type::I1, slt, vec![phi, end]);
    d.append_condbr(header, cond, body, exit);
    phi
}

/// Adds the blocks `header`, `latch` (the body) and `exit` of a one-loop
/// device program (Reduction, Histogram, Stencil1D) and enters its loop
/// `%i` from `entry`; returns the blocks and `%i`.
fn one_loop(d: &mut Function, begin: ValueId, end: ValueId) -> ([BlockId; 3], ValueId) {
    let [header, latch, exit] = ["header", "latch", "exit"].map(|b| d.add_block(b));
    let i = enter_loop(d, [BlockId(0), header, latch, exit], ["i", "c"], begin, end);
    ([header, latch, exit], i)
}

/// Ends the body of the loop on `iv` at `latch`: steps `iv` as `%{next}`
/// and branches back to `header`.
fn step_loop(d: &mut Function, latch: BlockId, header: BlockId, iv: ValueId, next: &str) {
    let ty = d.value(iv).ty;
    let one = d.const_int(ty, 1);
    let stepped = emit(d, latch, next, ty, Opcode::Add, vec![iv, one]);
    d.append_br(latch, header);
    d.add_phi_incoming(iv, stepped, latch);
}

fn check_step_and_cmp(f: &Function, inst: &IdiomInstance, prefix: &str) -> Result<()> {
    let step = bind(inst, &format!("{prefix}step"))?;
    if const_i64(f, step) != Some(1) {
        return Err(XformError::Unsupported(
            "only unit-stride loops are offloaded".into(),
        ));
    }
    let cmp = bind(inst, &format!("{prefix}comparison"))?;
    match f.opcode(cmp) {
        Some(Opcode::ICmp(ICmpPred::Slt)) => Ok(()),
        _ => Err(XformError::Unsupported(
            "only `<` loop bounds are offloaded".into(),
        )),
    }
}

fn plan_reduction(f: &Function, inst: &IdiomInstance, uid: usize) -> Result<Call> {
    check_step_and_cmp(f, inst, "")?;
    let acc = bind(inst, "acc")?;
    let update = bind(inst, "update")?;
    let reads = inst.family("read_value");
    let mut kernel_inputs: Vec<ValueId> = reads.clone();
    kernel_inputs.push(acc);
    let kernel = KernelSlice::new(f, update, &kernel_inputs)
        .ok_or_else(|| XformError::Unsupported("reduction kernel is not pure".into()))?;
    let aty = f.value(acc).ty;

    // Build the device program (the "Lift output"). progen's canary
    // relies on its argument order: bases, bounds, `%init`, extras.
    let mut dev = Device::new(f, inst, format!("lift_red_{uid}"), aty);
    let ptrs = dev.read_bases(reads.len())?;
    let begin = dev.bound("begin", "iter_begin")?;
    let end = dev.bound("end", "iter_end")?;
    let init = dev.bound("init", "init")?;
    let xs = dev.params("x", &kernel.inputs[kernel_inputs.len()..]);
    let d = &mut dev.d;
    let ([header, latch, exit], i) = one_loop(d, begin, end);
    let dacc = d.append_phi(header, aty);
    d.set_name(dacc, "acc");
    d.add_phi_incoming(dacc, init, BlockId(0));
    let mut kargs: Vec<ValueId> = (ptrs.iter().enumerate())
        .map(|(r, &b)| emit_indexed_load(d, latch, r, b, i, "iw"))
        .collect();
    kargs.push(dacc);
    kargs.extend(xs);
    let nacc = kernel.emit(d, latch, &kargs, "nacc");
    step_loop(d, latch, header, i, "inext");
    d.add_phi_incoming(dacc, nacc, latch);
    d.append_ret(exit, Some(dacc));
    Ok(Call {
        result: Some(acc),
        ..Call::device(dev)?
    })
}

fn plan_histogram(f: &Function, an: &Analyses, inst: &IdiomInstance, uid: usize) -> Result<Call> {
    check_step_and_cmp(f, inst, "")?;
    // The update must run every iteration (conditional histograms would
    // need a guarded device kernel; see DESIGN.md).
    let store = bind(inst, "store")?;
    let latch_term = bind(inst, "backedge")?;
    let sb = placed(an, store, "store")?;
    let lb = placed(an, latch_term, "backedge")?;
    if !an.dom.dominates(sb, lb) {
        return Err(XformError::Unsupported(
            "conditional histogram update".into(),
        ));
    }
    let reads = inst.family("read_value");
    let old = bind(inst, "old_value")?;
    let new_value = bind(inst, "new_value")?;
    let bin_idx = bind(inst, "bin_idx")?;
    let mut val_inputs: Vec<ValueId> = reads.clone();
    val_inputs.push(old);
    let vk = KernelSlice::new(f, new_value, &val_inputs)
        .ok_or_else(|| XformError::Unsupported("histogram value kernel is not pure".into()))?;
    let ik = KernelSlice::new(f, bin_idx, &reads)
        .ok_or_else(|| XformError::Unsupported("histogram index kernel is not pure".into()))?;
    let bty = f.value(old).ty;

    let mut dev = Device::new(f, inst, format!("lift_histo_{uid}"), Type::Void);
    let bins = dev.bound("bins", "bins")?;
    let ptrs = dev.read_bases(reads.len())?;
    let begin = dev.bound("begin", "iter_begin")?;
    let end = dev.bound("end", "iter_end")?;
    let ixs = dev.params("ix", &ik.inputs[reads.len()..]);
    let vxs = dev.params("vx", &vk.inputs[val_inputs.len()..]);
    let d = &mut dev.d;
    let ([header, latch, exit], i) = one_loop(d, begin, end);
    let loads: Vec<ValueId> = (ptrs.iter().enumerate())
        .map(|(r, &b)| emit_indexed_load(d, latch, r, b, i, "iw"))
        .collect();
    let xidx = ik.emit(d, latch, &[&loads[..], &ixs].concat(), "xidx");
    let ba = element_addr(d, latch, bins, xidx, "xw", "ba");
    let dold = emit(d, latch, "old", bty, Opcode::Load, vec![ba]);
    let new = vk.emit(d, latch, &[&loads[..], &[dold], &vxs].concat(), "new");
    d.append_simple(latch, Type::Void, Opcode::Store, vec![new, ba]);
    step_loop(d, latch, header, i, "inext");
    d.append_ret(exit, None);
    Call::device(dev)
}

/// Constant offset of `idx` relative to `center` (`i`, `i±c`), or `None`.
fn offset_from(f: &Function, idx: ValueId, center: ValueId) -> Option<i64> {
    // See through one sign extension.
    let idx = match f.instr(idx) {
        Some(i) if i.opcode == Opcode::SExt => i.operands[0],
        _ => idx,
    };
    if idx == center {
        return Some(0);
    }
    let i = f.instr(idx)?;
    match i.opcode {
        Opcode::Add => {
            if i.operands[0] == center {
                const_i64(f, i.operands[1])
            } else if i.operands[1] == center {
                const_i64(f, i.operands[0])
            } else {
                None
            }
        }
        Opcode::Sub if i.operands[0] == center => const_i64(f, i.operands[1]).map(|c| -c),
        _ => None,
    }
}

fn plan_stencil1d(f: &Function, inst: &IdiomInstance, uid: usize) -> Result<Call> {
    check_step_and_cmp(f, inst, "")?;
    let reads = inst.family("read_value");
    let center = bind(inst, "iterator")?;
    let kernel = KernelSlice::new(f, bind(inst, "write.value")?, &reads)
        .ok_or_else(|| XformError::Unsupported("stencil kernel is not pure".into()))?;
    let offsets = (0..reads.len())
        .map(|r| {
            let gep_idx = bind(inst, &format!("read[{r}].gep_idx"))?;
            offset_from(f, gep_idx, center).ok_or_else(|| {
                XformError::Unsupported("stencil read offset is not a constant".into())
            })
        })
        .collect::<Result<Vec<_>>>()?;

    let mut dev = Device::new(f, inst, format!("halide_st1_{uid}"), Type::Void);
    let out = dev.bound("out", "write.base_pointer")?;
    let ptrs = dev.read_bases(reads.len())?;
    let begin = dev.bound("begin", "iter_begin")?;
    let end = dev.bound("end", "iter_end")?;
    let xs = dev.params("x", &kernel.inputs[reads.len()..]);
    let d = &mut dev.d;
    let ([header, latch, exit], i) = one_loop(d, begin, end);
    let mut kargs = Vec::new();
    for (r, (&b, &off)) in ptrs.iter().zip(&offsets).enumerate() {
        let idx = offset(d, latch, i, off, &format!("off{r}"));
        kargs.push(emit_indexed_load(d, latch, r, b, idx, "iw"));
    }
    kargs.extend(xs);
    let res = kernel.emit(d, latch, &kargs, "res");
    let oa = element_addr(d, latch, out, i, "ow", "oa");
    d.append_simple(latch, Type::Void, Opcode::Store, vec![res, oa]);
    step_loop(d, latch, header, i, "inext");
    d.append_ret(exit, None);
    Call::device(dev)
}

fn plan_stencil2d(f: &Function, inst: &IdiomInstance, uid: usize) -> Result<Call> {
    check_step_and_cmp(f, inst, "loop[0].")?;
    check_step_and_cmp(f, inst, "loop[1].")?;
    let reads = inst.family("read_value");
    let row_iter = bind(inst, "loop[0].iterator")?;
    let col_iter = bind(inst, "loop[1].iterator")?;
    let kernel = KernelSlice::new(f, bind(inst, "write.value")?, &reads)
        .ok_or_else(|| XformError::Unsupported("stencil kernel is not pure".into()))?;
    // Write side must be row-major (row in the scaled position).
    if inst.value("write.addr.mulidx") != Some(row_iter) {
        return Err(XformError::Unsupported("transposed stencil output".into()));
    }
    let ity = f.value(row_iter).ty;
    if f.value(col_iter).ty != ity {
        return Err(XformError::Unsupported(
            "mixed-width stencil iterators".into(),
        ));
    }

    let mut dev = Device::new(f, inst, format!("halide_st2_{uid}"), Type::Void);
    let out = dev.bound("out", "write.base_pointer")?;
    let sw = dev.bound("sw", "write.addr.stride")?;
    // Each read's base and stride parameters and constant row and column
    // offsets.
    let mut rs = Vec::new();
    for r in 0..reads.len() {
        let offset_of = |expr: &str, iter: ValueId, what: &str| {
            offset_from(f, bind(inst, &format!("read[{r}].{expr}"))?, iter).ok_or_else(|| {
                XformError::Unsupported(format!("stencil {what} offset is not constant"))
            })
        };
        let (roff, coff) = (
            offset_of("rowexpr", row_iter, "row")?,
            offset_of("colexpr", col_iter, "column")?,
        );
        let b = dev.bound(&format!("b{r}"), &format!("read[{r}].base_pointer"))?;
        let s = dev.shared(&format!("s{r}"), bind(inst, &format!("read[{r}].stride"))?);
        rs.push((b, s, roff, coff));
    }
    let b0r = dev.bound("b0r", "loop[0].iter_begin")?;
    let e0r = dev.bound("e0r", "loop[0].iter_end")?;
    let b1c = dev.bound("b1c", "loop[1].iter_begin")?;
    let e1c = dev.bound("e1c", "loop[1].iter_end")?;
    let xs = dev.params("x", &kernel.inputs[reads.len()..]);
    let d = &mut dev.d;
    let blocks = ["h0", "pre1", "h1", "l1", "x1", "l0", "x0"];
    let [h0, pre1, h1, l1, x1, l0, x0] = blocks.map(|b| d.add_block(b));
    let i = enter_loop(d, [BlockId(0), h0, pre1, x0], ["i", "c0"], b0r, e0r);
    let j = enter_loop(d, [pre1, h1, l1, x1], ["j", "c1"], b1c, e1c);
    // Each read loads `b[(i + roff) * s + (j + coff)]`.
    let mut kargs = Vec::new();
    for (r, &(b, s, roff, coff)) in rs.iter().enumerate() {
        let row = offset(d, l1, i, roff, &format!("ro{r}"));
        let m = emit(d, l1, format!("m{r}"), ity, Opcode::Mul, vec![row, s]);
        let col = offset(d, l1, j, coff, &format!("co{r}"));
        let flat = emit(d, l1, format!("f{r}"), ity, Opcode::Add, vec![m, col]);
        kargs.push(emit_indexed_load(d, l1, r, b, flat, "fw"));
    }
    kargs.extend(xs);
    let res = kernel.emit(d, l1, &kargs, "res");
    let mo = emit(d, l1, "mo", ity, Opcode::Mul, vec![i, sw]);
    let fo = emit(d, l1, "fo", ity, Opcode::Add, vec![mo, j]);
    let oa = element_addr(d, l1, out, fo, "fow", "oa");
    d.append_simple(l1, Type::Void, Opcode::Store, vec![res, oa]);
    step_loop(d, l1, h1, j, "jnext");
    d.append_br(x1, l0);
    step_loop(d, l0, h0, i, "inext");
    d.append_ret(x0, None);
    Call::device(dev)
}
