//! The register bytecode VM — the one production executor.
//!
//! Executes a [`CompiledModule`] with semantics bit-for-bit identical to
//! the tree-walking reference [`crate::Machine`]: the same results, the
//! same `ExecError` messages, the same `max_steps` accounting (one step
//! per executed instruction, phi moves included), and — when profiling is
//! enabled — the same per-`ValueId` execution counts. The differential
//! suite (`tests/vm_differential.rs` and the unit tests below) pins the
//! two together.
//!
//! Verified IR ([`ssair::verify`]) compiles in full. A function the
//! compiler refused is never executed: calling it is an [`ExecError`]
//! naming the function.
//!
//! **One loop, no host recursion.** Every frame lives on one register
//! stack owned by the [`Vm`]: a frame is an offset into it, holding the
//! callee's `init_regs` template with the arguments copied straight from
//! the caller's registers. A call to a module function pushes a return
//! frame and keeps dispatching; `ret` truncates the stack and pops it.
//! Program recursion therefore never recurses on the Rust stack, and a
//! warm [`Vm`] makes no heap allocation per call: the register stack, the
//! return frames and the one scratch buffer (phi moves and host or
//! intrinsic arguments) keep their capacity across calls and runs. The
//! register stack is capped at `MAX_STACK_REGS` values; a call past the
//! cap is an [`ExecError`] ("call stack exhausted"), not an out-of-memory
//! abort.
//!
//! **Checks without messages.** Inside the loop, operand type checks and
//! memory bounds checks return `Option`, with no `String` in sight. When
//! one fails, a single cold path (`fault`) replays the failing op
//! through the message-carrying accessors ([`Value::try_i`],
//! [`Memory::load_f64`], …) and returns exactly the walker's error.
//! Profiling is a `const` parameter of the loop, so the unprofiled
//! instantiation carries no counter code at all.
//!
//! **Superinstructions.** A fused op ([`Op`] documents the contract) bills
//! and profiles its head like any op, then each later constituent in
//! turn. A constituent whose check fails, or that the budget no longer
//! covers, is not run: the loop resumes at its plain op, which sits right
//! behind the head, so a fault or a step-limit stop lands on the same op
//! at the same count as without fusion.

use crate::bytecode::{
    CallSite, CallTarget, CompiledFunction, CompiledModule, FloatOp, IntOp, MemKind, Op, PhiMove,
    NO_VID,
};
use crate::machine::{ExecError, HostFn, HostRegistry, Value};
use crate::memory::Memory;
use crate::profile::Profile;
use ssair::{FCmpPred, ICmpPred};

type Result<T> = std::result::Result<T, ExecError>;

/// The most registers the call stack may hold at once (64 MiB of
/// [`Value`]s): far above any bundled or generated program (the deepest
/// chain of the 21 benchmarks and progen seeds 0..2000 holds 4 frames and
/// 323 registers), and low enough that runaway recursion is an error long
/// before it is an out-of-memory abort.
const MAX_STACK_REGS: usize = 1 << 22;

fn err(msg: impl Into<String>) -> ExecError {
    ExecError {
        message: msg.into(),
    }
}

/// The error for calling a function the compiler refused (verified IR
/// never does). Cold and out of line, like every error constructor here,
/// to keep formatting code out of the dispatch loop.
#[cold]
#[inline(never)]
fn refused(name: &str) -> ExecError {
    err(format!(
        "@{name} did not compile to bytecode (malformed IR: run ssair::verify)"
    ))
}

#[cold]
#[inline(never)]
fn wrong_arity(cf: &CompiledFunction, got: usize) -> ExecError {
    err(format!(
        "@{} expects {} arguments, got {got}",
        cf.name, cf.arity
    ))
}

#[cold]
#[inline(never)]
fn stack_exhausted() -> ExecError {
    err(format!(
        "call stack exhausted: a call would hold more than {MAX_STACK_REGS} registers (runaway recursion?)"
    ))
}

/// A caller waiting for its callee to return.
struct Frame<'c> {
    cf: &'c CompiledFunction,
    fidx: u32,
    /// Offset of the caller's registers in the register stack.
    base: u32,
    /// Where the caller resumes.
    pc: u32,
    /// The caller's register that receives the return value.
    dst: u32,
}

/// The bytecode executor. Create once per run from a shared
/// [`CompiledModule`]; the compile cost is paid once per module, not once
/// per seed or kernel launch.
pub struct Vm<'c> {
    compiled: &'c CompiledModule<'c>,
    /// The linear memory of the run.
    pub mem: Memory,
    /// Hosts by interned call-site symbol.
    host_slots: Vec<Option<HostFn<'c>>>,
    /// Abort knob for runaway programs.
    pub max_steps: u64,
    steps: u64,
    profiling: bool,
    /// Dense per-function execution counts, indexed by module function
    /// index then `ValueId` (only allocated when profiling).
    counts: Vec<Vec<u64>>,
    /// Every live frame's registers, innermost last.
    regs: Vec<Value>,
    /// The callers of the innermost frame, innermost last.
    frames: Vec<Frame<'c>>,
    /// Phi-move sources and host/intrinsic arguments.
    scratch: Vec<Value>,
}

impl<'c> Vm<'c> {
    /// Creates a VM over compiled code with fresh memory. Profiling is
    /// off by default (enable with [`Vm::set_profiling`]).
    #[must_use]
    pub fn new(compiled: &'c CompiledModule<'c>) -> Vm<'c> {
        Vm {
            compiled,
            mem: Memory::new(),
            host_slots: vec![None; compiled.symbols.len()],
            max_steps: 2_000_000_000,
            steps: 0,
            profiling: false,
            counts: Vec::new(),
            regs: Vec::new(),
            frames: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Registers a host function; calls to `name` dispatch to it before
    /// intrinsics and module functions are considered (the walker's
    /// order). A name no call site uses is never called, so it is dropped.
    pub fn register_host(&mut self, name: &str, f: HostFn<'c>) {
        if let Some(&sym) = self.compiled.sym_index.get(name) {
            self.host_slots[sym as usize] = Some(f);
        }
    }

    /// Steps executed so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Turns per-instruction execution counting on or off. Leave it off
    /// on hot paths (validation seeds); turn it on for coverage/offload
    /// analysis.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiling = on;
    }

    /// The collected execution counts as a [`Profile`], mapped back to
    /// `ValueId`s per function name (empty unless profiling was on).
    #[must_use]
    pub fn profile(&self) -> Profile {
        let mut p = Profile::new();
        for (i, counts) in self.counts.iter().enumerate() {
            p.add_counts(&self.compiled.module.functions[i].name, counts);
        }
        p
    }

    /// Runs `func` with `args`; returns its return value (`I(0)` for
    /// void).
    pub fn run(&mut self, func: &str, args: &[Value]) -> Result<Value> {
        let compiled = self.compiled;
        let Some(&idx) = compiled.func_index.get(func) else {
            return Err(err(format!("no function named {func:?}")));
        };
        let idx = idx as usize;
        let Some(cf) = &compiled.funcs[idx] else {
            return Err(refused(&compiled.module.functions[idx].name));
        };
        if args.len() != cf.arity {
            return Err(wrong_arity(cf, args.len()));
        }
        self.regs.clear();
        self.frames.clear();
        if push_frame(&mut self.regs, cf).is_none() {
            return Err(stack_exhausted());
        }
        for (&p, &a) in cf.params.iter().zip(args) {
            self.regs[p as usize] = a;
        }
        if self.profiling {
            self.exec::<true>(idx, cf)
        } else {
            self.exec::<false>(idx, cf)
        }
    }

    /// The dispatch loop, from the entry frame already on the register
    /// stack until it returns or a step fails. `steps` stays in a local
    /// and is written back on the single exit.
    fn exec<const PROFILE: bool>(
        &mut self,
        mut fidx: usize,
        mut cf: &'c CompiledFunction,
    ) -> Result<Value> {
        let Vm {
            compiled,
            mem,
            host_slots,
            max_steps,
            steps: steps_out,
            counts,
            regs,
            frames,
            scratch,
            ..
        } = self;
        let compiled: &'c CompiledModule<'c> = compiled;
        let max_steps = *max_steps;
        let mut steps = *steps_out;
        let mut base = 0usize;
        let mut pc = 0usize;
        let result = 'run: loop {
            // (Re-)entering a frame: it is the top of the register stack.
            let r = &mut regs[base..];
            let code = &cf.code[..];
            'exec: loop {
                let op = &code[pc];
                steps += 1;
                if steps > max_steps {
                    break 'exec;
                }
                if PROFILE {
                    let vid = cf.vids[pc];
                    if vid != NO_VID {
                        bump(counts, compiled, fidx, vid);
                    }
                }
                // Constituent `$k` of the superinstruction at `pc`, whose
                // message-free check gave `$checked`: bills and profiles
                // its step and yields the checked value. A failed check or
                // a spent budget bills nothing and resumes at the
                // constituent's own plain op, which faults or stops there.
                macro_rules! then {
                    ($k:expr, $checked:expr) => {
                        match $checked {
                            Some(x) if steps < max_steps => {
                                steps += 1;
                                if PROFILE {
                                    bump(counts, compiled, fidx, cf.vids[pc + $k]);
                                }
                                x
                            }
                            _ => {
                                pc += $k;
                                continue;
                            }
                        }
                    };
                }
                match op {
                    Op::IntBin {
                        op,
                        wrap,
                        dst,
                        a,
                        b,
                    } => {
                        let (Some(a), Some(b)) = (int(r[*a as usize]), int(r[*b as usize])) else {
                            break 'exec;
                        };
                        let v = match op {
                            IntOp::Add => a.wrapping_add(b),
                            IntOp::Sub => a.wrapping_sub(b),
                            IntOp::Mul => a.wrapping_mul(b),
                            IntOp::Div if b == 0 => break 'exec,
                            IntOp::Div => a.wrapping_div(b),
                            IntOp::Rem if b == 0 => break 'exec,
                            IntOp::Rem => a.wrapping_rem(b),
                            IntOp::And => a & b,
                            IntOp::Or => a | b,
                            IntOp::Xor => a ^ b,
                            IntOp::Shl => a.wrapping_shl(b as u32),
                            IntOp::AShr => a.wrapping_shr(b as u32),
                        };
                        r[*dst as usize] = Value::I(wrap.apply(v));
                        pc += 1;
                    }
                    Op::FloatBin {
                        op,
                        round,
                        dst,
                        a,
                        b,
                    } => {
                        let (Some(a), Some(b)) = (float(r[*a as usize]), float(r[*b as usize]))
                        else {
                            break 'exec;
                        };
                        let v = match op {
                            FloatOp::Add => a + b,
                            FloatOp::Sub => a - b,
                            FloatOp::Mul => a * b,
                            FloatOp::Div => a / b,
                        };
                        r[*dst as usize] = Value::F(if *round { v as f32 as f64 } else { v });
                        pc += 1;
                    }
                    Op::ICmp { pred, dst, a, b } => {
                        let Some(v) = icmp(*pred, r[*a as usize], r[*b as usize]) else {
                            break 'exec;
                        };
                        r[*dst as usize] = Value::I(i64::from(v));
                        pc += 1;
                    }
                    Op::FCmp { pred, dst, a, b } => {
                        let (Some(a), Some(b)) = (float(r[*a as usize]), float(r[*b as usize]))
                        else {
                            break 'exec;
                        };
                        let v = match pred {
                            FCmpPred::Oeq => a == b,
                            FCmpPred::One => a != b,
                            FCmpPred::Olt => a < b,
                            FCmpPred::Ole => a <= b,
                            FCmpPred::Ogt => a > b,
                            FCmpPred::Oge => a >= b,
                        };
                        r[*dst as usize] = Value::I(i64::from(v));
                        pc += 1;
                    }
                    Op::Select {
                        dst,
                        cond,
                        on_true,
                        on_false,
                    } => {
                        let Some(c) = int(r[*cond as usize]) else {
                            break 'exec;
                        };
                        r[*dst as usize] = r[if c != 0 { *on_true } else { *on_false } as usize];
                        pc += 1;
                    }
                    Op::Gep {
                        dst,
                        base,
                        idx,
                        elem,
                    } => {
                        let (Some(p), Some(i)) = (ptr(r[*base as usize]), int(r[*idx as usize]))
                        else {
                            break 'exec;
                        };
                        r[*dst as usize] = Value::P(gep(p, i, *elem));
                        pc += 1;
                    }
                    Op::Load { kind, dst, addr } => {
                        let Some(v) = ptr(r[*addr as usize]).and_then(|p| load(mem, *kind, p))
                        else {
                            break 'exec;
                        };
                        r[*dst as usize] = v;
                        pc += 1;
                    }
                    Op::Store { kind, val, addr } => {
                        let val = r[*val as usize];
                        let Some(p) = ptr(r[*addr as usize]) else {
                            break 'exec;
                        };
                        let stored = match kind {
                            MemKind::I8 => int(val).and_then(|x| mem.write(p, [(x & 1) as u8])),
                            MemKind::I32 => {
                                int(val).and_then(|x| mem.write(p, (x as i32).to_le_bytes()))
                            }
                            MemKind::I64 => int(val).and_then(|x| mem.write(p, x.to_le_bytes())),
                            MemKind::F32 => {
                                float(val).and_then(|x| mem.write(p, (x as f32).to_le_bytes()))
                            }
                            MemKind::F64 => float(val).and_then(|x| mem.write(p, x.to_le_bytes())),
                            MemKind::Ptr => ptr(val).and_then(|x| mem.write(p, x.to_le_bytes())),
                        };
                        if stored.is_none() {
                            break 'exec;
                        }
                        pc += 1;
                    }
                    Op::Alloca { dst, n, elem } => {
                        let Some(n) = int(r[*n as usize]).filter(|&n| n >= 0) else {
                            break 'exec;
                        };
                        let Some(p) = mem.alloc_within_cap(*elem, n as usize) else {
                            break 'exec;
                        };
                        r[*dst as usize] = Value::P(p);
                        pc += 1;
                    }
                    Op::IntCast { wrap, dst, src } => {
                        let Some(x) = int(r[*src as usize]) else {
                            break 'exec;
                        };
                        r[*dst as usize] = Value::I(wrap.apply(x));
                        pc += 1;
                    }
                    Op::SiToFp { round, dst, src } => {
                        let Some(x) = int(r[*src as usize]) else {
                            break 'exec;
                        };
                        let x = x as f64;
                        r[*dst as usize] = Value::F(if *round { x as f32 as f64 } else { x });
                        pc += 1;
                    }
                    Op::FpToSi { wrap, dst, src } => {
                        let Some(x) = float(r[*src as usize]) else {
                            break 'exec;
                        };
                        r[*dst as usize] = Value::I(wrap.apply(x as i64));
                        pc += 1;
                    }
                    Op::FpExt { dst, src } => {
                        let Some(x) = float(r[*src as usize]) else {
                            break 'exec;
                        };
                        r[*dst as usize] = Value::F(x);
                        pc += 1;
                    }
                    Op::FpTrunc { dst, src } => {
                        let Some(x) = float(r[*src as usize]) else {
                            break 'exec;
                        };
                        r[*dst as usize] = Value::F(x as f32 as f64);
                        pc += 1;
                    }
                    Op::Call { site } => {
                        let site = &cf.sites[*site as usize];
                        // Host slot, then intrinsic, then module function
                        // (the walker's order).
                        let host = host_slots[site.sym as usize].as_ref();
                        let callee = match (host, site.target) {
                            (None, CallTarget::Function(callee)) => callee as usize,
                            _ => match call_leaf(compiled, site, host, r, scratch, mem) {
                                Ok(v) => {
                                    r[site.dst as usize] = v;
                                    pc += 1;
                                    continue;
                                }
                                Err(e) => break 'run Err(e),
                            },
                        };
                        let Some(next) = &compiled.funcs[callee] else {
                            break 'run Err(refused(&compiled.module.functions[callee].name));
                        };
                        if site.args.len() != next.arity {
                            break 'run Err(wrong_arity(next, site.args.len()));
                        }
                        let Some(next_base) = push_frame(regs, next) else {
                            break 'run Err(stack_exhausted());
                        };
                        for (&p, &a) in next.params.iter().zip(site.args.iter()) {
                            regs[next_base + p as usize] = regs[base + a as usize];
                        }
                        frames.push(Frame {
                            cf,
                            fidx: fidx as u32,
                            base: base as u32,
                            pc: pc as u32 + 1,
                            dst: site.dst,
                        });
                        (cf, fidx, base, pc) = (next, callee, next_base, 0);
                        continue 'run;
                    }
                    Op::Jump { target } => pc = *target as usize,
                    Op::CondJump {
                        cond,
                        on_true,
                        on_false,
                    } => {
                        let Some(c) = int(r[*cond as usize]) else {
                            break 'exec;
                        };
                        pc = if c != 0 { *on_true } else { *on_false } as usize;
                    }
                    Op::Ret { val } => {
                        let v = val.map_or(Value::I(0), |x| r[x as usize]);
                        let Some(caller) = frames.pop() else {
                            break 'run Ok(v);
                        };
                        regs.truncate(base);
                        (cf, fidx, base, pc) = (
                            caller.cf,
                            caller.fidx as usize,
                            caller.base as usize,
                            caller.pc as usize,
                        );
                        regs[base + caller.dst as usize] = v;
                        continue 'run;
                    }
                    Op::PhiMoves { moves, target } => {
                        // The loop billed the first move (a snippet is
                        // never empty); bill the rest.
                        let rest = moves.len() as u64 - 1;
                        if steps + rest > max_steps {
                            // The budget runs out inside the snippet: the
                            // moves that fit still count (and profile).
                            let fit = (max_steps + 1 - steps) as usize;
                            if PROFILE {
                                for mv in &moves[..fit] {
                                    bump(counts, compiled, fidx, mv.dst);
                                }
                            }
                            steps = max_steps + 1;
                            break 'exec;
                        }
                        steps += rest;
                        move_phis(moves, r, scratch);
                        if PROFILE {
                            for mv in moves.iter() {
                                bump(counts, compiled, fidx, mv.dst);
                            }
                        }
                        pc = *target as usize;
                    }
                    Op::CastGepLoad {
                        wrap,
                        kind,
                        src,
                        cast,
                        base,
                        gep: g,
                        dst,
                        elem,
                    } => {
                        let Some(i) = int(r[*src as usize]) else {
                            break 'exec;
                        };
                        let i = wrap.apply(i);
                        r[*cast as usize] = Value::I(i);
                        let p = then!(1, ptr(r[*base as usize]));
                        let p = gep(p, i, *elem);
                        r[*g as usize] = Value::P(p);
                        r[*dst as usize] = then!(2, load(mem, *kind, p));
                        pc += 3;
                    }
                    Op::CastGep {
                        wrap,
                        src,
                        cast,
                        base,
                        dst,
                        elem,
                    } => {
                        let Some(i) = int(r[*src as usize]) else {
                            break 'exec;
                        };
                        let i = wrap.apply(i);
                        r[*cast as usize] = Value::I(i);
                        let p = then!(1, ptr(r[*base as usize]));
                        r[*dst as usize] = Value::P(gep(p, i, *elem));
                        pc += 2;
                    }
                    Op::GepLoad {
                        kind,
                        base,
                        idx,
                        gep: g,
                        dst,
                        elem,
                    } => {
                        let (Some(p), Some(i)) = (ptr(r[*base as usize]), int(r[*idx as usize]))
                        else {
                            break 'exec;
                        };
                        let p = gep(p, i, *elem);
                        r[*g as usize] = Value::P(p);
                        r[*dst as usize] = then!(1, load(mem, *kind, p));
                        pc += 2;
                    }
                    Op::CmpJump {
                        pred,
                        dst,
                        a,
                        b,
                        on_true,
                        on_false,
                    } => {
                        let Some(v) = icmp(*pred, r[*a as usize], r[*b as usize]) else {
                            break 'exec;
                        };
                        r[*dst as usize] = Value::I(i64::from(v));
                        // The branch reads the comparison: always an integer.
                        then!(1, Some(()));
                        pc = if v { *on_true } else { *on_false } as usize;
                    }
                    Op::JumpMoves {
                        moves,
                        snippet,
                        target,
                    } => {
                        if steps + moves.len() as u64 > max_steps {
                            // The snippet's own op stops at the budget.
                            pc = *snippet as usize;
                            continue;
                        }
                        steps += moves.len() as u64;
                        move_phis(moves, r, scratch);
                        if PROFILE {
                            for mv in moves.iter() {
                                bump(counts, compiled, fidx, mv.dst);
                            }
                        }
                        pc = *target as usize;
                    }
                }
            }
            // A message-free check refused the op at `pc`.
            break 'run Err(fault(&code[pc], r, mem, steps > max_steps));
        };
        *steps_out = steps;
        result
    }
}

/// Pushes `cf`'s register template onto the stack; returns the new
/// frame's base, or `None` (pushing nothing) past [`MAX_STACK_REGS`].
fn push_frame(regs: &mut Vec<Value>, cf: &CompiledFunction) -> Option<usize> {
    let base = regs.len();
    if base + cf.init_regs.len() > MAX_STACK_REGS {
        return None;
    }
    regs.extend_from_slice(&cf.init_regs);
    Some(base)
}

/// Runs one edge's phi moves with parallel-move semantics: every source
/// is read before any destination is written.
#[inline(always)]
fn move_phis(moves: &[PhiMove], r: &mut [Value], scratch: &mut Vec<Value>) {
    match moves {
        [mv] => r[mv.dst as usize] = r[mv.src as usize],
        [x, y] => {
            let (vx, vy) = (r[x.src as usize], r[y.src as usize]);
            r[x.dst as usize] = vx;
            r[y.dst as usize] = vy;
        }
        _ => {
            scratch.clear();
            scratch.extend(moves.iter().map(|mv| r[mv.src as usize]));
            for (mv, &val) in moves.iter().zip(scratch.iter()) {
                r[mv.dst as usize] = val;
            }
        }
    }
}

/// The address `elem`-byte element `i` past `p` (wrapping, like the walker).
#[inline(always)]
fn gep(p: u64, i: i64, elem: i64) -> u64 {
    (p as i64).wrapping_add(i.wrapping_mul(elem)) as u64
}

/// A typed load, or `None` where [`Memory::offset`] refuses it.
#[inline(always)]
fn load(mem: &Memory, kind: MemKind, p: u64) -> Option<Value> {
    match kind {
        MemKind::I8 => mem.read(p).map(|[b]| Value::I(i64::from(b))),
        MemKind::I32 => mem
            .read(p)
            .map(|b| Value::I(i64::from(i32::from_le_bytes(b)))),
        MemKind::I64 => mem.read(p).map(|b| Value::I(i64::from_le_bytes(b))),
        MemKind::F32 => mem
            .read(p)
            .map(|b| Value::F(f64::from(f32::from_le_bytes(b)))),
        MemKind::F64 => mem.read(p).map(|b| Value::F(f64::from_le_bytes(b))),
        MemKind::Ptr => mem.read(p).map(|b| Value::P(u64::from_le_bytes(b))),
    }
}

/// An integer or pointer comparison, or `None` on mixed or float operands.
#[inline(always)]
fn icmp(pred: ICmpPred, a: Value, b: Value) -> Option<bool> {
    let (a, b) = match (a, b) {
        (Value::P(x), Value::P(y)) => (x as i64, y as i64),
        (Value::I(x), Value::I(y)) => (x, y),
        _ => return None,
    };
    Some(match pred {
        ICmpPred::Eq => a == b,
        ICmpPred::Ne => a != b,
        ICmpPred::Slt => a < b,
        ICmpPred::Sle => a <= b,
        ICmpPred::Sgt => a > b,
        ICmpPred::Sge => a >= b,
    })
}

#[inline(always)]
fn int(v: Value) -> Option<i64> {
    match v {
        Value::I(x) => Some(x),
        _ => None,
    }
}

#[inline(always)]
fn float(v: Value) -> Option<f64> {
    match v {
        Value::F(x) => Some(x),
        _ => None,
    }
}

#[inline(always)]
fn ptr(v: Value) -> Option<u64> {
    match v {
        Value::P(x) => Some(x),
        _ => None,
    }
}

fn bump(counts: &mut Vec<Vec<u64>>, compiled: &CompiledModule<'_>, fidx: usize, vid: u32) {
    if counts.len() <= fidx {
        counts.resize(compiled.funcs.len(), Vec::new());
    }
    let c = &mut counts[fidx];
    if c.len() <= vid as usize {
        // One counter per value of the code that runs, which may stand in
        // for the module's function (`CompiledModule::with_function`).
        let values = compiled.funcs[fidx]
            .as_ref()
            .map_or(0, |cf| cf.init_regs.len());
        c.resize(values.max(vid as usize + 1), 0);
    }
    c[vid as usize] += 1;
}

/// A call that pushes no frame: a host, an intrinsic or an unknown
/// callee. Out of line: it formats its own errors.
#[inline(never)]
fn call_leaf(
    compiled: &CompiledModule<'_>,
    site: &CallSite,
    host: Option<&HostFn<'_>>,
    r: &[Value],
    scratch: &mut Vec<Value>,
    mem: &mut Memory,
) -> Result<Value> {
    scratch.clear();
    scratch.extend(site.args.iter().map(|&a| r[a as usize]));
    match (host, site.target) {
        (Some(h), _) => h(mem, scratch).map_err(err),
        (None, CallTarget::Intrinsic(k)) => k.eval(scratch).map_err(err),
        (None, _) => Err(err(format!(
            "call to unknown function {:?}",
            compiled.symbols[site.sym as usize]
        ))),
    }
}

/// The error of an op whose message-free check failed in the dispatch
/// loop (or of the step that overran the budget): the op is replayed
/// through the message-carrying accessors, in the walker's check order,
/// so the message is exactly the walker's. A refused op never wrote
/// anything, so the replay sees the state the check saw.
#[cold]
#[inline(never)]
fn fault(op: &Op, r: &[Value], mem: &mut Memory, over_budget: bool) -> ExecError {
    if over_budget {
        return err("step limit exceeded (infinite loop?)");
    }
    match replay(op, r, mem) {
        Err(e) => err(e),
        Ok(()) => unreachable!("a message-free check refused {op:?}, but its replay passed"),
    }
}

fn replay(op: &Op, r: &[Value], mem: &mut Memory) -> std::result::Result<(), String> {
    let reg = |x: u32| r[x as usize];
    match *op {
        Op::IntBin { op, a, b, .. } => {
            reg(a).try_i()?;
            let b = reg(b).try_i()?;
            match op {
                IntOp::Div if b == 0 => Err("integer division by zero".into()),
                IntOp::Rem if b == 0 => Err("integer remainder by zero".into()),
                _ => Ok(()),
            }
        }
        Op::FloatBin { a, b, .. } | Op::FCmp { a, b, .. } => {
            reg(a).try_f()?;
            reg(b).try_f().map(drop)
        }
        Op::ICmp { a, b, .. } | Op::CmpJump { a, b, .. } => match (reg(a), reg(b)) {
            (Value::P(_), Value::P(_)) => Ok(()),
            (x, y) => {
                x.try_i()?;
                y.try_i().map(drop)
            }
        },
        Op::Select { cond, .. } | Op::CondJump { cond, .. } => reg(cond).try_i().map(drop),
        Op::Gep { base, idx, .. } | Op::GepLoad { base, idx, .. } => {
            reg(base).try_p()?;
            reg(idx).try_i().map(drop)
        }
        Op::Load { kind, addr, .. } => {
            let addr = reg(addr).try_p()?;
            match kind {
                MemKind::I8 => mem.load_i8(addr).map(drop),
                MemKind::I32 => mem.load_i32(addr).map(drop),
                MemKind::I64 | MemKind::Ptr => mem.load_i64(addr).map(drop),
                MemKind::F32 => mem.load_f32(addr).map(drop),
                MemKind::F64 => mem.load_f64(addr).map(drop),
            }
        }
        Op::Store { kind, val, addr } => {
            let val = reg(val);
            let addr = reg(addr).try_p()?;
            match kind {
                MemKind::I8 => val.try_i().and_then(|x| mem.store_i8(addr, x)),
                MemKind::I32 => val.try_i().and_then(|x| mem.store_i32(addr, x)),
                MemKind::I64 => val.try_i().and_then(|x| mem.store_i64(addr, x)),
                MemKind::F32 => val.try_f().and_then(|x| mem.store_f32(addr, x)),
                MemKind::F64 => val.try_f().and_then(|x| mem.store_f64(addr, x)),
                MemKind::Ptr => val.try_p().and_then(|x| mem.store_i64(addr, x as i64)),
            }
        }
        Op::Alloca { n, elem, .. } => {
            let n = reg(n).try_i()?;
            if n < 0 {
                return Err("negative alloca size".into());
            }
            mem.try_alloc(elem, n as usize).map(drop)
        }
        Op::IntCast { src, .. }
        | Op::CastGep { src, .. }
        | Op::CastGepLoad { src, .. }
        | Op::SiToFp { src, .. } => reg(src).try_i().map(drop),
        Op::FpToSi { src, .. } | Op::FpExt { src, .. } | Op::FpTrunc { src, .. } => {
            reg(src).try_f().map(drop)
        }
        Op::Call { .. }
        | Op::Jump { .. }
        | Op::JumpMoves { .. }
        | Op::Ret { .. }
        | Op::PhiMoves { .. } => Ok(()),
    }
}

impl<'c> HostRegistry<'c> for Vm<'c> {
    fn register_host(&mut self, name: &str, f: HostFn<'c>) {
        Vm::register_host(self, name, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::compile_module;
    use crate::machine::Machine;
    use std::sync::Arc;

    fn compile_text(text: &str) -> ssair::Module {
        ssair::parser::parse_module(text).expect("test IR parses")
    }

    /// Runs a function on both executors and asserts bitwise parity of
    /// the outcome (value or error message), the step counters and the
    /// full memory images.
    fn assert_parity(m: &ssair::Module, func: &str, args: &[Value]) {
        let mut walker = Machine::new(m);
        let wr = walker.run(func, args);
        let code = compile_module(m);
        let mut vm = Vm::new(&code);
        let vr = vm.run(func, args);
        match (&wr, &vr) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "return value diverged for @{func}"),
            (Err(a), Err(b)) => assert_eq!(a.message, b.message, "error diverged for @{func}"),
            _ => panic!("outcome kind diverged for @{func}: walker {wr:?} vs vm {vr:?}"),
        }
        assert_eq!(
            walker.steps(),
            vm.steps(),
            "step count diverged for @{func}"
        );
        assert_eq!(
            walker.mem.bytes(),
            vm.mem.bytes(),
            "memory image diverged for @{func}"
        );
    }

    #[test]
    fn arithmetic_loops_and_calls_match_the_walker() {
        let m = compile_text(
            r#"
define i64 @sq(i64 %x) {
entry:
  %r = mul i64 %x, %x
  ret i64 %r
}

define i64 @sum(i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i.next, %latch ]
  %acc = phi i64 [ 0, %entry ], [ %acc.next, %latch ]
  %cond = icmp slt i64 %i, %n
  br i1 %cond, label %latch, label %exit
latch:
  %sqv = call i64 @sq(i64 %i)
  %acc.next = add i64 %acc, %sqv
  %i.next = add i64 %i, 1
  br label %header
exit:
  ret i64 %acc
}
"#,
        );
        assert_parity(&m, "sum", &[Value::I(10)]);
        let code = compile_module(&m);
        let mut vm = Vm::new(&code);
        assert_eq!(vm.run("sum", &[Value::I(10)]).unwrap(), Value::I(285));
    }

    #[test]
    fn memory_effects_match_the_walker() {
        let m = compile_text(
            r#"
define double @fill(double* %p, i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i.next, %body ]
  %cond = icmp slt i64 %i, %n
  br i1 %cond, label %body, label %exit
body:
  %a = getelementptr double, double* %p, i64 %i
  %x = sitofp i64 %i to double
  store double %x, double* %a
  %i.next = add i64 %i, 1
  br label %header
exit:
  %last = getelementptr double, double* %p, i64 3
  %v = load double, double* %last
  ret double %v
}
"#,
        );
        let mut walker = Machine::new(&m);
        let wp = walker.mem.alloc_f64_slice(&[0.0; 8]);
        let wr = walker.run("fill", &[Value::P(wp), Value::I(8)]).unwrap();
        let code = compile_module(&m);
        let mut vm = Vm::new(&code);
        let vp = vm.mem.alloc_f64_slice(&[0.0; 8]);
        let vr = vm.run("fill", &[Value::P(vp), Value::I(8)]).unwrap();
        assert_eq!(wr, vr);
        assert_eq!(walker.mem.bytes(), vm.mem.bytes());
        assert_eq!(walker.steps(), vm.steps());
    }

    #[test]
    fn error_paths_match_the_walker() {
        // Type confusion: an integer into a float intrinsic.
        let confusion = compile_text(
            "define double @f(i64 %x) {\nentry:\n  %r = call double @sqrt(i64 %x)\n  ret double %r\n}\n",
        );
        assert_parity(&confusion, "f", &[Value::I(4)]);
        // Division by zero.
        let div = compile_text(
            "define i32 @f(i32 %a) {\nentry:\n  %x = sdiv i32 %a, 0\n  ret i32 %x\n}\n",
        );
        assert_parity(&div, "f", &[Value::I(1)]);
        // Out-of-bounds access.
        let oob = compile_text(
            "define double @f(double* %p) {\nentry:\n  %a = getelementptr double, double* %p, i64 99\n  %v = load double, double* %a\n  ret double %v\n}\n",
        );
        assert_parity(&oob, "f", &[Value::P(8)]);
        // Unknown callee.
        let unknown = compile_text(
            "define double @f(double %x) {\nentry:\n  %r = call double @nope(double %x)\n  ret double %r\n}\n",
        );
        assert_parity(&unknown, "f", &[Value::F(1.0)]);
        // Wrong intrinsic arity.
        let arity = compile_text(
            "define double @f(double %x) {\nentry:\n  %r = call double @sqrt(double %x, double %x)\n  ret double %r\n}\n",
        );
        assert_parity(&arity, "f", &[Value::F(4.0)]);
    }

    #[test]
    fn step_limit_matches_the_walker_bitwise() {
        let m =
            compile_text("define void @spin() {\nentry:\n  br label %l\nl:\n  br label %l\n}\n");
        let mut walker = Machine::new(&m);
        walker.max_steps = 1000;
        let we = walker.run("spin", &[]).unwrap_err();
        let code = compile_module(&m);
        let mut vm = Vm::new(&code);
        vm.max_steps = 1000;
        let ve = vm.run("spin", &[]).unwrap_err();
        assert_eq!(we.message, ve.message);
        assert_eq!(walker.steps(), vm.steps());
        assert!(we.message.contains("step limit"));
    }

    #[test]
    fn phi_steps_count_against_the_budget_identically() {
        // A phi-heavy loop: each iteration is 2 phi moves + 4 body
        // instructions. Both executors must hit the budget at the same
        // step count (the historical walker undercounted phis).
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
        // Unbounded: same step totals.
        let mut walker = Machine::new(&m);
        walker.run("sum", &[Value::I(50)]).unwrap();
        let code = compile_module(&m);
        let mut vm = Vm::new(&code);
        vm.run("sum", &[Value::I(50)]).unwrap();
        assert_eq!(walker.steps(), vm.steps());
        // Tight budget that lands inside the phi prefix: identical error
        // and identical final counter.
        for budget in [7, 8, 9, 13, 14] {
            let mut walker = Machine::new(&m);
            walker.max_steps = budget;
            let we = walker.run("sum", &[Value::I(50)]).unwrap_err();
            let mut vm = Vm::new(&code);
            vm.max_steps = budget;
            let ve = vm.run("sum", &[Value::I(50)]).unwrap_err();
            assert_eq!(we.message, ve.message, "budget {budget}");
            assert_eq!(walker.steps(), vm.steps(), "budget {budget}");
        }
    }

    #[test]
    fn swapping_phi_moves_read_before_they_write() {
        // One- and two-move edges skip the scratch buffer; the swap on the
        // back edge still needs both sources read first.
        let m = compile_text(
            r#"
define i64 @swap(i64 %n) {
entry:
  br label %header
header:
  %a = phi i64 [ 1, %entry ], [ %b, %header ]
  %b = phi i64 [ 2, %entry ], [ %a, %header ]
  %d = sub i64 %a, %b
  %c = icmp slt i64 %d, 0
  br i1 %c, label %header, label %exit
exit:
  %t = mul i64 %a, 10
  %r = add i64 %t, %b
  ret i64 %r
}
"#,
        );
        assert_parity(&m, "swap", &[Value::I(0)]);
        let code = compile_module(&m);
        assert_eq!(Vm::new(&code).run("swap", &[Value::I(0)]), Ok(Value::I(21)));
    }

    #[test]
    fn profile_counts_match_the_walker() {
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
        let mut walker = Machine::new(&m);
        walker.run("sum", &[Value::I(10)]).unwrap();
        let code = compile_module(&m);
        let mut vm = Vm::new(&code);
        vm.set_profiling(true);
        vm.run("sum", &[Value::I(10)]).unwrap();
        let vp = vm.profile();
        let f = m.function("sum").unwrap();
        for v in f.value_ids() {
            assert_eq!(
                walker.profile.count("sum", v),
                vp.count("sum", v),
                "count diverged at {v}"
            );
        }
        // And the cost model sees identical numbers.
        assert_eq!(walker.profile.total_cost(f), vp.total_cost(f));
    }

    #[test]
    fn hosts_override_intrinsics_via_interned_slots() {
        let m = compile_text(
            "define double @f(double %x) {\nentry:\n  %r = call double @sqrt(double %x)\n  ret double %r\n}\n",
        );
        let code = compile_module(&m);
        let mut vm = Vm::new(&code);
        vm.register_host(
            "sqrt",
            Arc::new(|_mem, args: &[Value]| Ok(Value::F(args[0].as_f() + 100.0))),
        );
        assert_eq!(vm.run("f", &[Value::F(4.0)]).unwrap(), Value::F(104.0));
        // Unregistered name resolves to the intrinsic as usual.
        let mut plain = Vm::new(&code);
        assert_eq!(plain.run("f", &[Value::F(4.0)]).unwrap(), Value::F(2.0));
    }

    #[test]
    fn uncompiled_callee_is_a_typed_error_through_a_compiled_caller() {
        // @weird has a maybe-undefined use (the verifier rejects it), so
        // the compiler refuses it; @main is compiled and calls it. The
        // call is an ExecError naming @weird — on every path, including
        // the one where the walker would happen to succeed.
        let m = compile_text(
            r#"
define i64 @weird(i64 %a) {
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

define i64 @main(i64 %a) {
entry:
  %r = call i64 @weird(i64 %a)
  ret i64 %r
}
"#,
        );
        assert!(ssair::verify::verify_function(&m.functions[0]).is_err());
        let code = compile_module(&m);
        assert!(code.funcs[0].is_none());
        assert!(code.funcs[1].is_some());
        for a in [5, -5] {
            let mut vm = Vm::new(&code);
            let e = vm.run("main", &[Value::I(a)]).unwrap_err();
            assert!(e.message.contains("@weird"), "{e}");
            assert!(e.message.contains("did not compile"), "{e}");
            // @main's call instruction ran; nothing of @weird did.
            assert_eq!(vm.steps(), 1);
        }
    }

    #[test]
    fn no_function_named_matches_walker() {
        let m = compile_text("define i64 @f(i64 %a) {\nentry:\n  ret i64 %a\n}\n");
        let code = compile_module(&m);
        let mut vm = Vm::new(&code);
        let e = vm.run("missing", &[]).unwrap_err();
        let mut walker = Machine::new(&m);
        let we = walker.run("missing", &[]).unwrap_err();
        assert_eq!(e.message, we.message);
    }

    #[test]
    fn arity_error_matches_walker() {
        let m = compile_text("define i64 @f(i64 %a) {\nentry:\n  ret i64 %a\n}\n");
        assert_parity(&m, "f", &[]);
        assert_parity(&m, "f", &[Value::I(1), Value::I(2)]);
    }

    const REC: &str = r#"
define i64 @rec(i64 %k) {
entry:
  %c = icmp sle i64 %k, 0
  br i1 %c, label %base, label %step
base:
  ret i64 0
step:
  %km = sub i64 %k, 1
  %r = call i64 @rec(i64 %km)
  %s = add i64 %r, 1
  ret i64 %s
}
"#;

    #[test]
    fn deep_recursion_runs_without_host_recursion() {
        // 100,000 nested calls on a 64 KiB thread: program frames live on
        // the VM's register stack, never on the Rust stack.
        let m = compile_text(REC);
        let code = compile_module(&m);
        let r = std::thread::scope(|s| {
            std::thread::Builder::new()
                .stack_size(64 * 1024)
                .spawn_scoped(s, || Vm::new(&code).run("rec", &[Value::I(100_000)]))
                .expect("spawn")
                .join()
                .expect("no stack overflow")
        });
        assert_eq!(r.unwrap(), Value::I(100_000));
    }

    #[test]
    fn runaway_recursion_exhausts_the_call_stack_not_the_process() {
        let m = compile_text(REC);
        let code = compile_module(&m);
        let per_frame = code.funcs[0].as_ref().unwrap().init_regs.len();
        let mut vm = Vm::new(&code);
        let e = vm.run("rec", &[Value::I(i64::MAX)]).unwrap_err();
        assert!(e.message.contains("call stack exhausted"), "{e}");
        // Every frame that fits runs icmp, br, sub and call; the call of
        // the last one is the one that fails.
        let depth = (MAX_STACK_REGS / per_frame) as u64;
        assert_eq!(vm.steps(), depth * 4);
        // The VM stays usable: the next run starts from an empty stack,
        // and every return pops its frame's registers.
        assert_eq!(vm.run("rec", &[Value::I(3)]).unwrap(), Value::I(3));
        assert_eq!(vm.regs.len(), per_frame);
        assert!(vm.frames.is_empty());
    }
}
