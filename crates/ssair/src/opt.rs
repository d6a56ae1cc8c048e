//! Mid-level optimizer: the one pass pipeline for every producer of IR.
//!
//! `minicc::compile` runs it over the functions it lowers, in the role of
//! clang/LLVM `-O2` for the idiom-detection pipeline: the passes produce
//! the canonical IR shapes the IDL idiom library (and the paper's
//! detector) expects. Idiom replacement (`xform`) runs it over every
//! device program it generates, as the paper's DSL compilers optimize the
//! kernels they are handed, so no plan places by hand what a pass does.
//!
//! * **constant folding / algebraic simplification** — `instcombine`-lite;
//! * **common subexpression elimination** over pure instructions;
//! * **redundant-load elimination** — block-local store-to-load
//!   forwarding;
//! * **LICM** — hoists loop-invariant pure computations (notably address
//!   arithmetic) into preheaders;
//! * **read-modify-write promotion** — turns `C[i][j] += ...` inner loops
//!   into register accumulation with a phi, the shape `DotProductLoop`
//!   matches (clang gets this from LICM + scalar promotion under TBAA);
//! * **dead code elimination**.
//!
//! All passes preserve the verifier invariants: they take verified IR and
//! return verified IR.
//!
//! ## Aliasing contract
//!
//! Load forwarding and promotion assume restrict-style aliasing: two
//! addresses with distinct roots ([`address_root`]: distinct parameters
//! or allocas) never name the same memory. The frontend's functions meet
//! it because minicc treats pointer parameters as `restrict`, as the
//! benchmarks guarantee. Device programs meet it for two reasons. In each
//! device loop body every load precedes the body's one store, so no load
//! is forwarded across or from a store. And two device parameters bound
//! to one host object read and write it only where legality
//! (`analysis::check_region_legality`) proved the pairs disjoint: it
//! refuses any same-object read/write pair it cannot prove.
//!
//! ## Analyses
//!
//! No pass adds, removes or retargets a block or an edge, so
//! [`optimize_function`] builds the CFG, dominator tree and loop forest
//! once per function and hands them to CSE, LICM and promotion in both
//! rounds (a debug assertion checks that the edges are unchanged). The
//! public pass functions are thin wrappers that build their own analyses.
//! Folding, CSE, load elimination and promotion collect their rewrites and
//! hand them to one [`rewrite_uses`], which also removes the dead code.
//! LICM and promotion add and move instructions and keep a placement
//! table up to date as they go; promotion is one sweep over the loops
//! that revisits only a promoted loop and its ancestors.

use crate::analysis::{address_root, Cfg, DomTree, Loop, LoopForest};
use crate::pass::{eliminate_dead_code, rewrite_uses};
use crate::{
    BlockId, Function, ICmpPred, InsertPoint, Instr, Module, Opcode, Type, ValueId, ValueKind,
};
use std::collections::HashMap;

/// Runs the full pass pipeline over every function.
pub fn optimize_module(m: &mut Module) {
    for f in &mut m.functions {
        optimize_function(f);
    }
}

/// Runs the full pass pipeline over one function.
pub fn optimize_function(f: &mut Function) {
    let cfg = Cfg::new(f);
    let dom = DomTree::dominators(&cfg);
    let forest = LoopForest::new(&cfg, &dom);
    // Two rounds reach a fixpoint on all benchmark inputs: promotion can
    // expose new folding opportunities and vice versa.
    for _ in 0..2 {
        while fold_constants(f) > 0 {}
        cse(f, &cfg, &dom);
        while eliminate_redundant_loads(f) > 0 {}
        hoist(f, &cfg, &forest);
        promote(f, &cfg, &dom, &forest);
        eliminate_dead_code(f);
        debug_assert_eq!(Cfg::new(f), cfg, "a pass changed the CFG");
    }
}

/// Block-local redundant-load elimination and store-to-load forwarding
/// (EarlyCSE's memory half). Within one block, a load from an address seen
/// earlier — by a load or a store — reuses the known value, as long as no
/// intervening store or call may alias it. Aliasing follows the module's
/// restrict contract: addresses rooted at distinct parameters/allocas do
/// not alias. Returns the number of loads removed.
pub fn eliminate_redundant_loads(f: &mut Function) -> usize {
    let mut rewrites: Vec<(ValueId, ValueId)> = Vec::new();
    for b in f.block_ids().collect::<Vec<_>>() {
        // address value -> known content value
        let mut known: std::collections::HashMap<ValueId, ValueId> =
            std::collections::HashMap::new();
        for &v in &f.block(b).instrs {
            let Some(i) = f.instr(v) else { continue };
            match i.opcode {
                Opcode::Load => {
                    let addr = i.operands[0];
                    match known.get(&addr) {
                        Some(&val) if f.value(val).ty == f.value(v).ty => {
                            rewrites.push((v, val));
                        }
                        _ => {
                            known.insert(addr, v);
                        }
                    }
                }
                Opcode::Store => {
                    let (val, addr) = (i.operands[0], i.operands[1]);
                    let root = address_root(f, addr);
                    known.retain(|&a, _| a == addr || address_root(f, a) != root);
                    known.insert(addr, val);
                }
                Opcode::Call => known.clear(),
                _ => {}
            }
        }
    }
    rewrite_uses(f, &rewrites)
}

/// Dominance-based common subexpression elimination over pure instructions
/// (including `gep`). Two instructions are congruent when they have the
/// same opcode (and predicate), type and identical operand values; the
/// dominating one replaces the dominated one. Returns rewrites performed.
///
/// This mirrors LLVM's EarlyCSE and matters for the idiom pipeline: the
/// frontend lowers every `C[i][j]` occurrence to a fresh gep chain, and
/// read-modify-write promotion needs the load and store of `C[i][j] += x`
/// to share one address value.
///
/// One call reaches the fixpoint: blocks are visited in reverse post-order
/// (dominators first, for the reducible CFGs the frontend produces) and
/// each operand is mapped to its leader before the key is built, so an
/// instruction whose operands were merged earlier in the walk is merged
/// too.
pub fn common_subexpression_elimination(f: &mut Function) -> usize {
    let cfg = Cfg::new(f);
    cse(f, &cfg, &DomTree::dominators(&cfg))
}

/// What makes two pure instructions congruent: opcode (with predicate),
/// result type and operand leaders, padded with `ValueId(u32::MAX)`.
type CseKey = (Opcode, Type, [ValueId; 3]);

fn cse(f: &mut Function, cfg: &Cfg, dom: &DomTree) -> usize {
    // Each value's leader: itself, or the congruent instruction that
    // replaces it.
    let mut leader: Vec<ValueId> = f.value_ids().collect();
    // Candidates in visit order, with their blocks: a candidate from the
    // current block comes earlier in it, so it dominates.
    let mut table: HashMap<CseKey, Vec<(BlockId, ValueId)>> = HashMap::new();
    let mut rewrites: Vec<(ValueId, ValueId)> = Vec::new();
    for &b in &cfg.rpo {
        for &v in &f.block(b).instrs {
            let Some(i) = f.instr(v) else { continue };
            if !(i.opcode.is_pure_arith() || i.opcode == Opcode::Gep) {
                continue;
            }
            // Verified pure instructions and geps take at most three
            // operands.
            let mut ops = [ValueId(u32::MAX); 3];
            for (k, op) in i.operands.iter().enumerate() {
                ops[k] = leader[op.0 as usize];
            }
            let entry = table.entry((i.opcode, f.value(v).ty, ops)).or_default();
            match entry
                .iter()
                .find(|&&(pb, _)| pb == b || dom.dominates(pb, b))
            {
                Some(&(_, prior)) => {
                    leader[v.0 as usize] = prior;
                    rewrites.push((v, prior));
                }
                None => entry.push((b, v)),
            }
        }
    }
    rewrite_uses(f, &rewrites)
}

fn const_int_of(f: &Function, v: ValueId) -> Option<i64> {
    match f.value(v).kind {
        ValueKind::ConstInt(c) => Some(c),
        _ => None,
    }
}

fn const_float_of(f: &Function, v: ValueId) -> Option<f64> {
    match f.value(v).kind {
        ValueKind::ConstFloat(c) => Some(c),
        _ => None,
    }
}

/// One round of constant folding + algebraic identities. Returns the number
/// of rewrites performed.
pub fn fold_constants(f: &mut Function) -> usize {
    let mut folds: Vec<(ValueId, Replacement)> = Vec::new();
    enum Replacement {
        Int(i64),
        Float(f64),
        Value(ValueId),
    }
    for b in f.block_ids() {
        for &v in &f.block(b).instrs {
            let Some(i) = f.instr(v) else { continue };
            let ty = f.value(v).ty;
            let ops = &i.operands[..];
            let repl = match i.opcode {
                Opcode::Add | Opcode::Sub | Opcode::Mul | Opcode::SDiv | Opcode::SRem => {
                    let (a, bo) = (ops[0], ops[1]);
                    match (const_int_of(f, a), const_int_of(f, bo)) {
                        (Some(x), Some(y)) => {
                            let r = match i.opcode {
                                Opcode::Add => x.wrapping_add(y),
                                Opcode::Sub => x.wrapping_sub(y),
                                Opcode::Mul => x.wrapping_mul(y),
                                Opcode::SDiv if y != 0 => x.wrapping_div(y),
                                Opcode::SRem if y != 0 => x.wrapping_rem(y),
                                _ => continue,
                            };
                            Some(Replacement::Int(r))
                        }
                        (Some(0), None) if i.opcode == Opcode::Add => Some(Replacement::Value(bo)),
                        (None, Some(0)) if matches!(i.opcode, Opcode::Add | Opcode::Sub) => {
                            Some(Replacement::Value(a))
                        }
                        (Some(1), None) if i.opcode == Opcode::Mul => Some(Replacement::Value(bo)),
                        (None, Some(1)) if matches!(i.opcode, Opcode::Mul | Opcode::SDiv) => {
                            Some(Replacement::Value(a))
                        }
                        (Some(0), None) | (None, Some(0)) if i.opcode == Opcode::Mul => {
                            Some(Replacement::Int(0))
                        }
                        _ => None,
                    }
                }
                Opcode::FAdd | Opcode::FSub | Opcode::FMul | Opcode::FDiv => {
                    match (const_float_of(f, ops[0]), const_float_of(f, ops[1])) {
                        (Some(x), Some(y)) => {
                            let r = match i.opcode {
                                Opcode::FAdd => x + y,
                                Opcode::FSub => x - y,
                                Opcode::FMul => x * y,
                                Opcode::FDiv => x / y,
                                _ => unreachable!(),
                            };
                            let r = if ty == Type::F32 { r as f32 as f64 } else { r };
                            Some(Replacement::Float(r))
                        }
                        // Float identities are only safe where rounding and
                        // NaN behaviour are unaffected: x*1.0 and x/1.0.
                        (None, Some(y))
                            if y == 1.0 && matches!(i.opcode, Opcode::FMul | Opcode::FDiv) =>
                        {
                            Some(Replacement::Value(ops[0]))
                        }
                        (Some(x), None) if x == 1.0 && i.opcode == Opcode::FMul => {
                            Some(Replacement::Value(ops[1]))
                        }
                        _ => None,
                    }
                }
                Opcode::SExt | Opcode::ZExt | Opcode::Trunc => {
                    const_int_of(f, ops[0]).map(Replacement::Int)
                }
                Opcode::SIToFP => const_int_of(f, ops[0]).map(|x| Replacement::Float(x as f64)),
                Opcode::FPExt => const_float_of(f, ops[0]).map(Replacement::Float),
                Opcode::FPTrunc => {
                    const_float_of(f, ops[0]).map(|x| Replacement::Float(x as f32 as f64))
                }
                Opcode::ICmp(pred) => match (const_int_of(f, ops[0]), const_int_of(f, ops[1])) {
                    (Some(x), Some(y)) => {
                        let r = match pred {
                            ICmpPred::Eq => x == y,
                            ICmpPred::Ne => x != y,
                            ICmpPred::Slt => x < y,
                            ICmpPred::Sle => x <= y,
                            ICmpPred::Sgt => x > y,
                            ICmpPred::Sge => x >= y,
                        };
                        Some(Replacement::Int(i64::from(r)))
                    }
                    _ => None,
                },
                Opcode::Select => match const_int_of(f, ops[0]) {
                    Some(c) => Some(Replacement::Value(if c != 0 { ops[1] } else { ops[2] })),
                    None if ops[1] == ops[2] => Some(Replacement::Value(ops[1])),
                    None => None,
                },
                _ => None,
            };
            if let Some(r) = repl {
                folds.push((v, r));
            }
        }
    }
    let rewrites: Vec<(ValueId, ValueId)> = folds
        .into_iter()
        .map(|(v, r)| {
            let ty = f.value(v).ty;
            let to = match r {
                Replacement::Int(c) => f.const_int(ty, c),
                Replacement::Float(c) => f.const_float(ty, c),
                Replacement::Value(w) => w,
            };
            (v, to)
        })
        .collect();
    rewrite_uses(f, &rewrites)
}

/// Hoists loop-invariant pure instructions into loop preheaders, innermost
/// loops first. Each round moves the loop's instructions whose operands
/// are all defined outside it; rounds repeat until nothing moves, so a
/// chain of invariants leaves one link per round. Division is not hoisted
/// (speculative traps); memory operations are never moved.
pub fn hoist_loop_invariants(f: &mut Function) {
    let cfg = Cfg::new(f);
    let forest = LoopForest::new(&cfg, &DomTree::dominators(&cfg));
    hoist(f, &cfg, &forest);
}

fn hoist(f: &mut Function, cfg: &Cfg, forest: &LoopForest) {
    // Updated as instructions move.
    let mut block_of = placement(f);
    let mut innermost_first: Vec<&Loop> = forest.loops.iter().collect();
    innermost_first.sort_by_key(|l| std::cmp::Reverse(l.depth));
    for l in innermost_first {
        let Some(preheader) = unique_preheader(cfg, l) else {
            continue;
        };
        loop {
            let mut to_move: Vec<ValueId> = Vec::new();
            for &b in &l.blocks {
                for &v in &f.block(b).instrs {
                    let Some(i) = f.instr(v) else { continue };
                    let hoistable = (i.opcode.is_pure_arith() || i.opcode == Opcode::Gep)
                        && !matches!(i.opcode, Opcode::SDiv | Opcode::SRem);
                    // Constants and arguments have no block.
                    let invariant = || {
                        i.operands
                            .iter()
                            .all(|&op| block_of[op.0 as usize].is_none_or(|ob| !l.contains(ob)))
                    };
                    if hoistable && invariant() {
                        to_move.push(v);
                    }
                }
            }
            if to_move.is_empty() {
                break;
            }
            for v in to_move {
                let from = block_of[v.0 as usize].expect("loop instructions are placed");
                f.block_mut(from).instrs.retain(|&x| x != v);
                f.place(preheader, InsertPoint::BeforeTerminator, v);
                block_of[v.0 as usize] = Some(preheader);
            }
        }
    }
}

/// Each value's block, by value id (`None` for arguments, constants and
/// unplaced instructions). LICM and promotion keep it up to date as they
/// move instructions.
fn placement(f: &Function) -> Vec<Option<BlockId>> {
    let mut block_of = vec![None; f.num_values()];
    for b in f.block_ids() {
        for &v in &f.block(b).instrs {
            block_of[v.0 as usize] = Some(b);
        }
    }
    block_of
}

/// The unique predecessor of the loop header outside the loop, if the loop
/// is in canonical form (one preheader, one latch).
fn unique_preheader(cfg: &Cfg, l: &Loop) -> Option<BlockId> {
    let outside: Vec<BlockId> = cfg
        .preds(l.header)
        .iter()
        .copied()
        .filter(|p| !l.contains(*p))
        .collect();
    if outside.len() == 1 && l.latches.len() == 1 {
        Some(outside[0])
    } else {
        None
    }
}

/// Promotes single-location read-modify-write loops to register
/// accumulation:
///
/// ```text
/// for k { t = load A; t2 = f(t, ...); store t2, A }   // A loop-invariant
/// ```
///
/// becomes a phi accumulator with the load hoisted to the preheader and the
/// store sunk to the exit block. Soundness relies on the module's
/// restrict contract: addresses rooted at distinct parameters or allocas
/// do not alias. A loop that can also be left some other way (an early
/// `return`) keeps its store, since that way skips the exit block.
///
/// One sweep visits the loops in forest order (every loop after its
/// ancestors) and promotes each loop's stores in order. A promotion edits
/// only its loop's header, preheader, exit and loads, so it can make only
/// that loop and its ancestors promotable again (a store sunk out of an
/// inner loop can be promoted out of its parent): the sweep rescans just
/// those, outermost first. That is the order a restart from the first
/// loop after every promotion would take. The promoted loads' users move
/// to their phis in one [`rewrite_uses`] at the end.
pub fn promote_read_modify_write(f: &mut Function) {
    let cfg = Cfg::new(f);
    let dom = DomTree::dominators(&cfg);
    let forest = LoopForest::new(&cfg, &dom);
    promote(f, &cfg, &dom, &forest);
}

fn promote(f: &mut Function, cfg: &Cfg, dom: &DomTree, forest: &LoopForest) {
    // No pass changes the CFG, so each loop's shape is fixed.
    let shapes: Vec<Option<Shape>> = forest.loops.iter().map(|l| Shape::of(cfg, l)).collect();
    let mut sweep = Sweep::new(f);
    for k in 0..forest.loops.len() {
        // The loop and its ancestors, outermost first (forest order).
        let mut chain = vec![k];
        while let Some(parent) = forest.loops[chain[chain.len() - 1]].parent {
            chain.push(parent);
        }
        chain.reverse();
        // The ancestors were settled when the sweep passed them; only a
        // promotion in the chain can reopen them.
        let mut from = chain.len() - 1;
        while let Some((shape, site)) = chain[from..].iter().find_map(|&i| {
            let shape = shapes[i]?;
            let site = sweep.find(f, dom, &forest.loops[i], shape)?;
            Some((shape, site))
        }) {
            sweep.promote(f, shape, site);
            from = 0;
        }
    }
    debug_assert!(
        (forest.loops.iter().zip(&shapes))
            .all(|(l, shape)| shape.is_none_or(|shape| sweep.find(f, dom, l, shape).is_none())),
        "the sweep left a promotable loop behind"
    );
    let rewrites: Vec<(ValueId, ValueId)> = (sweep.phi_of.iter().enumerate())
        .filter_map(|(v, phi)| phi.map(|phi| (ValueId(v as u32), phi)))
        .collect();
    rewrite_uses(f, &rewrites);
}

/// The blocks a promotion in a loop edits. Only a loop in canonical form
/// has them: one preheader, one latch, and one exit edge, from the header
/// to a block with no other predecessor. The sunk store goes there, so
/// any other way out of the loop (an early `return`) would skip it.
#[derive(Clone, Copy)]
struct Shape {
    header: BlockId,
    preheader: BlockId,
    latch: BlockId,
    exit: BlockId,
}

impl Shape {
    fn of(cfg: &Cfg, l: &Loop) -> Option<Shape> {
        let preheader = unique_preheader(cfg, l)?;
        let exits: Vec<(BlockId, BlockId)> = (l.blocks.iter())
            .flat_map(|&b| cfg.succs(b).iter().map(move |&s| (b, s)))
            .filter(|&(_, s)| !l.contains(s))
            .collect();
        let [(from, exit)] = exits[..] else {
            return None;
        };
        let canonical =
            from == l.header && cfg.preds(exit).len() == 1 && cfg.preds(l.header).len() == 2;
        canonical.then_some(Shape {
            header: l.header,
            preheader,
            latch: l.latches[0],
            exit,
        })
    }
}

/// A promotable store and what its promotion edits.
struct Site {
    store: ValueId,
    addr: ValueId,
    value: ValueId,
    /// The loop's loads of `addr`.
    loads: Vec<ValueId>,
}

/// The promotion sweep's view of `f` while it edits: placement, and the
/// loads already promoted but not yet rewritten to their phis.
struct Sweep {
    /// Placement by value id, updated as instructions come and go.
    block_of: Vec<Option<BlockId>>,
    /// The accumulator phi replacing each promoted load, by value id.
    phi_of: Vec<Option<ValueId>>,
}

impl Sweep {
    fn new(f: &Function) -> Sweep {
        Sweep {
            block_of: placement(f),
            phi_of: vec![None; f.num_values()],
        }
    }

    /// `v` as the finished sweep sees it: a promoted load is its phi.
    fn resolve(&self, v: ValueId) -> ValueId {
        self.phi_of[v.0 as usize].unwrap_or(v)
    }

    fn block_of(&self, v: ValueId) -> Option<BlockId> {
        self.block_of[v.0 as usize]
    }

    /// The first store of `l`, of shape `shape`, that can be promoted.
    fn find(&self, f: &Function, dom: &DomTree, l: &Loop, shape: Shape) -> Option<Site> {
        // Memory operations of the loop with their resolved addresses and
        // address roots; a call other than a math intrinsic rules it out.
        let root = |addr: ValueId| self.resolve(address_root(f, addr));
        let mut loads: Vec<(ValueId, ValueId, ValueId)> = Vec::new();
        let mut stores: Vec<(ValueId, ValueId, ValueId)> = Vec::new();
        for &b in &l.blocks {
            for &v in &f.block(b).instrs {
                let Some(i) = f.instr(v) else { continue };
                match i.opcode {
                    Opcode::Load => {
                        let addr = self.resolve(i.operands[0]);
                        loads.push((v, addr, root(addr)));
                    }
                    Opcode::Store => {
                        let addr = self.resolve(i.operands[1]);
                        stores.push((v, addr, root(addr)));
                    }
                    Opcode::Call if !i.is_math_call() => return None,
                    _ => {}
                }
            }
        }
        for &(store, addr, r) in &stores {
            // The address is defined outside the loop, and the store
            // executes every iteration.
            let sb = self.block_of(store).expect("placed");
            if self.block_of(addr).is_some_and(|b| l.contains(b)) || !dom.dominates(sb, shape.latch)
            {
                continue;
            }
            // No other store may alias it, and every load of its object
            // reads the identical address value.
            if stores.iter().any(|&(s, _, sr)| s != store && sr == r)
                || loads.iter().any(|&(_, a, lr)| a != addr && lr == r)
            {
                continue;
            }
            // The stored value is available at the end of the latch.
            let value = self.resolve(f.instr(store).expect("store").operands[0]);
            if f.is_instruction(value)
                && !self
                    .block_of(value)
                    .is_some_and(|b| dom.dominates(b, shape.latch))
            {
                continue;
            }
            let loads = (loads.iter())
                .filter(|&&(_, a, _)| a == addr)
                .map(|&(v, _, _)| v)
                .collect();
            return Some(Site {
                store,
                addr,
                value,
                loads,
            });
        }
        None
    }

    fn promote(&mut self, f: &mut Function, shape: Shape, site: Site) {
        let ty = f
            .value(site.addr)
            .ty
            .pointee()
            .expect("store address is a pointer");
        let load = Instr::simple(Opcode::Load, vec![site.addr]);
        let at = InsertPoint::BeforeTerminator;
        let init = self.insert(f, shape.preheader, at, ty, load);
        let phi = Instr::simple(Opcode::Phi, Vec::new());
        let phi = self.insert(f, shape.header, InsertPoint::AfterPhis, ty, phi);
        f.set_name(phi, "promoted");
        f.add_phi_incoming(phi, init, shape.preheader);
        f.add_phi_incoming(phi, site.value, shape.latch);
        for &ld in &site.loads {
            self.take(f, ld);
            self.phi_of[ld.0 as usize] = Some(phi);
        }
        self.take(f, site.store);
        // Store the final value at the exit (its single pred is the header).
        let sunk = Instr::simple(Opcode::Store, vec![phi, site.addr]);
        self.insert(f, shape.exit, InsertPoint::AfterPhis, Type::Void, sunk);
    }

    /// Creates and places an instruction, as [`Function::insert`].
    fn insert(
        &mut self,
        f: &mut Function,
        b: BlockId,
        at: InsertPoint,
        ty: Type,
        i: Instr,
    ) -> ValueId {
        let v = f.insert(b, at, ty, i);
        self.block_of.resize(f.num_values(), None);
        self.phi_of.resize(f.num_values(), None);
        self.block_of[v.0 as usize] = Some(b);
        v
    }

    /// Takes the placed instruction `v` out of its block.
    fn take(&mut self, f: &mut Function, v: ValueId) {
        let b = self.block_of[v.0 as usize].take().expect("placed");
        f.block_mut(b).instrs.retain(|&x| x != v);
    }
}
