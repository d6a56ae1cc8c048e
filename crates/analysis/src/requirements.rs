//! Idiom requirement signatures: necessary conditions derived once from
//! a compiled constraint tree. A condition is *necessary* when it holds
//! in every satisfying assignment — derived bottom-up with conjunctions
//! contributing the union of their children's facts and disjunctions the
//! intersection, while `collect` sub-searches contribute nothing (a
//! collect may legitimately match zero instances).
//!
//! The derivation is one bottom-up pass (`Scope`): every subtree's
//! facts are computed once, conjunctions are flattened into their scope
//! (a conjunct adds no fact its conjunction lacks), and the shape
//! predicates are evaluated only at the root and at `or` arms that add
//! facts, each time over one `FactIndex` of the scope's facts (value
//! classes, opcode classes per class and operand edges): one sort plus
//! a few linear passes over the scope's facts.
//!
//! Soundness is what matters here: a requirement that is not actually
//! necessary would make the fingerprint prepass drop real matches. The
//! differential tests pin the prepass byte-identical to the unpruned
//! path over the whole suite and the fuzz generator's programs.

use crate::FunctionFingerprint;
use idl::ctree::{Atom, AtomKind, CTree, OpcodeClass};
use idl::{CompiledConstraint, VarId};
use std::collections::BTreeSet;

/// Necessary conditions of one compiled idiom constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdiomRequirements {
    /// Opcode classes some matched value must carry (presence level).
    pub required_opcodes: BTreeSet<OpcodeClass>,
    /// Minimum loop-nest depth, from the constraint's leading loop
    /// skeleton (`ForNest(N)` → N, `For` → 1).
    pub min_loop_depth: u32,
    /// Minimum number of *distinct* phi instructions: the largest set of
    /// variables that must all be phis and pairwise bind different
    /// values (distinctness from `is not the same as` and strict
    /// dominance facts).
    pub min_phis: u32,
    /// A matched `gep` must take its index from a load (or a sext of a
    /// load) — the indirect-access shape of SPMV's column reads.
    pub needs_indirect_gep_index: bool,
    /// A matched `gep` must serve as both a store address and a load
    /// address — the read-modify-write shape of histograms.
    pub needs_rmw_gep: bool,
    /// A matched `store` must write through a `gep` indexed by a `phi`
    /// (or a `sext` of one) — the `out[i] = …` shape of 1-D stencils,
    /// where the inherited `For` block pins the iterator to a phi.
    pub needs_phi_indexed_store: bool,
}

impl IdiomRequirements {
    /// Derives the requirement signature of `c`.
    #[must_use]
    pub fn of(c: &CompiledConstraint) -> IdiomRequirements {
        let min_loop_depth = match c.skeletons.first() {
            Some(s) if s.block == "ForNest" => s
                .params
                .iter()
                .find(|(k, _)| k == "N")
                .map_or(1, |&(_, n)| u32::try_from(n).unwrap_or(1)),
            Some(_) => 1,
            None => 0,
        };
        let root = Scope::of(&c.tree);
        let index = FactIndex::new(&root.facts);
        let shown = index.shapes();
        let shapes = shown | root.implied(&root.facts, ALL_SHAPES & !shown);
        IdiomRequirements {
            required_opcodes: presence(&c.tree),
            min_loop_depth,
            min_phis: index.min_distinct_phis(),
            needs_indirect_gep_index: shapes & INDIRECT_GEP_INDEX != 0,
            needs_rmw_gep: shapes & RMW_GEP != 0,
            needs_phi_indexed_store: shapes & PHI_INDEXED_STORE != 0,
        }
    }

    /// The subsumption check: `true` when `fp` could possibly contain a
    /// match — i.e. every necessary condition is present. `false` proves
    /// the idiom cannot match, with zero solver steps.
    #[must_use]
    pub fn admitted_by(&self, fp: &FunctionFingerprint) -> bool {
        self.required_opcodes.is_subset(&fp.opcodes)
            && fp.max_loop_depth >= self.min_loop_depth
            && fp.phis >= self.min_phis
            && (!self.needs_indirect_gep_index || fp.has_indirect_gep_index)
            && (!self.needs_rmw_gep || fp.has_rmw_gep)
            && (!self.needs_phi_indexed_store || fp.has_phi_indexed_store)
    }
}

/// One necessary fact about the variables of a satisfying assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Fact {
    /// `v` is bound to an instruction of this opcode class.
    Op(VarId, OpcodeClass),
    /// `child` is operand `pos` of `parent`.
    Arg(usize, VarId, VarId),
    /// `a` and `b` bind the same value (ordered pair).
    Eq(VarId, VarId),
    /// `a` and `b` bind different values (ordered pair).
    Distinct(VarId, VarId),
    /// `a` strictly (post)dominates `b` — implies distinct values.
    StrictDom(VarId, VarId),
}

impl Fact {
    /// The variables the fact is about (`Op` repeats its one variable).
    fn vars(self) -> [VarId; 2] {
        match self {
            Fact::Op(v, _) => [v, v],
            Fact::Arg(_, a, b) | Fact::Eq(a, b) | Fact::Distinct(a, b) | Fact::StrictDom(a, b) => {
                [a, b]
            }
        }
    }
}

fn atom_fact(a: &Atom) -> Option<Fact> {
    match &a.kind {
        AtomKind::OpcodeIs(class) => Some(Fact::Op(a.vars[0], *class)),
        AtomKind::ArgumentOf { pos } => Some(Fact::Arg(*pos, a.vars[0], a.vars[1])),
        AtomKind::Same { negated } => {
            let (x, y) = (a.vars[0].min(a.vars[1]), a.vars[0].max(a.vars[1]));
            Some(if *negated {
                Fact::Distinct(x, y)
            } else {
                Fact::Eq(x, y)
            })
        }
        AtomKind::Dominates {
            strict: true,
            negated: false,
            ..
        } => Some(Fact::StrictDom(a.vars[0], a.vars[1])),
        _ => None,
    }
}

/// Some gep's index operand is a load or a sext of a load — the
/// indirect-access shape of SPMV's column reads.
const INDIRECT_GEP_INDEX: u8 = 1;
/// Some gep is both a store's address (operand 1) and a load's address
/// (operand 0).
const RMW_GEP: u8 = 2;
/// Some store's address is a gep whose index operand is a phi or a sext
/// of a phi (the iterator's phi-ness comes from the inherited `For`
/// atoms; the `iterator`-vs-`sext(iterator)` split is an `or` whose arms
/// are checked one by one).
const PHI_INDEXED_STORE: u8 = 4;
const ALL_SHAPES: u8 = INDIRECT_GEP_INDEX | RMW_GEP | PHI_INDEXED_STORE;

/// A subtree whose facts the shape predicates are checked against: the
/// root and every `or` arm. Conjunctions are flattened into their scope
/// (a conjunct guarantees no fact its conjunction lacks); a disjunction
/// contributes the facts all its arms share.
struct Scope {
    /// Facts every satisfying assignment guarantees (sorted, deduplicated).
    facts: Vec<Fact>,
    /// The disjunctions on the scope's conjunctive spine, each as the
    /// scopes of its arms (`collect` sub-searches guarantee nothing).
    ors: Vec<Vec<Scope>>,
}

impl Scope {
    fn of(tree: &CTree) -> Scope {
        let mut s = Scope {
            facts: Vec::new(),
            ors: Vec::new(),
        };
        s.add(tree);
        s.facts.sort_unstable();
        s.facts.dedup();
        s
    }

    fn add(&mut self, tree: &CTree) {
        match tree {
            CTree::And(cs) => cs.iter().for_each(|c| self.add(c)),
            CTree::Or(cs) => {
                let arms: Vec<Scope> = cs.iter().map(Scope::of).collect();
                if let Some((first, rest)) = arms.split_first() {
                    self.facts.extend(
                        first
                            .facts
                            .iter()
                            .filter(|f| rest.iter().all(|a| a.facts.binary_search(f).is_ok())),
                    );
                    self.ors.push(arms);
                }
            }
            CTree::Atom(a) => self.facts.extend(atom_fact(a)),
            CTree::Collect { .. } => {}
        }
    }

    /// The shapes among `want` that hold in every satisfying assignment
    /// of this scope, given the facts `ctx` (which include the scope's
    /// own and show none of `want`): those every arm of some disjunction
    /// on the spine implies.
    fn implied(&self, ctx: &[Fact], want: u8) -> u8 {
        let mut found = 0;
        for arms in &self.ors {
            let mut all = want & !found;
            for arm in arms {
                if all == 0 {
                    break;
                }
                all &= arm.implied_in(ctx, all);
            }
            found |= all;
            if found == want {
                break;
            }
        }
        found
    }

    /// The shapes among `want` this arm implies under `ctx`. An arm that
    /// adds no fact to `ctx` shows nothing new on its own facts, so only
    /// one that does is indexed and checked.
    fn implied_in(&self, ctx: &[Fact], want: u8) -> u8 {
        if self.facts.iter().all(|f| ctx.binary_search(f).is_ok()) {
            return self.implied(ctx, want);
        }
        let mut here: Vec<Fact> = ctx.iter().chain(&self.facts).copied().collect();
        here.sort_unstable();
        here.dedup();
        let shown = FactIndex::new(&here).shapes() & want;
        shown | self.implied(&here, want & !shown)
    }
}

/// The bit of `class` in a set of opcode classes.
fn bit(class: OpcodeClass) -> u32 {
    1 << class as u32
}

const _: () = assert!((OpcodeClass::Alloca as u32) < u32::BITS);

/// One scope's facts indexed by value class: the `Eq` facts merge
/// variables into classes, and every other fact is restated over class
/// numbers, so value-equal variables are interchangeable.
struct FactIndex {
    /// Opcode-class bits per class (zero for a non-representative slot).
    ops: Vec<u32>,
    /// `(pos, operand, user)` per `Arg` fact.
    args: Vec<(usize, usize, usize)>,
    /// Class pairs of the `Distinct` facts.
    distinct: Vec<(usize, usize)>,
    /// Class pairs of the `StrictDom` facts.
    dominates: Vec<(usize, usize)>,
}

impl FactIndex {
    fn new(facts: &[Fact]) -> FactIndex {
        let mut vars: Vec<VarId> = facts.iter().flat_map(|f| f.vars()).collect();
        vars.sort_unstable();
        vars.dedup();
        let slot = |v: VarId| {
            vars.binary_search(&v)
                .expect("every fact variable has a slot")
        };
        let mut parent: Vec<usize> = (0..vars.len()).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        for f in facts {
            if let Fact::Eq(a, b) = *f {
                let (ra, rb) = (find(&mut parent, slot(a)), find(&mut parent, slot(b)));
                parent[ra.max(rb)] = ra.min(rb);
            }
        }
        let class: Vec<usize> = (0..vars.len()).map(|i| find(&mut parent, i)).collect();
        let of = |v: VarId| class[slot(v)];
        let mut index = FactIndex {
            ops: vec![0; vars.len()],
            args: Vec::new(),
            distinct: Vec::new(),
            dominates: Vec::new(),
        };
        for f in facts {
            match *f {
                Fact::Op(v, c) => index.ops[of(v)] |= bit(c),
                Fact::Arg(pos, a, b) => index.args.push((pos, of(a), of(b))),
                Fact::Eq(..) => {}
                Fact::Distinct(a, b) => index.distinct.push((of(a), of(b))),
                Fact::StrictDom(a, b) => index.dominates.push((of(a), of(b))),
            }
        }
        index
    }

    fn has(&self, class: usize, op: OpcodeClass) -> bool {
        self.ops[class] & bit(op) != 0
    }

    /// The shapes (`INDIRECT_GEP_INDEX`, `RMW_GEP`, `PHI_INDEXED_STORE`)
    /// these facts show, in three passes over the operand edges.
    fn shapes(&self) -> u8 {
        use OpcodeClass::{Gep, Load, Phi, SExt, Store};
        let n = self.ops.len();
        // Per class: it has a load (a phi) as operand 0 — a sext of a
        // load (of a phi) when the class is a sext; it is a load's address.
        let (mut load_operand, mut phi_operand, mut load_address) =
            (vec![false; n], vec![false; n], vec![false; n]);
        for &(pos, x, user) in &self.args {
            if pos == 0 {
                load_operand[user] |= self.has(x, Load);
                phi_operand[user] |= self.has(x, Phi);
                load_address[x] |= self.has(user, Load);
            }
        }
        // Per class: its operand 1 (a gep's index) is a phi or a sext of one.
        let mut phi_indexed = vec![false; n];
        for &(pos, i, g) in &self.args {
            if pos == 1 && (self.has(i, Phi) || self.has(i, SExt) && phi_operand[i]) {
                phi_indexed[g] = true;
            }
        }
        let mut shapes = 0;
        for &(pos, x, user) in &self.args {
            if pos != 1 {
                continue;
            }
            if self.has(user, Gep) && (self.has(x, Load) || self.has(x, SExt) && load_operand[x]) {
                shapes |= INDIRECT_GEP_INDEX;
            }
            if self.has(x, Gep) && self.has(user, Store) {
                if load_address[x] {
                    shapes |= RMW_GEP;
                }
                if phi_indexed[x] {
                    shapes |= PHI_INDEXED_STORE;
                }
            }
        }
        shapes
    }

    /// The largest set of classes that must all be phi instructions and
    /// pairwise bind distinct values: a max clique over the distinctness
    /// graph (`Distinct` facts plus strict dominance, transitively
    /// closed). The graphs here have a handful of nodes, so exact search
    /// is fine.
    fn min_distinct_phis(&self) -> u32 {
        let n = self.ops.len();
        let phis: Vec<usize> = (0..n).filter(|&c| self.has(c, OpcodeClass::Phi)).collect();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in &self.dominates {
            succs[a].push(b);
        }
        // Per phi: the classes it strictly dominates, directly or through others.
        let reach: Vec<Vec<bool>> = phis
            .iter()
            .map(|&p| {
                let mut seen = vec![false; n];
                let mut stack = succs[p].clone();
                while let Some(c) = stack.pop() {
                    if !std::mem::replace(&mut seen[c], true) {
                        stack.extend(&succs[c]);
                    }
                }
                seen
            })
            .collect();
        let distinct = |i: usize, j: usize| {
            let (a, b) = (phis[i], phis[j]);
            self.distinct.contains(&(a, b))
                || self.distinct.contains(&(b, a))
                || reach[i][b]
                || reach[j][a]
        };
        let adjacent: Vec<Vec<bool>> = (0..phis.len())
            .map(|i| (0..phis.len()).map(|j| distinct(i, j)).collect())
            .collect();
        fn grow(adjacent: &[Vec<bool>], from: usize, clique: &mut Vec<usize>, best: &mut usize) {
            *best = (*best).max(clique.len());
            for v in from..adjacent.len() {
                if clique.iter().all(|&w| adjacent[v][w]) {
                    clique.push(v);
                    grow(adjacent, v + 1, clique, best);
                    clique.pop();
                }
            }
        }
        let mut best = 0;
        grow(&adjacent, 0, &mut Vec::new(), &mut best);
        u32::try_from(best).unwrap_or(u32::MAX)
    }
}

/// Opcode classes that must be present in any match of `tree`.
fn presence(tree: &CTree) -> BTreeSet<OpcodeClass> {
    match tree {
        CTree::And(cs) => {
            let mut out = BTreeSet::new();
            for c in cs {
                out.extend(presence(c));
            }
            out
        }
        CTree::Or(cs) => {
            let mut sets = cs.iter().map(presence);
            let Some(mut out) = sets.next() else {
                return BTreeSet::new();
            };
            for s in sets {
                out = out.intersection(&s).copied().collect();
            }
            out
        }
        CTree::Atom(a) => match &a.kind {
            AtomKind::OpcodeIs(class) => [*class].into_iter().collect(),
            _ => BTreeSet::new(),
        },
        CTree::Collect { .. } => BTreeSet::new(),
    }
}
