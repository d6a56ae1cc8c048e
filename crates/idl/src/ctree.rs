//! Compiled constraint trees.
//!
//! After macro expansion (`inherits`, quantifiers, renaming — §4.4 of the
//! paper) an idiom definition is a tree of conjunctions and disjunctions
//! over atomic constraints, plus `collect` nodes. Variables are flattened
//! dotted strings (`"inner.iter_begin"`, `"read[2].value"`) interned into
//! dense [`VarId`]s through the constraint's [`SymbolTable`]; the solver
//! assigns each one an IR value, exactly like the paper's Figure 5
//! solution table (which shows the names the table maps back to).

use crate::intern::{SymbolTable, VarId};
use ssair::Opcode;

/// Type classes testable by `is integer/float/pointer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeClass {
    /// `i1`/`i32`/`i64`.
    Integer,
    /// `f32`/`f64`.
    Float,
    /// Any pointer.
    Pointer,
}

/// Edge kinds for `has ... to` atoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Operand-to-user SSA edge.
    Data,
    /// Direct instruction-level control-flow edge.
    Control,
    /// May-dependence between memory instructions.
    Dependence,
}

/// Dominance direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomKind {
    /// Forward dominance.
    Dom,
    /// Post-dominance.
    PostDom,
}

/// Opcode classes for `is <opcode> instruction`. `Branch` covers both the
/// conditional and unconditional forms, `ICmp`/`FCmp` cover all predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpcodeClass {
    /// `store`.
    Store,
    /// `load`.
    Load,
    /// `ret`.
    Return,
    /// `br` / conditional `br`.
    Branch,
    /// `add`.
    Add,
    /// `sub`.
    Sub,
    /// `mul`.
    Mul,
    /// `sdiv`.
    SDiv,
    /// `srem`.
    SRem,
    /// `fadd`.
    FAdd,
    /// `fsub`.
    FSub,
    /// `fmul`.
    FMul,
    /// `fdiv`.
    FDiv,
    /// `select`.
    Select,
    /// `getelementptr`.
    Gep,
    /// `icmp` (any predicate).
    ICmp,
    /// `fcmp` (any predicate).
    FCmp,
    /// `phi`.
    Phi,
    /// `sext`.
    SExt,
    /// `zext`.
    ZExt,
    /// `trunc`.
    Trunc,
    /// `sitofp`.
    SIToFP,
    /// `fptosi`.
    FPToSI,
    /// `fpext`.
    FPExt,
    /// `fptrunc`.
    FPTrunc,
    /// `call`.
    Call,
    /// `alloca`.
    Alloca,
}

impl OpcodeClass {
    /// Parses the surface spelling used in IDL sources.
    #[must_use]
    pub fn from_word(w: &str) -> Option<OpcodeClass> {
        Some(match w {
            "store" => OpcodeClass::Store,
            "load" => OpcodeClass::Load,
            "return" => OpcodeClass::Return,
            "branch" => OpcodeClass::Branch,
            "add" => OpcodeClass::Add,
            "sub" => OpcodeClass::Sub,
            "mul" => OpcodeClass::Mul,
            "sdiv" => OpcodeClass::SDiv,
            "srem" => OpcodeClass::SRem,
            "fadd" => OpcodeClass::FAdd,
            "fsub" => OpcodeClass::FSub,
            "fmul" => OpcodeClass::FMul,
            "fdiv" => OpcodeClass::FDiv,
            "select" => OpcodeClass::Select,
            "gep" => OpcodeClass::Gep,
            "icmp" => OpcodeClass::ICmp,
            "fcmp" => OpcodeClass::FCmp,
            "phi" => OpcodeClass::Phi,
            "sext" => OpcodeClass::SExt,
            "zext" => OpcodeClass::ZExt,
            "trunc" => OpcodeClass::Trunc,
            "sitofp" => OpcodeClass::SIToFP,
            "fptosi" => OpcodeClass::FPToSI,
            "fpext" => OpcodeClass::FPExt,
            "fptrunc" => OpcodeClass::FPTrunc,
            "call" => OpcodeClass::Call,
            "alloca" => OpcodeClass::Alloca,
            _ => return None,
        })
    }

    /// The class `op` belongs to, if any IDL opcode class names it
    /// (bitwise/shift opcodes have no IDL spelling).
    #[must_use]
    pub fn of(op: Opcode) -> Option<OpcodeClass> {
        Some(match op {
            Opcode::Store => OpcodeClass::Store,
            Opcode::Load => OpcodeClass::Load,
            Opcode::Ret => OpcodeClass::Return,
            Opcode::Br | Opcode::CondBr => OpcodeClass::Branch,
            Opcode::Add => OpcodeClass::Add,
            Opcode::Sub => OpcodeClass::Sub,
            Opcode::Mul => OpcodeClass::Mul,
            Opcode::SDiv => OpcodeClass::SDiv,
            Opcode::SRem => OpcodeClass::SRem,
            Opcode::FAdd => OpcodeClass::FAdd,
            Opcode::FSub => OpcodeClass::FSub,
            Opcode::FMul => OpcodeClass::FMul,
            Opcode::FDiv => OpcodeClass::FDiv,
            Opcode::Select => OpcodeClass::Select,
            Opcode::Gep => OpcodeClass::Gep,
            Opcode::ICmp(_) => OpcodeClass::ICmp,
            Opcode::FCmp(_) => OpcodeClass::FCmp,
            Opcode::Phi => OpcodeClass::Phi,
            Opcode::SExt => OpcodeClass::SExt,
            Opcode::ZExt => OpcodeClass::ZExt,
            Opcode::Trunc => OpcodeClass::Trunc,
            Opcode::SIToFP => OpcodeClass::SIToFP,
            Opcode::FPToSI => OpcodeClass::FPToSI,
            Opcode::FPExt => OpcodeClass::FPExt,
            Opcode::FPTrunc => OpcodeClass::FPTrunc,
            Opcode::Call => OpcodeClass::Call,
            Opcode::Alloca => OpcodeClass::Alloca,
            _ => return None,
        })
    }

    /// `true` if `op` belongs to this class.
    #[must_use]
    pub fn matches(self, op: Opcode) -> bool {
        match self {
            OpcodeClass::Store => op == Opcode::Store,
            OpcodeClass::Load => op == Opcode::Load,
            OpcodeClass::Return => op == Opcode::Ret,
            OpcodeClass::Branch => matches!(op, Opcode::Br | Opcode::CondBr),
            OpcodeClass::Add => op == Opcode::Add,
            OpcodeClass::Sub => op == Opcode::Sub,
            OpcodeClass::Mul => op == Opcode::Mul,
            OpcodeClass::SDiv => op == Opcode::SDiv,
            OpcodeClass::SRem => op == Opcode::SRem,
            OpcodeClass::FAdd => op == Opcode::FAdd,
            OpcodeClass::FSub => op == Opcode::FSub,
            OpcodeClass::FMul => op == Opcode::FMul,
            OpcodeClass::FDiv => op == Opcode::FDiv,
            OpcodeClass::Select => op == Opcode::Select,
            OpcodeClass::Gep => op == Opcode::Gep,
            OpcodeClass::ICmp => matches!(op, Opcode::ICmp(_)),
            OpcodeClass::FCmp => matches!(op, Opcode::FCmp(_)),
            OpcodeClass::Phi => op == Opcode::Phi,
            OpcodeClass::SExt => op == Opcode::SExt,
            OpcodeClass::ZExt => op == Opcode::ZExt,
            OpcodeClass::Trunc => op == Opcode::Trunc,
            OpcodeClass::SIToFP => op == Opcode::SIToFP,
            OpcodeClass::FPToSI => op == Opcode::FPToSI,
            OpcodeClass::FPExt => op == Opcode::FPExt,
            OpcodeClass::FPTrunc => op == Opcode::FPTrunc,
            OpcodeClass::Call => op == Opcode::Call,
            OpcodeClass::Alloca => op == Opcode::Alloca,
        }
    }
}

/// An atomic constraint over flattened variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtomKind {
    /// `is integer/float/pointer [constant zero]`.
    TypeIs {
        /// The tested class.
        class: TypeClass,
        /// Also require a zero constant.
        constant_zero: bool,
    },
    /// No users.
    Unused,
    /// Integer/float constant.
    IsConstant,
    /// Constant or function argument ("compile time value").
    IsPreexecution,
    /// Function argument.
    IsArgument,
    /// Any instruction.
    IsInstruction,
    /// Specific opcode class.
    OpcodeIs(OpcodeClass),
    /// Variable equality (or inequality with `negated`).
    Same {
        /// `is not the same as`.
        negated: bool,
    },
    /// `has <kind> to` edge.
    HasEdge(EdgeKind),
    /// Operand position: `vars[0]` is operand `pos` of `vars[1]`.
    ArgumentOf {
        /// Zero-based operand index.
        pos: usize,
    },
    /// `vars[0]` is the incoming value of phi `vars[1]` for the edge whose
    /// terminator is `vars[2]`.
    ReachesPhi,
    /// Instruction-granularity dominance between `vars[0]` and `vars[1]`.
    Dominates {
        /// Strict form.
        strict: bool,
        /// Post-dominance.
        post: bool,
        /// `does not` form.
        negated: bool,
    },
    /// Every path `vars[0] → vars[1]` passes through `vars[2]`.
    AllFlowThrough {
        /// `true` for data-flow paths, `false` for control flow.
        data: bool,
    },
    /// Kernel purity: the backward slice of `vars[0]` terminates at the
    /// `families` members (or constants/arguments) crossing only pure
    /// instructions.
    KilledBy,
    /// Family binding: `families[0] = families[1] ++ families[2]`.
    Concat,
}

/// An atom with its variable references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// The kind.
    pub kind: AtomKind,
    /// Searchable variables (assigned by the solver), as interned ids.
    pub vars: Vec<VarId>,
    /// Family/reference ids resolved against the assignment at
    /// evaluation time (`KilledBy` killers, `Concat` operands).
    pub families: Vec<VarId>,
}

/// A compiled constraint tree.
#[derive(Debug, Clone, PartialEq)]
pub enum CTree {
    /// Conjunction (empty = true).
    And(Vec<CTree>),
    /// Disjunction (empty = false).
    Or(Vec<CTree>),
    /// Atomic constraint.
    Atom(Atom),
    /// All-solutions sub-search. `instances[k]` is the body with the
    /// collect index substituted by `k`; solution `k` of the sub-search is
    /// bound to the names of instance `k`.
    Collect {
        /// Pre-instantiated bodies, index 0..max.
        instances: Vec<CTree>,
    },
}

impl CTree {
    /// All searchable variables in first-occurrence order (excluding
    /// variables internal to `collect` bodies).
    #[must_use]
    pub fn variables(&self) -> Vec<VarId> {
        let mut out = FirstSeen::default();
        self.walk_vars(&mut out, true);
        out.order
    }

    /// All variables including collect-internal ones (used to align
    /// collect instances positionally).
    #[must_use]
    pub fn variables_deep(&self) -> Vec<VarId> {
        let mut out = FirstSeen::default();
        self.walk_vars(&mut out, false);
        out.order
    }

    fn walk_vars(&self, out: &mut FirstSeen, skip_collect: bool) {
        match self {
            CTree::And(cs) | CTree::Or(cs) => {
                for c in cs {
                    c.walk_vars(out, skip_collect);
                }
            }
            CTree::Atom(a) => {
                // Family references (`KilledBy` killers, `Concat` operands)
                // are resolved against the assignment at evaluation time;
                // they are NOT search variables.
                for &v in &a.vars {
                    out.push(v);
                }
            }
            CTree::Collect { instances } => {
                if !skip_collect {
                    for i in instances {
                        i.walk_vars(out, false);
                    }
                }
            }
        }
    }

    /// All ids referenced anywhere in the tree — search variables *and*
    /// family references, collect bodies included — in first-occurrence
    /// order. This is the id universe a compacting remap must cover.
    #[must_use]
    pub fn all_symbols(&self) -> Vec<VarId> {
        let mut out = FirstSeen::default();
        self.walk_symbols(&mut out);
        out.order
    }

    fn walk_symbols(&self, out: &mut FirstSeen) {
        match self {
            CTree::And(cs) | CTree::Or(cs) => {
                for c in cs {
                    c.walk_symbols(out);
                }
            }
            CTree::Atom(a) => {
                for &v in a.vars.iter().chain(&a.families) {
                    out.push(v);
                }
            }
            CTree::Collect { instances } => {
                for i in instances {
                    i.walk_symbols(out);
                }
            }
        }
    }

    /// Applies `f` to every id in the tree (vars and families alike).
    pub fn remap_symbols(&mut self, f: &mut impl FnMut(VarId) -> VarId) {
        match self {
            CTree::And(cs) | CTree::Or(cs) => {
                for c in cs {
                    c.remap_symbols(f);
                }
            }
            CTree::Atom(a) => {
                for v in a.vars.iter_mut().chain(a.families.iter_mut()) {
                    *v = f(*v);
                }
            }
            CTree::Collect { instances } => {
                for i in instances {
                    i.remap_symbols(f);
                }
            }
        }
    }

    /// Number of atoms in the tree (collect bodies counted once).
    #[must_use]
    pub fn atom_count(&self) -> usize {
        match self {
            CTree::And(cs) | CTree::Or(cs) => cs.iter().map(CTree::atom_count).sum(),
            CTree::Atom(_) => 1,
            CTree::Collect { instances } => instances.first().map_or(0, CTree::atom_count),
        }
    }
}

/// Ids in first-occurrence order, deduplicated through a dense
/// seen-set (ids are small slot indices).
#[derive(Default)]
struct FirstSeen {
    order: Vec<VarId>,
    seen: Vec<bool>,
}

impl FirstSeen {
    fn push(&mut self, v: VarId) {
        if v.index() >= self.seen.len() {
            self.seen.resize(v.index() + 1, false);
        }
        if !std::mem::replace(&mut self.seen[v.index()], true) {
            self.order.push(v);
        }
    }
}

/// The shape of one node in a [`TreeIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexedKind {
    /// Conjunction.
    And,
    /// Disjunction.
    Or,
    /// Atomic constraint (slot into [`TreeIndex::atom`]).
    Atom(u32),
    /// All-solutions sub-search (a leaf for evaluation purposes: its
    /// instances are solved at finalization, not during the search).
    Collect,
}

/// One flattened node of a [`TreeIndex`].
/// Pre-computed sub-search setup for one `collect` node: the first
/// instance body's searchable variables and its own [`TreeIndex`], plus a
/// one-slot memo of the (unbound variables → search order) pair the
/// finalize stage needs. The bound outer context is the same on every
/// finalize of a given search, so the memo hits after the first
/// sub-search; a different context just recomputes without caching.
#[derive(Debug, Clone)]
pub struct CollectPlan {
    /// `instances[0].variables()`, unfiltered.
    pub variables: Vec<VarId>,
    /// `instances[0].index()`.
    pub index: TreeIndex,
    order_memo: std::sync::OnceLock<(Vec<VarId>, Vec<VarId>)>,
}

impl CollectPlan {
    /// The search order over `unbound` (which must be the subset of
    /// [`CollectPlan::variables`] the caller found unbound), memoized on
    /// first use.
    #[must_use]
    pub fn order_for(&self, tree: &CTree, unbound: &[VarId]) -> Vec<VarId> {
        let memo = self
            .order_memo
            .get_or_init(|| (unbound.to_vec(), order_variables(tree, unbound)));
        if memo.0 == unbound {
            memo.1.clone()
        } else {
            order_variables(tree, unbound)
        }
    }
}

impl PartialEq for CollectPlan {
    fn eq(&self, other: &CollectPlan) -> bool {
        // The order memo is derived state, recomputable at any time.
        self.variables == other.variables && self.index == other.index
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct IndexedNode {
    /// Node shape (and the atom slot for leaves).
    pub kind: IndexedKind,
    /// Parent node id (`None` for the root).
    pub parent: Option<usize>,
    /// Child node ids (empty for `Atom`/`Collect`).
    pub children: Vec<usize>,
}

/// A flat, pre-order index over a [`CTree`], built once per *constraint*
/// (cached by [`CompiledConstraint::index`]; `collect` bodies build a
/// transient one per sub-search). Owns clones of the atoms it points at,
/// so it carries no lifetime and can outlive any one search.
///
/// The solver's incremental evaluator needs two things the recursive tree
/// cannot answer cheaply: *which atoms mention a given variable* (the
/// watcher lists, dense `Vec`s indexed by [`VarId`]) and *how to reach
/// every ancestor of a node* (the parent links along which cached
/// `And`/`Or` truth values are repaired after a binding). Node 0 is the
/// root; children always have larger ids than their parent, so a reverse
/// iteration visits children before parents.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeIndex {
    nodes: Vec<IndexedNode>,
    /// Clones of the tree's atoms, in pre-order ([`IndexedKind::Atom`]
    /// slots point here).
    atoms: Vec<Atom>,
    /// Pre-built sub-search setup per `Collect` node id (absent only for
    /// degenerate empty-instance collects).
    collect_plans: std::collections::BTreeMap<usize, CollectPlan>,
    watchers: Vec<Vec<usize>>,
    /// Per-node bitmask over variables: bit `v` of node `n`'s words is
    /// set iff some atom in `n`'s subtree mentions variable `v`
    /// (`Collect` bodies excluded — they are evaluation leaves). Lets the
    /// candidate generator skip whole subtrees in O(1) instead of
    /// recursing to discover that nothing below mentions the variable.
    mentions: Vec<u64>,
    /// Words per node in `mentions`.
    mention_words: usize,
}

impl TreeIndex {
    fn push(&mut self, tree: &CTree, parent: Option<usize>) -> usize {
        let id = self.nodes.len();
        let kind = match tree {
            CTree::And(_) => IndexedKind::And,
            CTree::Or(_) => IndexedKind::Or,
            CTree::Atom(a) => {
                self.atoms.push(a.clone());
                IndexedKind::Atom(self.atoms.len() as u32 - 1)
            }
            CTree::Collect { .. } => IndexedKind::Collect,
        };
        self.nodes.push(IndexedNode {
            kind,
            parent,
            children: Vec::new(),
        });
        match tree {
            CTree::And(cs) | CTree::Or(cs) => {
                for c in cs {
                    let child = self.push(c, Some(id));
                    self.nodes[id].children.push(child);
                }
            }
            CTree::Atom(a) => {
                for &v in &a.vars {
                    if self.watchers.len() <= v.index() {
                        self.watchers.resize_with(v.index() + 1, Vec::new);
                    }
                    let w = &mut self.watchers[v.index()];
                    if w.last() != Some(&id) {
                        w.push(id);
                    }
                }
            }
            CTree::Collect { instances } => {
                if let Some(body) = instances.first() {
                    self.collect_plans.insert(
                        id,
                        CollectPlan {
                            variables: body.variables(),
                            index: body.index(),
                            order_memo: std::sync::OnceLock::new(),
                        },
                    );
                }
            }
        }
        id
    }

    /// The pre-built sub-search plan of the `Collect` node `node`
    /// (`None` for non-collect nodes and empty-instance collects).
    #[must_use]
    pub fn collect_plan(&self, node: usize) -> Option<&CollectPlan> {
        self.collect_plans.get(&node)
    }

    /// All nodes, pre-order (node 0 is the root).
    #[must_use]
    pub fn nodes(&self) -> &[IndexedNode] {
        &self.nodes
    }

    /// The atom at `slot` (from [`IndexedKind::Atom`]).
    #[must_use]
    pub fn atom(&self, slot: u32) -> &Atom {
        &self.atoms[slot as usize]
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` for an empty index (never produced by [`CTree::index`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ids of the atom nodes that mention `var` (the atoms whose truth may
    /// change when `var` is bound or unbound).
    #[must_use]
    pub fn watchers(&self, var: VarId) -> &[usize] {
        self.watchers.get(var.index()).map_or(&[], Vec::as_slice)
    }

    /// `true` iff some atom in `node`'s subtree mentions `var`.
    #[must_use]
    pub fn mentions(&self, node: usize, var: VarId) -> bool {
        let (word, bit) = (var.index() / 64, var.index() % 64);
        word < self.mention_words
            && self.mentions[node * self.mention_words + word] & (1 << bit) != 0
    }

    /// Seeds `mentions` bottom-up (children have larger ids, so one
    /// reverse pass sees every child before its parent).
    fn build_mentions(&mut self) {
        self.mention_words = self.watchers.len().div_ceil(64);
        let w = self.mention_words;
        self.mentions = vec![0u64; self.nodes.len() * w];
        for id in (0..self.nodes.len()).rev() {
            match self.nodes[id].kind {
                IndexedKind::Atom(a) => {
                    for v in &self.atoms[a as usize].vars {
                        self.mentions[id * w + v.index() / 64] |= 1 << (v.index() % 64);
                    }
                }
                IndexedKind::And | IndexedKind::Or => {
                    for ci in 0..self.nodes[id].children.len() {
                        let c = self.nodes[id].children[ci];
                        for k in 0..w {
                            let cv = self.mentions[c * w + k];
                            self.mentions[id * w + k] |= cv;
                        }
                    }
                }
                IndexedKind::Collect => {}
            }
        }
    }
}

impl CTree {
    /// Builds the flat evaluation index for this tree. Prefer
    /// [`CompiledConstraint::index`] for whole-constraint searches — it
    /// builds once and caches; this is for transient subtrees (`collect`
    /// bodies).
    #[must_use]
    pub fn index(&self) -> TreeIndex {
        let mut idx = TreeIndex {
            nodes: Vec::new(),
            atoms: Vec::new(),
            collect_plans: std::collections::BTreeMap::new(),
            watchers: Vec::new(),
            mentions: Vec::new(),
            mention_words: 0,
        };
        idx.push(self, None);
        idx.build_mentions();
        idx
    }
}

/// A shared building block inherited on the conjunctive spine (`inherits
/// For`, `inherits DotProductLoop with .. at {dot}`, ..), recorded at
/// expansion time together with its full adaptation. Idiom detection
/// solves the chain of connected spine blocks once per function and
/// seeds every consuming idiom's search from the cached solutions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkeletonRef {
    /// The inherited building-block definition (`For`, `ForNest`,
    /// `LoopAccumulator`, ..).
    pub block: String,
    /// The block's compile-time parameters (e.g. `N=3`), sorted by name.
    pub params: Vec<(String, i64)>,
    /// The block's variables *in this constraint's id space*, in the same
    /// first-occurrence order the standalone-compiled block lists its own
    /// variables — the positional mapping between cached skeleton
    /// solutions and this idiom's seed bindings.
    pub vars: Vec<VarId>,
    /// Flattened rename pairs `(outer, inner)` of the `with {outer} as
    /// {inner}` adaptation, in source order.
    pub renames: Vec<(String, String)>,
    /// Flattened rebase prefix of the `at {prefix}` adaptation, if any.
    pub rebase: Option<String>,
}

impl SkeletonRef {
    /// Reconstructs the `inherits ..` clause source text this marker was
    /// recorded from, with every adaptation name already flattened. A
    /// wrapper constraint built from these clauses expands to exactly the
    /// subtree the idiom embeds (same flattened variable names), which is
    /// what lets a standalone-compiled skeleton chain seed the idiom's
    /// search positionally.
    #[must_use]
    pub fn clause(&self) -> String {
        let mut s = format!("inherits {}", self.block);
        if !self.params.is_empty() {
            let kv: Vec<String> = self
                .params
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            s.push_str(&format!("({})", kv.join(", ")));
        }
        for (i, (outer, inner)) in self.renames.iter().enumerate() {
            let kw = if i == 0 { " with" } else { " and" };
            s.push_str(&format!("{kw} {{{outer}}} as {{{inner}}}"));
        }
        if let Some(p) = &self.rebase {
            s.push_str(&format!(" at {{{p}}}"));
        }
        s
    }
}

/// A fully compiled, solver-ready idiom definition.
#[derive(Debug, Clone)]
pub struct CompiledConstraint {
    /// Idiom name (the `Constraint <name>` header).
    pub name: String,
    /// The constraint tree (atoms hold interned [`VarId`]s).
    pub tree: CTree,
    /// The name ↔ id mapping for every symbol in the tree.
    pub symbols: SymbolTable,
    /// Searchable variables in first-occurrence order.
    pub variables: Vec<VarId>,
    /// Search order for `variables` (precomputed by [`order_variables`]
    /// at compile time so per-query solve setup stays cheap). When
    /// `skeletons` is non-empty, the first skeleton's variables form a
    /// prefix of this order (in the standalone block's own order) so the
    /// solver can substitute cached skeleton solutions for the prefix
    /// enumeration.
    pub order: Vec<VarId>,
    /// Shared loop-skeleton building blocks inherited on the conjunctive
    /// spine, in source order.
    pub skeletons: Vec<SkeletonRef>,
    /// Lazily built evaluation index over `tree`, shared by every search
    /// on this constraint (the tree is immutable after compilation).
    /// Ignored by `PartialEq`.
    pub index_cache: std::sync::OnceLock<TreeIndex>,
}

impl PartialEq for CompiledConstraint {
    fn eq(&self, other: &CompiledConstraint) -> bool {
        // The index cache is derived state — two constraints are equal
        // iff their compiled content is.
        self.name == other.name
            && self.tree == other.tree
            && self.symbols == other.symbols
            && self.variables == other.variables
            && self.order == other.order
            && self.skeletons == other.skeletons
    }
}

impl CompiledConstraint {
    /// The flattened name of `id`.
    #[must_use]
    pub fn var_name(&self, id: VarId) -> &str {
        self.symbols.name(id)
    }

    /// The evaluation index of `tree`, built on first use and cached.
    #[must_use]
    pub fn index(&self) -> &TreeIndex {
        self.index_cache.get_or_init(|| self.tree.index())
    }

    /// The searchable variable names in first-occurrence order (the
    /// string view of [`CompiledConstraint::variables`]).
    #[must_use]
    pub fn variable_names(&self) -> Vec<&str> {
        self.variables
            .iter()
            .map(|&v| self.symbols.name(v))
            .collect()
    }
}

/// Orders variables so that each one (after the first) is connected to an
/// already-ordered variable through a generator-capable atom — the §4.4
/// "variables are collected and ordered to assist constraint solving".
///
/// Precomputed adjacency and hash lookups keep this near-linear; the
/// greedy choice (and therefore the produced order) is identical to the
/// naive quadratic formulation.
#[must_use]
pub fn order_variables(tree: &CTree, vars: &[VarId]) -> Vec<VarId> {
    order_variables_seeded(tree, vars, &[])
}

/// [`order_variables`] with a pre-ordered prefix: `seed` variables are
/// treated as already ordered (and emitted first, in `seed` order); the
/// remaining `vars` are appended by the same greedy connectivity rule.
/// This is how a constraint with a skeleton prefix keeps the skeleton's
/// own variable order while the rest of the idiom orders itself around
/// the (soon pre-bound) skeleton.
#[must_use]
pub fn order_variables_seeded(tree: &CTree, vars: &[VarId], seed: &[VarId]) -> Vec<VarId> {
    use std::collections::{HashMap, HashSet};
    let mut atoms = Vec::new();
    collect_shallow_atoms(tree, &mut atoms);
    // Variables with a unary bucket generator (candidate enumerable).
    let mut anchored: HashSet<VarId> = HashSet::new();
    // var -> connector atoms (binary/ternary generators) mentioning it.
    let mut adj: HashMap<VarId, Vec<&Atom>> = HashMap::new();
    for &a in &atoms {
        match a.kind {
            AtomKind::OpcodeIs(_)
            | AtomKind::IsConstant
            | AtomKind::IsArgument
            | AtomKind::IsInstruction
            | AtomKind::IsPreexecution => {
                if let Some(&v) = a.vars.first() {
                    anchored.insert(v);
                }
            }
            AtomKind::ArgumentOf { .. }
            | AtomKind::HasEdge(_)
            | AtomKind::ReachesPhi
            | AtomKind::Same { negated: false } => {
                for &v in &a.vars {
                    let entry = adj.entry(v).or_default();
                    // An atom lists a variable at most a couple of times;
                    // dedup cheaply.
                    if !entry.iter().any(|x| std::ptr::eq(*x, a)) {
                        entry.push(a);
                    }
                }
            }
            _ => {}
        }
    }
    let has_anchor = |v: &VarId| anchored.contains(v);
    let connected = |v: &VarId, ordered: &HashSet<VarId>| {
        adj.get(v).is_some_and(|atoms| {
            atoms
                .iter()
                .any(|a| a.vars.iter().any(|w| ordered.contains(w)))
        })
    };
    let mut order: Vec<VarId> = Vec::with_capacity(vars.len());
    let mut ordered_set: HashSet<VarId> = HashSet::new();
    let mut remaining: Vec<VarId> = Vec::with_capacity(vars.len());
    for &v in seed {
        if vars.contains(&v) {
            ordered_set.insert(v);
            order.push(v);
        }
    }
    remaining.extend(vars.iter().copied().filter(|v| !ordered_set.contains(v)));
    let take = |remaining: &mut Vec<VarId>,
                order: &mut Vec<VarId>,
                ordered_set: &mut HashSet<VarId>,
                i: usize| {
        let v = remaining.remove(i);
        ordered_set.insert(v);
        order.push(v);
    };
    // Seed: an anchored variable if possible (skipped when a skeleton
    // prefix already seeded the order).
    if ordered_set.is_empty() {
        if let Some(i) = remaining.iter().position(has_anchor) {
            take(&mut remaining, &mut order, &mut ordered_set, i);
        } else if !remaining.is_empty() {
            take(&mut remaining, &mut order, &mut ordered_set, 0);
        }
    }
    while !remaining.is_empty() {
        let next = remaining
            .iter()
            .position(|v| connected(v, &ordered_set) && has_anchor(v))
            .or_else(|| remaining.iter().position(|v| connected(v, &ordered_set)))
            .or_else(|| remaining.iter().position(has_anchor))
            .unwrap_or(0);
        take(&mut remaining, &mut order, &mut ordered_set, next);
    }
    order
}

fn collect_shallow_atoms<'t>(tree: &'t CTree, out: &mut Vec<&'t Atom>) {
    match tree {
        CTree::And(cs) | CTree::Or(cs) => {
            for c in cs {
                collect_shallow_atoms(c, out);
            }
        }
        CTree::Atom(a) => out.push(a),
        CTree::Collect { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_classes_match() {
        assert!(OpcodeClass::Branch.matches(Opcode::Br));
        assert!(OpcodeClass::Branch.matches(Opcode::CondBr));
        assert!(!OpcodeClass::Branch.matches(Opcode::Ret));
        assert!(OpcodeClass::ICmp.matches(Opcode::ICmp(ssair::ICmpPred::Slt)));
        assert!(OpcodeClass::from_word("gep") == Some(OpcodeClass::Gep));
        assert!(OpcodeClass::from_word("bogus").is_none());
    }

    /// A two-variable sample tree over a fresh table: `sum` = VarId(0),
    /// `factor` = VarId(1).
    fn sample_tree(with_collect: bool) -> (CTree, SymbolTable) {
        let mut syms = SymbolTable::new();
        let sum = syms.intern("sum");
        let factor = syms.intern("factor");
        let mut children = vec![
            CTree::Atom(Atom {
                kind: AtomKind::OpcodeIs(OpcodeClass::Add),
                vars: vec![sum],
                families: vec![],
            }),
            CTree::Or(vec![
                CTree::Atom(Atom {
                    kind: AtomKind::ArgumentOf { pos: 0 },
                    vars: vec![factor, sum],
                    families: vec![],
                }),
                CTree::Atom(Atom {
                    kind: AtomKind::ArgumentOf { pos: 1 },
                    vars: vec![factor, sum],
                    families: vec![],
                }),
            ]),
        ];
        if with_collect {
            children.push(CTree::Collect { instances: vec![] });
        }
        (CTree::And(children), syms)
    }

    #[test]
    fn variable_collection_order_and_dedup() {
        let (t, syms) = sample_tree(false);
        assert_eq!(
            t.variables(),
            vec![syms.lookup("sum").unwrap(), syms.lookup("factor").unwrap()]
        );
        assert_eq!(t.atom_count(), 3);
    }

    #[test]
    fn tree_index_parents_children_and_watchers() {
        let (t, syms) = sample_tree(true);
        let idx = t.index();
        assert_eq!(idx.len(), 6);
        let nodes = idx.nodes();
        assert_eq!(nodes[0].kind, IndexedKind::And);
        assert_eq!(nodes[0].parent, None);
        assert_eq!(nodes[0].children, vec![1, 2, 5]);
        assert_eq!(nodes[2].kind, IndexedKind::Or);
        assert_eq!(nodes[2].children, vec![3, 4]);
        assert_eq!(nodes[5].kind, IndexedKind::Collect);
        // Children always have larger ids than their parent.
        for (id, n) in nodes.iter().enumerate() {
            if let Some(p) = n.parent {
                assert!(p < id);
            }
        }
        assert_eq!(idx.watchers(syms.lookup("sum").unwrap()), &[1, 3, 4]);
        assert_eq!(idx.watchers(syms.lookup("factor").unwrap()), &[3, 4]);
        assert!(idx.watchers(VarId(99)).is_empty());
    }
}
