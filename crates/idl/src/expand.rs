//! Macro expansion: AST → [`CTree`].
//!
//! Implements the compilation process of §4.4: `inherits`, `for all`,
//! `for some`, `for`, `if`, renaming and rebasing are eliminated, leaving
//! conjunctions/disjunctions of atomics with flattened variable names.
//! `collect` bodies are pre-instantiated for each index value.
//!
//! Names are interned into the constraint's [`SymbolTable`] as they are
//! produced, and renames/rebases rewrite ids through the table; after
//! expansion the table is compacted to exactly the ids the final tree
//! references (in first-occurrence order), `Concat` output slots are
//! pre-interned and the family structure is indexed, so the solver never
//! touches a string. Top-level `inherits For`/`inherits ForNest(..)`
//! blocks on the conjunctive spine are additionally recorded as
//! [`SkeletonRef`] markers — the hook the per-function loop-skeleton
//! cache in `idioms` seeds idiom searches from.

use crate::ast::*;
use crate::ctree::*;
use crate::intern::{SymbolTable, VarId};
use std::collections::HashMap;

/// Building-block definitions eligible as shared skeleton-chain members.
/// Loop shapes plus the accumulator/read families — every reusable block
/// the idiom library inherits on a conjunctive spine.
const SKELETON_BLOCKS: [&str; 9] = [
    "For",
    "ForNest",
    "LoopAccumulator",
    "DotProductLoop",
    "VectorRead",
    "OffsetRead",
    "MatrixRead",
    "MatrixStore",
    "ReadRange",
];

/// An expansion failure (unknown definition, unbound parameter, cyclic
/// inheritance, malformed atom).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpandError {
    /// Human-readable description with definition context.
    pub message: String,
}

impl std::fmt::Display for ExpandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IDL expansion: {}", self.message)
    }
}

impl std::error::Error for ExpandError {}

type Result<T> = std::result::Result<T, ExpandError>;

/// Compiles the definition `name` from `lib` into a solver-ready
/// constraint.
pub fn compile(lib: &Library, name: &str) -> Result<CompiledConstraint> {
    let def = lib.get(name).ok_or_else(|| ExpandError {
        message: format!("no definition named {name:?}"),
    })?;
    compile_definition(lib, def)
}

/// Compiles `def` into a solver-ready constraint, resolving what it
/// inherits against `lib` (which need not contain `def` itself) — so a
/// small wrapper definition compiles against a library parsed once.
pub fn compile_definition(lib: &Library, def: &Definition) -> Result<CompiledConstraint> {
    let name = def.name.as_str();
    let mut cx = Cx {
        lib,
        stack: vec![name.to_owned()],
        syms: SymbolTable::new(),
        skeletons: Vec::new(),
    };
    let env = HashMap::new();
    let mut tree = cx.expand_spine(&def.body, &env, true)?;
    // Compact the symbol table to exactly the ids the final tree
    // references: renames leave dead pre-rename symbols behind, and the
    // solver's slot arrays are sized by the table.
    let used = tree.all_symbols();
    let mut symbols = SymbolTable::new();
    let remap: HashMap<VarId, VarId> = used
        .iter()
        .map(|&v| (v, symbols.intern(cx.syms.name(v))))
        .collect();
    tree.remap_symbols(&mut |v| remap[&v]);
    let mut skeletons = cx.skeletons;
    for s in &mut skeletons {
        for v in &mut s.vars {
            *v = remap[v];
        }
    }
    // Chain selection: keep only the markers connected (through shared
    // variables) to the chain built so far — the first marker (the loop
    // skeleton) anchors it. Disconnected markers (e.g. a MatrixRead whose
    // variables only meet the loop nest through separate spine atoms)
    // would multiply the chain's solution rows without narrowing them,
    // so they are dropped and the idiom's own search re-proves them.
    {
        let mut chain: Vec<SkeletonRef> = Vec::new();
        let mut included: std::collections::HashSet<VarId> = std::collections::HashSet::new();
        for s in skeletons {
            if chain.is_empty() || s.vars.iter().any(|v| included.contains(v)) {
                included.extend(s.vars.iter().copied());
                chain.push(s);
            }
        }
        skeletons = chain;
    }
    // `Concat` writes `out[k]` bindings at solve time; pre-intern every
    // slot it could ever fill (bounded by the operand families' sizes)
    // so the solver never interns mid-search. Concat chains can extend
    // families, so iterate to a fixpoint — an *acyclic* chain of N
    // concats stabilizes within N+1 rounds (each round resolves at
    // least one more chain level), so the loop is capped there: a
    // self-referential concat (`{xs} = {xs} ++ {ys}`) would otherwise
    // grow its own input forever. Past the cap the family is simply
    // left at its current capacity (the solver truncates to the
    // pre-interned slots), which is the only finite reading of a
    // cyclic concatenation.
    let mut atoms = Vec::new();
    collect_deep_atoms(&tree, &mut atoms);
    let concats: Vec<&Atom> = atoms
        .into_iter()
        .filter(|a| a.kind == AtomKind::Concat)
        .collect();
    for _round in 0..=concats.len() {
        symbols.index_families();
        let mut fresh: Vec<String> = Vec::new();
        for a in &concats {
            let cap_of = |fam: VarId| symbols.family_members(fam).len().max(1);
            let cap = cap_of(a.families[1]) + cap_of(a.families[2]);
            let out = symbols.name(a.families[0]);
            for k in 0..cap {
                let slot = format!("{out}[{k}]");
                if symbols.lookup(&slot).is_none() {
                    fresh.push(slot);
                }
            }
        }
        if fresh.is_empty() {
            break;
        }
        for s in fresh {
            symbols.intern(&s);
        }
    }
    symbols.index_families();
    let variables = tree.variables();
    // The ordering seed is the whole chain's variable set (deduplicated,
    // first-occurrence order) — exactly the prefix a cached chain
    // solution binds in one shot.
    let mut seed: Vec<VarId> = Vec::new();
    for s in &skeletons {
        for &v in &s.vars {
            if !seed.contains(&v) {
                seed.push(v);
            }
        }
    }
    let order = crate::ctree::order_variables_seeded(&tree, &variables, &seed);
    Ok(CompiledConstraint {
        name: name.to_owned(),
        tree,
        symbols,
        variables,
        order,
        skeletons,
        index_cache: std::sync::OnceLock::new(),
    })
}

fn collect_deep_atoms<'t>(tree: &'t CTree, out: &mut Vec<&'t Atom>) {
    match tree {
        CTree::And(cs) | CTree::Or(cs) => {
            for c in cs {
                collect_deep_atoms(c, out);
            }
        }
        CTree::Atom(a) => out.push(a),
        CTree::Collect { instances } => {
            for i in instances {
                collect_deep_atoms(i, out);
            }
        }
    }
}

struct Cx<'l> {
    lib: &'l Library,
    stack: Vec<String>,
    syms: SymbolTable,
    skeletons: Vec<SkeletonRef>,
}

/// A variable-name rewrite: exact-or-prefix renames plus an optional
/// rebase prefix for unmapped names.
struct Rewrite {
    /// (inner prefix, outer replacement).
    renames: Vec<(String, String)>,
    rebase: Option<String>,
}

impl Rewrite {
    fn apply(&self, name: &str) -> String {
        for (inner, outer) in &self.renames {
            if name == inner {
                return outer.clone();
            }
            if let Some(rest) = name.strip_prefix(inner.as_str()) {
                if rest.starts_with('.') || rest.starts_with('[') {
                    return format!("{outer}{rest}");
                }
            }
        }
        match &self.rebase {
            Some(p) => format!("{p}.{name}"),
            None => name.to_owned(),
        }
    }
}

/// Applies `rw` to every id in `tree`, rewriting each distinct id once
/// (new names are interned at their first occurrence, in tree order).
fn rewrite_tree(tree: &mut CTree, rw: &Rewrite, syms: &mut SymbolTable) {
    let mut done: HashMap<VarId, VarId> = HashMap::new();
    tree.remap_symbols(&mut |v| {
        *done.entry(v).or_insert_with(|| {
            let new = rw.apply(syms.name(v));
            if syms.name(v) == new {
                v
            } else {
                syms.intern(&new)
            }
        })
    });
}

impl<'l> Cx<'l> {
    fn err(&self, msg: impl Into<String>) -> ExpandError {
        ExpandError {
            message: format!(
                "{} (while expanding {})",
                msg.into(),
                self.stack.join(" -> ")
            ),
        }
    }

    fn flatten(&self, v: &VarName, env: &HashMap<String, i64>) -> Result<String> {
        v.flatten(env).map_err(|e| self.err(e))
    }

    /// Flattens and interns a variable reference.
    fn fvar(&mut self, v: &VarName, env: &HashMap<String, i64>) -> Result<VarId> {
        let name = self.flatten(v, env)?;
        Ok(self.syms.intern(&name))
    }

    fn expand(&mut self, c: &Constraint, env: &HashMap<String, i64>) -> Result<CTree> {
        self.expand_spine(c, env, false)
    }

    /// [`Cx::expand`] with spine tracking: `spine` is `true` only along
    /// the root's conjunctive chain, where an `inherits For`/`ForNest` is
    /// a whole-idiom loop skeleton worth recording as a [`SkeletonRef`].
    fn expand_spine(
        &mut self,
        c: &Constraint,
        env: &HashMap<String, i64>,
        spine: bool,
    ) -> Result<CTree> {
        match c {
            Constraint::And(cs) => Ok(CTree::And(
                cs.iter()
                    .map(|x| self.expand_spine(x, env, spine))
                    .collect::<Result<Vec<_>>>()?,
            )),
            Constraint::Or(cs) => Ok(CTree::Or(
                cs.iter()
                    .map(|x| self.expand(x, env))
                    .collect::<Result<Vec<_>>>()?,
            )),
            Constraint::Atom(a) => self.expand_atom(a, env),
            Constraint::ForAll {
                body,
                index,
                lo,
                hi,
            } => {
                let lo = lo.eval(env).map_err(|e| self.err(e))?;
                let hi = hi.eval(env).map_err(|e| self.err(e))?;
                let mut items = Vec::new();
                for i in lo..=hi {
                    let mut env2 = env.clone();
                    env2.insert(index.clone(), i);
                    items.push(self.expand(body, &env2)?);
                }
                Ok(CTree::And(items))
            }
            Constraint::ForSome {
                body,
                index,
                lo,
                hi,
            } => {
                let lo = lo.eval(env).map_err(|e| self.err(e))?;
                let hi = hi.eval(env).map_err(|e| self.err(e))?;
                let mut items = Vec::new();
                for i in lo..=hi {
                    let mut env2 = env.clone();
                    env2.insert(index.clone(), i);
                    items.push(self.expand(body, &env2)?);
                }
                Ok(CTree::Or(items))
            }
            Constraint::ForOne { body, index, value } => {
                let v = value.eval(env).map_err(|e| self.err(e))?;
                let mut env2 = env.clone();
                env2.insert(index.clone(), v);
                self.expand(body, &env2)
            }
            Constraint::If { a, b, then, other } => {
                let av = a.eval(env).map_err(|e| self.err(e))?;
                let bv = b.eval(env).map_err(|e| self.err(e))?;
                if av == bv {
                    self.expand(then, env)
                } else {
                    self.expand(other, env)
                }
            }
            Constraint::Collect { index, max, body } => {
                let mut instances = Vec::new();
                for k in 0..*max {
                    let mut env2 = env.clone();
                    env2.insert(index.clone(), k as i64);
                    instances.push(self.expand(body, &env2)?);
                }
                Ok(CTree::Collect { instances })
            }
            Constraint::Adapted { inner, adapt } => {
                let mut tree = self.expand(inner, env)?;
                let rw = self.build_rewrite(adapt, env)?;
                rewrite_tree(&mut tree, &rw, &mut self.syms);
                Ok(tree)
            }
            Constraint::Inherits {
                name,
                params,
                adapt,
            } => {
                if self.stack.contains(name) {
                    return Err(self.err(format!("cyclic inheritance of {name:?}")));
                }
                let lib = self.lib;
                let def = lib
                    .get(name)
                    .ok_or_else(|| self.err(format!("no definition named {name:?}")))?;
                // Inner environment: only the declared parameters.
                let mut inner_env = HashMap::new();
                for (pname, calc) in params {
                    inner_env.insert(pname.clone(), calc.eval(env).map_err(|e| self.err(e))?);
                }
                self.stack.push(name.clone());
                let mut tree = self.expand(&def.body, &inner_env)?;
                self.stack.pop();
                let rw = self.build_rewrite_mixed(adapt, env, &inner_env)?;
                rewrite_tree(&mut tree, &rw, &mut self.syms);
                // A loop-skeleton building block inherited on the
                // conjunctive spine: record the (renamed) variable set so
                // detection can seed this constraint's search from cached
                // per-function skeleton solutions. Variables are listed
                // in first-occurrence order, which renaming preserves, so
                // they align positionally with the standalone-compiled
                // block's `variables`.
                if spine && SKELETON_BLOCKS.contains(&name.as_str()) {
                    let mut sorted_params: Vec<(String, i64)> = inner_env.into_iter().collect();
                    sorted_params.sort();
                    self.skeletons.push(SkeletonRef {
                        block: name.clone(),
                        params: sorted_params,
                        vars: tree.variables(),
                        renames: rw
                            .renames
                            .iter()
                            .map(|(inner, outer)| (outer.clone(), inner.clone()))
                            .collect(),
                        rebase: rw.rebase.clone(),
                    });
                }
                Ok(tree)
            }
        }
    }

    /// Builds a rewrite where both sides are flattened under the same env
    /// (used by `Adapted` groups, whose inner names live in the current
    /// scope).
    fn build_rewrite(&self, adapt: &Adaptation, env: &HashMap<String, i64>) -> Result<Rewrite> {
        self.build_rewrite_mixed(adapt, env, env)
    }

    /// Builds a rewrite for `inherits`: outer names evaluate under the
    /// caller's environment, inner names under the inherited definition's
    /// parameter environment.
    fn build_rewrite_mixed(
        &self,
        adapt: &Adaptation,
        outer_env: &HashMap<String, i64>,
        inner_env: &HashMap<String, i64>,
    ) -> Result<Rewrite> {
        let mut renames = Vec::new();
        for (outer, inner) in &adapt.renames {
            renames.push((
                self.flatten(inner, inner_env)?,
                self.flatten(outer, outer_env)?,
            ));
        }
        let rebase = match &adapt.rebase {
            Some(p) => Some(self.flatten(p, outer_env)?),
            None => None,
        };
        Ok(Rewrite { renames, rebase })
    }

    fn expand_atom(&mut self, a: &RawAtom, env: &HashMap<String, i64>) -> Result<CTree> {
        let atom = match a {
            RawAtom::TypeIs {
                var,
                class,
                constant_zero,
            } => {
                let class = match class.as_str() {
                    "integer" => TypeClass::Integer,
                    "float" => TypeClass::Float,
                    "pointer" => TypeClass::Pointer,
                    other => return Err(self.err(format!("unknown type class {other:?}"))),
                };
                Atom {
                    kind: AtomKind::TypeIs {
                        class,
                        constant_zero: *constant_zero,
                    },
                    vars: vec![self.fvar(var, env)?],
                    families: vec![],
                }
            }
            RawAtom::Unused(v) => Atom {
                kind: AtomKind::Unused,
                vars: vec![self.fvar(v, env)?],
                families: vec![],
            },
            RawAtom::IsConstant(v) => Atom {
                kind: AtomKind::IsConstant,
                vars: vec![self.fvar(v, env)?],
                families: vec![],
            },
            RawAtom::IsPreexecution(v) => Atom {
                kind: AtomKind::IsPreexecution,
                vars: vec![self.fvar(v, env)?],
                families: vec![],
            },
            RawAtom::IsArgument(v) => Atom {
                kind: AtomKind::IsArgument,
                vars: vec![self.fvar(v, env)?],
                families: vec![],
            },
            RawAtom::IsInstruction(v) => Atom {
                kind: AtomKind::IsInstruction,
                vars: vec![self.fvar(v, env)?],
                families: vec![],
            },
            RawAtom::OpcodeIs { var, opcode } => {
                let class = OpcodeClass::from_word(opcode)
                    .ok_or_else(|| self.err(format!("unknown opcode {opcode:?}")))?;
                Atom {
                    kind: AtomKind::OpcodeIs(class),
                    vars: vec![self.fvar(var, env)?],
                    families: vec![],
                }
            }
            RawAtom::Same { a, b, negated } => Atom {
                kind: AtomKind::Same { negated: *negated },
                vars: vec![self.fvar(a, env)?, self.fvar(b, env)?],
                families: vec![],
            },
            RawAtom::HasEdge { from, to, kind } => {
                let kind = match kind.as_str() {
                    "data" => EdgeKind::Data,
                    "control" => EdgeKind::Control,
                    "dependence" => EdgeKind::Dependence,
                    other => return Err(self.err(format!("unknown edge kind {other:?}"))),
                };
                Atom {
                    kind: AtomKind::HasEdge(kind),
                    vars: vec![self.fvar(from, env)?, self.fvar(to, env)?],
                    families: vec![],
                }
            }
            RawAtom::ArgumentOf { child, parent, pos } => Atom {
                kind: AtomKind::ArgumentOf { pos: *pos },
                vars: vec![self.fvar(child, env)?, self.fvar(parent, env)?],
                families: vec![],
            },
            RawAtom::ReachesPhi { value, phi, from } => Atom {
                kind: AtomKind::ReachesPhi,
                vars: vec![
                    self.fvar(value, env)?,
                    self.fvar(phi, env)?,
                    self.fvar(from, env)?,
                ],
                families: vec![],
            },
            RawAtom::Dominates {
                a,
                b,
                strict,
                post,
                negated,
            } => Atom {
                kind: AtomKind::Dominates {
                    strict: *strict,
                    post: *post,
                    negated: *negated,
                },
                vars: vec![self.fvar(a, env)?, self.fvar(b, env)?],
                families: vec![],
            },
            RawAtom::AllFlowThrough {
                from,
                to,
                through,
                kind,
            } => Atom {
                kind: AtomKind::AllFlowThrough {
                    data: kind == "data",
                },
                vars: vec![
                    self.fvar(from, env)?,
                    self.fvar(to, env)?,
                    self.fvar(through, env)?,
                ],
                families: vec![],
            },
            RawAtom::KilledBy { sink, killers } => Atom {
                kind: AtomKind::KilledBy,
                vars: vec![self.fvar(sink, env)?],
                families: killers
                    .iter()
                    .map(|k| self.fvar(k, env))
                    .collect::<Result<Vec<_>>>()?,
            },
            RawAtom::Concat { out, in1, in2 } => Atom {
                kind: AtomKind::Concat,
                vars: vec![],
                families: vec![
                    self.fvar(out, env)?,
                    self.fvar(in1, env)?,
                    self.fvar(in2, env)?,
                ],
            },
        };
        Ok(CTree::Atom(atom))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_library;

    #[test]
    fn compiles_figure2() {
        let lib = parse_library(
            r#"
Constraint Factorization
( {sum} is add instruction and
  {left} is first argument of {sum} and
  ( {factor} is first argument of {left} or
    {factor} is second argument of {left} ))
End
"#,
        )
        .unwrap();
        let c = compile(&lib, "Factorization").unwrap();
        assert_eq!(c.variable_names(), vec!["sum", "left", "factor"]);
        assert_eq!(c.tree.atom_count(), 4);
    }

    #[test]
    fn inheritance_renames_and_rebases() {
        let lib = parse_library(
            r#"
Constraint Read
( {address} is gep instruction and
  {value} is load instruction and
  {address} is first argument of {value} and
  {idx} is second argument of {address} )
End

Constraint Outer
( inherits Read with {iterator} as {idx} at {src} and
  {iterator} is phi instruction )
End
"#,
        )
        .unwrap();
        let c = compile(&lib, "Outer").unwrap();
        // idx is renamed to the outer iterator; others get the src prefix.
        let names = c.variable_names();
        assert!(names.contains(&"src.address"));
        assert!(names.contains(&"src.value"));
        assert!(names.contains(&"iterator"));
        assert!(!names.iter().any(|&v| v == "idx" || v == "src.idx"));
    }

    #[test]
    fn forall_duplicates_with_index_substitution() {
        let lib = parse_library(
            r#"
Constraint Nest
( ( {loop[i].header} is phi instruction ) for all i = 0 .. N-1 )
End

Constraint Three
( inherits Nest(N=3) )
End
"#,
        )
        .unwrap();
        let c = compile(&lib, "Three").unwrap();
        assert_eq!(
            c.variable_names(),
            vec!["loop[0].header", "loop[1].header", "loop[2].header"]
        );
    }

    #[test]
    fn forsome_becomes_disjunction() {
        let lib = parse_library(
            r#"
Constraint S
( ( {x[i]} is load instruction ) for some i = 0 .. 1 )
End
"#,
        )
        .unwrap();
        let c = compile(&lib, "S").unwrap();
        assert!(matches!(c.tree, CTree::Or(ref v) if v.len() == 2));
    }

    #[test]
    fn if_selects_branch_at_compile_time() {
        let lib = parse_library(
            r#"
Constraint C
( if N = 1 then {a} is unused else {a} is an instruction endif )
End

Constraint D ( inherits C(N=1) )
End

Constraint E ( inherits C(N=2) )
End
"#,
        )
        .unwrap();
        let d = compile(&lib, "D").unwrap();
        let e = compile(&lib, "E").unwrap();
        assert!(matches!(
            d.tree,
            CTree::Atom(Atom {
                kind: AtomKind::Unused,
                ..
            })
        ));
        assert!(matches!(
            e.tree,
            CTree::Atom(Atom {
                kind: AtomKind::IsInstruction,
                ..
            })
        ));
    }

    #[test]
    fn collect_preinstantiates() {
        let lib = parse_library(
            r#"
Constraint C
( collect i 3 ( {read[i].value} is load instruction and
                {iterator} has data flow to {read[i].value} ) )
End
"#,
        )
        .unwrap();
        let c = compile(&lib, "C").unwrap();
        let CTree::Collect { instances } = &c.tree else {
            panic!("expected collect")
        };
        assert_eq!(instances.len(), 3);
        // Outer variables exclude collect internals.
        assert!(c.variables.is_empty());
        let deep: Vec<&str> = instances[2]
            .variables_deep()
            .into_iter()
            .map(|v| c.symbols.name(v))
            .collect();
        assert!(deep.contains(&"read[2].value"));
        assert!(deep.contains(&"iterator"));
    }

    #[test]
    fn self_referential_concat_terminates_at_a_finite_capacity() {
        // `{xs} = {xs} ++ {old}` can never stabilize — every pre-interned
        // output slot enlarges the input family. Compilation must still
        // terminate (capped fixpoint) instead of hanging, leaving `xs`
        // with a finite pre-interned capacity.
        let lib = parse_library(
            "Constraint C ( {old} is phi instruction and {xs} is concatenation of {xs} and {old} ) End",
        )
        .unwrap();
        let c = compile(&lib, "C").unwrap();
        let xs = c.symbols.lookup("xs").expect("family base interned");
        assert!(!c.symbols.family_members(xs).is_empty());
    }

    #[test]
    fn cyclic_inheritance_is_an_error() {
        let lib = parse_library("Constraint A ( inherits B ) End Constraint B ( inherits A ) End")
            .unwrap();
        let err = compile(&lib, "A").unwrap_err();
        assert!(err.message.contains("cyclic"));
    }

    #[test]
    fn unknown_definition_is_an_error() {
        let lib = parse_library("Constraint A ( inherits Missing ) End").unwrap();
        assert!(compile(&lib, "A").is_err());
        assert!(compile(&lib, "Nope").is_err());
    }

    #[test]
    fn family_prefix_renaming() {
        let lib = parse_library(
            r#"
Constraint Inner
( all flow to {out} is killed by {input} )
End

Constraint Outer
( inherits Inner with {reads} as {input} and {result} as {out} at {k} )
End
"#,
        )
        .unwrap();
        let c = compile(&lib, "Outer").unwrap();
        let CTree::Atom(a) = &c.tree else { panic!() };
        assert_eq!(c.symbols.name(a.vars[0]), "result");
        assert_eq!(c.symbols.name(a.families[0]), "reads");
    }
}
