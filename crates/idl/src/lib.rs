//! # idl — the Idiom Description Language
//!
//! This crate implements the paper's central contribution: a constraint
//! language for describing computational idioms over SSA IR (§3, Figure 7).
//! An IDL *program* is a set of named `Constraint ... End` definitions;
//! each definition combines **atomic constraints** (opcode tests, data- and
//! control-flow edges, dominance, argument positions...) with conjunction,
//! disjunction, inheritance, range quantifiers (`for all` / `for some`),
//! compile-time conditionals and the `collect` construct.
//!
//! Compilation follows §4.4 of the paper: `inherits`, `for all`,
//! `for some`, `if`, renaming and rebasing are macro-expanded away, leaving
//! a flat [`ctree::CTree`] of conjunctions/disjunctions over atomics (plus
//! `collect` nodes, which the solver executes as nested all-solutions
//! searches). Variable names are flattened to dotted strings such as
//! `inner.iter_begin` or `read[2].value`, exactly the names the paper's
//! Figure 5 solution table shows.
//!
//! ## Deviations from the paper's grammar (documented in DESIGN.md)
//!
//! The paper prints the BNF but not the building-block idioms, and two of
//! its atomics are under-specified. We therefore:
//!
//! * support `post dominates` forms (used by the paper's own SESE spec but
//!   missing from its printed grammar);
//! * accept every ssair opcode in `is <opcode> instruction`;
//! * define the kernel-purity varlist atomic as
//!   `all flow to {v} is killed by {list}` — every backward data-flow path
//!   from `v` must terminate at a member of `list`, a constant or an
//!   argument, crossing only pure instructions;
//! * define `{out} is concatenation of {in1} and {in2}` as the `Concat`
//!   binding constraint for variable families.
//!
//! ## Example
//!
//! The paper's Figure 2 factorization idiom parses and compiles directly:
//!
//! ```
//! let src = r#"
//! Constraint FactorizationOpportunity
//! ( {sum} is add instruction and
//!   {left_addend} is first argument of {sum} and
//!   {left_addend} is mul instruction and
//!   {right_addend} is second argument of {sum} and
//!   {right_addend} is mul instruction and
//!   ( {factor} is first argument of {left_addend} or
//!     {factor} is second argument of {left_addend}) and
//!   ( {factor} is first argument of {right_addend} or
//!     {factor} is second argument of {right_addend}))
//! End
//! "#;
//! let lib = idl::parse_library(src).expect("parses");
//! let compiled = idl::compile(&lib, "FactorizationOpportunity").expect("compiles");
//! assert_eq!(compiled.variables.len(), 4);
//! ```

pub mod ast;
pub mod ctree;
pub mod expand;
pub mod intern;
pub mod lexer;
pub mod parser;

pub use ast::{Calc, Constraint, Definition, Library, VarName};
pub use ctree::{
    order_variables, order_variables_seeded, Atom, AtomKind, CTree, CompiledConstraint, DomKind,
    EdgeKind, IndexedKind, IndexedNode, OpcodeClass, SkeletonRef, TreeIndex, TypeClass,
};
pub use expand::{compile, compile_definition, ExpandError};
pub use intern::{SymbolTable, VarId};
pub use parser::{parse_library, ParseError};
