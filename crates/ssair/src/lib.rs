//! # ssair — an SSA intermediate representation substrate
//!
//! This crate provides the compiler substrate that the rest of the
//! `idiomatch` workspace is built on. It is a deliberately LLVM-IR-like
//! single static assignment representation: modules contain functions,
//! functions contain basic blocks, blocks contain instructions, and every
//! instruction that produces a result *is* a value that later instructions
//! reference directly.
//!
//! The ASPLOS'18 paper this workspace reproduces ("Automatic Matching of
//! Legacy Code to Heterogeneous APIs: An Idiomatic Approach") performs idiom
//! detection on LLVM IR produced by clang. We do not bind to LLVM; instead
//! this crate implements the subset of the IR and of the standard analyses
//! (control-flow graph, dominator and post-dominator trees, natural loops,
//! def-use chains) that the Idiom Description Language's atomic constraints
//! are defined over.
//!
//! ## Layout
//!
//! * [`types`] — the type system (`i1/i32/i64/f32/f64/ptr`).
//! * [`function`] — values, instructions, basic blocks, functions and the
//!   builder API used by the `minicc` frontend.
//! * [`module`] — a translation unit: a set of functions.
//! * [`printer`] — LLVM-flavoured textual output.
//! * [`parser`] — parses the textual form back (round-trips with the
//!   printer; used heavily by tests and examples).
//! * [`analysis`] — CFG, dominators, post-dominators, loops, def-use, and
//!   the instruction-granularity flow queries IDL atomics need.
//! * [`verify`] — structural SSA well-formedness checks.
//! * [`pass`] — small transformation utilities (the batch use-rewrite,
//!   dead-code elimination, unreachable-block removal) used by the
//!   optimizer and by the idiom replacement phase.
//! * [`opt`] — the mid-level optimizer: the one pass pipeline for the
//!   functions `minicc` lowers and the device programs `xform` generates.

pub mod analysis;
pub mod function;
pub mod module;
pub mod opt;
pub mod parser;
pub mod pass;
pub mod printer;
pub mod types;
pub mod verify;

pub use function::{
    BlockId, FCmpPred, Function, ICmpPred, InsertPoint, Instr, Opcode, ValueId, ValueKind,
    MATH_INTRINSICS,
};
pub use module::Module;
pub use types::Type;
