//! # interp — an interpreter and profiler for ssair modules
//!
//! The reproduction needs to *execute* the benchmark programs for three
//! purposes:
//!
//! 1. **correctness validation** — after the idiom replacement phase, the
//!    transformed program (with heterogeneous API calls) must compute the
//!    same results as the original (tested end-to-end in `/tests`);
//! 2. **runtime coverage** (paper Figure 17) — the per-instruction
//!    execution counts of the [`Profile`] determine what fraction of the
//!    sequential work happens inside detected idiom regions;
//! 3. **the sequential cost model** (paper Figure 18 / Table 3 baselines)
//!    — the `hetero` crate converts profile counts into modeled sequential
//!    milliseconds.
//!
//! Execution has one production path: each module is lowered once with
//! [`compile_module`] into a flat register bytecode and executed many
//! times with the [`Vm`]. Verified IR ([`ssair::verify`]) compiles in
//! full; calling a function the compiler refused is an [`ExecError`].
//! The tree-walking [`Machine`] is a straightforward SSA evaluator over
//! the same byte-addressable [`Memory`], kept as the reference the VM is
//! differential-tested against bit-for-bit (results, errors, step
//! accounting, profiles). Calls resolve in order to: registered *host
//! functions* (the simulated heterogeneous APIs installed by the `hetero`
//! crate), the math intrinsics, then module functions.

mod bytecode;
mod machine;
mod memory;
mod profile;
mod vm;

pub use bytecode::{compile_module, CompiledModule, FunctionCode, ModuleCode};
pub use machine::{ExecError, HostFn, HostRegistry, Machine, Value};
pub use memory::{Allocation, Memory, OutWindow, ReadView};
pub use profile::Profile;
pub use vm::Vm;
