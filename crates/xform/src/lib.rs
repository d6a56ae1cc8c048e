//! # xform — translating computational idioms (paper §6)
//!
//! Once an idiom has been detected, this crate rewrites the program to use
//! a heterogeneous API:
//!
//! * **library path** (§6.1; cuBLAS/cuSPARSE-style): the matched loop nest
//!   is excised and replaced with a single `call` to a fixed-function API
//!   entry point (`gemm_f64`, `csrmv_f64`). The call's arguments are read
//!   straight out of the constraint solution, exactly like the paper's
//!   Figure 6 (`cusparseDcsrmv(...)`).
//! * **DSL path** (§6.2; Halide/Lift-style): the kernel function or
//!   reduction operator is the constraint solution's pure backward slice
//!   ([`outline::KernelSlice`]). A device program is generated (here: an IR
//!   function, standing in for the OpenCL that Lift/Halide would emit)
//!   with that slice emitted straight into its loop body, as the device
//!   compiler would inline it, and the original loop is replaced with a
//!   call to the generated code. The device loop calls nothing per
//!   element, and the device program goes through the same optimizer
//!   ([`ssair::opt`]) as the frontend's output, so no plan hoists or
//!   shares work by hand.
//!
//! Each rewrite ([`apply_replacement`]) is planned, then committed (see
//! [`replace`]). The plan reads the function and changes nothing: it
//! re-validates the §6.3 side conditions natively (no unmatched side
//! effects or live-outs in the replaced region, a legal region, operands
//! available at the call site), checks the backend's shape, slices out
//! the kernel and builds, verifies and optimizes the generated device
//! program. The commit edits a clone of the one target function and
//! swaps it in only once it verifies, so a refused rewrite leaves the
//! module untouched; the tests exercise the rejection paths.
//!
//! [`transform_module`] scales the rewrite to the paper's actual claim —
//! *all* detected instances of a module — resolving overlapping matches
//! deterministically and reporting a per-instance
//! replaced/shadowed/failed outcome (see [`driver`]).
//!
//! [`ir_to_c`] is the paper's "rudimentary LLVM IR to C backend" used to
//! hand kernels ([`outline_kernel`]) to Lift; [`dsl`] renders Lift and
//! Halide surface programs for the extracted idioms (what the paper ships
//! to the DSL compilers).

pub mod driver;
pub mod dsl;
pub mod outline;
pub mod replace;
pub mod reverse;
pub mod tocsrc;

pub use driver::{
    transform_instances, transform_instances_with, transform_module, InstanceOutcome, ModuleXform,
    Outcome,
};
pub use outline::{outline_kernel, OutlinedKernel};
pub use replace::{apply_replacement, Replacement, XformError};
pub use reverse::reverse_loop;
pub use tocsrc::ir_to_c;
