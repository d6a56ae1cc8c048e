//! # minicc — a C-subset frontend for ssair
//!
//! The ASPLOS'18 paper compiles C/C++ benchmarks with clang to optimized
//! LLVM IR before running idiom detection. This crate plays clang's role
//! for the workspace: it compiles a small but expressive C subset to
//! [`ssair`] SSA form and runs the mid-level optimizer ([`ssair::opt`]) so
//! that the IR reaching the detector has the canonical shapes clang -O2
//! would produce (register accumulators, rotated loops with header
//! comparisons and latch increments, promoted read-modify-write arrays).
//!
//! Supported language (enough for the 21 NAS/Parboil benchmark
//! reconstructions in `benchsuite`):
//!
//! * types: `int` (i32), `long` (i64), `float`, `double`, pointers, `void`
//! * functions with value and pointer parameters
//! * local scalars and fixed-size (multi-dimensional) local arrays
//! * `if`/`else`, `while`, `for`, `return`, compound statements
//! * assignments including `+=` etc., `++`/`--` as statements and in
//!   `for` steps
//! * arithmetic, comparisons, `&&`/`||`/`!` (lowered bitwise on `i1`),
//!   ternary `?:` (lowered to `select`), casts, calls to math intrinsics
//!   (`sqrt`, `fabs`, `exp`, `log`, `sin`, `cos`, `pow`, `fmin`, `fmax`)
//!   and to other functions in the same translation unit
//!
//! Pointer parameters are treated as `restrict` (no two parameters alias),
//! exactly as the benchmarks guarantee; this is what licenses the
//! read-modify-write promotion that clang performs via TBAA + LICM.
//!
//! ## Entry points
//!
//! ```
//! let src = "double dot(double* x, double* y, int n) {
//!     double acc = 0.0;
//!     for (int i = 0; i < n; i++) acc += x[i] * y[i];
//!     return acc;
//! }";
//! let module = minicc::compile(src, "dot_unit").expect("compiles");
//! assert!(module.function("dot").is_some());
//! ```

pub mod ast;
pub mod lexer;
pub mod lower;
pub mod parse;
pub mod pretty;

/// The optimizer lives in `ssair`, which generated device programs share;
/// re-exported for callers that name its passes through the frontend.
pub use ssair::opt;

use ssair::Module;

/// A frontend failure (lexing, parsing, typing or lowering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CompileError {}

/// Compiles `source` to an optimized, verified SSA module named `name`.
///
/// This is the equivalent of the paper's `clang -O2 -emit-llvm` step: the
/// result is the IR that idiom detection and the baseline detectors run on.
pub fn compile(source: &str, name: &str) -> Result<Module, CompileError> {
    let mut module = compile_unoptimized(source, name)?;
    ssair::opt::optimize_module(&mut module);
    debug_assert_verified(&module);
    Ok(module)
}

/// Compiles without the optimizer (used by optimizer tests and by the
/// compile-time measurements of Table 2, which separate frontend cost from
/// detection cost).
pub fn compile_unoptimized(source: &str, name: &str) -> Result<Module, CompileError> {
    let program = parse::parse_program(source)?;
    let module = lower::lower_program(&program, name)?;
    debug_assert_verified(&module);
    Ok(module)
}

fn debug_assert_verified(module: &Module) {
    if cfg!(debug_assertions) {
        if let Err(errs) = ssair::verify::verify_module(module) {
            panic!(
                "frontend produced invalid IR: {}\n{}",
                errs.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("; "),
                ssair::printer::print_module(module)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn doc_example_compiles() {
        let m = super::compile(
            "double dot(double* x, double* y, int n) { double acc = 0.0; for (int i = 0; i < n; i++) acc += x[i] * y[i]; return acc; }",
            "t",
        )
        .unwrap();
        assert!(m.function("dot").is_some());
    }

    /// Compiles `src` on a thread with the 2 MiB stack test threads get.
    fn compile_on_small_stack(src: String) -> Result<ssair::Module, super::CompileError> {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || super::compile(&src, "hostile"))
            .expect("spawns")
            .join()
            .expect("no panic")
    }

    /// `return x + x + … ;` with `terms` terms.
    fn compile_chain(terms: usize) -> Result<ssair::Module, super::CompileError> {
        let body = vec!["x"; terms].join(" + ");
        compile_on_small_stack(format!("double f(double x) {{ return {body}; }}"))
    }

    fn stars(depth: usize) -> String {
        "*".repeat(depth)
    }

    #[test]
    fn a_deep_pointer_parameter_is_an_error_not_a_stack_overflow() {
        let src = format!("double f(double{} p) {{ return 0.0; }}", stars(100_000));
        let err = compile_on_small_stack(src).unwrap_err();
        assert_eq!(err.message, "pointer type deeper than 128 levels");
    }

    #[test]
    fn a_deep_pointer_local_is_an_error_not_a_stack_overflow() {
        let src = format!("double f() {{ double{} p; return 0.0; }}", stars(100_000));
        let err = compile_on_small_stack(src).unwrap_err();
        assert_eq!(err.message, "pointer type deeper than 128 levels");
    }

    #[test]
    fn a_pointer_type_at_the_cap_compiles() {
        // A parameter, a local, a cast and an array of the deepest type:
        // the array's alloca is one level deeper still, and its IR text
        // parses back.
        let t = format!("double{}", stars(128));
        let src = format!("double f({t} p) {{ {t} q = ({t}) p; {t} a[2]; a[0] = q; return 0.0; }}");
        let m = compile_on_small_stack(src).expect("within the cap");
        let text = ssair::printer::print_module(&m);
        assert!(text.contains(&format!("double{} %p", stars(128))), "{text}");
        let back = ssair::parser::parse_module(&text).expect("parses back");
        assert_eq!(ssair::printer::print_module(&back), text);
        let err = compile_on_small_stack(format!(
            "double f(double{} p) {{ return 0.0; }}",
            stars(129)
        ))
        .unwrap_err();
        assert_eq!(err.message, "pointer type deeper than 128 levels");
    }

    #[test]
    fn a_long_operator_chain_is_an_error_not_a_stack_overflow() {
        // Each `+` nests the tree one level, and lowering recurses per level.
        compile_chain(100).expect("within the nesting cap");
        for terms in [300, 40_000] {
            let err = compile_chain(terms).unwrap_err();
            assert_eq!(
                err.message, "nesting deeper than 128 levels",
                "{terms} terms"
            );
        }
    }
}
