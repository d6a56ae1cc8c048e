//! # solver — backtracking constraint solver over SSA IR
//!
//! The generic solver of the paper (§2.1, §4.4; after Ginsbach & O'Boyle,
//! CGO'17 "Discovery and exploitation of general reductions"): given a
//! compiled IDL constraint and a function's IR, it enumerates **all**
//! assignments of IR values to constraint variables that satisfy the
//! formula.
//!
//! The search is classic backtracking with two accelerations:
//!
//! * **candidate generation** — functional atoms propagate: once `{sum}`
//!   is assigned, `{left} is first argument of {sum}` has exactly one
//!   candidate; opcode/type atoms restrict unassigned variables to
//!   precomputed buckets (the variable-ordering pass of §4.4 makes sure a
//!   generator is usually available);
//! * **incremental three-valued pruning** — every node of the constraint
//!   tree caches its truth value in {true, false, unknown}; binding a
//!   variable re-evaluates only the atoms *watching* that variable
//!   (per-variable watcher lists built from the [`idl::TreeIndex`]) and
//!   repairs ancestor `and`/`or` caches through per-node truth counters,
//!   so each step costs O(watchers × depth) instead of O(|tree|).
//!   Definitely-false partial assignments are abandoned immediately; the
//!   old recursive evaluator survives as a `debug_assert!` oracle the
//!   incremental one is checked against in every test run.
//!
//! `collect` nodes are executed once all outer variables are assigned:
//! each runs a nested all-solutions search and binds the solutions as an
//! indexed variable family (`read[0].value`, `read[1].value`, ...), the
//! `Concat` pseudo-atom concatenates families, and the `KilledBy` purity
//! check runs last against the fully bound assignment. Sub-searches spend
//! the *remaining* step budget of the enclosing search and charge their
//! consumption back, so [`SolveOptions::max_steps`] bounds the total work
//! of a query; [`SolveOutcome`] reports whether any limit truncated the
//! enumeration.

mod engine;

pub use engine::{RowsOutcome, Solution, SolveOptions, SolveOutcome, Solver};

#[cfg(test)]
mod tests {
    use super::*;
    use idl::{compile, parse_library};
    use ssair::parser::parse_function_text;

    /// The worked example of the paper (§2.2, Figures 2 and 3): the
    /// factorization idiom finds exactly one opportunity, with `factor`
    /// assigned to `%a`.
    #[test]
    fn figure_2_and_3_worked_example() {
        let lib = parse_library(
            r#"
Constraint FactorizationOpportunity
( {sum} is add instruction and
  {left_addend} is first argument of {sum} and
  {left_addend} is mul instruction and
  {right_addend} is second argument of {sum} and
  {right_addend} is mul instruction and
  ( {factor} is first argument of {left_addend} or
    {factor} is second argument of {left_addend}) and
  ( {factor} is first argument of {right_addend} or
    {factor} is second argument of {right_addend}))
End
"#,
        )
        .unwrap();
        let c = compile(&lib, "FactorizationOpportunity").unwrap();
        let f = parse_function_text(
            r#"
define i32 @example(i32 %a, i32 %b, i32 %c) {
entry:
  %1 = mul i32 %a, %b
  %2 = mul i32 %c, %a
  %3 = add i32 %1, %2
  ret i32 %3
}
"#,
        )
        .unwrap();
        let solver = Solver::new(&f);
        let sols = solver.solve(&c, &SolveOptions::default());
        assert_eq!(sols.len(), 1, "exactly one factorization opportunity");
        let sol = &sols[0];
        let name = |v: &str| f.display_name(sol.bindings[v]);
        assert_eq!(name("factor"), "%a");
        assert_eq!(name("sum"), "%3");
        assert_eq!(name("left_addend"), "%1");
        assert_eq!(name("right_addend"), "%2");
    }

    #[test]
    fn no_match_when_no_common_factor() {
        let lib = parse_library(
            r#"
Constraint Factorization
( {sum} is add instruction and
  {l} is first argument of {sum} and
  {l} is mul instruction and
  {r} is second argument of {sum} and
  {r} is mul instruction and
  ( {factor} is first argument of {l} or {factor} is second argument of {l} ) and
  ( {factor} is first argument of {r} or {factor} is second argument of {r} ))
End
"#,
        )
        .unwrap();
        let c = compile(&lib, "Factorization").unwrap();
        let f = parse_function_text(
            r#"
define i32 @nofactor(i32 %a, i32 %b, i32 %c, i32 %d) {
entry:
  %1 = mul i32 %a, %b
  %2 = mul i32 %c, %d
  %3 = add i32 %1, %2
  ret i32 %3
}
"#,
        )
        .unwrap();
        let solver = Solver::new(&f);
        assert!(solver.solve(&c, &SolveOptions::default()).is_empty());
    }

    #[test]
    fn disjunction_enumerates_all_alternatives() {
        // Both operands of the mul qualify -> two solutions.
        let lib = parse_library(
            r#"
Constraint MulOperand
( {m} is mul instruction and
  ( {x} is first argument of {m} or {x} is second argument of {m} ))
End
"#,
        )
        .unwrap();
        let c = compile(&lib, "MulOperand").unwrap();
        let f = parse_function_text(
            "define i32 @f(i32 %a, i32 %b) {\nentry:\n  %m = mul i32 %a, %b\n  ret i32 %m\n}\n",
        )
        .unwrap();
        let sols = Solver::new(&f).solve(&c, &SolveOptions::default());
        assert_eq!(sols.len(), 2);
    }

    #[test]
    fn collect_binds_families() {
        let lib = parse_library(
            r#"
Constraint Loads
( {anchor} is return instruction and
  collect i 8
  ( {read[i]} is load instruction ))
End
"#,
        )
        .unwrap();
        let c = compile(&lib, "Loads").unwrap();
        let f = parse_function_text(
            r#"
define double @f(double* %p) {
entry:
  %a0 = getelementptr double, double* %p, i64 0
  %x = load double, double* %a0
  %a1 = getelementptr double, double* %p, i64 1
  %y = load double, double* %a1
  %s = fadd double %x, %y
  ret double %s
}
"#,
        )
        .unwrap();
        let sols = Solver::new(&f).solve(&c, &SolveOptions::default());
        assert_eq!(sols.len(), 1);
        let b = &sols[0].bindings;
        assert!(b.contains_key("read[0]"));
        assert!(b.contains_key("read[1]"));
        assert!(!b.contains_key("read[2]"));
    }

    #[test]
    fn killed_by_accepts_pure_kernels_and_rejects_impure() {
        let lib = parse_library(
            r#"
Constraint PureStore
( {st} is store instruction and
  {out} is first argument of {st} and
  {in} is load instruction and
  all flow to {out} is killed by {in} )
End
"#,
        )
        .unwrap();
        let c = compile(&lib, "PureStore").unwrap();
        // out = in*in + 1.0 : pure in `in`.
        let pure = parse_function_text(
            r#"
define void @k(double* %p, double* %q) {
entry:
  %x = load double, double* %p
  %m = fmul double %x, %x
  %o = fadd double %m, 1.0
  store double %o, double* %q
  ret void
}
"#,
        )
        .unwrap();
        let sols = Solver::new(&pure).solve(&c, &SolveOptions::default());
        assert!(!sols.is_empty(), "pure kernel accepted");
        // The stored value depends on two loads; with only one declared
        // input no solution can satisfy the purity check.
        let impure = parse_function_text(
            r#"
define void @k(double* %p, double* %q, double* %r) {
entry:
  %x = load double, double* %p
  %y = load double, double* %r
  %m = fmul double %x, %y
  store double %m, double* %q
  ret void
}
"#,
        )
        .unwrap();
        let sols = Solver::new(&impure).solve(&c, &SolveOptions::default());
        assert!(
            sols.is_empty(),
            "kernel depending on two loads has no 1-input solution"
        );
    }

    #[test]
    fn dominance_and_flow_atoms_work_in_loops() {
        let lib = parse_library(
            r#"
Constraint LoopShape
( {iterator} is phi instruction and
  {increment} is add instruction and
  {iterator} is first argument of {increment} and
  {increment} reaches phi node {iterator} from {backedge} and
  {backedge} is branch instruction and
  {comparison} is icmp instruction and
  {iterator} is first argument of {comparison} and
  {comparison} strictly control flow dominates {increment} )
End
"#,
        )
        .unwrap();
        let c = compile(&lib, "LoopShape").unwrap();
        let f = parse_function_text(
            r#"
define i64 @sum(i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i.next, %latch ]
  %cond = icmp slt i64 %i, %n
  br i1 %cond, label %latch, label %exit
latch:
  %i.next = add i64 %i, 1
  br label %header
exit:
  ret i64 %i
}
"#,
        )
        .unwrap();
        let sols = Solver::new(&f).solve(&c, &SolveOptions::default());
        assert_eq!(sols.len(), 1);
        let b = &sols[0].bindings;
        assert_eq!(f.display_name(b["iterator"]), "%i");
        assert_eq!(f.display_name(b["increment"]), "%i.next");
    }

    #[test]
    fn solution_cap_is_respected() {
        let lib = parse_library("Constraint AnyAdd ( {x} is add instruction ) End").unwrap();
        let c = compile(&lib, "AnyAdd").unwrap();
        let mut text = String::from("define i64 @f(i64 %a) {\nentry:\n");
        for k in 0..20 {
            text.push_str(&format!("  %x{k} = add i64 %a, {k}\n"));
        }
        text.push_str("  ret i64 %a\n}\n");
        let f = parse_function_text(&text).unwrap();
        let opts = SolveOptions {
            max_solutions: 5,
            ..SolveOptions::default()
        };
        let sols = Solver::new(&f).solve(&c, &opts);
        assert_eq!(sols.len(), 5);
    }

    #[test]
    fn concat_joins_families() {
        let lib = parse_library(
            r#"
Constraint C
( {old} is phi instruction and
  collect i 4 ( {read[i]} is load instruction ) and
  {kernel.input} is concatenation of {read} and {old} and
  {st} is store instruction and
  {out} is first argument of {st} and
  all flow to {out} is killed by {kernel.input} )
End
"#,
        )
        .unwrap();
        let c = compile(&lib, "C").unwrap();
        let f = parse_function_text(
            r#"
define void @f(double* %p, double* %q, i64 %n) {
entry:
  br label %header
header:
  %acc = phi double [ 0.0, %entry ], [ %nacc, %latch ]
  %i = phi i64 [ 0, %entry ], [ %inext, %latch ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %latch, label %exit
latch:
  %a = getelementptr double, double* %p, i64 %i
  %x = load double, double* %a
  %nacc = fadd double %acc, %x
  %inext = add i64 %i, 1
  br label %header
exit:
  store double %acc, double* %q
  ret void
}
"#,
        )
        .unwrap();
        let sols = Solver::new(&f).solve(&c, &SolveOptions::default());
        assert!(!sols.is_empty());
        let b = &sols[0].bindings;
        // kernel.input[0] = the load (from read), kernel.input[1] = phi.
        assert!(b.contains_key("kernel.input[0]"));
        assert!(b.contains_key("kernel.input[1]"));
    }
}
