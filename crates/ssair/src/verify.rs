//! Structural SSA well-formedness checks.
//!
//! The verifier catches frontend and transformation bugs early: every block
//! must end in exactly one terminator, phis must match their predecessors,
//! uses must be dominated by definitions, and operand/result types must be
//! consistent for the common instruction shapes. A module that verifies
//! compiles to bytecode in full (`interp::compile_module`).

use crate::analysis::{inst_dominates, Cfg, DomTree, Layout};
use crate::function::{BlockId, Function, Instr, Opcode};
use crate::module::Module;
use crate::types::Type;
use crate::ValueId;
use std::collections::HashMap;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the problem was found.
    pub function: String,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "in @{}: {}", self.function, self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Verifies every function of `m`, and every call to a function defined
/// in `m` against that function's signature: argument count, argument
/// types and return type. Calls to symbols `m` does not define (vendor
/// hosts, intrinsics such as `sqrt`) are not checked.
pub fn verify_module(m: &Module) -> Result<(), Vec<VerifyError>> {
    let mut errors = Vec::new();
    let mut defined: HashMap<&str, &Function> = HashMap::new();
    for f in &m.functions {
        defined.entry(f.name.as_str()).or_insert(f);
    }
    for f in &m.functions {
        if let Err(mut es) = verify_function(f) {
            errors.append(&mut es);
            continue; // the call checks index operands the shape check vouches for
        }
        for b in f.block_ids() {
            for &v in &f.block(b).instrs {
                let i = f.instr(v).expect("verified");
                let Some(g) = i.callee.as_deref().and_then(|c| defined.get(c)) else {
                    continue;
                };
                if let Err(message) = check_call(f, v, i, g) {
                    errors.push(VerifyError {
                        function: f.name.clone(),
                        message,
                    });
                }
            }
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Verifies one function.
///
/// Verified IR is the bytecode compiler's contract: every function that
/// passes compiles to bytecode, so the structural rules below are exactly
/// the shapes the compiler cannot lower (mid-block or entry-block phis,
/// misplaced terminators, wrong operand or target counts, out-of-range
/// ids, uses not dominated by their definitions, void memory accesses).
pub fn verify_function(f: &Function) -> Result<(), Vec<VerifyError>> {
    let mut errors = Vec::new();
    macro_rules! err {
        ($($arg:tt)*) => {
            errors.push(VerifyError { function: f.name.clone(), message: format!($($arg)*) })
        };
    }
    if f.num_blocks() == 0 {
        err!("function has no blocks");
        return Err(errors);
    }

    // Block structure: non-empty, exactly one terminator, at the end;
    // phis form a prefix outside the entry block; every instruction has
    // its opcode's shape (operand/target counts, in-range ids).
    for b in f.block_ids() {
        let instrs = &f.block(b).instrs;
        if instrs.is_empty() {
            err!("block {b} is empty");
            continue;
        }
        if let Some(v) = instrs.iter().find(|v| v.0 as usize >= f.num_values()) {
            err!("block {b} lists out-of-range value {v}");
            continue;
        }
        for (pos, &v) in instrs.iter().enumerate() {
            let Some(i) = f.instr(v) else {
                err!("block {b} lists non-instruction value {v}");
                continue;
            };
            let is_last = pos + 1 == instrs.len();
            if i.opcode.is_terminator() != is_last {
                err!(
                    "block {b}: {} at position {pos} (of {}): terminators must be last and only last",
                    i.opcode.mnemonic(),
                    instrs.len()
                );
            }
            if i.opcode == Opcode::Phi {
                if b == BlockId(0) {
                    err!("phi {v} in the entry block");
                }
                if instrs[..pos]
                    .iter()
                    .any(|&p| f.opcode(p) != Some(Opcode::Phi))
                {
                    err!("block {b}: phi {v} after non-phi instruction");
                }
            }
            if let Err(msg) = verify_shape(f, i) {
                err!("{} {v}: {msg}", i.opcode.mnemonic());
            }
        }
    }
    if !errors.is_empty() {
        return Err(errors); // analyses below need structural sanity
    }

    // Only the tables the checks below read: no post-dominators, def-use
    // chains or loop forest.
    let layout = Layout::new(f);
    let cfg = Cfg::new(f);
    let dom = DomTree::dominators(&cfg);

    for b in f.block_ids() {
        if !cfg.is_reachable(b) {
            err!("block {b} is unreachable");
        }
    }
    if !errors.is_empty() {
        return Err(errors);
    }

    for b in f.block_ids() {
        for &v in &f.block(b).instrs {
            let i = f.instr(v).expect("checked above");
            // Phi incoming edges must exactly match CFG predecessors.
            if i.opcode == Opcode::Phi {
                let preds = cfg.preds(b);
                if i.incoming.len() != preds.len() || !preds.iter().all(|p| i.incoming.contains(p))
                {
                    err!(
                        "phi {v} in {b}: incoming blocks {:?} do not match predecessors {:?}",
                        i.incoming,
                        preds
                    );
                }
            }
            // Dominance: each use must be dominated by its definition.
            for (k, &op) in i.operands.iter().enumerate() {
                if !f.is_instruction(op) {
                    continue;
                }
                let ok = if i.opcode == Opcode::Phi {
                    // Phi uses must dominate the end of the incoming block.
                    let from = i.incoming[k];
                    let term = f.terminator(from).expect("terminated block");
                    inst_dominates(&layout, &dom, op, term)
                } else {
                    op != v && inst_dominates(&layout, &dom, op, v)
                };
                if !ok {
                    err!(
                        "use of {} in {} is not dominated by its definition",
                        f.display_name(op),
                        f.display_name(v)
                    );
                }
            }
            // Simple type rules.
            verify_types(f, v, &mut errors);
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// The call `v` (instruction `i`) in `f` against the signature of the
/// module function `g` it calls.
fn check_call(f: &Function, v: ValueId, i: &Instr, g: &Function) -> Result<(), String> {
    let call = format!("call {} to @{}", f.display_name(v), g.name);
    if i.operands.len() != g.params.len() {
        return Err(format!(
            "{call} passes {} arguments, @{} takes {}",
            i.operands.len(),
            g.name,
            g.params.len()
        ));
    }
    for (k, (&a, &p)) in i.operands.iter().zip(&g.params).enumerate() {
        let (have, want) = (f.value(a).ty, g.value(p).ty);
        if have != want {
            return Err(format!(
                "{call}: argument {k} is {have}, @{} takes {want}",
                g.name
            ));
        }
    }
    if f.value(v).ty != g.ret_ty {
        return Err(format!(
            "{call} has type {}, @{} returns {}",
            f.value(v).ty,
            g.name,
            g.ret_ty
        ));
    }
    Ok(())
}

/// Operand and target counts, id ranges and the callee of one
/// instruction — everything later checks index without bounds checks.
fn verify_shape(f: &Function, i: &Instr) -> Result<(), String> {
    let n = i.operands.len();
    let want = match i.opcode {
        Opcode::Add
        | Opcode::Sub
        | Opcode::Mul
        | Opcode::SDiv
        | Opcode::SRem
        | Opcode::And
        | Opcode::Or
        | Opcode::Xor
        | Opcode::Shl
        | Opcode::AShr
        | Opcode::FAdd
        | Opcode::FSub
        | Opcode::FMul
        | Opcode::FDiv
        | Opcode::ICmp(_)
        | Opcode::FCmp(_)
        | Opcode::Gep
        | Opcode::Store => 2,
        Opcode::Select => 3,
        Opcode::Load
        | Opcode::Alloca
        | Opcode::SExt
        | Opcode::ZExt
        | Opcode::Trunc
        | Opcode::SIToFP
        | Opcode::FPToSI
        | Opcode::FPExt
        | Opcode::FPTrunc
        | Opcode::CondBr => 1,
        Opcode::Br => 0,
        Opcode::Ret => n.min(1),
        Opcode::Phi => i.incoming.len(),
        Opcode::Call => n,
    };
    if n != want {
        return Err(format!("has {n} operands, expects {want}"));
    }
    if let Some(op) = i.operands.iter().find(|op| op.0 as usize >= f.num_values()) {
        return Err(format!("operand {op} is out of range"));
    }
    let targets = match i.opcode {
        Opcode::Br => 1,
        Opcode::CondBr => 2,
        _ => 0,
    };
    if i.targets.len() != targets {
        return Err(format!(
            "has {} targets, expects {targets}",
            i.targets.len()
        ));
    }
    let mut blocks = i.targets.iter().chain(&i.incoming);
    if let Some(b) = blocks.find(|b| b.0 as usize >= f.num_blocks()) {
        return Err(format!("block {b} is out of range"));
    }
    if i.opcode == Opcode::Call && i.callee.is_none() {
        return Err("call has no callee".into());
    }
    Ok(())
}

// Collapsing the per-opcode checks into match guards would make failing
// arms fall through to `_`, losing the per-opcode error messages.
#[allow(clippy::collapsible_match)]
fn verify_types(f: &Function, v: ValueId, errors: &mut Vec<VerifyError>) {
    let i = f.instr(v).expect("instruction");
    let ty = f.value(v).ty;
    macro_rules! err {
        ($($arg:tt)*) => {
            errors.push(VerifyError { function: f.name.clone(), message: format!($($arg)*) })
        };
    }
    let opty = |k: usize| f.value(i.operands[k]).ty;
    match i.opcode {
        Opcode::Add
        | Opcode::Sub
        | Opcode::Mul
        | Opcode::SDiv
        | Opcode::SRem
        | Opcode::And
        | Opcode::Or
        | Opcode::Xor
        | Opcode::Shl
        | Opcode::AShr => {
            if !ty.is_integer() || opty(0) != ty || opty(1) != ty {
                err!("integer binop {} has inconsistent types", f.display_name(v));
            }
        }
        Opcode::FAdd | Opcode::FSub | Opcode::FMul | Opcode::FDiv => {
            if !ty.is_float() || opty(0) != ty || opty(1) != ty {
                err!("float binop {} has inconsistent types", f.display_name(v));
            }
        }
        Opcode::ICmp(_) => {
            if ty != Type::I1 || !opty(0).is_integer() && !opty(0).is_pointer() {
                err!("icmp {} has bad types", f.display_name(v));
            }
        }
        Opcode::FCmp(_) => {
            if ty != Type::I1 || !opty(0).is_float() {
                err!("fcmp {} has bad types", f.display_name(v));
            }
        }
        Opcode::Gep => {
            if !opty(0).is_pointer() || ty != opty(0) || !opty(1).is_integer() {
                err!("gep {} has bad types", f.display_name(v));
            }
        }
        Opcode::Load => {
            if ty == Type::Void || opty(0).pointee() != Some(ty) {
                err!("load {} type does not match pointer", f.display_name(v));
            }
        }
        Opcode::Store => {
            if opty(0) == Type::Void || opty(1).pointee() != Some(opty(0)) {
                err!("store {} type does not match pointer", f.display_name(v));
            }
        }
        Opcode::Alloca => {
            if !ty.is_pointer() || !opty(0).is_integer() {
                err!("alloca {} has bad types", f.display_name(v));
            }
        }
        Opcode::CondBr => {
            if opty(0) != Type::I1 {
                err!("condbr {} condition is not i1", f.display_name(v));
            }
        }
        Opcode::Ret => {
            if let Some(&rv) = i.operands.first() {
                if f.value(rv).ty != f.ret_ty {
                    err!("ret value type does not match @{} return type", f.name);
                }
            } else if f.ret_ty != Type::Void {
                err!("ret void in non-void @{}", f.name);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{BlockId, Function};
    use crate::parser::parse_function_text;

    #[test]
    fn accepts_well_formed_loop() {
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
        verify_function(&f).expect("verifies");
    }

    #[test]
    fn rejects_missing_terminator() {
        let mut f = Function::new("bad", &[], Type::Void);
        let e = BlockId(0);
        let c = f.const_int(Type::I32, 1);
        f.append_simple(e, Type::I32, Opcode::Add, vec![c, c]);
        let errs = verify_function(&f).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("terminators")));
    }

    #[test]
    fn rejects_type_mismatch() {
        let mut f = Function::new("bad2", &[("x".into(), Type::F64)], Type::Void);
        let e = BlockId(0);
        let x = f.params[0];
        let one = f.const_int(Type::I64, 1);
        f.append_simple(e, Type::I64, Opcode::Add, vec![x, one]);
        f.append_ret(e, None);
        let errs = verify_function(&f).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("inconsistent")));
    }

    #[test]
    fn rejects_use_before_def() {
        let mut f = Function::new("order", &[], Type::Void);
        let e = BlockId(0);
        let c = f.const_int(Type::I32, 1);
        // Manually create b using a value defined after it.
        let a_id = crate::ValueId(f.num_values() as u32 + 1); // will be the add below
        let b = f.append_simple(e, Type::I32, Opcode::Add, vec![c, a_id]);
        let a = f.append_simple(e, Type::I32, Opcode::Add, vec![c, c]);
        assert_eq!(a, a_id);
        let _ = b;
        f.append_ret(e, None);
        let errs = verify_function(&f).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("not dominated")));
    }

    #[test]
    fn rejects_phi_incoming_mismatch() {
        let f = parse_function_text(
            r#"
define void @l(i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %header, label %exit
exit:
  ret void
}
"#,
        )
        .unwrap();
        let errs = verify_function(&f).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("incoming")));
    }

    /// Verifies `f` and asserts a `VerifyError` mentioning `needle`.
    fn assert_rejects(f: &Function, needle: &str) {
        let errs = verify_function(f).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains(needle)),
            "expected {needle:?}, got {errs:?}"
        );
    }

    #[test]
    fn rejects_entry_block_phi() {
        let mut f = Function::new("entry_phi", &[], Type::Void);
        f.append_phi(BlockId(0), Type::I64);
        f.append_ret(BlockId(0), None);
        assert_rejects(&f, "in the entry block");
    }

    #[test]
    fn rejects_short_operand_list_without_panicking() {
        // A one-operand `add`: the type rules index operands[1], so the
        // count check must come first and report instead of panicking.
        let mut f = Function::new("short", &[("x".into(), Type::I64)], Type::I64);
        let x = f.params[0];
        let r = f.append_simple(BlockId(0), Type::I64, Opcode::Add, vec![x]);
        f.append_ret(BlockId(0), Some(r));
        assert_rejects(&f, "has 1 operands, expects 2");
    }

    #[test]
    fn rejects_out_of_range_branch_target() {
        let mut f = Function::new("far", &[], Type::Void);
        f.append_br(BlockId(0), BlockId(7));
        assert_rejects(&f, "block bb7 is out of range");
    }

    #[test]
    fn rejects_call_without_callee() {
        let mut f = Function::new("anon", &[], Type::Void);
        f.append_simple(BlockId(0), Type::Void, Opcode::Call, Vec::new());
        f.append_ret(BlockId(0), None);
        assert_rejects(&f, "call has no callee");
    }

    #[test]
    fn rejects_void_load_and_store() {
        let vptr = Type::Void.ptr_to();
        let mut f = Function::new("vload", &[("p".into(), vptr)], Type::Void);
        let p = f.params[0];
        f.append_simple(BlockId(0), Type::Void, Opcode::Load, vec![p]);
        f.append_ret(BlockId(0), None);
        assert_rejects(&f, "load");

        let mut g = Function::new("vstore", &[("p".into(), vptr)], Type::Void);
        let p = g.params[0];
        let v = g.append_call(BlockId(0), Type::Void, "nothing", Vec::new());
        g.append_simple(BlockId(0), Type::Void, Opcode::Store, vec![v, p]);
        g.append_ret(BlockId(0), None);
        assert_rejects(&g, "store");
    }

    #[test]
    fn rejects_non_pointer_gep_and_alloca_results() {
        let mut f = Function::new("gep", &[("p".into(), Type::F64.ptr_to())], Type::Void);
        let p = f.params[0];
        let one = f.const_int(Type::I64, 1);
        f.append_simple(BlockId(0), Type::I64, Opcode::Gep, vec![p, one]);
        f.append_ret(BlockId(0), None);
        assert_rejects(&f, "gep");

        let mut g = Function::new("alloca", &[], Type::Void);
        let four = g.const_int(Type::I64, 4);
        g.append_simple(BlockId(0), Type::F64, Opcode::Alloca, vec![four]);
        g.append_ret(BlockId(0), None);
        assert_rejects(&g, "alloca");
    }

    /// A module of `@g(i64 %n, double* %p) -> double` and a caller
    /// `@main(i64 %n, double* %p)` whose only call `build` appends.
    fn caller_of_g(build: impl Fn(&mut Function) -> crate::ValueId) -> Module {
        let params = [
            ("n".to_owned(), Type::I64),
            ("p".to_owned(), Type::F64.ptr_to()),
        ];
        let mut m = Module::new("calls");
        let mut g = Function::new("g", &params, Type::F64);
        let zero = g.const_float(Type::F64, 0.0);
        g.append_ret(BlockId(0), Some(zero));
        m.add_function(g);
        let mut main = Function::new("main", &params, Type::Void);
        build(&mut main);
        main.append_ret(BlockId(0), None);
        m.add_function(main);
        m
    }

    /// Verifies `m` and asserts one error, in `@main`, mentioning `needle`.
    fn assert_module_rejects(m: &Module, needle: &str) {
        let errs = verify_module(m).unwrap_err();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert_eq!(errs[0].function, "main");
        assert!(
            errs[0].message.contains(needle),
            "expected {needle:?}, got {errs:?}"
        );
    }

    #[test]
    fn accepts_calls_matching_the_callee_signature() {
        let m = caller_of_g(|f| {
            let args = f.params.clone();
            f.append_call(BlockId(0), Type::F64, "g", args);
            // Symbols the module does not define are not checked.
            f.append_call(BlockId(0), Type::I32, "host", vec![f.params[1]])
        });
        verify_module(&m).expect("verifies");
    }

    #[test]
    fn rejects_a_call_with_the_wrong_arity() {
        let m = caller_of_g(|f| {
            let (n, p) = (f.params[0], f.params[1]);
            f.append_call(BlockId(0), Type::F64, "g", vec![n, p, n])
        });
        assert_module_rejects(&m, "passes 3 arguments, @g takes 2");
    }

    #[test]
    fn rejects_a_call_with_a_wrong_argument_type() {
        let m = caller_of_g(|f| {
            let p = f.params[1];
            f.append_call(BlockId(0), Type::F64, "g", vec![p, p])
        });
        assert_module_rejects(&m, "argument 0 is double*, @g takes i64");
    }

    #[test]
    fn rejects_a_call_with_the_wrong_return_type() {
        let m = caller_of_g(|f| {
            let args = f.params.clone();
            f.append_call(BlockId(0), Type::I64, "g", args)
        });
        assert_module_rejects(&m, "has type i64, @g returns double");
    }

    #[test]
    fn verify_module_aggregates_errors() {
        let mut m = Module::new("unit");
        let mut good = Function::new("good", &[], Type::Void);
        good.append_ret(BlockId(0), None);
        m.add_function(good);
        let bad = Function::new("bad", &[], Type::Void); // empty entry block
        m.add_function(bad);
        let errs = verify_module(&m).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].function, "bad");
    }
}
