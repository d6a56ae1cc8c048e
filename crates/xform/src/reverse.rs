//! Reversed-iteration rewriting for the parallel-safety oracle.
//!
//! An `IndependentIterations` certificate claims that the iterations of a
//! region's outermost loop can execute in *any* order. The cheapest
//! dynamic witness for that claim is the opposite order: rewrite the loop
//! to run from `end - 1` down to `init` and compare the final machine
//! state bitwise against the forward run. Independent iterations commute
//! even in floating point (there is no cross-iteration accumulation to
//! re-associate), so the reversed program must be *exactly* equivalent —
//! any divergence convicts the certificate, not the tolerance.
//!
//! [`reverse_loop`] handles the counted-loop shape the frontend emits and
//! the affine pass recognises: a header phi with step `+1` guarded by
//! `icmp slt iv, end` in the header. Anything else is refused with a
//! reason (the oracle then simply skips the region — a refusal is a
//! coverage gap, never a wrong answer).

use ssair::analysis::{Analyses, IndVar};
use ssair::{Function, ICmpPred, InsertPoint, Instr, Module, Opcode, ValueId};

/// Rewrites the counted loop of the induction variable `iv` (a header
/// phi) in place so its iterations run in reverse order:
///
/// * preheader gains `last = add end, -1`,
/// * the phi's init operand becomes `last`,
/// * the step becomes `add iv, -1`,
/// * the guard becomes `icmp sge iv, init`.
///
/// An empty forward loop (`init >= end`) stays empty: it starts at
/// `end - 1 < init` and the new guard fails immediately.
///
/// Returns the reason when the loop does not have the supported shape.
pub fn reverse_loop(f: &mut Function, iv: ValueId) -> Result<(), String> {
    let an = Analyses::new(f);
    let map = ssair::analysis::AffineMap::new(f, &an);
    let Some(info) = map.iv(iv) else {
        return Err("not a recognised induction variable".into());
    };
    let info: IndVar = info.clone();
    if info.step != 1 {
        return Err(format!("unsupported step {}", info.step));
    }
    // The loop must carry no other state: a second header phi (an
    // accumulator) would be order-sensitive.
    let other_phi = f
        .block(info.header)
        .instrs
        .iter()
        .any(|&v| v != iv && f.opcode(v) == Some(Opcode::Phi));
    if other_phi {
        return Err("header carries another phi".into());
    }
    // Exactly two incoming edges: the latch (carrying `next`) and the
    // preheader (carrying `init`).
    let phi = f.instr(iv).expect("ivs are phis");
    if phi.operands.len() != 2 {
        return Err(format!("{} incoming edges", phi.operands.len()));
    }
    let Some(latch_idx) = phi.operands.iter().position(|&o| o == info.next) else {
        return Err("latch edge does not carry the step".into());
    };
    let init_idx = 1 - latch_idx;
    let preheader = phi.incoming[init_idx];
    // Header guard: `condbr (icmp slt iv, end)` as the terminator.
    let Some(&guard_br) = f.block(info.header).instrs.last() else {
        return Err("empty header".into());
    };
    let br = f.instr(guard_br).expect("blocks end in instructions");
    if br.opcode != Opcode::CondBr {
        return Err("header does not end in a conditional branch".into());
    }
    let cond = br.operands[0];
    let Some(cmp) = f.instr(cond) else {
        return Err("guard condition is not an instruction".into());
    };
    if cmp.opcode != Opcode::ICmp(ICmpPred::Slt) || cmp.operands[0] != iv {
        return Err("guard is not `icmp slt iv, end`".into());
    }
    let end = cmp.operands[1];
    // `end - 1` is inserted at the bottom of the preheader, so `end`
    // must already be available there.
    let end_available = f.is_constant(end)
        || f.is_argument(end)
        || f.find_block_of(end)
            .is_some_and(|b| an.dom.dominates(b, preheader));
    if !end_available {
        return Err("loop bound is not available in the preheader".into());
    }
    let latch = phi.incoming[latch_idx];
    let ty = f.value(iv).ty.clone();

    // All checks passed — mutate. The old step (`iv + 1`) is left in
    // place untouched: bodies often reuse it as data (`rowptr[i+1]`),
    // and the frontend CSEs that use with the increment. The reversed
    // loop gets a *fresh* decrement feeding the phi instead.
    let minus_one = f.const_int(ty.clone(), -1);
    let before_term = InsertPoint::BeforeTerminator;
    let last = Instr::simple(Opcode::Add, vec![end, minus_one]);
    let last = f.insert(preheader, before_term, ty.clone(), last);
    let dec = Instr::simple(Opcode::Add, vec![iv, minus_one]);
    let dec = f.insert(latch, before_term, ty, dec);
    let init = {
        let phi = f.instr_mut(iv).expect("ivs are phis");
        let init = phi.operands[init_idx];
        phi.operands[init_idx] = last;
        phi.operands[latch_idx] = dec;
        init
    };
    let cmp = f.instr_mut(cond).expect("guards are instructions");
    cmp.opcode = Opcode::ICmp(ICmpPred::Sge);
    cmp.operands = vec![iv, init];
    Ok(())
}

/// Clones `m` and reverses the loop of `iv` inside function `func`.
/// `ValueId`s are stable across the clone, so `iv` can come straight
/// from a detection binding against the original module.
pub fn reversed_module(m: &Module, func: &str, iv: ValueId) -> Result<Module, String> {
    let mut out = m.clone();
    let f = out
        .functions
        .iter_mut()
        .find(|f| f.name == func)
        .ok_or_else(|| format!("no function {func}"))?;
    reverse_loop(f, iv)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssair::parser::parse_function_text;

    const FILL: &str = r#"
define void @fill(double* %a, i64 %n) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i.next, %b ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %b, label %x
b:
  %fi = sitofp i64 %i to double
  %p = getelementptr double, double* %a, i64 %i
  store double %fi, double* %p
  %i.next = add i64 %i, 1
  br label %h
x:
  ret void
}
"#;

    #[test]
    fn reversed_fill_writes_the_same_elements() {
        let mut f = parse_function_text(FILL).unwrap();
        let iv = f.named("i").unwrap();
        reverse_loop(&mut f, iv).unwrap();
        // The rewritten function still verifies structurally.
        let mut m = Module::new("t");
        m.functions.push(f);
        ssair::verify::verify_module(&m).unwrap();
        // And the new guard is `icmp sge i, 0`.
        let f = m.function("fill").unwrap();
        let c = f.named("c").unwrap();
        assert_eq!(f.opcode(c), Some(Opcode::ICmp(ICmpPred::Sge)));
    }

    #[test]
    fn accumulator_loops_are_refused() {
        let mut f = parse_function_text(
            r#"
define double @sum(double* %a, i64 %n) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i.next, %b ]
  %acc = phi double [ 0.0, %entry ], [ %acc.next, %b ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %b, label %x
b:
  %p = getelementptr double, double* %a, i64 %i
  %v = load double, double* %p
  %acc.next = fadd double %acc, %v
  %i.next = add i64 %i, 1
  br label %h
x:
  ret double %acc
}
"#,
        )
        .unwrap();
        let iv = f.named("i").unwrap();
        let e = reverse_loop(&mut f, iv).unwrap_err();
        assert!(e.contains("another phi"), "{e}");
    }

    #[test]
    fn step_value_reused_as_data_is_preserved() {
        // `i + 1` feeds both the phi and a gep (the `rowptr[i+1]` CSE
        // shape): the reversal must leave the data use at `+1` and give
        // the phi a fresh `-1` step.
        let mut f = parse_function_text(
            r#"
define void @shift(double* %a, i64 %n) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i.next, %b ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %b, label %x
b:
  %i.next = add i64 %i, 1
  %p = getelementptr double, double* %a, i64 %i.next
  store double 1.0, double* %p
  br label %h
x:
  ret void
}
"#,
        )
        .unwrap();
        let iv = f.named("i").unwrap();
        let next = f.named("i.next").unwrap();
        reverse_loop(&mut f, iv).unwrap();
        // The old `+1` survives for the gep...
        let old = f.instr(next).unwrap();
        assert_eq!(old.operands[0], iv);
        // ...and the phi's latch operand is a new decrement, not `next`.
        let phi = f.instr(iv).unwrap();
        assert!(!phi.operands.contains(&next), "{:?}", phi.operands);
        let mut m = Module::new("t");
        m.functions.push(f);
        ssair::verify::verify_module(&m).unwrap();
    }
}
