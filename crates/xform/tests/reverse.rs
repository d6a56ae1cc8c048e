//! Reversed-iteration rewriting ([`xform::reverse_loop`]) on hand-written
//! loops: the rewritten loop verifies, order-sensitive loops are refused,
//! and a step value reused as data survives.

use ssair::analysis::{AffineMap, Analyses};
use ssair::parser::parse_function_text;
use ssair::{Function, ICmpPred, Module, Opcode, ValueId};
use xform::reverse_loop;

/// Reverses the loop of `iv` with analyses built once for `f`.
fn reverse(f: &mut Function, iv: ValueId) -> Result<(), String> {
    let an = Analyses::new(f);
    let map = AffineMap::new(f, &an);
    let info = map.iv(iv).expect("induction variable").clone();
    reverse_loop(f, &info, &an.dom)
}

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
    reverse(&mut f, iv).unwrap();
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
    let e = reverse(&mut f, iv).unwrap_err();
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
    reverse(&mut f, iv).unwrap();
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
