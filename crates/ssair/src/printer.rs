//! LLVM-flavoured textual printing of modules and functions.
//!
//! The output is designed to round-trip through [`crate::parser`]: printing
//! a parsed module and re-parsing it yields a structurally identical module.
//! This is exercised by property tests in the parser module.

use crate::function::{BlockId, Function, Instr, Opcode, ValueId, ValueKind};
use crate::module::Module;
use crate::types::Type;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Assigns every value and block a unique textual name, preferring
/// source-level names and falling back to numeric ids.
pub struct Namer {
    values: HashMap<ValueId, String>,
    blocks: HashMap<BlockId, String>,
}

impl Namer {
    /// Builds a namer for `f` with globally unique names.
    #[must_use]
    pub fn new(f: &Function) -> Namer {
        let mut used = std::collections::HashSet::new();
        let mut values = HashMap::new();
        for id in f.value_ids() {
            if f.is_constant(id) {
                continue; // constants are printed as literals
            }
            let base = match &f.value(id).name {
                Some(n) => n.clone(),
                None => format!("v{}", id.0),
            };
            let mut name = base.clone();
            let mut k = 0u32;
            while !used.insert(name.clone()) {
                k += 1;
                name = format!("{base}.{k}");
            }
            values.insert(id, name);
        }
        let mut bused = std::collections::HashSet::new();
        let mut blocks = HashMap::new();
        for b in f.block_ids() {
            let base = match &f.block(b).name {
                Some(n) => n.clone(),
                None => format!("bb{}", b.0),
            };
            let mut name = base.clone();
            let mut k = 0u32;
            while !bused.insert(name.clone()) {
                k += 1;
                name = format!("{base}.{k}");
            }
            blocks.insert(b, name);
        }
        Namer { values, blocks }
    }

    /// The unique name of `id` (without the `%` sigil).
    #[must_use]
    pub fn value(&self, id: ValueId) -> &str {
        &self.values[&id]
    }

    /// The unique label of `b`.
    #[must_use]
    pub fn block(&self, b: BlockId) -> &str {
        &self.blocks[&b]
    }
}

/// Prints a float constant so that it parses back to the same bit pattern.
fn float_literal(v: f64) -> String {
    if v.is_nan() {
        "nan".to_owned()
    } else if v.is_infinite() {
        if v > 0.0 {
            "inf".to_owned()
        } else {
            "-inf".to_owned()
        }
    } else {
        let s = format!("{v:?}"); // shortest round-trip form
        s
    }
}

fn operand(f: &Function, namer: &Namer, id: ValueId) -> String {
    match &f.value(id).kind {
        ValueKind::ConstInt(v) => format!("{v}"),
        ValueKind::ConstFloat(v) => float_literal(*v),
        _ => format!("%{}", namer.value(id)),
    }
}

fn typed_operand(f: &Function, namer: &Namer, id: ValueId) -> String {
    format!("{} {}", f.value(id).ty, operand(f, namer, id))
}

/// Renders one instruction (without trailing newline).
fn instr_text(f: &Function, namer: &Namer, id: ValueId, i: &Instr) -> String {
    let ty = f.value(id).ty;
    let lhs = if ty == Type::Void {
        String::new()
    } else {
        format!("%{} = ", namer.value(id))
    };
    let ops = |k: usize| operand(f, namer, i.operands[k]);
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
        | Opcode::AShr
        | Opcode::FAdd
        | Opcode::FSub
        | Opcode::FMul
        | Opcode::FDiv => {
            format!("{lhs}{} {} {}, {}", i.opcode.mnemonic(), ty, ops(0), ops(1))
        }
        Opcode::ICmp(p) => {
            let oty = f.value(i.operands[0]).ty;
            format!("{lhs}icmp {} {} {}, {}", p.mnemonic(), oty, ops(0), ops(1))
        }
        Opcode::FCmp(p) => {
            let oty = f.value(i.operands[0]).ty;
            format!("{lhs}fcmp {} {} {}, {}", p.mnemonic(), oty, ops(0), ops(1))
        }
        Opcode::Select => {
            format!("{lhs}select i1 {}, {} {}, {}", ops(0), ty, ops(1), ops(2))
        }
        Opcode::Gep => {
            let pty = f.value(i.operands[0]).ty;
            let ety = pty.pointee().expect("gep base must be pointer");
            format!(
                "{lhs}getelementptr {ety}, {pty} {}, {} {}",
                ops(0),
                f.value(i.operands[1]).ty,
                ops(1)
            )
        }
        Opcode::Load => {
            let pty = f.value(i.operands[0]).ty;
            format!("{lhs}load {ty}, {pty} {}", ops(0))
        }
        Opcode::Store => {
            format!(
                "store {}, {}",
                typed_operand(f, namer, i.operands[0]),
                typed_operand(f, namer, i.operands[1])
            )
        }
        Opcode::Phi => {
            let mut s = format!("{lhs}phi {ty} ");
            for (k, (&v, &b)) in i.operands.iter().zip(&i.incoming).enumerate() {
                if k > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "[ {}, %{} ]", operand(f, namer, v), namer.block(b));
            }
            s
        }
        Opcode::Br => format!("br label %{}", namer.block(i.targets[0])),
        Opcode::CondBr => format!(
            "br i1 {}, label %{}, label %{}",
            ops(0),
            namer.block(i.targets[0]),
            namer.block(i.targets[1])
        ),
        Opcode::Ret => {
            if i.operands.is_empty() {
                "ret void".to_owned()
            } else {
                format!("ret {}", typed_operand(f, namer, i.operands[0]))
            }
        }
        Opcode::Call => {
            let args: Vec<String> = i
                .operands
                .iter()
                .map(|&a| typed_operand(f, namer, a))
                .collect();
            format!(
                "{lhs}call {ty} @{}({})",
                i.callee.as_deref().unwrap_or("?"),
                args.join(", ")
            )
        }
        Opcode::Alloca => {
            let ety = ty.pointee().expect("alloca result must be pointer");
            format!(
                "{lhs}alloca {ety}, {}",
                typed_operand(f, namer, i.operands[0])
            )
        }
        Opcode::SExt
        | Opcode::ZExt
        | Opcode::Trunc
        | Opcode::SIToFP
        | Opcode::FPToSI
        | Opcode::FPExt
        | Opcode::FPTrunc => {
            format!(
                "{lhs}{} {} to {ty}",
                i.opcode.mnemonic(),
                typed_operand(f, namer, i.operands[0])
            )
        }
    }
}

/// Prints a function in LLVM-flavoured text.
#[must_use]
pub fn print_function(f: &Function) -> String {
    let namer = Namer::new(f);
    let mut out = String::new();
    let params: Vec<String> = f
        .params
        .iter()
        .map(|&p| format!("{} %{}", f.value(p).ty, namer.value(p)))
        .collect();
    let _ = writeln!(
        out,
        "define {} @{}({}) {{",
        f.ret_ty,
        f.name,
        params.join(", ")
    );
    for b in f.block_ids() {
        let _ = writeln!(out, "{}:", namer.block(b));
        for &id in &f.block(b).instrs {
            if let ValueKind::Instr(i) = &f.value(id).kind {
                let _ = writeln!(out, "  {}", instr_text(f, &namer, id, i));
            }
        }
    }
    out.push_str("}\n");
    out
}

/// Prints an entire module.
#[must_use]
pub fn print_module(m: &Module) -> String {
    let mut out = format!("; module {}\n", m.name);
    for f in &m.functions {
        out.push('\n');
        out.push_str(&print_function(f));
    }
    out
}

impl std::fmt::Display for Function {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&print_function(self))
    }
}

impl std::fmt::Display for Module {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&print_module(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{BlockId, Opcode};

    #[test]
    fn prints_the_paper_example() {
        // Figure 3 of the paper: example(a, b, c) = a*b + c*a
        let mut f = Function::new(
            "example",
            &[
                ("a".into(), Type::I32),
                ("b".into(), Type::I32),
                ("c".into(), Type::I32),
            ],
            Type::I32,
        );
        let e = BlockId(0);
        let (a, b, c) = (f.params[0], f.params[1], f.params[2]);
        let m1 = f.append_simple(e, Type::I32, Opcode::Mul, vec![a, b]);
        let m2 = f.append_simple(e, Type::I32, Opcode::Mul, vec![c, a]);
        let s = f.append_simple(e, Type::I32, Opcode::Add, vec![m1, m2]);
        f.append_ret(e, Some(s));
        let text = print_function(&f);
        assert!(text.contains("define i32 @example(i32 %a, i32 %b, i32 %c)"));
        assert!(text.contains("mul i32 %a, %b"));
        assert!(text.contains("mul i32 %c, %a"));
        assert!(text.contains("add i32 %v3, %v4"));
        assert!(text.contains("ret i32 %v5"));
    }

    #[test]
    fn duplicate_names_are_disambiguated() {
        let mut f = Function::new("dup", &[("x".into(), Type::I32)], Type::I32);
        let e = BlockId(0);
        let x = f.params[0];
        let a = f.append_simple(e, Type::I32, Opcode::Add, vec![x, x]);
        f.set_name(a, "x");
        let b = f.append_simple(e, Type::I32, Opcode::Add, vec![a, x]);
        f.set_name(b, "x");
        f.append_ret(e, Some(b));
        let namer = Namer::new(&f);
        let names: std::collections::HashSet<&str> =
            [namer.value(x), namer.value(a), namer.value(b)].into();
        assert_eq!(names.len(), 3, "all names must be unique");
    }

    #[test]
    fn float_literals_round_trip() {
        for v in [0.0, -0.0, 1.0, 0.1, 1e-300, f64::INFINITY] {
            let s = float_literal(v);
            let parsed: f64 = match s.as_str() {
                "inf" => f64::INFINITY,
                "-inf" => f64::NEG_INFINITY,
                other => other.parse().unwrap(),
            };
            assert_eq!(parsed.to_bits(), v.to_bits(), "literal {s}");
        }
        assert_eq!(float_literal(f64::NAN), "nan");
    }
}
