//! The "rudimentary LLVM IR to C backend" of the paper (§6.2): renders a
//! single-block pure kernel function as sequential C with the function
//! interface Lift expects.

use ssair::{BlockId, Function, Opcode, Type, ValueId, ValueKind};

fn c_type(t: Type) -> &'static str {
    match t {
        Type::I1 | Type::I32 => "int",
        Type::I64 => "long",
        Type::F32 => "float",
        Type::F64 => "double",
        _ if t.is_pointer() => "void*",
        _ => "void",
    }
}

fn c_operand(f: &Function, v: ValueId) -> String {
    match &f.value(v).kind {
        ValueKind::ConstInt(c) => format!("{c}"),
        ValueKind::ConstFloat(c) => format!("{c:?}"),
        ValueKind::Argument { index } => format!("in{index}"),
        ValueKind::Instr(_) => format!("t{}", v.0),
    }
}

/// Renders a pure, single-block kernel function as C source. Returns
/// `None` for functions the backend cannot express (control flow, memory).
#[must_use]
pub fn ir_to_c(f: &Function) -> Option<String> {
    if f.num_blocks() != 1 {
        return None;
    }
    let params: Vec<String> = f
        .params
        .iter()
        .enumerate()
        .map(|(k, &p)| format!("{} in{k}", c_type(f.value(p).ty)))
        .collect();
    let mut out = format!(
        "{} {}({}) {{\n",
        c_type(f.ret_ty),
        f.name,
        params.join(", ")
    );
    for &v in &f.block(BlockId(0)).instrs {
        let i = f.instr(v)?;
        let ty = c_type(f.value(v).ty);
        let name = format!("t{}", v.0);
        let op = |k: usize| c_operand(f, i.operands[k]);
        let line = match i.opcode {
            Opcode::Add | Opcode::FAdd => format!("{ty} {name} = {} + {};", op(0), op(1)),
            Opcode::Sub | Opcode::FSub => format!("{ty} {name} = {} - {};", op(0), op(1)),
            Opcode::Mul | Opcode::FMul => format!("{ty} {name} = {} * {};", op(0), op(1)),
            Opcode::SDiv | Opcode::FDiv => format!("{ty} {name} = {} / {};", op(0), op(1)),
            Opcode::SRem => format!("{ty} {name} = {} % {};", op(0), op(1)),
            Opcode::ICmp(p) => {
                let sym = match p {
                    ssair::ICmpPred::Eq => "==",
                    ssair::ICmpPred::Ne => "!=",
                    ssair::ICmpPred::Slt => "<",
                    ssair::ICmpPred::Sle => "<=",
                    ssair::ICmpPred::Sgt => ">",
                    ssair::ICmpPred::Sge => ">=",
                };
                format!("{ty} {name} = {} {sym} {};", op(0), op(1))
            }
            Opcode::FCmp(p) => {
                let sym = match p {
                    ssair::FCmpPred::Oeq => "==",
                    ssair::FCmpPred::One => "!=",
                    ssair::FCmpPred::Olt => "<",
                    ssair::FCmpPred::Ole => "<=",
                    ssair::FCmpPred::Ogt => ">",
                    ssair::FCmpPred::Oge => ">=",
                };
                format!("{ty} {name} = {} {sym} {};", op(0), op(1))
            }
            Opcode::Select => {
                format!("{ty} {name} = {} ? {} : {};", op(0), op(1), op(2))
            }
            Opcode::SExt
            | Opcode::ZExt
            | Opcode::Trunc
            | Opcode::SIToFP
            | Opcode::FPToSI
            | Opcode::FPExt
            | Opcode::FPTrunc => {
                format!("{ty} {name} = ({ty}){};", op(0))
            }
            Opcode::Call => {
                let callee = i.callee.as_deref()?;
                let args: Vec<String> = (0..i.operands.len())
                    .map(|k| c_operand(f, i.operands[k]))
                    .collect();
                format!("{ty} {name} = {callee}({});", args.join(", "))
            }
            Opcode::Ret => {
                if let Some(&r) = i.operands.first() {
                    format!("return {};", c_operand(f, r))
                } else {
                    "return;".to_owned()
                }
            }
            _ => return None, // memory / control flow: not a pure kernel
        };
        out.push_str("  ");
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str("}\n");
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssair::parser::parse_function_text;

    #[test]
    fn renders_a_mac_kernel() {
        let f = parse_function_text(
            r#"
define double @kern(double %in0, double %in1, double %in2) {
entry:
  %m = fmul double %in0, %in1
  %s = fadd double %in2, %m
  ret double %s
}
"#,
        )
        .unwrap();
        let c = ir_to_c(&f).expect("renders");
        assert!(c.contains("double kern(double in0, double in1, double in2)"));
        assert!(c.contains("= in0 * in1;"));
        assert!(c.contains("return"));
    }

    #[test]
    fn renders_calls_and_selects() {
        let f = parse_function_text(
            r#"
define double @kern(double %in0) {
entry:
  %a = call double @fabs(double %in0)
  %c = fcmp ogt double %a, 1.0
  %s = select i1 %c, double %a, 1.0
  ret double %s
}
"#,
        )
        .unwrap();
        let c = ir_to_c(&f).expect("renders");
        assert!(c.contains("fabs(in0)"));
        assert!(c.contains("? "));
    }

    #[test]
    fn refuses_memory_and_control_flow() {
        let mem = parse_function_text(
            "define double @k(double* %p) {\nentry:\n  %x = load double, double* %p\n  ret double %x\n}\n",
        )
        .unwrap();
        assert!(ir_to_c(&mem).is_none());
        let cf = parse_function_text(
            "define void @k(i1 %c) {\nentry:\n  br i1 %c, label %a, label %b\na:\n  ret void\nb:\n  ret void\n}\n",
        )
        .unwrap();
        assert!(ir_to_c(&cf).is_none());
    }
}
