//! Pretty-printer: [`crate::ast`] back to compilable minicc C source.
//!
//! The inverse of [`crate::parse`]: every program the parser accepts (and
//! every program built from the AST constructors) prints to source text
//! that re-parses to a structurally equal AST. This is what lets `progen`
//! build programs as ASTs and persist failing cases as plain `.c` files in
//! the regression corpus.
//!
//! Sub-expressions are printed fully parenthesized — parentheses don't
//! exist in the AST, so this is the one canonical form that is guaranteed
//! to round-trip regardless of operator precedence.

use crate::ast::{BinOp, CmpOp, Expr, FuncDef, LValue, Program, Stmt};
use ssair::Type;
use std::fmt::Write;

/// Renders a whole translation unit.
#[must_use]
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    for (k, f) in p.funcs.iter().enumerate() {
        if k > 0 {
            out.push('\n');
        }
        print_func(&mut out, f);
    }
    out
}

/// Renders one function definition.
fn print_func(out: &mut String, f: &FuncDef) {
    let params: Vec<String> = f
        .params
        .iter()
        .map(|(name, ty)| format!("{} {name}", type_name(*ty)))
        .collect();
    let _ = writeln!(
        out,
        "{} {}({}) {{",
        type_name(f.ret),
        f.name,
        params.join(", ")
    );
    for s in &f.body {
        print_stmt(out, s, 1);
    }
    out.push_str("}\n");
}

/// The C spelling of a type. `i1`, the type of comparisons and logic,
/// has no minicc spelling and reads `_Bool`.
#[must_use]
pub fn type_name(ty: Type) -> String {
    let (mut scalar, mut stars) = (ty, 0);
    while let Some(pointee) = scalar.pointee() {
        (scalar, stars) = (pointee, stars + 1);
    }
    let name = match scalar {
        Type::I32 => "int",
        Type::I64 => "long",
        Type::F32 => "float",
        Type::F64 => "double",
        Type::Void => "void",
        _ => "_Bool",
    };
    format!("{name}{}", "*".repeat(stars))
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

fn print_stmt(out: &mut String, s: &Stmt, depth: usize) {
    match s {
        Stmt::Decl {
            name,
            ty,
            dims,
            init,
            ..
        } => {
            indent(out, depth);
            let _ = write!(out, "{} {name}", type_name(*ty));
            for d in dims {
                let _ = write!(out, "[{d}]");
            }
            if let Some(e) = init {
                let _ = write!(out, " = {}", expr(e));
            }
            out.push_str(";\n");
        }
        Stmt::Assign {
            target, op, value, ..
        } => {
            indent(out, depth);
            let t = lvalue(target);
            match op {
                Some(o) => {
                    let _ = writeln!(out, "{t} {}= {};", binop(*o), expr(value));
                }
                None => {
                    let _ = writeln!(out, "{t} = {};", expr(value));
                }
            }
        }
        Stmt::Expr(e, _) => {
            indent(out, depth);
            let _ = writeln!(out, "{};", expr(e));
        }
        Stmt::If { cond, then, other } => {
            indent(out, depth);
            let _ = writeln!(out, "if ({}) {{", expr(cond));
            for s in then {
                print_stmt(out, s, depth + 1);
            }
            indent(out, depth);
            if other.is_empty() {
                out.push_str("}\n");
            } else {
                out.push_str("} else {\n");
                for s in other {
                    print_stmt(out, s, depth + 1);
                }
                indent(out, depth);
                out.push_str("}\n");
            }
        }
        Stmt::While { cond, body } => {
            indent(out, depth);
            let _ = writeln!(out, "while ({}) {{", expr(cond));
            for s in body {
                print_stmt(out, s, depth + 1);
            }
            indent(out, depth);
            out.push_str("}\n");
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            indent(out, depth);
            let i = init.as_ref().map_or(String::new(), |s| inline_stmt(s));
            let c = cond.as_ref().map_or(String::new(), expr);
            let st = step.as_ref().map_or(String::new(), |s| inline_stmt(s));
            let _ = writeln!(out, "for ({i}; {c}; {st}) {{");
            for s in body {
                print_stmt(out, s, depth + 1);
            }
            indent(out, depth);
            out.push_str("}\n");
        }
        Stmt::Return(e, _) => {
            indent(out, depth);
            match e {
                Some(e) => {
                    let _ = writeln!(out, "return {};", expr(e));
                }
                None => out.push_str("return;\n"),
            }
        }
        Stmt::Block(stmts) => {
            indent(out, depth);
            out.push_str("{\n");
            for s in stmts {
                print_stmt(out, s, depth + 1);
            }
            indent(out, depth);
            out.push_str("}\n");
        }
    }
}

/// A statement rendered without trailing `;`/newline, as used in `for`
/// headers (declarations and assignments only).
fn inline_stmt(s: &Stmt) -> String {
    match s {
        Stmt::Decl { name, ty, init, .. } => match init {
            Some(e) => format!("{} {name} = {}", type_name(*ty), expr(e)),
            None => format!("{} {name}", type_name(*ty)),
        },
        Stmt::Assign {
            target, op, value, ..
        } => match op {
            Some(o) => format!("{} {}= {}", lvalue(target), binop(*o), expr(value)),
            None => format!("{} = {}", lvalue(target), expr(value)),
        },
        Stmt::Expr(e, _) => expr(e),
        other => panic!("statement form not printable in a for header: {other:?}"),
    }
}

fn lvalue(l: &LValue) -> String {
    match l {
        LValue::Var(n) => n.clone(),
        LValue::Index { base, indices } => {
            let idx: Vec<String> = indices.iter().map(|e| format!("[{}]", expr(e))).collect();
            format!("{base}{}", idx.join(""))
        }
    }
}

fn binop(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
    }
}

fn cmpop(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "==",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

/// Renders a float so the lexer reads back the exact same `f64` (`{:?}`
/// is the shortest round-tripping decimal form; negatives are wrapped so
/// the token stays a literal application of unary minus).
fn float_lit(v: f64, is_f32: bool) -> String {
    assert!(v.is_finite(), "minicc has no literal form for {v}");
    let suffix = if is_f32 { "f" } else { "" };
    let mag = format!("{:?}", v.abs());
    if v.is_sign_negative() {
        format!("(-{mag}{suffix})")
    } else {
        format!("{mag}{suffix}")
    }
}

/// Renders an expression (parenthesized wherever ambiguity is possible).
#[must_use]
pub fn expr(e: &Expr) -> String {
    match e {
        Expr::IntLit(v) if *v < 0 => format!("(-{})", v.unsigned_abs()),
        Expr::IntLit(v) => v.to_string(),
        Expr::FloatLit(v, f32) => float_lit(*v, *f32),
        Expr::Var(n) => n.clone(),
        Expr::Bin(op, a, b) => format!("({} {} {})", expr(a), binop(*op), expr(b)),
        Expr::Cmp(op, a, b) => format!("({} {} {})", expr(a), cmpop(*op), expr(b)),
        Expr::And(a, b) => format!("({} && {})", expr(a), expr(b)),
        Expr::Or(a, b) => format!("({} || {})", expr(a), expr(b)),
        Expr::Not(a) => format!("(!{})", expr(a)),
        Expr::Neg(a) => format!("(-{})", expr(a)),
        Expr::Index { base, indices } => {
            let idx: Vec<String> = indices.iter().map(|e| format!("[{}]", expr(e))).collect();
            format!("{base}{}", idx.join(""))
        }
        Expr::Call { name, args } => {
            let a: Vec<String> = args.iter().map(expr).collect();
            format!("{name}({})", a.join(", "))
        }
        Expr::Ternary { cond, then, other } => {
            format!("({} ? {} : {})", expr(cond), expr(then), expr(other))
        }
        Expr::Cast { ty, expr: inner } => format!("(({}) {})", type_name(*ty), expr(inner)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    #[test]
    fn printed_source_reparses_to_the_same_ast() {
        let src = "double f(double* x, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) {
                if (x[i] > 0.5) { s += x[i] * 2.0; } else { s = fmax(s, -x[i]); }
            }
            return s > 1.0 ? s : (double)n;
        }";
        // AST nodes carry source lines, so equality is checked on the
        // printed canonical form: print ∘ parse must be a fixpoint.
        let p1 = print_program(&parse_program(src).unwrap());
        let p2 = print_program(&parse_program(&p1).unwrap_or_else(|e| panic!("{e}\n{p1}")));
        assert_eq!(p1, p2, "print∘parse must be a fixpoint");
    }

    #[test]
    fn shortest_float_form_survives_the_round_trip() {
        for v in [0.1, 1.0, 2.5e-3, 1e30, 123456.789, 0.9999999999999999] {
            let p = Program {
                funcs: vec![FuncDef {
                    name: "f".into(),
                    params: vec![],
                    ret: Type::F64,
                    body: vec![Stmt::Return(Some(Expr::FloatLit(v, false)), 1)],
                    line: 1,
                }],
            };
            let printed = print_program(&p);
            let back = parse_program(&printed).unwrap();
            match &back.funcs[0].body[0] {
                Stmt::Return(Some(Expr::FloatLit(got, false)), _) => {
                    assert_eq!(got.to_bits(), v.to_bits(), "{v} must survive: {printed}");
                }
                other => panic!("{v} reparsed to {other:?}: {printed}"),
            }
        }
    }
}
