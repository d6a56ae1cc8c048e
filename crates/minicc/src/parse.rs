//! Recursive-descent parser for the minicc C subset.

use crate::ast::*;
use crate::lexer::{lex, Spanned, Tok};
use crate::CompileError;
use ssair::Type;

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// Open recursive-descent levels (see [`MAX_NESTING`]).
    depth: usize,
    /// The deepest level reached since [`Parser::chain`] last reset it,
    /// binary-operator links included.
    peak: usize,
}

/// Deepest nesting of statements, parenthesised (sub)expressions, prefix
/// operators and binary-operator links the parser accepts. Every level is
/// a chain of native stack frames in the parser and in every AST walker
/// after it (lowering, printing), so an unbounded depth lets a few
/// kilobytes of source overflow a thread's stack — an abort no caller can
/// contain. Deeper input is a [`CompileError`].
///
/// It also caps the depth of a pointer type, well inside what a [`Type`]
/// holds ([`Type::MAX_DEPTH`]) even after lowering points at an array's
/// elements.
const MAX_NESTING: usize = 128;

/// Builds a binary node from its operands.
type Link = fn(Box<Expr>, Box<Expr>) -> Expr;

type Result<T> = std::result::Result<T, CompileError>;

/// Parses a whole translation unit.
pub fn parse_program(source: &str) -> Result<Program> {
    let toks = lex(source)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
        peak: 0,
    };
    let mut prog = Program::default();
    while !matches!(p.peek(), Tok::Eof) {
        prog.funcs.push(p.funcdef()?);
    }
    Ok(prog)
}

const TYPE_KEYWORDS: &[&str] = &["int", "long", "float", "double", "void"];

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn line(&self) -> usize {
        self.toks[self.pos].line
    }

    fn err(&self, msg: impl Into<String>) -> CompileError {
        CompileError {
            line: self.line(),
            message: msg.into(),
        }
    }

    fn too_deep(&self) -> CompileError {
        self.err(format!("nesting deeper than {MAX_NESTING} levels"))
    }

    /// Runs `f` one nesting level deeper, refusing past [`MAX_NESTING`].
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_NESTING {
            return Err(self.too_deep());
        }
        self.depth += 1;
        self.peak = self.peak.max(self.depth);
        let r = f(self);
        self.depth -= 1;
        r
    }

    /// Parses the left-associative chain `operand (op operand)*`, where
    /// `ops` pairs each operator with the node it builds (the first match
    /// wins, so `<=` must come before `<`). `a + b + c` nests its first
    /// operand one node deeper per link, so the height of the tree built
    /// so far counts against [`MAX_NESTING`] like any other nesting.
    fn chain(
        &mut self,
        operand: impl Fn(&mut Self) -> Result<Expr>,
        ops: &[(&str, Link)],
    ) -> Result<Expr> {
        let outer_peak = std::mem::replace(&mut self.peak, self.depth);
        let mut lhs = operand(self)?;
        let mut height = self.peak - self.depth;
        while let Some(&(_, link)) = ops.iter().find(|(op, _)| self.eat_punct(op)) {
            self.peak = self.depth;
            let rhs = operand(self)?;
            height = 1 + height.max(self.peak - self.depth);
            if self.depth + height > MAX_NESTING {
                return Err(self.too_deep());
            }
            lhs = link(Box::new(lhs), Box::new(rhs));
        }
        self.peak = outer_peak.max(self.depth + height);
        Ok(lhs)
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected {p:?}, got {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String> {
        let line = self.line();
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(CompileError {
                line,
                message: format!("expected identifier, got {other:?}"),
            }),
        }
    }

    fn at_type(&self) -> bool {
        matches!(self.peek(), Tok::Ident(s) if TYPE_KEYWORDS.contains(&s.as_str()))
    }

    fn base_type(&mut self) -> Result<Type> {
        let name = self.ident()?;
        let mut ty = match name.as_str() {
            "int" => Type::I32,
            "long" => Type::I64,
            "float" => Type::F32,
            "double" => Type::F64,
            "void" => Type::Void,
            other => return Err(self.err(format!("unknown type {other:?}"))),
        };
        let mut depth = 0;
        while self.eat_punct("*") {
            if depth == MAX_NESTING {
                return Err(self.err(format!("pointer type deeper than {MAX_NESTING} levels")));
            }
            depth += 1;
            ty = ty.ptr_to();
        }
        Ok(ty)
    }

    fn funcdef(&mut self) -> Result<FuncDef> {
        let line = self.line();
        let ret = self.base_type()?;
        let name = self.ident()?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            loop {
                let pty = self.base_type()?;
                let pname = self.ident()?;
                params.push((pname, pty));
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        self.expect_punct("{")?;
        let body = self.block_body()?;
        Ok(FuncDef {
            name,
            params,
            ret,
            body,
            line,
        })
    }

    /// Statements up to and including the closing `}`.
    fn block_body(&mut self) -> Result<Vec<Stmt>> {
        let mut stmts = Vec::new();
        while !self.eat_punct("}") {
            if matches!(self.peek(), Tok::Eof) {
                return Err(self.err("unterminated block"));
            }
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt> {
        self.nested(Self::stmt_unnested)
    }

    fn stmt_unnested(&mut self) -> Result<Stmt> {
        let line = self.line();
        if self.eat_punct("{") {
            return Ok(Stmt::Block(self.block_body()?));
        }
        if let Tok::Ident(kw) = self.peek() {
            match kw.as_str() {
                "if" => return self.if_stmt(),
                "while" => return self.while_stmt(),
                "for" => return self.for_stmt(),
                "return" => {
                    self.bump();
                    if self.eat_punct(";") {
                        return Ok(Stmt::Return(None, line));
                    }
                    let e = self.expr()?;
                    self.expect_punct(";")?;
                    return Ok(Stmt::Return(Some(e), line));
                }
                _ if self.at_type() => {
                    let d = self.decl()?;
                    self.expect_punct(";")?;
                    return Ok(d);
                }
                _ => {}
            }
        }
        let s = self.assign_or_expr()?;
        self.expect_punct(";")?;
        Ok(s)
    }

    fn decl(&mut self) -> Result<Stmt> {
        let line = self.line();
        let ty = self.base_type()?;
        let name = self.ident()?;
        let mut dims = Vec::new();
        while self.eat_punct("[") {
            match self.bump() {
                Tok::Int(n) if n > 0 => dims.push(n as usize),
                other => {
                    return Err(self.err(format!(
                        "array dimension must be a positive integer literal, got {other:?}"
                    )))
                }
            }
            self.expect_punct("]")?;
        }
        let init = if self.eat_punct("=") {
            if !dims.is_empty() {
                return Err(self.err("array initializers are not supported"));
            }
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Stmt::Decl {
            name,
            ty,
            dims,
            init,
            line,
        })
    }

    fn if_stmt(&mut self) -> Result<Stmt> {
        self.bump(); // if
        self.expect_punct("(")?;
        let cond = self.expr()?;
        self.expect_punct(")")?;
        let then = self.stmt_as_block()?;
        let other = if matches!(self.peek(), Tok::Ident(k) if k == "else") {
            self.bump();
            self.stmt_as_block()?
        } else {
            Vec::new()
        };
        Ok(Stmt::If { cond, then, other })
    }

    fn while_stmt(&mut self) -> Result<Stmt> {
        self.bump(); // while
        self.expect_punct("(")?;
        let cond = self.expr()?;
        self.expect_punct(")")?;
        let body = self.stmt_as_block()?;
        Ok(Stmt::While { cond, body })
    }

    fn for_stmt(&mut self) -> Result<Stmt> {
        self.bump(); // for
        self.expect_punct("(")?;
        let init = if self.eat_punct(";") {
            None
        } else {
            let s = if self.at_type() {
                self.decl()?
            } else {
                self.assign_or_expr()?
            };
            self.expect_punct(";")?;
            Some(Box::new(s))
        };
        let cond = if self.eat_punct(";") {
            None
        } else {
            let e = self.expr()?;
            self.expect_punct(";")?;
            Some(e)
        };
        let step = if self.eat_punct(")") {
            None
        } else {
            let s = self.assign_or_expr()?;
            self.expect_punct(")")?;
            Some(Box::new(s))
        };
        let body = self.stmt_as_block()?;
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
        })
    }

    fn stmt_as_block(&mut self) -> Result<Vec<Stmt>> {
        if self.eat_punct("{") {
            self.block_body()
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    /// Assignment, `++`/`--`, or bare expression (no trailing `;`).
    fn assign_or_expr(&mut self) -> Result<Stmt> {
        let line = self.line();
        // Pre-increment as a statement: ++i; --i;
        for (p, op) in [("++", BinOp::Add), ("--", BinOp::Sub)] {
            if matches!(self.peek(), Tok::Punct(q) if *q == p) {
                self.bump();
                let target = self.lvalue()?;
                return Ok(Stmt::Assign {
                    target,
                    op: Some(op),
                    value: Expr::IntLit(1),
                    line,
                });
            }
        }
        let e = self.expr()?;
        let as_lvalue = |e: &Expr| -> Option<LValue> {
            match e {
                Expr::Var(n) => Some(LValue::Var(n.clone())),
                Expr::Index { base, indices } => Some(LValue::Index {
                    base: base.clone(),
                    indices: indices.clone(),
                }),
                _ => None,
            }
        };
        let compound = [
            ("=", None),
            ("+=", Some(BinOp::Add)),
            ("-=", Some(BinOp::Sub)),
            ("*=", Some(BinOp::Mul)),
            ("/=", Some(BinOp::Div)),
            ("%=", Some(BinOp::Rem)),
        ];
        for (p, op) in compound {
            if matches!(self.peek(), Tok::Punct(q) if *q == p) {
                self.bump();
                let target = as_lvalue(&e)
                    .ok_or_else(|| self.err("left-hand side of assignment is not assignable"))?;
                let value = self.expr()?;
                return Ok(Stmt::Assign {
                    target,
                    op,
                    value,
                    line,
                });
            }
        }
        for (p, op) in [("++", BinOp::Add), ("--", BinOp::Sub)] {
            if matches!(self.peek(), Tok::Punct(q) if *q == p) {
                self.bump();
                let target =
                    as_lvalue(&e).ok_or_else(|| self.err("operand of ++/-- is not assignable"))?;
                return Ok(Stmt::Assign {
                    target,
                    op: Some(op),
                    value: Expr::IntLit(1),
                    line,
                });
            }
        }
        Ok(Stmt::Expr(e, line))
    }

    fn lvalue(&mut self) -> Result<LValue> {
        let name = self.ident()?;
        let mut indices = Vec::new();
        while self.eat_punct("[") {
            indices.push(self.expr()?);
            self.expect_punct("]")?;
        }
        if indices.is_empty() {
            Ok(LValue::Var(name))
        } else {
            Ok(LValue::Index {
                base: name,
                indices,
            })
        }
    }

    // ----- expressions, precedence climbing -----

    fn expr(&mut self) -> Result<Expr> {
        self.ternary()
    }

    fn ternary(&mut self) -> Result<Expr> {
        self.nested(Self::ternary_unnested)
    }

    fn ternary_unnested(&mut self) -> Result<Expr> {
        let cond = self.or_expr()?;
        if self.eat_punct("?") {
            let then = self.expr()?;
            self.expect_punct(":")?;
            let other = self.ternary()?;
            Ok(Expr::Ternary {
                cond: Box::new(cond),
                then: Box::new(then),
                other: Box::new(other),
            })
        } else {
            Ok(cond)
        }
    }

    fn or_expr(&mut self) -> Result<Expr> {
        self.chain(Self::and_expr, &[("||", Expr::Or)])
    }

    fn and_expr(&mut self) -> Result<Expr> {
        self.chain(Self::equality, &[("&&", Expr::And)])
    }

    fn equality(&mut self) -> Result<Expr> {
        self.chain(
            Self::relational,
            &[
                ("==", |l, r| Expr::Cmp(CmpOp::Eq, l, r)),
                ("!=", |l, r| Expr::Cmp(CmpOp::Ne, l, r)),
            ],
        )
    }

    fn relational(&mut self) -> Result<Expr> {
        self.chain(
            Self::additive,
            &[
                ("<=", |l, r| Expr::Cmp(CmpOp::Le, l, r)),
                (">=", |l, r| Expr::Cmp(CmpOp::Ge, l, r)),
                ("<", |l, r| Expr::Cmp(CmpOp::Lt, l, r)),
                (">", |l, r| Expr::Cmp(CmpOp::Gt, l, r)),
            ],
        )
    }

    fn additive(&mut self) -> Result<Expr> {
        self.chain(
            Self::multiplicative,
            &[
                ("+", |l, r| Expr::Bin(BinOp::Add, l, r)),
                ("-", |l, r| Expr::Bin(BinOp::Sub, l, r)),
            ],
        )
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        self.chain(
            Self::unary,
            &[
                ("*", |l, r| Expr::Bin(BinOp::Mul, l, r)),
                ("/", |l, r| Expr::Bin(BinOp::Div, l, r)),
                ("%", |l, r| Expr::Bin(BinOp::Rem, l, r)),
            ],
        )
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_punct("-") {
            return Ok(Expr::Neg(Box::new(self.nested(Self::unary)?)));
        }
        if self.eat_punct("!") {
            return Ok(Expr::Not(Box::new(self.nested(Self::unary)?)));
        }
        if self.eat_punct("+") {
            return self.nested(Self::unary);
        }
        // Cast: '(' type ')' unary — lookahead for a type keyword.
        if matches!(self.peek(), Tok::Punct("("))
            && matches!(self.peek2(), Tok::Ident(s) if TYPE_KEYWORDS.contains(&s.as_str()))
        {
            self.bump(); // (
            let ty = self.base_type()?;
            self.expect_punct(")")?;
            let expr = self.nested(Self::unary)?;
            return Ok(Expr::Cast {
                ty,
                expr: Box::new(expr),
            });
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr> {
        let mut e = self.primary()?;
        loop {
            if self.eat_punct("[") {
                let idx = self.expr()?;
                self.expect_punct("]")?;
                match e {
                    Expr::Var(name) => {
                        e = Expr::Index {
                            base: name,
                            indices: vec![idx],
                        }
                    }
                    Expr::Index { base, mut indices } => {
                        indices.push(idx);
                        e = Expr::Index { base, indices };
                    }
                    _ => return Err(self.err("can only index variables")),
                }
            } else {
                return Ok(e);
            }
        }
    }

    fn primary(&mut self) -> Result<Expr> {
        let line = self.line();
        match self.bump() {
            Tok::Int(v) => Ok(Expr::IntLit(v)),
            Tok::Float(v, f32_suffix) => Ok(Expr::FloatLit(v, f32_suffix)),
            Tok::Punct("(") => {
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Tok::Ident(name) => {
                if self.eat_punct("(") {
                    let mut args = Vec::new();
                    if !self.eat_punct(")") {
                        loop {
                            args.push(self.expr()?);
                            if self.eat_punct(")") {
                                break;
                            }
                            self.expect_punct(",")?;
                        }
                    }
                    Ok(Expr::Call { name, args })
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => Err(CompileError {
                line,
                message: format!("unexpected token {other:?}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_function_with_loop() {
        let p = parse_program(
            "double dot(double* x, double* y, int n) { double acc = 0.0; for (int i = 0; i < n; i++) { acc += x[i] * y[i]; } return acc; }",
        )
        .unwrap();
        assert_eq!(p.funcs.len(), 1);
        let f = &p.funcs[0];
        assert_eq!(f.name, "dot");
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.params[0].1, Type::F64.ptr_to());
        assert!(matches!(f.body[1], Stmt::For { .. }));
    }

    #[test]
    fn parses_precedence() {
        let p = parse_program("int f(int a, int b) { return a + b * 2 < 10 && a != b; }").unwrap();
        let Stmt::Return(Some(e), _) = &p.funcs[0].body[0] else {
            panic!("expected return")
        };
        // (a + (b*2) < 10) && (a != b)
        assert!(matches!(e, Expr::And(_, _)));
    }

    #[test]
    fn parses_multidim_arrays_and_casts() {
        let p =
            parse_program("void f(int n) { double A[4][8]; A[1][2] = (double)n; A[0][0] += 1.0; }")
                .unwrap();
        let body = &p.funcs[0].body;
        assert!(matches!(&body[0], Stmt::Decl { dims, .. } if dims == &vec![4, 8]));
        assert!(
            matches!(&body[1], Stmt::Assign { target: LValue::Index { indices, .. }, value: Expr::Cast { .. }, .. } if indices.len() == 2)
        );
        assert!(matches!(
            &body[2],
            Stmt::Assign {
                op: Some(BinOp::Add),
                ..
            }
        ));
    }

    #[test]
    fn parses_ternary_calls_and_unaries() {
        let p = parse_program("double f(double x) { return x > 0.0 ? sqrt(x) : -x; }").unwrap();
        let Stmt::Return(Some(Expr::Ternary { then, .. }), _) = &p.funcs[0].body[0] else {
            panic!("expected ternary return")
        };
        assert!(matches!(**then, Expr::Call { .. }));
    }

    #[test]
    fn parses_for_variants() {
        let p = parse_program(
            "void f(int n) { int s = 0; for (;;) { s += 1; } for (s = 0; s < n;) ++s; }",
        )
        .unwrap();
        let body = &p.funcs[0].body;
        assert!(matches!(
            &body[1],
            Stmt::For {
                init: None,
                cond: None,
                step: None,
                ..
            }
        ));
        assert!(matches!(
            &body[2],
            Stmt::For {
                init: Some(_),
                cond: Some(_),
                step: None,
                ..
            }
        ));
    }

    #[test]
    fn reports_errors_with_lines() {
        let err = parse_program("int f() {\n  return 1 +;\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    /// Every recursive-descent entry counts toward one cap: nesting up to
    /// it parses, one level more is an error instead of a deeper stack.
    #[test]
    fn nesting_past_the_cap_is_a_compile_error() {
        // The `return` statement and its expression take two levels.
        let within = MAX_NESTING - 2;
        let shapes = [
            |k: usize| format!("return {}1.0{};", "(".repeat(k), ")".repeat(k)),
            |k: usize| format!("return {}1.0;", "- ".repeat(k)),
            |k: usize| format!("{}return 1.0;{}", "{".repeat(k), "}".repeat(k)),
            |k: usize| format!("{}return 1.0;", "if (n) ".repeat(k)),
            |k: usize| format!("return {}1.0;", "n ? 1.0 : ".repeat(k)),
            |k: usize| format!("return 1.0{};", " * 1.0".repeat(k)),
            |k: usize| format!("return n{};", " || n".repeat(k)),
        ];
        for shape in shapes {
            let src = |k| format!("double f(int n) {{ {} }}", shape(k));
            parse_program(&src(within)).unwrap_or_else(|e| panic!("{}: {e}", shape(1)));
            let err = parse_program(&src(within + 1)).unwrap_err();
            assert_eq!(
                err.message,
                format!("nesting deeper than {MAX_NESTING} levels"),
                "{}",
                shape(1)
            );
        }
    }

    /// A chain's links nest on top of whatever its first operand holds:
    /// `((1.0) + 1.0) + 1.0` is two levels per parenthesis.
    #[test]
    fn chain_links_count_on_top_of_their_operands() {
        let src = |k: usize| {
            let e = format!("{}1.0{}", "(".repeat(k), ") + 1.0".repeat(k));
            format!("double f(int n) {{ return {e}; }}")
        };
        let within = (MAX_NESTING - 2) / 2;
        parse_program(&src(within)).expect("within the cap");
        let err = parse_program(&src(within + 1)).unwrap_err();
        assert_eq!(
            err.message,
            format!("nesting deeper than {MAX_NESTING} levels")
        );
    }

    #[test]
    fn rejects_assignment_to_rvalue() {
        let err = parse_program("void f(int a) { a + 1 = 2; }").unwrap_err();
        assert!(err.message.contains("not assignable"));
    }
}
