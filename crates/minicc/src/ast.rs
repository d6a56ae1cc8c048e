//! Abstract syntax tree of the minicc C subset.
//!
//! Source types are [`ssair::Type`]s: `int` is `i32`, `long` is `i64`,
//! `float` is `f32`, `double` is `f64`, `void` is `void`, and `T*` is a
//! pointer to `T`. Lowering types comparisons and logic as `i1`, which no
//! source spelling names.

use ssair::Type;

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%` (integers only)
    Rem,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    IntLit(i64),
    /// Floating literal (`1.0`, `2.5e-3`, `1.0f`).
    FloatLit(f64, /*is_f32:*/ bool),
    /// Variable reference.
    Var(String),
    /// Arithmetic binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Comparison, result is boolean.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical and (bitwise on `i1`; both sides evaluated).
    And(Box<Expr>, Box<Expr>),
    /// Logical or (bitwise on `i1`; both sides evaluated).
    Or(Box<Expr>, Box<Expr>),
    /// Logical not.
    Not(Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// Array / pointer subscript with one or more indices
    /// (`a[i]`, `A[i][j]` for local multi-dim arrays).
    Index {
        /// The array variable name.
        base: String,
        /// One index per dimension.
        indices: Vec<Expr>,
    },
    /// Function or intrinsic call.
    Call {
        /// Callee name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Ternary conditional, lowered to `select` (both sides evaluated).
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value when true.
        then: Box<Expr>,
        /// Value when false.
        other: Box<Expr>,
    },
    /// Explicit cast `(type) expr`.
    Cast {
        /// Target type.
        ty: Type,
        /// Operand.
        expr: Box<Expr>,
    },
}

impl Expr {
    /// A variable reference.
    #[must_use]
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// An integer literal.
    #[must_use]
    pub fn int(v: i64) -> Expr {
        Expr::IntLit(v)
    }

    /// A `double` literal.
    #[must_use]
    pub fn f64(v: f64) -> Expr {
        Expr::FloatLit(v, false)
    }

    /// A one-dimensional subscript `base[idx]`.
    #[must_use]
    pub fn idx(base: impl Into<String>, idx: Expr) -> Expr {
        Expr::Index {
            base: base.into(),
            indices: vec![idx],
        }
    }

    /// A call `name(args...)`.
    #[must_use]
    pub fn call(name: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Call {
            name: name.into(),
            args,
        }
    }

    /// A binary arithmetic node.
    #[must_use]
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }

    /// `a + b`. Associated constructors, not `self` methods — these
    /// cannot collide with the `std::ops` traits clippy worries about.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Add, a, b)
    }

    /// `a - b`.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Sub, a, b)
    }

    /// `a * b`.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Mul, a, b)
    }

    /// A comparison node.
    #[must_use]
    pub fn cmp(op: CmpOp, a: Expr, b: Expr) -> Expr {
        Expr::Cmp(op, Box::new(a), Box::new(b))
    }

    /// A cast `(ty) e`.
    #[must_use]
    pub fn cast(ty: Type, e: Expr) -> Expr {
        Expr::Cast {
            ty,
            expr: Box::new(e),
        }
    }

    /// A ternary `cond ? then : other` (lowered to `select`).
    #[must_use]
    pub fn ternary(cond: Expr, then: Expr, other: Expr) -> Expr {
        Expr::Ternary {
            cond: Box::new(cond),
            then: Box::new(then),
            other: Box::new(other),
        }
    }
}

/// Assignment targets.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// Scalar variable.
    Var(String),
    /// Array element.
    Index {
        /// Array variable name.
        base: String,
        /// One index per dimension.
        indices: Vec<Expr>,
    },
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Local declaration, optionally with array dimensions and initializer.
    Decl {
        /// Declared name.
        name: String,
        /// Element type.
        ty: Type,
        /// Array dimensions; empty for scalars.
        dims: Vec<usize>,
        /// Scalar initializer.
        init: Option<Expr>,
        /// Source line (for diagnostics).
        line: usize,
    },
    /// Assignment `target = value` or compound `target op= value`.
    Assign {
        /// Destination.
        target: LValue,
        /// `Some(op)` for compound assignment.
        op: Option<BinOp>,
        /// Right-hand side.
        value: Expr,
        /// Source line.
        line: usize,
    },
    /// Bare expression (usually a call).
    Expr(Expr, usize),
    /// `if` with optional `else`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then: Vec<Stmt>,
        /// Else branch.
        other: Vec<Stmt>,
    },
    /// `while` loop.
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `for` loop.
    For {
        /// Init statement (declaration or assignment).
        init: Option<Box<Stmt>>,
        /// Condition; `None` means `1`.
        cond: Option<Expr>,
        /// Step statement.
        step: Option<Box<Stmt>>,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `return` with optional value.
    Return(Option<Expr>, usize),
    /// Braced block (scope is flat; shadowing is rejected at lowering).
    Block(Vec<Stmt>),
}

impl Stmt {
    /// A scalar declaration with an initializer.
    #[must_use]
    pub fn decl(name: impl Into<String>, ty: Type, init: Expr) -> Stmt {
        Stmt::Decl {
            name: name.into(),
            ty,
            dims: vec![],
            init: Some(init),
            line: 0,
        }
    }

    /// A plain assignment `target = value`.
    #[must_use]
    pub fn assign(target: LValue, value: Expr) -> Stmt {
        Stmt::Assign {
            target,
            op: None,
            value,
            line: 0,
        }
    }

    /// A compound assignment `target op= value`.
    #[must_use]
    pub fn assign_op(target: LValue, op: BinOp, value: Expr) -> Stmt {
        Stmt::Assign {
            target,
            op: Some(op),
            value,
            line: 0,
        }
    }

    /// `return e;`
    #[must_use]
    pub fn ret(e: Expr) -> Stmt {
        Stmt::Return(Some(e), 0)
    }

    /// The canonical counted loop `for (int iter = begin; iter < end;
    /// iter++) { body }` — the shape every idiom template builds on.
    #[must_use]
    pub fn count_for(iter: impl Into<String>, begin: Expr, end: Expr, body: Vec<Stmt>) -> Stmt {
        let iter = iter.into();
        Stmt::For {
            init: Some(Box::new(Stmt::decl(iter.clone(), Type::I32, begin))),
            cond: Some(Expr::cmp(CmpOp::Lt, Expr::var(iter.clone()), end)),
            step: Some(Box::new(Stmt::assign(
                LValue::Var(iter.clone()),
                Expr::add(Expr::var(iter), Expr::int(1)),
            ))),
            body,
        }
    }
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    /// Function name.
    pub name: String,
    /// Parameters.
    pub params: Vec<(String, Type)>,
    /// Return type.
    pub ret: Type,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source line of the definition.
    pub line: usize,
}

/// A whole translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Function definitions in source order.
    pub funcs: Vec<FuncDef>,
}
