//! IDL abstract syntax (pre-expansion).

use std::collections::HashMap;
use std::fmt::{self, Write as _};

/// A compile-time calculation: identifiers (template parameters or
/// quantifier indices) combined with `+`/`-` and integer literals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Calc {
    /// Integer literal.
    Num(i64),
    /// Parameter or index reference.
    Name(String),
    /// Addition.
    Add(Box<Calc>, Box<Calc>),
    /// Subtraction.
    Sub(Box<Calc>, Box<Calc>),
}

impl Calc {
    /// Evaluates under `env`; unknown names are an error.
    pub fn eval(&self, env: &HashMap<String, i64>) -> Result<i64, String> {
        match self {
            Calc::Num(n) => Ok(*n),
            Calc::Name(s) => env
                .get(s)
                .copied()
                .ok_or_else(|| format!("unbound calculation name {s:?}")),
            Calc::Add(a, b) => Ok(a.eval(env)? + b.eval(env)?),
            Calc::Sub(a, b) => Ok(a.eval(env)? - b.eval(env)?),
        }
    }
}

/// One segment of a hierarchical variable name: `name` optionally followed
/// by index brackets, e.g. `loop[N-1]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarSeg {
    /// Segment identifier.
    pub name: String,
    /// Bracketed index calculations.
    pub indices: Vec<Calc>,
}

/// A hierarchical variable name, e.g. `{inner.iter_begin}` or
/// `{read[i].value}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarName {
    /// The dot-separated segments.
    pub segs: Vec<VarSeg>,
}

impl VarName {
    /// A single-segment unindexed name.
    #[must_use]
    pub fn simple(name: &str) -> VarName {
        VarName {
            segs: vec![VarSeg {
                name: name.to_owned(),
                indices: Vec::new(),
            }],
        }
    }

    /// Flattens under `env`, evaluating all index calculations:
    /// `read[i].value` with `i = 2` becomes `"read[2].value"`.
    pub fn flatten(&self, env: &HashMap<String, i64>) -> Result<String, String> {
        let mut out = String::new();
        for (k, seg) in self.segs.iter().enumerate() {
            if k > 0 {
                out.push('.');
            }
            out.push_str(&seg.name);
            for idx in &seg.indices {
                write!(out, "[{}]", idx.eval(env)?).expect("writing to a String cannot fail");
            }
        }
        Ok(out)
    }
}

impl fmt::Display for VarName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, seg) in self.segs.iter().enumerate() {
            if k > 0 {
                write!(f, ".")?;
            }
            write!(f, "{}", seg.name)?;
            for idx in &seg.indices {
                write!(f, "[{idx:?}]")?;
            }
        }
        Ok(())
    }
}

/// Raw (surface-syntax) atomic constraints; variables are unflattened.
#[derive(Debug, Clone, PartialEq)]
pub enum RawAtom {
    /// `{v} is integer/float/pointer [constant zero]`.
    TypeIs {
        /// Variable under test.
        var: VarName,
        /// `integer`, `float` or `pointer`.
        class: String,
        /// With the `constant zero` suffix.
        constant_zero: bool,
    },
    /// `{v} is unused`.
    Unused(VarName),
    /// `{v} is a constant`.
    IsConstant(VarName),
    /// `{v} is a compile time value` (constant or argument).
    IsPreexecution(VarName),
    /// `{v} is an argument`.
    IsArgument(VarName),
    /// `{v} is an instruction`.
    IsInstruction(VarName),
    /// `{v} is <opcode> instruction`.
    OpcodeIs {
        /// Variable under test.
        var: VarName,
        /// Opcode mnemonic (surface spelling, e.g. `branch`, `return`).
        opcode: String,
    },
    /// `{a} is [not] the same as {b}`.
    Same {
        /// Left side.
        a: VarName,
        /// Right side.
        b: VarName,
        /// `true` for the `not` form.
        negated: bool,
    },
    /// `{a} has data flow / control flow / dependence edge to {b}`.
    HasEdge {
        /// Edge source.
        from: VarName,
        /// Edge target.
        to: VarName,
        /// `data flow`, `control flow` or `dependence edge`.
        kind: String,
    },
    /// `{a} is first/second/third/fourth argument of {b}`.
    ArgumentOf {
        /// The operand.
        child: VarName,
        /// The instruction.
        parent: VarName,
        /// Zero-based operand position.
        pos: usize,
    },
    /// `{value} reaches phi node {phi} from {branch}`.
    ReachesPhi {
        /// Incoming value.
        value: VarName,
        /// The phi.
        phi: VarName,
        /// The branch terminating the incoming block.
        from: VarName,
    },
    /// `{a} [does not] [strictly] [control flow] [post] dominates {b}`.
    Dominates {
        /// The dominator candidate.
        a: VarName,
        /// The dominated candidate.
        b: VarName,
        /// `strictly` given.
        strict: bool,
        /// `post` given.
        post: bool,
        /// `does not` given.
        negated: bool,
    },
    /// `all control/data flow from {a} to {b} passes through {c}`.
    AllFlowThrough {
        /// Path source.
        from: VarName,
        /// Path target.
        to: VarName,
        /// Mandatory waypoint.
        through: VarName,
        /// `control` or `data`.
        kind: String,
    },
    /// `all flow to {sink} is killed by {killers}` — kernel purity.
    KilledBy {
        /// The kernel output value.
        sink: VarName,
        /// Families and/or scalars terminating the backward slice.
        killers: Vec<VarName>,
    },
    /// `{out} is concatenation of {in1} and {in2}` — family binding.
    Concat {
        /// Output family.
        out: VarName,
        /// First input family.
        in1: VarName,
        /// Second input family (or scalar, treated as 1-element family).
        in2: VarName,
    },
}

/// A rename/rebase suffix: `with {outer} as {inner} ... [at {prefix}]`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Adaptation {
    /// Pairs (outer name, inner name): occurrences of the inner name in the
    /// adapted constraint are replaced with the outer name.
    pub renames: Vec<(VarName, VarName)>,
    /// Rebase prefix for all unmapped variables (the `at {p}` clause).
    pub rebase: Option<VarName>,
}

/// Constraint syntax tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Constraint {
    /// Atomic constraint.
    Atom(RawAtom),
    /// `( c and c and ... )`.
    And(Vec<Constraint>),
    /// `( c or c or ... )`.
    Or(Vec<Constraint>),
    /// `inherits Name(P=calc, ...) [with ... as ...] [at ...]`.
    Inherits {
        /// Inherited definition name.
        name: String,
        /// Template-parameter bindings.
        params: Vec<(String, Calc)>,
        /// Rename/rebase clause.
        adapt: Adaptation,
    },
    /// Parenthesized group with an adaptation suffix.
    Adapted {
        /// Underlying constraint.
        inner: Box<Constraint>,
        /// Rename/rebase clause.
        adapt: Adaptation,
    },
    /// `c for all i = a .. b` (conjunction over the range).
    ForAll {
        /// Quantified constraint.
        body: Box<Constraint>,
        /// Index name.
        index: String,
        /// Inclusive lower bound.
        lo: Calc,
        /// Inclusive upper bound.
        hi: Calc,
    },
    /// `c for some i = a .. b` (disjunction over the range).
    ForSome {
        /// Quantified constraint.
        body: Box<Constraint>,
        /// Index name.
        index: String,
        /// Inclusive lower bound.
        lo: Calc,
        /// Inclusive upper bound.
        hi: Calc,
    },
    /// `c for i = calc` (binds one index value).
    ForOne {
        /// Constraint with the binding in scope.
        body: Box<Constraint>,
        /// Index name.
        index: String,
        /// Bound value.
        value: Calc,
    },
    /// `if a = b then c else d endif`, resolved at expansion time.
    If {
        /// Left calculation.
        a: Calc,
        /// Right calculation.
        b: Calc,
        /// Constraint when equal.
        then: Box<Constraint>,
        /// Constraint when different.
        other: Box<Constraint>,
    },
    /// `collect i N ( c )` — bind all solutions of `c` as families
    /// indexed by `i`.
    Collect {
        /// Index name substituted per solution.
        index: String,
        /// Maximum number of collected solutions.
        max: usize,
        /// The collected constraint.
        body: Box<Constraint>,
    },
}

/// A named `Constraint ... End` definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Definition {
    /// Definition name.
    pub name: String,
    /// Body constraint.
    pub body: Constraint,
}

/// A parsed IDL program: an ordered set of definitions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Library {
    /// Definitions in source order.
    pub defs: Vec<Definition>,
}

impl Library {
    /// Looks up a definition by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Definition> {
        self.defs.iter().find(|d| d.name == name)
    }

    /// Merges another library into this one (later definitions of the same
    /// name shadow earlier ones at lookup through `get`... definitions are
    /// appended; `get` returns the first match, so earlier wins).
    pub fn extend(&mut self, other: Library) {
        self.defs.extend(other.defs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calc_eval() {
        let mut env = HashMap::new();
        env.insert("N".to_owned(), 3);
        let c = Calc::Sub(Box::new(Calc::Name("N".into())), Box::new(Calc::Num(1)));
        assert_eq!(c.eval(&env).unwrap(), 2);
        assert!(Calc::Name("M".into()).eval(&env).is_err());
    }

    #[test]
    fn varname_flatten() {
        let mut env = HashMap::new();
        env.insert("i".to_owned(), 2);
        let v = VarName {
            segs: vec![
                VarSeg {
                    name: "read".into(),
                    indices: vec![Calc::Name("i".into())],
                },
                VarSeg {
                    name: "value".into(),
                    indices: vec![],
                },
            ],
        };
        assert_eq!(v.flatten(&env).unwrap(), "read[2].value");
        assert_eq!(VarName::simple("begin").flatten(&env).unwrap(), "begin");
    }
}
