//! IDL parser (recursive descent over the Figure-7 grammar).

use crate::ast::*;
use crate::lexer::{lex, Spanned, Tok};

/// An IDL parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IDL line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

type Result<T> = std::result::Result<T, ParseError>;

/// Parses a whole IDL library (a sequence of `Constraint ... End`
/// definitions).
pub fn parse_library(src: &str) -> Result<Library> {
    let toks = lex(src).map_err(|(line, message)| ParseError { line, message })?;
    let mut p = Parser { toks, pos: 0 };
    let mut lib = Library::default();
    while !matches!(p.peek(), Tok::Eof) {
        lib.defs.push(p.definition()?);
    }
    Ok(lib)
}

struct Parser<'a> {
    toks: Vec<Spanned<'a>>,
    pos: usize,
}

const OPCODE_WORDS: &[&str] = &[
    "store", "load", "return", "branch", "add", "sub", "mul", "sdiv", "srem", "fadd", "fsub",
    "fmul", "fdiv", "select", "gep", "icmp", "fcmp", "phi", "sext", "zext", "trunc", "sitofp",
    "fptosi", "fpext", "fptrunc", "call", "alloca",
];

impl<'a> Parser<'a> {
    fn peek(&self) -> &Tok<'a> {
        &self.toks[self.pos].tok
    }

    fn peek_at(&self, k: usize) -> &Tok<'a> {
        &self.toks[(self.pos + k).min(self.toks.len() - 1)].tok
    }

    fn line(&self) -> usize {
        self.toks[self.pos].line
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            message: msg.into(),
        }
    }

    fn bump(&mut self) -> Tok<'a> {
        let t = self.toks[self.pos].tok;
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_word(&mut self, w: &str) -> bool {
        if matches!(self.peek(), Tok::Word(x) if *x == w) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Tries to consume a sequence of words; consumes nothing on failure.
    fn eat_words(&mut self, ws: &[&str]) -> bool {
        let save = self.pos;
        for w in ws {
            if !self.eat_word(w) {
                self.pos = save;
                return false;
            }
        }
        true
    }

    fn expect_word(&mut self, w: &str) -> Result<()> {
        if self.eat_word(w) {
            Ok(())
        } else {
            Err(self.err(format!("expected {w:?}, got {:?}", self.peek())))
        }
    }

    fn word(&mut self) -> Result<String> {
        let line = self.line();
        match self.bump() {
            Tok::Word(w) => Ok(w.to_owned()),
            other => Err(ParseError {
                line,
                message: format!("expected word, got {other:?}"),
            }),
        }
    }

    fn braced(&mut self) -> Result<&'a str> {
        let line = self.line();
        match self.bump() {
            Tok::Braced(b) => Ok(b),
            other => Err(ParseError {
                line,
                message: format!("expected {{variable}}, got {other:?}"),
            }),
        }
    }

    fn var(&mut self) -> Result<VarName> {
        let line = self.line();
        let raw = self.braced()?;
        parse_varname(raw).map_err(|message| ParseError { line, message })
    }

    /// A braced variable list: `{a, b.c, d}` or a single `{family}`.
    fn varlist(&mut self) -> Result<Vec<VarName>> {
        let line = self.line();
        let raw = self.braced()?;
        raw.split(',')
            .map(|part| parse_varname(part.trim()))
            .collect::<std::result::Result<Vec<_>, _>>()
            .map_err(|message| ParseError { line, message })
    }

    fn definition(&mut self) -> Result<Definition> {
        self.expect_word("Constraint")?;
        let name = self.word()?;
        let body = self.constraint()?;
        self.expect_word("End")?;
        Ok(Definition { name, body })
    }

    fn calc(&mut self) -> Result<Calc> {
        let line = self.line();
        let mut lhs = match self.bump() {
            Tok::Num(n) => Calc::Num(n),
            Tok::Word(w) => Calc::Name(w.to_owned()),
            Tok::Minus => match self.bump() {
                Tok::Num(n) => Calc::Num(-n),
                other => {
                    return Err(ParseError {
                        line,
                        message: format!("expected number after '-', got {other:?}"),
                    })
                }
            },
            other => {
                return Err(ParseError {
                    line,
                    message: format!("expected calculation, got {other:?}"),
                })
            }
        };
        loop {
            match self.peek() {
                Tok::Plus => {
                    self.bump();
                    let rhs = self.calc_term()?;
                    lhs = Calc::Add(Box::new(lhs), Box::new(rhs));
                }
                Tok::Minus => {
                    self.bump();
                    let rhs = self.calc_term()?;
                    lhs = Calc::Sub(Box::new(lhs), Box::new(rhs));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn calc_term(&mut self) -> Result<Calc> {
        let line = self.line();
        match self.bump() {
            Tok::Num(n) => Ok(Calc::Num(n)),
            Tok::Word(w) => Ok(Calc::Name(w.to_owned())),
            other => Err(ParseError {
                line,
                message: format!("expected calculation term, got {other:?}"),
            }),
        }
    }

    /// Parses a constraint with optional postfix quantifiers/adaptations.
    fn constraint(&mut self) -> Result<Constraint> {
        let mut c = self.primary()?;
        loop {
            if matches!(self.peek(), Tok::Word("for")) {
                // `for all` / `for some` / `for <name> = <calc>`
                self.bump();
                if self.eat_word("all") {
                    let index = self.word()?;
                    self.expect_equals()?;
                    let lo = self.calc()?;
                    self.expect_dotdot()?;
                    let hi = self.calc()?;
                    c = Constraint::ForAll {
                        body: Box::new(c),
                        index,
                        lo,
                        hi,
                    };
                } else if self.eat_word("some") {
                    let index = self.word()?;
                    self.expect_equals()?;
                    let lo = self.calc()?;
                    self.expect_dotdot()?;
                    let hi = self.calc()?;
                    c = Constraint::ForSome {
                        body: Box::new(c),
                        index,
                        lo,
                        hi,
                    };
                } else {
                    let index = self.word()?;
                    self.expect_equals()?;
                    let value = self.calc()?;
                    c = Constraint::ForOne {
                        body: Box::new(c),
                        index,
                        value,
                    };
                }
            } else if matches!(self.peek(), Tok::Word("with" | "at")) {
                let adapt = self.adaptation()?;
                c = match c {
                    Constraint::Inherits {
                        name,
                        params,
                        adapt: old,
                    } if is_empty_adapt(&old) => Constraint::Inherits {
                        name,
                        params,
                        adapt,
                    },
                    other => Constraint::Adapted {
                        inner: Box::new(other),
                        adapt,
                    },
                };
            } else {
                return Ok(c);
            }
        }
    }

    fn expect_equals(&mut self) -> Result<()> {
        if matches!(self.bump(), Tok::Equals) {
            Ok(())
        } else {
            Err(self.err("expected '='"))
        }
    }

    fn expect_dotdot(&mut self) -> Result<()> {
        if matches!(self.bump(), Tok::DotDot) {
            Ok(())
        } else {
            Err(self.err("expected '..'"))
        }
    }

    fn adaptation(&mut self) -> Result<Adaptation> {
        let mut adapt = Adaptation::default();
        if self.eat_word("with") {
            loop {
                let outer = self.var()?;
                self.expect_word("as")?;
                let inner = self.var()?;
                adapt.renames.push((outer, inner));
                // `and` continues the rename list only when followed by
                // `{var} as`; otherwise it is the enclosing conjunction.
                let more = matches!(self.peek(), Tok::Word("and"))
                    && matches!(self.peek_at(1), Tok::Braced(_))
                    && matches!(self.peek_at(2), Tok::Word("as"));
                if more {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        if self.eat_word("at") {
            adapt.rebase = Some(self.var()?);
        }
        Ok(adapt)
    }

    fn primary(&mut self) -> Result<Constraint> {
        match *self.peek() {
            Tok::LParen => {
                self.bump();
                let first = self.constraint()?;
                let mut items = vec![first];
                let mut mode: Option<bool> = None; // Some(true)=and, Some(false)=or
                loop {
                    if matches!(self.peek(), Tok::RParen) {
                        self.bump();
                        break;
                    }
                    let is_and = if self.eat_word("and") {
                        true
                    } else if self.eat_word("or") {
                        false
                    } else {
                        return Err(self.err(format!(
                            "expected 'and', 'or' or ')', got {:?}",
                            self.peek()
                        )));
                    };
                    match mode {
                        None => mode = Some(is_and),
                        Some(m) if m != is_and => {
                            return Err(self.err("mixed 'and'/'or' at the same level; parenthesize"))
                        }
                        _ => {}
                    }
                    items.push(self.constraint()?);
                }
                Ok(match mode {
                    None => items.pop().expect("one item"),
                    Some(true) => Constraint::And(items),
                    Some(false) => Constraint::Or(items),
                })
            }
            Tok::Word("inherits") => {
                self.bump();
                let name = self.word()?;
                let mut params = Vec::new();
                if matches!(self.peek(), Tok::LParen) {
                    self.bump();
                    loop {
                        let pname = self.word()?;
                        self.expect_equals()?;
                        let val = self.calc()?;
                        params.push((pname, val));
                        match self.bump() {
                            Tok::Comma => continue,
                            Tok::RParen => break,
                            other => {
                                return Err(self.err(format!(
                                    "expected ',' or ')' in parameter list, got {other:?}"
                                )))
                            }
                        }
                    }
                }
                // Adaptations are handled by the postfix loop in
                // `constraint`, which folds them into the Inherits node.
                Ok(Constraint::Inherits {
                    name,
                    params,
                    adapt: Adaptation::default(),
                })
            }
            Tok::Word("if") => {
                self.bump();
                let a = self.calc()?;
                self.expect_equals()?;
                let b = self.calc()?;
                self.expect_word("then")?;
                let then = self.constraint()?;
                self.expect_word("else")?;
                let other = self.constraint()?;
                self.expect_word("endif")?;
                Ok(Constraint::If {
                    a,
                    b,
                    then: Box::new(then),
                    other: Box::new(other),
                })
            }
            Tok::Word("collect") => {
                self.bump();
                let index = self.word()?;
                let max = match self.peek() {
                    Tok::Num(n) => {
                        let n = *n;
                        self.bump();
                        usize::try_from(n).map_err(|_| self.err("bad collect bound"))?
                    }
                    _ => 16, // default family bound
                };
                let body = self.constraint()?;
                Ok(Constraint::Collect {
                    index,
                    max,
                    body: Box::new(body),
                })
            }
            Tok::Word("all") => self.all_flow_atom(),
            Tok::Braced(_) => self.var_atom(),
            other => Err(self.err(format!("unexpected token {other:?}"))),
        }
    }

    /// Atoms beginning with `all ... flow ...`.
    fn all_flow_atom(&mut self) -> Result<Constraint> {
        self.expect_word("all")?;
        let kind = if self.eat_word("control") {
            "control".to_owned()
        } else if self.eat_word("data") {
            "data".to_owned()
        } else {
            "control".to_owned() // bare `all flow` defaults to control flow
        };
        self.expect_word("flow")?;
        if self.eat_word("from") {
            let from = self.var()?;
            self.expect_word("to")?;
            let to = self.var()?;
            self.expect_word("passes")?;
            self.expect_word("through")?;
            let through = self.var()?;
            Ok(Constraint::Atom(RawAtom::AllFlowThrough {
                from,
                to,
                through,
                kind,
            }))
        } else {
            // `all flow to {sink} is killed by {killers}`
            self.expect_word("to")?;
            let sink = self.var()?;
            self.expect_word("is")?;
            self.expect_word("killed")?;
            self.expect_word("by")?;
            let killers = self.varlist()?;
            Ok(Constraint::Atom(RawAtom::KilledBy { sink, killers }))
        }
    }

    /// Atoms beginning with a `{variable}`.
    fn var_atom(&mut self) -> Result<Constraint> {
        let v = self.var()?;
        if self.eat_word("is") {
            return self.is_atom(v);
        }
        if self.eat_word("has") {
            let kind = if self.eat_words(&["data", "flow"]) {
                "data"
            } else if self.eat_words(&["control", "flow"]) {
                "control"
            } else if self.eat_words(&["dependence", "edge"]) {
                "dependence"
            } else {
                return Err(self.err("expected 'data flow', 'control flow' or 'dependence edge'"));
            };
            self.expect_word("to")?;
            let to = self.var()?;
            return Ok(Constraint::Atom(RawAtom::HasEdge {
                from: v,
                to,
                kind: kind.to_owned(),
            }));
        }
        if self.eat_word("reaches") {
            self.expect_word("phi")?;
            self.expect_word("node")?;
            let phi = self.var()?;
            self.expect_word("from")?;
            let from = self.var()?;
            return Ok(Constraint::Atom(RawAtom::ReachesPhi {
                value: v,
                phi,
                from,
            }));
        }
        // Dominance: [does not] [strictly] [control flow] [post] dominates
        let negated = self.eat_words(&["does", "not"]);
        let strict = self.eat_word("strictly");
        let _cf = self.eat_words(&["control", "flow"]);
        let post = self.eat_word("post");
        if self.eat_word("dominates") || self.eat_word("dominate") {
            let b = self.var()?;
            return Ok(Constraint::Atom(RawAtom::Dominates {
                a: v,
                b,
                strict,
                post,
                negated,
            }));
        }
        Err(self.err("expected an atomic constraint after variable"))
    }

    fn is_atom(&mut self, v: VarName) -> Result<Constraint> {
        // `is not the same as`
        if self.eat_words(&["not", "the", "same", "as"]) {
            let b = self.var()?;
            return Ok(Constraint::Atom(RawAtom::Same {
                a: v,
                b,
                negated: true,
            }));
        }
        if self.eat_words(&["the", "same", "as"]) {
            let b = self.var()?;
            return Ok(Constraint::Atom(RawAtom::Same {
                a: v,
                b,
                negated: false,
            }));
        }
        for class in ["integer", "float", "pointer"] {
            if self.eat_word(class) {
                let constant_zero = self.eat_words(&["constant", "zero"]);
                return Ok(Constraint::Atom(RawAtom::TypeIs {
                    var: v,
                    class: class.to_owned(),
                    constant_zero,
                }));
            }
        }
        if self.eat_word("unused") {
            return Ok(Constraint::Atom(RawAtom::Unused(v)));
        }
        if self.eat_word("a") {
            if self.eat_word("constant") {
                return Ok(Constraint::Atom(RawAtom::IsConstant(v)));
            }
            if self.eat_words(&["compile", "time", "value"]) {
                return Ok(Constraint::Atom(RawAtom::IsPreexecution(v)));
            }
            return Err(self.err("expected 'constant' or 'compile time value'"));
        }
        if self.eat_word("an") {
            if self.eat_word("argument") {
                return Ok(Constraint::Atom(RawAtom::IsArgument(v)));
            }
            if self.eat_word("instruction") {
                return Ok(Constraint::Atom(RawAtom::IsInstruction(v)));
            }
            return Err(self.err("expected 'argument' or 'instruction'"));
        }
        for (word, pos) in [("first", 0), ("second", 1), ("third", 2), ("fourth", 3)] {
            if self.eat_word(word) {
                self.expect_word("argument")?;
                self.expect_word("of")?;
                let parent = self.var()?;
                return Ok(Constraint::Atom(RawAtom::ArgumentOf {
                    child: v,
                    parent,
                    pos,
                }));
            }
        }
        if self.eat_word("concatenation") {
            self.expect_word("of")?;
            let in1 = self.var()?;
            self.expect_word("and")?;
            let in2 = self.var()?;
            return Ok(Constraint::Atom(RawAtom::Concat { out: v, in1, in2 }));
        }
        // `is <opcode> instruction`
        let line = self.line();
        let w = self.word()?;
        if OPCODE_WORDS.contains(&w.as_str()) {
            self.expect_word("instruction")?;
            return Ok(Constraint::Atom(RawAtom::OpcodeIs { var: v, opcode: w }));
        }
        Err(ParseError {
            line,
            message: format!("unknown atom keyword {w:?} after 'is'"),
        })
    }
}

fn is_empty_adapt(a: &Adaptation) -> bool {
    a.renames.is_empty() && a.rebase.is_none()
}

/// Parses a variable name `seg[idx].seg2...` into a [`VarName`].
pub fn parse_varname(raw: &str) -> std::result::Result<VarName, String> {
    if raw.is_empty() {
        return Err("empty variable name".into());
    }
    let mut segs = Vec::new();
    for part in raw.split('.') {
        let part = part.trim();
        let open = part.find('[');
        let (name, mut rest) = match open {
            Some(k) => (&part[..k], &part[k..]),
            None => (part, ""),
        };
        if name.is_empty() {
            return Err(format!("bad variable segment in {raw:?}"));
        }
        let mut indices = Vec::new();
        while !rest.is_empty() {
            if !rest.starts_with('[') {
                return Err(format!("bad index syntax in {raw:?}"));
            }
            let close = rest
                .find(']')
                .ok_or_else(|| format!("unterminated index in {raw:?}"))?;
            indices.push(parse_calc_str(&rest[1..close])?);
            rest = &rest[close + 1..];
        }
        segs.push(VarSeg {
            name: name.to_owned(),
            indices,
        });
    }
    Ok(VarName { segs })
}

/// Parses a calculation inside index brackets: `i`, `3`, `N-1`, `i+2`.
fn parse_calc_str(s: &str) -> std::result::Result<Calc, String> {
    let s = s.trim();
    // Find a top-level + or - (no nesting in the grammar).
    for (k, c) in s.char_indices().skip(1) {
        if c == '+' || c == '-' {
            let lhs = parse_calc_str(&s[..k])?;
            let rhs = parse_calc_str(&s[k + 1..])?;
            return Ok(if c == '+' {
                Calc::Add(Box::new(lhs), Box::new(rhs))
            } else {
                Calc::Sub(Box::new(lhs), Box::new(rhs))
            });
        }
    }
    if let Ok(n) = s.parse::<i64>() {
        return Ok(Calc::Num(n));
    }
    if s.chars().all(|c| c.is_alphanumeric() || c == '_') && !s.is_empty() {
        return Ok(Calc::Name(s.to_owned()));
    }
    Err(format!("bad calculation {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure2_factorization() {
        let src = r#"
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
"#;
        let lib = parse_library(src).unwrap();
        assert_eq!(lib.defs.len(), 1);
        let Constraint::And(items) = &lib.defs[0].body else {
            panic!("expected And")
        };
        assert_eq!(items.len(), 7);
        assert!(matches!(items[5], Constraint::Or(_)));
    }

    #[test]
    fn parses_sese_with_dominance_and_flow() {
        let src = r#"
Constraint SESE
( {precursor} is branch instruction and
  {precursor} has control flow to {begin} and
  {end} is branch instruction and
  {end} has control flow to {successor} and
  {begin} control flow dominates {end} and
  {end} control flow post dominates {begin} and
  {precursor} strictly control flow dominates {begin} and
  {successor} strictly control flow post dominates {end} and
  all control flow from {begin} to {precursor} passes through {end} and
  all control flow from {successor} to {end} passes through {begin})
End
"#;
        let lib = parse_library(src).unwrap();
        let Constraint::And(items) = &lib.defs[0].body else {
            panic!()
        };
        assert_eq!(items.len(), 10);
        assert!(matches!(
            items[5],
            Constraint::Atom(RawAtom::Dominates {
                post: true,
                strict: false,
                ..
            })
        ));
        assert!(matches!(
            items[8],
            Constraint::Atom(RawAtom::AllFlowThrough { .. })
        ));
    }

    #[test]
    fn parses_inherits_with_params_rename_rebase() {
        let src = r#"
Constraint GEMMish
( inherits ForNest(N=3) and
  inherits MatrixRead
    with {iterator[0]} as {col}
    and {iterator[2]} as {row}
    and {begin} as {begin} at {input1})
End
"#;
        let lib = parse_library(src).unwrap();
        let Constraint::And(items) = &lib.defs[0].body else {
            panic!()
        };
        let Constraint::Inherits { name, params, .. } = &items[0] else {
            panic!()
        };
        assert_eq!(name, "ForNest");
        assert_eq!(params[0].0, "N");
        let Constraint::Inherits { name, adapt, .. } = &items[1] else {
            panic!()
        };
        assert_eq!(name, "MatrixRead");
        assert_eq!(adapt.renames.len(), 3);
        assert_eq!(adapt.rebase.as_ref().unwrap().segs[0].name, "input1");
    }

    #[test]
    fn parses_forall_and_collect() {
        let src = r#"
Constraint Nest
( ( {loop[i+1].precursor} is branch instruction ) for all i = 0 .. N-2 and
  collect j 8 ( {read[j].value} is load instruction ))
End
"#;
        let lib = parse_library(src).unwrap();
        let Constraint::And(items) = &lib.defs[0].body else {
            panic!()
        };
        assert!(matches!(items[0], Constraint::ForAll { .. }));
        let Constraint::Collect { index, max, .. } = &items[1] else {
            panic!()
        };
        assert_eq!(index, "j");
        assert_eq!(*max, 8);
    }

    #[test]
    fn parses_killed_by_and_concat() {
        let src = r#"
Constraint K
( all flow to {out} is killed by {kernel.input} and
  {kernel.input} is concatenation of {reads} and {old} )
End
"#;
        let lib = parse_library(src).unwrap();
        let Constraint::And(items) = &lib.defs[0].body else {
            panic!()
        };
        assert!(matches!(
            items[0],
            Constraint::Atom(RawAtom::KilledBy { .. })
        ));
        assert!(matches!(items[1], Constraint::Atom(RawAtom::Concat { .. })));
    }

    #[test]
    fn rejects_mixed_and_or() {
        let src = "Constraint X ( {a} is add instruction and {b} is mul instruction or {c} is unused ) End";
        let err = parse_library(src).unwrap_err();
        assert!(err.message.contains("mixed"));
    }

    #[test]
    fn parses_varname_shapes() {
        let v = parse_varname("loop[N-1].iterator").unwrap();
        assert_eq!(v.segs.len(), 2);
        assert_eq!(v.segs[0].indices.len(), 1);
        assert!(parse_varname("").is_err());
        assert!(parse_varname("a[").is_err());
    }

    #[test]
    fn parses_if_and_forone() {
        let src = r#"
Constraint C
( if N = 1 then {a} is unused else {a} is an instruction endif and
  ( {x[k]} is load instruction ) for k = N-1 )
End
"#;
        let lib = parse_library(src).unwrap();
        let Constraint::And(items) = &lib.defs[0].body else {
            panic!()
        };
        assert!(matches!(items[0], Constraint::If { .. }));
        assert!(matches!(items[1], Constraint::ForOne { .. }));
    }
}
