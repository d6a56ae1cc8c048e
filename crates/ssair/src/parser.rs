//! Parser for the LLVM-flavoured textual IR produced by [`crate::printer`].
//!
//! The parser is two-pass per function: the first pass creates blocks and
//! result values (so that phis may reference values and blocks defined
//! later), the second pass resolves operands. It accepts exactly the
//! printer's output language, which keeps the grammar small while letting
//! tests, examples and documentation express IR as text.
//!
//! This is the text front door for tests, examples and tools; no pipeline
//! stage calls it. The stages build IR with the [`Function`] builder
//! methods (`add_block`, `append_*`, `const_int`, `set_name`).

use crate::function::{BlockId, FCmpPred, Function, ICmpPred, Instr, Opcode, ValueId};
use crate::module::Module;
use crate::types::Type;
use std::collections::HashMap;
use std::fmt;

/// A parse failure with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Line of the offending text.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

type Result<T> = std::result::Result<T, ParseError>;

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Word(String),   // mnemonics, types, literals
    Local(String),  // %name
    Global(String), // @name
    Comma,
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Equals,
    Colon,
}

fn lex_line(line: &str, lineno: usize) -> Result<Vec<Tok>> {
    let mut toks = Vec::new();
    let bytes: Vec<char> = line.chars().collect();
    let mut i = 0;
    let word_char =
        |c: char| c.is_alphanumeric() || matches!(c, '_' | '.' | '*' | '-' | '+' | 'e' | 'E');
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            ' ' | '\t' => i += 1,
            ';' => break, // comment to end of line
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            '[' => {
                toks.push(Tok::LBracket);
                i += 1;
            }
            ']' => {
                toks.push(Tok::RBracket);
                i += 1;
            }
            '{' => {
                toks.push(Tok::LBrace);
                i += 1;
            }
            '}' => {
                toks.push(Tok::RBrace);
                i += 1;
            }
            '=' => {
                toks.push(Tok::Equals);
                i += 1;
            }
            ':' => {
                toks.push(Tok::Colon);
                i += 1;
            }
            '%' | '@' => {
                let sigil = c;
                i += 1;
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_alphanumeric() || matches!(bytes[i], '_' | '.'))
                {
                    i += 1;
                }
                let name: String = bytes[start..i].iter().collect();
                if name.is_empty() {
                    return Err(ParseError {
                        line: lineno,
                        message: format!("empty name after '{sigil}'"),
                    });
                }
                toks.push(if sigil == '%' {
                    Tok::Local(name)
                } else {
                    Tok::Global(name)
                });
            }
            _ if word_char(c) => {
                let start = i;
                while i < bytes.len() && word_char(bytes[i]) {
                    i += 1;
                }
                toks.push(Tok::Word(bytes[start..i].iter().collect()));
            }
            _ => {
                return Err(ParseError {
                    line: lineno,
                    message: format!("unexpected character {c:?}"),
                })
            }
        }
    }
    Ok(toks)
}

struct Cursor<'a> {
    toks: &'a [Tok],
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn new(toks: &'a [Tok], line: usize) -> Cursor<'a> {
        Cursor { toks, pos: 0, line }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            message: msg.into(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Result<Tok> {
        let t = self.toks.get(self.pos).cloned().ok_or(ParseError {
            line: self.line,
            message: "unexpected end of line".into(),
        })?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, t: &Tok) -> Result<()> {
        let got = self.next()?;
        if got == *t {
            Ok(())
        } else {
            Err(ParseError {
                line: self.line,
                message: format!("expected {t:?}, got {got:?}"),
            })
        }
    }

    fn word(&mut self) -> Result<String> {
        match self.next()? {
            Tok::Word(w) => Ok(w),
            other => Err(ParseError {
                line: self.line,
                message: format!("expected word, got {other:?}"),
            }),
        }
    }

    fn local(&mut self) -> Result<String> {
        match self.next()? {
            Tok::Local(w) => Ok(w),
            other => Err(ParseError {
                line: self.line,
                message: format!("expected %name, got {other:?}"),
            }),
        }
    }

    fn ty(&mut self) -> Result<Type> {
        let w = self.word()?;
        parse_type(&w).map_err(|m| self.err(m))
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }
}

/// The deepest pointer type word the parser accepts: one level short of
/// what a [`Type`] holds, because `alloca` and `getelementptr` type their
/// result one level deeper than their type word.
const MAX_WORD_DEPTH: usize = Type::MAX_DEPTH - 1;

/// Parses a type word like `i32`, `double`, `float**`.
///
/// # Errors
/// An unknown base type, or more `*`s than a type word may hold (254).
pub fn parse_type(word: &str) -> std::result::Result<Type, String> {
    let stars = word.bytes().rev().take_while(|&c| c == b'*').count();
    let mut ty = match &word[..word.len() - stars] {
        "i1" => Type::I1,
        "i32" => Type::I32,
        "i64" => Type::I64,
        "float" => Type::F32,
        "double" => Type::F64,
        "void" => Type::Void,
        _ => return Err(format!("unknown type {word:?}")),
    };
    if stars > MAX_WORD_DEPTH {
        return Err(format!("pointer type deeper than {MAX_WORD_DEPTH} levels"));
    }
    for _ in 0..stars {
        ty = ty.ptr_to();
    }
    Ok(ty)
}

fn parse_icmp_pred(w: &str) -> Option<ICmpPred> {
    Some(match w {
        "eq" => ICmpPred::Eq,
        "ne" => ICmpPred::Ne,
        "slt" => ICmpPred::Slt,
        "sle" => ICmpPred::Sle,
        "sgt" => ICmpPred::Sgt,
        "sge" => ICmpPred::Sge,
        _ => return None,
    })
}

fn parse_fcmp_pred(w: &str) -> Option<FCmpPred> {
    Some(match w {
        "oeq" => FCmpPred::Oeq,
        "one" => FCmpPred::One,
        "olt" => FCmpPred::Olt,
        "ole" => FCmpPred::Ole,
        "ogt" => FCmpPred::Ogt,
        "oge" => FCmpPred::Oge,
        _ => return None,
    })
}

/// A pending instruction recorded in pass one.
struct Pending {
    toks: Vec<Tok>,
    lineno: usize,
    block: BlockId,
    value: ValueId,
}

/// Parses one module from text. Functions may appear in any order. The
/// module is named by the printer's `; module NAME` header when a comment
/// line of that form comes before the first function, else `"parsed"`.
pub fn parse_module(text: &str) -> Result<Module> {
    let mut m = Module::new("parsed");
    let lines: Vec<&str> = text.lines().collect();
    let mut i = 0;
    while i < lines.len() {
        let trimmed = lines[i].trim();
        if trimmed.is_empty() || trimmed.starts_with(';') {
            if let Some(name) = trimmed.strip_prefix("; module ") {
                if m.functions.is_empty() {
                    m.name = name.to_owned();
                }
            }
            i += 1;
            continue;
        }
        if trimmed.starts_with("define") {
            let (f, consumed) = parse_function(&lines, i)?;
            m.add_function(f);
            i = consumed;
        } else {
            return Err(ParseError {
                line: i + 1,
                message: format!("expected 'define', got {trimmed:?}"),
            });
        }
    }
    Ok(m)
}

/// Parses one function from text containing exactly one definition.
pub fn parse_function_text(text: &str) -> Result<Function> {
    let m = parse_module(text)?;
    m.functions.into_iter().next().ok_or(ParseError {
        line: 1,
        message: "no function definition found".into(),
    })
}

fn parse_function(lines: &[&str], start: usize) -> Result<(Function, usize)> {
    // Header: define <ty> @name(<ty> %p, ...) {
    let header_toks = lex_line(lines[start], start + 1)?;
    let mut cur = Cursor::new(&header_toks, start + 1);
    let kw = cur.word()?;
    if kw != "define" {
        return Err(cur.err("expected 'define'"));
    }
    let ret_ty = cur.ty()?;
    let fname = match cur.next()? {
        Tok::Global(n) => n,
        other => {
            return Err(ParseError {
                line: start + 1,
                message: format!("expected @name, got {other:?}"),
            })
        }
    };
    cur.expect(&Tok::LParen)?;
    let mut params: Vec<(String, Type)> = Vec::new();
    loop {
        match cur.peek() {
            Some(Tok::RParen) => {
                cur.next()?;
                break;
            }
            Some(Tok::Comma) => {
                cur.next()?;
            }
            _ => {
                let pty = cur.ty()?;
                let pname = cur.local()?;
                params.push((pname, pty));
            }
        }
    }
    cur.expect(&Tok::LBrace)?;

    let mut f = Function::new(fname, &params, ret_ty);
    let mut names: HashMap<String, ValueId> = HashMap::new();
    for (&vid, (pname, _)) in f.params.iter().zip(&params) {
        names.insert(pname.clone(), vid);
    }
    let mut blocks: HashMap<String, BlockId> = HashMap::new();
    let mut pending: Vec<Pending> = Vec::new();
    let mut cur_block: Option<BlockId> = None;
    let mut first_label = true;

    // Pass one: create blocks and value shells.
    let mut i = start + 1;
    loop {
        if i >= lines.len() {
            return Err(ParseError {
                line: lines.len(),
                message: "unterminated function".into(),
            });
        }
        let lineno = i + 1;
        let trimmed = lines[i].trim();
        i += 1;
        if trimmed.is_empty() || trimmed.starts_with(';') {
            continue;
        }
        if trimmed == "}" {
            break;
        }
        let toks = lex_line(trimmed, lineno)?;
        if toks.len() == 2 && matches!(toks[1], Tok::Colon) {
            // Block label.
            let label = match &toks[0] {
                Tok::Word(w) => w.clone(),
                other => {
                    return Err(ParseError {
                        line: lineno,
                        message: format!("bad label {other:?}"),
                    })
                }
            };
            let bid = if first_label {
                first_label = false;
                f.block_mut(BlockId(0)).name = Some(label.clone());
                BlockId(0)
            } else {
                f.add_block(label.clone())
            };
            if blocks.insert(label.clone(), bid).is_some() {
                return Err(ParseError {
                    line: lineno,
                    message: format!("duplicate label {label}"),
                });
            }
            cur_block = Some(bid);
            continue;
        }
        let block = cur_block.ok_or(ParseError {
            line: lineno,
            message: "instruction before first block label".into(),
        })?;
        // Determine result name (if "%x =") and result type syntactically.
        let (result_name, body_start) = match (toks.first(), toks.get(1)) {
            (Some(Tok::Local(n)), Some(Tok::Equals)) => (Some(n.clone()), 2),
            _ => (None, 0),
        };
        let ty = peek_result_type(&toks[body_start..], lineno)?;
        let value = f.append(
            block,
            ty,
            Instr {
                opcode: Opcode::Ret, // placeholder, fixed in pass two
                operands: Vec::new(),
                incoming: Vec::new(),
                targets: Vec::new(),
                callee: None,
            },
        );
        if let Some(n) = result_name {
            f.set_name(value, n.clone());
            if names.insert(n.clone(), value).is_some() {
                return Err(ParseError {
                    line: lineno,
                    message: format!("redefinition of %{n}"),
                });
            }
        }
        pending.push(Pending {
            toks: toks[body_start..].to_vec(),
            lineno,
            block,
            value,
        });
    }

    // Pass two: fill in opcodes and operands.
    for p in &pending {
        let instr = parse_instr_body(&mut f, &names, &blocks, &p.toks, p.lineno)?;
        let _ = p.block; // block membership was fixed in pass one
        match &mut f.value_mut(p.value).kind {
            crate::function::ValueKind::Instr(slot) => *slot = instr,
            _ => unreachable!("pending values are instructions"),
        }
    }
    Ok((f, i))
}

/// Determines an instruction's result type from its body tokens without
/// resolving operands.
fn peek_result_type(toks: &[Tok], lineno: usize) -> Result<Type> {
    let err = |m: &str| ParseError {
        line: lineno,
        message: m.into(),
    };
    let word = |k: usize| match toks.get(k) {
        Some(Tok::Word(w)) => Some(w.as_str()),
        _ => None,
    };
    let w0 = word(0).ok_or_else(|| err("expected mnemonic"))?;
    let ty_at = |k: usize| -> Result<Type> {
        let w = word(k).ok_or_else(|| err("expected type"))?;
        parse_type(w).map_err(|m| err(&m))
    };
    match w0 {
        "add" | "sub" | "mul" | "sdiv" | "srem" | "and" | "or" | "xor" | "shl" | "ashr"
        | "fadd" | "fsub" | "fmul" | "fdiv" | "load" | "phi" => ty_at(1),
        "icmp" | "fcmp" => Ok(Type::I1),
        "select" => ty_at(3).or_else(|_| {
            // select i1 %c, <ty> ... — type token is at index 3 unless the
            // condition is a literal; scan for the first type word after the
            // first comma instead.
            let comma = toks
                .iter()
                .position(|t| *t == Tok::Comma)
                .ok_or_else(|| err("malformed select"))?;
            match toks.get(comma + 1) {
                Some(Tok::Word(w)) => parse_type(w).map_err(|m| err(&m)),
                _ => Err(err("malformed select")),
            }
        }),
        "getelementptr" => Ok(ty_at(1)?.ptr_to()),
        "store" | "br" | "ret" => Ok(Type::Void),
        "call" => ty_at(1),
        "alloca" => Ok(ty_at(1)?.ptr_to()),
        "sext" | "zext" | "trunc" | "sitofp" | "fptosi" | "fpext" | "fptrunc" => {
            // ... <ty> <op> to <ty>
            let to = toks
                .iter()
                .rposition(|t| matches!(t, Tok::Word(w) if w == "to"))
                .ok_or_else(|| err("cast without 'to'"))?;
            ty_at(to + 1)
        }
        other => Err(err(&format!("unknown mnemonic {other:?}"))),
    }
}

/// Resolves an operand token (local name or literal) of the given type.
fn resolve_operand(
    f: &mut Function,
    names: &HashMap<String, ValueId>,
    tok: &Tok,
    ty: Type,
    lineno: usize,
) -> Result<ValueId> {
    match tok {
        Tok::Local(n) => names.get(n).copied().ok_or(ParseError {
            line: lineno,
            message: format!("use of undefined value %{n}"),
        }),
        Tok::Word(w) => {
            if ty.is_float() {
                let v: f64 = match w.as_str() {
                    "inf" => f64::INFINITY,
                    "-inf" => f64::NEG_INFINITY,
                    "nan" => f64::NAN,
                    lit => lit.parse().map_err(|_| ParseError {
                        line: lineno,
                        message: format!("bad float literal {lit:?}"),
                    })?,
                };
                Ok(f.const_float(ty, v))
            } else {
                let v: i64 = w.parse().map_err(|_| ParseError {
                    line: lineno,
                    message: format!("bad integer literal {w:?}"),
                })?;
                Ok(f.const_int(ty, v))
            }
        }
        other => Err(ParseError {
            line: lineno,
            message: format!("bad operand {other:?}"),
        }),
    }
}

fn parse_instr_body(
    f: &mut Function,
    names: &HashMap<String, ValueId>,
    blocks: &HashMap<String, BlockId>,
    toks: &[Tok],
    lineno: usize,
) -> Result<Instr> {
    let mut cur = Cursor::new(toks, lineno);
    let mn = cur.word()?;
    let simple = |opcode: Opcode, operands: Vec<ValueId>| Instr {
        opcode,
        operands,
        incoming: Vec::new(),
        targets: Vec::new(),
        callee: None,
    };
    let block_ref = |cur: &mut Cursor, blocks: &HashMap<String, BlockId>| -> Result<BlockId> {
        let w = cur.word()?;
        if w != "label" {
            return Err(cur.err("expected 'label'"));
        }
        let name = cur.local()?;
        blocks.get(&name).copied().ok_or(ParseError {
            line: lineno,
            message: format!("unknown label %{name}"),
        })
    };
    match mn.as_str() {
        "add" | "sub" | "mul" | "sdiv" | "srem" | "and" | "or" | "xor" | "shl" | "ashr"
        | "fadd" | "fsub" | "fmul" | "fdiv" => {
            let opcode = match mn.as_str() {
                "add" => Opcode::Add,
                "sub" => Opcode::Sub,
                "mul" => Opcode::Mul,
                "sdiv" => Opcode::SDiv,
                "srem" => Opcode::SRem,
                "and" => Opcode::And,
                "or" => Opcode::Or,
                "xor" => Opcode::Xor,
                "shl" => Opcode::Shl,
                "ashr" => Opcode::AShr,
                "fadd" => Opcode::FAdd,
                "fsub" => Opcode::FSub,
                "fmul" => Opcode::FMul,
                _ => Opcode::FDiv,
            };
            let ty = cur.ty()?;
            let a = cur.next()?;
            cur.expect(&Tok::Comma)?;
            let b = cur.next()?;
            let a = resolve_operand(f, names, &a, ty, lineno)?;
            let b = resolve_operand(f, names, &b, ty, lineno)?;
            Ok(simple(opcode, vec![a, b]))
        }
        "icmp" => {
            let p = parse_icmp_pred(&cur.word()?).ok_or_else(|| cur.err("bad icmp predicate"))?;
            let ty = cur.ty()?;
            let a = cur.next()?;
            cur.expect(&Tok::Comma)?;
            let b = cur.next()?;
            let a = resolve_operand(f, names, &a, ty, lineno)?;
            let b = resolve_operand(f, names, &b, ty, lineno)?;
            Ok(simple(Opcode::ICmp(p), vec![a, b]))
        }
        "fcmp" => {
            let p = parse_fcmp_pred(&cur.word()?).ok_or_else(|| cur.err("bad fcmp predicate"))?;
            let ty = cur.ty()?;
            let a = cur.next()?;
            cur.expect(&Tok::Comma)?;
            let b = cur.next()?;
            let a = resolve_operand(f, names, &a, ty, lineno)?;
            let b = resolve_operand(f, names, &b, ty, lineno)?;
            Ok(simple(Opcode::FCmp(p), vec![a, b]))
        }
        "select" => {
            let cty = cur.ty()?; // i1
            let c = cur.next()?;
            cur.expect(&Tok::Comma)?;
            let ty = cur.ty()?;
            let a = cur.next()?;
            cur.expect(&Tok::Comma)?;
            let b = cur.next()?;
            let c = resolve_operand(f, names, &c, cty, lineno)?;
            let a = resolve_operand(f, names, &a, ty, lineno)?;
            let b = resolve_operand(f, names, &b, ty, lineno)?;
            Ok(simple(Opcode::Select, vec![c, a, b]))
        }
        "getelementptr" => {
            let _ety = cur.ty()?;
            cur.expect(&Tok::Comma)?;
            let pty = cur.ty()?;
            let base = cur.next()?;
            cur.expect(&Tok::Comma)?;
            let ity = cur.ty()?;
            let idx = cur.next()?;
            let base = resolve_operand(f, names, &base, pty, lineno)?;
            let idx = resolve_operand(f, names, &idx, ity, lineno)?;
            Ok(simple(Opcode::Gep, vec![base, idx]))
        }
        "load" => {
            let _ty = cur.ty()?;
            cur.expect(&Tok::Comma)?;
            let pty = cur.ty()?;
            let p = cur.next()?;
            let p = resolve_operand(f, names, &p, pty, lineno)?;
            Ok(simple(Opcode::Load, vec![p]))
        }
        "store" => {
            let vty = cur.ty()?;
            let v = cur.next()?;
            cur.expect(&Tok::Comma)?;
            let pty = cur.ty()?;
            let p = cur.next()?;
            let v = resolve_operand(f, names, &v, vty, lineno)?;
            let p = resolve_operand(f, names, &p, pty, lineno)?;
            Ok(simple(Opcode::Store, vec![v, p]))
        }
        "phi" => {
            let ty = cur.ty()?;
            let mut operands = Vec::new();
            let mut incoming = Vec::new();
            loop {
                cur.expect(&Tok::LBracket)?;
                let v = cur.next()?;
                cur.expect(&Tok::Comma)?;
                let label = cur.local()?;
                cur.expect(&Tok::RBracket)?;
                operands.push(resolve_operand(f, names, &v, ty, lineno)?);
                incoming.push(*blocks.get(&label).ok_or(ParseError {
                    line: lineno,
                    message: format!("unknown label %{label}"),
                })?);
                if cur.at_end() {
                    break;
                }
                cur.expect(&Tok::Comma)?;
            }
            Ok(Instr {
                opcode: Opcode::Phi,
                operands,
                incoming,
                targets: Vec::new(),
                callee: None,
            })
        }
        "br" => match cur.peek() {
            Some(Tok::Word(w)) if w == "label" => {
                let t = block_ref(&mut cur, blocks)?;
                Ok(Instr {
                    opcode: Opcode::Br,
                    operands: Vec::new(),
                    incoming: Vec::new(),
                    targets: vec![t],
                    callee: None,
                })
            }
            _ => {
                let cty = cur.ty()?;
                let c = cur.next()?;
                cur.expect(&Tok::Comma)?;
                let t = block_ref(&mut cur, blocks)?;
                cur.expect(&Tok::Comma)?;
                let e = block_ref(&mut cur, blocks)?;
                let c = resolve_operand(f, names, &c, cty, lineno)?;
                Ok(Instr {
                    opcode: Opcode::CondBr,
                    operands: vec![c],
                    incoming: Vec::new(),
                    targets: vec![t, e],
                    callee: None,
                })
            }
        },
        "ret" => {
            if let Some(Tok::Word(w)) = cur.peek() {
                if w == "void" {
                    return Ok(simple(Opcode::Ret, Vec::new()));
                }
            }
            let ty = cur.ty()?;
            let v = cur.next()?;
            let v = resolve_operand(f, names, &v, ty, lineno)?;
            Ok(simple(Opcode::Ret, vec![v]))
        }
        "call" => {
            let _ty = cur.ty()?;
            let callee = match cur.next()? {
                Tok::Global(g) => g,
                other => {
                    return Err(ParseError {
                        line: lineno,
                        message: format!("expected @callee, got {other:?}"),
                    })
                }
            };
            cur.expect(&Tok::LParen)?;
            let mut args = Vec::new();
            loop {
                match cur.peek() {
                    Some(Tok::RParen) => {
                        cur.next()?;
                        break;
                    }
                    Some(Tok::Comma) => {
                        cur.next()?;
                    }
                    _ => {
                        let aty = cur.ty()?;
                        let a = cur.next()?;
                        args.push(resolve_operand(f, names, &a, aty, lineno)?);
                    }
                }
            }
            Ok(Instr {
                opcode: Opcode::Call,
                operands: args,
                incoming: Vec::new(),
                targets: Vec::new(),
                callee: Some(callee),
            })
        }
        "alloca" => {
            let _ety = cur.ty()?;
            cur.expect(&Tok::Comma)?;
            let cty = cur.ty()?;
            let c = cur.next()?;
            let c = resolve_operand(f, names, &c, cty, lineno)?;
            Ok(simple(Opcode::Alloca, vec![c]))
        }
        "sext" | "zext" | "trunc" | "sitofp" | "fptosi" | "fpext" | "fptrunc" => {
            let opcode = match mn.as_str() {
                "sext" => Opcode::SExt,
                "zext" => Opcode::ZExt,
                "trunc" => Opcode::Trunc,
                "sitofp" => Opcode::SIToFP,
                "fptosi" => Opcode::FPToSI,
                "fpext" => Opcode::FPExt,
                _ => Opcode::FPTrunc,
            };
            let ty = cur.ty()?;
            let v = cur.next()?;
            let v = resolve_operand(f, names, &v, ty, lineno)?;
            let to = cur.word()?;
            if to != "to" {
                return Err(cur.err("expected 'to'"));
            }
            let _target = cur.ty()?;
            Ok(simple(opcode, vec![v]))
        }
        other => Err(ParseError {
            line: lineno,
            message: format!("unknown mnemonic {other:?}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_function;

    const EXAMPLE: &str = r#"
define i32 @example(i32 %a, i32 %b, i32 %c) {
entry:
  %1 = mul i32 %a, %b
  %2 = mul i32 %c, %a
  %3 = add i32 %1, %2
  ret i32 %3
}
"#;

    #[test]
    fn parses_the_paper_example() {
        let f = parse_function_text(EXAMPLE).unwrap();
        assert_eq!(f.name, "example");
        assert_eq!(f.params.len(), 3);
        let entry = BlockId(0);
        assert_eq!(f.block(entry).instrs.len(), 4);
        assert_eq!(f.opcode(f.block(entry).instrs[2]), Some(Opcode::Add));
    }

    #[test]
    fn parses_loops_with_forward_phi_references() {
        let text = r#"
define i64 @sum(i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i.next, %latch ]
  %acc = phi i64 [ 0, %entry ], [ %acc.next, %latch ]
  %cond = icmp slt i64 %i, %n
  br i1 %cond, label %latch, label %exit
latch:
  %acc.next = add i64 %acc, %i
  %i.next = add i64 %i, 1
  br label %header
exit:
  ret i64 %acc
}
"#;
        let f = parse_function_text(text).unwrap();
        assert_eq!(f.num_blocks(), 4);
        let header = BlockId(1);
        let phi = f.block(header).instrs[0];
        assert_eq!(f.opcode(phi), Some(Opcode::Phi));
        let instr = f.instr(phi).unwrap();
        assert_eq!(instr.operands.len(), 2);
        assert_eq!(instr.incoming.len(), 2);
    }

    #[test]
    fn print_parse_round_trips_a_whole_module() {
        let mut m = parse_module(EXAMPLE).unwrap();
        assert_eq!(m.name, "parsed", "no header keeps the default name");
        m.name = "kernels".into();
        m.add_function(parse_function_text(&EXAMPLE.replace("@example", "@other")).unwrap());
        let text = crate::printer::print_module(&m);
        assert!(text.starts_with("; module kernels\n"), "{text}");
        assert_eq!(parse_module(&text).unwrap(), m);
        // A later comment of the same form is not a header.
        let late = format!("{EXAMPLE}; module late\n");
        assert_eq!(parse_module(&late).unwrap().name, "parsed");
    }

    #[test]
    fn print_parse_print_fixpoint() {
        let text = r#"
define double @axpy(double* %x, double* %y, double %a, i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i.next, %body ]
  %cond = icmp slt i64 %i, %n
  br i1 %cond, label %body, label %exit
body:
  %xa = getelementptr double, double* %x, i64 %i
  %xv = load double, double* %xa
  %m = fmul double %xv, %a
  %ya = getelementptr double, double* %y, i64 %i
  %yv = load double, double* %ya
  %s = fadd double %m, %yv
  store double %s, double* %ya
  %i.next = add i64 %i, 1
  br label %header
exit:
  ret double 0.0
}
"#;
        let f1 = parse_function_text(text).unwrap();
        let p1 = print_function(&f1);
        let f2 = parse_function_text(&p1).unwrap();
        let p2 = print_function(&f2);
        assert_eq!(p1, p2, "printer/parser must reach a fixpoint");
    }

    #[test]
    fn parses_calls_selects_and_casts() {
        let text = r#"
define double @k(double %x, i32 %i) {
entry:
  %s = call double @sqrt(double %x)
  %c = fcmp olt double %s, 1.5
  %sel = select i1 %c, double %s, %x
  %w = sext i32 %i to i64
  %g = sitofp i64 %w to double
  %r = fadd double %sel, %g
  ret double %r
}
"#;
        let f = parse_function_text(text).unwrap();
        let entry = BlockId(0);
        let call = f.block(entry).instrs[0];
        assert_eq!(f.opcode(call), Some(Opcode::Call));
        assert_eq!(f.instr(call).unwrap().callee.as_deref(), Some("sqrt"));
        let sel = f.block(entry).instrs[2];
        assert_eq!(f.opcode(sel), Some(Opcode::Select));
        assert_eq!(f.instr(sel).unwrap().operands.len(), 3);
    }

    #[test]
    fn reports_undefined_values_with_line_numbers() {
        let text = "define void @f() {\nentry:\n  ret i32 %missing\n}\n";
        let err = parse_function_text(text).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("missing"));
    }

    #[test]
    fn rejects_duplicate_definitions() {
        let text = "define void @f(i32 %a) {\nentry:\n  %x = add i32 %a, 1\n  %x = add i32 %a, 2\n  ret void\n}\n";
        let err = parse_function_text(text).unwrap_err();
        assert!(err.message.contains("redefinition"));
    }

    #[test]
    fn parses_alloca_and_stores() {
        let text = r#"
define void @locals(i64 %n) {
entry:
  %buf = alloca double, i64 %n
  %p = getelementptr double, double* %buf, i64 0
  store double 3.5, double* %p
  ret void
}
"#;
        let f = parse_function_text(text).unwrap();
        let entry = BlockId(0);
        let alloca = f.block(entry).instrs[0];
        assert_eq!(f.opcode(alloca), Some(Opcode::Alloca));
        assert_eq!(f.value(alloca).ty, Type::F64.ptr_to());
    }

    /// A word deeper than the cap is a parse error, and the deepest one
    /// still fits a [`Type`] after `alloca` points at it.
    #[test]
    fn refuses_pointer_types_deeper_than_the_cap() {
        let word = |stars: usize| format!("double{}", "*".repeat(stars));
        let alloca = |stars: usize| {
            let w = word(stars);
            format!("define void @f() {{\nentry:\n  %a = alloca {w}, i64 1\n  ret void\n}}\n")
        };
        let f = parse_function_text(&alloca(MAX_WORD_DEPTH)).expect("within the cap");
        let a = f.block(BlockId(0)).instrs[0];
        assert_eq!(f.value(a).ty.to_string(), word(Type::MAX_DEPTH));
        let too_deep = format!("pointer type deeper than {MAX_WORD_DEPTH} levels");
        let err = parse_function_text(&alloca(MAX_WORD_DEPTH + 1)).unwrap_err();
        assert_eq!((err.line, err.message), (3, too_deep.clone()));
        assert_eq!(parse_type(&word(100_000)), Err(too_deep));
        assert!(parse_type("doubles*").is_err());
    }
}
