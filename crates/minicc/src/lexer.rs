//! Hand-rolled lexer for the minicc C subset.

use crate::CompileError;

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Floating literal; the flag is `true` for an `f` suffix.
    Float(f64, bool),
    /// A punctuation / operator token, e.g. `"+="`, `"("`.
    Punct(&'static str),
    /// End of input.
    Eof,
}

/// A token with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub tok: Tok,
    /// 1-based source line.
    pub line: usize,
}

/// The punctuator `rest` starts with, by maximal munch: the arms list
/// the longer punctuators first, and the match dispatches on the first
/// char.
fn punct(rest: &[char]) -> Option<&'static str> {
    let c = |k: usize| rest.get(k).copied().unwrap_or('\0');
    Some(match (c(0), c(1), c(2)) {
        ('<', '<', '=') => "<<=",
        ('>', '>', '=') => ">>=",
        ('&', '&', _) => "&&",
        ('|', '|', _) => "||",
        ('=', '=', _) => "==",
        ('!', '=', _) => "!=",
        ('<', '=', _) => "<=",
        ('>', '=', _) => ">=",
        ('+', '=', _) => "+=",
        ('-', '=', _) => "-=",
        ('*', '=', _) => "*=",
        ('/', '=', _) => "/=",
        ('%', '=', _) => "%=",
        ('+', '+', _) => "++",
        ('-', '-', _) => "--",
        ('<', '<', _) => "<<",
        ('>', '>', _) => ">>",
        ('(', ..) => "(",
        (')', ..) => ")",
        ('{', ..) => "{",
        ('}', ..) => "}",
        ('[', ..) => "[",
        (']', ..) => "]",
        (';', ..) => ";",
        (',', ..) => ",",
        ('+', ..) => "+",
        ('-', ..) => "-",
        ('*', ..) => "*",
        ('/', ..) => "/",
        ('%', ..) => "%",
        ('<', ..) => "<",
        ('>', ..) => ">",
        ('=', ..) => "=",
        ('!', ..) => "!",
        ('?', ..) => "?",
        (':', ..) => ":",
        ('&', ..) => "&",
        ('|', ..) => "|",
        ('^', ..) => "^",
        _ => return None,
    })
}

/// Lexes `source` into tokens (with a trailing [`Tok::Eof`]).
pub fn lex(source: &str) -> Result<Vec<Spanned>, CompileError> {
    let chars: Vec<char> = source.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < chars.len() {
            if chars[i + 1] == '/' {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                continue;
            }
            if chars[i + 1] == '*' {
                i += 2;
                while i + 1 < chars.len() && !(chars[i] == '*' && chars[i + 1] == '/') {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
                if i + 1 >= chars.len() {
                    return Err(CompileError {
                        line,
                        message: "unterminated comment".into(),
                    });
                }
                i += 2;
                continue;
            }
        }
        // Identifiers / keywords.
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            toks.push(Spanned {
                tok: Tok::Ident(chars[start..i].iter().collect()),
                line,
            });
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() || (c == '.' && i + 1 < chars.len() && chars[i + 1].is_ascii_digit())
        {
            let start = i;
            let mut is_float = false;
            while i < chars.len() && chars[i].is_ascii_digit() {
                i += 1;
            }
            if i < chars.len() && chars[i] == '.' {
                is_float = true;
                i += 1;
                while i < chars.len() && chars[i].is_ascii_digit() {
                    i += 1;
                }
            }
            if i < chars.len() && (chars[i] == 'e' || chars[i] == 'E') {
                is_float = true;
                i += 1;
                if i < chars.len() && (chars[i] == '+' || chars[i] == '-') {
                    i += 1;
                }
                while i < chars.len() && chars[i].is_ascii_digit() {
                    i += 1;
                }
            }
            let text: String = chars[start..i].iter().collect();
            let mut f32_suffix = false;
            if i < chars.len() && (chars[i] == 'f' || chars[i] == 'F') {
                f32_suffix = true;
                is_float = true;
                i += 1;
            }
            if is_float {
                let v: f64 = text.parse().map_err(|_| CompileError {
                    line,
                    message: format!("bad float literal {text:?}"),
                })?;
                toks.push(Spanned {
                    tok: Tok::Float(v, f32_suffix),
                    line,
                });
            } else {
                let v: i64 = text.parse().map_err(|_| CompileError {
                    line,
                    message: format!("bad integer literal {text:?}"),
                })?;
                toks.push(Spanned {
                    tok: Tok::Int(v),
                    line,
                });
            }
            continue;
        }
        match punct(&chars[i..]) {
            Some(p) => {
                toks.push(Spanned {
                    tok: Tok::Punct(p),
                    line,
                });
                i += p.len();
            }
            None => {
                return Err(CompileError {
                    line,
                    message: format!("unexpected character {c:?}"),
                })
            }
        }
    }
    toks.push(Spanned {
        tok: Tok::Eof,
        line,
    });
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn lexes_identifiers_numbers_and_puncts() {
        let ts = kinds("int x = a1 + 2.5e-1f;");
        assert_eq!(
            ts,
            vec![
                Tok::Ident("int".into()),
                Tok::Ident("x".into()),
                Tok::Punct("="),
                Tok::Ident("a1".into()),
                Tok::Punct("+"),
                Tok::Float(0.25, true),
                Tok::Punct(";"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn maximal_munch_on_operators() {
        let ts = kinds("a+=b++<=c&&d");
        assert_eq!(
            ts,
            vec![
                Tok::Ident("a".into()),
                Tok::Punct("+="),
                Tok::Ident("b".into()),
                Tok::Punct("++"),
                Tok::Punct("<="),
                Tok::Ident("c".into()),
                Tok::Punct("&&"),
                Tok::Ident("d".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn skips_comments_and_counts_lines() {
        let toks = lex("a // one\n/* two\nthree */ b").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 3, "b is on line 3");
    }

    #[test]
    fn float_without_leading_digit() {
        let ts = kinds("x = .5;");
        assert!(ts.contains(&Tok::Float(0.5, false)));
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("int $x;").is_err());
    }
}
