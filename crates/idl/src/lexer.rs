//! IDL lexer.

/// IDL tokens. Words and brace contents borrow from the lexed source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tok<'a> {
    /// Bare word (keywords, idiom names, opcode mnemonics).
    Word(&'a str),
    /// Integer literal.
    Num(i64),
    /// `{`-delimited variable reference content, raw and trimmed (parsed
    /// further by the parser), e.g. `loop[N-1].iterator` or `a, b, c` for
    /// varlists.
    Braced(&'a str),
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `=`.
    Equals,
    /// `,`.
    Comma,
    /// `..`.
    DotDot,
    /// `+`.
    Plus,
    /// `-`.
    Minus,
    /// End of input.
    Eof,
}

/// A token with a 1-based line number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spanned<'a> {
    /// The token.
    pub tok: Tok<'a>,
    /// Source line.
    pub line: usize,
}

/// Lexes IDL source (with `#`- or `--`-style comments to end of line).
///
/// Scans byte offsets into `src` without copying it: words and brace
/// contents are borrowed slices, while character classes
/// (`is_whitespace`, `is_alphabetic`) are still tested on decoded
/// `char`s, so non-ASCII letters and spaces lex as they always did.
pub fn lex(src: &str) -> Result<Vec<Spanned<'_>>, (usize, String)> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut line = 1;
    let mut i = 0;
    // The offset of the first byte at or after `from` that fails `keep`
    // (or the end of the source).
    let scan = |from: usize, keep: fn(char) -> bool| {
        src[from..]
            .find(|c: char| !keep(c))
            .map_or(src.len(), |k| from + k)
    };
    while let Some(c) = src[i..].chars().next() {
        let next = bytes.get(i + 1).copied();
        let (tok, end) = match c {
            '\n' => {
                line += 1;
                i += 1;
                continue;
            }
            _ if c.is_whitespace() => {
                i += c.len_utf8();
                continue;
            }
            '#' => {
                i = scan(i, |c| c != '\n');
                continue;
            }
            '-' if next == Some(b'-') => {
                i = scan(i, |c| c != '\n');
                continue;
            }
            '{' => {
                let Some(len) = src[i + 1..].find('}') else {
                    line += bytes[i + 1..].iter().filter(|&&b| b == b'\n').count();
                    return Err((line, "unterminated variable brace".into()));
                };
                let content = &src[i + 1..i + 1 + len];
                line += content.bytes().filter(|&b| b == b'\n').count();
                (Tok::Braced(content.trim()), i + len + 2)
            }
            '(' => (Tok::LParen, i + 1),
            ')' => (Tok::RParen, i + 1),
            '=' => (Tok::Equals, i + 1),
            ',' => (Tok::Comma, i + 1),
            '+' => (Tok::Plus, i + 1),
            '-' => (Tok::Minus, i + 1),
            '.' if next == Some(b'.') => (Tok::DotDot, i + 2),
            _ if c.is_ascii_digit() => {
                let end = scan(i, |c| c.is_ascii_digit());
                let text = &src[i..end];
                let n: i64 = text
                    .parse()
                    .map_err(|_| (line, format!("bad number {text:?}")))?;
                (Tok::Num(n), end)
            }
            _ if c.is_alphabetic() || c == '_' => {
                let end = scan(i, |c| c.is_alphanumeric() || c == '_');
                (Tok::Word(&src[i..end]), end)
            }
            other => return Err((line, format!("unexpected character {other:?}"))),
        };
        out.push(Spanned { tok, line });
        i = end;
    }
    out.push(Spanned {
        tok: Tok::Eof,
        line,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_constraint_header_and_braces() {
        let toks = lex("Constraint X\n( {sum} is add instruction )\nEnd").unwrap();
        let kinds: Vec<&Tok> = toks.iter().map(|t| &t.tok).collect();
        assert!(matches!(kinds[0], Tok::Word("Constraint")));
        assert!(matches!(kinds[2], Tok::LParen));
        assert!(matches!(kinds[3], Tok::Braced("sum")));
    }

    #[test]
    fn lexes_ranges_params_and_comments() {
        let toks = lex("# comment\nForNest(N=3) for all i = 0 .. N-1 -- trailing").unwrap();
        assert!(toks.iter().any(|t| t.tok == Tok::DotDot));
        assert!(toks.iter().any(|t| t.tok == Tok::Equals));
        assert!(toks.iter().any(|t| matches!(&t.tok, Tok::Num(3))));
        assert!(!toks
            .iter()
            .any(|t| matches!(&t.tok, Tok::Word("comment" | "trailing"))));
    }

    #[test]
    fn brace_content_is_raw() {
        let toks = lex("{loop[N-1].iterator}").unwrap();
        assert!(matches!(&toks[0].tok, Tok::Braced("loop[N-1].iterator")));
    }

    #[test]
    fn line_numbers() {
        let toks = lex("a\nb\nc").unwrap();
        assert_eq!(toks[2].line, 3);
    }
}
