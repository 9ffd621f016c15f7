//! A minimal Rust lexer: just enough to tell code from comments and
//! strings, with line numbers on every token.
//!
//! The analyzer's rules are all *token-shape* rules ("`partial_cmp(` …
//! `)` followed by `.unwrap(`", "`static` adjacent to `mut`"), so the
//! lexer does not parse Rust — it splits a source file into
//!
//! * **tokens** — identifiers/keywords, numeric literals, and single
//!   punctuation characters, each stamped with its 1-based line;
//! * **comments** — line (`//`) and block (`/* */`, nested) comments,
//!   kept separately because several rules are *driven by* comments
//!   (`// ssq-analyze: deny-alloc` markers and allow directives).
//!
//! String literals are kept as opaque [`TokenKind::Str`] tokens (the
//! item parser needs `RankedMutex::new("name", …)` lock names) but
//! their *content* is never tokenized — which is what makes the token
//! rules immune to `"a.partial_cmp(b).unwrap()"` appearing in a doc
//! string or error message. Char literals and lifetimes are consumed
//! and dropped.

/// What a [`Token`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`partial_cmp`, `unsafe`, `mod`, …).
    Ident,
    /// A numeric literal (consumed so `1.0.total_cmp` lexes cleanly).
    Number,
    /// A single punctuation character (`.`, `(`, `!`, `{`, …).
    Punct,
    /// A string literal; `text` holds the raw content without quotes.
    /// Opaque to every token-pattern rule, but carries diagnostic names
    /// (lock names) for the item parser.
    Str,
}

/// One lexed token.
#[derive(Clone, Debug)]
pub struct Token {
    /// The token text; single character for [`TokenKind::Punct`].
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: u32,
    /// Classification.
    pub kind: TokenKind,
}

impl Token {
    /// `true` when this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// `true` when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// One comment (line or block), with the `//` / `/* */` delimiters
/// stripped.
#[derive(Clone, Debug)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Comment text without delimiters (block comments keep newlines).
    pub text: String,
}

/// A lexed source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// A lexing failure (unterminated string or block comment). Surfaced as
/// the analyzer's *internal error* exit code — a file the lexer cannot
/// make sense of must fail the gate loudly, not pass silently.
#[derive(Debug)]
pub struct LexError {
    /// 1-based line where the offending construct started.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for LexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

/// Lexes `src` into tokens and comments. See the module docs.
pub fn lex(src: &str) -> Result<Lexed, LexError> {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                let start = i + 2;
                let mut end = start;
                while end < chars.len() && chars[end] != '\n' {
                    end += 1;
                }
                out.comments.push(Comment {
                    line,
                    text: chars[start..end].iter().collect(),
                });
                i = end;
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                let start_line = line;
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < chars.len() && depth > 0 {
                    if chars[j] == '\n' {
                        line += 1;
                        j += 1;
                    } else if chars[j] == '/' && chars.get(j + 1) == Some(&'*') {
                        depth += 1;
                        j += 2;
                    } else if chars[j] == '*' && chars.get(j + 1) == Some(&'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                if depth > 0 {
                    return Err(LexError {
                        line: start_line,
                        message: "unterminated block comment".into(),
                    });
                }
                out.comments.push(Comment {
                    line: start_line,
                    text: chars[i + 2..j - 2].iter().collect(),
                });
                i = j;
            }
            '"' => {
                let start_line = line;
                let start = i + 1;
                i = string_literal(&chars, i, &mut line)?;
                out.tokens.push(Token {
                    text: chars[start..i - 1].iter().collect(),
                    line: start_line,
                    kind: TokenKind::Str,
                });
            }
            'r' | 'b' if raw_or_byte_string(&chars, i) => {
                let start_line = line;
                i = raw_byte_string(&chars, i, &mut line)?;
                // Raw/byte strings are kept opaque with empty text: no
                // rule or parser pattern reads their content, and the
                // delimiter arithmetic is not worth replicating here.
                out.tokens.push(Token {
                    text: String::new(),
                    line: start_line,
                    kind: TokenKind::Str,
                });
            }
            '\'' => i = char_or_lifetime(&chars, i, line),
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.tokens.push(Token {
                    text: chars[start..i].iter().collect(),
                    line,
                    kind: TokenKind::Ident,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                // Consume a fractional part only when a digit follows the
                // dot, so `1.0` is one number but `1..n` and `1.method()`
                // leave their dots as punctuation.
                if i < chars.len()
                    && chars[i] == '.'
                    && chars.get(i + 1).is_some_and(char::is_ascii_digit)
                {
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                }
                out.tokens.push(Token {
                    text: chars[start..i].iter().collect(),
                    line,
                    kind: TokenKind::Number,
                });
            }
            c => {
                out.tokens.push(Token {
                    text: c.to_string(),
                    line,
                    kind: TokenKind::Punct,
                });
                i += 1;
            }
        }
    }
    Ok(out)
}

/// `true` when position `i` starts a raw string (`r"`, `r#"`), byte
/// string (`b"`), raw byte string (`br#"`), or byte char (`b'`) rather
/// than a plain identifier beginning with `r`/`b`.
fn raw_or_byte_string(chars: &[char], i: usize) -> bool {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if chars.get(j) == Some(&'\'') {
            return true;
        }
    }
    if chars.get(j) == Some(&'r') {
        j += 1;
    }
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"') && j > i
}

/// Consumes a plain `"…"` literal, returning the index just past it.
fn string_literal(chars: &[char], i: usize, line: &mut u32) -> Result<usize, LexError> {
    let start_line = *line;
    let mut j = i + 1;
    while j < chars.len() {
        match chars[j] {
            '\\' => j += 2,
            '\n' => {
                *line += 1;
                j += 1;
            }
            '"' => return Ok(j + 1),
            _ => j += 1,
        }
    }
    Err(LexError {
        line: start_line,
        message: "unterminated string literal".into(),
    })
}

/// Consumes `r"…"`, `r#"…"#`, `b"…"`, `br##"…"##`, or `b'…'`.
fn raw_byte_string(chars: &[char], i: usize, line: &mut u32) -> Result<usize, LexError> {
    let start_line = *line;
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if chars.get(j) == Some(&'\'') {
            // Byte char: b'x' or b'\n'.
            j += 1;
            if chars.get(j) == Some(&'\\') {
                j += 1;
            }
            j += 1;
            if chars.get(j) == Some(&'\'') {
                return Ok(j + 1);
            }
            return Err(LexError {
                line: start_line,
                message: "unterminated byte char".into(),
            });
        }
    }
    if chars.get(j) == Some(&'r') {
        j += 1;
    }
    let mut hashes = 0usize;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    debug_assert_eq!(chars.get(j), Some(&'"'), "caller guaranteed a quote");
    j += 1;
    let raw = i + 1 < chars.len() && (chars[i] == 'r' || chars[i + 1] == 'r');
    while j < chars.len() {
        match chars[j] {
            '\\' if !raw => j += 2,
            '\n' => {
                *line += 1;
                j += 1;
            }
            '"' => {
                let mut k = j + 1;
                let mut seen = 0usize;
                while seen < hashes && chars.get(k) == Some(&'#') {
                    seen += 1;
                    k += 1;
                }
                if seen == hashes {
                    return Ok(k);
                }
                j += 1;
            }
            _ => j += 1,
        }
    }
    Err(LexError {
        line: start_line,
        message: "unterminated raw/byte string literal".into(),
    })
}

/// Consumes a char literal (`'x'`, `'\n'`) or skips a lifetime (`'a`),
/// returning the index just past it. Lifetimes produce no token — no
/// rule needs them.
fn char_or_lifetime(chars: &[char], i: usize, _line: u32) -> usize {
    // Escaped char: '\…' is always a char literal.
    if chars.get(i + 1) == Some(&'\\') {
        let mut j = i + 2;
        while j < chars.len() && chars[j] != '\'' {
            j += 1;
        }
        return (j + 1).min(chars.len());
    }
    // 'x' followed by a closing quote is a char literal; otherwise it is
    // a lifetime ('a, 'static) and we consume just the quote + ident.
    if chars.get(i + 2) == Some(&'\'') {
        return i + 3;
    }
    let mut j = i + 1;
    while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idents_numbers_and_puncts_with_lines() {
        let lexed = lex("let x = 1.5;\nfoo.bar()").unwrap();
        let texts: Vec<&str> = lexed.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            ["let", "x", "=", "1.5", ";", "foo", ".", "bar", "(", ")"]
        );
        assert_eq!(lexed.tokens[0].line, 1);
        assert_eq!(lexed.tokens[5].line, 2);
    }

    #[test]
    fn comments_are_captured_not_tokenized() {
        let lexed = lex("// SAFETY: fine\nx /* a /* nested */ b */ y").unwrap();
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[0].text, " SAFETY: fine");
        assert_eq!(lexed.comments[0].line, 1);
        let texts: Vec<&str> = lexed.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["x", "y"]);
    }

    #[test]
    fn strings_are_opaque_single_tokens() {
        let lexed = lex(r#"let s = "a.unwrap() // not a comment"; let c = 'x';"#).unwrap();
        assert!(lexed.comments.is_empty());
        assert!(!lexed.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert!(lexed.tokens.iter().any(|t| t.is_ident("c")));
        let strs: Vec<&Token> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].text, "a.unwrap() // not a comment");
    }

    #[test]
    fn lock_name_strings_survive_for_the_parser() {
        let lexed = lex(r#"RankedMutex::new("engine.cache", RANK, x)"#).unwrap();
        let strs: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, ["engine.cache"]);
    }

    #[test]
    fn raw_strings_and_lifetimes() {
        let lexed = lex("fn f<'a>(x: &'a str) { let r = r#\"has \"quotes\" inside\"#; }").unwrap();
        assert!(lexed.tokens.iter().any(|t| t.is_ident("str")));
        assert!(!lexed.tokens.iter().any(|t| t.is_ident("quotes")));
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(lex("let s = \"oops").is_err());
        assert!(lex("/* never closed").is_err());
    }

    #[test]
    fn float_method_calls_keep_the_dot() {
        let lexed = lex("1.0.total_cmp(&2.0); a[1..n]").unwrap();
        assert!(lexed.tokens.iter().any(|t| t.is_ident("total_cmp")));
        // `1..n` must not swallow the range dots into the number.
        let dots = lexed.tokens.iter().filter(|t| t.is_punct('.')).count();
        assert!(dots >= 3, "expected method dot + two range dots");
    }
}
