//! Hand-written lexer for the supported C subset.
//!
//! Handles identifiers/keywords, integer (decimal/hex/octal), float, char and
//! string literals, all C89 operators used by the subset, `//` and `/* */`
//! comments, and preprocessor lines (which are kept verbatim so `#include`s
//! survive the source-to-source round trip).

use crate::error::LexError;
use crate::span::{Loc, Span};
use crate::token::{Keyword, Punct, Token, TokenKind};

/// Lexes a full source string into tokens (terminated by [`TokenKind::Eof`]).
///
/// Tokens borrow their text from `source`: nothing is copied until the
/// parser stores a name in the AST.
///
/// # Errors
///
/// Returns a [`LexError`] on unterminated literals/comments or characters
/// outside the supported subset.
pub(crate) fn lex(source: &str) -> Result<Vec<Token<'_>>, LexError> {
    Lexer::new(source).run()
}

/// Appends the characters of a string literal's raw text (what lies
/// between its quotes, as [`TokenKind::StrLit`] holds it) to `out`, with
/// its escapes resolved.
pub(crate) fn unescape_into(raw: &str, out: &mut String) {
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        out.push(match c {
            '\\' => escaped(chars.next().expect("the lexer checked every escape")),
            c => c,
        });
    }
}

/// The character an escape `\c` stands for.
fn escaped(c: char) -> char {
    match c {
        'n' => '\n',
        't' => '\t',
        'r' => '\r',
        '0' => '\0',
        other => other,
    }
}

/// The ASCII characters `char::is_whitespace` accepts.
fn is_ascii_space(c: u8) -> bool {
    matches!(c, b' ' | b'\t' | b'\n' | 0x0B | 0x0C | b'\r')
}

/// A cursor over the source's bytes. Every token starts at an ASCII byte,
/// so a byte index always sits on a character boundary where a token
/// starts or ends; columns count characters, not bytes.
struct Lexer<'src> {
    src: &'src str,
    pos: usize,
    loc: Loc,
}

impl<'src> Lexer<'src> {
    fn new(src: &'src str) -> Self {
        Lexer {
            src,
            pos: 0,
            loc: Loc::start(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos + 1).copied()
    }

    /// The character at the cursor (which sits on a character boundary).
    fn peek_char(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    /// Moves past one byte.
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.skip_to(self.pos + 1);
        Some(b)
    }

    /// Moves the cursor to byte `end`, counting the lines and columns of
    /// what it moves over. A UTF-8 continuation byte is no column of its
    /// own: the character it belongs to was counted at its first byte.
    fn skip_to(&mut self, end: usize) {
        for &b in &self.src.as_bytes()[self.pos..end] {
            if b == b'\n' {
                self.loc.line += 1;
                self.loc.col = 1;
            } else if b & 0xC0 != 0x80 {
                self.loc.col += 1;
            }
        }
        self.pos = end;
    }

    /// Moves past one character.
    fn bump_char(&mut self) -> Option<char> {
        let c = self.peek_char()?;
        for _ in 0..c.len_utf8() {
            self.bump();
        }
        Some(c)
    }

    fn run(mut self) -> Result<Vec<Token<'src>>, LexError> {
        // About one token per four bytes of C source.
        let mut out = Vec::with_capacity(self.src.len() / 4 + 1);
        loop {
            self.skip_ws_and_comments()?;
            let start = self.loc;
            let Some(c) = self.peek() else {
                out.push(Token {
                    kind: TokenKind::Eof,
                    span: Span::point(start),
                });
                return Ok(out);
            };
            let kind = if c == b'#' {
                self.lex_preproc()
            } else if c.is_ascii_alphabetic() || c == b'_' {
                Ok(self.lex_ident())
            } else if c.is_ascii_digit() {
                self.lex_number()
            } else if c == b'"' {
                self.lex_string()
            } else if c == b'\'' {
                self.lex_char()
            } else {
                self.lex_punct()
            }?;
            out.push(Token {
                kind,
                span: Span::new(start, self.loc),
            });
        }
    }

    fn skip_ws_and_comments(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(c) if is_ascii_space(c) => {
                    let rest = &self.src.as_bytes()[self.pos..];
                    let len = rest.iter().position(|&c| !is_ascii_space(c));
                    self.skip_to(self.pos + len.unwrap_or(rest.len()));
                }
                Some(c) if c >= 0x80 && self.peek_char().is_some_and(char::is_whitespace) => {
                    self.bump_char();
                }
                Some(b'/') if self.peek2() == Some(b'/') => self.skip_line(),
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let Some(len) = self.src[self.pos + 2..].find("*/") else {
                        return Err(LexError::new(self.loc, "unterminated block comment"));
                    };
                    self.skip_to(self.pos + 2 + len + 2);
                }
                _ => return Ok(()),
            }
        }
    }

    /// Moves up to the end of the line (the newline stays ahead).
    fn skip_line(&mut self) {
        let rest = &self.src[self.pos..];
        self.skip_to(self.pos + rest.find('\n').unwrap_or(rest.len()));
    }

    /// Moves past the bytes `pred` accepts and returns the text moved
    /// over. `pred` accepts only ASCII bytes other than a newline, so each
    /// byte is one column.
    fn take_while(&mut self, pred: impl Fn(u8) -> bool) -> &'src str {
        let from = self.pos;
        let rest = &self.src.as_bytes()[from..];
        let len = rest.iter().position(|&c| !pred(c)).unwrap_or(rest.len());
        self.pos += len;
        self.loc.col += len as u32;
        &self.src[from..self.pos]
    }

    fn lex_preproc(&mut self) -> Result<TokenKind<'src>, LexError> {
        self.bump(); // '#'
        let from = self.pos;
        self.skip_line();
        Ok(TokenKind::PreprocLine(self.src[from..self.pos].trim()))
    }

    fn lex_ident(&mut self) -> TokenKind<'src> {
        let s = self.take_while(|c| c.is_ascii_alphanumeric() || c == b'_');
        match Keyword::from_str(s) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident(s),
        }
    }

    fn lex_number(&mut self) -> Result<TokenKind<'src>, LexError> {
        let start = self.loc;
        let from = self.pos;
        // Hex
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x' | b'X')) {
            self.bump();
            self.bump();
            let digits = self.take_while(|c| c.is_ascii_hexdigit());
            self.skip_int_suffix();
            let v = i64::from_str_radix(digits, 16)
                .map_err(|_| LexError::new(start, "hex literal out of range"))?;
            return Ok(TokenKind::IntLit(v));
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                self.bump();
            } else if c == b'.' && !is_float && self.peek2().is_some_and(|d| d.is_ascii_digit()) {
                is_float = true;
                self.bump();
            } else if c == b'.' && !is_float {
                // trailing dot as in `1.`
                is_float = true;
                self.bump();
                break;
            } else {
                break;
            }
        }
        // Exponent
        if matches!(self.peek(), Some(b'e' | b'E')) {
            let save_pos = self.pos;
            let save_loc = self.loc;
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.take_while(|c| c.is_ascii_digit());
                is_float = true;
            } else {
                self.pos = save_pos;
                self.loc = save_loc;
            }
        }
        let s = &self.src[from..self.pos];
        if is_float {
            if matches!(self.peek(), Some(b'f' | b'F' | b'l' | b'L')) {
                self.bump();
            }
            let v: f64 = s
                .parse()
                .map_err(|_| LexError::new(start, "malformed float literal"))?;
            Ok(TokenKind::FloatLit(v))
        } else {
            self.skip_int_suffix();
            // Octal literals start with 0 but `0` itself is decimal zero.
            let v = if s.len() > 1 && s.starts_with('0') {
                i64::from_str_radix(&s[1..], 8)
                    .map_err(|_| LexError::new(start, "octal literal out of range"))?
            } else {
                s.parse()
                    .map_err(|_| LexError::new(start, "integer literal out of range"))?
            };
            Ok(TokenKind::IntLit(v))
        }
    }

    fn skip_int_suffix(&mut self) {
        while matches!(self.peek(), Some(b'u' | b'U' | b'l' | b'L')) {
            self.bump();
        }
    }

    fn lex_escape(&mut self, start: Loc) -> Result<char, LexError> {
        // caller consumed the backslash
        self.bump_char()
            .map(escaped)
            .ok_or_else(|| LexError::new(start, "unterminated escape sequence"))
    }

    /// A string literal: its raw text, checked here and unescaped by
    /// [`unescape_into`] when the parser stores it.
    fn lex_string(&mut self) -> Result<TokenKind<'src>, LexError> {
        let start = self.loc;
        self.bump(); // opening quote
        let from = self.pos;
        loop {
            match self.peek() {
                Some(b'"') => {
                    let raw = &self.src[from..self.pos];
                    self.bump();
                    return Ok(TokenKind::StrLit(raw));
                }
                Some(b'\\') => {
                    self.bump();
                    self.lex_escape(start)?;
                }
                Some(b'\n') | None => {
                    return Err(LexError::new(start, "unterminated string literal"))
                }
                Some(_) => {
                    self.bump();
                }
            }
        }
    }

    fn lex_char(&mut self) -> Result<TokenKind<'src>, LexError> {
        let start = self.loc;
        self.bump(); // opening quote
        let c = match self.bump_char() {
            Some('\\') => self.lex_escape(start)?,
            Some('\'') | None => return Err(LexError::new(start, "empty character literal")),
            Some(c) => c,
        };
        match self.bump() {
            Some(b'\'') => Ok(TokenKind::CharLit(c)),
            _ => Err(LexError::new(start, "unterminated character literal")),
        }
    }

    fn lex_punct(&mut self) -> Result<TokenKind<'src>, LexError> {
        use Punct::*;
        let start = self.loc;
        let c = match self.peek() {
            Some(b) if b.is_ascii() => {
                self.bump();
                char::from(b)
            }
            _ => self.bump_char().expect("peeked before lex_punct"),
        };
        let two = self.peek().map(char::from);
        let three = |lexer: &Self| lexer.peek2().map(char::from);
        let p = match c {
            '(' => LParen,
            ')' => RParen,
            '{' => LBrace,
            '}' => RBrace,
            '[' => LBracket,
            ']' => RBracket,
            ';' => Semi,
            ',' => Comma,
            '?' => Question,
            ':' => Colon,
            '~' => Tilde,
            '.' => Dot,
            '+' => match two {
                Some('+') => {
                    self.bump();
                    PlusPlus
                }
                Some('=') => {
                    self.bump();
                    PlusEq
                }
                _ => Plus,
            },
            '-' => match two {
                Some('-') => {
                    self.bump();
                    MinusMinus
                }
                Some('=') => {
                    self.bump();
                    MinusEq
                }
                Some('>') => {
                    self.bump();
                    Arrow
                }
                _ => Minus,
            },
            '*' => match two {
                Some('=') => {
                    self.bump();
                    StarEq
                }
                _ => Star,
            },
            '/' => match two {
                Some('=') => {
                    self.bump();
                    SlashEq
                }
                _ => Slash,
            },
            '%' => match two {
                Some('=') => {
                    self.bump();
                    PercentEq
                }
                _ => Percent,
            },
            '&' => match two {
                Some('&') => {
                    self.bump();
                    AmpAmp
                }
                Some('=') => {
                    self.bump();
                    AmpEq
                }
                _ => Amp,
            },
            '|' => match two {
                Some('|') => {
                    self.bump();
                    PipePipe
                }
                Some('=') => {
                    self.bump();
                    PipeEq
                }
                _ => Pipe,
            },
            '^' => match two {
                Some('=') => {
                    self.bump();
                    CaretEq
                }
                _ => Caret,
            },
            '!' => match two {
                Some('=') => {
                    self.bump();
                    BangEq
                }
                _ => Bang,
            },
            '=' => match two {
                Some('=') => {
                    self.bump();
                    EqEq
                }
                _ => Eq,
            },
            '<' => match two {
                Some('<') if three(self) == Some('=') => {
                    self.bump();
                    self.bump();
                    ShlEq
                }
                Some('<') => {
                    self.bump();
                    Shl
                }
                Some('=') => {
                    self.bump();
                    Le
                }
                _ => Lt,
            },
            '>' => match two {
                Some('>') if three(self) == Some('=') => {
                    self.bump();
                    self.bump();
                    ShrEq
                }
                Some('>') => {
                    self.bump();
                    Shr
                }
                Some('=') => {
                    self.bump();
                    Ge
                }
                _ => Gt,
            },
            other => {
                return Err(LexError::new(
                    start,
                    format!("unexpected character {other:?}"),
                ))
            }
        };
        Ok(TokenKind::Punct(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Punct as P;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src)
            .expect("lex")
            .into_iter()
            .map(|t| t.kind)
            .filter(|k| !matches!(k, TokenKind::Eof))
            .collect()
    }

    #[test]
    fn lexes_simple_declaration() {
        assert_eq!(
            kinds("int x = 42;"),
            vec![
                TokenKind::Keyword(Keyword::Int),
                TokenKind::Ident("x"),
                TokenKind::Punct(P::Eq),
                TokenKind::IntLit(42),
                TokenKind::Punct(P::Semi),
            ]
        );
    }

    #[test]
    fn lexes_pthread_identifiers() {
        let k = kinds("pthread_create(&threads[local], NULL, tf, (void *) local);");
        assert_eq!(k[0], TokenKind::Ident("pthread_create"));
        assert!(k.contains(&TokenKind::Ident("NULL")));
        assert!(k.contains(&TokenKind::Keyword(Keyword::Void)));
    }

    #[test]
    fn lexes_number_forms() {
        assert_eq!(kinds("0x1F"), vec![TokenKind::IntLit(31)]);
        assert_eq!(kinds("010"), vec![TokenKind::IntLit(8)]);
        assert_eq!(kinds("0"), vec![TokenKind::IntLit(0)]);
        assert_eq!(kinds("3.5"), vec![TokenKind::FloatLit(3.5)]);
        assert_eq!(kinds("4.0"), vec![TokenKind::FloatLit(4.0)]);
        assert_eq!(kinds("1e3"), vec![TokenKind::FloatLit(1000.0)]);
        assert_eq!(kinds("2.5e-1"), vec![TokenKind::FloatLit(0.25)]);
        assert_eq!(kinds("100UL"), vec![TokenKind::IntLit(100)]);
        assert_eq!(kinds("1.0f"), vec![TokenKind::FloatLit(1.0)]);
    }

    #[test]
    fn dot_after_integer_without_digits_is_float() {
        assert_eq!(kinds("1."), vec![TokenKind::FloatLit(1.0)]);
    }

    #[test]
    fn lexes_string_with_escapes() {
        let toks = kinds(r#""Sum Array: %d\n""#);
        assert_eq!(toks, vec![TokenKind::StrLit(r"Sum Array: %d\n")]);
        let mut s = String::new();
        unescape_into(r"Sum Array: %d\n", &mut s);
        assert_eq!(s, "Sum Array: %d\n");
    }

    #[test]
    fn lexes_char_literals() {
        assert_eq!(kinds("'a'"), vec![TokenKind::CharLit('a')]);
        assert_eq!(kinds(r"'\n'"), vec![TokenKind::CharLit('\n')]);
        assert_eq!(kinds(r"'\0'"), vec![TokenKind::CharLit('\0')]);
    }

    #[test]
    fn lexes_compound_operators_longest_match() {
        assert_eq!(
            kinds("a <<= b >>= c += d->e"),
            vec![
                TokenKind::Ident("a"),
                TokenKind::Punct(P::ShlEq),
                TokenKind::Ident("b"),
                TokenKind::Punct(P::ShrEq),
                TokenKind::Ident("c"),
                TokenKind::Punct(P::PlusEq),
                TokenKind::Ident("d"),
                TokenKind::Punct(P::Arrow),
                TokenKind::Ident("e"),
            ]
        );
    }

    #[test]
    fn skips_line_and_block_comments() {
        assert_eq!(
            kinds("a // comment\n /* multi\nline */ b"),
            vec![TokenKind::Ident("a"), TokenKind::Ident("b"),]
        );
    }

    #[test]
    fn keeps_preprocessor_lines() {
        assert_eq!(
            kinds("#include <stdio.h>\nint x;"),
            vec![
                TokenKind::PreprocLine("include <stdio.h>"),
                TokenKind::Keyword(Keyword::Int),
                TokenKind::Ident("x"),
                TokenKind::Punct(P::Semi),
            ]
        );
    }

    #[test]
    fn error_on_unterminated_string() {
        let err = lex("\"abc").unwrap_err();
        assert!(err.message.contains("unterminated string"));
    }

    #[test]
    fn error_on_unterminated_block_comment() {
        let err = lex("/* no end").unwrap_err();
        assert!(err.message.contains("unterminated block comment"));
    }

    #[test]
    fn error_on_stray_character() {
        let err = lex("int $x;").unwrap_err();
        assert!(err.message.contains("unexpected character"));
    }

    #[test]
    fn spans_track_lines() {
        let toks = lex("int\nx;").expect("lex");
        assert_eq!(toks[0].span.start.line, 1);
        assert_eq!(toks[1].span.start.line, 2);
    }

    #[test]
    fn minus_gt_vs_minus_minus() {
        assert_eq!(
            kinds("a--->b"),
            vec![
                TokenKind::Ident("a"),
                TokenKind::Punct(P::MinusMinus),
                TokenKind::Punct(P::Arrow),
                TokenKind::Ident("b"),
            ]
        );
    }
}
