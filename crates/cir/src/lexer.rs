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
/// # Errors
///
/// Returns a [`LexError`] on unterminated literals/comments or characters
/// outside the supported subset.
pub(crate) fn lex(source: &str) -> Result<Vec<Token>, LexError> {
    Lexer::new(source).run()
}

struct Lexer<'src> {
    chars: Vec<char>,
    pos: usize,
    loc: Loc,
    #[allow(dead_code)]
    source: &'src str,
}

impl<'src> Lexer<'src> {
    fn new(source: &'src str) -> Self {
        Lexer {
            chars: source.chars().collect(),
            pos: 0,
            loc: Loc::start(),
            source,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.loc.line += 1;
            self.loc.col = 1;
        } else {
            self.loc.col += 1;
        }
        Some(c)
    }

    fn run(mut self) -> Result<Vec<Token>, LexError> {
        let mut out = Vec::new();
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
            let kind = if c == '#' {
                self.lex_preproc()
            } else if c.is_ascii_alphabetic() || c == '_' {
                Ok(self.lex_ident())
            } else if c.is_ascii_digit() {
                self.lex_number()
            } else if c == '"' {
                self.lex_string()
            } else if c == '\'' {
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
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('/') if self.peek2() == Some('/') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some('/') if self.peek2() == Some('*') => {
                    let start = self.loc;
                    self.bump();
                    self.bump();
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some('*'), Some('/')) => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            (Some(_), _) => {
                                self.bump();
                            }
                            (None, _) => {
                                return Err(LexError::new(start, "unterminated block comment"))
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_preproc(&mut self) -> Result<TokenKind, LexError> {
        self.bump(); // '#'
        let mut line = String::new();
        while let Some(c) = self.peek() {
            if c == '\n' {
                break;
            }
            line.push(c);
            self.bump();
        }
        Ok(TokenKind::PreprocLine(line.trim().to_string()))
    }

    fn lex_ident(&mut self) -> TokenKind {
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == '_' {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        match Keyword::from_str(&s) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident(s),
        }
    }

    fn lex_number(&mut self) -> Result<TokenKind, LexError> {
        let start = self.loc;
        let mut s = String::new();
        // Hex
        if self.peek() == Some('0') && matches!(self.peek2(), Some('x') | Some('X')) {
            self.bump();
            self.bump();
            while let Some(c) = self.peek() {
                if c.is_ascii_hexdigit() {
                    s.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.skip_int_suffix();
            let v = i64::from_str_radix(&s, 16)
                .map_err(|_| LexError::new(start, "hex literal out of range"))?;
            return Ok(TokenKind::IntLit(v));
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                s.push(c);
                self.bump();
            } else if c == '.' && !is_float && self.peek2().is_some_and(|d| d.is_ascii_digit()) {
                is_float = true;
                s.push(c);
                self.bump();
            } else if c == '.' && !is_float {
                // trailing dot as in `1.`
                is_float = true;
                s.push(c);
                self.bump();
                break;
            } else {
                break;
            }
        }
        // Exponent
        if matches!(self.peek(), Some('e') | Some('E')) {
            let save_pos = self.pos;
            let save_loc = self.loc;
            let mut exp = String::from("e");
            self.bump();
            if matches!(self.peek(), Some('+') | Some('-')) {
                exp.push(self.bump().unwrap());
            }
            if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit() {
                        exp.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                s.push_str(&exp);
                is_float = true;
            } else {
                self.pos = save_pos;
                self.loc = save_loc;
            }
        }
        if is_float {
            if matches!(self.peek(), Some('f') | Some('F') | Some('l') | Some('L')) {
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
        while matches!(self.peek(), Some('u') | Some('U') | Some('l') | Some('L')) {
            self.bump();
        }
    }

    fn lex_escape(&mut self, start: Loc) -> Result<char, LexError> {
        // caller consumed the backslash
        let c = self
            .bump()
            .ok_or_else(|| LexError::new(start, "unterminated escape sequence"))?;
        Ok(match c {
            'n' => '\n',
            't' => '\t',
            'r' => '\r',
            '0' => '\0',
            '\\' => '\\',
            '\'' => '\'',
            '"' => '"',
            other => other,
        })
    }

    fn lex_string(&mut self) -> Result<TokenKind, LexError> {
        let start = self.loc;
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                Some('"') => return Ok(TokenKind::StrLit(s)),
                Some('\\') => s.push(self.lex_escape(start)?),
                Some('\n') | None => {
                    return Err(LexError::new(start, "unterminated string literal"))
                }
                Some(c) => s.push(c),
            }
        }
    }

    fn lex_char(&mut self) -> Result<TokenKind, LexError> {
        let start = self.loc;
        self.bump(); // opening quote
        let c = match self.bump() {
            Some('\\') => self.lex_escape(start)?,
            Some('\'') | None => return Err(LexError::new(start, "empty character literal")),
            Some(c) => c,
        };
        match self.bump() {
            Some('\'') => Ok(TokenKind::CharLit(c)),
            _ => Err(LexError::new(start, "unterminated character literal")),
        }
    }

    fn lex_punct(&mut self) -> Result<TokenKind, LexError> {
        use Punct::*;
        let start = self.loc;
        let c = self.bump().expect("peeked before lex_punct");
        let two = self.peek();
        let three = |lexer: &Self| lexer.peek2();
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

    fn kinds(src: &str) -> Vec<TokenKind> {
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
                TokenKind::Ident("x".into()),
                TokenKind::Punct(P::Eq),
                TokenKind::IntLit(42),
                TokenKind::Punct(P::Semi),
            ]
        );
    }

    #[test]
    fn lexes_pthread_identifiers() {
        let k = kinds("pthread_create(&threads[local], NULL, tf, (void *) local);");
        assert_eq!(k[0], TokenKind::Ident("pthread_create".into()));
        assert!(k.contains(&TokenKind::Ident("NULL".into())));
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
        assert_eq!(
            kinds(r#""Sum Array: %d\n""#),
            vec![TokenKind::StrLit("Sum Array: %d\n".into())]
        );
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
                TokenKind::Ident("a".into()),
                TokenKind::Punct(P::ShlEq),
                TokenKind::Ident("b".into()),
                TokenKind::Punct(P::ShrEq),
                TokenKind::Ident("c".into()),
                TokenKind::Punct(P::PlusEq),
                TokenKind::Ident("d".into()),
                TokenKind::Punct(P::Arrow),
                TokenKind::Ident("e".into()),
            ]
        );
    }

    #[test]
    fn skips_line_and_block_comments() {
        assert_eq!(
            kinds("a // comment\n /* multi\nline */ b"),
            vec![TokenKind::Ident("a".into()), TokenKind::Ident("b".into()),]
        );
    }

    #[test]
    fn keeps_preprocessor_lines() {
        assert_eq!(
            kinds("#include <stdio.h>\nint x;"),
            vec![
                TokenKind::PreprocLine("include <stdio.h>".into()),
                TokenKind::Keyword(Keyword::Int),
                TokenKind::Ident("x".into()),
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
                TokenKind::Ident("a".into()),
                TokenKind::Punct(P::MinusMinus),
                TokenKind::Punct(P::Arrow),
                TokenKind::Ident("b".into()),
            ]
        );
    }
}
