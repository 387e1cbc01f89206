//! Token definitions for the C-subset lexer.

use crate::span::Span;
use std::fmt;

/// The kind of a lexed token. Text is borrowed from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum TokenKind<'src> {
    /// An identifier or keyword candidate, e.g. `main`, `pthread_create`.
    Ident(&'src str),
    /// A reserved keyword, e.g. `int`, `for`, `return`.
    Keyword(Keyword),
    /// An integer literal. Hex (`0x`), octal (`0`) and decimal forms are
    /// normalized to their value.
    IntLit(i64),
    /// A floating-point literal.
    FloatLit(f64),
    /// A character literal such as `'a'` (escapes resolved).
    CharLit(char),
    /// A string literal's raw text between its quotes; escapes are
    /// resolved by [`crate::lexer::unescape_into`].
    StrLit(&'src str),
    /// A preprocessor line, e.g. `#include <stdio.h>`, kept verbatim
    /// (without the leading `#`).
    PreprocLine(&'src str),
    /// A punctuation or operator token.
    Punct(Punct),
    /// End of input.
    Eof,
}

/// Reserved keywords of the supported C subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub(crate) enum Keyword {
    Void,
    Char,
    Short,
    Int,
    Long,
    Float,
    Double,
    Signed,
    Unsigned,
    Struct,
    Union,
    Enum,
    Typedef,
    Static,
    Extern,
    Const,
    Volatile,
    If,
    Else,
    While,
    Do,
    For,
    Return,
    Break,
    Continue,
    Switch,
    Case,
    Default,
    Goto,
    Sizeof,
}

impl Keyword {
    /// Looks up a keyword from its source spelling: the few keywords of
    /// its length and first letter, then one comparison each.
    #[allow(clippy::should_implement_trait)] // returns Option, not Result
    pub(crate) fn from_str(s: &str) -> Option<Keyword> {
        use Keyword::*;
        let candidates: &[Keyword] = match (s.len(), *s.as_bytes().first()?) {
            (2, b'i') => &[If],
            (2, b'd') => &[Do],
            (3, b'i') => &[Int],
            (3, b'f') => &[For],
            (4, b'v') => &[Void],
            (4, b'c') => &[Char, Case],
            (4, b'l') => &[Long],
            (4, b'e') => &[Enum, Else],
            (4, b'g') => &[Goto],
            (5, b's') => &[Short],
            (5, b'f') => &[Float],
            (5, b'u') => &[Union],
            (5, b'c') => &[Const],
            (5, b'w') => &[While],
            (5, b'b') => &[Break],
            (6, b'd') => &[Double],
            (6, b's') => &[Signed, Struct, Static, Switch, Sizeof],
            (6, b'e') => &[Extern],
            (6, b'r') => &[Return],
            (7, b't') => &[Typedef],
            (7, b'd') => &[Default],
            (8, b'u') => &[Unsigned],
            (8, b'v') => &[Volatile],
            (8, b'c') => &[Continue],
            _ => &[],
        };
        candidates.iter().copied().find(|k| k.as_str() == s)
    }

    /// The source spelling of the keyword.
    pub(crate) fn as_str(self) -> &'static str {
        use Keyword::*;
        match self {
            Void => "void",
            Char => "char",
            Short => "short",
            Int => "int",
            Long => "long",
            Float => "float",
            Double => "double",
            Signed => "signed",
            Unsigned => "unsigned",
            Struct => "struct",
            Union => "union",
            Enum => "enum",
            Typedef => "typedef",
            Static => "static",
            Extern => "extern",
            Const => "const",
            Volatile => "volatile",
            If => "if",
            Else => "else",
            While => "while",
            Do => "do",
            For => "for",
            Return => "return",
            Break => "break",
            Continue => "continue",
            Switch => "switch",
            Case => "case",
            Default => "default",
            Goto => "goto",
            Sizeof => "sizeof",
        }
    }
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Punctuation and operator tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub(crate) enum Punct {
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    Arrow,
    Question,
    Colon,
    // Arithmetic / bitwise / logical
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Bang,
    Shl,
    Shr,
    AmpAmp,
    PipePipe,
    // Comparison
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    BangEq,
    // Assignment
    Eq,
    PlusEq,
    MinusEq,
    StarEq,
    SlashEq,
    PercentEq,
    AmpEq,
    PipeEq,
    CaretEq,
    ShlEq,
    ShrEq,
    // Inc/dec
    PlusPlus,
    MinusMinus,
}

impl Punct {
    /// The source spelling of the operator.
    pub(crate) fn as_str(self) -> &'static str {
        use Punct::*;
        match self {
            LParen => "(",
            RParen => ")",
            LBrace => "{",
            RBrace => "}",
            LBracket => "[",
            RBracket => "]",
            Semi => ";",
            Comma => ",",
            Dot => ".",
            Arrow => "->",
            Question => "?",
            Colon => ":",
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Percent => "%",
            Amp => "&",
            Pipe => "|",
            Caret => "^",
            Tilde => "~",
            Bang => "!",
            Shl => "<<",
            Shr => ">>",
            AmpAmp => "&&",
            PipePipe => "||",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            EqEq => "==",
            BangEq => "!=",
            Eq => "=",
            PlusEq => "+=",
            MinusEq => "-=",
            StarEq => "*=",
            SlashEq => "/=",
            PercentEq => "%=",
            AmpEq => "&=",
            PipeEq => "|=",
            CaretEq => "^=",
            ShlEq => "<<=",
            ShrEq => ">>=",
            PlusPlus => "++",
            MinusMinus => "--",
        }
    }
}

impl fmt::Display for Punct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A lexed token: a [`TokenKind`] plus its [`Span`] in the source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Token<'src> {
    /// What was lexed.
    pub kind: TokenKind<'src>,
    /// Where it was lexed from.
    pub span: Span,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::Keyword(k) => write!(f, "{k}"),
            TokenKind::IntLit(v) => write!(f, "{v}"),
            TokenKind::FloatLit(v) => write!(f, "{v}"),
            TokenKind::CharLit(c) => write!(f, "'{c}'"),
            TokenKind::StrLit(raw) => {
                let mut s = String::new();
                crate::lexer::unescape_into(raw, &mut s);
                write!(f, "{s:?}")
            }
            TokenKind::PreprocLine(s) => write!(f, "#{s}"),
            TokenKind::Punct(p) => write!(f, "{p}"),
            TokenKind::Eof => write!(f, "<eof>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_round_trips_through_spelling() {
        use Keyword::*;
        let all = [
            Void, Char, Short, Int, Long, Float, Double, Signed, Unsigned, Struct, Union, Enum,
            Typedef, Static, Extern, Const, Volatile, If, Else, While, Do, For, Return, Break,
            Continue, Switch, Case, Default, Goto, Sizeof,
        ];
        for kw in all {
            assert_eq!(Keyword::from_str(kw.as_str()), Some(kw));
            // A longer or shorter word is an identifier.
            assert_eq!(Keyword::from_str(&format!("{kw}_")), None);
            assert_eq!(Keyword::from_str(&kw.as_str()[1..]), None);
        }
    }

    #[test]
    fn non_keyword_is_rejected() {
        assert_eq!(Keyword::from_str("pthread_t"), None);
        assert_eq!(Keyword::from_str(""), None);
    }

    #[test]
    fn punct_display_matches_spelling() {
        assert_eq!(Punct::Arrow.to_string(), "->");
        assert_eq!(Punct::ShlEq.to_string(), "<<=");
        assert_eq!(Punct::PlusPlus.to_string(), "++");
    }
}
