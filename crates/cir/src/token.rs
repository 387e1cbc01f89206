//! Token definitions for the C-subset lexer.

use crate::span::Span;
use std::fmt;

/// The kind of a lexed token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TokenKind {
    /// An identifier or keyword candidate, e.g. `main`, `pthread_create`.
    Ident(String),
    /// A reserved keyword, e.g. `int`, `for`, `return`.
    Keyword(Keyword),
    /// An integer literal. Hex (`0x`), octal (`0`) and decimal forms are
    /// normalized to their value.
    IntLit(i64),
    /// A floating-point literal.
    FloatLit(f64),
    /// A character literal such as `'a'` (escapes resolved).
    CharLit(char),
    /// A string literal with escapes resolved.
    StrLit(String),
    /// A preprocessor line, e.g. `#include <stdio.h>`, kept verbatim
    /// (without the leading `#`).
    PreprocLine(String),
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
    /// Looks up a keyword from its source spelling.
    #[allow(clippy::should_implement_trait)] // returns Option, not Result
    pub(crate) fn from_str(s: &str) -> Option<Keyword> {
        use Keyword::*;
        Some(match s {
            "void" => Void,
            "char" => Char,
            "short" => Short,
            "int" => Int,
            "long" => Long,
            "float" => Float,
            "double" => Double,
            "signed" => Signed,
            "unsigned" => Unsigned,
            "struct" => Struct,
            "union" => Union,
            "enum" => Enum,
            "typedef" => Typedef,
            "static" => Static,
            "extern" => Extern,
            "const" => Const,
            "volatile" => Volatile,
            "if" => If,
            "else" => Else,
            "while" => While,
            "do" => Do,
            "for" => For,
            "return" => Return,
            "break" => Break,
            "continue" => Continue,
            "switch" => Switch,
            "case" => Case,
            "default" => Default,
            "goto" => Goto,
            "sizeof" => Sizeof,
            _ => return None,
        })
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
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// Where it was lexed from.
    pub span: Span,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::Keyword(k) => write!(f, "{k}"),
            TokenKind::IntLit(v) => write!(f, "{v}"),
            TokenKind::FloatLit(v) => write!(f, "{v}"),
            TokenKind::CharLit(c) => write!(f, "'{c}'"),
            TokenKind::StrLit(s) => write!(f, "{s:?}"),
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
        for kw in [
            Keyword::Void,
            Keyword::Int,
            Keyword::Double,
            Keyword::For,
            Keyword::Sizeof,
            Keyword::Unsigned,
        ] {
            assert_eq!(Keyword::from_str(kw.as_str()), Some(kw));
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
