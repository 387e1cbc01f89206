//! Error types for lexing and parsing.

use crate::span::Loc;
use std::error::Error;
use std::fmt;

/// An error produced while lexing C source text.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LexError {
    /// Where the error occurred.
    pub loc: Loc,
    /// Human-readable description, lowercase, no trailing punctuation.
    pub message: String,
}

impl LexError {
    /// Creates a lex error at `loc`.
    pub(crate) fn new(loc: Loc, message: impl Into<String>) -> Self {
        LexError {
            loc,
            message: message.into(),
        }
    }
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.loc, self.message)
    }
}

impl Error for LexError {}

/// An error produced while parsing a token stream into an AST.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Where the error occurred.
    pub loc: Loc,
    /// Human-readable description, lowercase, no trailing punctuation.
    pub message: String,
}

impl ParseError {
    /// Creates a parse error at `loc`.
    pub fn new(loc: Loc, message: impl Into<String>) -> Self {
        ParseError {
            loc,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.loc, self.message)
    }
}

impl Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            loc: e.loc,
            message: e.message,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_location() {
        let e = LexError::new(Loc::new(2, 7), "unterminated string literal");
        assert_eq!(
            e.to_string(),
            "lex error at 2:7: unterminated string literal"
        );
    }

    #[test]
    fn lex_error_converts_to_parse_error() {
        let e: ParseError = LexError::new(Loc::new(1, 1), "bad").into();
        assert_eq!(e.loc, Loc::new(1, 1));
        assert_eq!(e.message, "bad");
    }
}
