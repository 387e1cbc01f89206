//! Error type for the translation pipeline.

use std::error::Error;
use std::fmt;

/// An error produced while translating a pthread program to RCCE.
#[derive(Debug, Clone, PartialEq)]
pub struct TranslateError {
    kind: Kind,
    message: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// The input program uses a construct outside the supported subset.
    Unsupported,
    /// The pipeline itself misbehaved (IR corruption).
    Internal,
    /// The input failed to parse.
    Parse,
}

impl TranslateError {
    /// An unsupported-construct error.
    pub(crate) fn unsupported(message: impl Into<String>) -> Self {
        TranslateError {
            kind: Kind::Unsupported,
            message: message.into(),
        }
    }

    /// An internal pipeline error.
    pub(crate) fn internal(message: impl Into<String>) -> Self {
        TranslateError {
            kind: Kind::Internal,
            message: message.into(),
        }
    }
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prefix = match self.kind {
            Kind::Unsupported => "unsupported construct",
            Kind::Internal => "internal translator error",
            Kind::Parse => "parse error",
        };
        write!(f, "{prefix}: {}", self.message)
    }
}

impl Error for TranslateError {}

impl From<hsm_cir::ParseError> for TranslateError {
    fn from(e: hsm_cir::ParseError) -> Self {
        TranslateError {
            kind: Kind::Parse,
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prefixes_by_kind() {
        assert!(TranslateError::unsupported("x")
            .to_string()
            .starts_with("unsupported construct"));
        assert!(TranslateError::internal("x")
            .to_string()
            .starts_with("internal translator error"));
    }
}
