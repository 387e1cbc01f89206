//! Source locations and spans for diagnostics.
//!
//! Every token, and through it every AST node, carries a [`Span`] pointing
//! back into the original C source so analyses and the translator can report
//! precise locations.

use std::fmt;

/// A position in the source text (1-based line and column).
///
/// ```
/// use hsm_cir::Loc;
/// let loc = Loc::new(3, 14);
/// assert_eq!(loc.to_string(), "3:14");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Loc {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl Loc {
    /// Creates a location from 1-based line and column numbers.
    pub fn new(line: u32, col: u32) -> Self {
        Loc { line, col }
    }

    /// The first position of a source file.
    pub fn start() -> Self {
        Loc { line: 1, col: 1 }
    }
}

impl Default for Loc {
    fn default() -> Self {
        Loc::start()
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A contiguous region of source text, `[start, end)`.
///
/// ```
/// use hsm_cir::{Loc, Span};
/// let span = Span::new(Loc::new(1, 1), Loc::new(1, 4));
/// assert_eq!(span.to_string(), "1:1-1:4");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Start of the region (inclusive).
    pub start: Loc,
    /// End of the region (exclusive).
    pub end: Loc,
}

impl Span {
    /// Creates a span covering `[start, end)`.
    pub fn new(start: Loc, end: Loc) -> Self {
        Span { start, end }
    }

    /// A span covering a single position.
    pub fn point(loc: Loc) -> Self {
        Span {
            start: loc,
            end: loc,
        }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_ordering_is_line_major() {
        assert!(Loc::new(1, 9) < Loc::new(2, 1));
        assert!(Loc::new(2, 1) < Loc::new(2, 2));
    }

    #[test]
    fn span_merge_covers_both() {
        let a = Span::new(Loc::new(1, 1), Loc::new(1, 5));
        let b = Span::new(Loc::new(2, 3), Loc::new(2, 9));
        let m = a.merge(b);
        assert_eq!(m.start, Loc::new(1, 1));
        assert_eq!(m.end, Loc::new(2, 9));
    }

    #[test]
    fn span_merge_is_commutative() {
        let a = Span::new(Loc::new(1, 1), Loc::new(1, 5));
        let b = Span::new(Loc::new(2, 3), Loc::new(2, 9));
        assert_eq!(a.merge(b), b.merge(a));
    }

    #[test]
    fn default_loc_is_start() {
        assert_eq!(Loc::default(), Loc::new(1, 1));
    }
}
