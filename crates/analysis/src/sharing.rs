//! Sharing status tracking (the right-hand columns of Table 4.2).
//!
//! Each variable carries a three-valued status: `null` (unknown), `false`
//! (private) or `true` (shared). The paper's update discipline (§4.1):
//! *"the sharing status may be refined from true to false or false to true
//! once, but it will not revert. Changes from null are always accepted."*

use std::collections::HashMap;
use std::fmt;

/// Three-valued sharing status of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SharingStatus {
    /// Not yet determined (the paper's `null`).
    #[default]
    Unknown,
    /// Determined private (`false`).
    Private,
    /// Determined shared (`true`).
    Shared,
}

impl SharingStatus {
    /// Whether the variable is currently considered shared.
    pub fn is_shared(self) -> bool {
        self == SharingStatus::Shared
    }
}

impl fmt::Display for SharingStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SharingStatus::Unknown => write!(f, "null"),
            SharingStatus::Private => write!(f, "false"),
            SharingStatus::Shared => write!(f, "true"),
        }
    }
}

/// A variable's status trajectory across the analysis stages.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct StatusHistory {
    /// Status after each recorded stage, in order (stage 1, 2, 3, …).
    pub stages: Vec<SharingStatus>,
}

impl StatusHistory {
    /// The latest status (`Unknown` if no stage recorded yet).
    pub(crate) fn current(&self) -> SharingStatus {
        self.stages.last().copied().unwrap_or_default()
    }
}

/// The sharing-status map updated by stages 1–3 (Table 4.2).
///
/// Enforces the paper's monotonic update discipline: once a status has
/// flipped between `Private` and `Shared` it is pinned; changes from
/// `Unknown` are always accepted.
#[derive(Debug, Clone, Default)]
pub struct SharingMap {
    entries: HashMap<String, StatusHistory>,
    flipped: HashMap<String, bool>,
    order: Vec<String>,
}

impl SharingMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the end-of-stage status for `var`, subject to the update
    /// discipline. Returns the status actually recorded.
    ///
    /// ```
    /// use hsm_analysis::{SharingMap, SharingStatus};
    /// let mut m = SharingMap::new();
    /// m.record("x", SharingStatus::Unknown);   // stage 1: undecided
    /// m.record("x", SharingStatus::Private);   // stage 2: from null — ok
    /// m.record("x", SharingStatus::Shared);    // stage 3: first flip — ok
    /// assert_eq!(m.status("x"), SharingStatus::Shared);
    /// // A second flip is rejected; the status stays pinned.
    /// m.record("x", SharingStatus::Private);
    /// assert_eq!(m.status("x"), SharingStatus::Shared);
    /// ```
    pub fn record(&mut self, var: &str, status: SharingStatus) -> SharingStatus {
        if !self.entries.contains_key(var) {
            self.order.push(var.to_string());
        }
        let hist = self.entries.entry(var.to_string()).or_default();
        let prev = hist.current();
        let flipped = self.flipped.entry(var.to_string()).or_insert(false);
        let accepted = match (prev, status) {
            // From null, always accepted.
            (SharingStatus::Unknown, s) => s,
            // No change.
            (p, s) if p == s => s,
            // First decided-to-decided flip allowed; later ones rejected.
            (_, s) if !*flipped => {
                *flipped = true;
                s
            }
            (p, _) => p,
        };
        hist.stages.push(accepted);
        accepted
    }

    /// The current status of `var` (`Unknown` if never recorded).
    pub fn status(&self, var: &str) -> SharingStatus {
        self.entries
            .get(var)
            .map(|h| h.current())
            .unwrap_or_default()
    }

    /// Variable names currently marked shared, in first-seen order.
    pub fn shared_variables(&self) -> Vec<&str> {
        self.order
            .iter()
            .filter(|v| self.status(v).is_shared())
            .map(|s| s.as_str())
            .collect()
    }

    /// All recorded variable names in first-seen order.
    pub fn variables(&self) -> impl Iterator<Item = &str> {
        self.order.iter().map(|s| s.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_to_anything_is_accepted() {
        let mut m = SharingMap::new();
        assert_eq!(m.record("a", SharingStatus::Shared), SharingStatus::Shared);
        let mut m2 = SharingMap::new();
        assert_eq!(
            m2.record("a", SharingStatus::Private),
            SharingStatus::Private
        );
    }

    #[test]
    fn one_flip_allowed_then_pinned() {
        let mut m = SharingMap::new();
        m.record("g", SharingStatus::Shared); // stage 1 (global)
        m.record("g", SharingStatus::Shared); // stage 2 keeps
        assert_eq!(
            m.record("g", SharingStatus::Private),
            SharingStatus::Private
        ); // stage 3 flip
        assert_eq!(m.record("g", SharingStatus::Shared), SharingStatus::Private);
        // pinned
    }

    #[test]
    fn same_value_does_not_consume_flip() {
        let mut m = SharingMap::new();
        m.record("x", SharingStatus::Private);
        m.record("x", SharingStatus::Private);
        m.record("x", SharingStatus::Private);
        // Flip still available.
        assert_eq!(m.record("x", SharingStatus::Shared), SharingStatus::Shared);
    }

    #[test]
    fn table_4_2_trajectories() {
        // Reproduce the exact trajectories of Table 4.2.
        let expect = [
            (
                "global",
                [
                    SharingStatus::Shared,
                    SharingStatus::Shared,
                    SharingStatus::Private,
                ],
            ),
            (
                "ptr",
                [
                    SharingStatus::Shared,
                    SharingStatus::Shared,
                    SharingStatus::Shared,
                ],
            ),
            (
                "sum",
                [
                    SharingStatus::Shared,
                    SharingStatus::Shared,
                    SharingStatus::Shared,
                ],
            ),
            (
                "tLocal",
                [
                    SharingStatus::Unknown,
                    SharingStatus::Private,
                    SharingStatus::Private,
                ],
            ),
            (
                "tmp",
                [
                    SharingStatus::Unknown,
                    SharingStatus::Private,
                    SharingStatus::Shared,
                ],
            ),
        ];
        for (name, stages) in expect {
            let mut m = SharingMap::new();
            for s in stages {
                m.record(name, s);
            }
            assert_eq!(m.entries[name].stages, stages.to_vec(), "{name}");
        }
    }

    #[test]
    fn shared_variables_preserves_order() {
        let mut m = SharingMap::new();
        m.record("b", SharingStatus::Shared);
        m.record("a", SharingStatus::Shared);
        m.record("c", SharingStatus::Private);
        assert_eq!(m.shared_variables(), vec!["b", "a"]);
    }

    #[test]
    fn display_matches_paper_vocabulary() {
        assert_eq!(SharingStatus::Unknown.to_string(), "null");
        assert_eq!(SharingStatus::Private.to_string(), "false");
        assert_eq!(SharingStatus::Shared.to_string(), "true");
    }
}
