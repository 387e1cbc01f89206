//! The machine-readable classification manifest.
//!
//! [`ClassificationManifest`] is the contract between the static half of
//! the pipeline (Stages 1–3, plus the Stage 4 region assignment) and the
//! dynamic sharing-soundness oracle in `hsm-exec`: one row per analyzed
//! variable carrying its per-stage sharing history (Table 4.2), its final
//! verdict, and the memory region the partitioner mapped it to. The
//! oracle replays a program and checks every memory access against these
//! rows; a violation means Stages 1–3 were *unsound* for that program,
//! not merely imprecise.
//!
//! The manifest is deliberately self-contained (names and plain enums, no
//! AST references) so it can cross crate boundaries and be serialized
//! into the run manifest by `hsm-bench`.

use crate::sharing::SharingStatus;
use crate::ProgramAnalysis;

/// The memory region a variable's storage lands in after Stage 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RegionVerdict {
    /// Per-core private memory (the default for every non-shared
    /// variable; cacheable, never coherent).
    #[default]
    Private,
    /// Shared off-chip DRAM (uncacheable).
    SharedOffChip,
    /// Shared on-chip memory (MPB SRAM).
    SharedOnChip,
}

impl RegionVerdict {
    /// Stable lower-snake-case label used in JSON renderings.
    pub fn label(self) -> &'static str {
        match self {
            RegionVerdict::Private => "private",
            RegionVerdict::SharedOffChip => "shared_off_chip",
            RegionVerdict::SharedOnChip => "shared_on_chip",
        }
    }
}

/// One variable's classification row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarVerdict {
    /// Source name.
    pub name: String,
    /// Enclosing function for locals and parameters; `None` for globals.
    pub owner: Option<String>,
    /// Whether the variable has global storage.
    pub is_global: bool,
    /// Storage footprint in bytes (Stage 1's `mem_size`).
    pub mem_size: usize,
    /// Sharing status after each of Stages 1–3 (Table 4.2's columns).
    pub stages: [SharingStatus; 3],
    /// The final verdict the translator acts on.
    pub verdict: SharingStatus,
    /// The Stage 4 region assignment.
    pub region: RegionVerdict,
}

/// The full classification of one program: every Stage 1 variable with
/// its verdict and region, in declaration order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassificationManifest {
    /// Classification rows in Stage 1 declaration order.
    pub entries: Vec<VarVerdict>,
}

impl ClassificationManifest {
    /// A manifest with no rows. An oracle driven by an empty manifest
    /// performs pure happens-before race detection (no ownership or
    /// staleness claims to check).
    pub fn empty() -> Self {
        ClassificationManifest::default()
    }

    /// Builds the manifest from a completed Stage 1–3 analysis. Region
    /// assignments default to [`RegionVerdict::Private`] for non-shared
    /// variables and [`RegionVerdict::SharedOffChip`] for shared ones
    /// (the paper's unpartitioned baseline); apply a `PartitionPlan` via
    /// `hsm_partition::annotate_manifest` to refine them.
    pub fn from_analysis(analysis: &ProgramAnalysis) -> Self {
        let entries = analysis
            .scope
            .variables
            .iter()
            .map(|v| {
                let verdict = analysis.final_status(&v.key.name);
                VarVerdict {
                    name: v.key.name.clone(),
                    owner: v.key.owner.clone(),
                    is_global: v.is_global,
                    mem_size: v.mem_size,
                    stages: [
                        analysis.status_after_stage(&v.key.name, 1),
                        analysis.status_after_stage(&v.key.name, 2),
                        analysis.status_after_stage(&v.key.name, 3),
                    ],
                    verdict,
                    region: if verdict.is_shared() {
                        RegionVerdict::SharedOffChip
                    } else {
                        RegionVerdict::Private
                    },
                }
            })
            .collect();
        ClassificationManifest { entries }
    }

    /// Overwrites the region of every row named `name` (sharing verdicts
    /// are name-keyed throughout Stages 2–4, so a name maps to one
    /// region even when it occurs in several scopes).
    pub fn set_region(&mut self, name: &str, region: RegionVerdict) {
        for e in &mut self.entries {
            if e.name == name {
                e.region = region;
            }
        }
    }

    /// The row for `name`, preferring an exact `owner` match and falling
    /// back to the global row of the same name.
    pub fn entry(&self, name: &str, owner: Option<&str>) -> Option<&VarVerdict> {
        self.entries
            .iter()
            .find(|e| e.name == name && e.owner.as_deref() == owner)
            .or_else(|| self.entries.iter().find(|e| e.name == name && e.is_global))
    }

    /// The final verdict for `name` (resolution as in [`Self::entry`]).
    pub fn verdict_of(&self, name: &str, owner: Option<&str>) -> Option<SharingStatus> {
        self.entry(name, owner).map(|e| e.verdict)
    }

    /// Row counts by final verdict: `(shared, private, unknown)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for e in &self.entries {
            match e.verdict {
                SharingStatus::Shared => c.0 += 1,
                SharingStatus::Private => c.1 += 1,
                SharingStatus::Unknown => c.2 += 1,
            }
        }
        c
    }

    /// Renders the manifest as a deterministic single-line JSON array,
    /// one object per row, in declaration order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"owner\":{},\"global\":{},\"bytes\":{},\
                 \"stages\":[{}],\"verdict\":\"{}\",\"region\":\"{}\"}}",
                escape(&e.name),
                match &e.owner {
                    Some(o) => format!("\"{}\"", escape(o)),
                    None => "null".to_string(),
                },
                e.is_global,
                e.mem_size,
                e.stages
                    .iter()
                    .map(|s| format!("\"{}\"", status_label(*s)))
                    .collect::<Vec<_>>()
                    .join(","),
                status_label(e.verdict),
                e.region.label(),
            ));
        }
        out.push(']');
        out
    }
}

/// Stable label for a sharing status (the paper prints these as
/// `true`/`false`/`null`; the manifest uses self-describing words).
pub(crate) fn status_label(s: SharingStatus) -> &'static str {
    match s {
        SharingStatus::Shared => "shared",
        SharingStatus::Private => "private",
        SharingStatus::Unknown => "unknown",
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsm_cir::parse;

    const SRC: &str = r#"
int global;
int *ptr;
int sum[3] = {0};

void *tf(void * tid) {
    int tLocal = (int)tid;
    sum[tLocal] += tLocal;
    sum[tLocal] += *ptr;
    pthread_exit(NULL);
}

int main() {
    int local = 0;
    int tmp = 1;
    ptr = &tmp;
    pthread_t threads[3];
    int rc;
    for(local = 0; local < 3; local++) {
        rc = pthread_create(&threads[local], NULL, tf, (void *) local);
    }
    for(local = 0; local < 3; local++) {
        pthread_join(threads[local], NULL);
        printf("Sum Array: %d\n", sum[local]);
    }
    return 0;
}
"#;

    fn manifest() -> ClassificationManifest {
        let tu = parse(SRC).unwrap();
        ClassificationManifest::from_analysis(&ProgramAnalysis::analyze(&tu))
    }

    #[test]
    fn verdicts_match_table_4_2() {
        let m = manifest();
        assert_eq!(
            m.verdict_of("tmp", Some("main")),
            Some(SharingStatus::Shared)
        );
        assert_eq!(m.verdict_of("sum", None), Some(SharingStatus::Shared));
        assert_eq!(
            m.verdict_of("global", None),
            Some(SharingStatus::Private),
            "unused global demoted at stage 3"
        );
        assert_eq!(
            m.verdict_of("local", Some("main")),
            Some(SharingStatus::Private)
        );
        assert_eq!(m.verdict_of("missing", None), None);
    }

    #[test]
    fn stage_history_is_preserved() {
        let m = manifest();
        let tmp = m.entry("tmp", Some("main")).unwrap();
        assert_eq!(
            tmp.stages,
            [
                SharingStatus::Unknown,
                SharingStatus::Private,
                SharingStatus::Shared
            ],
            "tmp flips at stage 3 (Table 4.2)"
        );
    }

    #[test]
    fn owner_resolution_prefers_exact_match() {
        let m = manifest();
        let local = m.entry("local", Some("main")).unwrap();
        assert_eq!(local.owner.as_deref(), Some("main"));
        // Unknown owner falls back to the global row.
        let sum = m.entry("sum", Some("tf")).unwrap();
        assert!(sum.is_global);
    }

    #[test]
    fn default_regions_follow_verdicts() {
        let mut m = manifest();
        assert_eq!(
            m.entry("sum", None).unwrap().region,
            RegionVerdict::SharedOffChip
        );
        assert_eq!(
            m.entry("local", Some("main")).unwrap().region,
            RegionVerdict::Private
        );
        m.set_region("sum", RegionVerdict::SharedOnChip);
        assert_eq!(
            m.entry("sum", None).unwrap().region,
            RegionVerdict::SharedOnChip
        );
    }

    #[test]
    fn json_rendering_is_deterministic_and_labeled() {
        let m = manifest();
        let j = m.to_json();
        assert_eq!(j, manifest().to_json());
        assert!(j.starts_with('['), "{j}");
        assert!(j.contains(
            "\"name\":\"tmp\",\"owner\":\"main\",\"global\":false,\"bytes\":4,\
             \"stages\":[\"unknown\",\"private\",\"shared\"],\"verdict\":\"shared\""
        ));
    }

    #[test]
    fn counts_sum_to_entry_count() {
        let m = manifest();
        let (s, p, u) = m.counts();
        assert_eq!(s + p + u, m.entries.len());
        assert!(s >= 3, "ptr, sum, tmp");
        assert_eq!(u, 0, "every variable is decided after stage 3");
    }

    #[test]
    fn empty_manifest_has_no_claims() {
        let m = ClassificationManifest::empty();
        assert!(m.entries.is_empty());
        assert_eq!(m.to_json(), "[]");
        assert_eq!(m.verdict_of("anything", None), None);
    }
}
