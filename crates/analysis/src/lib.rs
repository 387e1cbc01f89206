//! # hsm-analysis — Stages 1–3 of the HSM translation framework
//!
//! Implements the analysis half of the paper *Enabling Multi-threaded
//! Applications on Hybrid Shared Memory Manycore Architectures*:
//!
//! * **Stage 1** ([`ScopeAnalysis`]) — variable scope analysis: per-variable name,
//!   type, size, read/write counts and use/def function sets (Table 4.1).
//! * **Stage 2** ([`InterThreadAnalysis`]) — inter-thread analysis (Algorithm 1):
//!   which variables are seen by no/one/multiple threads; locals become
//!   private, globals referenced from threads stay shared.
//! * **Stage 3** ([`PointsToAnalysis`]) — interprocedural points-to analysis
//!   (Algorithm 2): objects definitely pointed at by shared pointers become
//!   shared (`tmp` in Table 4.2); unused globals are demoted to private.
//!
//! [`ProgramAnalysis::analyze`] runs all three and snapshots the sharing
//! status after each stage, reproducing Table 4.2 exactly.
//!
//! ```
//! # fn main() -> Result<(), hsm_cir::ParseError> {
//! use hsm_analysis::{ProgramAnalysis, SharingStatus};
//! let tu = hsm_cir::parse(r#"
//!     int *ptr;
//!     void *tf(void *tid) { *ptr = 1; return tid; }
//!     int main() {
//!         int tmp = 1;
//!         pthread_t t;
//!         ptr = &tmp;
//!         pthread_create(&t, NULL, tf, NULL);
//!         return 0;
//!     }
//! "#)?;
//! let analysis = ProgramAnalysis::analyze(&tu);
//! // `tmp` is local to main but escapes through the shared pointer.
//! assert_eq!(analysis.final_status("tmp"), SharingStatus::Shared);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod access;
mod interthread;
mod manifest;
mod points_to;
mod report;
mod scope;
mod sharing;
mod threads;

use hsm_cir::SymbolTable;
use hsm_cir::TranslationUnit;
use points_to::Propagation;

pub use access::{trip_count, AccessCounts, VarKey};
pub use interthread::{InterThreadAnalysis, ThreadPresence};
pub use manifest::{ClassificationManifest, RegionVerdict, VarVerdict};
pub use points_to::{PointsToAnalysis, PointsToFact};
pub use scope::{ScopeAnalysis, VariableInfo};
pub use sharing::{SharingMap, SharingStatus};
pub use threads::{ThreadLaunch, ThreadModel};

/// The combined result of running stages 1–3 on a translation unit.
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    /// Symbol table of the analyzed unit.
    pub symbols: SymbolTable,
    /// Stage 1 output.
    pub scope: ScopeAnalysis,
    /// Discovered thread structure.
    pub threads: ThreadModel,
    /// Stage 2 output.
    pub interthread: InterThreadAnalysis,
    /// Stage 3 output.
    pub points_to: PointsToAnalysis,
    /// Final sharing map (after stage 3).
    pub sharing: SharingMap,
    /// Status snapshots, one per stage: the status of each variable of
    /// `scope.variables`, index for index.
    snapshots: [Vec<SharingStatus>; 3],
}

impl ProgramAnalysis {
    /// Runs all three analysis stages with conservative pointer
    /// propagation (the default).
    pub fn analyze(tu: &TranslationUnit) -> Self {
        Self::analyze_with(tu, Propagation::Conservative)
    }

    /// Runs all three analysis stages with the given propagation mode.
    pub(crate) fn analyze_with(tu: &TranslationUnit, mode: Propagation) -> Self {
        let symbols = SymbolTable::build(tu);
        let mut sharing = SharingMap::new();

        let scope = ScopeAnalysis::run(tu, &symbols, &mut sharing);
        let snap1 = snapshot(&scope, &sharing);

        let threads = ThreadModel::discover(tu, &Default::default());
        let interthread = InterThreadAnalysis::run(&scope, &threads, &mut sharing);
        let snap2 = snapshot(&scope, &sharing);

        let points_to = PointsToAnalysis::run(tu, &symbols);
        points_to.apply_to_sharing(&scope, &mut sharing, mode);
        let snap3 = snapshot(&scope, &sharing);

        ProgramAnalysis {
            symbols,
            scope,
            threads,
            interthread,
            points_to,
            sharing,
            snapshots: [snap1, snap2, snap3],
        }
    }

    /// The sharing status of `name` after the 1-based `stage` (1–3).
    ///
    /// # Panics
    ///
    /// Panics if `stage` is not in `1..=3`.
    pub fn status_after_stage(&self, name: &str, stage: usize) -> SharingStatus {
        assert!((1..=3).contains(&stage), "stage must be 1..=3");
        // Statuses are per name, so the first variable of that name speaks
        // for all of them.
        self.scope
            .variables
            .iter()
            .position(|v| v.key.name == name)
            .map(|i| self.snapshots[stage - 1][i])
            .unwrap_or_default()
    }

    /// The final (post-stage-3) sharing status of `name`.
    pub fn final_status(&self, name: &str) -> SharingStatus {
        self.sharing.status(name)
    }

    /// Variables that must be mapped to shared memory, in declaration
    /// order, with their Stage 1 records. This is the set handed to the
    /// Stage 4 partitioner.
    pub fn shared_variables(&self) -> Vec<&VariableInfo> {
        self.scope
            .variables
            .iter()
            .filter(|v| self.final_status(&v.key.name).is_shared())
            .collect()
    }

    /// Renders Table 4.1 for this program.
    pub fn render_table_4_1(&self) -> String {
        report::table_4_1(self)
    }

    /// Renders Table 4.2 for this program.
    pub fn render_table_4_2(&self) -> String {
        report::table_4_2(self)
    }
}

fn snapshot(scope: &ScopeAnalysis, sharing: &SharingMap) -> Vec<SharingStatus> {
    scope
        .variables
        .iter()
        .map(|v| sharing.status(&v.key.name))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsm_cir::parse;

    const EXAMPLE_4_1: &str = r#"
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

    /// The full Table 4.2 from the thesis, reproduced cell by cell.
    #[test]
    fn table_4_2_exact() {
        use SharingStatus::*;
        let tu = parse(EXAMPLE_4_1).unwrap();
        let a = ProgramAnalysis::analyze(&tu);
        let expected = [
            ("global", Shared, Shared, Private),
            ("ptr", Shared, Shared, Shared),
            ("sum", Shared, Shared, Shared),
            ("tLocal", Unknown, Private, Private),
            ("tid", Unknown, Private, Private),
            ("local", Unknown, Private, Private),
            ("tmp", Unknown, Private, Shared),
            ("threads", Unknown, Private, Private),
            ("rc", Unknown, Private, Private),
        ];
        for (name, s1, s2, s3) in expected {
            assert_eq!(a.status_after_stage(name, 1), s1, "{name} stage 1");
            assert_eq!(a.status_after_stage(name, 2), s2, "{name} stage 2");
            assert_eq!(a.status_after_stage(name, 3), s3, "{name} stage 3");
        }
    }

    #[test]
    fn shared_set_feeds_partitioner() {
        let tu = parse(EXAMPLE_4_1).unwrap();
        let a = ProgramAnalysis::analyze(&tu);
        let names: Vec<_> = a
            .shared_variables()
            .iter()
            .map(|v| v.key.name.clone())
            .collect();
        assert_eq!(names, vec!["ptr", "sum", "tmp"]);
    }

    #[test]
    fn status_of_unknown_variable_is_unknown() {
        let tu = parse("int main() { return 0; }").unwrap();
        let a = ProgramAnalysis::analyze(&tu);
        assert_eq!(a.final_status("nope"), SharingStatus::Unknown);
    }

    #[test]
    #[should_panic(expected = "stage must be 1..=3")]
    fn stage_out_of_range_panics() {
        let tu = parse("int main() { return 0; }").unwrap();
        let a = ProgramAnalysis::analyze(&tu);
        let _ = a.status_after_stage("x", 4);
    }

    #[test]
    fn program_without_threads_has_no_shared_locals() {
        let tu = parse("int g; int main() { int l = g; return l; }").unwrap();
        let a = ProgramAnalysis::analyze(&tu);
        assert_eq!(a.final_status("l"), SharingStatus::Private);
    }
}
