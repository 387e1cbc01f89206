//! Stage 1 — Variable Scope Analysis.
//!
//! Extracts the per-variable record of Table 4.1 (name, type, size,
//! read/write counts, use-in/def-in sets) and assigns the initial sharing
//! status: globals start `Shared`, everything else starts `Unknown`
//! (the paper's `null`).

use crate::access::{AccessCounts, AccessMap, CountMode, VarKey};
use crate::sharing::{SharingMap, SharingStatus};
use hsm_cir::CType;
use hsm_cir::TranslationUnit;
use hsm_cir::{Scope, SymbolKind, SymbolTable};

/// Everything Stage 1 knows about one variable (one row of Table 4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct VariableInfo {
    /// Resolution key (name + owning function).
    pub key: VarKey,
    /// Declared type.
    pub ty: CType,
    /// Element count (the table's "Size": 3 for `int sum[3]`, 1 for scalars).
    pub size: usize,
    /// Total footprint in bytes (`mem_size` for Algorithm 3).
    pub mem_size: usize,
    /// Syntactic read/write counts.
    pub counts: AccessCounts,
    /// Functions reading the variable ("Use In"; empty = the table's `null`).
    pub used_in: Vec<String>,
    /// Functions writing the variable ("Def In").
    pub defined_in: Vec<String>,
    /// Whether the variable is global.
    pub is_global: bool,
    /// Whether its address is taken anywhere.
    pub address_taken: bool,
}

/// The output of Stage 1.
#[derive(Debug, Clone, Default)]
pub struct ScopeAnalysis {
    /// Per-variable records in declaration order.
    pub variables: Vec<VariableInfo>,
    /// Loop-weighted access counts (for Stage 4's frequency estimates).
    pub weighted: Vec<(VarKey, AccessCounts)>,
}

impl ScopeAnalysis {
    /// Runs Stage 1 over `tu`, recording initial statuses into `sharing`.
    pub fn run(tu: &TranslationUnit, symbols: &SymbolTable, sharing: &mut SharingMap) -> Self {
        let occurrence = AccessMap::compute(tu, symbols, CountMode::Occurrence);
        let weighted_map = AccessMap::compute(tu, symbols, CountMode::LoopWeighted);

        let mut variables = Vec::new();
        let mut weighted = Vec::new();
        for sym in symbols.iter() {
            if sym.kind != SymbolKind::Variable {
                continue;
            }
            // Skip pthread bookkeeping types? No — Stage 1 records them;
            // later stages and the translator decide their fate.
            let key = match &sym.scope {
                Scope::Global => VarKey::global(sym.name.clone()),
                Scope::Local(f) | Scope::Param(f) => VarKey::local(f.clone(), sym.name.clone()),
            };
            let counts = occurrence.counts(&key);
            let info = VariableInfo {
                ty: sym.ty.clone(),
                size: sym.ty.count(),
                mem_size: sym.ty.mem_size(),
                counts,
                used_in: occurrence.used_in(&key).to_vec(),
                defined_in: occurrence.defined_in(&key).to_vec(),
                is_global: sym.scope == Scope::Global,
                address_taken: occurrence.is_address_taken(&key),
                key: key.clone(),
            };
            // Initial status: globals shared, others null.
            let status = if info.is_global {
                SharingStatus::Shared
            } else {
                SharingStatus::Unknown
            };
            sharing.record(&info.key.name, status);
            weighted.push((key, weighted_map.counts(&info.key)));
            variables.push(info);
        }
        ScopeAnalysis {
            variables,
            weighted,
        }
    }

    /// Looks up a variable record by key.
    pub fn variable(&self, key: &VarKey) -> Option<&VariableInfo> {
        self.variables.iter().find(|v| &v.key == key)
    }

    /// Loop-weighted counts for a variable.
    pub fn weighted_counts(&self, key: &VarKey) -> AccessCounts {
        self.weighted
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, c)| *c)
            .unwrap_or_default()
    }

    /// All global variable records.
    pub fn globals(&self) -> impl Iterator<Item = &VariableInfo> {
        self.variables.iter().filter(|v| v.is_global)
    }
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

    fn run(src: &str) -> (ScopeAnalysis, SharingMap) {
        let tu = parse(src).unwrap();
        let symbols = SymbolTable::build(&tu);
        let mut sharing = SharingMap::new();
        let analysis = ScopeAnalysis::run(&tu, &symbols, &mut sharing);
        (analysis, sharing)
    }

    #[test]
    fn table_4_1_sizes_and_types() {
        let (a, _) = run(EXAMPLE_4_1);
        let sum = a.variable(&VarKey::global("sum")).unwrap();
        assert_eq!(sum.size, 3);
        assert_eq!(sum.mem_size, 12);
        let threads = a.variable(&VarKey::local("main", "threads")).unwrap();
        assert_eq!(threads.size, 3);
        let global = a.variable(&VarKey::global("global")).unwrap();
        assert_eq!(global.size, 1);
        assert_eq!(global.counts, AccessCounts::default());
    }

    #[test]
    fn initial_statuses_follow_stage_1_rules() {
        let (_, sharing) = run(EXAMPLE_4_1);
        assert_eq!(sharing.status("global"), SharingStatus::Shared);
        assert_eq!(sharing.status("ptr"), SharingStatus::Shared);
        assert_eq!(sharing.status("sum"), SharingStatus::Shared);
        assert_eq!(sharing.status("tLocal"), SharingStatus::Unknown);
        assert_eq!(sharing.status("tid"), SharingStatus::Unknown);
        assert_eq!(sharing.status("local"), SharingStatus::Unknown);
        assert_eq!(sharing.status("tmp"), SharingStatus::Unknown);
        assert_eq!(sharing.status("threads"), SharingStatus::Unknown);
        assert_eq!(sharing.status("rc"), SharingStatus::Unknown);
    }

    #[test]
    fn use_def_sets_recorded() {
        let (a, _) = run(EXAMPLE_4_1);
        let sum = a.variable(&VarKey::global("sum")).unwrap();
        assert_eq!(sum.used_in, vec!["tf", "main"]);
        assert_eq!(sum.defined_in, vec!["tf"]);
        let global = a.variable(&VarKey::global("global")).unwrap();
        assert!(global.used_in.is_empty());
        assert!(global.defined_in.is_empty());
    }

    #[test]
    fn globals_iterator_only_globals() {
        let (a, _) = run(EXAMPLE_4_1);
        let names: Vec<_> = a.globals().map(|v| v.key.name.clone()).collect();
        assert_eq!(names, vec!["global", "ptr", "sum"]);
    }

    #[test]
    fn weighted_counts_available_for_partitioner() {
        let (a, _) = run(EXAMPLE_4_1);
        let rc = a.weighted_counts(&VarKey::local("main", "rc"));
        assert_eq!(rc.writes, 3);
    }

    #[test]
    fn address_taken_flag_present() {
        let (a, _) = run(EXAMPLE_4_1);
        assert!(
            a.variable(&VarKey::local("main", "tmp"))
                .unwrap()
                .address_taken
        );
        assert!(!a.variable(&VarKey::global("sum")).unwrap().address_taken);
    }
}
