//! Stage 2 — Inter-thread Analysis (Algorithm 1).
//!
//! Determines, for each variable, whether it is seen by no thread, a single
//! thread, or multiple threads, and refines sharing statuses: variables
//! confined to one function's scope become `Private`; globals referenced
//! from thread functions remain `Shared`.

use crate::access::VarKey;
use crate::scope::ScopeAnalysis;
use crate::sharing::{SharingMap, SharingStatus};
use crate::threads::ThreadModel;
use std::collections::BTreeMap;
use std::fmt;

/// Algorithm 1's three-way classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadPresence {
    /// The variable is not referenced inside any thread-entry function.
    NotInThread,
    /// Referenced only inside a thread-entry launched exactly once.
    InSingleThread,
    /// Referenced inside thread entries launched in a loop, at multiple
    /// sites, or inside more than one distinct entry.
    InMultipleThreads,
}

impl fmt::Display for ThreadPresence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThreadPresence::NotInThread => write!(f, "Not in Thread"),
            ThreadPresence::InSingleThread => write!(f, "In Single Thread"),
            ThreadPresence::InMultipleThreads => write!(f, "In Multiple Threads"),
        }
    }
}

/// The output of Stage 2.
#[derive(Debug, Clone, Default)]
pub struct InterThreadAnalysis {
    /// Per-variable thread presence.
    pub presence: BTreeMap<VarKey, ThreadPresence>,
}

impl InterThreadAnalysis {
    /// Implements Algorithm 1 for a single variable.
    ///
    /// `procs_containing_v` is the set of functions in which `v` appears
    /// (built from the Use-In/Def-In sets for globals, or the owning
    /// function for locals); `model` supplies the set `F` of functions
    /// called by `pthread_create` and their launch multiplicity.
    pub(crate) fn variable_in_thread(
        procs_containing_v: &[String],
        model: &ThreadModel,
    ) -> ThreadPresence {
        let entries: Vec<&String> = procs_containing_v
            .iter()
            .filter(|p| model.entry_functions().contains(&p.as_str()))
            .collect();
        if entries.is_empty() {
            return ThreadPresence::NotInThread;
        }
        if entries.len() > 1 {
            return ThreadPresence::InMultipleThreads;
        }
        let proc = entries[0];
        if model.runs_in_multiple_threads(proc) {
            ThreadPresence::InMultipleThreads
        } else {
            ThreadPresence::InSingleThread
        }
    }

    /// Runs Stage 2 and records refined statuses into `sharing`.
    ///
    /// Refinement rules (matching the Table 4.2 "After Stage 2" column):
    ///
    /// * Locals and parameters are function-scoped — `Private` — even when
    ///   that function is a thread entry (each thread gets its own copy).
    /// * Globals referenced from at least one thread entry stay `Shared`.
    /// * Globals referenced only outside threads stay `Shared`
    ///   conservatively (main's writes must still be visible to later
    ///   threads); unused globals are left for Stage 3 post-processing.
    pub fn run(scope: &ScopeAnalysis, model: &ThreadModel, sharing: &mut SharingMap) -> Self {
        let mut presence = BTreeMap::new();
        for var in &scope.variables {
            let procs: Vec<String> = match &var.key.owner {
                Some(owner) => vec![owner.clone()],
                None => {
                    let mut ps = var.used_in.clone();
                    for d in &var.defined_in {
                        if !ps.contains(d) {
                            ps.push(d.clone());
                        }
                    }
                    ps
                }
            };
            let p = Self::variable_in_thread(&procs, model);
            presence.insert(var.key.clone(), p);

            let status = if var.is_global {
                SharingStatus::Shared
            } else {
                SharingStatus::Private
            };
            sharing.record(&var.key.name, status);
        }
        InterThreadAnalysis { presence }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsm_cir::parse;
    use hsm_cir::SymbolTable;
    use std::collections::BTreeSet;

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

    fn setup(src: &str) -> (ScopeAnalysis, ThreadModel, SharingMap, InterThreadAnalysis) {
        let tu = parse(src).unwrap();
        let symbols = SymbolTable::build(&tu);
        let mut sharing = SharingMap::new();
        let scope = ScopeAnalysis::run(&tu, &symbols, &mut sharing);
        let model = ThreadModel::discover(&tu, &BTreeSet::new());
        let inter = InterThreadAnalysis::run(&scope, &model, &mut sharing);
        (scope, model, sharing, inter)
    }

    #[test]
    fn table_4_2_stage_2_column() {
        let (_, _, sharing, _) = setup(EXAMPLE_4_1);
        assert_eq!(sharing.status("global"), SharingStatus::Shared);
        assert_eq!(sharing.status("ptr"), SharingStatus::Shared);
        assert_eq!(sharing.status("sum"), SharingStatus::Shared);
        for private in ["tLocal", "tid", "local", "tmp", "threads", "rc"] {
            assert_eq!(
                sharing.status(private),
                SharingStatus::Private,
                "{private} should be private after stage 2"
            );
        }
    }

    #[test]
    fn sum_is_in_multiple_threads() {
        let (_, _, _, inter) = setup(EXAMPLE_4_1);
        assert_eq!(
            inter.presence[&VarKey::global("sum")],
            ThreadPresence::InMultipleThreads
        );
        assert_eq!(
            inter.presence[&VarKey::global("ptr")],
            ThreadPresence::InMultipleThreads
        );
    }

    #[test]
    fn main_locals_not_in_thread() {
        let (_, _, _, inter) = setup(EXAMPLE_4_1);
        for v in ["local", "tmp", "threads", "rc"] {
            assert_eq!(
                inter.presence[&VarKey::local("main", v)],
                ThreadPresence::NotInThread,
                "{v}"
            );
        }
    }

    #[test]
    fn thread_locals_are_in_multiple_threads() {
        let (_, _, _, inter) = setup(EXAMPLE_4_1);
        // tLocal lives inside tf, which launches in a loop.
        assert_eq!(
            inter.presence[&VarKey::local("tf", "tLocal")],
            ThreadPresence::InMultipleThreads
        );
    }

    #[test]
    fn unused_global_not_in_thread_but_still_shared_after_stage_2() {
        let (_, _, sharing, inter) = setup(EXAMPLE_4_1);
        assert_eq!(
            inter.presence[&VarKey::global("global")],
            ThreadPresence::NotInThread
        );
        assert_eq!(sharing.status("global"), SharingStatus::Shared);
    }

    #[test]
    fn single_launch_yields_single_thread() {
        let src = r#"
int g;
void *w(void *a) { g = 1; return a; }
int main() {
    pthread_t t;
    pthread_create(&t, NULL, w, NULL);
    return 0;
}
"#;
        let (_, _, _, inter) = setup(src);
        assert_eq!(
            inter.presence[&VarKey::global("g")],
            ThreadPresence::InSingleThread
        );
    }

    #[test]
    fn variable_in_two_entries_is_multiple() {
        let src = r#"
int g;
void *a(void *x) { g = 1; return x; }
void *b(void *x) { g = 2; return x; }
int main() {
    pthread_t t1, t2;
    pthread_create(&t1, NULL, a, NULL);
    pthread_create(&t2, NULL, b, NULL);
    return 0;
}
"#;
        let (_, _, _, inter) = setup(src);
        assert_eq!(
            inter.presence[&VarKey::global("g")],
            ThreadPresence::InMultipleThreads
        );
    }

    #[test]
    fn sets_partition_correctly() {
        let (_, _, _, inter) = setup(EXAMPLE_4_1);
        let count = |presence| inter.presence.values().filter(|p| **p == presence).count();
        assert!(count(ThreadPresence::InMultipleThreads) > 0);
        assert_eq!(count(ThreadPresence::InSingleThread), 0);
    }
}
