//! # hsm-translate — Stage 5: the pthread→RCCE source-to-source translator
//!
//! Converts a well-defined Pthread program into a multi-process RCCE
//! program executable on the (simulated) Intel SCC, implementing
//! Algorithms 4–10 of the paper as an ordered list of nine passes, each a
//! plain function over the unit; after the last one, the IR they leave is
//! checked once to print to text that re-parses. Every pthread call is
//! converted through one table or refused as an unsupported construct.
//!
//! The translation reproduces Example Code 4.2 from Example Code 4.1:
//! threads become processes keyed by `RCCE_ue()`, shared globals become
//! `RCCE_shmalloc`/`RCCE_malloc` allocations, `pthread_join` loops become
//! `RCCE_barrier`, and all pthread vestiges are stripped. Every core runs
//! all of `main`, so the shared writes and mutex operations of its serial
//! code, before the first launch and after the last join, run on core 0.
//!
//! ```
//! # fn main() -> Result<(), hsm_translate::TranslateError> {
//! use hsm_translate::translate_source;
//!
//! let rcce = translate_source(r#"
//!     #include <pthread.h>
//!     int counter[4];
//!     void *tf(void *tid) { counter[(int)tid]++; return tid; }
//!     int main() {
//!         pthread_t t[4];
//!         int i;
//!         for (i = 0; i < 4; i++) pthread_create(&t[i], NULL, tf, (void *)i);
//!         for (i = 0; i < 4; i++) pthread_join(t[i], NULL);
//!         return 0;
//!     }
//! "#)?;
//! assert!(rcce.contains("RCCE_init"));
//! assert!(rcce.contains("RCCE_barrier"));
//! assert!(!rcce.contains("pthread_create"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod error;
mod pass;
mod passes;
mod rewrite;

pub use error::TranslateError;

use pass::{Pass, PassContext};

use hsm_analysis::ProgramAnalysis;
use hsm_cir::{parse, TranslationUnit};
use hsm_partition::{MemorySpec, PartitionPlan, Policy};
use std::sync::Arc;

/// Options controlling a translation run.
#[derive(Debug, Clone, PartialEq)]
pub struct TranslateOptions {
    /// Number of participating cores (sizes the MPB the partitioner sees).
    pub cores: usize,
    /// Partitioning policy for shared data (Figure 6.1 uses
    /// [`Policy::OffChipOnly`], Figure 6.2 the default Algorithm 3).
    pub policy: Policy,
}

impl Default for TranslateOptions {
    fn default() -> Self {
        TranslateOptions {
            cores: 32,
            policy: Policy::SizeAscending,
        }
    }
}

/// The full result of a translation run.
#[derive(Debug, Clone)]
pub struct Translation {
    /// The rewritten unit.
    pub unit: TranslationUnit,
    /// The analysis of the original program, shared with whoever made it.
    pub analysis: Arc<ProgramAnalysis>,
    /// The Stage 4 plan that drove allocation placement, shared likewise.
    pub plan: Arc<PartitionPlan>,
    /// `unit` as printed, and checked to re-parse, when the translation
    /// was made. Private, so only this crate's two constructors set it; a
    /// caller that edits `unit` afterwards prints it itself.
    source: String,
}

impl Translation {
    /// A translation whose `unit` is what `source` parses to: how a stored
    /// translation is brought back without re-running the passes.
    ///
    /// # Errors
    ///
    /// Returns the parse error when `source` is not valid C in the subset.
    pub fn from_source(
        source: String,
        analysis: Arc<ProgramAnalysis>,
        plan: Arc<PartitionPlan>,
    ) -> Result<Self, hsm_cir::ParseError> {
        Ok(Translation {
            unit: parse(&source)?,
            analysis,
            plan,
            source,
        })
    }

    /// The translated program as C source.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The translated program as C source, owned.
    pub fn to_source(&self) -> String {
        self.source.clone()
    }
}

/// The Algorithm 4–10 pipeline: each pass with its name, in the order
/// they run (DESIGN.md §3).
const PASSES: [(&str, Pass); 9] = [
    ("includes", passes::includes),
    ("main-conversion", passes::main_conversion),
    ("shared-data", passes::shared_data),
    ("core-id", passes::core_id),
    ("parallel-region", passes::parallel_region),
    ("remove-pthread-types", passes::remove_pthread_types),
    ("pthread-calls", passes::pthread_calls),
    ("remove-unused-locals", passes::remove_unused_locals),
    ("drop-private-globals", passes::drop_private_globals),
];

/// Translates a parsed pthread program with explicit options.
///
/// # Errors
///
/// Returns a [`TranslateError`] for programs outside the supported subset
/// (e.g. no `main`) or if a pass corrupts the IR (internal error).
pub fn translate(
    tu: &TranslationUnit,
    options: TranslateOptions,
) -> Result<Translation, TranslateError> {
    let analysis = Arc::new(ProgramAnalysis::analyze(tu));
    let shared = hsm_partition::shared_vars_from_analysis(&analysis);
    // The full 48-slice MPB (384 KB) is addressable by any participating
    // core; the partitioner budgets against the whole chip.
    let spec = MemorySpec::scc(48);
    let plan = Arc::new(hsm_partition::partition(&shared, &spec, options.policy));
    translate_with_plan(tu, &analysis, &plan, options)
}

/// Translates using a caller-provided analysis and partition plan (used by
/// the experiment harness to force placements). The [`Translation`] shares
/// both with the caller instead of copying them.
///
/// # Errors
///
/// Same as [`translate`].
pub fn translate_with_plan(
    tu: &TranslationUnit,
    analysis: &Arc<ProgramAnalysis>,
    plan: &Arc<PartitionPlan>,
    options: TranslateOptions,
) -> Result<Translation, TranslateError> {
    let mut ctx = PassContext {
        unit: tu.clone(),
        analysis,
        plan,
        options,
    };
    let source = pass::run(&PASSES, &mut ctx, tu)?;
    Ok(Translation {
        unit: ctx.unit,
        analysis: Arc::clone(analysis),
        plan: Arc::clone(plan),
        source,
    })
}

/// Parses and translates in one step, returning RCCE C source.
///
/// # Errors
///
/// Returns a [`TranslateError`] on parse failure or unsupported constructs.
pub fn translate_source(src: &str) -> Result<String, TranslateError> {
    let tu = parse(src)?;
    Ok(translate(&tu, TranslateOptions::default())?.to_source())
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE_4_1: &str = r#"
#include <stdio.h>
#include <pthread.h>

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

    fn translate_example() -> String {
        translate_source(EXAMPLE_4_1).expect("translation")
    }

    /// The golden test: every structural property of Example Code 4.2.
    #[test]
    fn example_4_2_structure() {
        let out = translate_example();
        // Includes: RCCE.h replaces pthread.h, stdio survives.
        assert!(out.contains("#include <stdio.h>"), "{out}");
        assert!(out.contains("#include \"RCCE.h\""), "{out}");
        assert!(!out.contains("pthread.h"), "{out}");
        // Globals: sum becomes a pointer, global disappears.
        assert!(out.contains("int *sum;"), "{out}");
        assert!(out.contains("int *ptr;"), "{out}");
        assert!(!out.contains("int global"), "{out}");
        // Main conversion.
        assert!(out.contains("RCCE_APP"), "{out}");
        assert!(out.contains("RCCE_init(&argc, &argv);"), "{out}");
        assert!(out.contains("RCCE_finalize();"), "{out}");
        // Allocations for both shared globals.
        assert!(out.contains("sum = (int *)RCCE_"), "{out}");
        assert!(out.contains("ptr = (int *)RCCE_"), "{out}");
        assert!(out.contains("sizeof(int) * 3"), "{out}");
        // Core id.
        assert!(out.contains("int myID;"), "{out}");
        assert!(out.contains("myID = RCCE_ue();"), "{out}");
        // Thread launch became a direct call with the core id.
        assert!(out.contains("tf((void *)myID);"), "{out}");
        // Join loop became a barrier; printf hoisted with myID.
        assert!(out.contains("RCCE_barrier(&RCCE_COMM_WORLD);"), "{out}");
        assert!(out.contains("sum[myID]"), "{out}");
        // All pthread vestiges gone.
        assert!(!out.contains("pthread"), "{out}");
        // Orphaned locals gone.
        assert!(!out.contains("int local"), "{out}");
        assert!(!out.contains("int rc"), "{out}");
        assert!(!out.contains("threads"), "{out}");
        // tmp survives (its sharing is realized through ptr).
        assert!(out.contains("int tmp = 1;"), "{out}");
        assert!(
            out.contains("ptr = &tmp;") || out.contains("ptr = (&tmp);"),
            "{out}"
        );
        // Output is valid C in our subset.
        parse(&out).expect("translated source parses");
    }

    #[test]
    fn statement_order_matches_example_4_2() {
        let out = translate_example();
        let idx = |needle: &str| {
            out.find(needle)
                .unwrap_or_else(|| panic!("missing `{needle}` in:\n{out}"))
        };
        let init = idx("RCCE_init");
        let alloc = idx("RCCE_malloc");
        let myid = idx("int myID;");
        let ue = idx("myID = RCCE_ue();");
        let worker = idx("tf((void *)myID);");
        // One barrier separates initialization from the worker; a second
        // replaces the join loop.
        let pre_barrier = idx("RCCE_barrier");
        let post_barrier = out[worker..]
            .find("RCCE_barrier")
            .map(|i| worker + i)
            .expect("post-worker barrier");
        let printf = idx("printf");
        let fin = idx("RCCE_finalize");
        assert!(init < alloc, "{out}");
        assert!(alloc < myid, "{out}");
        assert!(myid < ue, "{out}");
        assert!(ue < pre_barrier, "{out}");
        assert!(pre_barrier < worker, "{out}");
        assert!(worker < post_barrier, "{out}");
        assert!(post_barrier < printf, "{out}");
        assert!(printf < fin, "{out}");
    }

    #[test]
    fn off_chip_only_policy_uses_shmalloc() {
        let tu = parse(EXAMPLE_4_1).unwrap();
        let t = translate(
            &tu,
            TranslateOptions {
                cores: 32,
                policy: Policy::OffChipOnly,
            },
        )
        .unwrap();
        let out = t.to_source();
        assert!(out.contains("RCCE_shmalloc"), "{out}");
        assert!(!out.contains("RCCE_malloc("), "{out}");
    }

    #[test]
    fn on_chip_policy_uses_mpb_malloc() {
        // Everything fits on-chip with the default policy (the example's
        // shared set is tiny), so RCCE_malloc must be used.
        let tu = parse(EXAMPLE_4_1).unwrap();
        let t = translate(&tu, TranslateOptions::default()).unwrap();
        let out = t.to_source();
        assert!(out.contains("RCCE_malloc("), "{out}");
        assert!(!out.contains("RCCE_shmalloc"), "{out}");
    }

    #[test]
    fn scalar_shared_global_is_dereferenced() {
        let src = r#"
#include <pthread.h>
int counter;
void *tf(void *tid) { counter = counter + 1; return tid; }
int main() {
    pthread_t t[2];
    int i;
    for (i = 0; i < 2; i++) pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < 2; i++) pthread_join(t[i], NULL);
    return counter;
}
"#;
        let out = translate_source(src).expect("translate");
        assert!(out.contains("int *counter;"), "{out}");
        assert!(
            out.contains("(*counter) = (*counter) + 1") || out.contains("*counter = *counter + 1"),
            "{out}"
        );
        assert!(
            out.contains("return *counter;") || out.contains("return (*counter);"),
            "{out}"
        );
        parse(&out).expect("parses");
    }

    #[test]
    fn mutex_becomes_test_and_set_lock() {
        let src = r#"
#include <pthread.h>
pthread_mutex_t lock;
int total;
void *tf(void *tid) {
    pthread_mutex_lock(&lock);
    total = total + 1;
    pthread_mutex_unlock(&lock);
    return tid;
}
int main() {
    pthread_t t[2];
    int i;
    pthread_mutex_init(&lock, NULL);
    for (i = 0; i < 2; i++) pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < 2; i++) pthread_join(t[i], NULL);
    pthread_mutex_destroy(&lock);
    return 0;
}
"#;
        let out = translate_source(src).expect("translate");
        assert!(out.contains("RCCE_acquire_lock(0);"), "{out}");
        assert!(out.contains("RCCE_release_lock(0);"), "{out}");
        assert!(!out.contains("pthread_mutex"), "{out}");
        parse(&out).expect("parses");
    }

    #[test]
    fn single_launch_is_core_guarded() {
        let src = r#"
#include <pthread.h>
int flag;
void *special(void *arg) { flag = 1; return arg; }
int main() {
    pthread_t t;
    pthread_create(&t, NULL, special, NULL);
    pthread_join(t, NULL);
    return 0;
}
"#;
        let out = translate_source(src).expect("translate");
        assert!(out.contains("if (myID == 0)"), "{out}");
        assert!(out.contains("special(NULL);"), "{out}");
        assert!(out.contains("RCCE_barrier"), "{out}");
        parse(&out).expect("parses");
    }

    #[test]
    fn two_distinct_single_launches_get_distinct_cores() {
        let src = r#"
#include <pthread.h>
int a;
int b;
void *wa(void *arg) { a = 1; return arg; }
void *wb(void *arg) { b = 1; return arg; }
int main() {
    pthread_t t1, t2;
    pthread_create(&t1, NULL, wa, NULL);
    pthread_create(&t2, NULL, wb, NULL);
    pthread_join(t1, NULL);
    pthread_join(t2, NULL);
    return 0;
}
"#;
        let out = translate_source(src).expect("translate");
        assert!(out.contains("if (myID == 0)"), "{out}");
        assert!(out.contains("if (myID == 1)"), "{out}");
        parse(&out).expect("parses");
    }

    /// The Stage 5 rewrites reach every statement and expression position:
    /// each `g` becomes `*g` once (not `**g`), `&g` becomes `g`, and the
    /// `pthread_self()` nested in an index becomes `RCCE_ue()`.
    #[test]
    fn rewrites_reach_every_position() {
        let src = r#"
#include <pthread.h>
int g;
int h[4];
void use(int *p, int v) { }
void *tf(void *arg) {
    int k = g;
    int a[2] = {g, 1};
    if (g) k = 1;
    while (g < 0) k++;
    do { k--; } while (g > 5);
    for (int i = g; i < 2; i++) { }
    for (k = g; g < k; k += g) { }
    switch (g) { case 0: break; }
    use(&g, g ? h[g] : (g, a[0]));
    h[(int)pthread_self() % 4] = g;
    return (void *)g;
}
int main() {
    pthread_t t[2];
    int i;
    for (i = 0; i < 2; i++) pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < 2; i++) pthread_join(t[i], NULL);
    return g;
}
"#;
        let out = translate_source(src).expect("translate");
        let tf = &out[out.find("void *tf").unwrap()..out.find("int RCCE_APP").unwrap()];
        assert_eq!(
            tf,
            "void *tf(void *arg)
{
    int k = *g;
    int a[2] = {*g, 1};
    if (*g)
    {
        k = 1;
    }
    while (*g < 0)
    {
        k++;
    }
    do
    {
        k--;
    }
    while (*g > 5);
    for (int i = *g; i < 2; i++)
    {
    }
    for (k = *g; *g < k; k += *g)
    {
    }
    switch (*g)
    {
    case 0:
        break;
    }
    use(g, *g ? h[*g] : (*g, a[0]));
    h[(int)RCCE_ue() % 4] = *g;
    return (void *)*g;
}

"
        );
        assert!(out.contains("    return *g;\n}"), "{out}");
    }

    #[test]
    fn pthread_self_becomes_rcce_ue() {
        let src = r#"
#include <pthread.h>
int ids[4];
void *tf(void *tid) { ids[(int)tid] = (int)pthread_self(); return tid; }
int main() {
    pthread_t t[4];
    int i;
    for (i = 0; i < 4; i++) pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < 4; i++) pthread_join(t[i], NULL);
    return 0;
}
"#;
        let out = translate_source(src).expect("translate");
        assert!(out.contains("RCCE_ue()"), "{out}");
        assert!(!out.contains("pthread_self"), "{out}");
    }

    #[test]
    fn error_without_main() {
        let err = translate_source("int f() { return 0; }").unwrap_err();
        assert!(err.to_string().contains("no main function"), "{err}");
    }

    #[test]
    fn translated_source_is_stable_under_reparse() {
        let out = translate_example();
        let again = hsm_cir::print_unit(&parse(&out).unwrap());
        assert_eq!(out, again);
    }

    #[test]
    fn wtime_is_mapped_to_rcce_wtime() {
        let src = r#"
#include <pthread.h>
double wtime();
int work[2];
void *tf(void *tid) { work[(int)tid] = 1; return tid; }
int main() {
    double t0 = wtime();
    pthread_t t[2];
    int i;
    for (i = 0; i < 2; i++) pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < 2; i++) pthread_join(t[i], NULL);
    double t1 = wtime();
    return (int)(t1 - t0);
}
"#;
        let out = translate_source(src).expect("translate");
        assert!(out.contains("RCCE_wtime()"), "{out}");
        assert!(!out.contains("= wtime()"), "{out}");
    }

    #[test]
    fn folding_emits_many_to_one_loop() {
        // 8 launches translated for 4 cores: §7.2's many-to-one mapping.
        let src = r#"
#include <pthread.h>
int data[8];
void *tf(void *tid) { data[(int)tid] = (int)tid; return tid; }
int main() {
    pthread_t t[8];
    int i;
    for (i = 0; i < 8; i++) pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < 8; i++) pthread_join(t[i], NULL);
    return data[7];
}
"#;
        let tu = parse(src).unwrap();
        let t = translate(
            &tu,
            TranslateOptions {
                cores: 4,
                policy: Policy::SizeAscending,
            },
        )
        .unwrap();
        let out = t.to_source();
        assert!(
            out.contains("for (foldID = myID; foldID < 8; foldID = foldID + 4)"),
            "{out}"
        );
        assert!(out.contains("tf((void *)foldID);"), "{out}");
    }

    #[test]
    fn no_folding_when_cores_cover_threads() {
        let src = r#"
#include <pthread.h>
int data[4];
void *tf(void *tid) { data[(int)tid] = 1; return tid; }
int main() {
    pthread_t t[4];
    int i;
    for (i = 0; i < 4; i++) pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < 4; i++) pthread_join(t[i], NULL);
    return 0;
}
"#;
        let tu = parse(src).unwrap();
        let t = translate(
            &tu,
            TranslateOptions {
                cores: 8,
                policy: Policy::SizeAscending,
            },
        )
        .unwrap();
        let out = t.to_source();
        assert!(!out.contains("foldID"), "{out}");
        assert!(out.contains("tf((void *)myID);"), "{out}");
        // The four surplus cores must not run the worker: their myID would
        // index past `data` and trample whatever lands after it in shared
        // memory. The worker call is wrapped in an idle-core guard.
        assert!(out.contains("if (myID < 4)"), "{out}");
    }

    #[test]
    fn folded_join_loop_statements_cover_all_thread_ids() {
        // The printf inside the join loop must run once per *thread* id,
        // not once per core.
        let src = r#"
#include <pthread.h>
int data[8];
void *tf(void *tid) { data[(int)tid] = (int)tid; return tid; }
int main() {
    pthread_t t[8];
    int i;
    for (i = 0; i < 8; i++) pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < 8; i++) {
        pthread_join(t[i], NULL);
        printf("v %d\n", data[i]);
    }
    return 0;
}
"#;
        let tu = parse(src).unwrap();
        let t = translate(
            &tu,
            TranslateOptions {
                cores: 4,
                policy: Policy::SizeAscending,
            },
        )
        .unwrap();
        let out = t.to_source();
        assert!(out.contains("printf(\"v %d\\n\", data[foldID]);"), "{out}");
    }
}
