//! Integration test E1/E2: the analysis stages reproduce Tables 4.1 and
//! 4.2 for the paper's Example Code 4.1, exercising hsm-cir + hsm-analysis
//! through their public APIs only.

use hsm_analysis::SharingStatus::{Private, Shared, Unknown};
use hsm_analysis::{ProgramAnalysis, VarKey};

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

fn analyze() -> ProgramAnalysis {
    ProgramAnalysis::analyze(&hsm_cir::parse(EXAMPLE_4_1).expect("example parses"))
}

/// Table 4.1's structural columns: name, size, use-in, def-in.
#[test]
fn table_4_1_facts() {
    let a = analyze();
    let sum = a.scope.variable(&VarKey::global("sum")).expect("sum");
    assert_eq!(sum.size, 3);
    assert_eq!(sum.used_in, vec!["tf", "main"]);
    assert_eq!(sum.defined_in, vec!["tf"]);

    let ptr = a.scope.variable(&VarKey::global("ptr")).expect("ptr");
    assert_eq!((ptr.counts.reads, ptr.counts.writes), (1, 1));
    assert_eq!(ptr.used_in, vec!["tf"]);
    assert_eq!(ptr.defined_in, vec!["main"]);

    let global = a.scope.variable(&VarKey::global("global")).expect("global");
    assert_eq!(global.counts.total(), 0);
    assert!(global.used_in.is_empty() && global.defined_in.is_empty());

    let threads = a
        .scope
        .variable(&VarKey::local("main", "threads"))
        .expect("threads");
    assert_eq!(threads.size, 3);
    assert!(threads.ty.is_pthread_type());
}

/// The full Table 4.2: sharing status after each of the three stages.
#[test]
fn table_4_2_trajectories() {
    let a = analyze();
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
        assert_eq!(a.status_after_stage(name, 1), s1, "{name} after stage 1");
        assert_eq!(a.status_after_stage(name, 2), s2, "{name} after stage 2");
        assert_eq!(a.status_after_stage(name, 3), s3, "{name} after stage 3");
    }
}

/// The rendered tables contain every variable and the paper's vocabulary.
#[test]
fn rendered_tables_are_complete() {
    let a = analyze();
    let t41 = a.render_table_4_1();
    let t42 = a.render_table_4_2();
    for name in [
        "global", "ptr", "sum", "tLocal", "tid", "local", "tmp", "threads", "rc",
    ] {
        assert!(t41.contains(name), "table 4.1 missing {name}");
        assert!(t42.contains(name), "table 4.2 missing {name}");
    }
    assert!(t42.contains("null"));
    assert!(t42.contains("true"));
    assert!(t42.contains("false"));
}

/// The shared set handed to Stage 4 is exactly {ptr, sum, tmp}.
#[test]
fn shared_superset_is_tight() {
    let a = analyze();
    let names: Vec<_> = a
        .shared_variables()
        .iter()
        .map(|v| v.key.name.clone())
        .collect();
    assert_eq!(names, vec!["ptr", "sum", "tmp"]);
}
