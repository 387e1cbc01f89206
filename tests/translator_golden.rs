//! Integration test E3: the source-to-source translation of Example Code
//! 4.1 has the structure of Example Code 4.2, via the public pipeline API.

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

#[test]
fn example_4_2_is_reproduced() {
    let out = hsm_translate::translate_source(EXAMPLE_4_1).expect("translation");
    // The landmarks of Example Code 4.2, in order of appearance.
    let landmarks = [
        "#include \"RCCE.h\"",
        "int *ptr;",
        "int *sum;",
        "void *tf(void *tid)",
        "RCCE_APP",
        "RCCE_init(&argc, &argv);",
        "myID = RCCE_ue();",
        "tf((void *)myID);",
        "RCCE_barrier(&RCCE_COMM_WORLD);",
        "printf(\"Sum Array: %d\\n\", sum[myID]);",
        "RCCE_finalize();",
    ];
    let mut cursor = 0usize;
    for landmark in landmarks {
        match out[cursor..].find(landmark) {
            Some(at) => cursor += at,
            None => panic!("landmark `{landmark}` missing or out of order in:\n{out}"),
        }
    }
    // Everything pthread is gone.
    assert!(!out.contains("pthread"), "{out}");
    // The unused global disappeared, orphaned locals too.
    assert!(!out.contains("int global"), "{out}");
    assert!(!out.contains("threads"), "{out}");
    assert!(!out.contains("rc"), "{out}");
}

#[test]
fn translated_source_is_valid_and_stable() {
    let out = hsm_translate::translate_source(EXAMPLE_4_1).expect("translation");
    let reparsed = hsm_cir::parse(&out).expect("translated source parses");
    assert_eq!(hsm_cir::print_unit(&reparsed), out, "print is a fixpoint");
}

#[test]
fn translated_example_runs_and_matches_baseline() {
    let session = hsm_core::api::Pipeline::new(EXAMPLE_4_1).cores(3);
    let base = session
        .clone()
        .scenario(hsm_core::api::Mode::PthreadBaseline.into())
        .run_scenario()
        .expect("baseline");
    let rcce = session.run_scenario().expect("rcce run");
    // tf on core k adds k (its id) plus *ptr (== 1) into sum[k]:
    // the printed lines are "Sum Array: 1", "Sum Array: 3", "Sum Array: 5"
    // in the baseline (sum[k] = k + 1... with += tLocal then += *ptr).
    assert!(hsm_core::experiment::outputs_equivalent(&base, &rcce));
    assert_eq!(base.exit_code, rcce.exit_code);
}
