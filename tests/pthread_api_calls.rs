//! Stage 5 removes only the pthread calls it knows. Algorithm 8 deletes
//! every statement that calls one of the eleven pthread functions the VM
//! runs (create, join, exit, self, and the mutex and barrier calls); any
//! other `pthread_` call has no RCCE counterpart, and deleting the
//! statement around it would change what the program computes, so the
//! translator refuses it with an `unsupported construct` error.

use hsm_core::api::{Mode, Pipeline};

/// Four workers that each count once if `pthread_mutex_trylock` gets the
/// lock, print the count, and a `main` that returns `10 + count`.
const TRYLOCK: &str = r#"#include <pthread.h>
#include <stdio.h>
pthread_mutex_t m;
int count;

void *tf(void *arg) {
    if (pthread_mutex_trylock(&m) == 0) {
        count = count + 1;
        pthread_mutex_unlock(&m);
    }
    printf("count %d\n", count);
    pthread_exit(NULL);
}

int main() {
    pthread_t t[4];
    int i;
    pthread_mutex_init(&m, NULL);
    for (i = 0; i < 4; i++)
        pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < 4; i++)
        pthread_join(t[i], NULL);
    return 10 + count;
}
"#;

/// The translation used to delete the whole `if`, so every core printed
/// `count 0` and the program exited 10.
#[test]
fn an_unknown_pthread_call_is_refused_not_deleted() {
    let session = Pipeline::new(TRYLOCK).cores(4);
    let err = session
        .clone()
        .scenario(Mode::PthreadBaseline.into())
        .run_scenario()
        .expect_err("the VM has no pthread_mutex_trylock");
    assert!(
        err.to_string().contains("pthread_mutex_trylock"),
        "as pthreads: {err}"
    );
    let err = match session.scenario(Mode::RcceHsm.into()).translation() {
        Ok(t) => panic!("translated:\n{}", t.source()),
        Err(e) => e,
    };
    assert_eq!(err.stage(), "translate", "{err}");
    let message = err.to_string();
    assert!(
        message.contains("unsupported construct: `pthread_mutex_trylock` in `tf`"),
        "{message}"
    );
}
