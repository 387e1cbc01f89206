//! Stage 5 converts only the pthread calls it knows, and only where the
//! conversion is exact. Its table holds the eleven pthread functions the VM
//! runs (create, join, exit, self, and the mutex and barrier calls); any
//! other `pthread_` call has no RCCE counterpart, and deleting the
//! statement around it would change what the program computes, so the
//! translator refuses it with an `unsupported construct` error. So it does
//! a `pthread_exit` that is not the last statement of a thread, and a lock
//! whose mutex it cannot number.

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

/// Runs `src` as pthreads, expecting `exit`, then checks that translating
/// it for 4 cores is a translate-stage refusal containing `expected`.
fn runs_then_is_refused(src: &str, exit: i64, expected: &str) {
    let session = Pipeline::new(src).cores(4);
    let run = session
        .clone()
        .scenario(Mode::PthreadBaseline.into())
        .run_scenario()
        .expect("as pthreads");
    assert_eq!(run.exit_code, exit, "as pthreads");
    let err = match session.scenario(Mode::RcceHsm.into()).translation() {
        Ok(t) => panic!("translated:\n{}", t.source()),
        Err(e) => e,
    };
    assert_eq!(err.stage(), "translate", "{err}");
    let message = err.to_string();
    assert!(message.contains(expected), "{message}");
}

/// The translation used to delete the `if` around the exit with the exit,
/// so thread 0 ran on and wrote its slot: 10 instead of 9.
#[test]
fn a_conditional_exit_is_refused() {
    let src = r#"#include <pthread.h>
int out[4];

void *tf(void *arg) {
    int id = (int)arg;
    if (id == 0) pthread_exit(NULL);
    out[id] = id + 1;
    pthread_exit(NULL);
}

int main() {
    pthread_t t[4];
    int i;
    for (i = 0; i < 4; i++)
        pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < 4; i++)
        pthread_join(t[i], NULL);
    return out[0] + out[1] + out[2] + out[3];
}
"#;
    runs_then_is_refused(
        src,
        2 + 3 + 4,
        "unsupported construct: `pthread_exit` in `tf` is removed only as the last statement",
    );
}

/// A lock taken through a parameter used to lose both calls and keep the
/// call that passes `&m`, whose declaration was removed: the run failed
/// later, in the compiler, with ``unknown lvalue `m` ``.
#[test]
fn a_lock_through_a_pointer_is_refused() {
    let src = r#"#include <pthread.h>
pthread_mutex_t m;
int count;

void bump(pthread_mutex_t *lk) {
    pthread_mutex_lock(lk);
    count = count + 1;
    pthread_mutex_unlock(lk);
}

void *tf(void *arg) {
    bump(&m);
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
    return count;
}
"#;
    runs_then_is_refused(
        src,
        4,
        "unsupported construct: `pthread_mutex_lock` in `bump` does not lock a mutex",
    );
}
