//! Stage 5 converts a `pthread_create` or a `pthread_join` only where it is
//! a statement of its own, in a function body or directly in a `for` loop's
//! body. A launch or join anywhere else runs as pthreads and is refused by
//! the translator with an `unsupported construct` error, instead of being
//! dropped or replaced by one worker call or barrier together with the
//! statement around it. So is a statement of a launch or join loop that
//! would not be exact once hoisted out of the loop: it may write only
//! variables declared in the loop body and elements of shared arrays
//! indexed by the induction variable.
//!
//! After the last join every core runs the rest of `main`, where the
//! source ran it once: a statement there that writes shared memory or
//! calls a mutex operation runs on core 0 alone, followed by a barrier,
//! and one that core 0 cannot run alone is refused. Every translation
//! here passes the sharing referee.

mod referee;

use hsm_core::api::{Mode, Pipeline};
use hsm_core::experiment::outputs_equivalent;
use referee::sharing_referee;

/// Two workers that leave `id + 1` and `100 * id` in their slot of `out`,
/// then `main` as `main_body` writes it.
fn program(main_body: &str) -> String {
    format!(
        r#"#include <pthread.h>
int out[4];

void *tf(void *arg) {{
    int id = (int)arg;
    out[id] = id + 1;
    pthread_exit(NULL);
}}

void *tg(void *arg) {{
    int id = (int)arg;
    out[id] = 100 * id;
    pthread_exit(NULL);
}}

int main() {{
{main_body}
}}
"#
    )
}

/// The refusal of a launch in `main` that is not a statement of its own.
const LAUNCH: &str = "unsupported construct: a `pthread_create` in `main`";

/// Runs `main_body` as pthreads, expecting `exit`, then checks that
/// translating it is a typed translate-stage refusal whose message
/// contains `expected`.
fn runs_then_is_refused(shape: &str, main_body: &str, exit: i64, expected: &str) {
    source_runs_then_is_refused(shape, &program(main_body), exit, expected);
}

/// [`runs_then_is_refused`] for a whole program.
fn source_runs_then_is_refused(shape: &str, src: &str, exit: i64, expected: &str) {
    let session = Pipeline::new(src).cores(4);
    let run = session
        .clone()
        .scenario(Mode::PthreadBaseline.into())
        .run_scenario()
        .unwrap_or_else(|e| panic!("{shape} as pthreads: {e}"));
    assert_eq!(run.exit_code, exit, "{shape} as pthreads");
    let err = match session.scenario(Mode::RcceHsm.into()).translation() {
        Ok(t) => panic!("{shape} translated:\n{}", t.source()),
        Err(e) => e,
    };
    assert_eq!(err.stage(), "translate", "{shape}: {err}");
    let message = err.to_string();
    assert!(message.contains(expected), "{shape}: {message}");
}

#[test]
fn a_launch_in_an_if_else_is_refused() {
    let body = "    pthread_t t[4];
    int i;
    for (i = 0; i < 4; i++) {
        if (i < 2)
            pthread_create(&t[i], NULL, tf, (void *)i);
        else
            pthread_create(&t[i], NULL, tg, (void *)i);
    }
    for (i = 0; i < 4; i++) {
        pthread_join(t[i], NULL);
    }
    return out[0] + out[1] + out[2] + out[3];";
    runs_then_is_refused("if/else", body, 1 + 2 + 200 + 300, LAUNCH);
}

#[test]
fn a_launch_in_a_switch_is_refused() {
    let body = "    pthread_t t;
    int which = 2;
    switch (which) {
    case 2:
        pthread_create(&t, NULL, tf, (void *)2);
        break;
    default:
        break;
    }
    pthread_join(t, NULL);
    return out[2];";
    runs_then_is_refused("switch", body, 3, LAUNCH);
}

#[test]
fn a_while_launch_loop_is_refused() {
    let body = "    pthread_t t[4];
    int i;
    i = 0;
    while (i < 4) {
        pthread_create(&t[i], NULL, tf, (void *)i);
        i++;
    }
    for (i = 0; i < 4; i++) {
        pthread_join(t[i], NULL);
    }
    return out[0] + out[1] + out[2] + out[3] + 13;";
    runs_then_is_refused("while", body, 23, LAUNCH);
}

#[test]
fn a_launch_in_a_nested_block_is_refused() {
    let body = "    pthread_t t;
    {
        out[0] = 7;
        pthread_create(&t, NULL, tf, (void *)1);
    }
    pthread_join(t, NULL);
    return out[0] + out[1];";
    runs_then_is_refused("block", body, 9, LAUNCH);
}

#[test]
fn a_checked_launch_is_refused() {
    let body = "    pthread_t t[2];
    int i;
    for (i = 0; i < 2; i++) {
        if (pthread_create(&t[i], NULL, tf, (void *)i) != 0) {
            return 99;
        }
    }
    for (i = 0; i < 2; i++) {
        pthread_join(t[i], NULL);
    }
    return out[0] + out[1];";
    runs_then_is_refused("checked", body, 3, LAUNCH);
}

/// The commonest pthread reduction: each join is followed by a read of the
/// joined thread's slot. Hoisted out of the loop, `sum = sum + out[i]` ran
/// once per core on that core's slot, so the translation exited with one
/// core's share instead of the total.
#[test]
fn a_join_loop_reduction_is_refused() {
    let body = "    pthread_t t[4];
    int i;
    int sum = 0;
    for (i = 0; i < 4; i++) {
        pthread_create(&t[i], NULL, tf, (void *)i);
    }
    for (i = 0; i < 4; i++) {
        pthread_join(t[i], NULL);
        sum = sum + out[i];
    }
    return sum;";
    runs_then_is_refused(
        "join-loop reduction",
        body,
        1 + 2 + 3 + 4,
        "unsupported construct: the `pthread_join` loop in `main` cannot hoist the write to `sum`",
    );
}

/// A count kept beside the launches ran once per core instead of once per
/// launch.
#[test]
fn a_launch_loop_that_counts_is_refused() {
    let body = "    pthread_t t[4];
    int i;
    int extra = 10;
    for (i = 0; i < 4; i++) {
        pthread_create(&t[i], NULL, tf, (void *)i);
        extra = extra + 1;
    }
    for (i = 0; i < 4; i++) {
        pthread_join(t[i], NULL);
    }
    return extra;";
    runs_then_is_refused(
        "counting launch loop",
        body,
        14,
        "unsupported construct: the `pthread_create` loop in `main` cannot hoist the write to `extra`",
    );
}

/// Each join in a `while` loop was replaced, with the loop around it, by
/// one barrier: the loop's own counting vanished.
#[test]
fn a_while_join_loop_is_refused() {
    let body = "    pthread_t t[4];
    int i;
    int k;
    for (i = 0; i < 4; i++) {
        pthread_create(&t[i], NULL, tf, (void *)i);
    }
    k = 0;
    while (k < 4) {
        pthread_join(t[k], NULL);
        k = k + 1;
    }
    return 10 * k + 4;";
    runs_then_is_refused(
        "while join loop",
        body,
        44,
        "unsupported construct: a `pthread_join` in `main` is not a join the translator converts",
    );
}

/// Four workers that each leave `id + 1` in their slot of `part`, then
/// `main` joins them and runs `after_joins`. `total` is a shared global.
fn after_the_joins(after_joins: &str) -> String {
    format!(
        r#"#include <pthread.h>
#include <stdio.h>
pthread_mutex_t m;
int part[4];
int total;

int sink(int value) {{
    return 0;
}}

void *tf(void *arg) {{
    int id = (int)arg;
    part[id] = id + 1;
    pthread_exit(NULL);
}}

int main() {{
    pthread_t t[4];
    int i;
    pthread_mutex_init(&m, NULL);
    for (i = 0; i < 4; i++)
        pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < 4; i++)
        pthread_join(t[i], NULL);
{after_joins}
}}
"#
    )
}

/// Runs `src` as pthreads and translated (HSM at 4 cores): both exit
/// `exit`, print the same lines, and the translation passes the sharing
/// referee with a clean RCCE-mode oracle.
fn agrees_after_the_joins(shape: &str, src: &str, exit: i64) {
    let session = Pipeline::new(src).cores(4);
    let run = |mode: Mode| {
        session
            .clone()
            .scenario(mode.into())
            .run_scenario()
            .unwrap_or_else(|e| panic!("{shape} under {mode:?}: {e}"))
    };
    let (pthread, hsm) = (run(Mode::PthreadBaseline), run(Mode::RcceHsm));
    assert_eq!(pthread.exit_code, exit, "{shape} as pthreads");
    assert_eq!(hsm.exit_code, exit, "{shape} translated");
    assert!(
        outputs_equivalent(&pthread, &hsm),
        "{shape}: pthread printed {:?}, the translation {:?}",
        pthread.output_sorted(),
        hsm.output_sorted()
    );
    let oracle = session
        .scenario(Mode::RcceHsm.into())
        .check_sharing()
        .unwrap_or_else(|e| panic!("{shape}: {e}"))
        .report;
    assert!(oracle.is_clean(), "{shape}: {:?}", oracle.violations);
    sharing_referee(src).unwrap_or_else(|e| panic!("{shape}: {e}"));
}

/// The commonest serial reduction: `main` sums the workers' slots after
/// the joins. Every core used to run the sum into the shared `total`, so
/// two cores printed `total 14` and the run exited 14.
#[test]
fn a_reduction_after_the_joins_runs_on_core_zero() {
    let src = after_the_joins(
        "    for (i = 0; i < 4; i++)
        total = total + part[i];
    printf(\"total %d\\n\", total);
    return total;",
    );
    agrees_after_the_joins("reduction after the joins", &src, 10);
}

#[test]
fn a_locked_update_after_the_joins_runs_on_core_zero() {
    let src = after_the_joins(
        "    pthread_mutex_lock(&m);
    total = total + part[0] + part[3];
    pthread_mutex_unlock(&m);
    printf(\"total %d\\n\", total);
    return total + part[1] + part[2];",
    );
    agrees_after_the_joins("locked update after the joins", &src, 10);
}

/// `main` returns holding the lock. Every core used to take it, so the
/// first to return kept it and the others waited for it forever.
#[test]
fn a_lock_in_main_s_return_is_refused() {
    let src = after_the_joins(
        "    return sink(pthread_mutex_lock(&m)) + part[0] + part[1] + part[2] + part[3];",
    );
    source_runs_then_is_refused(
        "lock in main's return",
        &src,
        10,
        "unsupported construct: a statement of `main` before its first launch or after its \
         last join writes shared memory or calls a mutex operation, so core 0 runs it alone, \
         but it returns",
    );
}
