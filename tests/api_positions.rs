//! Every pthread call Stage 5 knows, and one it does not, in every
//! statement and expression position that `hsm_cir::walk_exprs_in_stmt`
//! visits, in a worker and in `main`. `main`'s hole follows the joins, and
//! a `return` placed there replaces `main`'s own. For each program whose
//! pthread run completes, the translation either agrees with that run (HSM
//! at 4 cores: the same sorted stdout and exit, and nothing new from the
//! sharing referee) or is refused with an `unsupported construct` error. No
//! third outcome — a translation that computes something else, races where
//! its source did not, or fails later in the compiler — is allowed. Of the
//! 728 programs, 325 agree, 371 are refused and 32 do not complete as
//! pthreads.
//!
//! The value a call returns lands where it cannot change the output: in
//! the local `v`, in a condition with an empty body, or in `sink`. So what
//! is compared is what the call does, not what it returns (`pthread_self`
//! numbers threads from 1 and `RCCE_ue` cores from 0, by Algorithm 6's
//! design).

mod referee;

use hsm_core::api::{Mode, Pipeline};
use referee::sharing_referee;

/// Four workers that each leave `id + 1` in `out` and print their id, and
/// a `main` that returns `RETURN`; `WORKER` and `MAIN` mark the other
/// holes.
/// `pthread_setconcurrency` is defined by the program, so the pthread run
/// completes, but Stage 5 does not know it.
const TEMPLATE: &str = r#"#include <pthread.h>
#include <stdio.h>
pthread_mutex_t m;
pthread_barrier_t b;
pthread_barrier_t b2;
pthread_t t[4];
pthread_t extra;
int out[4];
double wtime();

int sink(int value) {
    return 0;
}

int pthread_setconcurrency(int level) {
    return 0;
}

void *helper(void *arg) {
    printf("helper %d\n", (int)arg);
    return arg;
}

void *tf(void *arg) {
    int id = (int)arg;
    int v = 0;
    int k = 0;
    int a[8];
    WORKER
    out[id] = id + 1;
    printf("worker %d\n", id);
    pthread_exit(NULL);
}

int main() {
    int i;
    int v = 0;
    int k = 0;
    int a[8];
    pthread_mutex_init(&m, NULL);
    pthread_barrier_init(&b, NULL, 4);
    for (i = 0; i < 4; i++)
        pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < 4; i++)
        pthread_join(t[i], NULL);
    MAIN
    return RETURN;
}
"#;

/// What `main` returns when the call is elsewhere: the workers' sum.
const SUM: &str = "out[0] + out[1] + out[2] + out[3]";

/// Each call of the translator's table, and one unknown `pthread_` call,
/// with the statements that must come before and after it for the pthread
/// run to complete.
const CALLS: [(&str, &str, &str); 13] = [
    (
        "pthread_create(&extra, NULL, helper, (void *)9)",
        "",
        "pthread_join(extra, NULL);",
    ),
    ("pthread_join(t[0], NULL)", "", ""),
    ("pthread_exit(NULL)", "", ""),
    ("pthread_self()", "", ""),
    ("pthread_mutex_init(&m, NULL)", "", ""),
    ("pthread_mutex_lock(&m)", "", "pthread_mutex_unlock(&m);"),
    ("pthread_mutex_unlock(&m)", "pthread_mutex_lock(&m);", ""),
    ("pthread_mutex_destroy(&m)", "", ""),
    ("pthread_barrier_init(&b2, NULL, 1)", "", ""),
    ("pthread_barrier_wait(&b)", "", ""),
    ("pthread_barrier_destroy(&b2)", "", ""),
    ("wtime()", "", ""),
    ("pthread_setconcurrency(2)", "", ""),
];

/// Where `@` (the call) stands, each evaluated exactly once. `RET ` is the
/// cast a worker's `return` needs.
const POSITIONS: [&str; 28] = [
    // A statement's own expressions.
    "@;",
    "int w = @;",
    "return RET sink(@);",
    "if (@) { }",
    "while (@) { break; }",
    "do { k++; } while (@ && k < 1);",
    "for (@; k < 1; k++) { }",
    "for (int j = @; k < 1; k++) { }",
    "for (k = 0; k < 1 && @; k++) { }",
    "for (k = 0; k < 1; @) { k++; }",
    "switch (@) { default: break; }",
    // A statement nested in another.
    "{ @; }",
    "if (k == 0) { @; }",
    "if (k != 0) { } else { @; }",
    "for (k = 0; k < 1; k++) { @; }",
    "while (k < 1) { k++; @; }",
    "do { @; } while (k > 0);",
    "switch (k) { case 0: @; break; }",
    // An operand.
    "v = @;",
    "v += @;",
    "sink(@);",
    "v = @ + 1;",
    "v = !@;",
    "v = (int)@;",
    "v = @ ? 1 : 2;",
    "v = k ? 0 : @;",
    "v = (k, @);",
    "v = a[@];",
];

/// The program with its three holes filled.
fn program(worker: &str, main: &str, value: &str) -> String {
    TEMPLATE
        .replace("WORKER", worker)
        .replace("MAIN", main)
        .replace("RETURN", value)
}

/// What a run printed, sorted (every RCCE core prints its own lines), and
/// its exit.
fn outcome(session: Pipeline, mode: Mode) -> Result<(Vec<String>, i64), String> {
    let run = session
        .scenario(mode.into())
        .run_scenario()
        .map_err(|e| e.to_string())?;
    let mut lines: Vec<String> = run.output.iter().map(|l| l.text.clone()).collect();
    lines.sort();
    Ok((lines, run.exit_code))
}

/// The verdict on one program: `None` when it agrees or is refused, else
/// what went wrong.
fn check(src: &str) -> Option<String> {
    let session = Pipeline::new(src).cores(4);
    if let Err(e) = session.clone().scenario(Mode::RcceHsm.into()).translation() {
        let refused = e.stage() == "translate" && e.to_string().contains("unsupported construct");
        return (!refused).then(|| format!("translation failed: {e}"));
    }
    let Ok(expected) = outcome(session.clone(), Mode::PthreadBaseline) else {
        return None;
    };
    match outcome(session, Mode::RcceHsm) {
        Ok(got) if got == expected => sharing_referee(src).err(),
        Ok(got) => Some(format!("pthread run {expected:?}, translated {got:?}")),
        Err(e) => Some(format!("the translation does not run: {e}")),
    }
}

#[test]
fn every_call_in_every_position_converts_exactly_or_is_refused() {
    let mut cases = Vec::new();
    for (call, before, after) in CALLS {
        for position in POSITIONS {
            let statement = format!("{before} {} {after}", position.replace('@', call));
            let worker = statement.trim().replace("RET ", "(void *)");
            cases.push((format!("in tf: {worker}"), program(&worker, "", SUM)));
            // In `main` a `return` takes the template's, and the partner
            // that should follow it never runs (`main` returns holding the
            // lock, say).
            let (main, value) = match position.strip_prefix("return RET ") {
                Some(value) => {
                    let value = value.trim_end_matches(';').replace('@', call);
                    (before.to_string(), format!("{value} + {SUM}"))
                }
                None => (statement.trim().to_string(), SUM.to_string()),
            };
            let place = format!("in main: {main} return {value};");
            cases.push((place, program("", &main, &value)));
        }
    }
    let failed: Vec<String> = cases
        .iter()
        .filter_map(|(place, src)| check(src).map(|why| format!("{place}\n  {why}")))
        .collect();
    assert!(
        failed.is_empty(),
        "{} of {} programs neither agree nor are refused:\n{}",
        failed.len(),
        cases.len(),
        failed.join("\n")
    );
}
