//! Stage 5 converts a `pthread_create` only where it is a statement of its
//! own, in a function body or directly in a `for` loop's body. A launch
//! anywhere else runs as pthreads and is refused by the translator with an
//! `unsupported construct` error, instead of being dropped or replaced by
//! one worker call together with the statement around it.

use hsm_core::api::{Mode, Pipeline};

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

/// Runs `main_body` as pthreads, expecting `exit`, then checks that
/// translating it is a typed translate-stage refusal naming `main`.
fn runs_then_is_refused(shape: &str, main_body: &str, exit: i64) {
    let src = program(main_body);
    let session = Pipeline::new(src.as_str()).cores(4);
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
    assert!(
        message.contains("unsupported construct: a `pthread_create` in `main`"),
        "{shape}: {message}"
    );
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
    runs_then_is_refused("if/else", body, 1 + 2 + 200 + 300);
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
    runs_then_is_refused("switch", body, 3);
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
    runs_then_is_refused("while", body, 23);
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
    runs_then_is_refused("block", body, 9);
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
    runs_then_is_refused("checked", body, 3);
}
