//! Stage 5 keeps the initial values of shared globals: a global that two
//! threads read starts, after translation, with the value its declaration
//! gave it, whether the program runs off-chip or under HSM and under every
//! execution model. Core 0 stores those values, so the translation passes
//! the sharing referee.

mod referee;

use hsm_core::api::{ExecModel, Mode, Pipeline, Scenario};
use referee::sharing_referee;

/// A pthread program whose two threads read the shared globals `decls`
/// declares; each thread stores `expr` (which may use `id`, its thread
/// number) into its slot of `out`, and the program exits with their sum.
fn program(decls: &str, expr: &str) -> String {
    format!(
        r#"#include <pthread.h>
{decls}
int out[2];

void *tf(void *arg) {{
    int id = (int)arg;
    out[id] = {expr};
    pthread_exit(NULL);
}}

int main() {{
    pthread_t t[2];
    int i;
    for (i = 0; i < 2; i++) {{
        pthread_create(&t[i], NULL, tf, (void *)i);
    }}
    for (i = 0; i < 2; i++) {{
        pthread_join(t[i], NULL);
    }}
    return out[0] + out[1];
}}
"#
    )
}

/// Runs `src` as pthreads, then translated off-chip and under HSM with
/// every execution model, and checks every exit against `expected` and
/// the translation with the sharing referee. The pthread reference runs
/// coherent: on write-back caches that nothing flushes, an unmodified
/// pthread program reads stale shared data.
fn exits_agree(name: &str, src: &str, expected: i64) {
    let session = Pipeline::new(src).cores(2);
    let exit = |scenario: Scenario| {
        session
            .clone()
            .scenario(scenario)
            .run_scenario()
            .unwrap_or_else(|e| panic!("{name} {scenario:?}: {e}"))
            .exit_code
    };
    assert_eq!(
        exit(Mode::PthreadBaseline.into()),
        expected,
        "{name}: pthread"
    );
    for model in ExecModel::ALL {
        for mode in [Mode::RcceOffChip, Mode::RcceHsm] {
            let scenario = Scenario::new(mode).exec_model(model);
            assert_eq!(exit(scenario), expected, "{name}: {mode:?} under {model:?}");
        }
    }
    sharing_referee(src).unwrap_or_else(|e| panic!("{name}: {e}"));
}

#[test]
fn scalar_and_array_initializers_survive_translation() {
    let src = program(
        "int g = 5;\nint arr[4] = {1, 2, 3, 4};",
        "g + arr[id + 1] - 1",
    );
    exits_agree("scalar+array", &src, 13);
}

#[test]
fn partial_initializers_keep_their_zero_tail() {
    let src = program("int part[5] = {7, 0, 9};", "part[id] + part[2] + part[4]");
    exits_agree("partial", &src, 25);
}

#[test]
fn negative_initializers_survive_translation() {
    let src = program("int neg = -3;\nint negs[2] = {-1, -20};", "neg * negs[id]");
    exits_agree("negative", &src, 3 + 60);
}

#[test]
fn double_initializers_survive_translation() {
    let src = program(
        "double d = 2.5;\ndouble ds[3] = {1.5, -0.25};",
        "(int)(d * 4.0 + ds[id] * 4.0 + ds[2])",
    );
    exits_agree("double", &src, (10 + 6) + (10 - 1));
}

#[test]
fn all_zero_initializers_stay_dropped() {
    let src = program("int zero[3] = {0};\nint z = 0;", "zero[id] + z + 1");
    exits_agree("zero", &src, 2);
    let rcce = Pipeline::new(src.as_str())
        .cores(2)
        .scenario(Mode::RcceHsm.into())
        .translation()
        .expect("translates");
    assert!(!rcce.source().contains("zero[0] ="), "{}", rcce.source());
    assert!(!rcce.source().contains("*z = 0"), "{}", rcce.source());
}

#[test]
fn initial_values_are_stored_by_core_zero_before_the_launch_barrier() {
    let src = program(
        "int g = 5;\nint arr[4] = {1, 2, 3, 4};",
        "g + arr[id + 1] - 1",
    );
    let translation = Pipeline::new(src.as_str())
        .cores(2)
        .scenario(Mode::RcceHsm.into())
        .translation()
        .expect("translates");
    let out = translation.source();
    let guard = out.find("if (myID == 0)").expect("a core-0 guard");
    let barrier = out.find("RCCE_barrier").expect("a launch barrier");
    for store in ["*g = 5;", "arr[0] = 1;", "arr[3] = 4;"] {
        let at = out
            .find(store)
            .unwrap_or_else(|| panic!("`{store}` missing:\n{out}"));
        assert!(
            guard < at && at < barrier,
            "`{store}` outside the guard:\n{out}"
        );
    }
}

#[test]
fn an_initializer_that_is_not_a_constant_is_refused() {
    let src = program("int x;\nint *p = &x;", "*p + id");
    let translation = Pipeline::new(src.as_str())
        .cores(2)
        .scenario(Mode::RcceHsm.into())
        .translation();
    let err = match translation {
        Ok(t) => panic!("the address of a global became stores:\n{}", t.source()),
        Err(e) => e,
    };
    assert!(err.to_string().contains("unsupported construct"), "{err}");
    assert!(err.to_string().contains("`p`"), "{err}");
}
