//! Integration test for the Jacobi extension benchmark: in-worker
//! `pthread_barrier_wait` must survive translation as chip-wide
//! `RCCE_barrier`s, and both execution modes must compute the reference
//! result.

use hsm_core::api::{Mode, Pipeline};
use hsm_exec::{ExecModel, NullSink, RunSpec, Units};
use hsm_workloads::{jacobi_reference_exit, jacobi_source, Params};
use scc_sim::SccConfig;

fn params() -> Params {
    Params {
        threads: 8,
        size: 66, // 64 interior cells split evenly over 8 workers
        reps: 12,
    }
}

#[test]
fn jacobi_baseline_matches_reference() {
    let p = params();
    let src = jacobi_source(&p);
    let r = Pipeline::new(src)
        .scenario(Mode::PthreadBaseline.into())
        .run_scenario()
        .expect("baseline");
    assert_eq!(r.exit_code, jacobi_reference_exit(&p));
}

#[test]
fn jacobi_translates_barriers_and_matches_reference() {
    let p = params();
    let src = jacobi_source(&p);
    let session = Pipeline::new(src).cores(p.threads);
    let translation = session.translation().expect("translation");
    let out = translation.to_source();
    assert!(
        out.contains("RCCE_barrier(&RCCE_COMM_WORLD)"),
        "worker barrier must convert: {out}"
    );
    assert!(!out.contains("pthread_barrier"), "{out}");

    let r = session.run_scenario().expect("rcce run");
    assert_eq!(r.exit_code, jacobi_reference_exit(&p));
}

#[test]
fn jacobi_scales_with_cores() {
    let mut p = params();
    p.size = 130;
    p.reps = 16;
    let src = jacobi_source(&p);
    let session = Pipeline::new(src).cores(p.threads);
    let base = session
        .clone()
        .scenario(Mode::PthreadBaseline.into())
        .run_scenario()
        .expect("baseline");
    let rcce = session.run_scenario().expect("rcce");
    let speedup = base.timed_cycles as f64 / rcce.timed_cycles as f64;
    // Barrier-per-iteration overhead keeps it well below linear, but the
    // conversion must still win.
    assert!(
        speedup > 1.5,
        "8-core Jacobi should beat the baseline: {speedup:.2}"
    );
}

/// The pthread barrier itself (baseline mode): last arriver sees the
/// serial-thread return value, everyone proceeds.
#[test]
fn pthread_barrier_semantics() {
    let src = r#"
pthread_barrier_t b;
int order[8];
int slot;
void *tf(void *tid) {
    int id = (int)tid;
    pthread_barrier_wait(&b);
    order[slot] = id;
    slot = slot + 1;
    return tid;
}
int main() {
    pthread_t t[4];
    int i;
    slot = 0;
    pthread_barrier_init(&b, NULL, 4);
    for (i = 0; i < 4; i++) pthread_create(&t[i], NULL, tf, (void *)i);
    for (i = 0; i < 4; i++) pthread_join(t[i], NULL);
    pthread_barrier_destroy(&b);
    return slot;
}
"#;
    let program = hsm_vm::compile(&hsm_cir::parse(src).expect("parse")).expect("compile");
    let spec = RunSpec::new(SccConfig::table_6_1(), Units::Pthread, ExecModel::Coherent);
    let r = hsm_exec::run(&program, &spec, &mut NullSink).expect("run");
    assert_eq!(r.exit_code, 4, "all four threads passed the barrier");
}
