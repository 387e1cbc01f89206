//! Differential harness over the synchronization-model axis.
//!
//! PR 9 adds the task-dataflow runtime as a third way to synchronize the
//! same computation: instead of SPMD threads meeting at barriers, a
//! master core spawns tasks whose `in`/`out` region annotations induce
//! the dependence graph (BDDT-SCC style). This suite pins the contract
//! between the two models on the ported corpus:
//!
//! - The barrier original (RCCE HSM mode) and its task-annotated port
//!   (task-dataflow mode) must agree on every observable value — exit
//!   code and output lines — under **all three** memory models and at
//!   both ends of the optimizer axis. Correctness must not depend on
//!   cache coherence (the runtime DMAs task regions explicitly) or on
//!   the bytecode optimizer.
//! - Both task ports are clean under the sharing oracle: their `in`/`out`
//!   annotations cover every inter-task data flow, so happens-before
//!   race detection over the spawn/dependence/wait edges finds nothing.
//! - Task-dataflow replays are deterministic.

use hsm_core::api::Mode;
use hsm_core::api::{ExecModel, OptLevel, Pipeline, Scenario};
use hsm_core::experiment::outputs_equivalent;
use std::path::PathBuf;

fn read(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("corpus")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Barrier original → task-annotated port, with the core count both run
/// at (mirrors the `figures` manifest's task programs).
const PAIRS: [(&str, &str, usize); 2] = [
    ("matrix_vector.c", "task_matrix_vector.c", 4),
    ("mutex_histogram.c", "task_histogram.c", 4),
];

/// Barrier vs task output equality across the full memory-model ×
/// opt-level grid. This is the acceptance gate for the task runtime: the
/// third sync model computes the same answers as the barrier original
/// everywhere the barrier original is defined.
#[test]
fn barrier_and_task_agree_across_models_and_opt_levels() {
    for (barrier_name, task_name, cores) in PAIRS {
        let barrier_src = read(barrier_name);
        let task_src = read(task_name);
        for model in ExecModel::ALL {
            for level in [OptLevel::O0, OptLevel::O2] {
                let tag = format!(
                    "{barrier_name} vs {task_name} @ {}/{}",
                    model.label(),
                    level.label()
                );
                let barrier = Pipeline::new(barrier_src.clone())
                    .cores(cores)
                    .scenario(
                        Scenario::new(Mode::RcceHsm)
                            .exec_model(model)
                            .opt_level(level),
                    )
                    .run_scenario()
                    .unwrap_or_else(|e| panic!("{tag}: barrier run: {e}"));
                let task = Pipeline::new(task_src.clone())
                    .cores(cores)
                    .scenario(
                        Scenario::new(Mode::TaskDataflow)
                            .exec_model(model)
                            .opt_level(level),
                    )
                    .run_scenario()
                    .unwrap_or_else(|e| panic!("{tag}: task run: {e}"));
                assert_eq!(
                    barrier.exit_code, task.exit_code,
                    "{tag}: exit codes differ"
                );
                assert!(
                    outputs_equivalent(&barrier, &task),
                    "{tag}: outputs diverged\nbarrier: {:?}\ntask:    {:?}",
                    barrier.output_sorted(),
                    task.output_sorted()
                );
            }
        }
    }
}

/// The task ports' `in`/`out` annotations cover all their sharing: pure
/// happens-before race detection over the runtime's spawn, dependence
/// and wait edges reports a clean run for both programs.
#[test]
fn task_ports_are_oracle_clean() {
    for (_, task_name, cores) in PAIRS {
        let check = Pipeline::new(read(task_name))
            .cores(cores)
            .scenario(Scenario::new(Mode::TaskDataflow))
            .check_sharing()
            .unwrap_or_else(|e| panic!("{task_name}: oracle run: {e}"));
        assert!(
            check.report.is_clean(),
            "{task_name}: oracle violations: {:?}",
            check.report.violations
        );
        assert!(
            check.report.data_accesses > 0,
            "{task_name}: oracle saw no data"
        );
        assert!(
            check.report.sync_events > 0,
            "{task_name}: no spawn/dependence/wait edges observed"
        );
    }
}

/// Two task-dataflow replays of the same program are indistinguishable —
/// the dependence scheduler resolves ready tasks in a deterministic
/// order, so cycle counts and output are stable run to run.
#[test]
fn task_dataflow_is_deterministic() {
    for (_, task_name, cores) in PAIRS {
        let session = Pipeline::new(read(task_name))
            .cores(cores)
            .scenario(Scenario::new(Mode::TaskDataflow));
        let a = session
            .run_scenario()
            .unwrap_or_else(|e| panic!("{task_name}: {e}"));
        // `run_traced` always simulates; a second `run_scenario` would
        // be the first one's result read back from the run shelf.
        let b = session
            .run_traced(&mut hsm_exec::NullSink)
            .unwrap_or_else(|e| panic!("{task_name} replay: {e}"));
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{task_name}: replay diverged"
        );
    }
}
