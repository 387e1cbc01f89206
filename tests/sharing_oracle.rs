//! Property tests of the sharing-soundness oracle (testkit-driven):
//!
//! * every race-free corpus program runs clean under the pthread-mode
//!   oracle (classification validated against thread semantics) and under
//!   the RCCE-mode oracle across randomized core counts in 2..=32 and
//!   both placement policies (translated synchronization validated);
//! * the adversarial programs are pinned as named must-flag cases: the
//!   oracle must report exactly the violation class each was built to
//!   trigger, naming the culprit variable. A detector that goes quiet
//!   fails these, so the clean runs above stay meaningful.

use hsm_core::api::{Mode, Pipeline};
use hsm_exec::ViolationClass;
use scc_sim::SccConfig;
use std::path::PathBuf;
use testkit::check;

/// The corpus programs that must be violation-free.
const RACE_FREE: [&str; 5] = [
    "example_4_1",
    "matrix_vector",
    "mutex_histogram",
    "switch_classifier",
    "escaping_local",
];

fn corpus_source(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("corpus")
        .join(format!("{name}.c"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn race_free_corpus_is_clean_under_pthread_oracle() {
    let config = SccConfig::table_6_1();
    for name in RACE_FREE {
        let report = Pipeline::new(corpus_source(name))
            .scenario(Mode::PthreadBaseline.into())
            .config(config.clone())
            .check_sharing()
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .report;
        assert!(
            report.is_clean(),
            "{name} must be violation-free: {:?}",
            report.violations
        );
        assert!(report.data_accesses > 0, "{name}: oracle saw no accesses");
        assert!(report.sync_events > 0, "{name}: oracle saw no sync events");
    }
}

#[test]
fn race_free_corpus_is_clean_translated_at_random_core_counts() {
    let config = SccConfig::table_6_1();
    let sources: Vec<(String, String)> = RACE_FREE
        .iter()
        .map(|&name| (name.to_string(), corpus_source(name)))
        .collect();
    check("rcce_oracle_clean", 6, |rng| {
        let (name, src) = &sources[rng.gen_range_usize(0, sources.len())];
        let cores = rng.gen_range_usize(2, 33);
        let mode = if rng.gen_bool() {
            Mode::RcceHsm
        } else {
            Mode::RcceOffChip
        };
        let report = Pipeline::new(src.as_str())
            .cores(cores)
            .scenario(mode.into())
            .config(config.clone())
            .check_sharing()
            .unwrap_or_else(|e| panic!("{name} at {cores} cores ({mode:?}): {e}"))
            .report;
        assert!(
            report.is_clean(),
            "{name} at {cores} cores ({mode:?}) must be race-free: {:?}",
            report.violations
        );
    });
}

// --------------------------------------------- pinned must-flag cases --

#[test]
fn escaping_stack_pointer_is_flagged_as_unsoundness() {
    let check = Pipeline::new(corpus_source("adversarial/escaping_arg"))
        .scenario(Mode::PthreadBaseline.into())
        .check_sharing()
        .expect("pipeline");
    assert_eq!(
        check.report.classes(),
        vec![ViolationClass::Unsoundness],
        "the escape is ordered by create/join, so unsoundness is the only \
         class: {:?}",
        check.report.violations
    );
    let v = &check.report.violations[0];
    assert_eq!(v.variable.as_deref(), Some("local"), "culprit variable");
    assert_eq!(v.unit, 1, "the child thread trespasses");
    assert_eq!(v.other, Some(0), "into main's stack");
    // The program still runs and computes through shared memory — the
    // bug is only visible once private data moves to per-core storage.
    assert_eq!(check.result.exit_code, 42);
}

#[test]
fn unlocked_shared_counter_is_flagged_as_data_race() {
    let check = Pipeline::new(corpus_source("adversarial/unlocked_counter"))
        .scenario(Mode::PthreadBaseline.into())
        .check_sharing()
        .expect("pipeline");
    assert_eq!(
        check.report.classes(),
        vec![ViolationClass::DataRace],
        "`counter` is correctly classified shared, so the race is the \
         only violation: {:?}",
        check.report.violations
    );
    assert!(check
        .report
        .violations
        .iter()
        .all(|v| v.variable.as_deref() == Some("counter")));
}
