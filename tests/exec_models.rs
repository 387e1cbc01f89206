//! Differential harness over the execution-model axis.
//!
//! [`hsm_exec::run`] runs every program under a pluggable
//! [`hsm_core::ExecModel`]. This suite pins the contract between the three
//! models:
//!
//! - `Coherent` is the ground truth: deterministic, and byte-identical to
//!   the pre-refactor engines (the goldens and `corpus.rs` already pin
//!   that; here we pin determinism and model-level agreement).
//! - `SeqCstReference` must agree with `Coherent` on every observable
//!   value (output lines, exit code) while charging flat latencies.
//! - `NonCoherentWriteBack` models the SCC's real non-coherent caches: the
//!   clean corpus stays correct (the translator privatizes or
//!   message-passes all sharing), while the adversarial corpus — programs
//!   whose threads share memory without synchronization — visibly breaks.

use hsm_core::experiment::{outputs_equivalent, sweep, Mode, SweepMatrix, SweepTask};
use hsm_core::{ExecModel, Pipeline, Scenario, Stage};
use std::path::PathBuf;
use std::sync::Arc;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

fn read(rel: &str) -> String {
    let path = corpus_dir().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The clean corpus with the core counts `corpus.rs` uses.
const CLEAN: [(&str, usize); 5] = [
    ("example_4_1.c", 3),
    ("matrix_vector.c", 4),
    ("mutex_histogram.c", 4),
    ("switch_classifier.c", 2),
    ("escaping_local.c", 4),
];

/// Two coherent replays of the whole corpus are indistinguishable, and a
/// `SeqCstReference` replay agrees on every value (it only re-prices
/// memory latency, so cycle counts may differ but nothing else may).
#[test]
fn coherent_is_deterministic_and_seq_cst_agrees() {
    for (name, cores) in CLEAN {
        let session = Pipeline::new(read(name)).cores(cores);
        let a = session
            .clone()
            .scenario(Mode::PthreadBaseline.into())
            .run_scenario()
            .unwrap_or_else(|e| panic!("{name} coherent: {e}"));
        // The replay goes through `run_traced`, which always simulates:
        // a second `run_scenario` over the same cache would be answered
        // from the run shelf and compare `a` with itself.
        let b = session
            .clone()
            .scenario(Mode::PthreadBaseline.into())
            .run_traced(&mut hsm_exec::NullSink)
            .unwrap_or_else(|e| panic!("{name} coherent replay: {e}"));
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{name}: replay diverged"
        );

        let seq = session
            .clone()
            .scenario(Scenario::new(Mode::PthreadBaseline).exec_model(ExecModel::SeqCstReference))
            .run_scenario()
            .unwrap_or_else(|e| panic!("{name} seq_cst_ref: {e}"));
        assert_eq!(a.exit_code, seq.exit_code, "{name}: seq_cst_ref exit");
        assert_eq!(
            a.output_sorted(),
            seq.output_sorted(),
            "{name}: seq_cst_ref output"
        );
    }
}

/// Translated (RCCE) programs only share memory through explicit puts,
/// gets and flag writes, all of which the runtime flushes; losing cache
/// coherence therefore changes nothing observable for the clean corpus.
#[test]
fn translated_corpus_survives_non_coherent_caches() {
    for (name, cores) in CLEAN {
        let session = Pipeline::new(read(name)).cores(cores);
        let coherent = session
            .clone()
            .run_scenario()
            .unwrap_or_else(|e| panic!("{name} hsm coherent: {e}"));
        let wb = session
            .scenario(Scenario::default().exec_model(ExecModel::NonCoherentWriteBack))
            .run_scenario()
            .unwrap_or_else(|e| panic!("{name} hsm non-coherent: {e}"));
        assert_eq!(coherent.exit_code, wb.exit_code, "{name}: exit differs");
        assert!(
            outputs_equivalent(&coherent, &wb),
            "{name}: non-coherent HSM output diverged\ncoherent: {:?}\nwb:       {:?}",
            coherent.output_sorted(),
            wb.output_sorted()
        );
    }
}

/// The adversarial corpus is the punchline of the model axis: the same
/// pthread binaries that are correct under `Coherent` produce visibly
/// wrong answers once each unit's writes stay in a private write-back
/// cache. The exact wrong answers are deterministic, so we pin them.
#[test]
fn adversarial_corpus_breaks_without_coherence() {
    for (name, cores, good_exit, good_line, bad_exit, bad_line) in [
        (
            "adversarial/escaping_arg.c",
            4,
            42,
            "local 42",
            1,
            "local 1",
        ),
        (
            "adversarial/unlocked_counter.c",
            4,
            200,
            "counter 200",
            0,
            "counter 0",
        ),
    ] {
        let session = Pipeline::new(read(name)).cores(cores);
        let coherent = session
            .clone()
            .scenario(Mode::PthreadBaseline.into())
            .run_scenario()
            .unwrap_or_else(|e| panic!("{name} coherent: {e}"));
        let wb = session
            .scenario(
                Scenario::new(Mode::PthreadBaseline).exec_model(ExecModel::NonCoherentWriteBack),
            )
            .run_scenario()
            .unwrap_or_else(|e| panic!("{name} non-coherent: {e}"));
        assert_eq!(coherent.exit_code, good_exit, "{name}: coherent exit");
        assert!(
            coherent.output_sorted().iter().any(|l| l == good_line),
            "{name}: coherent output missing {good_line:?}: {:?}",
            coherent.output_sorted()
        );
        assert_eq!(wb.exit_code, bad_exit, "{name}: non-coherent exit");
        assert!(
            wb.output_sorted().iter().any(|l| l == bad_line),
            "{name}: non-coherent output missing {bad_line:?}: {:?}",
            wb.output_sorted()
        );
        assert_ne!(
            (coherent.exit_code, coherent.output_sorted()),
            (wb.exit_code, wb.output_sorted()),
            "{name}: losing coherence should be observable"
        );
    }
}

/// A two-model sweep of one benchmark through `experiment::sweep` shares
/// every compiled artifact: the model is execution-time-only state and
/// deliberately absent from the artifact-cache keys.
#[test]
fn multi_model_sweep_shares_artifacts() {
    let src: Arc<str> = read("example_4_1.c").into();
    let matrix = SweepMatrix::new(scc_sim::SccConfig::table_6_1())
        .workers(2)
        .point(
            "example_4_1/coherent",
            Arc::clone(&src),
            SweepTask::Run(Scenario::new(Mode::RcceHsm).exec_model(ExecModel::Coherent)),
            3,
        )
        .point(
            "example_4_1/non_coherent_wb",
            src,
            SweepTask::Run(
                Scenario::new(Mode::RcceHsm).exec_model(ExecModel::NonCoherentWriteBack),
            ),
            3,
        );
    let report = sweep(&matrix);
    for outcome in &report.outcomes {
        assert!(
            outcome.result.is_ok(),
            "{}: {:?}",
            outcome.name,
            outcome.result.as_ref().err()
        );
    }
    let c = report.cache;
    assert!(
        c.total_hits() > 0,
        "multi-model sweep should reuse artifacts: {c:?}"
    );
    assert_eq!(
        c[Stage::Translate].misses,
        1,
        "one translation for both models"
    );
    assert_eq!(
        c[Stage::Compile].misses,
        1,
        "one compile for both models: {c:?}"
    );
    assert_eq!(
        c[Stage::Compile].hits,
        1,
        "second model reuses the binary: {c:?}"
    );
}
