//! Corpus test: every C program in `corpus/` must run identically as a
//! pthread baseline, an off-chip RCCE conversion and an HSM conversion —
//! output multisets (deduplicated, since RCCE replicates post-barrier
//! prints per core) and exit codes must agree across all three.

use hsm_core::api::{Mode, Pipeline};
use hsm_core::experiment::outputs_equivalent;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

fn check_program(name: &str, cores: usize) {
    let path = corpus_dir().join(name);
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));

    // One session per program: the three configurations share its parsed
    // unit and analysis through the session cache.
    let session = Pipeline::new(src).cores(cores);
    let base = session
        .clone()
        .scenario(Mode::PthreadBaseline.into())
        .run_scenario()
        .unwrap_or_else(|e| panic!("{name} baseline: {e}"));
    let off = session
        .clone()
        .scenario(Mode::RcceOffChip.into())
        .run_scenario()
        .unwrap_or_else(|e| panic!("{name} off-chip: {e}"));
    let hsm = session
        .run_scenario()
        .unwrap_or_else(|e| panic!("{name} hsm: {e}"));

    assert_eq!(
        base.exit_code, off.exit_code,
        "{name}: off-chip exit differs"
    );
    assert_eq!(base.exit_code, hsm.exit_code, "{name}: hsm exit differs");
    assert!(
        outputs_equivalent(&base, &off),
        "{name}: off-chip output diverged\nbase: {:?}\nrcce: {:?}",
        base.output_sorted(),
        off.output_sorted()
    );
    assert!(
        outputs_equivalent(&base, &hsm),
        "{name}: hsm output diverged\nbase: {:?}\nrcce: {:?}",
        base.output_sorted(),
        hsm.output_sorted()
    );
}

#[test]
fn example_4_1() {
    check_program("example_4_1.c", 3);
}

#[test]
fn mutex_histogram() {
    check_program("mutex_histogram.c", 4);
}

#[test]
fn matrix_vector() {
    check_program("matrix_vector.c", 4);
}

#[test]
fn switch_classifier() {
    check_program("switch_classifier.c", 2);
}

#[test]
fn escaping_local() {
    check_program("escaping_local.c", 4);
}

/// Every corpus file at least parses, analyzes and translates without
/// errors (guards against corpus rot when the subset evolves).
#[test]
fn whole_corpus_translates() {
    let dir = corpus_dir();
    let mut count = 0;
    for entry in std::fs::read_dir(&dir).expect("corpus dir") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("c") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("read");
        let out = hsm_translate::translate_source(&src)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(!out.contains("pthread"), "{}", path.display());
        count += 1;
    }
    assert!(
        count >= 5,
        "corpus should have at least 5 programs, found {count}"
    );
}
