//! The `--check-sharing` corpus sweep.
//!
//! Runs every corpus program — including the adversarial ones in
//! `corpus/adversarial/` — under the sharing-soundness oracle and builds
//! the deterministic `sharing` manifest section. Each program carries an
//! *expectation*: the five disciplined programs must come back clean, and
//! each adversarial program must be flagged with exactly its designed
//! violation class. A program is `pass` only when the oracle's verdict
//! matches its expectation, so the sweep is simultaneously a positive test
//! of the corpus and a negative test of the oracle (a detector that stops
//! detecting fails the adversarial rows).
//!
//! Clean programs are additionally re-run translated under the RCCE-mode
//! oracle (`rcce_clean`), which performs pure happens-before race
//! detection over the shared regions: it validates the synchronization
//! the translator inserted rather than the classification.
//!
//! All checks execute as one parallel [`hsm_core::api::sweep`]
//! over a shared artifact cache, so each clean program is parsed and
//! analyzed once for its pthread-mode and RCCE-mode runs.

use crate::manifest::corpus_source;
use hsm_core::api::Json;
use hsm_core::api::{sweep, Mode, SweepMatrix, SweepOutcome, SweepPayload, SweepTask};
use hsm_core::api::{PipelineError, SharingCheck};
use hsm_exec::{Violation, ViolationClass};
use scc_sim::SccConfig;
use std::sync::Arc;

/// Expected oracle outcome per corpus program: `None` means the program
/// must run clean; `Some(class)` means the oracle must flag exactly that
/// violation class. Core counts apply to the translated (RCCE) re-run of
/// clean programs.
pub(crate) const SHARING_EXPECTATIONS: [(&str, usize, Option<ViolationClass>); 7] = [
    ("example_4_1", 3, None),
    ("matrix_vector", 4, None),
    ("mutex_histogram", 4, None),
    ("switch_classifier", 2, None),
    ("escaping_local", 4, None),
    (
        "adversarial/escaping_arg",
        2,
        Some(ViolationClass::Unsoundness),
    ),
    (
        "adversarial/unlocked_counter",
        2,
        Some(ViolationClass::DataRace),
    ),
];

/// One violation as a manifest row. Cycle stamps and raw addresses are
/// deliberately excluded: they shift with unrelated codegen changes, while
/// (class, variable, units, direction) is the stable semantic content.
fn violation_json(v: &Violation) -> Json {
    Json::obj(vec![
        ("class", Json::str(v.class.label())),
        (
            "variable",
            v.variable.as_deref().map_or(Json::Null, Json::str),
        ),
        ("unit", Json::UInt(v.unit as u64)),
        (
            "other",
            v.other.map_or(Json::Null, |u| Json::UInt(u as u64)),
        ),
        ("write", Json::Bool(v.write)),
    ])
}

/// Builds one program's sharing entry from its oracle check (and, for
/// clean expectations, the RCCE-mode re-check).
fn entry_json(
    name: &str,
    cores: usize,
    expected: Option<ViolationClass>,
    check: &SharingCheck,
    rcce: Option<&SharingCheck>,
) -> Json {
    let classes = check.report.classes();
    let pass = match expected {
        None => classes.is_empty(),
        Some(class) => classes == [class],
    };
    let (shared, private, unknown) = check.manifest.counts();
    let mut pairs = vec![
        ("name", Json::str(name)),
        (
            "expected",
            expected.map_or(Json::str("clean"), |c| Json::str(c.label())),
        ),
        ("pass", Json::Bool(pass)),
        ("clean", Json::Bool(check.report.is_clean())),
        (
            "variables",
            Json::obj(vec![
                ("shared", Json::UInt(shared as u64)),
                ("private", Json::UInt(private as u64)),
                ("unknown", Json::UInt(unknown as u64)),
            ]),
        ),
        (
            "violations",
            Json::Arr(check.report.violations.iter().map(violation_json).collect()),
        ),
    ];
    if let Some(rcce) = rcce {
        pairs.push(("rcce_cores", Json::UInt(cores as u64)));
        pairs.push(("rcce_clean", Json::Bool(rcce.report.is_clean())));
    }
    Json::obj(pairs)
}

/// Unwraps a sharing payload out of a sweep outcome.
fn sharing_payload(outcome: SweepOutcome) -> Result<SharingCheck, PipelineError> {
    let payload = outcome.result?;
    match payload {
        SweepPayload::Sharing(check) => Ok(*check),
        SweepPayload::Run(..) => {
            unreachable!("sharing points always run the oracle")
        }
    }
}

/// The full `sharing` manifest section: every corpus program checked
/// against its expectation, executed as one parallel sweep. Fully
/// deterministic (no host timings, no cycle stamps), so it is
/// golden-pinned as `goldens/sharing_golden.json`.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn sharing_manifest() -> Result<Json, PipelineError> {
    sharing_manifest_with(0)
}

/// [`sharing_manifest`] with an explicit sweep worker count
/// (0 = one per available host core).
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn sharing_manifest_with(workers: usize) -> Result<Json, PipelineError> {
    let config = SccConfig::table_6_1();
    let mut matrix = SweepMatrix::new(config).workers(workers);
    for &(name, cores, expected) in &SHARING_EXPECTATIONS {
        let src = corpus_source(name);
        matrix = matrix.point(
            format!("{name}/check"),
            Arc::clone(&src),
            SweepTask::CheckSharing(Mode::PthreadBaseline.into()),
            cores,
        );
        if expected.is_none() {
            matrix = matrix.point(
                format!("{name}/rcce"),
                src,
                SweepTask::CheckSharing(Mode::RcceHsm.into()),
                cores,
            );
        }
    }
    let report = sweep(&matrix);
    let mut outcomes = report.outcomes.into_iter();
    let mut entries = Vec::with_capacity(SHARING_EXPECTATIONS.len());
    for &(name, cores, expected) in &SHARING_EXPECTATIONS {
        let check = sharing_payload(outcomes.next().expect("check point"))?;
        let rcce = if expected.is_none() {
            Some(sharing_payload(outcomes.next().expect("rcce point"))?)
        } else {
            None
        };
        entries.push(entry_json(name, cores, expected, &check, rcce.as_ref()));
    }
    Ok(Json::obj(vec![
        (
            "schema_version",
            Json::UInt(crate::manifest::MANIFEST_SCHEMA_VERSION),
        ),
        ("programs", Json::Arr(entries)),
    ]))
}

/// True when every program in the rendered sharing section passed its
/// expectation (the `--check-sharing` exit-code predicate).
pub fn all_pass(sharing: &Json) -> bool {
    match sharing.get("programs") {
        Some(Json::Arr(entries)) => entries
            .iter()
            .all(|e| e.get("pass") == Some(&Json::Bool(true))),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsm_core::api::Pipeline;

    #[test]
    fn sharing_sweep_meets_every_expectation() {
        let m = sharing_manifest().expect("sweep");
        assert!(all_pass(&m), "{}", m.render());
        let Some(Json::Arr(entries)) = m.get("programs") else {
            panic!("programs array missing");
        };
        assert_eq!(entries.len(), SHARING_EXPECTATIONS.len());
        // The adversarial rows are dirty, the rest clean — and every clean
        // program's translated run is race-free too.
        for entry in entries {
            let clean = entry.get("clean") == Some(&Json::Bool(true));
            let expected_clean = entry.get("expected") == Some(&Json::str("clean"));
            assert_eq!(clean, expected_clean, "{}", entry.render());
            if expected_clean {
                assert_eq!(
                    entry.get("rcce_clean"),
                    Some(&Json::Bool(true)),
                    "{}",
                    entry.render()
                );
            }
        }
    }

    #[test]
    fn sharing_manifest_is_worker_count_invariant() {
        let serial = sharing_manifest_with(1).expect("serial");
        let parallel = sharing_manifest_with(4).expect("parallel");
        assert_eq!(serial.render(), parallel.render());
    }

    #[test]
    fn adversarial_rows_name_the_culprit_variable() {
        let name = "adversarial/escaping_arg";
        let check = Pipeline::new(corpus_source(name))
            .cores(2)
            .scenario(Mode::PthreadBaseline.into())
            .check_sharing()
            .expect("check");
        let entry = entry_json(name, 2, Some(ViolationClass::Unsoundness), &check, None);
        let Some(Json::Arr(violations)) = entry.get("violations") else {
            panic!("violations missing");
        };
        assert!(!violations.is_empty());
        assert_eq!(violations[0].get("variable"), Some(&Json::str("local")));
        assert_eq!(violations[0].get("class"), Some(&Json::str("unsoundness")));
    }

    #[test]
    fn all_pass_rejects_failures_and_junk() {
        let good = Json::obj(vec![(
            "programs",
            Json::Arr(vec![Json::obj(vec![("pass", Json::Bool(true))])]),
        )]);
        assert!(all_pass(&good));
        let bad = Json::obj(vec![(
            "programs",
            Json::Arr(vec![Json::obj(vec![("pass", Json::Bool(false))])]),
        )]);
        assert!(!all_pass(&bad));
        assert!(!all_pass(&Json::Null));
    }
}
