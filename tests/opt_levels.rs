//! Differential harness over the optimization-level axis.
//!
//! The bytecode optimizer ([`hsm_vm::opt`]) must be unobservable: a
//! program optimized at `O1` or `O2` has to produce byte-identical
//! output, the same exit code, the same per-unit synchronization-event
//! streams and the same sharing-oracle verdicts as the unoptimized `O0`
//! build — under every execution model, for the whole corpus, including
//! the adversarial programs whose *wrong* answers are part of the
//! contract. This suite is the optimizer's safety net; `exec_models.rs`
//! is its template on the model axis.

use hsm_core::api::{ExecModel, Mode, OptLevel, Pipeline, Scenario, Stage};
use hsm_exec::{SyncEvent, TraceEvent, TraceSink};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// The scenario in `mode` at the given memory model and level.
fn at(mode: Mode, model: ExecModel, level: OptLevel) -> Scenario {
    Scenario::new(mode).exec_model(model).opt_level(level)
}

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

/// The adversarial corpus (deliberately unsound sharing).
const ADVERSARIAL: [(&str, usize); 2] = [
    ("adversarial/escaping_arg.c", 4),
    ("adversarial/unlocked_counter.c", 4),
];

/// Every execution model.
const MODELS: [ExecModel; 3] = [
    ExecModel::Coherent,
    ExecModel::NonCoherentWriteBack,
    ExecModel::SeqCstReference,
];

/// (exit code, output lines) of a run — the observable a level change
/// must not move.
fn observed(r: &hsm_exec::RunResult) -> (i64, Vec<String>) {
    (r.exit_code, r.output_sorted())
}

/// Translated (HSM) runs of the whole clean corpus: `O1` and `O2` agree
/// with `O0` under every execution model.
#[test]
fn translated_corpus_is_level_invariant_under_every_model() {
    for (name, cores) in CLEAN {
        for model in MODELS {
            let session = Pipeline::new(read(name)).cores(cores);
            let o0 = session
                .clone()
                .scenario(at(Mode::RcceHsm, model, OptLevel::O0))
                .run_scenario()
                .unwrap_or_else(|e| panic!("{name} {model:?} O0: {e}"));
            for level in [OptLevel::O1, OptLevel::O2] {
                let opt = session
                    .clone()
                    .scenario(at(Mode::RcceHsm, model, level))
                    .run_scenario()
                    .unwrap_or_else(|e| panic!("{name} {model:?} {level}: {e}"));
                assert_eq!(
                    observed(&o0),
                    observed(&opt),
                    "{name} under {model:?}: {level} HSM run diverged from O0"
                );
            }
        }
    }
}

/// Baseline (pthread) runs of the whole clean corpus: level-invariant
/// under every execution model — including the non-coherent one, where
/// whatever the write-back caches make of an unmodified pthread binary
/// must at least be the *same* whatever at every level.
#[test]
fn baseline_corpus_is_level_invariant_under_every_model() {
    for (name, cores) in CLEAN {
        for model in MODELS {
            let session = Pipeline::new(read(name)).cores(cores);
            let o0 = session
                .clone()
                .scenario(at(Mode::PthreadBaseline, model, OptLevel::O0))
                .run_scenario()
                .unwrap_or_else(|e| panic!("{name} {model:?} O0: {e}"));
            for level in [OptLevel::O1, OptLevel::O2] {
                let opt = session
                    .clone()
                    .scenario(at(Mode::PthreadBaseline, model, level))
                    .run_scenario()
                    .unwrap_or_else(|e| panic!("{name} {model:?} {level}: {e}"));
                assert_eq!(
                    observed(&o0),
                    observed(&opt),
                    "{name} under {model:?}: {level} baseline run diverged from O0"
                );
            }
        }
    }
}

/// The adversarial programs produce pinned answers per model (right under
/// `Coherent`, deterministically wrong under `NonCoherentWriteBack`).
/// Optimization must not shift either: the exact same answers appear at
/// every level.
#[test]
fn adversarial_corpus_is_level_invariant_under_every_model() {
    for (name, cores) in ADVERSARIAL {
        for model in MODELS {
            let session = Pipeline::new(read(name)).cores(cores);
            let o0 = session
                .clone()
                .scenario(at(Mode::PthreadBaseline, model, OptLevel::O0))
                .run_scenario()
                .unwrap_or_else(|e| panic!("{name} {model:?} O0: {e}"));
            for level in [OptLevel::O1, OptLevel::O2] {
                let opt = session
                    .clone()
                    .scenario(at(Mode::PthreadBaseline, model, level))
                    .run_scenario()
                    .unwrap_or_else(|e| panic!("{name} {model:?} {level}: {e}"));
                assert_eq!(
                    observed(&o0),
                    observed(&opt),
                    "{name} under {model:?}: {level} adversarial run diverged from O0"
                );
            }
        }
    }
}

/// The sharing oracle sees identical violation classes at every level:
/// the optimizer must not hide an unsoundness (by eliding the racy
/// access) or invent one. Checked in pthread mode for the whole corpus
/// (clean + adversarial) and in RCCE mode for the clean corpus.
#[test]
fn oracle_verdicts_are_level_invariant() {
    let programs = CLEAN.iter().chain(ADVERSARIAL.iter());
    for &(name, cores) in programs {
        let session = Pipeline::new(read(name)).cores(cores);
        let o0 = session
            .clone()
            .scenario(Mode::PthreadBaseline.into())
            .check_sharing()
            .unwrap_or_else(|e| panic!("{name} O0 oracle: {e}"));
        for level in [OptLevel::O1, OptLevel::O2] {
            let opt = session
                .clone()
                .scenario(at(Mode::PthreadBaseline, ExecModel::Coherent, level))
                .check_sharing()
                .unwrap_or_else(|e| panic!("{name} {level} oracle: {e}"));
            assert_eq!(
                o0.report.classes(),
                opt.report.classes(),
                "{name}: {level} changed the pthread oracle verdict"
            );
            assert_eq!(
                observed(&o0.result),
                observed(&opt.result),
                "{name}: {level} changed the oracle-run observables"
            );
        }
    }
    for (name, cores) in CLEAN {
        let session = Pipeline::new(read(name)).cores(cores);
        let o0 = session
            .clone()
            .check_sharing()
            .unwrap_or_else(|e| panic!("{name} O0 rcce oracle: {e}"));
        for level in [OptLevel::O1, OptLevel::O2] {
            let opt = session
                .clone()
                .scenario(at(Mode::RcceHsm, ExecModel::Coherent, level))
                .check_sharing()
                .unwrap_or_else(|e| panic!("{name} {level} rcce oracle: {e}"));
            assert_eq!(
                o0.report.classes(),
                opt.report.classes(),
                "{name}: {level} changed the RCCE oracle verdict"
            );
        }
    }
}

/// A sink that keeps every synchronization event and ignores the memory
/// trace.
#[derive(Default)]
struct EventLog {
    events: Vec<SyncEvent>,
}

impl TraceSink for EventLog {
    fn record(&mut self, _event: TraceEvent) {}
    fn sync(&mut self, event: SyncEvent) {
        self.events.push(event);
    }
}

/// Normalizes a sync-event stream for cross-level comparison: cycles are
/// dropped (optimization legitimately moves clocks) and events are
/// grouped per unit, since each unit's own synchronization sequence is
/// program-order determined while the cross-unit interleaving is
/// schedule-dependent.
fn per_unit_streams(events: &[SyncEvent]) -> BTreeMap<usize, Vec<String>> {
    let mut map: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for e in events {
        let (unit, label) = match *e {
            SyncEvent::ThreadStart {
                parent, unit, func, ..
            } => (parent, format!("start u{unit} f{func}")),
            SyncEvent::ThreadJoin { unit, target, .. } => (unit, format!("join u{target}")),
            SyncEvent::LockAcquire { unit, lock, .. } => (unit, format!("acquire {lock}")),
            SyncEvent::LockRelease { unit, lock, .. } => (unit, format!("release {lock}")),
            SyncEvent::BarrierArrive { unit, epoch, .. } => (unit, format!("bar-arrive {epoch}")),
            SyncEvent::BarrierRelease { unit, epoch, .. } => (unit, format!("bar-release {epoch}")),
            SyncEvent::Message { from, to, .. } => (to, format!("msg-from u{from}")),
        };
        map.entry(unit).or_default().push(label);
    }
    map
}

/// The synchronization skeleton of every corpus program is identical at
/// `O0` and `O2`, for both the pthread baseline and the translated RCCE
/// build: optimization may only remove pure compute between sync points,
/// never a sync operation (all of them are non-pure intrinsics).
#[test]
fn sync_event_streams_are_level_invariant() {
    for (name, cores) in CLEAN {
        let session = Pipeline::new(read(name)).cores(cores);
        let streams = |level: OptLevel| {
            [Mode::PthreadBaseline, Mode::RcceHsm].map(|mode| {
                let mut log = EventLog::default();
                session
                    .clone()
                    .scenario(at(mode, ExecModel::Coherent, level))
                    .run_traced(&mut log)
                    .unwrap_or_else(|e| panic!("{name} {level} {} traced: {e}", mode.label()));
                per_unit_streams(&log.events)
            })
        };
        let [pthread_o0, rcce_o0] = streams(OptLevel::O0);
        let [pthread_o2, rcce_o2] = streams(OptLevel::O2);
        assert_eq!(
            pthread_o0, pthread_o2,
            "{name}: O2 changed the pthread sync-event streams"
        );
        assert_eq!(
            rcce_o0, rcce_o2,
            "{name}: O2 changed the RCCE sync-event streams"
        );
    }
}

/// An `O0`-vs-`O2` sweep of one benchmark shares every artifact up to
/// translation; only the compile stage forks, because the level is part
/// of the compiled program's cache key.
#[test]
fn multi_level_sweep_shares_artifacts_up_to_translation() {
    use hsm_core::api::{sweep, SweepMatrix, SweepTask};
    let src: Arc<str> = read("example_4_1.c").into();
    let matrix = SweepMatrix::new(scc_sim::SccConfig::table_6_1())
        .workers(2)
        .point(
            "example_4_1/O0",
            Arc::clone(&src),
            SweepTask::Run(Scenario::new(Mode::RcceHsm).opt_level(OptLevel::O0)),
            3,
        )
        .point(
            "example_4_1/O2",
            src,
            SweepTask::Run(Scenario::new(Mode::RcceHsm).opt_level(OptLevel::O2)),
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
    assert_eq!(
        c[Stage::Translate].misses,
        1,
        "one translation for both levels"
    );
    assert_eq!(c[Stage::Translate].hits, 1, "O2 reuses the O0 translation");
    assert_eq!(
        c[Stage::Compile].misses,
        2,
        "levels compile separately: {c:?}"
    );
}

/// Property test: random corpus program × random core count × random
/// model — `O0` and `O2` agree on the observables of both the baseline
/// and the translated run.
#[test]
fn random_points_agree_across_levels() {
    let sources: Vec<(&str, String)> = CLEAN.iter().map(|&(name, _)| (name, read(name))).collect();
    testkit::check("opt_levels_random_points", 6, |rng| {
        let (name, src) = &sources[rng.gen_range_usize(0, sources.len())];
        let cores = rng.gen_range_usize(2, 17);
        let model = MODELS[rng.gen_range_usize(0, MODELS.len())];
        let session = Pipeline::new(src.as_str()).cores(cores);
        let run = |mode: Mode, level: OptLevel| {
            session
                .clone()
                .scenario(at(mode, model, level))
                .run_scenario()
                .unwrap_or_else(|e| {
                    panic!("{name}@{cores} {model:?} {level} {}: {e}", mode.label())
                })
        };
        let base0 = run(Mode::PthreadBaseline, OptLevel::O0);
        let base2 = run(Mode::PthreadBaseline, OptLevel::O2);
        assert_eq!(
            observed(&base0),
            observed(&base2),
            "{name}@{cores} {model:?}: baseline diverged"
        );
        let hsm0 = run(Mode::RcceHsm, OptLevel::O0);
        let hsm2 = run(Mode::RcceHsm, OptLevel::O2);
        assert_eq!(
            observed(&hsm0),
            observed(&hsm2),
            "{name}@{cores} {model:?}: hsm diverged"
        );
    });
}
