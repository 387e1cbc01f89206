//! The run shelf is exact: what `Pipeline::run_scenario` answers from
//! memory or from a disk store is `==` — the whole `RunResult` — what it
//! computed, and what `run_traced(&mut NullSink)`, which never consults
//! the shelf, computes. For every corpus program under every mode it
//! supports × three exec models × {O0, O2}.
//!
//! A run that fails, fails the same way every time and leaves nothing
//! behind.

use hsm_core::api::{ArtifactCache, ExecModel, Mode, OptLevel, Pipeline, Scenario, Stage};
use hsm_exec::NullSink;
use std::path::PathBuf;
use std::sync::Arc;

const BARRIER: [Mode; 3] = [Mode::PthreadBaseline, Mode::RcceOffChip, Mode::RcceHsm];

/// Every corpus program with its core count and the modes it supports.
const CORPUS: [(&str, usize, &[Mode]); 11] = [
    ("example_4_1", 3, &BARRIER),
    ("matrix_vector", 4, &BARRIER),
    ("mutex_histogram", 4, &BARRIER),
    ("switch_classifier", 2, &BARRIER),
    ("escaping_local", 4, &BARRIER),
    ("dot_product", 8, &BARRIER),
    ("adversarial/escaping_arg", 2, &[Mode::PthreadBaseline]),
    ("adversarial/unlocked_counter", 2, &[Mode::PthreadBaseline]),
    ("task_matrix_vector", 4, &[Mode::TaskDataflow]),
    ("task_histogram", 4, &[Mode::TaskDataflow]),
    ("task_dot_product", 8, &[Mode::TaskDataflow]),
];

fn read(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("corpus")
        .join(format!("{name}.c"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hsm-run-shelf-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_tier_answers_what_the_simulator_computes() {
    let dir = temp_dir("exact");
    let first = ArtifactCache::persistent(&dir).expect("store opens");
    let second = ArtifactCache::persistent(&dir).expect("store reopens");
    let mut points = 0;
    for (name, cores, modes) in CORPUS {
        let source: Arc<str> = read(name).into();
        for &mode in modes {
            for model in ExecModel::ALL {
                for level in [OptLevel::O0, OptLevel::O2] {
                    let scenario = Scenario::new(mode).exec_model(model).opt_level(level);
                    let tag = format!("{name}/{}", scenario.label());
                    let over = |cache: &Arc<ArtifactCache>| {
                        Pipeline::new(Arc::clone(&source))
                            .cores(cores)
                            .scenario(scenario)
                            .cache(Arc::clone(cache))
                    };
                    let session = over(&first);
                    let simulated = session
                        .run_traced(&mut NullSink)
                        .unwrap_or_else(|e| panic!("{tag}: {e}"));
                    let cold = session.run_scenario().expect("cold");
                    let memory_warm = session.run_scenario().expect("memory-warm");
                    let disk_warm = over(&second).run_scenario().expect("disk-warm");
                    assert_eq!(cold, simulated, "{tag}: cold");
                    assert_eq!(memory_warm, simulated, "{tag}: memory-warm");
                    assert_eq!(disk_warm, simulated, "{tag}: disk-warm");
                    points += 1;
                }
            }
        }
    }
    // The tiers did what the names say: every point was computed once,
    // answered from memory once, and loaded from disk once.
    let (a, b) = (first.stats(), second.stats());
    assert_eq!((a[Stage::Run].misses, a[Stage::Run].hits), (points, points));
    let (a, b) = (a.store.expect("store"), b.store.expect("store"));
    assert_eq!((a[Stage::Run].writes, a[Stage::Run].loads), (points, 0));
    assert_eq!((b[Stage::Run].loads, b[Stage::Run].writes), (points, 0));
    assert_eq!(a.total_corrupt() + b.total_corrupt(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failing_run_fails_identically_and_leaves_no_entry() {
    const NEGATIVE_LOAD: &str = "int main() { int *p = (int *)(0 - 8); return *p; }";
    let dir = temp_dir("failing");
    let cache = ArtifactCache::persistent(&dir).expect("store opens");
    for mode in BARRIER {
        let session = Pipeline::new(NEGATIVE_LOAD)
            .cores(2)
            .scenario(mode.into())
            .cache(Arc::clone(&cache));
        let errors: Vec<String> = (0..3)
            .map(|_| session.run_scenario().expect_err("cannot succeed"))
            .inspect(|e| assert_eq!(e.stage(), "exec", "{e}"))
            .map(|e| e.to_string())
            .collect();
        assert_eq!(errors[0], errors[1], "{}", mode.label());
        assert_eq!(errors[0], errors[2], "{}", mode.label());
    }
    let stats = cache.stats();
    assert_eq!(
        (stats[Stage::Run].hits, stats[Stage::Run].misses),
        (0, 9),
        "each attempt simulated again"
    );
    let store = stats.store.expect("store");
    assert_eq!((store[Stage::Run].writes, store[Stage::Run].loads), (0, 0));
    let entries = std::fs::read_dir(dir.join("v2/run")).expect("run shelf");
    assert_eq!(entries.count(), 0, "an error is never stored");
    let _ = std::fs::remove_dir_all(&dir);
}
